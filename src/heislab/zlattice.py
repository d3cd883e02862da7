"""Integer lattices in Hermite normal form.

Everything downstream that has to decide something exactly (membership,
rank, coordinate-subspace intersections) reduces to HNF computations here.
Coefficients are Python ints, so there is no overflow to worry about.

A ``Lattice`` optionally carries a transform matrix expressing its basis rows
as integer combinations of the vectors it was generated from; decision
procedures use this to reconstruct witnesses in terms of the original
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Vector = tuple[int, ...]


def _combine(coeffs: Iterable[int], rows: Iterable[Sequence[int]], width: int) -> list[int]:
    """The integer combination sum_k coeffs[k] * rows[k] of width-long rows."""
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return out


def _row_reduce(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Bring ``rows`` to row-style HNF by unimodular row operations.

    Returns (rows, U) with U unimodular and U @ input = rows; the nonzero
    rows (on top) are in HNF: positive pivots left to right, entries above
    each pivot reduced into [0, pivot).
    """
    n = len(rows)
    dim = len(rows[0]) if rows else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for col in range(dim):
        # clear column below position r via gcd row operations
        while True:
            pivots = [i for i in range(r, n) if rows[i][col] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: (abs(rows[i][col]), i))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, n):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r][col]
                    for j in range(dim):
                        rows[i][j] -= q * rows[r][j]
                    for j in range(n):
                        U[i][j] -= q * U[r][j]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if r < n and rows[r][col] != 0:
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
                U[r] = [-x for x in U[r]]
            for i in range(r):
                q = rows[i][col] // rows[r][col]
                if q:
                    for j in range(dim):
                        rows[i][j] -= q * rows[r][j]
                    for j in range(n):
                        U[i][j] -= q * U[r][j]
            r += 1
    return rows, U


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^d given by an HNF basis (rows)."""

    ambient_dim: int
    basis: tuple[Vector, ...]
    # basis rows as integer combinations of the generating vectors, when known
    transform: Optional[tuple[Vector, ...]] = None

    @property
    def rank(self) -> int:
        return len(self.basis)

    def vectors_up_to(self, bound: int) -> list[Vector]:
        """All integer combinations of the basis with coefficients in
        [-bound, bound], in deterministic order (includes zero)."""
        import itertools

        return [
            tuple(_combine(coeffs, self.basis, self.ambient_dim))
            for coeffs in itertools.product(range(-bound, bound + 1), repeat=self.rank)
        ]


def hnf(vectors: Iterable[Sequence[int]], ambient_dim: int | None = None) -> Lattice:
    """HNF basis of the subgroup of Z^d generated by ``vectors``."""
    vecs = [list(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient_dim required for empty generating set")
        ambient_dim = len(vecs[0])
    for v in vecs:
        if len(v) != ambient_dim:
            raise ValueError("dimension mismatch")
    rows, U = _row_reduce(vecs)
    basis = [tuple(row) for row in rows if any(row)]
    transform = tuple(tuple(u) for u in U[: len(basis)])
    return Lattice(ambient_dim, tuple(basis), transform)


def solve(L: Lattice, v: Sequence[int]) -> Optional[Vector]:
    """Coefficients of v over the HNF basis, or None if v is not in L."""
    if len(v) != L.ambient_dim:
        raise ValueError("dimension mismatch")
    residual = list(v)
    coeffs = []
    for row in L.basis:
        col = next(j for j, x in enumerate(row) if x)
        if residual[col] % row[col] != 0:
            return None
        c = residual[col] // row[col]
        coeffs.append(c)
        if c:
            for j in range(L.ambient_dim):
                residual[j] -= c * row[j]
    if any(residual):
        return None
    return tuple(coeffs)


def member(L: Lattice, v: Sequence[int]) -> bool:
    return solve(L, v) is not None


def in_source_coordinates(L: Lattice, v: Sequence[int]) -> Optional[Vector]:
    """Express v over the vectors L was generated from, via the transform."""
    if L.transform is None:
        raise ValueError("lattice carries no transform")
    coeffs = solve(L, v)
    if coeffs is None:
        return None
    nsrc = len(L.transform[0]) if L.transform else 0
    return tuple(_combine(coeffs, L.transform, nsrc))


def intersect_coordinate_zero(L: Lattice, coords: Iterable[int]) -> Lattice:
    """HNF basis of the sublattice of L vanishing on the given coordinates.

    Computed via the integer left-kernel of the basis restricted to those
    coordinates; the transform (when present) is composed so the result's
    basis rows are still expressed over L's original source vectors.
    """
    coords = sorted(set(coords))
    for c in coords:
        if not 0 <= c < L.ambient_dim:
            raise IndexError(f"coordinate {c} out of range")
    if not L.basis:
        return Lattice(L.ambient_dim, (), L.transform and ())
    if not coords:
        return L
    restricted = [[row[c] for c in coords] for row in L.basis]
    reduced, U = _row_reduce(restricted)
    nonzero = sum(1 for row in reduced if any(row))
    kernel = U[nonzero:]  # combos of basis rows vanishing on coords
    if not kernel:
        return Lattice(L.ambient_dim, (), () if L.transform is not None else None)
    rows, U2 = _row_reduce([_combine(k, L.basis, L.ambient_dim) for k in kernel])
    basis = [tuple(row) for row in rows if any(row)]
    transform = None
    if L.transform is not None:
        nsrc = len(L.transform[0]) if L.transform else 0
        srcs = [_combine(k, L.transform, nsrc) for k in kernel]
        transform = tuple(tuple(_combine(u, srcs, nsrc)) for u in U2[: len(basis)])
    return Lattice(L.ambient_dim, tuple(basis), transform)
