"""Integer lattices in Hermite normal form.

Everything downstream that has to decide something exactly (membership,
rank, coordinate-subspace intersections) reduces to HNF computations here.
Coefficients are Python ints, so there is no overflow to worry about.

A ``Lattice`` carries a transform matrix expressing its basis rows as integer
combinations of the vectors it was generated from; decision procedures use
this to reconstruct witnesses in terms of the original generators.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .record import Record, setfield

Vector = tuple[int, ...]


def combine(coeffs: Iterable[int], rows: Iterable[Sequence[int]], width: int) -> list[int]:
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
    each pivot reduced into [0, pivot).  When column ``col`` is reached,
    every row from position r on, the pivot row among them, is 0 left of
    ``col``; each row update subtracts a multiple of the pivot row, so it
    starts at ``col``.
    """
    n = len(rows)
    dim = len(rows[0]) if rows else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for col in range(dim):
        # clear column below position r via gcd row operations
        while True:
            # the pivot: the least nonzero |entry| at or below r, first on ties
            i0, least = -1, 0
            for i in range(r, n):
                x = rows[i][col]
                if x and (not least or abs(x) < least):
                    i0, least = i, abs(x)
            if i0 < 0:
                break
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                U[r], U[i0] = U[i0], U[r]
            prow, pu = rows[r], U[r]
            p = prow[col]
            done = True
            for i in range(r + 1, n):
                row = rows[i]
                if row[col]:
                    q = row[col] // p
                    for j in range(col, dim):
                        row[j] -= q * prow[j]
                    u = U[i]
                    for j in range(n):
                        u[j] -= q * pu[j]
                    if row[col]:
                        done = False
            if done:
                break
        if r < n and rows[r][col]:
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
                U[r] = [-x for x in U[r]]
            prow, pu = rows[r], U[r]
            p = prow[col]
            for i in range(r):
                row = rows[i]
                q = row[col] // p
                if q:
                    for j in range(col, dim):
                        row[j] -= q * prow[j]
                    u = U[i]
                    for j in range(n):
                        u[j] -= q * pu[j]
            r += 1
    return rows, U


class Lattice(Record):
    """Subgroup of Z^d given by an HNF basis (rows)."""

    ambient_dim: int
    basis: tuple[Vector, ...]
    # basis rows as integer combinations of the generating vectors
    transform: tuple[Vector, ...]

    def __init__(self, ambient_dim, basis, transform):
        setfield(self, "ambient_dim", ambient_dim)
        setfield(self, "basis", basis)
        setfield(self, "transform", transform)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def vectors_up_to(self, bound: int) -> list[Vector]:
        """All integer combinations of the basis with coefficients in
        [-bound, bound], in deterministic order (includes zero)."""
        import itertools

        return [
            tuple(combine(coeffs, self.basis, self.ambient_dim))
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
    coeffs = solve(L, v)
    if coeffs is None:
        return None
    nsrc = len(L.transform[0]) if L.transform else 0
    return tuple(combine(coeffs, L.transform, nsrc))


def left_kernel(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """A basis of {c : sum_k c[k] * rows[k] = 0}: the rows of U opposite the
    zero rows of one row reduction U @ rows (U is unimodular)."""
    reduced, U = _row_reduce([list(row) for row in rows])
    nonzero = sum(1 for row in reduced if any(row))
    return U[nonzero:]


def intersect_coordinate_zero(L: Lattice, coords: Iterable[int]) -> Lattice:
    """HNF basis of the sublattice of L vanishing on the given coordinates.

    Computed via the integer left-kernel of the basis restricted to those
    coordinates; the transform is composed so the result's basis rows are
    still expressed over L's original source vectors.

    On the first m coordinates, range(m), the answer is the tail of L's
    basis whose rows are 0 there, with their transform rows.  The pivots of
    an HNF basis increase, so a row that is nonzero on range(m) has its
    pivot there, and every later row is 0 at that pivot.  In a combination
    that vanishes on range(m), the first such row with a nonzero
    coefficient would leave a nonzero entry at its pivot; so only the tail
    takes part.  The general path computes the same basis and transform:
    the basis restricted to range(m) is already in HNF, with the tail's
    zero rows at the bottom, so its row reduction is the identity and the
    kernel is the tail's unit vectors; the tail is in HNF, so the second
    row reduction is the identity too.
    """
    coords = sorted(set(coords))
    for c in coords:
        if not 0 <= c < L.ambient_dim:
            raise IndexError(f"coordinate {c} out of range")
    if not L.basis or not coords:
        return L
    m = len(coords)
    if coords[-1] == m - 1:  # coords is range(m)
        tail = next((i for i, row in enumerate(L.basis) if not any(row[:m])), L.rank)
        return Lattice(L.ambient_dim, L.basis[tail:], L.transform[tail:])
    kernel = left_kernel([[row[c] for c in coords] for row in L.basis])
    if not kernel:
        return Lattice(L.ambient_dim, (), ())
    rows, U2 = _row_reduce([combine(k, L.basis, L.ambient_dim) for k in kernel])
    basis = [tuple(row) for row in rows if any(row)]
    nsrc = len(L.transform[0])
    srcs = [combine(k, L.transform, nsrc) for k in kernel]
    transform = tuple(tuple(combine(u, srcs, nsrc)) for u in U2[: len(basis)])
    return Lattice(L.ambient_dim, tuple(basis), transform)
