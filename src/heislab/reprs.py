"""Representations G <= UT3(R) and the exact decision procedures on them.

A representation is a finite list of named matrix generators over a product
ring, always containing the distinguished integer generators a1 and a2.  The
map g -> (g12, g23) is a homomorphism onto an additive subgroup of R^2, and
every ring entry in sight lives in the Z-span of finitely many (component,
monomial) coordinates -- the representation's monomial frame.  That turns
each question below (zero divisors among centralizer entries, solvability of
the centralizer systems, commutator surjectivity) into a Hermite-normal-form
computation, which is how the checkers get to be exact over infinite groups.

Checkers return a Verdict; a "violated" verdict always carries a witness
reconstructed as an explicit product of the generators, so it can be
re-checked by direct matrix arithmetic.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional

from . import rings, zlattice
from .rings import RingDesc, RingElem, is_domain
from .ut3 import UT3Elem, a1 as _a1, a2 as _a2, identity as _ut3_identity
from .zlattice import Lattice


@dataclass(frozen=True)
class Verdict:
    status: str  # holds | violated | inconclusive
    method: str  # exact_lattice | bounded_search
    witness: object = None
    bound: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "method": self.method,
            "bound": self.bound,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


@dataclass(frozen=True)
class LameWitness:
    """Element of C(a_i) \\ Z whose off-diagonal entry is a zero divisor."""

    centralizer: int  # 1 or 2
    element: UT3Elem
    entry: RingElem
    dead_component: int

    def to_dict(self):
        return {
            "centralizer": f"a{self.centralizer}",
            "element": str(self.element),
            "entry": str(self.entry),
            "dead_component": self.dead_component + 1,
        }


@dataclass(frozen=True)
class TauWitness:
    """Assignment (x1=x, x2=y) falsifying tau: y in C(a2), x in C(a1),
    [y,x]=1, yet [y,a1] != 1 and [a2,x] != 1."""

    y: UT3Elem
    x: UT3Elem

    def to_dict(self):
        return {"y": str(self.y), "x": str(self.x)}


@dataclass(frozen=True)
class NzctWitness:
    """Assignment falsifying NZCT: q noncentral (does not commute with y),
    p and w commute with q but not with each other."""

    q: UT3Elem
    p: UT3Elem
    w: UT3Elem
    y: UT3Elem

    def to_dict(self):
        return {"x2": str(self.q), "x1": str(self.p), "x3": str(self.w), "y": str(self.y)}


@dataclass(frozen=True)
class SigmaWitness:
    """Commutator value whose centralizer system has no solution."""

    value: RingElem
    system: str  # "S" or "T"

    def to_dict(self):
        return {"commutator_13_entry": str(self.value), "unsolvable_system": self.system}


@dataclass(frozen=True)
class Solution:
    element: UT3Elem
    coefficients: tuple[int, ...]  # exponents over the generator list

    def to_dict(self):
        return {"element": str(self.element), "exponents": list(self.coefficients)}


def _monomials(elems) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Sorted (component, monomial) coordinates occurring in the elements."""
    return tuple(
        sorted({(j, e) for x in elems for j, p in enumerate(x.parts) for e, _c in p})
    )


@dataclass(frozen=True)
class Representation:
    """Finitely generated H-subgroup of UT3(R) given by named generators.

    ``full_center`` marks the center-adjoined variant: the (1,3) entries are
    treated as ranging over all of R.  None of the lattice checkers look at
    (1,3) entries, so the flag only matters for bookkeeping and C-rank
    invariance.
    """

    ring: RingDesc
    generators: tuple[tuple[str, UT3Elem], ...]
    full_center: bool = False

    @cached_property
    def pair_dets(self) -> tuple[RingElem, ...]:
        """Entry determinants g12*h23 - h12*g23 of the generator pairs, in
        itertools.combinations order: the (1,3) entries of commutators."""
        return tuple(
            g.u12 * h.u23 - h.u12 * g.u23
            for (_, g), (_, h) in itertools.combinations(self.generators, 2)
        )

    @cached_property
    def frame(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Sorted (component, monomial) coordinates spanning every generator
        entry and every pairwise entry determinant."""
        entries = [x for _, g in self.generators for x in (g.u12, g.u13, g.u23)]
        return _monomials(entries + list(self.pair_dets))

    @cached_property
    def _frame_index(self) -> dict:
        return {m: i for i, m in enumerate(self.frame)}

    @property
    def dim(self) -> int:
        return len(self.frame)

    def coords(self, elem: RingElem) -> Optional[tuple[int, ...]]:
        """Frame coordinates of a ring element; None if outside the span."""
        v = [0] * self.dim
        for j, p in enumerate(elem.parts):
            for e, c in p:
                i = self._frame_index.get((j, e))
                if i is None:
                    return None
                v[i] = c
        return tuple(v)

    def elem_from_coords(self, v) -> RingElem:
        # the frame is sorted by (component, monomial), so each component's
        # terms come out in canonical order
        parts = [[] for _ in self.ring.components]
        for x, (j, e) in zip(v, self.frame):
            if x:
                parts[j].append((e, x))
        return RingElem(self.ring, tuple(map(tuple, parts)))

    def component_coords(self, component: int) -> list[int]:
        return [i for i, (j, _e) in enumerate(self.frame) if j == component]

    def product_of_generators(self, exponents) -> UT3Elem:
        """prod_k g_k^{c_k} in generator order; its entry pair is the
        corresponding integer combination of generator entry pairs."""
        out = _ut3_identity(self.ring)
        for (_, g), c in zip(self.generators, exponents):
            if c:
                out = out * g.pow_int(c)
        return out

    def env(self):
        """Evaluation environment over this group for the formula module."""
        from .formula import GroupEnv

        constants = {name: g for name, g in self.generators}
        return GroupEnv(_ut3_identity(self.ring), constants, list(self.generators))

    # the EntryLattices, built once; entry_lattices is looked up at call
    # time, so wrappers installed on the module see the call
    lattices = cached_property(lambda self: entry_lattices(self))

    @cached_property
    def det_form(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``det_form[i][j]`` is the frame vector of the entry determinant
        det(b_i, b_j) on the basis of the entry-pair lattice (see
        ``nzct_check``)."""
        T = self.lattices.A.transform
        dets = [self.coords(x) for x in self.pair_dets]
        pairs = list(itertools.combinations(range(len(self.generators)), 2))

        def det(s, t):
            wedge = [s[k] * t[l] - s[l] * t[k] for k, l in pairs]
            return tuple(zlattice.combine(wedge, dets, self.dim))

        return tuple(tuple(det(s, t) for t in T) for s in T)


def representation(
    ring: RingDesc,
    extra_generators: dict[str, UT3Elem] | None = None,
    full_center: bool = False,
) -> Representation:
    """Build a representation; a1 and a2 are always prepended."""
    gens: list[tuple[str, UT3Elem]] = [("a1", _a1(ring)), ("a2", _a2(ring))]
    for name, g in (extra_generators or {}).items():
        if name in ("a1", "a2"):
            raise ValueError("a1 and a2 are implicit and fixed")
        if g.ring != ring:
            raise ValueError(f"generator {name!r} is over the wrong ring")
        gens.append((name, g))
    return Representation(ring, tuple(gens), full_center)


def heisenberg() -> Representation:
    return representation(rings.Z)


@dataclass(frozen=True)
class EntryLattices:
    """The derived lattices of a representation, all in frame coordinates.

    A lives in Z^(2d): 12-block then 23-block of generator entry pairs.
    A1 (resp. A2) is the sublattice with the 12-block (resp. 23-block) zero:
    entry pairs realized in the centralizer of a1 (resp. a2).  D, in Z^d, is
    generated by the pairwise entry determinants of the generators: the
    (1,3) entries of commutators.
    """

    A: Lattice
    A1: Lattice
    A2: Lattice
    D: Lattice


def entry_lattices(rep: Representation) -> EntryLattices:
    d = rep.dim
    rows = []
    for _, g in rep.generators:
        rows.append(rep.coords(g.u12) + rep.coords(g.u23))
    A = zlattice.hnf(rows, ambient_dim=2 * d)
    A1 = zlattice.intersect_coordinate_zero(A, range(d))
    A2 = zlattice.intersect_coordinate_zero(A, range(d, 2 * d))
    det_rows = [rep.coords(x) for x in rep.pair_dets]
    D = zlattice.hnf(det_rows, ambient_dim=d) if det_rows else Lattice(d, (), ())
    return EntryLattices(A, A1, A2, D)


def _block_coords(rep: Representation, block: int, component: int) -> list[int]:
    """Coordinates of one ring component inside the 12-block (0) or the
    23-block (1) of the Z^(2d) ambient."""
    offset = 0 if block == 0 else rep.dim
    return [offset + i for i in rep.component_coords(component)]


# ---------------------------------------------------------------------------
# Checkers


def lame_check(rep: Representation) -> Verdict:
    """Exact check of the two centralizer-entry conditions: no noncentral
    element of C(a2) has a zero-divisor (1,2) entry, and dually for C(a1)
    with (2,3) entries.  Over a product ring an entry is a zero divisor iff
    it vanishes on some component, which is a lattice condition."""
    if is_domain(rep.ring):
        return Verdict("holds", "exact_lattice")
    L = rep.lattices
    candidates = []
    for centralizer, lat, block in ((2, L.A2, 0), (1, L.A1, 1)):
        for comp in range(rep.ring.ncomponents):
            sub = zlattice.intersect_coordinate_zero(
                lat, _block_coords(rep, block, comp)
            )
            for coeffs in sub.transform or ():
                g = rep.product_of_generators(coeffs)
                entry = g.u12 if centralizer == 2 else g.u23
                candidates.append(
                    (coeffs, LameWitness(centralizer, g, entry, comp))
                )
    if not candidates:
        return Verdict("holds", "exact_lattice")

    def is_single_generator(coeffs):
        return sum(1 for c in coeffs if c) == 1 and all(c in (0, 1) for c in coeffs)

    for coeffs, witness in candidates:
        if is_single_generator(coeffs):
            return Verdict("violated", "exact_lattice", witness)
    return Verdict("violated", "exact_lattice", candidates[0][1])


def tau_check(rep: Representation) -> Verdict:
    """Exact: tau fails iff some nonzero 12-entry u realized in C(a2) and
    nonzero 23-entry v realized in C(a1) have disjoint component supports
    (then u*v = 0).  Support patterns are enumerated over the components."""
    if is_domain(rep.ring):
        return Verdict("holds", "exact_lattice")
    L = rep.lattices
    k = rep.ring.ncomponents
    for mask in range(1, 2**k - 1):
        inside = [j for j in range(k) if mask >> j & 1]
        outside = [j for j in range(k) if not mask >> j & 1]
        # u in A2's 12-block supported inside the mask
        u_coords = [c for j in outside for c in _block_coords(rep, 0, j)]
        latU = zlattice.intersect_coordinate_zero(L.A2, u_coords)
        if latU.rank == 0:
            continue
        v_coords = [c for j in inside for c in _block_coords(rep, 1, j)]
        latV = zlattice.intersect_coordinate_zero(L.A1, v_coords)
        if latV.rank == 0:
            continue
        y = rep.product_of_generators(latU.transform[0])
        x = rep.product_of_generators(latV.transform[0])
        return Verdict("violated", "exact_lattice", TauWitness(y, x))
    return Verdict("holds", "exact_lattice")


def _commuting(rep: Representation, bound: int, d) -> bytes:
    """One byte per coefficient tuple c in [-bound, bound]^r over the basis
    of the entry-pair lattice, in itertools.product order: 1 if
    det(c, d) = 0, else 0.

    c -> det(c, d) is an integer matrix with one row per frame coordinate;
    only its distinct nonzero rows matter, and each row's values over the
    box are built one coordinate at a time."""
    cols = [zlattice.combine(d, row, rep.dim) for row in rep.det_form]
    steps = range(-bound, bound + 1)
    flags = [True] * len(steps) ** len(cols)
    for row in {row for row in zip(*cols) if any(row)}:
        vals = [0]
        for f in row:
            vals = [v + f * t for v in vals for t in steps]
        flags = [z and not v for z, v in zip(flags, vals)]
    return bytes(flags)


def nzct_check(rep: Representation, bound: int = 2) -> Verdict:
    """NZCT over UT3(R): noncentral elements commute iff their entry pairs
    have vanishing determinant.  Over a domain the determinant relation is
    transitive through a noncentral element, so NZCT holds outright; the
    same is true when all generator pairs commute.  Otherwise small lattice
    vectors are searched for a violating triple; a verified witness is
    exact, exhaustion is not a proof.

    Every step runs on integer coefficient tuples over the basis b_i of the
    entry-pair lattice A.  det(u, v) = u12*v23 - v12*u23 is Z-bilinear and
    alternating, and b_i = sum_k t_ik g_k over the generator entry pairs g_k
    (t is A's HNF transform), so det(b_i, b_j) = sum_{k<l} (t_ik t_jl -
    t_il t_jk) det(g_k, g_l).  The det(g_k, g_l) are ``pair_dets``, whose
    monomials are in the frame by its definition, so every determinant
    value is an integer frame vector (``det_form``) and is zero iff its
    coordinates are.  Ring elements are built only for the witness."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if is_domain(rep.ring):
        return Verdict("holds", "exact_lattice")
    L = rep.lattices
    if not any(any(v) for row in rep.det_form for v in row):
        return Verdict("holds", "exact_lattice")

    def diagonal(v) -> bool:  # the same polynomial on every component
        terms = [{} for _ in rep.ring.components]
        for x, (j, e) in zip(v, rep.frame):
            if x:
                terms[j][e] = x
        return all(t == terms[0] for t in terms)

    d = rep.dim
    if len(set(rep.ring.components)) == 1 and all(
        diagonal(x) for v in L.A.basis for x in (v[:d], v[d:])
    ):
        # every realized entry is constant across the identical components, so
        # the group embeds in UT3 of one component -- a domain
        return Verdict("holds", "exact_lattice")
    box = list(itertools.product(range(-bound, bound + 1), repeat=L.A.rank))
    # the HNF basis is linearly independent: a combination is zero iff its
    # coefficient tuple is
    keep = [k for k, c in enumerate(box) if any(c)]
    # the tables take len(keep) bytes each; keep about 32 MB of them at most
    commuting = lru_cache(2**25 // len(keep) + 1)(lambda i: _commuting(rep, bound, box[i]))
    for q in keep:
        y = next((y for y in keep if not commuting(q)[y]), None)
        if y is None:
            continue  # q is central as far as the group is concerned
        parallels = [p for p in keep if commuting(q)[p]]
        for p, w in itertools.combinations(parallels, 2):
            if commuting(p)[w]:
                continue

            def build(i):
                source = zlattice.combine(box[i], L.A.transform, len(rep.generators))
                return rep.product_of_generators(source)

            witness = NzctWitness(build(q), build(p), build(w), build(y))
            return Verdict("violated", "exact_lattice", witness, bound=bound)
    return Verdict("inconclusive", "bounded_search", bound=bound)


def _solve(rep: Representation, z: UT3Elem, block: int) -> Optional[Solution]:
    """A group element whose entry pair is z13 in the given block (0: the
    12-block, 1: the 23-block) and zero in the other; None if there is none."""
    if not z.is_central():
        raise ValueError("z must be central")
    zc = rep.coords(z.u13)
    if zc is None:
        return None  # outside the span of realizable entries
    zero = (0,) * rep.dim
    vec = zc + zero if block == 0 else zero + zc
    coeffs = zlattice.in_source_coordinates(rep.lattices.A, vec)
    if coeffs is None:
        return None
    return Solution(rep.product_of_generators(coeffs), coeffs)


def solve_S(rep: Representation, z: UT3Elem) -> Optional[Solution]:
    """Solve [a2,y]=1, [y,a1]=z for central z; None when unsolvable.

    y must realize the 12-entry z13 inside C(a2), i.e. the vector
    (z13, 0) must lie in the entry-pair lattice."""
    return _solve(rep, z, 0)


def solve_T(rep: Representation, z: UT3Elem) -> Optional[Solution]:
    """Solve [x,a1]=1, [a2,x]=z for central z; None when unsolvable."""
    return _solve(rep, z, 1)


def sigma_check(rep: Representation) -> Verdict:
    """Exact: every commutator value is an integer combination of the
    generator determinants, and system solvability is additive in the
    value, so it suffices that both (d,0) and (0,d) lie in the entry-pair
    lattice for each basis generator d of the determinant lattice."""
    L = rep.lattices
    d = rep.dim
    for dvec in L.D.basis:
        for system, vec in (("S", dvec + (0,) * d), ("T", (0,) * d + dvec)):
            if not zlattice.member(L.A, vec):
                witness = SigmaWitness(rep.elem_from_coords(dvec), system)
                return Verdict("violated", "exact_lattice", witness)
    return Verdict("holds", "exact_lattice")


# ---------------------------------------------------------------------------
# Constructions


def _fresh_name(rep: Representation, stem: str) -> str:
    names = {n for n, _ in rep.generators}
    if stem not in names:
        return stem
    k = 2
    while f"{stem}{k}" in names:
        k += 1
    return f"{stem}{k}"


def adjoin_Y(rep: Representation, z: UT3Elem, name: str | None = None) -> Representation:
    """Adjoin Y with (1,2) entry z13: then [a2,Y]=1 and [Y,a1]=z.

    Meant for central z whose system S is unsolvable; other inputs are
    allowed with a warning to keep pipelines total."""
    if not z.is_central():
        raise ValueError("z must be central")
    if z.is_identity():
        warnings.warn("adjoin_Y with z = identity adjoins the identity")
    elif solve_S(rep, z) is not None:
        warnings.warn("system S is already solvable; adjoin_Y is redundant")
    zero = RingElem.zero(rep.ring)
    Y = UT3Elem(rep.ring, z.u13, zero, zero)
    name = name or _fresh_name(rep, "Y")
    return Representation(rep.ring, rep.generators + ((name, Y),), rep.full_center)


def adjoin_center(rep: Representation) -> Representation:
    """Mark the center as all of {(1,3) entries}: C-rank is unchanged and
    no lattice checker is affected (they read the 12/23 entries only)."""
    return replace(rep, full_center=True)


def extend_centralizer(rep: Representation, i: int, name: str) -> Representation:
    """Free rank-1 extension of C(a_i): adjoin an indeterminate to the ring
    and a generator whose only off-center entry is that indeterminate (it
    commutes with the whole centralizer slice by construction)."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    new_ring = rings.adjoin_indeterminate(rep.ring, name)
    gens = tuple(
        (
            n,
            UT3Elem(
                new_ring,
                rings.embed(g.u12, new_ring),
                rings.embed(g.u13, new_ring),
                rings.embed(g.u23, new_ring),
            ),
        )
        for n, g in rep.generators
    )
    theta = RingElem.var(new_ring, name)
    zero = RingElem.zero(new_ring)
    t = UT3Elem(new_ring, zero, zero, theta) if i == 1 else UT3Elem(new_ring, theta, zero, zero)
    gen_name = _fresh_name(Representation(new_ring, gens), "t")
    return Representation(new_ring, gens + ((gen_name, t),), rep.full_center)


@dataclass(frozen=True)
class BigPowersCertificate:
    n: int
    indeterminate: str
    retracted_targets: tuple[UT3Elem, ...]

    def to_dict(self):
        return {
            "n": self.n,
            "indeterminate": self.indeterminate,
            "retracted_targets": [str(t) for t in self.retracted_targets],
        }


def big_powers_retraction(
    rep_ext: Representation,
    targets,
    i: int,
    name: str | None = None,
) -> BigPowersCertificate:
    """Smallest n >= 1 such that the retraction sending the extension
    indeterminate to n (i.e. t to a_i^n) kills no target.

    Each target keeps a nonzero entry, a polynomial in the indeterminate over
    a product of domains, so ``rings.nonvanishing_point`` finds n with
    n <= 1 + D, where D is the sum over the targets of the largest degree of
    an entry in the indeterminate."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    if name is None:
        comp0 = rep_ext.ring.components[0]
        if not comp0:
            raise ValueError("representation ring has no indeterminates to retract")
        name = comp0[-1]
    elif not any(name in names for names in rep_ext.ring.components):
        raise ValueError(f"{name!r} is not an indeterminate of {rep_ext.ring}")
    targets = list(targets)
    for t in targets:
        if t.is_identity():
            raise ValueError("identity target cannot survive any retraction")
    groups = [[t.u12, t.u13, t.u23] for t in targets]
    n = rings.nonvanishing_point(groups, [name], start=1)[name]
    images = tuple(
        UT3Elem(rep_ext.ring, *(rings.substitute(e, name, n) for e in g)) for g in groups
    )
    return BigPowersCertificate(n, name, images)


def c_rank(rep: Representation) -> int:
    """rank(C(a1)/Z) + rank(C(a2)/Z) - 1, read off the entry lattices."""
    L = rep.lattices
    return L.A1.rank + L.A2.rank - 1


# ---------------------------------------------------------------------------
# Appropriateness


@dataclass(frozen=True)
class Appropriateness:
    status: str  # confirmed | refuted | inconclusive
    witness: Optional[RingElem] = None
    degree_bound: int = 0

    def to_dict(self):
        return {
            "status": self.status,
            "witness": None if self.witness is None else str(self.witness),
            "degree_bound": self.degree_bound,
        }


def _ring_targets(ring: RingDesc) -> list[RingElem]:
    """Designated generators of the product ring: the component idempotents
    (when there are several components) and each indeterminate confined to
    its component."""
    targets = []
    if ring.ncomponents > 1:
        for j in range(ring.ncomponents):
            targets.append(RingElem.idempotent(ring, j))
    for j, names in enumerate(ring.components):
        ej = RingElem.idempotent(ring, j)
        for n in names:
            # the indeterminate n placed in component j only
            diag = RingElem.var(ring, n) if all(n in c for c in ring.components) else None
            if diag is not None:
                targets.append(ej * diag)
            else:
                idx = names.index(n)
                e = tuple(1 if t == idx else 0 for t in range(len(names)))
                parts = [() for _ in ring.components]
                parts[j] = ((e, 1),)
                targets.append(RingElem(ring, tuple(parts)))
    return targets


def _split_top_commas(text: str) -> list[str]:
    parts = [[]]
    depth = 0
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ConfigError("unbalanced brackets")
        if ch == "," and depth == 0:
            parts.append([])
        else:
            parts[-1].append(ch)
    return ["".join(p).strip() for p in parts]


class ConfigError(ValueError):
    pass


def _balanced_block(text: str, start: int) -> tuple[str, int]:
    """The contents of the brace block opening at text[start] == '{'."""
    if start >= len(text) or text[start] != "{":
        raise ConfigError("expected '{'")
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start + 1 : i], i + 1
    raise ConfigError("unterminated '{' block")


def parse_elem_block(ring: RingDesc, body: str) -> UT3Elem:
    """Parse ``e12: <lit>, e13: <lit>, e23: <lit>`` into a matrix element."""
    entries = {}
    for item in _split_top_commas(body):
        if not item:
            continue
        key, sep, value = item.partition(":")
        key = key.strip()
        if not sep or key not in ("e12", "e13", "e23"):
            raise ConfigError(f"bad entry {item!r} (want e12/e13/e23)")
        if key in entries:
            raise ConfigError(f"duplicate entry {key}")
        entries[key] = rings.parse_elem(ring, value.strip())
    zero = RingElem.zero(ring)
    return UT3Elem(
        ring,
        entries.get("e12", zero),
        entries.get("e13", zero),
        entries.get("e23", zero),
    )


def parse_config(text: str) -> Representation:
    """Parse the representation config format:

        ring: Z x Z
        full_center: false
        generators: {
          b: {e12: 0, e13: 0, e23: (1,0)}
        }

    a1 and a2 are implied; ``full_center`` and ``generators`` are optional;
    ``#`` starts a comment."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    m = re.search(r"^\s*ring\s*:\s*(.+?)\s*$", text, re.M)
    if not m:
        raise ConfigError("missing 'ring:' line")
    try:
        ring = rings.parse_ring(m.group(1))
    except rings.RingParseError as exc:
        raise ConfigError(str(exc)) from exc
    full_center = False
    m = re.search(r"^\s*full_center\s*:\s*(\S+)\s*$", text, re.M)
    if m:
        if m.group(1) not in ("true", "false"):
            raise ConfigError("full_center must be true or false")
        full_center = m.group(1) == "true"
    extra: dict[str, UT3Elem] = {}
    m = re.search(r"generators\s*:\s*", text)
    if m:
        body, _end = _balanced_block(text, text.index("{", m.end()))
        pos = 0
        while True:
            nm = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)\s*:\s*").match(body, pos)
            if not nm:
                if body[pos:].strip(" \t\n,"):
                    raise ConfigError(f"bad generator syntax near {body[pos:pos+30]!r}")
                break
            name = nm.group(1)
            if name in extra or name in ("a1", "a2"):
                raise ConfigError(f"duplicate or reserved generator name {name!r}")
            block, pos = _balanced_block(body, body.index("{", nm.end()))
            try:
                extra[name] = parse_elem_block(ring, block)
            except rings.RingParseError as exc:
                raise ConfigError(f"generator {name!r}: {exc}") from exc
            rest = re.compile(r"\s*,?").match(body, pos)
            pos = rest.end()
    return representation(ring, extra, full_center)


def serialize_config(rep: Representation) -> str:
    lines = [f"ring: {rep.ring}"]
    lines.append(f"full_center: {'true' if rep.full_center else 'false'}")
    extra = [(n, g) for n, g in rep.generators if n not in ("a1", "a2")]
    if extra:
        lines.append("generators: {")
        for name, g in extra:
            lines.append(
                f"  {name}: {{e12: {g.u12}, e13: {g.u13}, e23: {g.u23}}},"
            )
        lines[-1] = lines[-1].rstrip(",")
        lines.append("}")
    else:
        lines.append("generators: {}")
    return "\n".join(lines) + "\n"


def appropriateness_check(rep: Representation, degree_bound: int) -> Appropriateness:
    """Bounded test of whether the ring is generated by the entries of the
    group: enumerate monomials in the entries up to the degree bound and
    decide membership of each designated ring generator in their Z-span."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    entries = [RingElem.one(rep.ring)]
    for _, g in rep.generators:
        for entry in (g.u12, g.u13, g.u23):
            if not entry.is_zero() and entry not in entries:
                entries.append(entry)
    products = [RingElem.one(rep.ring)]
    seen = set(products)
    layer = [RingElem.one(rep.ring)]
    for _ in range(degree_bound):
        nxt = []
        for p in layer:
            for e in entries:
                q = p * e
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        products.extend(nxt)
        layer = nxt
    targets = _ring_targets(rep.ring)
    # one shared frame for span and targets
    frame = _monomials(products + targets)
    index = {m: i for i, m in enumerate(frame)}

    def vec(x):
        v = [0] * len(frame)
        for j, p in enumerate(x.parts):
            for e, c in p:
                v[index[(j, e)]] = c
        return v

    span = zlattice.hnf([vec(p) for p in products], ambient_dim=len(frame))
    entry_vars = {
        n
        for e in entries
        for j, names in enumerate(rep.ring.components)
        for n in names
        if e.uses_var(n)
    }
    for t in targets:
        if not zlattice.member(span, vec(t)):
            target_vars = {
                n
                for j, names in enumerate(rep.ring.components)
                for n in names
                if t.uses_var(n)
            }
            if target_vars and not (target_vars & entry_vars):
                # the indeterminate appears in no entry: unreachable at any degree
                return Appropriateness("refuted", t, degree_bound)
            return Appropriateness("inconclusive", t, degree_bound)
    return Appropriateness("confirmed", None, degree_bound)
