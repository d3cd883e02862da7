"""Representations G <= UT3(R) and the exact decision procedures on them.

A representation is a finite list of named matrix generators over a product
ring, always containing the distinguished integer generators a1 and a2.  The
map g -> (g12, g23) is a homomorphism onto an additive subgroup of R^2, and
every entry of every group element has exact integer coordinates over the
finitely many (component, monomial) frames f12, f23 and f13 that the
representation builds from its generators.  These are the only coordinates
a representation has, and its class-2 law (``Representation.law``, a
``ut3.Class2Law``) does the group arithmetic on them.  That turns each
question below (zero divisors among centralizer entries, solvability of
the centralizer systems, commutator surjectivity) into a
Hermite-normal-form computation, which is how the checkers get to be exact
over infinite groups.

Checkers return a ``formula.Verdict``; a "violated" verdict always
carries a witness reconstructed as an explicit product of the generators,
so it can be re-checked by direct matrix arithmetic.
"""

from __future__ import annotations

import itertools
import re
import warnings
from functools import cached_property
from typing import Optional

from . import rings, zlattice
from .formula import GroupEnv, Verdict
from .record import Record, setfield
from .rings import Frame, RingDesc, RingElem
from .ut3 import Class2Law, UT3Elem, a1 as _a1, a2 as _a2
from .zlattice import Lattice


class LameWitness(Record):
    """Element of C(a_i) \\ Z whose off-diagonal entry is a zero divisor."""

    centralizer: int  # 1 or 2
    element: UT3Elem
    entry: RingElem
    dead_component: int

    def __init__(self, centralizer, element, entry, dead_component):
        setfield(self, "centralizer", centralizer)
        setfield(self, "element", element)
        setfield(self, "entry", entry)
        setfield(self, "dead_component", dead_component)

    def to_dict(self):
        return {
            "centralizer": f"a{self.centralizer}",
            "element": str(self.element),
            "entry": str(self.entry),
            "dead_component": self.dead_component + 1,
        }


class TauWitness(Record):
    """Assignment (x1=x, x2=y) falsifying tau: y in C(a2), x in C(a1),
    [y,x]=1, yet [y,a1] != 1 and [a2,x] != 1."""

    y: UT3Elem
    x: UT3Elem

    def __init__(self, y, x):
        setfield(self, "y", y)
        setfield(self, "x", x)

    def to_dict(self):
        return {"y": str(self.y), "x": str(self.x)}


class NzctWitness(Record):
    """Assignment falsifying NZCT: q noncentral (does not commute with y),
    p and w commute with q but not with each other."""

    q: UT3Elem
    p: UT3Elem
    w: UT3Elem
    y: UT3Elem

    def __init__(self, q, p, w, y):
        setfield(self, "q", q)
        setfield(self, "p", p)
        setfield(self, "w", w)
        setfield(self, "y", y)

    def to_dict(self):
        return {"x2": str(self.q), "x1": str(self.p), "x3": str(self.w), "y": str(self.y)}


class SigmaWitness(Record):
    """The (1,3) entry of a generator commutator [g_k, g_l] (a commutator
    value) whose centralizer system has no solution."""

    value: RingElem
    system: str  # "S" or "T"

    def __init__(self, value, system):
        setfield(self, "value", value)
        setfield(self, "system", system)

    def to_dict(self):
        return {"commutator_13_entry": str(self.value), "unsolvable_system": self.system}


class Solution(Record):
    element: UT3Elem
    coefficients: tuple[int, ...]  # exponents over the generator list

    def __init__(self, element, coefficients):
        setfield(self, "element", element)
        setfield(self, "coefficients", coefficients)

    def to_dict(self):
        return {"element": str(self.element), "exponents": list(self.coefficients)}


class Representation(Record):
    """Finitely generated H-subgroup of UT3(R) given by named generators.

    ``full_center`` marks the center-adjoined variant: the (1,3) entries are
    treated as ranging over all of R.  None of the lattice checkers look at
    (1,3) entries, so the flag only matters for bookkeeping and C-rank
    invariance.
    """

    ring: RingDesc
    generators: tuple[tuple[str, UT3Elem], ...]
    full_center: bool

    def __init__(self, ring, generators, full_center=False):
        setfield(self, "ring", ring)
        setfield(self, "generators", generators)
        setfield(self, "full_center", full_center)

    @cached_property
    def f12(self) -> Frame:
        """The (component, monomial) frame of the generators' (1,2) entries."""
        return rings.frame_of(g.u12 for _, g in self.generators)

    @cached_property
    def f23(self) -> Frame:
        """The frame of the generators' (2,3) entries."""
        return rings.frame_of(g.u23 for _, g in self.generators)

    @cached_property
    def _products(self) -> tuple[tuple[int, int, tuple], ...]:
        """(i, j, m) per pair of an f12 and an f23 monomial in one component:
        their places and the monomial of their product."""
        return tuple(
            (i, j, (c, tuple(a + b for a, b in zip(e, e2))))
            for i, (c, e) in enumerate(self.f12)
            for j, (c2, e2) in enumerate(self.f23)
            if c == c2
        )

    @cached_property
    def f13(self) -> Frame:
        """The frame of the generators' (1,3) entries and of every product
        of an f12 and an f23 monomial in one component."""
        mono = {m for *_, m in self._products}
        return tuple(sorted(mono | set(rings.frame_of(g.u13 for _, g in self.generators))))

    @cached_property
    def index(self) -> tuple[dict, dict, dict]:
        """Each monomial's place in f12, f23 and f13."""
        return tuple({m: k for k, m in enumerate(f)} for f in (self.f12, self.f23, self.f13))

    @cached_property
    def places(self) -> tuple[tuple, tuple]:
        """Each f13 coordinate's place in ``frame``'s 12-block and in its
        23-block; None where its monomial is outside f12 (resp. f23)."""
        return tuple(
            tuple(None if i is None else offset + i for i in map(self.index[block].get, self.f13))
            for block, offset in ((0, 0), (1, len(self.f12)))
        )

    def entry_pair(self, z, block: int) -> list[int] | None:
        """The entry pair over ``frame`` with f13 coordinates z in the
        12-block (0) or 23-block (1) and 0 in the other; None if z has a
        monomial outside that block's frame."""
        v = [0] * len(self.frame)
        for place, c in zip(self.places[block], z):
            if c:
                if place is None:
                    return None
                v[place] = c
        return v

    @cached_property
    def law(self) -> Class2Law:
        """The group law on integer class-2 coordinates (see ``ut3``): an
        element is one flat tuple (x12, x23, z) over the frames f12, f23 and
        f13, the only coordinates the representation has, and B(x, y) =
        x12*y23 adds x[i]*y[j] to z[k] for each f12 place i and f23 place j
        in one component, with k the place of their product.  Frame
        coordinates are unique, so two elements are equal iff their tuples
        are."""
        n12, n = len(self.f12), len(self.frame)
        table = tuple((i, n12 + j, n + self.index[2][m]) for i, j, m in self._products)
        return Class2Law(n + len(self.f13), n, table)

    @cached_property
    def frame(self) -> Frame:
        """The ambient coordinates of the entry-pair lattice: the (1,2)
        frame, then the (2,3) frame."""
        return self.f12 + self.f23

    def coords(self, block: int, entry: RingElem) -> tuple[int, ...] | None:
        """The coordinates of a ring element over one frame (block 0: f12,
        1: f23, 2: f13); None if it has a monomial outside that frame."""
        return rings.frame_coords(self.index[block], entry)

    def element(self, g: UT3Elem) -> tuple[int, ...]:
        """The law's coordinates of g, which must lie in the frames (every
        element of the group does)."""
        v = ()
        for block, entry in enumerate((g.u12, g.u23, g.u13)):
            coords = self.coords(block, entry)
            if coords is None:
                raise ValueError(f"{g} is outside the frames of the law")
            v += coords
        return v

    def to_ut3(self, v: tuple[int, ...]) -> UT3Elem:
        """The matrix of the law's coordinates v."""
        n12, n = len(self.f12), len(self.frame)
        return UT3Elem(
            self.ring,
            rings.from_frame(self.ring, self.f12, v[:n12]),
            rings.from_frame(self.ring, self.f13, v[n:]),
            rings.from_frame(self.ring, self.f23, v[n12:n]),
        )

    def elem_from_coords(self, v) -> tuple[RingElem, RingElem]:
        """The (1,2) and (2,3) entries of an entry-pair vector over ``frame``."""
        n12 = len(self.f12)
        return (
            rings.from_frame(self.ring, self.f12, v[:n12]),
            rings.from_frame(self.ring, self.f23, v[n12:]),
        )

    @cached_property
    def law_generators(self) -> tuple[tuple[int, ...], ...]:
        """The generators as the law's integer class-2 coordinate tuples."""
        return tuple(self.element(g) for _, g in self.generators)

    def product_of_generators(self, exponents) -> UT3Elem:
        """prod_k g_k^{c_k} in generator order; its entry pair is the
        corresponding integer combination of generator entry pairs.  The
        product is taken on class-2 coordinates (``law_generators``) and
        turned into a matrix once."""
        law = self.law
        out = law.identity
        for g, c in zip(self.law_generators, exponents):
            if c:
                out = law.mul(out, law.pow_int(g, c))
        return self.to_ut3(out)

    def env(self):
        """Evaluation environment over this group for the formula module.

        Its elements are the integer coordinate tuples of ``law``, which
        does the arithmetic, so the bounded search hashes and compares
        plain tuples; ``to_ut3`` gives the matrix back."""
        gens = [(name, g) for (name, _), g in zip(self.generators, self.law_generators)]
        return GroupEnv(self.law, gens)

    # the EntryLattices, built once; entry_lattices is looked up at call
    # time, so wrappers installed on the module see the call
    lattices = cached_property(lambda self: entry_lattices(self))

    @cached_property
    def det_form(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``det_form[i][j]`` is det(b_i, b_j) over ``f13``: the (1,3)
        coordinates of the law's commutator of the basis rows b_i and b_j
        of the entry-pair lattice (see ``nzct_check``)."""
        law = self.law
        n = len(self.frame)
        pad = (0,) * len(self.f13)
        rows = [b + pad for b in self.lattices.A.basis]
        return tuple(tuple(law.comm(x, y)[n:] for y in rows) for x in rows)


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


class EntryLattices(Record):
    """The derived lattices of a representation, all over ``frame``.

    A is generated by the (x12, x23) parts of the generators' law
    coordinates: a 12-block over ``f12``, then a 23-block over ``f23``.
    A1 (resp. A2) is the sublattice with the 12-block (resp. 23-block) zero:
    entry pairs realized in the centralizer of a1 (resp. a2).  Only A
    takes an HNF of the generators; A1 and A2 are cut out of A's basis.
    """

    A: Lattice
    A1: Lattice
    A2: Lattice

    def __init__(self, A, A1, A2):
        setfield(self, "A", A)
        setfield(self, "A1", A1)
        setfield(self, "A2", A2)


def entry_lattices(rep: Representation) -> EntryLattices:
    n12, n = len(rep.f12), len(rep.frame)
    A = zlattice.hnf([g[:n] for g in rep.law_generators], ambient_dim=n)
    A1 = zlattice.intersect_coordinate_zero(A, range(n12))
    A2 = zlattice.intersect_coordinate_zero(A, range(n12, n))
    return EntryLattices(A, A1, A2)


def _block_coords(rep: Representation, block: int, component: int) -> list[int]:
    """Coordinates of one ring component inside the 12-block (0) or the
    23-block (1) of ``frame``."""
    n12 = len(rep.f12)
    span = range(n12) if block == 0 else range(n12, len(rep.frame))
    return [i for i in span if rep.frame[i][0] == component]


# ---------------------------------------------------------------------------
# Checkers


def lame_check(rep: Representation) -> Verdict:
    """Exact check of the two centralizer-entry conditions: no noncentral
    element of C(a2) has a zero-divisor (1,2) entry, and dually for C(a1)
    with (2,3) entries.  Over a product ring an entry is a zero divisor iff
    it vanishes on some component, which is a lattice condition."""
    L = rep.lattices
    # (exponents, centralizer, dead component) of each transform row of
    # every component-vanishing sublattice, made as they are read
    rows = (
        (coeffs, centralizer, comp)
        for centralizer, lat, block in ((2, L.A2, 0), (1, L.A1, 1))
        for comp in range(rep.ring.ncomponents)
        for coeffs in zlattice.intersect_coordinate_zero(
            lat, _block_coords(rep, block, comp)
        ).transform
    )

    def is_single_generator(coeffs):
        return sum(1 for c in coeffs if c) == 1 and all(c in (0, 1) for c in coeffs)

    # the first single-generator row, else the first row; only that
    # witness is built
    first = next(rows, None)
    if first is None:
        return Verdict("holds", "exact_lattice")
    if not is_single_generator(first[0]):
        first = next((row for row in rows if is_single_generator(row[0])), first)
    coeffs, centralizer, comp = first
    g = rep.product_of_generators(coeffs)
    entry = g.u12 if centralizer == 2 else g.u23
    return Verdict("violated", "exact_lattice", LameWitness(centralizer, g, entry, comp))


def tau_check(rep: Representation) -> Verdict:
    """Exact: tau fails iff some nonzero 12-entry u realized in C(a2) and
    nonzero 23-entry v realized in C(a1) have disjoint component supports
    (then u*v = 0).

    Support patterns are masks over the components: U(mask) is A2 with its
    12-block zeroed outside the mask, V(mask) is A1 with its 23-block
    zeroed inside it, and the witness comes from the first mask, in
    increasing order, with both nonzero.  The masks are walked depth-first
    from the top component down, each component outside before inside,
    which visits them in increasing order.  Below a node, U and V can only
    shrink: every mask there zeroes the node's outside components in U and
    its inside components in V.  So a node whose U or V is already 0 is
    skipped with its subtree, and the masks with no component inside or
    none outside, whose U or V is 0, are never reached."""
    L = rep.lattices
    k = rep.ring.ncomponents

    def zeroed(lat, block, comps):
        coords = [c for j in comps for c in _block_coords(rep, block, j)]
        return zlattice.intersect_coordinate_zero(lat, coords)

    # (components left to decide, outside, inside, U, V); None stands for
    # the lattice that the node's last decision changed, made when it is
    # reached
    stack = [(k, (), (), L.A2, L.A1)]
    while stack:
        j, outside, inside, U, V = stack.pop()
        U = zeroed(L.A2, 0, outside) if U is None else U
        V = zeroed(L.A1, 1, inside) if V is None else V
        if U.rank == 0 or V.rank == 0:
            continue
        if j == 0:
            y = rep.product_of_generators(U.transform[0])
            x = rep.product_of_generators(V.transform[0])
            return Verdict("violated", "exact_lattice", TauWitness(y, x))
        j -= 1
        if outside or j:  # pushed first, so walked after the outside branch
            stack.append((j, outside, inside + (j,), U, None))
        if inside or j:
            stack.append((j, outside + (j,), inside, None, V))
    return Verdict("holds", "exact_lattice")


def nzct_check(rep: Representation, bound: int = 2) -> Verdict:
    """NZCT over UT3(R): centralizers of noncentral elements are abelian.

    Write B for the commutator form on the entry-pair lattice A, of rank r,
    and pi_j(g) for the entry pair (g12, g23) of g in ring component j.
    B(u, v) = u12*v23 - v12*u23 is the (1,3) entry of [u, v], so u and v
    commute iff pi_j(u) and pi_j(v) are parallel in every component j.  In
    a violation, q = x2 is noncentral, p = x1 and w = x3 lie in its
    centralizer C_q = {v : B(q, v) = 0}, and B(p, w) != 0.

    Rank: NZCT holds if r <= 3.  Applying B(., w) and B(., p) to a rational
    relation a*q + b*p + c*w = 0 gives b = c = 0, then a = 0 since q != 0.
    So q, p and w are independent in C_q, which has rank <= r - 1 since
    B(q, .) != 0; so r >= 4.

    Projection: NZCT holds if every pi_j is injective on A, that is, if A's
    basis rows restricted to component j's columns of ``frame`` have no
    integer left kernel.  B(p, w) != 0 gives a component j0 where pi_j0(p)
    and pi_j0(w) are independent.  Both are parallel to pi_j0(q), so
    pi_j0(q) = 0, and then q = 0, which is central.  This covers every
    domain and every group whose entries agree on identical components.

    Otherwise each q in the box [-bound, bound]^r over A's basis b_i is
    decided exactly by ``_nzct_at``; a box without a witness is not a
    proof.  q and -q have the same centralizer, so only the q whose first
    nonzero coefficient is negative are walked, in ``itertools.product``
    order, where each comes before its negation: the witness is the first
    of the whole box.  The law reads B off ``law.table`` as integer
    coordinates over ``f13``.  B is Z-bilinear and alternating, so
    B(c, d) for coefficient tuples c and d is sum_ij c_i d_j B(b_i, b_j)
    (``det_form``), and ring elements are built only for the witness."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    A = rep.lattices.A
    if A.rank <= 3:
        return Verdict("holds", "exact_lattice")
    columns = [_block_coords(rep, 0, j) + _block_coords(rep, 1, j) for j in range(rep.ring.ncomponents)]
    if not any(zlattice.left_kernel([[b[i] for i in c] for b in A.basis]) for c in columns):
        return Verdict("holds", "exact_lattice")
    span = range(-bound, bound + 1)
    for k in range(A.rank):  # the q = (0,) * k + (c < 0, ...)
        for tail in itertools.product(range(-bound, 0), *[span] * (A.rank - k - 1)):
            witness = _nzct_at(rep, (0,) * k + tail)
            if witness is not None:
                return Verdict("violated", "exact_lattice", witness, bound=bound)
    return Verdict("inconclusive", "bounded_search", bound=bound)


def _nzct_at(rep: Representation, q) -> Optional[NzctWitness]:
    """A violation of NZCT with x2 = q, a nonzero coefficient tuple over the
    basis b_i of A, or None if there is none.  Such a q is noncentral:
    B(q, a1) and B(a2, q) are its (2,3) and (1,2) entries up to sign, and
    they are not both zero.  So a violation exists iff B is nonzero on C_q,
    the integer left kernel of the r x m matrix L_q with rows B(b_i, q).  B
    is bilinear, so it is nonzero on C_q iff it is nonzero on a pair of the
    kernel basis; that pair is x1 and x3 (they may lie outside the box),
    and y is the first b_i with L_q[i] != 0."""
    m, A = len(rep.f13), rep.lattices.A

    def pairing(c):  # row i is B(b_i, c)
        return [zlattice.combine(c, row, m) for row in rep.det_form]

    def build(c):  # the group element at coefficients c over A's basis
        return rep.product_of_generators(zlattice.combine(c, A.transform, len(rep.generators)))

    Lq = pairing(q)
    for p, w in itertools.combinations(zlattice.left_kernel(Lq), 2):
        if any(zlattice.combine(p, pairing(w), m)):
            y = next(i for i, row in enumerate(Lq) if any(row))
            return NzctWitness(build(q), build(p), build(w), rep.product_of_generators(A.transform[y]))
    return None


def _solve(rep: Representation, z: UT3Elem, block: int) -> Optional[Solution]:
    """A group element whose entry pair is z13 in the given block (0: the
    12-block, 1: the 23-block) and zero in the other; None if there is none.
    z13 is placed as ``f13`` coordinates, which hold every f12 and f23
    monomial (a1 and a2 put 1 in every component)."""
    if not z.is_central():
        raise ValueError("z must be central")
    c = rep.coords(2, z.u13)
    v = None if c is None else rep.entry_pair(c, block)
    coeffs = None if v is None else zlattice.in_source_coordinates(rep.lattices.A, v)
    return None if coeffs is None else Solution(rep.product_of_generators(coeffs), coeffs)


def solve_S(rep: Representation, z: UT3Elem) -> Optional[Solution]:
    """Solve [a2,y]=1, [y,a1]=z for central z; None when unsolvable.

    y must realize the 12-entry z13 inside C(a2), i.e. the vector
    (z13, 0) must lie in the entry-pair lattice."""
    return _solve(rep, z, 0)


def solve_T(rep: Representation, z: UT3Elem) -> Optional[Solution]:
    """Solve [x,a1]=1, [a2,x]=z for central z; None when unsolvable."""
    return _solve(rep, z, 1)


def sigma_check(rep: Representation) -> Verdict:
    """Exact: the group has class 2, so every commutator value [x2,x1] is an
    integer combination of the generator commutator values [g_k, g_l];
    and the values z for which S (resp. T) is solvable form a group, namely
    those with (z, 0) (resp. (0, z)) in the entry-pair lattice.  So sigma
    holds iff both pairs lie in A for the (1,3) entry z of every generator
    commutator.  A violation names the first such z, over the generator
    pairs in itertools.combinations order, with S tried before T: that z
    is itself a commutator value.

    z is read as the (1,3) coordinates of the law's commutator and placed
    in the 12- or 23-block by ``Representation.entry_pair``, the placement
    ``solve_S`` and ``solve_T`` use; a pair that is None makes the system
    unsolvable.  Membership is ``zlattice.solve``, which takes no exponents,
    and the ring element is built only for the witness."""
    law, n = rep.law, len(rep.frame)
    for g, h in itertools.combinations(rep.law_generators, 2):
        z = law.comm(g, h)[n:]
        for block, system in enumerate("ST"):
            v = rep.entry_pair(z, block)
            if v is None or zlattice.solve(rep.lattices.A, v) is None:
                value = rings.from_frame(rep.ring, rep.f13, z)
                return Verdict("violated", "exact_lattice", SigmaWitness(value, system))
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
    return Representation(rep.ring, rep.generators, True)


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


class BigPowersCertificate(Record):
    n: int
    indeterminate: str
    retracted_targets: tuple[UT3Elem, ...]

    def __init__(self, n, indeterminate, retracted_targets):
        setfield(self, "n", n)
        setfield(self, "indeterminate", indeterminate)
        setfield(self, "retracted_targets", retracted_targets)

    def to_dict(self):
        return {
            "n": self.n,
            "indeterminate": self.indeterminate,
            "retracted_targets": [str(t) for t in self.retracted_targets],
        }


def big_powers_retraction(
    rep_ext: Representation, targets, name: str | None = None
) -> BigPowersCertificate:
    """Smallest n >= 1 such that the retraction sending the extension
    indeterminate to n (i.e. t to a_i^n) kills no target.  The extension
    fixes i: its generator t is the indeterminate in the slot of a_i.

    The indeterminate is ``name``, by default the last one of component 1
    (an extension appends its indeterminate to every component).  Each
    target keeps a nonzero entry, a polynomial in the indeterminate over a
    product of domains, so ``rings.nonvanishing_point`` finds n with
    n <= 1 + D, where D is the sum over the targets of the largest degree of
    an entry in the indeterminate.  It reads n off the integer roots of the
    entries' coefficient lists, checked by integer evaluation; when the
    entries are linear in the indeterminate the work is linear in the
    targets however large n is.  The only substitutions are the three per
    target that make the certificate's retracted targets."""
    if name is None:
        ring = rep_ext.ring
        if not ring.components[0]:
            names = list(dict.fromkeys(n for names in ring.components for n in names))
            if not names:
                raise ValueError("representation ring has no indeterminates to retract")
            raise ValueError(
                f"component 1 of {ring} has no indeterminates, so none is known to come "
                f"from an extension; pass --name with one of: {', '.join(names)}"
            )
        name = ring.components[0][-1]
    elif not any(name in names for names in rep_ext.ring.components):
        raise ValueError(f"{name!r} is not an indeterminate of {rep_ext.ring}")
    targets = list(targets)
    for t in targets:
        if t.is_identity():
            raise ValueError("identity target cannot survive any retraction")
    groups = [[t.u12, t.u13, t.u23] for t in targets]
    n = rings.nonvanishing_point(rings.terms_of(groups, [name]), [name], start=1)[name]
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


class Appropriateness(Record):
    status: str  # confirmed | refuted | inconclusive
    witness: Optional[RingElem]
    degree_bound: int

    def __init__(self, status, witness=None, degree_bound=0):
        setfield(self, "status", status)
        setfield(self, "witness", witness)
        setfield(self, "degree_bound", degree_bound)

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
        for idx in range(len(names)):
            # the indeterminate names[idx] placed in component j only
            e = tuple(1 if t == idx else 0 for t in range(len(names)))
            parts = [() for _ in ring.components]
            parts[j] = ((e, 1),)
            targets.append(RingElem(ring, tuple(parts)))
    return targets


class ConfigError(ValueError):
    pass


# A literal holds no ':' (see rings._TOKEN), so each ':' in a generator's
# block ends a key, which runs back to the ',' or ':' before it.
_ENTRY_KEY = re.compile(r"(?<![^,:])([^,:]*):")
# a piece between keys, and the commas and blanks that end it
_ENTRY_VALUE = re.compile(r"(.*[^\s,])?[\s,]*", re.S)


def _entry_value(piece: str) -> str:
    return (_ENTRY_VALUE.fullmatch(piece).group(1) or "").strip()


def parse_elem_block(ring: RingDesc, body: str) -> UT3Elem:
    """Parse ``e12: <lit>, e13: <lit>, e23: <lit>`` into a matrix element.
    A literal runs up to the commas and blanks before the next key, so blank
    items are skipped, and entries with no comma between them are an error."""
    head, *pieces = _ENTRY_KEY.split(body)
    if junk := _entry_value(head):
        raise ConfigError(f"bad entry {junk!r} (want e12/e13/e23)")
    keys = ("e12", "e13", "e23")
    values = {}
    for key, value in zip(pieces[::2], pieces[1::2]):
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"bad entry key {key!r} (want e12/e13/e23, after a comma)")
        if key in values:
            raise ConfigError(f"duplicate entry {key}")
        values[key] = _entry_value(value)
    zero = RingElem.zero(ring)
    return UT3Elem(ring, *(rings.parse_elem(ring, values[k]) if k in values else zero for k in keys))


_CONFIG_KEY = re.compile(r"\s*(\w+)\s*:[ \t]*([^\n]*)")
# the generators block: braces nest one level deep, since a literal holds none
_GENERATORS = re.compile(r"\s*\{([^{}]*(?:\{[^{}]*\}[^{}]*)*)\}")
_GENERATOR = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)\s*:\s*(?:\{([^}]*)\}\s*,?)?")


def parse_config(text: str) -> Representation:
    """Parse the representation config format:

        ring: Z x Z
        full_center: false
        generators: {
          b: {e12: 0, e13: 0, e23: (1,0)}
        }

    a1 and a2 are implied; ``full_center`` and ``generators`` are optional;
    ``#`` starts a comment.  Any other key, a repeated key and any other
    text are errors.

    The reader relies on three facts of the format.  An element literal
    holds only digits, names, blanks and ``-+*^(),``, so it holds no ``:``,
    ``{`` or ``}``.  An expression holds no comma, so in a literal a comma
    only separates tuple entries.  So the generators block nests braces one
    level deep, and each ``:`` inside a generator's block ends a key."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    fields: dict[str, str] = {}
    pos = 0
    while text[pos:].strip():
        m = _CONFIG_KEY.match(text, pos)
        if not m:
            raise ConfigError(f"unexpected text {text[pos:].strip()[:30]!r}")
        key = m.group(1)
        if key not in ("ring", "full_center", "generators"):
            raise ConfigError(f"unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"duplicate key {key!r}")
        if key == "generators":
            block = _GENERATORS.match(text, m.start(2))
            if block is None:
                raise ConfigError("expected '{', then one '{...}' per generator, then '}'")
            fields[key], pos = block.group(1), block.end()
        else:
            fields[key], pos = m.group(2).strip(), m.end()
    if "ring" not in fields:
        raise ConfigError("missing 'ring:' line")
    try:
        ring = rings.parse_ring(fields["ring"])
    except rings.RingParseError as exc:
        raise ConfigError(str(exc)) from exc
    full_center = fields.get("full_center", "false")
    if full_center not in ("true", "false"):
        raise ConfigError("full_center must be true or false")
    extra: dict[str, UT3Elem] = {}
    body = fields.get("generators", "")
    pos = 0
    while body[pos:].replace(",", " ").strip():  # until only \s blanks and commas remain
        g = _GENERATOR.match(body, pos)
        if not g:
            raise ConfigError(f"bad generator syntax near {body[pos:pos+30]!r}")
        name, block = g.groups()
        if name in extra or name in ("a1", "a2"):
            raise ConfigError(f"duplicate or reserved generator name {name!r}")
        if block is None:
            raise ConfigError(f"generator {name!r}: expected '{{'")
        try:
            extra[name] = parse_elem_block(ring, block)
        except rings.RingParseError as exc:
            raise ConfigError(f"generator {name!r}: {exc}") from exc
        pos = g.end()
    return representation(ring, extra, full_center == "true")


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
    decide membership of each designated ring generator in their Z-span.

    With 1 among the entries E, the span S_d of the products of degree at
    most d satisfies S_{d+1} = Z + E*S_d.  So once a layer adds no new frame
    coordinate and each of its products lies in the span, no later layer
    adds anything, and the enumeration stops.  The last layer skips that
    test, so degree 1 takes one HNF."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    one = RingElem.one(rep.ring)
    entries = [one]
    for _, g in rep.generators:
        for entry in (g.u12, g.u13, g.u23):
            if not entry.is_zero() and entry not in entries:
                entries.append(entry)
    index: dict = {}  # frame coordinate -> position, in order of first use
    span = Lattice(0, (), ())  # the span of the products before `pending`

    def spanned(lattice: Lattice, elems) -> Lattice:
        rows = [b + (0,) * (len(index) - lattice.ambient_dim) for b in lattice.basis]
        rows += [rings.frame_coords(index, x) for x in elems]
        return zlattice.hnf(rows, ambient_dim=len(index))

    pending, layer, seen = [], [one], set()
    for degree in range(degree_bound + 1):
        if degree:
            products = dict.fromkeys(p * e for p in layer for e in entries)
            layer = [q for q in products if q not in seen]
        seen.update(layer)
        width = len(index)
        for j, e in [(j, e) for q in layer for j, p in enumerate(q.parts) for e, _c in p]:
            index.setdefault((j, e), len(index))
        if len(index) == width and degree < degree_bound:
            span, pending = spanned(span, pending), []
            if all(zlattice.member(span, rings.frame_coords(index, q)) for q in layer):
                break
        pending += layer
    if pending:
        span = spanned(span, pending)
    entry_vars = {
        n for e in entries for names in rep.ring.components for n in names if e.uses_var(n)
    }
    for t in _ring_targets(rep.ring):
        v = rings.frame_coords(index, t)
        if v is None or not zlattice.member(span, v):
            target_vars = {n for names in rep.ring.components for n in names if t.uses_var(n)}
            if target_vars and not (target_vars & entry_vars):
                # the indeterminate appears in no entry: unreachable at any degree
                return Appropriateness("refuted", t, degree_bound)
            return Appropriateness("inconclusive", t, degree_bound)
    return Appropriateness("confirmed", None, degree_bound)
