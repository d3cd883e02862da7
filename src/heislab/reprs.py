"""Representations G <= UT3(R) and the exact decision procedures on them.

A representation is a finite list of named generators over a product ring,
always containing the distinguished integer generators a1 and a2, each held
as the terms of its (1,2), (2,3) and (1,3) entries.  The map
g -> (g12, g23) is a homomorphism onto an additive subgroup of R^2, and
every entry of every group element has exact integer coordinates over the
finitely many (component, monomial) frames f12, f23 and f13 that the
representation builds from those terms.  These are the only coordinates
a representation has, and its class-2 law (``Representation.law``, a
``ut3.Class2Law``) does the group arithmetic on them.  That turns each
question below (zero divisors among centralizer entries, solvability of
the centralizer systems, commutator surjectivity) into a
Hermite-normal-form computation, which is how the checkers get to be exact
over infinite groups.

Checkers return a ``formula.Verdict``; a "violated" verdict always
carries a witness reconstructed as an explicit product of the generators.
Every element in an answer (a witness, a solution, a retracted target) is
one triple of {(component, monomial): coefficient} dicts, its (t12, t23,
t13) entry terms as in ``Representation.terms`` and over the record's
``ring``, printed by ``format_element``.  No matrix is made; the tests
recheck each one by direct matrix arithmetic.
"""

from __future__ import annotations

import itertools
import operator
import re
import warnings
from functools import cache, cached_property
from typing import Optional

from . import rings, zlattice
from .formula import GroupEnv, Verdict, builtin
from .record import Record
from .rings import Frame, RingDesc, RingElem
from .ut3 import Class2Law, UT3Elem, format_entries
from .zlattice import Lattice


class LameWitness(Record):
    """Element of C(a_i) \\ Z (entry terms) whose off-diagonal entry is a zero divisor."""

    ring: RingDesc
    centralizer: int  # 1 or 2
    element: tuple[dict, dict, dict]
    dead_component: int
    _unhashed = ("element",)

    @property
    def entry(self) -> dict:  # (1,2) in C(a2), (2,3) in C(a1)
        return self.element[0 if self.centralizer == 2 else 1]

    def to_dict(self):
        return {
            "centralizer": f"a{self.centralizer}",
            "element": format_element(self.ring, self.element),
            "entry": rings.format_terms(self.ring, self.entry),
            "dead_component": self.dead_component + 1,
        }


class TauWitness(Record):
    """Assignment (x1=x, x2=y) falsifying tau: y in C(a2), x in C(a1),
    [y,x]=1, yet [y,a1] != 1 and [a2,x] != 1; both as entry terms."""

    ring: RingDesc
    y: tuple[dict, dict, dict]
    x: tuple[dict, dict, dict]
    _unhashed = ("y", "x")

    def to_dict(self):
        return {"y": format_element(self.ring, self.y), "x": format_element(self.ring, self.x)}


class NzctWitness(Record):
    """Assignment falsifying NZCT: q noncentral (does not commute with y),
    p and w commute with q but not with each other; all as entry terms."""

    ring: RingDesc
    q: tuple[dict, dict, dict]
    p: tuple[dict, dict, dict]
    w: tuple[dict, dict, dict]
    y: tuple[dict, dict, dict]
    _unhashed = ("q", "p", "w", "y")

    def to_dict(self):
        x2, x1, x3, y = (format_element(self.ring, g) for g in (self.q, self.p, self.w, self.y))
        return {"x2": x2, "x1": x1, "x3": x3, "y": y}


class SigmaWitness(Record):
    """The (1,3) entry terms of a generator commutator [g_k, g_l] (a
    commutator value) whose centralizer system has no solution."""

    ring: RingDesc
    value: dict
    system: str  # "S" or "T"
    _unhashed = ("value",)

    def to_dict(self):
        value = rings.format_terms(self.ring, self.value)
        return {"commutator_13_entry": value, "unsolvable_system": self.system}


class Solution(Record):
    ring: RingDesc
    element: tuple[dict, dict, dict]
    coefficients: tuple[int, ...]  # exponents over the generator list
    _unhashed = ("element",)

    def to_dict(self):
        return {"element": format_element(self.ring, self.element), "exponents": list(self.coefficients)}


def format_element(ring: RingDesc, element) -> str:
    """The printed matrix of an element's (t12, t23, t13) entry terms."""
    t12, t23, t13 = (rings.format_terms(ring, t) for t in element)
    return format_entries(t12, t13, t23)


class Representation(Record):
    """Finitely generated H-subgroup of UT3(R) given by named generators.

    ``names`` lists the generators, a1 and a2 first.  ``terms`` holds each
    generator's (1,2), (2,3) and (1,3) entries, in that order, as
    {(component, monomial): nonzero coefficient} dicts (``rings.frame_terms``);
    the frames and the law's tuples are read off them, and no matrix is
    stored.  The representation also holds the lattices its checkers read:
    the entry-pair lattice ``A`` and its centralizer sublattices ``A1`` and
    ``A2``, each made the first time it is read.  ``full_center`` marks the
    center-adjoined variant: the (1,3) entries are treated as ranging over
    all of R.  None of the lattice checkers look at (1,3) entries, so the
    flag only matters for bookkeeping and C-rank invariance.
    """

    _unhashed = ("terms",)

    ring: RingDesc
    names: tuple[str, ...]
    terms: tuple[tuple[dict, dict, dict], ...]
    full_center: bool = False

    @cached_property
    def generators(self) -> tuple[tuple[str, UT3Elem], ...]:
        """(name, matrix) per generator, the matrices made from the law's
        tuples when first read; no command reads them."""
        return tuple(zip(self.names, map(self.to_ut3, self.law_generators)))

    def _frame(self, block: int) -> set:
        return {m for entries in self.terms for m in entries[block]}

    @cached_property
    def f12(self) -> Frame:
        """The (component, monomial) frame of the generators' (1,2) entries."""
        return tuple(sorted(self._frame(0)))

    @cached_property
    def f23(self) -> Frame:
        """The frame of the generators' (2,3) entries."""
        return tuple(sorted(self._frame(1)))

    @cached_property
    def _products(self) -> tuple[tuple[int, int, tuple], ...]:
        """(i, j, m) per pair of an f12 and an f23 monomial in one component:
        their places and the monomial of their product."""
        f23: dict[int, list] = {}  # (place, monomial) of each f23 monomial, by component
        for j, (c, e) in enumerate(self.f23):
            f23.setdefault(c, []).append((j, e))
        return tuple(
            (i, j, (c, tuple(map(operator.add, e, e2))))
            for i, (c, e) in enumerate(self.f12)
            for j, e2 in f23.get(c, ())
        )

    @cached_property
    def f13(self) -> Frame:
        """The frame of the generators' (1,3) entries and of every product
        of an f12 and an f23 monomial in one component."""
        return tuple(sorted({m for *_, m in self._products} | self._frame(2)))

    @cached_property
    def index(self) -> tuple[dict, dict, dict]:
        """Each monomial's place in f12, f23 and f13."""
        return tuple({m: k for k, m in enumerate(f)} for f in (self.f12, self.f23, self.f13))

    def entry_pair(self, z13: dict, block: int) -> list[int] | None:
        """The entry pair over ``frame`` with the (1,3) entry terms z13 in
        the 12-block (0) or 23-block (1) and 0 in the other; None if z13 has
        a monomial outside that block's frame."""
        index, offset = self.index[block], block * len(self.f12)
        v = [0] * len(self.frame)
        for m, c in z13.items():
            i = index.get(m)
            if i is None:
                return None
            v[offset + i] = c
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

    def element(self, g: UT3Elem) -> tuple[int, ...]:
        """The law's coordinates of the matrix g, which must lie in the
        frames (every element of the group does)."""
        v = ()
        for index, entry in zip(self.index, (g.u12, g.u23, g.u13)):
            coords = rings.frame_coords(index, entry)
            if coords is None:
                raise ValueError(f"{g} is outside the frames of the law")
            v += coords
        return v

    def to_ut3(self, v: tuple[int, ...]) -> UT3Elem:
        """The matrix of the law's coordinates v."""
        t12, t23, t13 = self.entry_terms(v)
        return UT3Elem(self.ring, *(rings.from_terms(self.ring, t) for t in (t12, t13, t23)))

    @cached_property
    def coordinates(self) -> tuple[tuple[int, tuple], ...]:
        """(block, monomial) per coordinate of the law's tuples (block 0: f12, 1: f23, 2: f13)."""
        return tuple((block, m) for block, f in enumerate((self.f12, self.f23, self.f13)) for m in f)

    def entry_terms(self, v: tuple[int, ...]) -> tuple[dict, dict, dict]:
        """The (t12, t23, t13) entry terms of the law's tuple v, as in ``terms``."""
        out = ({}, {}, {})
        for (block, m), c in zip(self.coordinates, v):
            if c:
                out[block][m] = c
        return out

    def elem_from_coords(self, v) -> tuple[RingElem, RingElem]:
        """The (1,2) and (2,3) entries of an entry-pair vector over ``frame``."""
        n12 = len(self.f12)
        return (
            rings.from_frame(self.ring, self.f12, v[:n12]),
            rings.from_frame(self.ring, self.f23, v[n12:]),
        )

    @cached_property
    def law_generators(self) -> tuple[tuple[int, ...], ...]:
        """The generators as the law's integer class-2 coordinate tuples,
        read off ``terms``."""
        place = {bm: k for k, bm in enumerate(self.coordinates)}
        out = []
        for entries in self.terms:
            v = [0] * len(place)
            for block, terms in enumerate(entries):
                for m, c in terms.items():
                    v[place[block, m]] = c
            out.append(tuple(v))
        return tuple(out)

    def product_of_generators(self, exponents) -> tuple[dict, dict, dict]:
        """prod_k g_k^{c_k} in generator order, as its (t12, t23, t13) entry
        terms; its entry pair is the corresponding integer combination of
        generator entry pairs.  The product is taken on class-2 coordinates
        (``law_generators``) and read into terms once."""
        law = self.law
        out = law.identity
        for g, c in zip(self.law_generators, exponents):
            if c:
                out = law.mul(out, law.pow_int(g, c))
        return self.entry_terms(out)

    def env(self):
        """Evaluation environment over this group for the formula module.

        Its elements are the integer coordinate tuples of ``law``, which
        does the arithmetic, so the bounded search hashes and compares
        plain tuples; ``entry_terms`` gives their entries back."""
        return GroupEnv(self.law, list(zip(self.names, self.law_generators)))

    @cached_property
    def A(self) -> Lattice:
        """The entry-pair lattice over ``frame``: the (x12, x23) parts of the
        generators' law coordinates, a 12-block over ``f12`` then a 23-block
        over ``f23``, put in HNF once by ``entry_lattices`` (looked up at
        call time, so wrappers installed on the module see the call)."""
        return entry_lattices(self)

    @cached_property
    def A1(self) -> Lattice:
        """A's sublattice with the 12-block zero: the entry pairs realized in
        C(a1), cut from A's basis the first time it is read.  ``lame_check``,
        ``tau_check`` and ``c_rank`` read A1 and A2; ``sigma_check``,
        ``solve_S``, ``solve_T`` and ``nzct_check`` read A alone."""
        return zlattice.intersect_coordinate_zero(self.A, range(len(self.f12)))

    @cached_property
    def A2(self) -> Lattice:
        """A's sublattice with the 23-block zero, realized in C(a2); see ``A1``."""
        return zlattice.intersect_coordinate_zero(self.A, range(len(self.f12), self.A.ambient_dim))

    @cached_property
    def det_form(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``det_form[i][j]`` is det(b_i, b_j) over ``f13``: the (1,3)
        coordinates of the law's commutator of the basis rows b_i and b_j
        of the entry-pair lattice (see ``nzct_check``)."""
        law = self.law
        n = len(self.frame)
        pad = (0,) * len(self.f13)
        rows = [b + pad for b in self.A.basis]
        return tuple(tuple(law.comm(x, y)[n:] for y in rows) for x in rows)


def _a1_a2(ring: RingDesc) -> list[tuple[dict, dict, dict]]:
    """The terms of a1 = e23 and a2 = e12, the first two generators."""
    one = {(j, (0,) * len(names)): 1 for j, names in enumerate(ring.components)}
    return [({}, one, {}), (one, {}, {})]


def representation(
    ring: RingDesc,
    extra_generators: dict[str, UT3Elem] | None = None,
    full_center: bool = False,
) -> Representation:
    """Build a representation from generator matrices, read into their
    terms; a1 and a2 are always prepended."""
    names, terms = ["a1", "a2"], _a1_a2(ring)
    for name, g in (extra_generators or {}).items():
        if name in ("a1", "a2"):
            raise ValueError("a1 and a2 are implicit and fixed")
        if g.ring != ring:
            raise ValueError(f"generator {name!r} is over the wrong ring")
        names.append(name)
        terms.append(tuple(map(rings.frame_terms, (g.u12, g.u23, g.u13))))
    return Representation(ring, tuple(names), tuple(terms), full_center)


def heisenberg() -> Representation:
    return Representation(rings.Z, ("a1", "a2"), tuple(_a1_a2(rings.Z)))


def entry_lattices(rep: Representation) -> Lattice:
    """``Representation.A``: one HNF of the generators' law coordinates over ``frame``."""
    n = len(rep.frame)
    return zlattice.hnf([g[:n] for g in rep.law_generators], ambient_dim=n)


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
    # (exponents, centralizer, dead component) of each transform row of
    # every component-vanishing sublattice, made as they are read
    rows = (
        (coeffs, centralizer, comp)
        for centralizer, lat, block in ((2, rep.A2, 0), (1, rep.A1, 1))
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
    return Verdict("violated", "exact_lattice", LameWitness(rep.ring, centralizer, g, comp))


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
    k = rep.ring.ncomponents

    def zeroed(lat, block, comps):
        coords = [c for j in comps for c in _block_coords(rep, block, j)]
        return zlattice.intersect_coordinate_zero(lat, coords)

    # (components left to decide, outside, inside, U, V); None stands for
    # the lattice that the node's last decision changed, made when it is
    # reached
    stack = [(k, (), (), rep.A2, rep.A1)]
    while stack:
        j, outside, inside, U, V = stack.pop()
        U = zeroed(rep.A2, 0, outside) if U is None else U
        V = zeroed(rep.A1, 1, inside) if V is None else V
        if U.rank == 0 or V.rank == 0:
            continue
        if j == 0:
            y, x = (rep.product_of_generators(lat.transform[0]) for lat in (U, V))
            return Verdict("violated", "exact_lattice", TauWitness(rep.ring, y, x))
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

    These two tests are ``nzct_proved``, which ``holds_exactly`` shares.
    Otherwise each q in the box [-bound, bound]^r over A's basis b_i is
    decided exactly by ``_nzct_at``; a box without a witness is not a
    proof.  q and -q have the same centralizer, so only the q whose first
    nonzero coefficient is negative are walked, in ``itertools.product``
    order, where each comes before its negation: the witness is the first
    of the whole box.  The law reads B off ``law.table`` as integer
    coordinates over ``f13``.  B is Z-bilinear and alternating, so
    B(c, d) for coefficient tuples c and d is sum_ij c_i d_j B(b_i, b_j)
    (``det_form``), and entry terms are read only for the witness."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if nzct_proved(rep):
        return Verdict("holds", "exact_lattice")
    A = rep.A
    span = range(-bound, bound + 1)
    for k in range(A.rank):  # the q = (0,) * k + (c < 0, ...)
        for tail in itertools.product(range(-bound, 0), *[span] * (A.rank - k - 1)):
            witness = _nzct_at(rep, (0,) * k + tail)
            if witness is not None:
                return Verdict("violated", "exact_lattice", witness, bound=bound)
    return Verdict("inconclusive", "bounded_search", bound=bound)


def nzct_proved(rep: Representation) -> bool:
    """Whether the rank or the projection test of ``nzct_check`` proves
    NZCT: A has rank <= 3, or every pi_j is injective on A."""
    A = rep.A
    if A.rank <= 3:
        return True
    columns = [_block_coords(rep, 0, j) + _block_coords(rep, 1, j) for j in range(rep.ring.ncomponents)]
    return not any(zlattice.left_kernel([[b[i] for i in c] for b in A.basis]) for c in columns)


def _nzct_at(rep: Representation, q) -> Optional[NzctWitness]:
    """A violation of NZCT with x2 = q, a nonzero coefficient tuple over the
    basis b_i of A, or None if there is none.  Such a q is noncentral:
    B(q, a1) and B(a2, q) are its (1,2) and (2,3) entries up to sign, and
    they are not both zero.  So a violation exists iff B is nonzero on C_q,
    the integer left kernel of the r x m matrix L_q with rows B(b_i, q).  B
    is bilinear, so it is nonzero on C_q iff it is nonzero on a pair of the
    kernel basis; that pair is x1 and x3 (they may lie outside the box),
    and y is the first b_i with L_q[i] != 0."""
    m, A = len(rep.f13), rep.A

    def pairing(c):  # row i is B(b_i, c)
        return [zlattice.combine(c, row, m) for row in rep.det_form]

    def build(c):  # the group element at coefficients c over A's basis
        return rep.product_of_generators(zlattice.combine(c, A.transform, len(rep.names)))

    Lq = pairing(q)
    for p, w in itertools.combinations(zlattice.left_kernel(Lq), 2):
        if any(zlattice.combine(p, pairing(w), m)):
            y = rep.product_of_generators(A.transform[next(i for i, row in enumerate(Lq) if any(row))])
            return NzctWitness(rep.ring, build(q), build(p), build(w), y)
    return None


@cache
def _proofs() -> dict:
    """``holds_exactly``'s table, parsed on first use."""
    return {
        builtin("NZCT"): nzct_proved,
        builtin("CT(1)"): nzct_proved,
        builtin("tau"): lambda rep: tau_check(rep).status == "holds",
        builtin("centralizer_qi"): lambda rep: True,
    }


def holds_exactly(rep: Representation, sentence) -> bool:
    """Whether an exact argument proves that ``sentence`` holds on rep.

    The sentences proved are builtin trees, matched by value, so the same
    text given inline or in a file counts too; False proves nothing.

    - NZCT holds where ``nzct_proved`` says so: A has rank <= 3, or every
      pi_j is injective on A (the proofs are in ``nzct_check``).
    - CT(1) is NZCT with y renamed w1, but with [w1,x2] != 1 for
      [x2,y] != 1.  [w1,x2] = [x2,w1]^-1, so the two literals agree, and
      CT(1) holds exactly where NZCT does.
    - tau holds where ``tau_check`` says it holds; that check is exact in
      both directions.
    - centralizer_qi holds in every UT3(R).  B(z, a1) = z12 and
      B(a2, z) = z23, so [z,a1] = 1 gives z12 = 0 and [a2,z] = 1 gives
      z23 = 0.  Then B(z, x) = 0 for every x: z is central, and
      [z,x] = 1."""
    proof = _proofs().get(sentence)
    return proof is not None and proof(rep)


def _exponents(rep: Representation, z13: dict, block: int) -> Optional[tuple[int, ...]]:
    """The generator exponents of a group element whose entry pair is z13,
    given as terms, in the given block (0: the 12-block, 1: the 23-block)
    and zero in the other; None if there is none."""
    v = rep.entry_pair(z13, block)
    return None if v is None else zlattice.in_source_coordinates(rep.A, v)


def _solve(rep: Representation, z13: dict, block: int) -> Optional[Solution]:
    coeffs = _exponents(rep, z13, block)
    return None if coeffs is None else Solution(rep.ring, rep.product_of_generators(coeffs), coeffs)


def solve_S(rep: Representation, z13: dict) -> Optional[Solution]:
    """Solve [a2,y]=1, [y,a1]=z for z with (1,3) entry terms z13 (and so
    central); None when unsolvable.

    y must realize the 12-entry z13 inside C(a2), i.e. the vector
    (z13, 0) must lie in the entry-pair lattice."""
    return _solve(rep, z13, 0)


def solve_T(rep: Representation, z13: dict) -> Optional[Solution]:
    """Solve [x,a1]=1, [a2,x]=z for z13 as above; None when unsolvable."""
    return _solve(rep, z13, 1)


def sigma_check(rep: Representation) -> Verdict:
    """Exact: the group has class 2, so every commutator value [x2,x1] is an
    integer combination of the generator commutator values [g_k, g_l];
    and the values z for which S (resp. T) is solvable form a group, namely
    those with (z, 0) (resp. (0, z)) in the entry-pair lattice.  So sigma
    holds iff both pairs lie in A for the (1,3) entry z of every generator
    commutator.  A violation names the first such z, over the generator
    pairs in itertools.combinations order, with S tried before T: that z
    is itself a commutator value.

    z is read as the (1,3) entry terms of the law's commutator and placed
    in the 12- or 23-block by ``Representation.entry_pair``, the placement
    ``solve_S`` and ``solve_T`` use; a pair that is None makes the system
    unsolvable.  Membership is ``zlattice.solve``, which takes no
    exponents."""
    law, n = rep.law, len(rep.frame)
    for g, h in itertools.combinations(rep.law_generators, 2):
        z = {m: c for m, c in zip(rep.f13, law.comm(g, h)[n:]) if c}
        for block, system in enumerate("ST"):
            v = rep.entry_pair(z, block)
            if v is None or zlattice.solve(rep.A, v) is None:
                return Verdict("violated", "exact_lattice", SigmaWitness(rep.ring, z, system))
    return Verdict("holds", "exact_lattice")


# ---------------------------------------------------------------------------
# Constructions


def _fresh_name(rep: Representation, stem: str) -> str:
    names = set(rep.names)
    if stem not in names:
        return stem
    k = 2
    while f"{stem}{k}" in names:
        k += 1
    return f"{stem}{k}"


def adjoin_Y(rep: Representation, z13: dict, name: str | None = None) -> Representation:
    """Adjoin Y with (1,2) entry terms z13: then [a2,Y]=1 and [Y,a1]=z,
    the element with (1,3) entry z13.

    Meant for z whose system S is unsolvable; other inputs are allowed with
    a warning to keep pipelines total."""
    if not z13:
        warnings.warn("adjoin_Y with z = identity adjoins the identity")
    elif _exponents(rep, z13, 0) is not None:
        warnings.warn("system S is already solvable; adjoin_Y is redundant")
    name = name or _fresh_name(rep, "Y")
    terms = rep.terms + ((z13, {}, {}),)
    return Representation(rep.ring, rep.names + (name,), terms, rep.full_center)


def adjoin_center(rep: Representation) -> Representation:
    """Mark the center as all of {(1,3) entries}: C-rank is unchanged and
    no lattice checker is affected (they read the 12/23 entries only)."""
    return Representation(rep.ring, rep.names, rep.terms, True)


def extend_centralizer(rep: Representation, i: int, name: str) -> Representation:
    """Free rank-1 extension of C(a_i): adjoin an indeterminate to the ring
    and a generator whose only off-center entry is that indeterminate (it
    commutes with the whole centralizer slice by construction).  The
    indeterminate comes last in every component, so each old monomial gets
    a 0 exponent for it."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    new_ring = rings.adjoin_indeterminate(rep.ring, name)
    terms = tuple(
        tuple({(j, e + (0,)): c for (j, e), c in entry.items()} for entry in entries)
        for entries in rep.terms
    )
    theta = {(j, (0,) * len(names) + (1,)): 1 for j, names in enumerate(rep.ring.components)}
    t = ({}, theta, {}) if i == 1 else (theta, {}, {})
    names = rep.names + (_fresh_name(rep, "t"),)
    return Representation(new_ring, names, terms + (t,), rep.full_center)


class BigPowersCertificate(Record):
    """The least retraction exponent n and each target's image under it.
    An image is its (1,2), (2,3) and (1,3) entries, in that order, as
    {(component, monomial): nonzero coefficient} dicts over ``ring``, the
    format of ``Representation.terms`` and ``product_of_generators``."""

    _unhashed = ("retracted_targets",)

    ring: RingDesc
    n: int
    indeterminate: str
    retracted_targets: tuple[tuple[dict, dict, dict], ...]

    def to_dict(self):
        return {
            "n": self.n,
            "indeterminate": self.indeterminate,
            "retracted_targets": [format_element(self.ring, image) for image in self.retracted_targets],
        }


def big_powers_retraction(
    rep_ext: Representation, targets, name: str | None = None
) -> BigPowersCertificate:
    """Smallest n >= 1 such that the retraction sending the extension
    indeterminate to n (i.e. t to a_i^n) kills no target, each a tuple of
    ``rep_ext.law``.  The extension fixes i: its generator t is the
    indeterminate in the slot of a_i.

    The indeterminate is ``name``, by default the last one of component 1
    (an extension appends its indeterminate to every component).  Each
    target keeps a nonzero entry, a polynomial in the indeterminate over a
    product of domains, so ``rings.nonvanishing_point`` finds n with
    n <= 1 + D, where D is the sum over the targets of the largest degree of
    an entry in the indeterminate.  It reads n off the integer roots of the
    entries' coefficient lists, checked by integer evaluation; when the
    entries are linear in the indeterminate the work is linear in the
    targets however large n is.  The targets reach it as their entry terms
    (``Representation.entry_terms``), and the images are the terms it
    returns, with the indeterminate's exponent 0."""
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
    groups = []
    for v in targets:
        if not any(v):
            raise ValueError("identity target cannot survive any retraction")
        groups.append(rep_ext.entry_terms(v))
    point, images = rings.nonvanishing_point(rep_ext.ring, groups, [name], start=1)
    return BigPowersCertificate(rep_ext.ring, point[name], name, tuple(map(tuple, images)))


def c_rank(rep: Representation) -> int:
    """rank(C(a1)/Z) + rank(C(a2)/Z) - 1, read off A1 and A2."""
    return rep.A1.rank + rep.A2.rank - 1


# ---------------------------------------------------------------------------
# Appropriateness


class Appropriateness(Record):
    """The answer of ``appropriateness_check`` at ``degree_bound``:
    ``status`` is confirmed, refuted or inconclusive, and ``witness`` is
    None when confirmed, else the first designated ring generator found
    outside the span, as {(component, monomial): coefficient} terms over
    ``ring``, printed by ``rings.format_terms``."""

    ring: RingDesc
    status: str
    witness: Optional[dict] = None
    degree_bound: int = 0
    _unhashed = ("witness",)

    def to_dict(self):
        return {
            "status": self.status,
            "witness": None if self.witness is None else rings.format_terms(self.ring, self.witness),
            "degree_bound": self.degree_bound,
        }


def _ring_targets(ring: RingDesc) -> list[dict]:
    """Designated generators of the ring, as terms: the component idempotents
    of a product, then each indeterminate confined to its component."""
    comps = list(enumerate(ring.components))
    targets = [{(j, (0,) * len(names)): 1} for j, names in comps] if len(comps) > 1 else []
    units = [(j, tuple(int(k == i) for k in range(len(n)))) for j, n in comps for i in range(len(n))]
    return targets + [{m: 1} for m in units]


class ConfigError(ValueError):
    pass


# the commas and blanks that end a literal, or that are all a text holds
_SEPARATORS = r"[\s,]*"
_ENTRY_VALUE = re.compile(rf"(.*[^\s,])?{_SEPARATORS}", re.S)
_BLANK = re.compile(_SEPARATORS)


def _entry_value(piece: str) -> str:
    """A piece of a generator's block without its leading blanks and its
    trailing commas and blanks."""
    piece = piece.strip()
    return (_ENTRY_VALUE.fullmatch(piece).group(1) or "") if piece.endswith(",") else piece


def _entry_texts(body: str) -> dict[str, str]:
    """The literal of each entry of ``e12: <lit>, e13: <lit>, e23: <lit>``.
    A literal holds no ':' (see rings._TOKEN), so each ':' ends a key,
    which runs back to the ',' before it (or to the start or the ':' before
    it), and a literal runs up to that ','.  So blank items are skipped,
    and entries with no comma between them are an error."""
    *segments, tail = body.split(":")
    keys, before = [], []  # before each key: the head, then a literal
    for segment in segments:
        text, _, key = segment.rpartition(",")
        keys.append(key)
        before.append(text)
    head, *literals = before + [tail]
    if junk := _entry_value(head):
        raise ConfigError(f"bad entry {junk!r} (want e12/e13/e23)")
    values = {}
    for key, value in zip(keys, literals):
        key = key.strip()
        if key not in ("e12", "e13", "e23"):
            raise ConfigError(f"bad entry key {key!r} (want e12/e13/e23, after a comma)")
        if key in values:
            raise ConfigError(f"duplicate entry {key}")
        values[key] = _entry_value(value)
    return values


_CONFIG_KEY = re.compile(r"\s*(\w+)\s*:[ \t]*([^\n]*)")
# the generators block: braces nest one level deep, since a literal holds none
_GENERATORS = re.compile(r"\s*\{([^{}]*(?:\{[^{}]*\}[^{}]*)*)\}")
_GENERATOR = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)\s*:\s*(?:\{([^}]*)\}\s*,?)?")


def _config_parts(text: str):
    """The ring, the ``full_center`` flag, and an iterator over the (name,
    entry texts) of each generator, which raises each generator's syntax
    error when it gets there."""
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
    return ring, full_center == "true", _generator_entries(fields.get("generators", ""))


def _generator_entries(body: str):
    """(name, ``_entry_texts``) per generator of the generators block."""
    names = {"a1", "a2"}
    pos = 0
    while not _BLANK.fullmatch(body, pos):  # until only blanks and commas remain
        g = _GENERATOR.match(body, pos)
        if not g:
            raise ConfigError(f"bad generator syntax near {body[pos:pos+30]!r}")
        name, block = g.groups()
        if name in names:
            raise ConfigError(f"duplicate or reserved generator name {name!r}")
        if block is None:
            raise ConfigError(f"generator {name!r}: expected '{{'")
        yield name, _entry_texts(block)
        names.add(name)
        pos = g.end()


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
    level deep, and each ``:`` inside a generator's block ends a key.

    Each entry literal is read by ``rings.parse_terms`` (e12, e13, then
    e23) into the representation's ``terms``, so no ring element or matrix
    is made.  The frames and the law's tuples come from the terms; A takes
    its HNF when a checker first reads it, and A1 and A2 are cut from it
    when one reads them (see ``Representation.A1``)."""
    ring, full_center, generators = _config_parts(text)
    names, terms = ["a1", "a2"], _a1_a2(ring)
    for name, texts in generators:
        try:
            t12, t13, t23 = (
                rings.parse_terms(ring, texts[k]) if k in texts else {} for k in ("e12", "e13", "e23")
            )
        except rings.RingParseError as exc:
            raise ConfigError(f"generator {name!r}: {exc}") from exc
        names.append(name)
        terms.append((t12, t23, t13))
    return Representation(ring, tuple(names), tuple(terms), full_center)


def serialize_config(rep: Representation) -> str:
    lines = [f"ring: {rep.ring}"]
    lines.append(f"full_center: {'true' if rep.full_center else 'false'}")
    extra = [(n, t) for n, t in zip(rep.names, rep.terms) if n not in ("a1", "a2")]
    if extra:
        lines.append("generators: {")
        for name, entries in extra:
            lines.append(f"  {name}: {format_element(rep.ring, entries)},")
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
    test, so degree 1 takes one HNF.  An element is the sorted tuple of its
    ((component, monomial), coefficient) terms: equal elements, equal tuples."""
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    ring = rep.ring
    one = tuple(((j, (0,) * len(names)), 1) for j, names in enumerate(ring.components))
    # each generator's nonzero entries in (e12, e13, e23) order, each once
    nonzero = [tuple(sorted(t.items())) for g in rep.terms for t in (g[0], g[2], g[1]) if t]
    entries = list(dict.fromkeys([one, *nonzero]))
    index: dict = {}  # frame coordinate -> position, in order of first use
    span = Lattice(0, (), ())  # the span of the products before `pending`

    def times(x, y):
        out = {}
        for ((j, e), c), ((k, f), d) in itertools.product(x, y):
            if j == k:
                m = (j, tuple(map(operator.add, e, f)))
                out[m] = out.get(m, 0) + c * d
        return tuple(sorted(item for item in out.items() if item[1]))

    def coords(x):
        v = [0] * len(index)
        for m, c in x:
            v[index[m]] = c
        return tuple(v)

    def spanned(lattice: Lattice, elems) -> Lattice:
        rows = [b + (0,) * (len(index) - lattice.ambient_dim) for b in lattice.basis]
        return zlattice.hnf(rows + list(map(coords, elems)), ambient_dim=len(index))

    def variables(monomials):
        return {n for j, e in monomials for n, d in zip(ring.components[j], e) if d}

    pending, layer, seen = [], [one], set()
    for degree in range(degree_bound + 1):
        if degree:
            products = dict.fromkeys(times(p, e) for p in layer for e in entries)
            layer = [q for q in products if q not in seen]
        seen.update(layer)
        width = len(index)
        for m, _c in itertools.chain.from_iterable(layer):
            index.setdefault(m, len(index))
        if len(index) == width and degree < degree_bound:
            span, pending = spanned(span, pending), []
            if all(zlattice.member(span, coords(q)) for q in layer):
                break
        pending += layer
    if pending:
        span = spanned(span, pending)
    entry_vars = variables(m for e in entries for m, _c in e)
    for t in _ring_targets(ring):
        if not (t.keys() <= index.keys() and zlattice.member(span, coords(t.items()))):
            # refuted: the target's indeterminate is in no entry, so no degree reaches it
            status = "refuted" if variables(t) - entry_vars else "inconclusive"
            return Appropriateness(ring, status, t, degree_bound)
    return Appropriateness(ring, "confirmed", None, degree_bound)
