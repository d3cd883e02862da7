"""Shared oracles and randomized-corpus helpers for the test suite."""

import random

import pytest

from heislab import reprs, rings, ut3, zlattice
from heislab.reprs import LameWitness, Verdict
from heislab.rings import RingDesc, RingElem, is_zero_divisor
from heislab.ut3 import UT3Elem

# The ring family every randomized property in the suite ranges over.
CORPUS_RINGS = ["Z", "Z^2", "Z^3", "Z[theta]"]


# ---------------------------------------------------------------------------
# Brute-force 3x3 matrix oracle (independent of ut3's closed forms)


def to_full_matrix(g: UT3Elem):
    one = RingElem.one(g.ring)
    zero = RingElem.zero(g.ring)
    return [
        [one, g.u12, g.u13],
        [zero, one, g.u23],
        [zero, zero, one],
    ]


def matmul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), start=RingElem.zero(a[i][0].ring))
            for j in range(n)
        ]
        for i in range(n)
    ]


def from_full_matrix(ring, m) -> UT3Elem:
    return UT3Elem(ring, m[0][1], m[0][2], m[1][2])


def oracle_mul(g: UT3Elem, h: UT3Elem) -> UT3Elem:
    return from_full_matrix(g.ring, matmul(to_full_matrix(g), to_full_matrix(h)))


# ---------------------------------------------------------------------------
# Definitional Lame oracle (a second code path beside reprs.lame_check)


def lame_check_def1(rep: reprs.Representation, bound: int = 3) -> Verdict:
    """The definitional formulation: search elements g of C(a1) u C(a2) and
    test whether g12^2 + g23^2 is zero or a non-zero-divisor.

    Candidates are small lattice vectors of A1 and A2 plus the basis vectors
    of every component-vanishing sublattice (which makes the search complete
    over this ring family while keeping it a genuine second code path)."""
    L = rep.lattices
    for lat, block in ((L.A2, 0), (L.A1, 1)):
        candidates = list(lat.vectors_up_to(min(bound, 2) if lat.rank > 4 else bound))
        for comp in range(rep.ring.ncomponents):
            sub = zlattice.intersect_coordinate_zero(
                lat, reprs._block_coords(rep, block, comp)
            )
            candidates.extend(sub.basis)
        for vec in candidates:
            u12, u23 = reprs._split_pair(rep, vec)
            s = u12 * u12 + u23 * u23
            if not s.is_zero() and is_zero_divisor(s):
                coeffs = zlattice.in_source_coordinates(lat, vec)
                g = rep.product_of_generators(coeffs)
                entry = u12 if block == 0 else u23
                comp_dead = min(
                    set(range(rep.ring.ncomponents)) - set(s.support)
                )
                return Verdict(
                    "violated",
                    "exact_lattice",
                    LameWitness(2 if block == 0 else 1, g, entry, comp_dead),
                )
    return Verdict("holds", "exact_lattice")


# ---------------------------------------------------------------------------
# Random generators


def random_poly_elem(rng: random.Random, ring: RingDesc, coeff_bound: int = 5, degree: int = 2):
    """Random element: each component independently zero or a short polynomial."""
    parts_elem = RingElem.zero(ring)
    for j, names in enumerate(ring.components):
        if rng.random() < 0.4:
            continue  # leave this component zero
        ej = RingElem.idempotent(ring, j)
        comp = RingElem.zero(ring)
        for _ in range(rng.randint(1, 2)):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c == 0:
                c = 1
            term = RingElem.integer(ring, c)
            for name in names:
                for _ in range(rng.randint(0, degree)):
                    if rng.random() < 0.5:
                        term = term * RingElem.var(ring, name)
            comp = comp + term
        parts_elem = parts_elem + ej * comp
    return parts_elem


def random_ut3(rng: random.Random, ring: RingDesc, coeff_bound: int = 5) -> UT3Elem:
    return UT3Elem(
        ring,
        random_poly_elem(rng, ring, coeff_bound),
        random_poly_elem(rng, ring, coeff_bound),
        random_poly_elem(rng, ring, coeff_bound),
    )


def random_representation(rng: random.Random) -> reprs.Representation:
    ring = rings.parse_ring(rng.choice(CORPUS_RINGS))
    extra = {}
    for k in range(rng.randint(0, 3)):  # plus implied a1, a2 -> <= 5 generators
        extra[f"g{k+1}"] = random_ut3(rng, ring)
    return reprs.representation(ring, extra)


def corpus(n: int, seed: int = 0):
    rng = random.Random(seed)
    return [random_representation(rng) for _ in range(n)]


@pytest.fixture
def rng():
    return random.Random(0)
