"""Tests for representations and the exact lattice decision procedures."""

import itertools
import pathlib
import random
import time
import warnings

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    CORPUS_RINGS,
    appropriateness_check_products,
    corpus,
    domain_or_diagonal,
    is_zero_divisor,
    lame_check_def1,
    nzct_check_ringelem,
    parse_config_oracle,
    pair_det,
    pair_dets,
    product_oracle,
    random_representation,
    random_ut3,
    sigma_check_dlattice,
    tau_check_masks,
    union_frame_lattices,
    wide_representation,
)
from heislab import formula, reprs, rings, zlattice
from heislab.cli import FIXTURES, fixture
from heislab.formula import builtin, refute_universal
from heislab.reprs import (
    Representation,
    adjoin_Y,
    adjoin_center,
    appropriateness_check,
    big_powers_retraction,
    c_rank,
    extend_centralizer,
    entry_lattices,
    heisenberg,
    lame_check,
    nzct_check,
    parse_config,
    representation,
    serialize_config,
    sigma_check,
    solve_S,
    solve_T,
    tau_check,
)
from heislab.rings import RingElem, Z, parse_elem, parse_ring
from heislab.ut3 import UT3Elem, a1, a2, elem

ZZ = parse_ring("Z x Z")
ZTH = parse_ring("Z[theta]")


def zxz_lame_rep():
    return representation(ZZ, {"b": elem(ZZ, 0, 0, "(1,0)")})


def ztheta_rep():
    return representation(ZTH, {"b": elem(ZTH, 0, 0, "theta")})


def full_zxz_rep():
    return representation(
        ZZ, {"Y": elem(ZZ, "(1,0)", 0, 0), "X": elem(ZZ, 0, 0, "(0,1)")}
    )


def central(ring, lit):
    zero = RingElem.zero(ring)
    return UT3Elem(ring, zero, parse_elem(ring, lit), zero)


def commutator_rank(rep):
    """Rank of the lattice spanned by the generator commutator values."""
    law = rep.law
    gens = [law.element(g) for _, g in rep.generators]
    values = [g.comm(h).v for g, h in itertools.combinations(gens, 2)]
    return zlattice.hnf(values, ambient_dim=len(law.identity.v)).rank


# ---------------------------------------------------------------------------
# Entry lattices


def test_entry_lattices_H():
    L = heisenberg().lattices
    assert L.A.basis == ((1, 0), (0, 1))  # Z^2 from a1:(0,1), a2:(1,0)
    assert L.A1.rank == 1 and L.A2.rank == 1
    assert commutator_rank(heisenberg()) == 1


def test_entry_lattices_zxz():
    rep = zxz_lame_rep()
    L = rep.lattices
    # A1's 23-block spans the coordinates of 1 and e1 -> rank 2
    assert L.A1.rank == 2
    assert L.A2.rank == 1


def test_entry_lattices_trivial_extra_ring():
    rep = representation(ZTH)
    L = rep.lattices
    H = heisenberg().lattices
    assert L.A1.rank == H.A1.rank and L.A2.rank == H.A2.rank
    assert commutator_rank(rep) == commutator_rank(heisenberg())


def test_entry_lattices_one_hnf(monkeypatch):
    calls = []
    original = zlattice.hnf

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(zlattice, "hnf", counted)
    for name in FIXTURES:
        calls.clear()
        entry_lattices(fixture(name))
        assert len(calls) == 1, name


def _nonzero_columns(lat, labels):
    """The labels of the columns where some basis row is nonzero, and the
    basis restricted to those columns."""
    cols = [k for k in range(lat.ambient_dim) if any(row[k] for row in lat.basis)]
    return [labels[k] for k in cols], [tuple(row[k] for k in cols) for row in lat.basis]


def test_entry_lattices_match_union_frame_oracle():
    # the law's frames drop only columns that are zero in every generator
    # row, and the HNF skips an all-zero column, so nothing else may move
    rng = random.Random(5)
    wide = [wide_representation(rng, n) for n in (6, 12, 20)]
    reps = corpus(40, seed=3) + [fixture(name) for name in FIXTURES] + wide
    for rep in reps:
        labels, old = union_frame_lattices(rep)
        new_labels = [(0, m) for m in rep.law.f12] + [(1, m) for m in rep.law.f23]
        for name in ("A", "A1", "A2"):
            new, ref = getattr(rep.lattices, name), getattr(old, name)
            assert new.transform == ref.transform, name
            assert _nonzero_columns(new, new_labels) == _nonzero_columns(ref, labels), name


def test_entry_pair_map_is_homomorphism():
    rng = random.Random(0)
    for ring in [Z, ZZ, ZTH]:
        for _ in range(20):
            g, h = random_ut3(rng, ring), random_ut3(rng, ring)
            p = g * h
            assert p.u12 == g.u12 + h.u12
            assert p.u23 == g.u23 + h.u23


def test_coords_roundtrip():
    rep = full_zxz_rep()
    law = rep.law
    for _, g in rep.generators:
        for block, (entry, frame) in enumerate(
            ((g.u12, law.f12), (g.u23, law.f23), (g.u13, law.f13))
        ):
            v = law.coords(block, entry)
            assert v is not None
            assert rings.from_frame(rep.ring, frame, v) == entry
        assert rep.elem_from_coords(law.element(g).v[: len(rep.frame)]) == (g.u12, g.u23)
    assert law.coords(0, parse_elem(ZZ, "(0, 999)")) is not None
    # no theta-frame coordinate exists in this representation
    assert representation(ZTH).law.coords(0, RingElem.var(ZTH, "theta")) is None


# ---------------------------------------------------------------------------
# Lame property


def test_lame_zxz_violated_with_witness_b():
    v = lame_check(zxz_lame_rep())
    assert v.status == "violated" and v.method == "exact_lattice"
    w = v.witness
    assert w.centralizer == 1
    assert w.element.u23 == parse_elem(ZZ, "(1,0)")
    assert w.entry == parse_elem(ZZ, "(1,0)")
    # re-check independently: noncentral, in C(a1), entry a zero divisor
    assert w.element.in_centralizer_a(1)
    assert not w.element.is_central()
    assert is_zero_divisor(w.entry)


def test_lame_ztheta_holds():
    assert lame_check(ztheta_rep()).status == "holds"


def test_lame_H_holds():
    assert lame_check(heisenberg()).status == "holds"


def test_lame_def1_agrees_on_fixtures():
    for rep in [heisenberg(), zxz_lame_rep(), ztheta_rep(), full_zxz_rep()]:
        assert lame_check_def1(rep).status == lame_check(rep).status


def test_lame_def1_witness_valid():
    v = lame_check_def1(zxz_lame_rep())
    assert v.status == "violated"
    w = v.witness
    s = w.element.u12 * w.element.u12 + w.element.u23 * w.element.u23
    assert not s.is_zero() and is_zero_divisor(s)


def test_lame_builds_only_the_chosen_witness(monkeypatch):
    """The witness is the first transform row of a component-vanishing
    sublattice that is a single generator, else the first row, and it is
    the only product lame_check builds."""
    built = []
    product = reprs.Representation.product_of_generators

    def counted(rep, exponents):
        built.append(exponents)
        return product(rep, exponents)

    monkeypatch.setattr(reprs.Representation, "product_of_generators", counted)
    rng = random.Random(7)
    violated = 0
    for rep in corpus(60, seed=4) + [wide_representation(rng, n) for n in (6, 12)]:
        built.clear()
        v = lame_check(rep)
        if v.status == "holds":
            assert built == []
            continue
        violated += 1
        L = rep.lattices
        rows = [
            (coeffs, centralizer, comp)
            for centralizer, lat, block in ((2, L.A2, 0), (1, L.A1, 1))
            for comp in range(rep.ring.ncomponents)
            for coeffs in zlattice.intersect_coordinate_zero(
                lat, reprs._block_coords(rep, block, comp)
            ).transform
        ]
        single = [
            r for r in rows
            if sum(1 for c in r[0] if c) == 1 and all(c in (0, 1) for c in r[0])
        ]
        coeffs, centralizer, comp = (single or rows)[0]
        g = product_oracle(rep, coeffs)
        assert built == [coeffs]
        assert v.witness == reprs.LameWitness(
            centralizer, g, g.u12 if centralizer == 2 else g.u23, comp
        )
    assert violated >= 10


# ---------------------------------------------------------------------------
# tau


def test_tau_full_zxz_violated_and_witness_exact():
    rep = full_zxz_rep()
    v = tau_check(rep)
    assert v.status == "violated"
    y, x = v.witness.y, v.witness.x
    one = rep.ring  # noqa: F841
    assert y.comm(x).is_identity()  # [y,x]=1
    assert a2(rep.ring).comm(y).is_identity()  # [a2,y]=1
    assert x.comm(a1(rep.ring)).is_identity()  # [x,a1]=1
    assert not y.comm(a1(rep.ring)).is_identity()  # [y,a1]!=1
    assert not a2(rep.ring).comm(x).is_identity()  # [a2,x]!=1


def test_tau_H_holds():
    assert tau_check(heisenberg()).status == "holds"


def test_tau_ztheta_holds():
    assert tau_check(ztheta_rep()).status == "holds"


def test_tau_zxz_lame_rep():
    # C(a2) carries no nonzero 12-entry beyond multiples of 1 -> no disjoint
    # support pair exists, tau holds despite the lame violation being absent?
    # (Lame fails here but tau needs a pair on BOTH sides.)
    v = tau_check(zxz_lame_rep())
    assert v.status == "holds"


def test_lame_implies_tau_on_corpus():
    for rep in corpus(120, seed=7):
        if lame_check(rep).status == "holds":
            assert tau_check(rep).status == "holds"


def test_tau_violations_match_search():
    violated = 0
    for rep in corpus(60, seed=8):
        v = tau_check(rep)
        if v.status == "violated":
            violated += 1
            # the reconstructed witness falsifies tau's matrix directly
            _, matrix = formula._peel_quantifiers(builtin("tau"))
            assignment = {"x2": rep.law.element(v.witness.y), "x1": rep.law.element(v.witness.x)}
            assert not formula.eval_qf(matrix, rep.env(), assignment)
        else:
            # search never contradicts exact holds (small bound spot check)
            out = refute_universal(builtin("tau"), rep.env(), 1)
            assert out.status == "inconclusive"
    assert violated >= 1


@pytest.mark.parametrize("seed", range(6))
def test_tau_walk_matches_the_mask_loop_on_corpus(seed):
    # the pruned depth-first walk gives the first mask's verdict and witness
    for rep in corpus(60, seed=seed):
        assert tau_check(rep) == tau_check_masks(rep)


def test_tau_walk_matches_the_mask_loop_on_more_components():
    # generators with one zero off-diagonal entry lie in C(a1) or C(a2),
    # and random components of their entries are zero
    rng = random.Random(16)
    statuses = set()
    for k in range(4, 8):
        ring = parse_ring(f"Z^{k}")
        zero = RingElem.zero(ring)
        for _ in range(8):
            gens = {}
            for i in range(rng.randint(0, 4)):
                g = random_ut3(rng, ring)
                shape = rng.randrange(3)
                gens[f"g{i}"] = UT3Elem(ring, zero if shape == 1 else g.u12, g.u13, zero if shape == 2 else g.u23)
            rep = reprs.representation(ring, gens)
            v = tau_check(rep)
            assert v == tau_check_masks(rep)
            statuses.add(v.status)
    assert statuses == {"holds", "violated"}


def test_tau_walk_prunes_at_the_root_on_many_components(monkeypatch):
    # a1 and a2 alone: every mask has U = 0 or V = 0, and the walk sees it
    # at the two children of the root instead of walking 2^20 - 2 masks
    calls = []
    intersect = zlattice.intersect_coordinate_zero

    def counting(L, coords):
        calls.append(coords)
        return intersect(L, coords)

    text = (pathlib.Path(__file__).parent / "data" / "tau_z20.cfg").read_text()
    rep = reprs.parse_config(text)
    assert rep.ring.ncomponents == 20
    rep.lattices  # built before counting
    monkeypatch.setattr(zlattice, "intersect_coordinate_zero", counting)
    assert tau_check(rep).status == "holds"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# NZCT


def test_nzct_H_exact_holds():
    v = nzct_check(heisenberg(), 3)
    assert v.status == "holds" and v.method == "exact_lattice"


def test_nzct_domain_exact():
    assert nzct_check(ztheta_rep(), 2).status == "holds"


def test_nzct_rank_2_exact():
    # a1 and a2 are prepended and do not commute, so the group is not abelian
    rep = representation(ZZ, {"b": elem(ZZ, 0, 5, 0)})
    assert rep.lattices.A.rank == 2
    assert _verdict_strings(nzct_check(rep, 2)) == ("holds", "exact_lattice", None, None)


def _assert_nzct_witness(w):
    """Re-check a violation by direct matrix computation."""
    assert not w.q.comm(w.y).is_identity()  # q noncentral (fails to commute with y)
    assert w.p.comm(w.q).is_identity()
    assert w.q.comm(w.w).is_identity()
    assert not w.p.comm(w.w).is_identity()


def test_nzct_full_zxz_violated():
    v = nzct_check(full_zxz_rep(), 2)
    assert v.status == "violated"
    _assert_nzct_witness(v.witness)


def test_nzct_bound_validation():
    with pytest.raises(ValueError):
        nzct_check(heisenberg(), 0)


def _verdict_strings(v):
    return v.status, v.method, v.bound, v.witness and v.witness.to_dict()


_EXACT_HOLDS = ("holds", "exact_lattice", None, None)


def _assert_nzct_matches_oracle(rep, bound):
    """Where ``domain_or_diagonal`` holds, nzct_check answers an exact holds
    with no search.  Every exact holds (rank <= 3, or every projection
    injective) is one that the oracle, which has neither layer, does not
    contradict at bounds 1 and 2.  Elsewhere the oracle pairs box vectors,
    while nzct_check decides every q of the box over all of C_q: it is
    violated where the oracle is, it is inconclusive only where the oracle
    is, and every witness checks out."""
    if domain_or_diagonal(rep):
        with pytest.MonkeyPatch.context() as mp:
            _forbid_nzct_search(mp)
            assert _verdict_strings(nzct_check(rep, bound)) == _EXACT_HOLDS
    v = nzct_check(rep, bound)
    if v.status == "holds":
        assert _verdict_strings(v) == _EXACT_HOLDS
        for b in (1, 2):
            assert nzct_check_ringelem(rep, b).status != "violated"
        return
    assert rep.lattices.A.rank >= 4
    oracle = nzct_check_ringelem(rep, bound)
    if v.status == "violated":
        assert oracle.status != "holds"
        assert (v.method, v.bound) == ("exact_lattice", bound)
        _assert_nzct_witness(v.witness)
    else:
        assert _verdict_strings(v) == _verdict_strings(oracle)


def test_nzct_matches_ringelem_oracle_on_corpus():
    for rep in corpus(25, seed=14):
        _assert_nzct_matches_oracle(rep, 1)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_nzct_matches_ringelem_oracle_on_fixtures(name):
    _assert_nzct_matches_oracle(fixture(name), 2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_nzct_exact_at_rank_at_most_3(seed):
    rep = random_representation(random.Random(seed))
    assume(rep.lattices.A.rank <= 3)
    assert _verdict_strings(nzct_check(rep, 1)) == ("holds", "exact_lattice", None, None)
    assert nzct_check_ringelem(rep, 1).status != "violated"


def _forbid_nzct_search(monkeypatch):
    def fail(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(reprs, "_nzct_at", fail)


def test_nzct_rank_3_runs_no_search(monkeypatch):
    _forbid_nzct_search(monkeypatch)
    rep = zxz_lame_rep()
    assert rep.lattices.A.rank == 3
    for bound in (1, 5, 50):
        assert _verdict_strings(nzct_check(rep, bound)) == ("holds", "exact_lattice", None, None)


def test_nzct_decides_each_candidate_over_its_whole_centralizer():
    # no pair of box vectors violates NZCT here, but the centralizer of a box
    # vector q is not abelian, and a pair of its kernel basis is the witness
    rep = corpus(30, seed=0)[29]
    assert rep.lattices.A.rank == 4
    assert nzct_check_ringelem(rep, 1).status == "inconclusive"
    v = nzct_check(rep, 1)
    assert (v.status, v.method, v.bound) == ("violated", "exact_lattice", 1)
    _assert_nzct_witness(v.witness)


@pytest.mark.parametrize(
    "rep, bound",
    [(corpus(5, seed=1)[4], 3), (fixture("tau-fails-zxz"), 6)],
    ids=["rank-5-bound-3", "tau-fails-zxz-bound-6"],
)
def test_nzct_large_bounds_take_bounded_work(rep, bound):
    # each q costs one row reduction, so the work is linear in the box size
    started = time.perf_counter()
    v = nzct_check(rep, bound)
    assert time.perf_counter() - started < 20.0
    assert (v.status, v.bound) == ("violated", bound)
    _assert_nzct_witness(v.witness)


def test_tau_violation_is_an_nzct_witness():
    # a tau witness (y, x) gives the NZCT assignment x2=y, x1=a2, x3=x, y=a1
    violated = 0
    for rep in corpus(100, seed=21) + [fixture(name) for name in sorted(FIXTURES)]:
        v = tau_check(rep)
        if v.status != "violated":
            continue
        violated += 1
        g = dict(rep.generators)
        x2, x1, x3, y = v.witness.y, g["a2"], v.witness.x, g["a1"]
        assert not x2.comm(y).is_identity()
        assert x1.comm(x2).is_identity()
        assert x2.comm(x3).is_identity()
        assert not x1.comm(x3).is_identity()
        assert nzct_check(rep, 1).status != "holds"
    assert violated >= 5


def test_nzct_diagonal_shortcut_with_one_sided_center_monomial():
    # t occurs only in a (1,3) entry and only on the first component, so the
    # frame has (0, t) but not (1, t); every realized entry is still diagonal
    ring = parse_ring("Z[t] x Z[t]")
    rep = representation(ring, {"b": elem(ring, "(2,2)", "(t,0)", 0)})
    assert _verdict_strings(nzct_check(rep, 1)) == ("holds", "exact_lattice", None, None)
    assert _verdict_strings(nzct_check_ringelem(rep, 1)) == _verdict_strings(nzct_check(rep, 1))


def test_nzct_diagonal_shortcut_at_rank_4(monkeypatch):
    # rank 4 passes the rank test, but every realized entry is diagonal, so
    # each component's projection is injective and no search runs
    ring = parse_ring("Z[t] x Z[t]")
    rep = representation(ring, {"b": elem(ring, "t", "(t,0)", 0), "c": elem(ring, 0, 0, "t")})
    assert rep.lattices.A.rank == 4
    assert _verdict_strings(nzct_check_ringelem(rep, 1)) == ("holds", "exact_lattice", None, None)
    _forbid_nzct_search(monkeypatch)
    assert _verdict_strings(nzct_check(rep, 1)) == ("holds", "exact_lattice", None, None)


def test_nzct_projection_layer_without_domain_or_diagonal(monkeypatch):
    # b's (1,2) entry differs between the identical components, yet both
    # projections are injective on the rank-4 entry-pair lattice
    text = (pathlib.Path(__file__).parent / "data" / "nzct_projections.cfg").read_text()
    rep = parse_config(text)
    assert rep.lattices.A.rank == 4 and not domain_or_diagonal(rep)
    for b in (1, 2):
        assert nzct_check_ringelem(rep, b).status != "violated"
    _forbid_nzct_search(monkeypatch)
    assert _verdict_strings(nzct_check(rep, 6)) == _EXACT_HOLDS


def test_nzct_needs_every_projection_injective():
    # pi_0 is injective on A and pi_1 is not: x2 = q vanishes on the second
    # component, where a1 and w commute with it but not with each other
    ring = parse_ring("Z[t] x Z")
    rep = representation(ring, {"q": elem(ring, "(t,0)", 0, 0), "w": elem(ring, "(t^2,0)", 0, "(0,1)")})
    assert rep.lattices.A.rank == 4
    v = nzct_check(rep, 1)
    assert (v.status, v.method) == ("violated", "exact_lattice")
    _assert_nzct_witness(v.witness)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring=st.sampled_from(CORPUS_RINGS + ["Z[t] x Z[t]", "Z[t] x Z[t] x Z[t]"]),
    shape=st.sampled_from(["random", "diagonal", "scaled"]),
)
@example(seed=7, ring="Z[t] x Z[t] x Z[t]", shape="scaled")  # rank 4, every projection injective
def test_nzct_projection_layer_matches_oracle(seed, ring, shape):
    # one or two generators beside a1 and a2, so A has rank at most 4 and
    # the oracle's box at bound 2 stays small.  A diagonal generator has the
    # same entries on every component, a scaled one an integer multiple of
    # them on each component, which can leave every projection injective
    rng, ring = random.Random(seed), parse_ring(ring)
    extra = {}
    for k in range(rng.randint(1, 2)):
        g = random_ut3(rng, ring)
        if shape != "random":
            cs = [1 if shape == "diagonal" else rng.choice([-2, -1, 1, 2, 3]) for _ in ring.components]
            scale = parse_elem(ring, "(" + ",".join(map(str, cs)) + ")")
            entries = (RingElem(ring, (x.parts[0],) * ring.ncomponents) for x in (g.u12, g.u13, g.u23))
            g = UT3Elem(ring, *(scale * x for x in entries))
        extra[f"g{k + 1}"] = g
    _assert_nzct_matches_oracle(representation(ring, extra), 1)


def test_nzct_walks_one_of_each_q_and_its_negation(monkeypatch):
    # q and -q have the same centralizer: only the q with a negative first
    # nonzero coefficient are decided, and the witness is still the first
    # one of the whole box in itertools.product order
    reps = [rep for rep in corpus(40, seed=0) if rep.lattices.A.rank >= 4]
    assert any(nzct_check(rep, 1).status == "inconclusive" for rep in reps)
    decided = []
    original = reprs._nzct_at

    def counted(rep, q):
        decided.append(q)
        return original(rep, q)

    for rep in reps:
        r = rep.lattices.A.rank
        box = (q for q in itertools.product(range(-1, 2), repeat=r) if any(q))
        first = next(filter(None, (original(rep, q) for q in box)), None)
        decided.clear()
        with monkeypatch.context() as mp:
            mp.setattr(reprs, "_nzct_at", counted)
            v = nzct_check(rep, 1)
        assert (v.witness and v.witness.to_dict()) == (first and first.to_dict())
        assert all(next(x for x in q if x) < 0 for q in decided)
        if v.status == "inconclusive":
            assert len(decided) == (3**r - 1) // 2


def _form_det(rep, c, d):
    """The integer determinant form at basis coefficients c and d."""
    out = [0] * len(rep.law.f13)
    for i, ci in enumerate(c):
        for j, dj in enumerate(d):
            for m, x in enumerate(rep.det_form[i][j]):
                out[m] += ci * dj * x
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_det_form_is_the_ring_determinant(seed, data):
    rep = random_representation(random.Random(seed))
    basis = rep.lattices.A.basis
    coeffs = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
    c, d = data.draw(coeffs), data.draw(coeffs)
    u = zlattice.combine(c, basis, len(rep.frame))
    v = zlattice.combine(d, basis, len(rep.frame))
    assert _form_det(rep, c, d) == rep.law.coords(2, pair_det(rep, u, v))
    assert not any(_form_det(rep, c, c))
    assert _form_det(rep, c, d) == tuple(-x for x in _form_det(rep, d, c))


def test_nzct_builds_no_ring_elements_from_coordinates(monkeypatch):
    calls = []
    original = Representation.elem_from_coords

    def counted(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(Representation, "elem_from_coords", counted)
    assert nzct_check(fixture("tau-fails-zxz"), 2).status == "violated"
    assert calls == []


def test_nzct_enumerates_no_lattice_vectors(monkeypatch):
    calls = []
    original = zlattice.Lattice.vectors_up_to

    def counted(self, bound):
        calls.append(bound)
        return original(self, bound)

    monkeypatch.setattr(zlattice.Lattice, "vectors_up_to", counted)
    assert nzct_check(fixture("tau-fails-zxz"), 2).status == "violated"
    assert calls == []


# ---------------------------------------------------------------------------
# Systems S and T


def test_solve_S_c_in_H():
    rep = heisenberg()
    z = central(Z, "1")  # z = c
    sol = solve_S(rep, z)
    assert sol is not None
    y = sol.element
    assert a2(Z).comm(y).is_identity()
    assert y.comm(a1(Z)) == z
    assert y == a2(Z)


def test_solve_T_c_in_H():
    sol = solve_T(heisenberg(), central(Z, "1"))
    assert sol is not None
    x = sol.element
    assert x.comm(a1(Z)).is_identity()
    assert a2(Z).comm(x) == central(Z, "1")
    assert x == a1(Z)


def test_solve_S_unsolvable_zxz():
    rep = zxz_lame_rep()
    z = central(ZZ, "(1,0)")
    # S needs y with y23=0, y12=e1: the e1 slot is only reachable via b's
    # 23-entry, so S is unsolvable...
    assert solve_S(rep, z) is None
    # ...while T is solved by x=b itself ([b,a1]=1 and [a2,b]=(0,e1,0))
    sol = solve_T(rep, z)
    assert sol is not None
    assert a2(ZZ).comm(sol.element) == z


def test_solve_identity():
    sol = solve_S(heisenberg(), central(Z, "0"))
    assert sol is not None and sol.element.is_identity()


def test_solve_requires_central():
    with pytest.raises(ValueError):
        solve_S(heisenberg(), a1(Z))


def test_solutions_verified_on_corpus():
    rng = random.Random(9)
    for rep in corpus(40, seed=10):
        for _ in range(3):
            g = random_ut3(rng, rep.ring)
            h = random_ut3(rng, rep.ring)
            z = g.comm(h)
            for solver, check in (
                (solve_S, lambda y: (a2(rep.ring).comm(y).is_identity(), y.comm(a1(rep.ring)) == z)),
                (solve_T, lambda x: (x.comm(a1(rep.ring)).is_identity(), a2(rep.ring).comm(x) == z)),
            ):
                sol = solver(rep, z)
                if sol is not None:
                    c1, c2 = check(sol.element)
                    assert c1 and c2


# ---------------------------------------------------------------------------
# sigma


def test_sigma_H_holds():
    assert sigma_check(heisenberg()).status == "holds"


def test_sigma_ztheta_violated():
    v = sigma_check(ztheta_rep())
    assert v.status == "violated"
    assert v.witness.system == "S"
    assert v.witness.value == RingElem.var(ZTH, "theta")


def test_sigma_trivial_full_center():
    rep = adjoin_center(representation(ZTH))
    assert sigma_check(rep).status == "holds"


def sigma_reps():
    """The corpus, the fixtures and a few representations with 20 or more
    generators."""
    rng = random.Random(17)
    wide = [wide_representation(rng, n) for n in (18, 20, 21, 22)]
    return corpus(60, seed=16) + [fixture(name) for name in FIXTURES] + wide


def test_sigma_matches_determinant_lattice_oracle():
    statuses = set()
    for rep in sigma_reps():
        status = sigma_check(rep).status
        assert status == sigma_check_dlattice(rep).status
        statuses.add(status)
    assert statuses == {"holds", "violated"}


def test_sigma_witness_is_an_unsolvable_generator_commutator():
    violated = 0
    for rep in sigma_reps():
        v = sigma_check(rep)
        if v.status != "violated":
            continue
        value, system = v.witness.value, v.witness.system
        assert value in pair_dets(rep)
        zero = RingElem.zero(rep.ring)
        solver = solve_S if system == "S" else solve_T
        assert solver(rep, UT3Elem(rep.ring, zero, value, zero)) is None
        violated += 1
    assert violated >= 10


def test_product_of_generators_matches_matrix_oracle():
    rng = random.Random(60)
    for rep in corpus(60) + [wide_representation(rng, 12)]:
        for _ in range(4):
            exponents = [rng.randint(-3, 3) for _ in rep.generators]
            assert rep.product_of_generators(exponents) == product_oracle(rep, exponents)


def test_sigma_holds_implies_solvable_commutators():
    rng = random.Random(11)
    checked = 0
    for rep in corpus(60, seed=12):
        if sigma_check(rep).status != "holds":
            continue
        for _ in range(4):
            # random group elements: words in the generators
            g = product_oracle(rep, [rng.randint(-3, 3) for _ in rep.generators])
            h = product_oracle(rep, [rng.randint(-3, 3) for _ in rep.generators])
            z = g.comm(h)
            assert solve_S(rep, z) is not None
            assert solve_T(rep, z) is not None
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# Constructions


def test_adjoin_Y_postconditions():
    rep = zxz_lame_rep()
    z = central(ZZ, "(1,0)")
    assert solve_S(rep, z) is None
    rep2 = adjoin_Y(rep, z)
    name, Y = rep2.generators[-1]
    assert a2(ZZ).comm(Y).is_identity()
    assert Y.comm(a1(ZZ)) == z
    sol = solve_S(rep2, z)
    assert sol is not None and sol.element == Y


def test_adjoin_Y_warnings():
    rep = heisenberg()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adjoin_Y(rep, central(Z, "0"))
        adjoin_Y(rep, central(Z, "1"))  # S already solvable
    assert len(caught) == 2
    with pytest.raises(ValueError):
        adjoin_Y(rep, a1(Z))


def test_adjoin_center_idempotent_and_crank():
    for rep in [heisenberg(), zxz_lame_rep(), ztheta_rep()]:
        hat = adjoin_center(rep)
        assert hat.full_center
        assert c_rank(hat) == c_rank(rep)
        assert adjoin_center(hat).full_center
        assert lame_check(hat).status == lame_check(rep).status
        assert tau_check(hat).status == tau_check(rep).status


def test_extend_centralizer_gives_ztheta_example():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    assert rep2.ring == ZTH
    name, t = rep2.generators[-1]
    assert t.u23 == RingElem.var(ZTH, "theta")
    assert t.u12.is_zero()
    assert c_rank(rep2) == c_rank(heisenberg()) + 1
    # matches the hand-built example
    assert lame_check(rep2).status == "holds"
    assert sigma_check(rep2).status == "violated"


def test_extend_centralizer_at_a2():
    rep2 = extend_centralizer(heisenberg(), 2, "theta")
    _, t = rep2.generators[-1]
    assert t.u12 == RingElem.var(rep2.ring, "theta") and t.u23.is_zero()
    # t commutes with the whole centralizer slice of a2
    for _, g in rep2.generators:
        if g.in_centralizer_a(2):
            assert t.comm(g).is_identity()


def test_extend_twice():
    rep2 = extend_centralizer(extend_centralizer(heisenberg(), 1, "s"), 1, "t")
    assert rep2.ring.components == (("s", "t"),)
    assert c_rank(rep2) == 3
    with pytest.raises(ValueError):
        extend_centralizer(rep2, 1, "s")  # name clash
    with pytest.raises(ValueError):
        extend_centralizer(heisenberg(), 3, "u")


def test_big_powers_simple():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    _, t = rep2.generators[-1]
    cert = big_powers_retraction(rep2, [t], 1)
    assert cert.n == 1
    assert all(not g.is_identity() for g in cert.retracted_targets)


def test_big_powers_root_avoidance():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    ring = rep2.ring
    th = RingElem.var(ring, "theta")
    zero = RingElem.zero(ring)
    t_minus_1 = UT3Elem(ring, zero, zero, th - RingElem.one(ring))
    t_minus_3 = UT3Elem(ring, zero, zero, th - RingElem.integer(ring, 3))
    cert = big_powers_retraction(rep2, [t_minus_3], 1)
    assert cert.n == 1
    cert = big_powers_retraction(rep2, [t_minus_1, t_minus_3], 1)
    assert cert.n == 2  # 1 kills theta-1, 3 kills theta-3
    # minimality: every smaller exponent kills some target
    for m in range(1, cert.n):
        killed = any(
            UT3Elem(
                ring,
                rings.substitute(g.u12, "theta", m),
                rings.substitute(g.u13, "theta", m),
                rings.substitute(g.u23, "theta", m),
            ).is_identity()
            for g in [t_minus_1, t_minus_3]
        )
        assert killed


def test_big_powers_identity_target_rejected():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    from heislab.ut3 import identity

    with pytest.raises(ValueError):
        big_powers_retraction(rep2, [identity(rep2.ring)], 1)


def test_big_powers_unknown_name_rejected():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    _, t = rep2.generators[-1]
    with pytest.raises(ValueError, match="not an indeterminate"):
        big_powers_retraction(rep2, [t], 1, "zzz")
    assert big_powers_retraction(rep2, [t], 1, "theta").indeterminate == "theta"


def test_big_powers_retraction_is_homomorphism():
    # the ring retraction theta -> n induces the group retraction t -> a1^n
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    _, t = rep2.generators[-1]
    cert = big_powers_retraction(rep2, [t], 1)
    n = cert.n
    img = cert.retracted_targets[0]
    assert img.u23 == RingElem.integer(rep2.ring, n)  # = (a1^n)'s entry


# ---------------------------------------------------------------------------
# C-rank


def test_c_rank_values():
    assert c_rank(heisenberg()) == 1
    assert c_rank(ztheta_rep()) == 2
    assert c_rank(representation(ZZ)) == 1
    assert c_rank(zxz_lame_rep()) == 2


def test_c_rank_invariant_under_adjoin_center_corpus():
    for rep in corpus(50, seed=13):
        assert c_rank(adjoin_center(rep)) == c_rank(rep)


# ---------------------------------------------------------------------------
# Appropriateness


def test_appropriateness_ztheta_confirmed():
    out = appropriateness_check(ztheta_rep(), 1)
    assert out.status == "confirmed"


def test_appropriateness_zxz_confirmed():
    out = appropriateness_check(zxz_lame_rep(), 1)
    assert out.status == "confirmed"  # e2 = 1 - e1


def test_appropriateness_refuted_when_theta_unused():
    rep = representation(ZTH)  # only integer entries over Z[theta]
    out = appropriateness_check(rep, 3)
    assert out.status == "refuted"
    assert out.witness is not None and out.witness.uses_var("theta")


def test_appropriateness_H():
    assert appropriateness_check(heisenberg(), 1).status == "confirmed"
    with pytest.raises(ValueError):
        appropriateness_check(heisenberg(), 0)


def test_appropriateness_matches_every_product():
    rng = random.Random(11)
    reps = corpus(60, seed=0) + corpus(60, seed=1)
    for ring in map(parse_ring, ["Z[t]", "Z[t] x Z[t]", "Z^4", "Z[t,s]"]):
        for _ in range(8):
            gens = {f"b{k}": random_ut3(rng, ring, coeff_bound=3) for k in range(rng.randint(1, 2))}
            reps.append(representation(ring, gens))
    for rep in reps:
        for degree in (1, 2, 3, 5):
            assert appropriateness_check(rep, degree) == appropriateness_check_products(rep, degree)


def test_appropriateness_walks_layers_that_grow_the_span_in_place():
    # over Z^3, x = (0,1,-1) and x^2 = (0,1,1) add no frame coordinate, but
    # x^2 adds 1 - x^2 = (1,0,0) to the span; x^3 = x adds nothing
    rep = parse_config("ring: Z^3\ngenerators: { b: {e23: (0,1,-1)} }")
    assert appropriateness_check(rep, 1).witness == parse_elem(rep.ring, "(1,0,0)")
    assert appropriateness_check(rep, 2).witness == parse_elem(rep.ring, "(0,1,0)")
    assert appropriateness_check(rep, 10**6) == appropriateness_check_products(rep, 10**6)


def test_appropriateness_takes_one_hnf_at_degree_1(monkeypatch):
    calls = []
    hnf = zlattice.hnf
    monkeypatch.setattr(zlattice, "hnf", lambda *args, **kw: calls.append(1) or hnf(*args, **kw))
    for rep in corpus(20, seed=0):
        calls.clear()
        appropriateness_check(rep, 1)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Config round-trip


def test_config_roundtrip():
    for rep in [heisenberg(), zxz_lame_rep(), ztheta_rep(), full_zxz_rep()]:
        text = serialize_config(rep)
        back = parse_config(text)
        assert back.ring == rep.ring
        assert back.full_center == rep.full_center
        assert [(n, g) for n, g in back.generators] == list(rep.generators)


@pytest.mark.parametrize(
    "text, ascii_text",
    [
        ("ring: Z\ngenerators: {\xa0}", "ring: Z\ngenerators: { }"),
        ("ring: Z\ngenerators: {b: {e12: 1},\u2003}", "ring: Z\ngenerators: {b: {e12: 1}, }"),
    ],
)
def test_config_unicode_blanks_read_as_ascii_blanks(text, ascii_text):
    assert parse_config(text) == parse_config(ascii_text)


def test_config_parse_errors():
    with pytest.raises(reprs.ConfigError):
        parse_config("generators: {}")  # missing ring
    with pytest.raises(reprs.ConfigError):
        parse_config("ring: Z\nfull_center: maybe")
    with pytest.raises(reprs.ConfigError):
        parse_config("ring: Z\ngenerators: { a1: {e12: 1} }")  # reserved
    with pytest.raises(reprs.ConfigError):
        parse_config("ring: Z\ngenerators: { b: {e99: 1} }")
    for text in (
        "ring: Z\ngenerators:",  # no '{'
        "ring: Z\ngenerators: b",
        "ring: Z\ngenerators: { b: 5 }",  # a generator without '{'
    ):
        with pytest.raises(reprs.ConfigError, match="expected '{'"):
            parse_config(text)
    with pytest.raises(reprs.ConfigError, match="unknown key 'full_centre'"):
        parse_config("ring: Z\nfull_centre: true")
    for text in (
        "ring: Z\ngenerators: { b: {e12: 1} } b",  # text after the block
        "ring: Z\ngenerators: {}\n}",
        "ring: Z\ngenerators: {}\nc: {e12: 1}",
        "ring: Z\nring: Z",
        "ring: Z\nhello",
    ):
        with pytest.raises(reprs.ConfigError):
            parse_config(text)
    with pytest.raises(reprs.ConfigError, match="generator 'b': .*exponent"):
        parse_config("ring: Z[t]\ngenerators: { b: {e12: t^a} }")


def test_entries_need_commas_and_blank_items_are_skipped():
    with pytest.raises(reprs.ConfigError, match="bad entry key '1 e13'"):
        parse_config("ring: Z x Z\ngenerators: { b: {e12: 1 e13: 2} }")
    assert parse_config("ring: Z x Z\ngenerators: { b: {e12: 1,, e13: 2,} }") == parse_config(
        "ring: Z x Z\ngenerators: { b: {e12: 1, e13: 2} }"
    )


def test_config_layout_file_reads_as_the_bracket_depth_reader_does():
    text = (pathlib.Path(__file__).parent / "data" / "config_layout.cfg").read_text()
    rep = parse_config(text)
    assert rep == parse_config_oracle(text)
    b, c = (g for name, g in rep.generators if name not in ("a1", "a2"))
    assert b.u23 == parse_elem(rep.ring, "(t^2+2*t+1,-3)")
    assert c.u13 == parse_elem(rep.ring, "(1,2)")


def test_braces_inside_a_generator_block_are_config_errors():
    text = (pathlib.Path(__file__).parent / "data" / "config_nested.cfg").read_text()
    with pytest.raises(reprs.ConfigError, match=r"one '\{...\}' per generator"):
        parse_config(text)
    with pytest.raises(reprs.ConfigError):
        parse_config_oracle(text)


def test_config_layout_is_free():
    rep = parse_config(
        "generators:\n{\n  b:\n {e23: t}, c: {e12: 1},\n}\nfull_center: true\nring: Z[t]\n"
    )
    assert [n for n, _ in rep.generators] == ["a1", "a2", "b", "c"]
    assert rep.full_center and rep.ring == parse_ring("Z[t]")


def test_config_comments_and_defaults():
    rep = parse_config("# a comment\nring: Z  # trailing\n")
    assert rep.ring == Z and not rep.full_center
    assert [n for n, _ in rep.generators] == ["a1", "a2"]


# ---------------------------------------------------------------------------
# Exact vs search consistency on the corpus


def test_exact_never_contradicted_by_search():
    for rep in corpus(25, seed=14):
        tv = tau_check(rep)
        out = refute_universal(builtin("tau"), rep.env(), 1)
        if out.status == "violated":
            assert tv.status == "violated"
        nv = nzct_check(rep, 1)
        out = refute_universal(builtin("NZCT"), rep.env(), 1)
        if out.status == "violated":
            assert nv.status == "violated"
