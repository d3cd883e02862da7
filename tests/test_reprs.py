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
    adjoin_Y_matrices,
    adjoin_center_matrices,
    appropriateness_check_products,
    big_powers_by_substitution,
    config_readings,
    corpus,
    domain_or_diagonal,
    entry_terms,
    extend_centralizer_matrices,
    is_zero_divisor,
    lame_check_def1,
    matrix,
    nzct_check_ringelem,
    parse_config_oracle,
    pair_det,
    pair_dets,
    product_oracle,
    random_poly_elem,
    random_representation,
    random_ut3,
    refute_by_brute_force,
    serialize_config_matrices,
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


def z13(z: UT3Elem) -> dict:
    """The (1,3) entry terms of a central matrix z: the argument of
    solve_S, solve_T and adjoin_Y."""
    assert z.is_central()
    return rings.frame_terms(z.u13)


def commutator_rank(rep):
    """Rank of the lattice spanned by the generator commutator values."""
    law = rep.law
    values = [law.comm(g, h) for g, h in itertools.combinations(rep.law_generators, 2)]
    return zlattice.hnf(values, ambient_dim=law.dim).rank


# ---------------------------------------------------------------------------
# Entry lattices


def test_entry_lattices_H():
    H = heisenberg()
    assert H.A.basis == ((1, 0), (0, 1))  # Z^2 from a1:(0,1), a2:(1,0)
    assert H.A1.rank == 1 and H.A2.rank == 1
    assert commutator_rank(heisenberg()) == 1


def test_entry_lattices_zxz():
    rep = zxz_lame_rep()
    # A1's 23-block spans the coordinates of 1 and e1 -> rank 2
    assert rep.A1.rank == 2
    assert rep.A2.rank == 1


def test_entry_lattices_trivial_extra_ring():
    rep = representation(ZTH)
    H = heisenberg()
    assert rep.A1.rank == H.A1.rank and rep.A2.rank == H.A2.rank
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


def test_only_lame_tau_and_crank_cut_A1_and_A2(monkeypatch):
    # A1 and A2 are cut from A when first read: sigma, S, T and NZCT read A
    # alone, and lame, tau and crank make as many cuts as when both were
    # cut with A (68 of them: two on each of the 34 representations)
    calls = []
    intersect = zlattice.intersect_coordinate_zero
    monkeypatch.setattr(zlattice, "intersect_coordinate_zero", lambda L, c: calls.append(c) or intersect(L, c))
    texts = [serialize_config(rep) for rep in corpus(30, seed=5)] + sorted(FIXTURES.values())

    def z(rep):  # the (1,3) entry terms of 1
        return rings.parse_terms(rep.ring, "1")

    checks = {
        "lame": lame_check,
        "tau": tau_check,
        "crank": c_rank,
        "sigma": sigma_check,
        "nzct": lambda rep: nzct_check(rep, 1),
        "S": lambda rep: solve_S(rep, z(rep)),
        "T": lambda rep: solve_T(rep, z(rep)),
    }
    counts = {}
    for name, check in checks.items():
        calls.clear()
        for text in texts:
            check(parse_config(text))
        counts[name] = len(calls)
    assert counts == {"lame": 181, "tau": 113, "crank": 68, "sigma": 0, "nzct": 0, "S": 0, "T": 0}


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
        new_labels = [(0, m) for m in rep.f12] + [(1, m) for m in rep.f23]
        for name in ("A", "A1", "A2"):
            new, ref = getattr(rep, name), getattr(old, name)
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
    for _, g in rep.generators:
        for index, (entry, frame) in zip(
            rep.index, ((g.u12, rep.f12), (g.u23, rep.f23), (g.u13, rep.f13))
        ):
            v = rings.frame_coords(index, entry)
            assert v is not None
            assert rings.from_frame(rep.ring, frame, v) == entry
        assert rep.elem_from_coords(rep.element(g)[: len(rep.frame)]) == (g.u12, g.u23)
        assert rep.to_ut3(rep.element(g)) == g
        assert rep.entry_terms(rep.element(g)) == entry_terms(g)
    assert rings.frame_coords(rep.index[0], parse_elem(ZZ, "(0, 999)")) is not None
    # no theta-frame coordinate exists in this representation
    with pytest.raises(ValueError, match="outside the frames"):
        representation(ZTH).element(elem(ZTH, "theta", 0, 0))


# ---------------------------------------------------------------------------
# Lame property


def test_lame_zxz_violated_with_witness_b():
    v = lame_check(zxz_lame_rep())
    assert v.status == "violated" and v.method == "exact_lattice"
    w = v.witness
    g, entry = matrix(w.ring, w.element), rings.from_terms(w.ring, w.entry)
    assert w.centralizer == 1
    assert g.u23 == parse_elem(ZZ, "(1,0)")
    assert entry == parse_elem(ZZ, "(1,0)")
    # re-check independently: noncentral, in C(a1), entry a zero divisor
    assert g.comm(a1(w.ring)).is_identity()
    assert not g.is_central()
    assert is_zero_divisor(entry)


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
    g = matrix(v.witness.ring, v.witness.element)
    s = g.u12 * g.u12 + g.u23 * g.u23
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
        rows = [
            (coeffs, centralizer, comp)
            for centralizer, lat, block in ((2, rep.A2, 0), (1, rep.A1, 1))
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
        assert v.witness == reprs.LameWitness(rep.ring, centralizer, entry_terms(g), comp)
        assert rings.from_terms(rep.ring, v.witness.entry) == (g.u12 if centralizer == 2 else g.u23)
    assert violated >= 10


# ---------------------------------------------------------------------------
# tau


def test_tau_full_zxz_violated_and_witness_exact():
    rep = full_zxz_rep()
    v = tau_check(rep)
    assert v.status == "violated"
    y, x = matrix(rep.ring, v.witness.y), matrix(rep.ring, v.witness.x)
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
            _, body = formula._peel_quantifiers(builtin("tau"))
            y, x = (matrix(rep.ring, g) for g in (v.witness.y, v.witness.x))
            assignment = {"x2": rep.element(y), "x1": rep.element(x)}
            assert not formula.eval_qf(body, rep.env(), assignment)
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
    rep.A1, rep.A2  # built before counting
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
    assert rep.A.rank == 2
    assert _verdict_strings(nzct_check(rep, 2)) == ("holds", "exact_lattice", None, None)


def _assert_nzct_witness(w):
    """Re-check a violation by direct matrix computation."""
    q, p, x3, y = (matrix(w.ring, g) for g in (w.q, w.p, w.w, w.y))
    assert not q.comm(y).is_identity()  # q noncentral (fails to commute with y)
    assert p.comm(q).is_identity()
    assert q.comm(x3).is_identity()
    assert not p.comm(x3).is_identity()


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
    assert rep.A.rank >= 4
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
    assume(rep.A.rank <= 3)
    assert _verdict_strings(nzct_check(rep, 1)) == ("holds", "exact_lattice", None, None)
    assert nzct_check_ringelem(rep, 1).status != "violated"


def _forbid_nzct_search(monkeypatch):
    def fail(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(reprs, "_nzct_at", fail)


def test_nzct_rank_3_runs_no_search(monkeypatch):
    _forbid_nzct_search(monkeypatch)
    rep = zxz_lame_rep()
    assert rep.A.rank == 3
    for bound in (1, 5, 50):
        assert _verdict_strings(nzct_check(rep, bound)) == ("holds", "exact_lattice", None, None)


def test_nzct_decides_each_candidate_over_its_whole_centralizer():
    # no pair of box vectors violates NZCT here, but the centralizer of a box
    # vector q is not abelian, and a pair of its kernel basis is the witness
    rep = corpus(30, seed=0)[29]
    assert rep.A.rank == 4
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
        x2, x1, x3, y = matrix(rep.ring, v.witness.y), g["a2"], matrix(rep.ring, v.witness.x), g["a1"]
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
    assert rep.A.rank == 4
    assert _verdict_strings(nzct_check_ringelem(rep, 1)) == ("holds", "exact_lattice", None, None)
    _forbid_nzct_search(monkeypatch)
    assert _verdict_strings(nzct_check(rep, 1)) == ("holds", "exact_lattice", None, None)


def test_nzct_projection_layer_without_domain_or_diagonal(monkeypatch):
    # b's (1,2) entry differs between the identical components, yet both
    # projections are injective on the rank-4 entry-pair lattice
    text = (pathlib.Path(__file__).parent / "data" / "nzct_projections.cfg").read_text()
    rep = parse_config(text)
    assert rep.A.rank == 4 and not domain_or_diagonal(rep)
    for b in (1, 2):
        assert nzct_check_ringelem(rep, b).status != "violated"
    _forbid_nzct_search(monkeypatch)
    assert _verdict_strings(nzct_check(rep, 6)) == _EXACT_HOLDS


def test_nzct_needs_every_projection_injective():
    # pi_0 is injective on A and pi_1 is not: x2 = q vanishes on the second
    # component, where a1 and w commute with it but not with each other
    ring = parse_ring("Z[t] x Z")
    rep = representation(ring, {"q": elem(ring, "(t,0)", 0, 0), "w": elem(ring, "(t^2,0)", 0, "(0,1)")})
    assert rep.A.rank == 4
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
    reps = [rep for rep in corpus(40, seed=0) if rep.A.rank >= 4]
    assert any(nzct_check(rep, 1).status == "inconclusive" for rep in reps)
    decided = []
    original = reprs._nzct_at

    def counted(rep, q):
        decided.append(q)
        return original(rep, q)

    for rep in reps:
        r = rep.A.rank
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
    out = [0] * len(rep.f13)
    for i, ci in enumerate(c):
        for j, dj in enumerate(d):
            for m, x in enumerate(rep.det_form[i][j]):
                out[m] += ci * dj * x
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_det_form_is_the_ring_determinant(seed, data):
    rep = random_representation(random.Random(seed))
    basis = rep.A.basis
    coeffs = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
    c, d = data.draw(coeffs), data.draw(coeffs)
    u = zlattice.combine(c, basis, len(rep.frame))
    v = zlattice.combine(d, basis, len(rep.frame))
    assert _form_det(rep, c, d) == rings.frame_coords(rep.index[2], pair_det(rep, u, v))
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


# ---------------------------------------------------------------------------
# Exact proofs of builtin sentences


def _proof_reps(group):
    """corpus(60, seed=group), or with "files" the fixtures and every
    config in tests/data that reads."""
    if group != "files":
        return corpus(60, seed=group)
    reps = [fixture(name) for name in sorted(FIXTURES)]
    for path in sorted(pathlib.Path(__file__).parent.glob("data/*.cfg")):
        try:
            reps.append(parse_config(path.read_text()))
        except reprs.ConfigError:
            assert path.name == "config_nested.cfg"
    return reps


@pytest.mark.parametrize("group", [0, 1, 2, "files"])
def test_holds_exactly_proves_only_what_no_search_refutes(group):
    # a sentence that holds has no counterexample in any ball: neither the
    # search at bounds 1-3 nor the brute-force oracle at bound 2 finds one
    proved = dict.fromkeys(("NZCT", "CT(1)", "tau", "centralizer_qi"), 0)
    for rep in _proof_reps(group):
        env = rep.env()
        for name in proved:
            sentence = builtin(name)
            if not reprs.holds_exactly(rep, sentence):
                continue
            proved[name] += 1
            for bound in (1, 2, 3):
                assert refute_universal(sentence, env, bound) == formula.Verdict(
                    "inconclusive", "bounded_search", bound=bound
                ), name
            assert refute_by_brute_force(sentence, env, 2).status == "inconclusive", name
        # tau_check is exact both ways, and so is tau's entry
        assert reprs.holds_exactly(rep, builtin("tau")) == (tau_check(rep).status == "holds")
        # CT(1) is NZCT with y renamed w1 and [x2,y] written [w1,x2]
        nzct, ct1 = (refute_universal(builtin(name), env, 2) for name in ("NZCT", "CT(1)"))
        assert nzct.status == ct1.status
    assert all(proved.values()), proved


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
    sol = solve_S(rep, z13(z))
    assert sol is not None
    y = matrix(Z, sol.element)
    assert a2(Z).comm(y).is_identity()
    assert y.comm(a1(Z)) == z
    assert y == a2(Z)


def test_solve_T_c_in_H():
    sol = solve_T(heisenberg(), z13(central(Z, "1")))
    assert sol is not None
    x = matrix(Z, sol.element)
    assert x.comm(a1(Z)).is_identity()
    assert a2(Z).comm(x) == central(Z, "1")
    assert x == a1(Z)


def test_solve_S_unsolvable_zxz():
    rep = zxz_lame_rep()
    z = central(ZZ, "(1,0)")
    # S needs y with y23=0, y12=e1: the e1 slot is only reachable via b's
    # 23-entry, so S is unsolvable...
    assert solve_S(rep, z13(z)) is None
    # ...while T is solved by x=b itself ([b,a1]=1 and [a2,b]=(0,e1,0))
    sol = solve_T(rep, z13(z))
    assert sol is not None
    assert a2(ZZ).comm(matrix(ZZ, sol.element)) == z


def test_solve_identity():
    sol = solve_S(heisenberg(), z13(central(Z, "0")))
    assert sol is not None and matrix(Z, sol.element).is_identity()


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
                sol = solver(rep, z13(z))
                if sol is not None:
                    c1, c2 = check(matrix(rep.ring, sol.element))
                    assert c1 and c2


# ---------------------------------------------------------------------------
# sigma


def test_sigma_H_holds():
    assert sigma_check(heisenberg()).status == "holds"


def test_sigma_ztheta_violated():
    v = sigma_check(ztheta_rep())
    assert v.status == "violated"
    assert v.witness.system == "S"
    assert rings.from_terms(ZTH, v.witness.value) == RingElem.var(ZTH, "theta")


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


def test_sigma_matches_the_ring_element_route():
    # each generator commutator's (1,3) entry as a ring element, solved
    # over the generators as S and then T: the same verdict and witness
    for rep in sigma_reps():
        want = formula.Verdict("holds", "exact_lattice")
        for g, h in itertools.combinations(rep.law_generators, 2):
            z = z13(rep.to_ut3(rep.law.comm(g, h)))
            unsolved = [system for system, solver in zip("ST", (solve_S, solve_T)) if solver(rep, z) is None]
            if unsolved:
                want = formula.Verdict("violated", "exact_lattice", reprs.SigmaWitness(rep.ring, z, unsolved[0]))
                break
        assert sigma_check(rep) == want


def test_sigma_witness_is_an_unsolvable_generator_commutator():
    violated = 0
    for rep in sigma_reps():
        v = sigma_check(rep)
        if v.status != "violated":
            continue
        value, system = v.witness.value, v.witness.system
        assert rings.from_terms(rep.ring, value) in pair_dets(rep)
        solver = solve_S if system == "S" else solve_T
        assert solver(rep, value) is None
        violated += 1
    assert violated >= 10


def _block_pair(rep, value, block):
    """value's coordinates over f12 (block 0) or f23 (block 1), padded to an
    entry pair over ``frame``; None outside that frame."""
    c = rings.frame_coords(rep.index[block], value)
    if c is None:
        return None
    zero = (0,) * (len(rep.frame) - len(c))
    return list(c + zero if block == 0 else zero + c)


def test_entry_pair_places_f13_as_the_block_coordinates_do():
    # every f13 monomial, and random combinations of them, placed in each
    # block, against the value's own coordinates over f12 and over f23
    rng = random.Random(18)
    for rep in sigma_reps():
        m = len(rep.f13)
        assert rep.f13 == tuple(sorted(set(rep.f13) | set(rep.f12) | set(rep.f23)))
        units = [tuple(int(i == k) for i in range(m)) for k in range(m)]
        mixed = [tuple(rng.choice((0, 0, 1, -2, 3)) for _ in range(m)) for _ in range(4)]
        for z in units + mixed:
            value = rings.from_frame(rep.ring, rep.f13, z)
            for block in (0, 1):
                assert rep.entry_pair(rings.frame_terms(value), block) == _block_pair(rep, value, block)


def test_solve_matches_the_block_coordinates_route():
    # solve_S and solve_T place z13's terms in the 12- or 23-block; the
    # exponents are the ones z13's own coordinates over f12 or f23 give,
    # and a z13 outside f13 has none
    rng = random.Random(19)
    solved = unsolved = 0
    for rep in sigma_reps():
        A, m = rep.A, len(rep.f13)
        values = [rep.to_ut3(rep.law.comm(g, h)).u13 for g, h in itertools.combinations(rep.law_generators, 2)]
        values += [rings.from_frame(rep.ring, rep.f13, [rng.randint(-2, 2) for _ in range(m)]) for _ in range(3)]
        values += [RingElem.var(rep.ring, name) ** 9 for name in rep.ring.components[0][:1]]
        for value in values:
            for block, solver in enumerate((solve_S, solve_T)):
                v = _block_pair(rep, value, block)
                want = None if v is None else zlattice.in_source_coordinates(A, v)
                sol = solver(rep, rings.frame_terms(value))
                assert (None if sol is None else sol.coefficients) == want
                solved += sol is not None
                unsolved += sol is None
    assert solved > 100 and unsolved > 100


def test_product_of_generators_matches_matrix_oracle():
    rng = random.Random(60)
    for rep in corpus(60) + [wide_representation(rng, 12)]:
        for _ in range(4):
            exponents = [rng.randint(-3, 3) for _ in rep.generators]
            g = rep.product_of_generators(exponents)
            assert matrix(rep.ring, g) == product_oracle(rep, exponents)
            assert g == entry_terms(product_oracle(rep, exponents))


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
            z = z13(g.comm(h))
            assert solve_S(rep, z) is not None
            assert solve_T(rep, z) is not None
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# Constructions


def test_adjoin_Y_postconditions():
    rep = zxz_lame_rep()
    z = central(ZZ, "(1,0)")
    assert solve_S(rep, z13(z)) is None
    rep2 = adjoin_Y(rep, z13(z))
    name, Y = rep2.generators[-1]
    assert a2(ZZ).comm(Y).is_identity()
    assert Y.comm(a1(ZZ)) == z
    sol = solve_S(rep2, z13(z))
    assert sol is not None and matrix(ZZ, sol.element) == Y


def test_adjoin_Y_warnings():
    rep = heisenberg()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adjoin_Y(rep, z13(central(Z, "0")))
        adjoin_Y(rep, z13(central(Z, "1")))  # S already solvable
    assert [str(w.message) for w in caught] == [
        "adjoin_Y with z = identity adjoins the identity",
        "system S is already solvable; adjoin_Y is redundant",
    ]


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
        if g.comm(a2(rep2.ring)).is_identity():
            assert t.comm(g).is_identity()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constructions_match_their_matrix_built_references(seed):
    """Each construction, on terms, against its matrix-built reference: the
    same matrices, the same config text, and a config that reads back to
    the same representation.  adjoin_Y warns where solve_S finds a
    solution, as before it stopped building the solution's matrix."""
    rng = random.Random(seed)
    reps = corpus(60, seed=seed) + [fixture(name) for name in sorted(FIXTURES)]
    for rep in reps + [extend_centralizer(rep, 2, "s") for rep in reps[::6]]:
        ring = rep.ring
        start = (ring, rep.generators, rep.full_center)
        pairs = [
            (extend_centralizer(rep, 1, "u"), extend_centralizer_matrices(*start, 1, "u")),
            (extend_centralizer(rep, 2, "u"), extend_centralizer_matrices(*start, 2, "u")),
            (adjoin_center(rep), adjoin_center_matrices(*start)),
        ]
        for value in (RingElem.one(ring), random_poly_elem(rng, ring), RingElem.zero(ring)):
            z = rings.frame_terms(value)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pairs.append((adjoin_Y(rep, z), adjoin_Y_matrices(*start, value)))
            assert len(caught) == (1 if value.is_zero() else int(solve_S(rep, z) is not None))
        for new, reference in pairs:
            assert (new.ring, new.generators, new.full_center) == reference
            text = serialize_config(new)
            assert text == serialize_config_matrices(*reference)
            assert parse_config(text) == new


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
    cert = big_powers_retraction(rep2, [rep2.element(t)])
    assert cert.n == 1
    assert all(any(image) for image in cert.retracted_targets)


def test_big_powers_root_avoidance():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    ring = rep2.ring
    th = RingElem.var(ring, "theta")
    zero = RingElem.zero(ring)
    t_minus_1 = UT3Elem(ring, zero, zero, th - RingElem.one(ring))
    t_minus_3 = UT3Elem(ring, zero, zero, th - RingElem.integer(ring, 3))
    cert = big_powers_retraction(rep2, [rep2.element(t_minus_3)])
    assert cert.n == 1
    cert = big_powers_retraction(rep2, [rep2.element(t_minus_1), rep2.element(t_minus_3)])
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


@pytest.mark.parametrize("k, first", [(1, 1), (5, 1), (40, 1), (40, 3), (40, 100)])
def test_big_powers_substitutes_only_for_the_certificate(monkeypatch, k, first):
    # the targets t*a1^-j, j = first, ..., first+k-1, die at theta = j, so
    # n is first+k when first is 1 and 1 otherwise; the exponent is chosen
    # by evaluation, and the retracted targets are read off the law's
    # tuples, so no ring element is substituted or converted at all
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    law = rep2.law
    t, a1_ = rep2.law_generators[-1], rep2.law_generators[0]
    targets = [law.mul(t, law.pow_int(a1_, -j)) for j in range(first, first + k)]
    calls = []
    for fn in ("substitute", "terms_of"):
        original = getattr(rings, fn)
        monkeypatch.setattr(
            rings, fn, lambda *args, f=original: calls.append(args) or f(*args)
        )
    cert = big_powers_retraction(rep2, targets)
    assert cert.n == (first + k if first == 1 else 1)
    assert calls == []
    assert all(any(image) for image in cert.retracted_targets)
    oracle = big_powers_by_substitution(rep2, map(rep2.to_ut3, targets), "theta")
    assert oracle == (cert.n, cert.to_dict()["retracted_targets"])


@pytest.mark.parametrize("k", [40, 200])
def test_big_powers_work_is_linear_in_the_targets(monkeypatch, k):
    # the targets t*a1^-j, j = 1, ..., k, die at theta = j, so n = k + 1.
    # Trying 1, 2, ... in turn evaluates about k^2/2 coefficient lists; the
    # root sets evaluate each target's list a bounded number of times
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    _, t = rep2.generators[-1]
    targets = [rep2.element(t * a1(rep2.ring).pow_int(-j)) for j in range(1, k + 1)]
    calls = []
    horner = rings._horner
    monkeypatch.setattr(rings, "_horner", lambda *args: calls.append(args) or horner(*args))
    assert big_powers_retraction(rep2, targets).n == k + 1
    assert len(calls) <= 4 * k


def test_big_powers_identity_target_rejected():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    from heislab.ut3 import identity

    with pytest.raises(ValueError, match="identity target"):
        big_powers_retraction(rep2, [rep2.element(identity(rep2.ring))])


def test_big_powers_unknown_name_rejected():
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    _, t = rep2.generators[-1]
    with pytest.raises(ValueError, match="not an indeterminate"):
        big_powers_retraction(rep2, [rep2.element(t)], "zzz")
    assert big_powers_retraction(rep2, [rep2.element(t)], "theta").indeterminate == "theta"


def test_big_powers_retraction_is_homomorphism():
    # the ring retraction theta -> n induces the group retraction t -> a1^n
    rep2 = extend_centralizer(heisenberg(), 1, "theta")
    _, t = rep2.generators[-1]
    cert = big_powers_retraction(rep2, [rep2.element(t)])
    n = cert.n
    e12, e23, e13 = (rings.from_terms(rep2.ring, e) for e in cert.retracted_targets[0])
    assert e23 == RingElem.integer(rep2.ring, n)  # = (a1^n)'s entry
    assert e12.is_zero() and e13.is_zero()


def _random_entry(rng: random.Random, ring):
    """A random element with monomials of degree <= 2 in each indeterminate
    of its component."""
    terms = {}
    for j, names in enumerate(ring.components):
        for _ in range(rng.randint(0, 2)):
            terms[j, tuple(rng.randint(0, 2) for _ in names)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return rings.from_terms(ring, terms)


def _random_word(rng: random.Random, law, gens):
    """A product of 1-4 random generator powers and commutators of two."""
    out = law.identity
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            factor = law.comm(rng.choice(gens), rng.choice(gens))
        else:
            factor = law.pow_int(rng.choice(gens), rng.choice([-2, -1, 1, 2]))
        out = law.mul(out, factor)
    return out


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring=st.sampled_from(
        ["Z[theta]", "Z[theta,s]", "Z[theta] x Z", "Z x Z[theta]", "Z[theta,s] x Z[s]", "Z[s] x Z[s,theta] x Z"]
    ),
    default_name=st.booleans(),
)
def test_big_powers_match_the_substitution_oracle(seed, ring, default_name):
    # random extensions over rings where some components lack theta, with
    # entries of degree <= 2 in each indeterminate, so products reach
    # degree 4 and a theta*s monomial retracts to s, which may lie outside
    # the frames; the exponent and every printed image are the oracle's
    rng = random.Random(seed)
    ring = parse_ring(ring)
    extra = {
        f"g{k}": UT3Elem(ring, *(_random_entry(rng, ring) for _ in range(3)))
        for k in range(rng.randint(1, 3))
    }
    # an extension's generator t: theta in a1's or a2's slot, where it occurs
    theta = {
        (j, tuple(int(x == "theta") for x in names)): 1
        for j, names in enumerate(ring.components)
        if "theta" in names
    }
    theta, zero = rings.from_terms(ring, theta), RingElem.zero(ring)
    at_a1 = rng.random() < 0.5
    extra["t"] = UT3Elem(ring, zero, zero, theta) if at_a1 else UT3Elem(ring, theta, zero, zero)
    rep = representation(ring, extra)
    law, gens = rep.law, rep.law_generators
    targets = [_random_word(rng, law, gens) for _ in range(rng.randint(0, 4))]
    # killers t^e * a_i^(-e*k) for k = 1, 2, ..., which die at theta = k
    # where every component carries theta
    for k in range(1, rng.randint(1, 5)):
        e = rng.choice([-2, -1, 1, 2])
        a = gens[0 if at_a1 else 1]
        targets.append(law.mul(law.pow_int(gens[-1], e), law.pow_int(a, -e * k)))
    targets = [v for v in targets if any(v)]
    assume(targets)
    name_arg = None if default_name and ring.components[0] else "theta"
    name = name_arg or ring.components[0][-1]
    cert = big_powers_retraction(rep, targets, name_arg)
    assert cert.indeterminate == name
    ut3_targets = [rep.to_ut3(v) for v in targets]
    assert big_powers_by_substitution(rep, ut3_targets, name) == (
        cert.n,
        cert.to_dict()["retracted_targets"],
    )
    for g, image in zip(ut3_targets, cert.retracted_targets):
        substituted = (rings.substitute(e, name, cert.n) for e in (g.u12, g.u23, g.u13))
        assert tuple(map(rings.frame_terms, substituted)) == image
    # minimality: every smaller exponent kills some target
    for m in range(1, cert.n):
        assert any(
            all(rings.substitute(e, name, m).is_zero() for e in (g.u12, g.u13, g.u23))
            for g in ut3_targets
        )


@pytest.mark.parametrize(
    "config, name, lines, outside",
    [
        # t*t has e13 = theta^2*s, which retracts to n^2*s: s is in no frame
        (
            "ring: Z[theta,s] x Z\ngenerators: {\n  t: {e12: (theta*s,0), e23: (theta,1)}\n}\n",
            "theta",
            ["@t*@t*a1", "@t*a2^-1", "[@t,a1]"],
            (0, (0, 1)),
        ),
        # t*u^-1 is (theta-1)*s in e23 alone, which n = 1 kills
        (
            "ring: Z[theta,s]\ngenerators: {\n  u: {e23: s},\n  t: {e23: theta*s},\n  w: {e12: theta}\n}\n",
            "theta",
            ["@t*@u^-1", "@w*@t"],
            None,
        ),
        # theta only in component 1; the images keep s in component 2
        (
            "ring: Z[theta] x Z[s]\ngenerators: {\n  t: {e12: (theta,s), e23: (theta^2,1)}\n}\n",
            "theta",
            ["@t*@t*a1^-3", "[@t,a2]*a1"],
            None,
        ),
    ],
    ids=["outside-the-frames", "killed-at-1", "partial-name"],
)
def test_big_powers_on_partial_names_and_images_outside_the_frames(config, name, lines, outside):
    rep = parse_config(config)
    env = rep.env()
    targets = [formula.eval_term(formula.parse_term(ln), env, {}) for ln in lines]
    cert = big_powers_retraction(rep, targets, name)
    ut3_targets = [rep.to_ut3(v) for v in targets]
    assert big_powers_by_substitution(rep, ut3_targets, name) == (
        cert.n,
        cert.to_dict()["retracted_targets"],
    )
    # theta is component 1's first indeterminate, and some entry has degree >= 2 in it
    entries = [x for g in ut3_targets for x in (g.u12, g.u13, g.u23)]
    assert any(j == 0 and e[0] >= 2 for x in entries for j, e in rings.frame_terms(x))
    if outside is not None:
        assert outside not in rep.f13
        assert any(outside in image[2] for image in cert.retracted_targets)


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
    assert out.witness == {(0, (1,)): 1}  # theta


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
    assert rings.from_terms(rep.ring, appropriateness_check(rep, 1).witness) == parse_elem(rep.ring, "(1,0,0)")
    assert rings.from_terms(rep.ring, appropriateness_check(rep, 2).witness) == parse_elem(rep.ring, "(0,1,0)")
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


def test_config_reader_matches_the_per_entry_oracle():
    """parse_config reads entries into terms; the oracle reads each into a
    ring element and the frames and law tuples off the matrices.  Both give
    the same frames, law tuples and matrices, or the same exception."""
    rng = random.Random(8)
    reps = corpus(40, seed=11) + [wide_representation(rng, n) for n in (6, 12)]
    texts = [serialize_config(rep) for rep in reps] + sorted(FIXTURES.values())
    texts += [path.read_text() for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.cfg"))]
    texts += [
        "ring: Z[t] x Z[t]\ngenerators: { b: {e13: t-t, e12: (t^2-1,0), e23: -(t+1)} }",
        "ring: Z[t] x Z\ngenerators: { b: {e12: (2*t-t-t,0), e23: (t^2-t^2+1,0)} }",
        "ring: Z[s,t] x Z[t]\ngenerators: { b: {e12: (s*t+t*s,t)}, c: {e23: (0,t^2)} }",
        "ring: Z x Z\ngenerators: { b: {e12: (t,1)} }",
        "ring: Z x Z\ngenerators: { b: {e12: (1,2,3)} }",
        "ring: Z\ngenerators: { b: {e12: 1, e12: 2} }",
        "ring: Z\ngenerators: { b: {e13: 10^4000*10^4000} }",
        "ring: Z\ngenerators: { b: {e13: %s} }" % "*".join(["9" * 640] * 7),
    ]
    raised = 0
    for text in texts:
        read, oracle = config_readings(text)
        assert read == oracle, text
        raised += isinstance(read[0], str)
    assert raised == 6


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


# ---------------------------------------------------------------------------
# Generating-set invariance

_MOVES = ("reverse", "shift", "invert", "product", "commutator")


def _answers(rep):
    """The status and method of lame, tau, sigma and nzct at bound 1, and
    the C-rank; each witness rechecked as matrices by ``_assert_witness``."""
    out = {}
    for name, check in (("lame", lame_check), ("tau", tau_check), ("sigma", sigma_check)):
        v = check(rep)
        _assert_witness(rep, name, v.witness)
        out[name] = v.status, v.method
    v = nzct_check(rep, 1)
    if v.witness is not None:
        _assert_nzct_witness(v.witness)
    out["nzct"] = v.status, v.method
    out["crank"] = c_rank(rep)
    return out


def _assert_witness(rep, name, w):
    if w is None:
        return
    g1, g2 = a1(rep.ring), a2(rep.ring)
    if name == "lame":
        g, entry = matrix(rep.ring, w.element), rings.from_terms(rep.ring, w.entry)
        assert g.comm(g1 if w.centralizer == 1 else g2).is_identity() and not g.is_central()
        assert entry == (g.u23 if w.centralizer == 1 else g.u12)
        assert is_zero_divisor(entry) and not entry.parts[w.dead_component]
    elif name == "tau":
        y, x = matrix(rep.ring, w.y), matrix(rep.ring, w.x)
        assert y.comm(x).is_identity() and g2.comm(y).is_identity() and x.comm(g1).is_identity()
        assert not y.comm(g1).is_identity() and not g2.comm(x).is_identity()
    else:
        assert rings.from_terms(rep.ring, w.value) in pair_dets(rep)
        assert (solve_S if w.system == "S" else solve_T)(rep, w.value) is None


def _permute_components(rep, perm):
    """rep over the ring with its components in the order ``perm``."""
    ring = rings.RingDesc(tuple(rep.ring.components[k] for k in perm))

    def move(x):
        return RingElem(ring, tuple(x.parts[k] for k in perm))

    extra = {n: UT3Elem(ring, *map(move, (g.u12, g.u13, g.u23))) for n, g in rep.generators[2:]}
    return representation(ring, extra, rep.full_center)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_verdicts_do_not_depend_on_the_generating_set(seed, data):
    """Lame, tau, sigma, NZCT and the C-rank are properties of the subgroup.
    Moves that keep it: the extra generators reversed, g -> g*a1*a2^-1,
    g -> g^-1, a redundant product added, and [a1,a2] added.  They keep A
    and its frames, so even the bounded NZCT box is the same, and every
    status and method agrees; witnesses may differ, and each passes its
    matrix check.  A permutation of the ring's components reorders the
    frames and so A's basis: there the exact answers agree, and the
    bounded NZCT answer may turn inconclusive but never contradicts."""
    rep = random_representation(random.Random(seed))
    g1, g2 = a1(rep.ring), a2(rep.ring)
    extra = [g for _, g in rep.generators[2:]]
    draw = data.draw
    for move in draw(st.lists(st.sampled_from(_MOVES), min_size=1, max_size=4)):
        gens = [g1, g2, *extra]
        if move == "reverse":
            extra.reverse()
        elif move == "commutator":
            extra.append(g1.comm(g2))
        elif move == "product":
            extra.append(draw(st.sampled_from(gens)) * draw(st.sampled_from(gens)))
        elif extra:
            k = draw(st.integers(0, len(extra) - 1))
            extra[k] = extra[k] * g1 * g2.inv() if move == "shift" else extra[k].inv()
    variant = representation(rep.ring, {f"h{k}": g for k, g in enumerate(extra)}, rep.full_center)
    want = _answers(rep)
    assert _answers(variant) == want
    perm = draw(st.permutations(range(rep.ring.ncomponents)))
    got = _answers(_permute_components(variant, perm))
    nzct, want_nzct = got.pop("nzct"), want.pop("nzct")
    assert got == want
    statuses = {nzct[0], want_nzct[0]}
    assert nzct == want_nzct or statuses == {"inconclusive", "violated"}
