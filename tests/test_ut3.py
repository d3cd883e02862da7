"""Tests for the unitriangular group, against a full 3x3 matrix oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corpus, oracle_mul, random_ut3, refute_by_brute_force, ut3_env
from heislab import cli, ut3
from heislab.formula import builtin, parse, refute_universal
from heislab.rings import RingElem, RingMismatchError, Z, parse_ring
from heislab.ut3 import UT3Elem, a1, a2, elem, identity

ZZ = parse_ring("Z x Z")
ZTH = parse_ring("Z[theta]")


def test_generator_entries():
    g1 = a1(Z)
    g2 = a2(Z)
    assert (g1.u12.is_zero(), g1.u13.is_zero(), g1.u23.is_zero()) == (True, True, False)
    assert g1.u23 == RingElem.one(Z)
    assert g2.u12 == RingElem.one(Z)
    assert g2.u13.is_zero() and g2.u23.is_zero()


def test_mul_matches_oracle_random():
    rng = random.Random(0)
    for ring in [Z, ZZ, ZTH]:
        for _ in range(60):
            g = random_ut3(rng, ring)
            h = random_ut3(rng, ring)
            assert g * h == oracle_mul(g, h)


def test_inverse():
    rng = random.Random(1)
    for ring in [Z, ZZ, ZTH]:
        for _ in range(30):
            g = random_ut3(rng, ring)
            assert (g * g.inv()).is_identity()
            assert (g.inv() * g).is_identity()


def test_commutator_closed_form():
    rng = random.Random(2)
    for ring in [Z, ZZ, ZTH]:
        for _ in range(30):
            g = random_ut3(rng, ring)
            h = random_ut3(rng, ring)
            direct = g.inv() * h.inv() * g * h
            assert g.comm(h) == direct
            assert g.comm(h).is_central()


def test_commutator_of_generators():
    c = a2(Z).comm(a1(Z))
    assert c.u12.is_zero() and c.u23.is_zero()
    assert c.u13 == RingElem.one(Z)


def test_pow_int():
    rng = random.Random(3)
    for _ in range(20):
        g = random_ut3(rng, Z)
        acc = identity(Z)
        for n in range(7):
            assert g.pow_int(n) == acc
            acc = acc * g
        assert g.pow_int(-3) == g.inv().pow_int(3)
    assert a1(Z).pow_int(0).is_identity()


def test_centrality_predicates():
    c = a2(Z).comm(a1(Z))
    assert c.is_central()
    assert not a1(Z).is_central()


def test_central_elements_commute_with_everything():
    rng = random.Random(4)
    z = elem(Z, 0, 5, 0)
    for _ in range(20):
        g = random_ut3(rng, Z)
        assert (z * g) == (g * z)


def test_elem_coercion():
    g = elem(ZZ, "(1,0)", 0, 2)
    assert g.u12 == RingElem.idempotent(ZZ, 0)
    assert g.u23 == RingElem.integer(ZZ, 2)
    with pytest.raises(RingMismatchError):
        UT3Elem(Z, RingElem.one(ZZ), RingElem.zero(Z), RingElem.zero(Z))


def test_str_format():
    assert str(a1(Z)) == "{e12: 0, e13: 0, e23: 1}"


def test_associativity_random():
    rng = random.Random(5)
    for _ in range(30):
        g, h, k = (random_ut3(rng, ZZ) for _ in range(3))
        assert (g * h) * k == g * (h * k)


def test_heisenberg_presentation_relations():
    # [a2,a1] is central and a1,a2 generate a class-2 group
    g1, g2 = a1(Z), a2(Z)
    c = g2.comm(g1)
    assert c.comm(g1).is_identity()
    assert c.comm(g2).is_identity()
    assert not c.is_identity()


# ---------------------------------------------------------------------------
# The integer class-2 law against UT3Elem arithmetic

LAW_REPS = [cli.fixture(name) for name in sorted(cli.FIXTURES)] + corpus(40, seed=71)


def _word(env, word):
    """prod g_k^e over (k, e) pairs, with g_k the k-th generator of env."""
    law = env.law
    out = law.identity
    for k, e in word:
        out = law.mul(out, law.pow_int(env.generators[k % len(env.generators)][1], e))
    return out


_words = st.lists(st.tuples(st.integers(0, 6), st.integers(-3, 3)), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, len(LAW_REPS) - 1), u=_words, w=_words, n=st.integers(-4, 4)
)
def test_class2_law_matches_ut3(k, u, w, n):
    rep = LAW_REPS[k]
    law, env, oracle = rep.law, rep.env(), ut3_env(rep)
    x, y = _word(env, u), _word(env, w)
    gx, gy = _word(oracle, u), _word(oracle, w)
    assert rep.to_ut3(x) == gx and rep.to_ut3(y) == gy
    assert rep.to_ut3(law.mul(x, y)) == gx * gy
    assert rep.to_ut3(law.inv(x)) == gx.inv()
    assert rep.to_ut3(law.pow_int(x, n)) == gx.pow_int(n)
    assert rep.to_ut3(law.comm(x, y)) == gx.comm(gy)
    assert rep.element(gx) == x
    # x*y == y*x exactly when x and y commute
    xy, yx = law.mul(x, y), law.mul(y, x)
    for a, b, ga, gb in ((x, y, gx, gy), (xy, yx, gx * gy, gy * gx)):
        assert (a == b) == (ga == gb)
        assert (a != b) == (ga != gb)
        if a == b:
            assert hash(a) == hash(b)


@pytest.mark.parametrize("k", range(len(LAW_REPS)))
def test_class2_ball_matches_ut3(k):
    rep = LAW_REPS[k]
    env, oracle = rep.env(), ut3_env(rep)
    for bound in range(4):
        ball, expected = env.ball(bound), oracle.ball(bound)
        assert [w for _, w in ball] == [w for _, w in expected]
        assert [rep.to_ut3(e) for e, _ in ball] == [g for g, _ in expected]
        # coset_key gives both element types the same center classes, and
        # the class walk the same first element of each
        pairs, _ = env.class_ball(bound)
        assert [(rep.to_ut3(e), w) for e, w in pairs] == oracle.class_ball(bound)[0]


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, len(LAW_REPS) - 1), u=_words, w=_words)
def test_right_mul_matches_mul(k, u, w):
    # the ball's per-letter step keeps only the table rows where g is nonzero
    env = LAW_REPS[k].env()
    law = env.law
    x, g = _word(env, u), _word(env, w)
    assert law.right_mul(g)(x) == law.mul(x, g)


SEARCH_FIXTURES = [cli.fixture(name) for name in sorted(cli.FIXTURES)]
SEARCH_REPS = SEARCH_FIXTURES + corpus(20, seed=0)
SEARCH_SENTENCES = (
    "NZCT", "tau", "CT(0)", "CT(1)", "centralizer_qi", "torsion_free_qi(2)", "zero_sq_qi",
    # a pin with net exponent -1 and constants on both sides, and rows
    # with constant sides
    "forall x,y ( y^-1*a1=a2*x & [x,a1]=1 -> [y,a2]=1 )",
)


@pytest.mark.parametrize("k", range(len(SEARCH_REPS)))
def test_search_on_the_law_matches_ut3(k):
    # the whole bounded search on integer tuples, against the matrices
    # through conftest.ElementLaw, whose coset keys are pairs of ring
    # elements.  At bound 1, and at bound 2 on the fixtures, the matrices
    # run the brute force (no rows, pins or blind variables), so a fault of
    # the search shows too; at the larger bounds, where the brute force
    # over matrices is too slow, they run the same search
    rep = SEARCH_REPS[k]
    env, oracle = rep.env(), ut3_env(rep)
    fixture = k < len(SEARCH_FIXTURES)
    for name in SEARCH_SENTENCES:
        sentence = parse(name) if name.startswith("forall") else builtin(name)
        for bound in (1, 2, 3) if fixture else (1, 2):
            got = refute_universal(sentence, env, bound)
            if bound <= (2 if fixture else 1):
                want = refute_by_brute_force(sentence, oracle, bound)
            else:
                want = refute_universal(sentence, oracle, bound)
            assert got.status == want.status, (name, bound)
            words = [v.witness and v.witness.words for v in (got, want)]
            assert words[0] == words[1], (name, bound)


def test_class2_law_frames():
    rep = cli.fixture("tau-fails-zxz")  # Y = (1,0) in e12, X = (0,1) in e23
    law = rep.law
    assert rep.f12 == rep.f23 == rep.f13 == ((0, ()), (1, ()))
    assert sorted(law.table) == [(0, 2, 4), (1, 3, 5)]
    env = rep.env()
    assert env.constants["Y"] == (1, 0, 0, 0, 0, 0)
    assert env.identity == (0,) * 6
    # a1 = e23 one, a2 = e12 one: [a2, a1] is the central (1,1) in e13
    assert law.comm(env.constants["a2"], env.constants["a1"]) == (0, 0, 0, 0, 1, 1)


def test_class2_law_rejects_mixed_groups():
    law = cli.fixture("heisenberg").law
    x = cli.fixture("heisenberg").env().constants["a1"]
    y = cli.fixture("tau-fails-zxz").env().constants["a1"]
    with pytest.raises(RingMismatchError):
        law.mul(x, y)
    with pytest.raises(RingMismatchError):
        law.comm(x, y)
    assert x != y
    # two parses of one config give equal laws
    assert x == cli.fixture("heisenberg").env().constants["a1"]


def test_class2_law_element_outside_frames():
    rep = cli.fixture("heisenberg")
    with pytest.raises(ValueError, match="outside the frames"):
        rep.element(elem(ZTH, 0, 0, "theta"))
