"""Tests for exact product-ring arithmetic, retractions, and discrimination."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from heislab import rings
from heislab.rings import (
    DomainFailure,
    Retraction,
    RingElem,
    RingMismatchError,
    RingParseError,
    Z,
    discriminate,
    format_elem,
    is_domain,
    is_zero_divisor,
    parse_elem,
    parse_ring,
    retract,
    separate,
)

ZZ = parse_ring("Z x Z")
ZTH = parse_ring("Z[theta]")
ZZ3 = parse_ring("Z^3")


def test_parse_ring_forms():
    assert parse_ring("Z") == Z
    assert parse_ring("Z^2") == ZZ
    assert parse_ring("Z x Z") == ZZ
    assert parse_ring("Z[theta]").components == (("theta",),)
    assert parse_ring("Z[t1,t2] x Z").components == (("t1", "t2"), ())
    with pytest.raises(RingParseError):
        parse_ring("Q")
    with pytest.raises(RingParseError):
        parse_ring("Z^0")


def test_ring_str_roundtrip():
    for text in ["Z", "Z x Z", "Z[theta]", "Z[t1,t2] x Z x Z[u]"]:
        ring = parse_ring(text)
        assert parse_ring(str(ring)) == ring


def test_basic_arithmetic():
    a = RingElem.integer(ZZ, 3)
    b = RingElem.idempotent(ZZ, 0)
    assert (a * b) + (a * (RingElem.one(ZZ) - b)) == a
    assert (b * (RingElem.one(ZZ) - b)).is_zero()  # orthogonal idempotents
    th = RingElem.var(ZTH, "theta")
    assert (th + RingElem.one(ZTH)) * (th - RingElem.one(ZTH)) == th * th - RingElem.one(ZTH)


def test_pow_and_scale():
    th = RingElem.var(ZTH, "theta")
    assert th**3 == th * th * th
    assert th.scale(4) == th + th + th + th
    with pytest.raises(ValueError):
        th ** (-1)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        RingElem.one(Z) + RingElem.one(ZZ)


def test_support_and_zero_divisor():
    e1 = RingElem.idempotent(ZZ, 0)
    assert e1.support == frozenset({0})
    assert is_zero_divisor(e1)
    assert not is_zero_divisor(RingElem.integer(ZZ, 7))
    assert not is_zero_divisor(RingElem.zero(ZZ))
    assert not is_zero_divisor(RingElem.var(ZTH, "theta"))
    assert is_domain(Z) and is_domain(ZTH)
    assert not is_domain(ZZ)


def test_separate_nonzero():
    # a retraction never annihilates the element it separates
    th = RingElem.var(ZTH, "theta")
    rho = separate(th)
    assert retract(rho, th) != 0
    # derived witness: theta -> 1 is the first nonvanishing point
    assert rho == Retraction.of(0, {"theta": 1})


def test_separate_picks_first_component():
    e2 = RingElem.idempotent(ZZ, 1)
    rho = separate(e2)
    assert rho.component == 1
    assert retract(rho, e2) == 1
    with pytest.raises(ValueError):
        separate(RingElem.zero(ZZ))


def test_discriminate_domain():
    th = RingElem.var(ZTH, "theta")
    rho = discriminate([th, th - RingElem.one(ZTH), RingElem.integer(ZTH, 2)])
    assert isinstance(rho, Retraction)
    # theta -> 2 keeps all three nonzero (0 and 1 are roots of the first two)
    assert rho == Retraction.of(0, {"theta": 2})
    for r in [th, th - RingElem.one(ZTH), RingElem.integer(ZTH, 2)]:
        assert retract(rho, r) != 0


def test_discriminate_failure_over_product():
    e1 = RingElem.idempotent(ZZ, 0)
    e2 = RingElem.idempotent(ZZ, 1)
    out = discriminate([e1, e2])
    assert isinstance(out, DomainFailure)
    a, b = out.witness
    assert not a.is_zero() and not b.is_zero() and (a * b).is_zero()


def test_discriminate_succeeds_when_common_component():
    e1 = RingElem.idempotent(ZZ, 0)
    one = RingElem.one(ZZ)
    rho = discriminate([e1, one, e1.scale(3)])
    assert isinstance(rho, Retraction)
    assert rho.component == 0


def test_parse_elem_literals():
    assert parse_elem(ZZ, "(1,0)") == RingElem.idempotent(ZZ, 0)
    assert parse_elem(ZZ, "3") == RingElem.integer(ZZ, 3)
    assert parse_elem(ZTH, "theta^2-2*theta+1") == (
        RingElem.var(ZTH, "theta") - RingElem.one(ZTH)
    ) ** 2
    assert parse_elem(ZZ3, "(1,-2,0)") == RingElem.idempotent(ZZ3, 0) + RingElem.idempotent(
        ZZ3, 1
    ).scale(-2)
    with pytest.raises(RingParseError):
        parse_elem(ZZ, "(1,2,3)")
    with pytest.raises(RingParseError):
        parse_elem(Z, "theta")


def test_format_parse_roundtrip_random():
    rng = random.Random(0)
    from conftest import random_poly_elem

    for ring in [Z, ZZ, ZTH, ZZ3]:
        for _ in range(50):
            x = random_poly_elem(rng, ring)
            assert parse_elem(ring, format_elem(x)) == x


def test_adjoin_and_embed():
    new = rings.adjoin_indeterminate(ZZ, "t")
    assert new.components == (("t",), ("t",))
    x = RingElem.idempotent(ZZ, 0).scale(5)
    y = rings.embed(x, new)
    assert y.ring == new
    assert rings.substitute(RingElem.var(new, "t"), "t", 7) == RingElem.integer(new, 7)
    with pytest.raises(ValueError):
        rings.adjoin_indeterminate(ZTH, "theta")


@pytest.mark.parametrize("name", ["1x", "", "t_1", "a-b", "x y", "theta]"])
def test_adjoin_rejects_names_parse_ring_would_not_read(name):
    with pytest.raises(ValueError, match="bad indeterminate name"):
        rings.adjoin_indeterminate(ZZ, name)


def test_substitute_polynomial():
    th = RingElem.var(ZTH, "theta")
    p = th * th - th.scale(3) + RingElem.integer(ZTH, 2)  # (theta-1)(theta-2)
    assert rings.substitute(p, "theta", 1).is_zero()
    assert rings.substitute(p, "theta", 2).is_zero()
    assert rings.substitute(p, "theta", 3) == RingElem.integer(ZTH, 2)


# ---------------------------------------------------------------------------
# Hypothesis: ring axioms


def _elems(ring):
    monomial = st.tuples(
        *[st.integers(min_value=0, max_value=2) for _ in range(len(ring.components[0]))]
    )
    poly = st.dictionaries(monomial, st.integers(-9, 9), max_size=3).map(
        lambda d: tuple(sorted((e, c) for e, c in d.items() if c))
    )
    return st.tuples(*[poly for _ in ring.components]).map(
        lambda parts: RingElem(ring, parts)
    )


@settings(max_examples=60, deadline=None)
@given(_elems(ZZ), _elems(ZZ), _elems(ZZ))
def test_ring_axioms_product(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RingElem.zero(ZZ) == a
    assert a * RingElem.one(ZZ) == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(_elems(ZTH), _elems(ZTH))
def test_domain_has_no_zero_divisors(a, b):
    if not a.is_zero() and not b.is_zero():
        assert not (a * b).is_zero()


@settings(max_examples=60, deadline=None)
@given(_elems(ZZ))
def test_retraction_is_hom(a):
    rho = Retraction.of(0, {})
    b = RingElem.integer(ZZ, 3) + RingElem.idempotent(ZZ, 1)
    assert retract(rho, a * b) == retract(rho, a) * retract(rho, b)
    assert retract(rho, a + b) == retract(rho, a) + retract(rho, b)
