"""Tests for exact product-ring arithmetic, retractions, and discrimination."""

import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import is_zero_divisor, nonvanishing_point_oracle, separate
from heislab import reprs, rings
from heislab.rings import (
    DomainFailure,
    Retraction,
    RingElem,
    RingMismatchError,
    RingParseError,
    Z,
    discriminate,
    format_elem,
    nonvanishing_point,
    parse_elem,
    parse_ring,
    retract,
    substitute,
    terms_of,
)

ZZ = parse_ring("Z x Z")
ZTH = parse_ring("Z[theta]")
ZZ3 = parse_ring("Z^3")
ZXY = parse_ring("Z[x,y]")
ZT2 = parse_ring("Z[t] x Z[t]")


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


def test_parse_ring_component_cap():
    cap = rings.MAX_COMPONENTS
    assert parse_ring(f"Z^{cap}").ncomponents == cap
    assert parse_ring(f"Z[t] x Z^{cap - 1}").ncomponents == cap
    for text in (f"Z^{cap + 1}", "Z^100000000", f"Z^{cap} x Z[t]", f"Z^600 x Z^{cap - 599}"):
        t0 = time.perf_counter()
        with pytest.raises(RingParseError, match=f"^ring has more than {cap} components$"):
            parse_ring(text)
        assert time.perf_counter() - t0 < 0.5


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


@pytest.mark.parametrize("text", ["theta^a", "theta^-1", "theta^", "(theta+1)^theta", "2^x"])
def test_parse_elem_bad_exponent(text):
    with pytest.raises(RingParseError):
        parse_elem(ZTH, text)


def test_parse_elem_nesting_limit():
    def nested(n):
        return "(" * n + "theta+1" + ")" * n

    theta_plus_1 = RingElem.var(ZTH, "theta") + RingElem.one(ZTH)
    assert parse_elem(ZTH, nested(rings.MAX_DEPTH)) == theta_plus_1
    for n in (rings.MAX_DEPTH + 1, 3000):
        with pytest.raises(RingParseError, match=f"nested deeper than {rings.MAX_DEPTH} levels"):
            parse_elem(ZTH, nested(n))


@pytest.mark.parametrize(
    "ring, text, message",
    [
        ("Z[t] x Z[s]", "t+s", "'s' is not an indeterminate of component 1"),
        ("Z[t] x Z[s]", "(t,t)", "'t' is not an indeterminate of component 2"),
        ("Z[t] x Z[s]", "(t,s s)", "trailing tokens in component 2"),
        ("Z[t] x Z[t]", "t t", "trailing tokens in expression"),
        ("Z[t] x Z[t]", "t)", "trailing tokens in expression"),
        ("Z[t] x Z", "(t,)", "unexpected end of expression"),
        ("Z x Z", "(1,2,3)", "tuple has 3 entries, ring has 2 components"),
        ("Z x Z", "1 $", "bad character at ' $'"),
        ("Z x Z", "2^t", "expected a non-negative integer exponent, got 't'"),
        ("Z x Z", "(" * 101 + "1" + ")" * 101, "parentheses nested deeper than 100 levels"),
    ],
)
def test_parse_elem_error_messages(ring, text, message):
    with pytest.raises(RingParseError) as err:
        parse_elem(parse_ring(ring), text)
    assert str(err.value) == message


def test_parse_elem_ignores_blanks_around_the_literal():
    for text in ("1 ", " 1", " 1 ", "1\t\n"):
        assert parse_elem(ZZ, text) == RingElem.one(ZZ)
    assert parse_elem(ZZ, " (1, 2) ") == parse_elem(ZZ, "(1,2)")


@pytest.mark.parametrize(
    "parse, text",
    [
        (lambda text: parse_elem(ZZ, text), "1" * 5000),
        (lambda text: parse_elem(ZZ, text), "(1," + "2" * 5000 + ")"),
        (lambda text: parse_elem(ZZ, text), "2^" + "3" * 5000),
        (parse_ring, "Z^" + "1" * 5000),
    ],
    ids=["bare", "tuple", "exponent", "ring"],
)
def test_literal_past_the_digit_limit_is_a_parse_error(parse, text):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(RingParseError, match="integer literal of 5000 digits is too long"):
        parse(text)
    assert sys.get_int_max_str_digits() == limit


def test_power_past_the_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    assert parse_elem(Z, "10^4299") == parse_elem(Z, "1" + "0" * 4299)
    for text in ("10^4300", "3^100000000", "(-2*t)^20000"):
        start = time.process_time()
        with pytest.raises(RingParseError, match="has more than 4300 digits"):
            parse_elem(parse_ring("Z[t]"), text)
        assert time.process_time() - start < 0.5
    t = parse_elem(parse_ring("Z[t]"), "t^999999999")
    assert t.parts == ((((999999999,), 1),),)
    assert parse_elem(Z, "(-1)^7") == RingElem.integer(Z, -1)
    assert sys.get_int_max_str_digits() == limit


def test_product_or_sum_past_the_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    seven = "*".join(["9" * 640] * 7)  # a flat product of 4480 digits
    ZT = parse_ring("Z x Z[t]")
    too_long = [
        (Z, "10^4000*10^4000"),
        (Z, "9*10^4299+9*10^4299"),
        (Z, seven),
        (Z, f"({seven})"),
        (ZT, f"(1,-{seven}*t)"),
        (ZT, "(1,(t+10^2200)^2)"),
    ]
    for ring, text in too_long:
        # the flat reader, the term reader and the recursive descent alike
        for parse in (parse_elem, rings.parse_terms, rings._parse_tokens):
            start = time.process_time()
            with pytest.raises(RingParseError, match=f"^coefficient has more than {limit} digits$"):
                parse(ring, text)
            assert time.process_time() - start < 0.5
    # each product and each whole sum is checked, not a partial sum
    for parse in (rings.parse_terms, rings._parse_tokens):
        assert parse(Z, "9*10^4299+9*10^4299-9*10^4299") == {(0, ()): 9 * 10**4299}
        assert parse(Z, seven + "*0") == {}
    with pytest.raises(reprs.ConfigError, match=f"^generator 'b': coefficient has more than {limit} digits$"):
        reprs.parse_config(f"ring: Z\ngenerators: {{ b: {{e13: {seven}}} }}")
    # with no limit nothing is checked
    sys.set_int_max_str_digits(0)
    try:
        assert parse_elem(Z, "10^4000*10^4000") == RingElem.integer(Z, 10**8000)
        assert rings.parse_terms(Z, seven) == {(0, ()): int("9" * 640) ** 7}
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("k", [1, 8, 32])
def test_bare_literal_is_the_tuple_of_its_copies(k):
    ring = parse_ring(" x ".join(["Z[t]"] * k))
    expr = "-(t+1)^3*t+2*t^2-5"
    assert parse_elem(ring, expr) == parse_elem(ring, "(" + ",".join([expr] * k) + ")")


def test_bare_literal_parses_once_per_list_of_indeterminates(monkeypatch):
    # a flat literal is read by _flat_poly, any other by _ExprParser; on
    # either path a bare literal is parsed once per distinct list of
    # indeterminates
    built = []

    class Counting(rings._ExprParser):
        def __init__(self, *args):
            built.append(("descent", *args[1:]))
            super().__init__(*args)

    flat_poly = rings._flat_poly

    def counting_flat_poly(text, names):
        built.append(("flat", names))
        return flat_poly(text, names)

    monkeypatch.setattr(rings, "_ExprParser", Counting)
    monkeypatch.setattr(rings, "_flat_poly", counting_flat_poly)
    ring32 = parse_ring(" x ".join(["Z[t]"] * 32))
    parse_elem(ring32, "+".join(["t*t"] * 50))
    assert built == [("flat", ("t",))]
    built.clear()
    parse_elem(ring32, "+".join(["t*(t)"] * 50))
    assert built == [("descent", ("t",), 0)]
    built.clear()
    ring = parse_ring("Z x Z[t] x Z x Z[t] x Z[s,t]")
    parse_elem(ring, "2")
    assert built == [("flat", ()), ("flat", ("t",)), ("flat", ("s", "t"))]
    built.clear()
    parse_elem(ring, "(2)")
    assert built == [("descent", (), 0), ("descent", ("t",), 1), ("descent", ("s", "t"), 4)]


def _parse_outcome(parse, ring, text):
    try:
        return parse(ring, text)
    except RingParseError as exc:
        return f"RingParseError: {exc}"


# Rings whose components share, miss and repeat indeterminates.
LITERAL_RINGS = ["Z", "Z^2", "Z[t]", "Z[t] x Z", "Z[s,t] x Z[t]", "Z[s] x Z[t] x Z"]


@st.composite
def element_literals(draw):
    """A ring of LITERAL_RINGS and an element literal, mostly valid for it.
    Half are flat (see rings._FLAT), with integers of up to 4301 digits and
    leading zeros; the others add parentheses, powers of groups and of
    integers, and blanks between tokens.  Some name a foreign indeterminate
    or have the wrong number of entries."""
    ring = parse_ring(draw(st.sampled_from(LITERAL_RINGS)))
    flat = draw(st.booleans())
    # one literal in ten may name x1, an indeterminate of no ring above
    foreign = ("x1",) if draw(st.integers(0, 9)) == 0 else ()

    def integer():
        first = draw(st.sampled_from("0123456789"))
        return first + "7" * (draw(st.sampled_from([1] * 12 + [2, 640, 641, 4301])) - 1)

    def factor(names, depth):
        kinds = ["int"] + ["name", "power"] * bool(names) + ["group", "intpower"] * (not flat)
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            return [integer()]
        if kind == "name":
            return [draw(st.sampled_from(names))]
        if kind == "power":  # a monomial power, cheap at any exponent
            return [draw(st.sampled_from(names)), "^", integer()]
        group = kind == "group" and depth < 2
        base = ["(", *expression(names, depth + 1), ")"] if group else [integer()]
        return [*base, "^", str(draw(st.integers(0, 3)))]

    def expression(names, depth=0):
        names = sorted({*names, *foreign})
        tokens = ["-"] if draw(st.booleans()) else []
        tokens += factor(names, depth)
        for _ in range(draw(st.integers(0, 3))):
            tokens += [draw(st.sampled_from("+-*")), *factor(names, depth)]
        return tokens

    entries = draw(st.sampled_from([0] * 3 + [ring.ncomponents] * 6 + [1, 2, 3]))
    if entries == 0:  # a bare literal, in the names every component has
        tokens = expression(set.intersection(*map(set, ring.components)))
    else:
        tokens = ["("]
        for k in range(entries):
            names = ring.components[k] if k < ring.ncomponents else ()
            tokens += ([","] if k else []) + expression(names)
        tokens.append(")")
    if not flat:
        blanks = draw(st.lists(st.sampled_from(["", "", " "]), min_size=len(tokens), max_size=len(tokens)))
        tokens = [b + t for b, t in zip(blanks, tokens)]
    return ring, "".join(tokens)


@settings(max_examples=400, deadline=None)
@given(element_literals())
@example((parse_ring("Z[t] x Z"), "(2*t^2-t,-3)"))
@example((parse_ring("Z[s,t] x Z[t]"), "s*t+1"))
@example((Z, "1" * 4301))
@example((ZZ, "(0" + "1" * 640 + ",1)"))
@example((ZTH, "theta^0-007*theta*theta"))
def test_flat_literals_parse_as_the_recursive_descent_does(case):
    ring, text = case
    descent = _parse_outcome(rings._parse_tokens, ring, text)
    terms = rings._flat_terms(ring, text)
    if terms is not None:
        assert terms == descent
    assert _parse_outcome(rings.parse_terms, ring, text) == descent


def test_flat_literals_take_the_one_pass_path():
    ring = parse_ring("Z[s,t] x Z[t] x Z")
    for text in ["(s*t^2-3*t+1,t-t,7)", "1", "-2*3+4", "(0,0,0)", "(1" + "0" * 639 + ",t^9,-1)"]:
        assert rings._flat_terms(ring, text) == rings._parse_tokens(ring, text)
    # blanks, parentheses, foreign names, a wrong entry count and a
    # 641-digit run all take the recursive descent
    for text in ["1 ", "(t)", "s", "(1,2)", "(t+1)^2", "2^2", "1" * 641]:
        assert rings._flat_terms(ring, text) is None


def test_zeroth_power_is_one_in_its_own_component():
    # each component parses to its own polynomial: x^0 is 1 there and adds
    # nothing to the other components
    ring = parse_ring("Z[t] x Z")
    assert parse_elem(ring, "(t^0,5)") == parse_elem(ring, "(1,5)")
    assert parse_elem(ring, "(1,(2-2)^0)") == RingElem.one(ring)
    assert parse_elem(ZZ3, "2^0") == RingElem.one(ZZ3)


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
@given(_elems(ZT2), st.integers(0, 20))
def test_pow_is_repeated_product(a, n):
    out = RingElem.one(ZT2)
    for _ in range(n):
        out = out * a
    assert a**n == out


def test_parse_huge_monomial_power_is_fast():
    ring = parse_ring("Z[t]")
    t0 = time.perf_counter()
    x = parse_elem(ring, "t^999999999")
    assert time.perf_counter() - t0 < 0.5
    assert x.parts == ((((999999999,), 1),),)


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


def _degree(r, name):
    degrees = [
        e[names.index(name)]
        for names, p in zip(r.ring.components, r.parts)
        if name in names
        for e, _ in p
    ]
    return max(degrees, default=0)


def _all_alive(groups, point):
    """Whether every group keeps a nonzero element under the substitution."""
    for group in groups:
        for name, value in point.items():
            group = [substitute(r, name, value) for r in group]
        if all(r.is_zero() for r in group):
            return False
    return True


@pytest.mark.parametrize("ring", [ZXY, ZT2, ZZ], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nonvanishing_point_properties(ring, data):
    group = st.lists(_elems(ring), min_size=1, max_size=3).filter(
        lambda g: any(not r.is_zero() for r in g)
    )
    groups = data.draw(st.lists(group, min_size=1, max_size=4))
    start = data.draw(st.integers(-2, 2))
    names = ring.components[0]
    point = nonvanishing_point(terms_of(groups, names), names, start)
    assert list(point) == list(names)
    assert _all_alive(groups, point)
    for k, name in enumerate(names):
        bad = sum(max(_degree(r, name) for r in g) for g in groups)
        assert start <= point[name] <= start + bad
        # least valid value given the earlier names: with one name, the least
        # valid value outright (big-powers minimality)
        earlier = {n: point[n] for n in names[:k]}
        for value in range(start, point[name]):
            assert not _all_alive(groups, {**earlier, name: value})


def test_terms_of_indexes_names_first():
    # names[i] is index i in every component; a component's other
    # indeterminates come after the names, in their component order
    ring = parse_ring("Z[t,s] x Z[u]")
    (r,), (zero,) = terms_of([[parse_elem(ring, "(t*s^2+3, 2*u)")], [RingElem.zero(ring)]], ["s"])
    assert r == {(0, ((0, 2), (1, 1))): 1, (0, ()): 3, (1, ((1, 1),)): 2}
    assert zero == {}


def test_nonvanishing_point_rejects_dead_group():
    with pytest.raises(ValueError):
        nonvanishing_point(terms_of([[RingElem.zero(ZTH)]], ["theta"]), ["theta"])


# Ring shapes for the kernel's differential test: no indeterminate, one
# component without the name, names spread over components, one name in
# two components.
SLICE_RINGS = [parse_ring(t) for t in ("Z x Z", "Z[t] x Z", "Z[t,s] x Z[u]", "Z[t] x Z[t]")]


def _shaped_elems(ring):
    """Elements with up to three terms per component, each component in
    its own indeterminates."""

    def poly(names):
        monomial = st.tuples(*[st.integers(0, 3) for _ in names])
        return st.dictionaries(monomial, st.integers(-4, 4), max_size=3).map(
            lambda d: tuple(sorted((e, c) for e, c in d.items() if c))
        )

    return st.tuples(*[poly(names) for names in ring.components]).map(
        lambda parts: RingElem(ring, parts)
    )


def _vanishing_factor(ring, name, factors):
    """The product of c*name - b over the (c, b) in ``factors`` in each
    component that carries name, and 0 in every other component: it dies
    at each integer b/c, and a factor with c not dividing b dies nowhere."""
    out = RingElem.one(ring)
    for c, b in factors:
        parts = []
        for names in ring.components:
            zero = (0,) * len(names)
            if name not in names:
                parts.append(())
                continue
            x = tuple(int(n == name) for n in names)
            parts.append(((zero, -b), (x, c)) if b else ((x, c),))
        out = out * RingElem(ring, tuple(parts))
    return out


@st.composite
def _factor(draw, start):
    """(c, b) for a factor c*x - b: (x - a) or a scaled c*(x - a) with a
    root a from ``start`` on, or c*x - b with no integer root."""
    a = draw(st.integers(start, start + 3))
    kind = draw(st.sampled_from(["root", "scaled", "rootless"]))
    if kind == "root":
        return 1, a
    c = draw(st.sampled_from([-3, -2, 2, 3]))
    if kind == "scaled":
        return c, c * a
    return c, c * a + draw(st.integers(1, abs(c) - 1))


@st.composite
def _killable_groups(draw, ring, names, start):
    """Groups of one to three elements, at least one nonzero; an element
    is often a random one times a factor that dies at several values of
    one of the names from ``start`` on."""

    def element():
        r = draw(_shaped_elems(ring))
        carried = [n for n in names if any(n in c for c in ring.components)]
        if carried and draw(st.booleans()):
            name = draw(st.sampled_from(carried))
            factors = draw(st.lists(_factor(start), min_size=1, max_size=3))
            factor = _vanishing_factor(ring, name, factors)
            r = factor if r.is_zero() else r * factor
        return r

    groups = []
    for _ in range(draw(st.integers(1, 4))):
        group = [element() for _ in range(draw(st.integers(1, 3)))]
        if all(r.is_zero() for r in group):
            group.append(RingElem.one(ring))
        groups.append(group)
    return groups


@pytest.mark.parametrize("ring", SLICE_RINGS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_nonvanishing_point_matches_trial_substitution(ring, data):
    # several names in any order, sometimes one that no component carries
    names = [n for c in ring.components for n in c]
    names = data.draw(st.permutations(list(dict.fromkeys(names)) + ["v"]))
    names = names[: data.draw(st.integers(1, len(names)))]
    start = data.draw(st.integers(-3, 1))
    groups = data.draw(_killable_groups(ring, names, start))
    assert nonvanishing_point(terms_of(groups, names), names, start) == nonvanishing_point_oracle(
        groups, names, start
    )


def test_nonvanishing_point_skips_several_dead_values():
    # each name has values that kill a group, the second only after the
    # first is substituted: t=0,1 kill t*(t-1), then s=0,2 kill s*(s-2)+t-2
    ring = parse_ring("Z[t,s] x Z[u]")
    t, s = (parse_elem(ring, f"({x}, 0)") for x in "ts")
    two = RingElem.integer(ring, 2) * RingElem.idempotent(ring, 0)
    groups = [[t * (t - RingElem.idempotent(ring, 0))], [s * (s - two) + t - two]]
    for start in (0, 1):
        want = nonvanishing_point_oracle(groups, ["t", "s"], start)
        assert nonvanishing_point(terms_of(groups, ["t", "s"]), ["t", "s"], start) == want
    assert want == {"t": 2, "s": 1}


BIG = 10**39 + 7  # 40 digits


@pytest.mark.parametrize(
    "groups, start, want",
    [
        # two roots in the window: each start in turn
        *(([["(theta-2)*(theta-5)"]], s, w) for s, w in zip(range(1, 7), (1, 3, 3, 4, 6, 6))),
        # a scaled line with an integer root, and one without
        ([["2*theta-6"], ["2*theta-3"]], 3, 4),
        ([["2*theta-6", "2*theta-3"]], 3, 3),
        ([["2*theta-3"]], 1, 1),
        # the constant term 0: the roots 0 and -1
        ([["theta^2*(theta+1)"]], -1, 1),
        # roots far outside the window [start, start + D]
        ([[f"(theta-{BIG})*(theta-1)"]], 1, 2),
        ([[f"theta-{BIG}"], [f"theta^2-{BIG}*theta"]], 0, 1),
        ([[f"(theta-1)*(theta-{BIG})"], [f"(theta-2)*(theta+{BIG})"]], 1, 3),
    ],
)
def test_nonvanishing_point_fixed_cases(groups, start, want):
    groups = [[parse_elem(ZTH, r) for r in group] for group in groups]
    names = ["theta"]
    got = nonvanishing_point(terms_of(groups, names), names, start)
    assert got == nonvanishing_point_oracle(groups, names, start) == {"theta": want}


def test_nonvanishing_point_least_slice_roots_need_every_slice():
    # in t, r = (t - 1) + s*(t - 2)*(t - 3) has the slices t - 1 and
    # (t - 2)*(t - 3); the least one dies at 1, where the other does not.
    # With (t - 2) + s*(t - 2)*(t - 4) the least one's root 2 is shared,
    # and the group [t] dies at the start 0.
    ring = parse_ring("Z[t,s]")
    r, q, t = (parse_elem(ring, x) for x in ("t-1+s*(t-2)*(t-3)", "t-2+s*(t-2)*(t-4)", "t"))
    cases = (([[r]], 1, 1), ([[r], [t]], 0, 1), ([[q]], 2, 3), ([[r], [q]], 1, 1), ([[r], [q], [t]], 0, 1))
    for groups, start, want in cases:
        got = nonvanishing_point(terms_of(groups, ["t"]), ["t"], start)
        assert got == nonvanishing_point_oracle(groups, ["t"], start) == {"t": want}


class _Counted(int):
    """An int that counts the remainders taken of it in ``taken``."""

    taken = []

    def __mod__(self, other):
        self.taken.append(other)
        return int(self) % other


@pytest.mark.parametrize("k", [40, 200])
def test_nonvanishing_point_work_on_curves_is_linear(monkeypatch, k):
    # the groups j*(theta^2 + M), j = 1, ..., k, never die, and theta - 1
    # kills the start 1, so the value is 2.  Only the values the walk
    # reaches are tested against a curve's lowest coefficient: the line
    # rules 1 out first, and at 2 each curve takes one remainder and, where
    # 2 divides it, one Horner call.  Testing every value of the window
    # [start, start + D], D = 2k + 1, would take about 2k^2 remainders.
    M = 10**6 + 1
    curves = [[{(0, ()): _Counted(j * M), (0, ((0, 2),)): _Counted(j)}] for j in range(1, k + 1)]
    groups = [*curves, [{(0, ()): -1, (0, ((0, 1),)): 1}]]
    calls = []
    horner = rings._horner
    monkeypatch.setattr(rings, "_horner", lambda *args: calls.append(args) or horner(*args))
    monkeypatch.setattr(_Counted, "taken", [])
    assert nonvanishing_point(groups, ["theta"], 1) == {"theta": 2}
    assert len(_Counted.taken) + len(calls) <= 4 * k
