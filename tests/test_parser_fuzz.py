"""Fuzzing of the text parsers over their token alphabets: any text either
parses and round-trips through the matching printer, or raises the parser's
documented error."""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import config_readings, parse_config_oracle, parse_elem_oracle
from heislab import cli, formula, reprs, rings
from heislab.formula import FormulaParseError
from heislab.rings import RingParseError


def _texts(tokens, max_size=30):
    """Token soup: tokens from the alphabet, each followed by a space or
    by nothing, so neighbouring tokens may also run together."""
    piece = st.tuples(st.sampled_from(tokens), st.sampled_from(["", " "]))
    return st.lists(piece, max_size=max_size).map(lambda ps: "".join(a + b for a, b in ps))


@st.composite
def _mutated(draw, valid, tokens):
    """A valid text with up to three slices replaced by short token soups,
    or a longer token soup."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_texts(tokens))
    text = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(_texts(tokens, max_size=2)) + text[j:]
    return text


FORMULA_TOKENS = [
    "forall", "exists", "x", "y", "z1", "a1", "a2", "g", "0", "1", "2", "12",
    "->", "!=", "@", "(", ")", "[", "]", ",", "=", "|", "&", "~", "*", "^", "-",
]


_terms = st.recursive(
    st.sampled_from([formula.ONE, formula.Var("x"), formula.Var("y"), formula.A1, formula.A2, formula.Const("g")]),
    lambda t: st.one_of(
        st.builds(formula.TMul, t, t),
        st.builds(formula.TPow, t, st.integers(-3, 12)),
        st.builds(formula.TComm, t, t),
    ),
    max_leaves=5,
)
_matrices = st.recursive(
    st.builds(formula.Eq, _terms, _terms) | st.builds(formula.Ne, _terms, _terms),
    lambda f: st.one_of(
        st.builds(formula.Not, f),
        st.builds(formula.And, st.lists(f, min_size=2, max_size=3).map(tuple)),
        st.builds(formula.Or, st.lists(f, min_size=2, max_size=3).map(tuple)),
        st.builds(formula.Implies, f, f),
    ),
    max_leaves=4,
)
_sentences = st.builds(
    lambda kinds, body: _quantify(kinds, body),
    st.lists(st.sampled_from(["forall", "exists"]), max_size=2),
    _matrices,
)


def _quantify(kinds, body):
    for n, kind in enumerate(kinds):
        body = formula.Quant(kind, ("x", "y")[: n + 1], body)
    return body


@settings(max_examples=400, deadline=None)
@given(_mutated(_sentences.map(formula.print_formula), FORMULA_TOKENS))
@example("forall x ( x^-t = 1 )")
@example("a1^--2 = 1")
def test_fuzz_formula_parse(text):
    try:
        f = formula.parse(text)
    except FormulaParseError:
        return
    assert formula.parse(formula.print_formula(f)) == f


@settings(max_examples=400, deadline=None)
@given(_mutated(_terms.map(formula.print_term), FORMULA_TOKENS))
@example("a1^-x2")
def test_fuzz_formula_parse_term(text):
    try:
        t = formula.parse_term(text)
    except FormulaParseError:
        return
    assert formula.parse_term(formula.print_term(t)) == t


# Digits are kept apart by spaces: digit runs would only make exponents
# large, and a power of a dense polynomial costs as much as its output.
ELEM_TOKENS = ["t", "s", "u", " 0 ", " 1 ", " 2 ", " 3 ", "-", "+", "*", "^", "(", ")", ","]
ELEM_RINGS = ["Z", "Z x Z", "Z[t]", "Z[t,s] x Z", "Z[t] x Z[t] x Z"]


@st.composite
def _ring_and_elem(draw, ring=None):
    """A ring from ELEM_RINGS, unless one is given, and the text of one of
    its elements."""
    if ring is None:
        ring = rings.parse_ring(draw(st.sampled_from(ELEM_RINGS)))
    frame = sorted(
        {
            (j, tuple(draw(st.integers(0, 3)) for _ in names))
            for j, names in enumerate(ring.components)
            for _ in range(draw(st.integers(0, 3)))
        }
    )
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(frame), max_size=len(frame)))
    return ring, str(rings.from_frame(ring, frame, coeffs))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzz_parse_elem(data):
    ring, valid = data.draw(_ring_and_elem())
    text = data.draw(_mutated(st.just(valid), ELEM_TOKENS))
    try:
        x = rings.parse_elem(ring, text)
    except RingParseError:
        return
    assert rings.parse_elem(ring, str(x)) == x


def _read(parse, *args):
    """What parse returns, or None where it raises its documented error."""
    try:
        return parse(*args)
    except (reprs.ConfigError, RingParseError):
        return None


@st.composite
def _mutated_elem(draw):
    """A ring and a mutated text of one of its elements."""
    ring, valid = draw(_ring_and_elem())
    return ring, draw(_mutated(st.just(valid), ELEM_TOKENS))


@settings(max_examples=400, deadline=None)
@given(_mutated_elem())
@example((rings.parse_ring("Z x Z"), "(1)"))
@example((rings.parse_ring("Z x Z"), "(1),(2)"))
@example((rings.parse_ring("Z x Z"), "((1,2))"))
@example((rings.parse_ring("Z x Z"), "((1),(2))"))
@example((rings.parse_ring("Z x Z"), "(1,2),"))
@example((rings.parse_ring("Z[t] x Z"), "((t+1)^2,-3)"))
def test_elem_reader_matches_the_bracket_depth_reader(ring_and_text):
    """Wherever either reader accepts a literal, both accept it and agree."""
    ring, text = ring_and_text
    assert _read(rings.parse_elem, ring, text) == _read(parse_elem_oracle, ring, text)


def _outcome(parse, ring, text):
    """What parse returns, or the message of the RingParseError it raises."""
    try:
        return parse(ring, text)
    except RingParseError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(_mutated_elem())
@example((rings.parse_ring("Z[t] x Z"), "((t+1)^2,-3)"))
@example((rings.parse_ring("Z[t]"), "-t^2+3"))
@example((rings.parse_ring("Z x Z"), "(1,2,3)"))
@example((rings.parse_ring("Z"), "10^4000*10^4000"))
@example((rings.parse_ring("Z x Z"), "(1,(2,3))"))
@example((rings.parse_ring("Z x Z"), "(0,(0)"))
@example((rings.parse_ring("Z x Z"), "(1),(2,3)"))
def test_term_reader_matches_parse_elem(ring_and_text):
    """``--z`` and config entries are read by parse_terms and printed by
    format_terms: it accepts exactly what the bracket-depth reader accepts,
    gives the terms of that reader's element and prints what str prints of
    it.  Where both reject a text, they raise the same message, also when a
    comma lies inside an entry's parentheses."""
    ring, text = ring_and_text
    terms, elem = _outcome(rings.parse_terms, ring, text), _outcome(parse_elem_oracle, ring, text)
    if isinstance(elem, tuple):
        assert terms == elem
    else:
        assert terms == rings.frame_terms(elem)
        assert rings.format_terms(ring, terms) == str(elem)


CONFIG_TOKENS = [
    "ring", "full_center", "generators", ":", "{", "}", ",", "\n", "#",
    "Z", " x ", "^", " 2 ", "1001", "[", "]", "t", "true", "false",
    "b", "a1", "e12", "e13", "e23", "(", ")", " 0 ", " 1 ", "-", "+", "*",
]
CONFIG = """\
ring: Z[t] x Z
full_center: false
generators: {
  b: {e12: (t,1), e13: 0, e23: 0},
  c: {e12: 0, e13: 1, e23: (0,2)}
}
"""


@settings(max_examples=400, deadline=None)
@given(_mutated(st.sampled_from([CONFIG] + sorted(cli.FIXTURES.values())), CONFIG_TOKENS))
@example(CONFIG)
@example("ring: Z[t,t]")
@example("ring: Z^1001")
@example("ring: Z^100000000 x Z")
def test_fuzz_parse_config(text):
    try:
        rep = reprs.parse_config(text)
    except (reprs.ConfigError, RingParseError):
        return
    assert reprs.parse_config(reprs.serialize_config(rep)) == rep


@st.composite
def _config_with_blocks(draw):
    """A config whose generator blocks mix entries, blank items and runs of
    separators, with element texts that are valid or mutated."""
    ring_text = draw(st.sampled_from(ELEM_RINGS))
    ring = rings.parse_ring(ring_text)
    blocks = []
    for name in ("b", "c")[: draw(st.integers(0, 2))]:
        items = []
        for key in draw(st.lists(st.sampled_from(["e12", "e13", "e23", ""]), max_size=4)):
            _, value = draw(_ring_and_elem(ring))
            if draw(st.booleans()):
                value = draw(_mutated(st.just(value), ELEM_TOKENS))
            items.append(f"{key}: {value}" if key else "")
            items.append(draw(st.sampled_from(["", ",", ",,", " , ", ",\n", "\n"])))
        blocks.append(f"  {name}: {{{''.join(items)}}}")
    body = ",\n".join(blocks)
    return f"ring: {ring_text}\ngenerators: {{\n{body}\n}}\n"


@settings(max_examples=400, deadline=None)
@given(
    _mutated(st.sampled_from([CONFIG] + sorted(cli.FIXTURES.values())), CONFIG_TOKENS)
    | _mutated(_config_with_blocks(), CONFIG_TOKENS)
)
@example(CONFIG)
@example("ring: Z x Z\ngenerators: { b: {e12: 1 e13: 2} }")
@example("ring: Z x Z\ngenerators: { b: {e12: 1,, e13: 2,} }")
@example("ring: Z x Z\ngenerators: { b: {e12: (1,2), e13: 2, e23: ((1),(2))} }")
@example("ring: Z x Z\ngenerators: { b: {e12: {1}} }")
@example("ring: Z x Z\ngenerators: { b: {e12: 1} {} }")
@example("ring: Z\ngenerators: { b: {e12: 1)} }")
@example("ring: Z\ngenerators: {\xa0}")
@example("ring: Z\ngenerators: {b: {e12: 1},\u2003}")
@example("ring: Z\ngenerators: { , b: {, e12: 1 ,} ,, }")
@example("ring: Z\ngenerators: { b: {1, e12: 1} }")
@example("ring: Z\ngenerators: { b: {e12: 1},, c: {e13: 1} }")
def test_config_reader_matches_the_bracket_depth_reader(text):
    """Wherever either reader accepts a config, both accept it and agree."""
    assert _read(reprs.parse_config, text) == _read(parse_config_oracle, text)


@settings(max_examples=300, deadline=None)
@given(
    _mutated(st.sampled_from([CONFIG] + sorted(cli.FIXTURES.values())), CONFIG_TOKENS)
    | _mutated(_config_with_blocks(), CONFIG_TOKENS)
)
@example(CONFIG)
@example("ring: Z x Z\ngenerators: { b: {e12: (1,2), e13: 2, e23: ((1),(2))} }")
@example("ring: Z[t] x Z\ngenerators: { b: {e12: (t,1), e13: t} }")
@example("ring: Z[t]\ngenerators: { b: {e12: t-t, e23: (t+1)*(t-1)-t^2} }")
def test_config_reader_matches_the_per_entry_reader(text):
    """parse_config's frames, law tuples and matrices are the per-entry
    reader's, or both raise the same exception."""
    read, oracle = config_readings(text)
    assert read == oracle


@pytest.mark.parametrize("text", ["Z^1001", "Z^100000000 x Z", "Z^1000 x Z[t]"])
def test_parse_config_rejects_rings_over_the_component_cap(text):
    with pytest.raises(reprs.ConfigError, match="more than 1000 components"):
        reprs.parse_config(f"ring: {text}\n")


@pytest.mark.parametrize("text", ["Z[t,t]", "Z[t, s, t] x Z"])
def test_parse_ring_repeated_indeterminate(text):
    with pytest.raises(RingParseError, match="duplicate indeterminate"):
        rings.parse_ring(text)
