"""Tests for the formula language: parser, printer, classifier, DNF,
evaluation, and bounded quantifier search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from heislab import cli, formula, reprs, ut3
from heislab.formula import (
    A1,
    A2,
    And,
    Const,
    Eq,
    FormulaParseError,
    Implies,
    Ne,
    Not,
    ONE,
    Or,
    Quant,
    TComm,
    TMul,
    TPow,
    Var,
    Verdict,
    builtin,
    classify,
    dnf_disjuncts,
    eval_qf,
    eval_term,
    free_vars,
    parse,
    parse_term,
    print_formula,
    print_term,
    refute_universal,
    witness_existential,
)
from heislab.rings import parse_ring
from heislab.ut3 import a1 as ut3_a1, a2 as ut3_a2


def H_env():
    return reprs.heisenberg().env()


def full_zxz_env():
    return cli.fixture("tau-fails-zxz").env()


# ---------------------------------------------------------------------------
# Parsing and printing


def test_parse_centralizer_qi():
    f = parse("forall x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )")
    assert isinstance(f, Quant) and f.kind == "forall" and f.vars == ("x", "z")
    assert isinstance(f.body, Implies)
    assert f == builtin("centralizer_qi")


def test_parse_trivial_atom():
    assert parse("1=1") == Eq(ONE, ONE)


def test_parse_system_s_with_constant():
    f = parse("exists y ( [a2,y]=1 & [y,a1]=@z )")
    assert f == Quant(
        "exists",
        ("y",),
        And((Eq(TComm(A2, Var("y")), ONE), Eq(TComm(Var("y"), A1), Const("z")))),
    )


def test_parse_term_syntax():
    t = parse_term("a1*a2^-1*[a2,a1]^3")
    assert t == TMul(TMul(A1, TPow(A2, -1)), TPow(TComm(A2, A1), 3))
    assert parse_term("(a1*a2)^2") == TPow(TMul(A1, A2), 2)


def test_parse_right_assoc_implies():
    f = parse("forall x ( x=1 -> x=1 -> x=1 )")
    assert isinstance(f.body, Implies)
    assert isinstance(f.body.right, Implies)


def test_parse_errors():
    for bad in ["forall ( x=1 )", "x=", "[x,y", "x==1", "2=2", "forall x x=1 |"]:
        with pytest.raises(FormulaParseError):
            parse(bad)


@pytest.mark.parametrize(
    "text, got", [("a1^-t", "'t'"), ("a1^--2", "'-'"), ("a1^-x2", "'x2'"), ("a1^t", "'t'")]
)
def test_parse_bad_exponent(text, got):
    with pytest.raises(FormulaParseError, match=f"expected integer exponent, got {got}"):
        parse_term(text)
    with pytest.raises(FormulaParseError, match="expected integer exponent"):
        parse(f"forall x ( x*{text} = 1 )")


def test_exponent_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(FormulaParseError, match="^integer literal of 5000 digits is too long$"):
        parse("forall x ( x^%s=1 )" % ("1" * 5000))


def test_builtin_argument_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(FormulaParseError, match="^integer literal of 5000 digits is too long$"):
        builtin("CT(%s)" % ("1" * 5000))


# Each text nests n constructs of one kind around an atom, so its syntax
# tree is n + 2 levels deep; parentheses add no level to the tree, and only
# MAX_DEPTH of them may be open at once.
_NESTED = {
    "parentheses": (lambda n: "(" * n + "x=1" + ")" * n, formula.MAX_DEPTH),
    "negations": (lambda n: "~" * n + "x=1", formula.MAX_DEPTH - 2),
    "powers": (lambda n: "x" + "^2" * n + "=1", formula.MAX_DEPTH - 2),
    "products": (lambda n: "*".join(["x"] * (n + 1)) + "=1", formula.MAX_DEPTH - 2),
    "commutators": (lambda n: "[" * n + "x" + ",x]" * n + "=1", formula.MAX_DEPTH - 2),
    "implications": (lambda n: "x=1 -> " * n + "x=1", formula.MAX_DEPTH - 2),
}


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_parse_nesting_limit(kind):
    nested, limit = _NESTED[kind]
    f = parse(nested(limit))
    assert parse(print_formula(f)) == f
    assert free_vars(f) == {"x"}
    for n in (limit + 1, 3000):
        with pytest.raises(FormulaParseError, match=f"nested deeper than {formula.MAX_DEPTH} levels"):
            parse(nested(n))


def test_parse_term_nesting_limit():
    parse_term("x" + "^2" * (formula.MAX_DEPTH - 1))
    with pytest.raises(FormulaParseError, match="nested deeper"):
        parse_term("x" + "^2" * formula.MAX_DEPTH)


def test_print_parse_roundtrip_builtins():
    texts = {
        "NZCT": "forall x1,x2,x3,y ( [x2,y]!=1 & [x1,x2]=1 & [x2,x3]=1 -> [x1,x3]=1 )",
        "CT(0)": "forall x1,x2,x3 ( x2!=1 & [x1,x2]=1 & [x2,x3]=1 -> [x1,x3]=1 )",
        "CT(1)": "forall x1,x2,x3,w1 ( [w1,x2]!=1 & [x1,x2]=1 & [x2,x3]=1 -> [x1,x3]=1 )",
        "CT(2)": "forall x1,x2,x3,w1,w2 ( [[w1,w2],x2]!=1 & [x1,x2]=1 & [x2,x3]=1 "
        "-> [x1,x3]=1 )",
        "CT(3)": "forall x1,x2,x3,w1,w2,w3 ( [[[w1,w2],w3],x2]!=1 & [x1,x2]=1 & [x2,x3]=1 "
        "-> [x1,x3]=1 )",
        "tau": "forall x1,x2 ( [x2,x1]=1 & [a2,x2]=1 & [x1,a1]=1 -> [x2,a1]=1 | [a2,x1]=1 )",
        "sigma": "forall x1,x2 exists y1,y2 ( [y1,a1]=1 & [a2,y2]=1 & [x2,x1]=[y2,a1] "
        "& [x2,x1]=[a2,y1] )",
        "centralizer_qi": "forall x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )",
        "torsion_free_qi(2)": "forall x ( x^2=1 -> x=1 )",
        "torsion_free_qi(-2)": "forall x ( x^-2=1 -> x=1 )",
        "zero_sq_qi": "forall x ( x*x=1 -> x=1 )",
    }
    for name, text in texts.items():
        f = builtin(name)
        assert print_formula(f) == text
        assert parse(print_formula(f)) == f
    with pytest.raises(ValueError, match="n must be >= 0"):
        builtin("CT(-1)")
    with pytest.raises(ValueError, match="k must be nonzero"):
        builtin("torsion_free_qi(0)")
    for name in ["frobnicate", "CT", "NZCT(1)", "tau(2)", "sigma x"]:
        with pytest.raises(formula.FormulaError, match="builtin"):
            builtin(name)


def _random_term(rng, depth=0):
    choices = ["one", "var", "const", "mul", "pow", "comm"]
    if depth > 2:
        choices = ["one", "var", "const"]
    kind = rng.choice(choices)
    if kind == "one":
        return ONE
    if kind == "var":
        return Var(rng.choice(["x", "y", "z", "w1"]))
    if kind == "const":
        return rng.choice([A1, A2, Const("g")])
    if kind == "mul":
        return TMul(_random_term(rng, depth + 1), _random_term(rng, depth + 1))
    if kind == "pow":
        return TPow(_random_term(rng, depth + 1), rng.randint(-3, 3))
    return TComm(_random_term(rng, depth + 1), _random_term(rng, depth + 1))


def _random_formula(rng, depth=0):
    choices = ["eq", "ne", "not", "and", "or", "implies"]
    if depth > 2:
        choices = ["eq", "ne"]
    kind = rng.choice(choices)
    if kind == "eq":
        return Eq(_random_term(rng), _random_term(rng))
    if kind == "ne":
        return Ne(_random_term(rng), _random_term(rng))
    if kind == "not":
        return Not(_random_formula(rng, depth + 1))
    if kind == "and":
        return And(
            tuple(_random_formula(rng, depth + 1) for _ in range(rng.randint(2, 3)))
        )
    if kind == "or":
        return Or(
            tuple(_random_formula(rng, depth + 1) for _ in range(rng.randint(2, 3)))
        )
    return Implies(_random_formula(rng, depth + 1), _random_formula(rng, depth + 1))


def test_print_parse_roundtrip_random():
    rng = random.Random(0)
    for _ in range(500):
        body = _random_formula(rng)
        fv = sorted(free_vars(body))
        f = Quant("forall", tuple(fv), body) if fv else body
        assert parse(print_formula(f)) == f


# ---------------------------------------------------------------------------
# Classification


def test_classify_builtins():
    assert classify(builtin("NZCT")) == "universal"
    assert classify(builtin("sigma")) == "forall_exists"
    assert classify(builtin("tau")) == "universal"
    assert classify(builtin("centralizer_qi")) == "quasi_identity"
    assert classify(builtin("torsion_free_qi(3)")) == "quasi_identity"


def test_classify_identity_and_primitive():
    assert classify(parse("forall x ( x*1=x )")) == "identity"
    assert classify(parse("exists x ( x=1 & x!=a1 )")) == "primitive"
    assert classify(parse("exists x ( x=1 | x=a1 )")) == "existential"
    assert classify(parse("exists x forall y ( [x,y]=1 )")) == "other"
    with pytest.raises(formula.FormulaError):
        classify(Eq(Var("x"), ONE))  # free variable


# ---------------------------------------------------------------------------
# DNF


def _qf_atoms(f):
    if isinstance(f, (Eq, Ne)):
        return [f]
    if isinstance(f, Not):
        return _qf_atoms(f.arg)
    if isinstance(f, (And, Or)):
        return [a for x in f.items for a in _qf_atoms(x)]
    return _qf_atoms(f.left) + _qf_atoms(f.right)


def _eval_bool(f, values):
    """Truth-table evaluation with atoms assigned boolean values."""
    if isinstance(f, Eq):
        return values[f]
    if isinstance(f, Ne):
        return not values[Eq(f.left, f.right)]
    if isinstance(f, Not):
        return not _eval_bool(f.arg, values)
    if isinstance(f, And):
        return all(_eval_bool(x, values) for x in f.items)
    if isinstance(f, Or):
        return any(_eval_bool(x, values) for x in f.items)
    return (not _eval_bool(f.left, values)) or _eval_bool(f.right, values)


def test_dnf_shape():
    A, B, C = Eq(Var("a"), ONE), Eq(Var("b"), ONE), Eq(Var("c"), ONE)
    assert dnf_disjuncts(And((Or((A, B)), C))) == [[A, C], [B, C]]
    assert dnf_disjuncts(A) == [[A]]


def test_tau_matrix_dnf():
    # (A & B & C) -> (D | E) distributes to ~A | ~B | ~C | D | E
    _, matrix = formula._peel_quantifiers(builtin("tau"))
    disjuncts = dnf_disjuncts(matrix)
    assert len(disjuncts) == 5
    assert all(len(d) == 1 for d in disjuncts)
    # and the negation is a single 5-literal conjunction
    negated = dnf_disjuncts(matrix, negate=True)
    assert len(negated) == 1 and len(negated[0]) == 5


def test_dnf_equivalent_by_truth_table():
    rng = random.Random(1)
    for _ in range(100):
        f = _random_formula(rng)
        eq_atoms = sorted(
            {Eq(a.left, a.right) for a in _qf_atoms(f)}, key=repr
        )
        if len(eq_atoms) > 5:
            continue
        disjuncts = dnf_disjuncts(f)
        for bits in itertools.product([False, True], repeat=len(eq_atoms)):
            values = dict(zip(eq_atoms, bits))
            assert _eval_bool(f, values) == any(
                all(_eval_bool(x, values) for x in d) for d in disjuncts
            )


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_term_in_H():
    env = H_env()
    c = eval_term(parse_term("[a2,a1]"), env, {})
    from heislab.rings import RingElem, Z

    c13 = c.law.to_ut3(c)
    assert c13.u13 == RingElem.one(Z) and c13.is_central()
    w = eval_term(parse_term("a1*a2^-1*[a2,a1]^3"), env, {})
    assert w == env.constants["a1"] * env.constants["a2"].pow_int(-1) * c.pow_int(3)


def test_eval_qf():
    env = H_env()
    assert eval_qf(parse("[a2,a1]!=1"), env, {})
    assert eval_qf(Eq(Var("x"), Var("x")), env, {"x": env.constants["a1"]})
    _, matrix = formula._peel_quantifiers(builtin("tau"))
    assignment = {"x1": env.constants["a1"], "x2": env.constants["a2"]}
    assert eval_qf(matrix, env, assignment)  # hypothesis fails, implication true


def test_eval_unresolved():
    env = H_env()
    with pytest.raises(formula.UnresolvedNameError):
        eval_term(Var("x"), env, {})
    with pytest.raises(formula.UnresolvedNameError):
        eval_term(Const("nope"), env, {})


def test_ball_properties():
    env = H_env()
    b1 = env.ball(1)
    elems = [e for e, _ in b1]
    assert env.identity in elems
    assert env.constants["a1"] in elems
    assert len(elems) == len(set(elems))  # deduplicated
    assert len(env.ball(2)) > len(b1)


# ---------------------------------------------------------------------------
# Bounded search


def test_refute_tautology():
    out = refute_universal(parse("forall x ( x=x )"), H_env(), 3)
    assert out == Verdict("inconclusive", "bounded_search", bound=3)


def test_refute_finds_counterexample():
    out = refute_universal(parse("forall x ( [x,a1]=1 )"), H_env(), 1)
    assert out.status == "violated"
    assert out.witness.words["x"] in ("a2", "a2^-1")


def test_refute_counterexample_is_rechecked():
    env = full_zxz_env()
    f = builtin("tau")
    out = refute_universal(f, env, 2)
    assert out.status == "violated"
    _, matrix = formula._peel_quantifiers(f)
    assert not eval_qf(matrix, env, out.witness.assignment)


def test_refute_wrong_class():
    with pytest.raises(formula.FormulaError):
        refute_universal(parse("exists x ( x=1 )"), H_env(), 1)


def test_witness_system_S_and_T():
    env = H_env()
    env.constants["z"] = eval_term(parse_term("[a2,a1]"), env, {})
    s = parse("exists y ( [a2,y]=1 & [y,a1]=@z )")
    out = witness_existential(s, env, 2)
    assert out.status == "holds"
    assert out.witness.words["y"] == "a2"
    t = parse("exists x ( [x,a1]=1 & [a2,x]=@z )")
    out = witness_existential(t, env, 2)
    assert out.status == "holds"
    assert out.witness.words["x"] == "a1"


def test_witness_trivial():
    out = witness_existential(parse("exists x ( x=1 )"), H_env(), 1)
    assert out.status == "holds"
    assert out.witness.words["x"] == "1"


def test_witness_exhaustion():
    out = witness_existential(parse("exists x ( x!=x )"), H_env(), 2)
    assert out == Verdict("inconclusive", "bounded_search", bound=2)


def test_nzct_holds_in_H_small_bounds():
    for bound in (1, 2, 3):
        out = refute_universal(builtin("NZCT"), H_env(), bound)
        assert out == Verdict("inconclusive", "bounded_search", bound=bound)


def test_nzct_refuted_on_full_zxz():
    env = full_zxz_env()
    out = refute_universal(builtin("NZCT"), env, 3)
    assert out.status == "violated"
    _, matrix = formula._peel_quantifiers(builtin("NZCT"))
    assert not eval_qf(matrix, env, out.witness.assignment)


def test_ct_zero_and_torsion():
    env = H_env()
    ct0 = builtin("CT(0)")
    for bound in (2, 3):
        out = refute_universal(ct0, env, bound)
        assert out == Verdict("inconclusive", "bounded_search", bound=bound)
    # a central x2 that is not 1 first appears at bound 4: [a1,a2] commutes
    # with both a1 and a2, which do not commute
    out = refute_universal(ct0, env, 4)
    assert out.status == "violated"
    assert out.witness.words == {"x1": "a1", "x2": "a1*a2*a1^-1*a2^-1", "x3": "a2"}
    _, matrix = formula._peel_quantifiers(ct0)
    assert not eval_qf(matrix, env, out.witness.assignment)
    assert refute_universal(builtin("torsion_free_qi(2)"), env, 2).status == "inconclusive"
    assert refute_universal(builtin("zero_sq_qi"), env, 2).status == "inconclusive"


def test_ct1_equals_nzct_semantics():
    # CT(1) is NZCT with the noncentrality hypothesis spelled via a commutator
    env = full_zxz_env()
    out = refute_universal(builtin("CT(1)"), env, 2)
    assert out.status == "violated"


_SEARCH_ENVS = {"H": H_env, "zxz": full_zxz_env}


@st.composite
def _search_terms(draw, variables, depth=0):
    leaves = [ONE, A1, A2] + [Var(v) for v in variables]
    if depth == 2:
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["leaf", "mul", "pow", "comm"]))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    if kind == "pow":
        base = draw(_search_terms(variables, depth + 1))
        return TPow(base, draw(st.sampled_from([-2, -1, 1, 2])))
    left = draw(_search_terms(variables, depth + 1))
    right = draw(_search_terms(variables, depth + 1))
    return TMul(left, right) if kind == "mul" else TComm(left, right)


@st.composite
def _commutator_terms(draw, variables):
    """A commutator of search terms, or a product or power of such."""
    kind = draw(st.sampled_from(["comm", "comm", "mul", "pow"]))
    if kind == "mul":
        return TMul(draw(_commutator_terms(variables)), draw(_commutator_terms(variables)))
    comm = TComm(draw(_search_terms(variables, 1)), draw(_search_terms(variables, 1)))
    return TPow(comm, draw(st.sampled_from([-1, 2]))) if kind == "pow" else comm


@st.composite
def _conjunctions(draw):
    """(literals, variables, env, bound).  Unless no assignment is planted,
    each literal is made true at a drawn one (Eq or Ne as its sides compare
    there), so most cases have a solution, often past the first values.
    In about half the cases every literal compares commutators, so every
    variable is blind.  Three variables only where the brute force has at
    most 17^3 tuples to scan."""
    env = _SEARCH_ENVS[draw(st.sampled_from(sorted(_SEARCH_ENVS)))]()
    bound = draw(st.integers(1, 2))
    ball = env.ball(bound)
    nvars = draw(st.integers(1, 3 if len(ball) <= 17 else 2))
    variables = ["x", "y", "z"][:nvars]
    planted = draw(st.tuples(*[st.sampled_from(ball) for _ in variables]) | st.none())
    terms = _commutator_terms if draw(st.booleans()) else _search_terms
    literals = []
    for _ in range(draw(st.integers(1, 6))):
        # each literal on its own variables, so some skip a level
        used = draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
        left = draw(terms(used))
        right = draw(st.one_of(st.just(ONE), terms(used)))
        if planted is None:
            kind = draw(st.sampled_from([Eq, Ne]))
        else:
            at = {v: e for v, (e, _) in zip(variables, planted)}
            kind = Eq if eval_term(left, env, at) == eval_term(right, env, at) else Ne
        literals.append(kind(left, right))
    return literals, variables, env, bound


def _first_by_brute_force(literals, variables, env, ball):
    """The first tuple of ball elements, in lexicographic order, that
    satisfies every literal under eval_qf.  A prefix is dropped as soon as
    a literal on its variables alone is false, since every extension of it
    fails that literal too."""
    by_level = [[] for _ in variables]  # each literal at its last variable
    for lit in literals:
        names = free_vars(lit)
        if not names:
            if not eval_qf(lit, env, {}):
                return None
            continue
        by_level[max(variables.index(v) for v in names)].append(lit)
    assignment = {}

    def scan(level):
        if level == len(variables):
            return tuple(assignment[v] for v in variables)
        for e, _ in ball:
            assignment[variables[level]] = e
            if all(eval_qf(lit, env, assignment) for lit in by_level[level]):
                found = scan(level + 1)
                if found is not None:
                    return found
        return None

    return scan(0)


def _assert_search_matches_brute_force(literals, variables, env, bound):
    ball = env.ball(bound)
    positions = formula._compile_conjunction(literals, variables, env)(
        ball, env.representatives(bound)
    )
    found = None if positions is None else tuple(ball[p][0] for p in positions)
    assert found == _first_by_brute_force(literals, variables, env, ball)


@settings(max_examples=200, deadline=None)
@given(_conjunctions())
def test_search_conjunction_matches_brute_force(case):
    _assert_search_matches_brute_force(*case)


@pytest.mark.parametrize(
    "env_name, bound, matrix",
    [
        # x=1 passes every check on x alone and fails only below, where
        # the failure involves x: the search must try the next x
        ("H", 1, "[x,y]!=1 & y=a1"),
        # [y,z] is memoized per y: y=1 and y=a2 share no row
        ("H", 1, "x=x & z=a1 & [y,z]!=1"),
        # the negated matrices of CT(0) and NZCT
        ("H", 2, "x2!=1 & [x1,x2]=1 & [x2,x3]=1 & [x1,x3]!=1"),
        ("zxz", 1, "[x2,y]!=1 & [x1,x2]=1 & [x2,x3]=1 & [x1,x3]!=1"),
        # x and y also occur outside a commutator, so neither is blind
        ("H", 2, "[x,y]!=1 & x*x=y"),
        ("zxz", 2, "[x,y]!=1 & x*x=y"),
        # only y is blind; x is a2*a1, which is not the first of its
        # center class (a1*a2 comes before it)
        ("H", 2, "[x,y]!=1 & x=a2*a1"),
    ],
)
def test_search_conjunction_matches_brute_force_on_fixed_cases(env_name, bound, matrix):
    (literals,) = dnf_disjuncts(parse(matrix))
    variables = sorted(free_vars(parse(matrix)))
    env = _SEARCH_ENVS[env_name]()
    _assert_search_matches_brute_force(literals, variables, env, bound)


@pytest.mark.parametrize("env_name", sorted(_SEARCH_ENVS))
@pytest.mark.parametrize(
    "name, variables",
    [
        ("tau", None),
        ("centralizer_qi", None),
        ("CT(1)", None),
        # the chain's variables first, so the brute force drops every
        # prefix at x2 instead of scanning 53^5 tuples on zxz
        ("CT(2)", ["w1", "w2", "x2", "x1", "x3"]),
    ],
)
def test_negated_builtins_match_brute_force(env_name, name, variables):
    blocks, matrix = formula._peel_quantifiers(builtin(name))
    (literals,) = dnf_disjuncts(matrix, negate=True)
    variables = variables or [v for _, vs in blocks for v in vs]
    _assert_search_matches_brute_force(literals, variables, _SEARCH_ENVS[env_name](), 2)


def test_commutator_with_a_central_side_compiles_to_one():
    env = H_env()
    var_pos = {"x": 0, "y": 1, "z": 2}
    cur = [env.constants["a1"], env.constants["a2"], env.constants["a1"]]
    for text in ("[[x,y],z]", "[z,[x,y]^2*1]", "[[x,y]*[y,z]^-1,[x,[y,z]]]"):
        assert formula._compile_term(parse_term(text), env, var_pos, cur) == (env.identity, None)
    # x*[x,y] is not central, so its commutator with y is computed
    value, fn = formula._compile_term(parse_term("[x*[x,y],y]"), env, var_pos, cur)
    assert value is None and fn() == eval_term(parse_term("[a1,a2]"), env, {})
    # a folded commutator still names its unknown constants
    with pytest.raises(formula.UnresolvedNameError, match="unknown constant 'foo'"):
        formula._compile_term(parse_term("[[x,@foo],y]"), env, var_pos, cur)


def test_representatives_are_the_first_of_each_center_class():
    env = full_zxz_env()
    ball = env.ball(2)
    reps = env.representatives(2)
    keys = [e.coset_key() for e, _ in ball]
    assert reps == sorted(keys.index(k) for k in set(keys))
    assert reps[0] == 0 and len(reps) < len(ball)
    assert env.representatives(2) is reps  # computed once per ball


def test_blind_variables_range_over_representatives(monkeypatch):
    # every variable of NZCT is blind: each element compared by a
    # commutator is the first of its center class
    env = H_env()
    ball, reps = env.ball(2), env.representatives(2)
    assert (len(ball), len(reps)) == (17, 13)
    tried = set()
    comm = ut3.Class2Elem.comm

    def spy(x, y):
        tried.update((x, y))
        return comm(x, y)

    monkeypatch.setattr(ut3.Class2Elem, "comm", spy)
    out = refute_universal(builtin("NZCT"), env, 2)
    assert out == Verdict("inconclusive", "bounded_search", bound=2)
    assert tried == {ball[p][0] for p in reps}


def test_ct_chain_past_one_commutator_is_decided_before_search(monkeypatch, capsys):
    # [[w1,w2],x2] is 1 in class 2, so no assignment can falsify CT(20)
    def no_literal(*_args):
        raise AssertionError("a literal was evaluated")

    monkeypatch.setattr(ut3.Class2Elem, "comm", no_literal)
    assert cli.main(["refute", "CT(20)", "--bound", "2"]) == 2
    assert capsys.readouterr().out == "inconclusive method=bounded_search bound=2\n"


def test_builtin_bad_names():
    with pytest.raises(formula.FormulaError):
        builtin("frobnicate")
    with pytest.raises(ValueError):
        builtin("torsion_free_qi(0)")


# ---------------------------------------------------------------------------
# Hypothesis round-trip on generated ASTs


@st.composite
def _terms(draw, depth=0):
    if depth > 2:
        return draw(st.sampled_from([ONE, Var("x"), Var("y"), A1, A2]))
    kind = draw(st.sampled_from(["leaf", "mul", "pow", "comm"]))
    if kind == "leaf":
        return draw(st.sampled_from([ONE, Var("x"), Var("y"), A1, A2, Const("g")]))
    if kind == "mul":
        return TMul(draw(_terms(depth=depth + 1)), draw(_terms(depth=depth + 1)))
    if kind == "pow":
        return TPow(draw(_terms(depth=depth + 1)), draw(st.integers(-5, 5)))
    return TComm(draw(_terms(depth=depth + 1)), draw(_terms(depth=depth + 1)))


@settings(max_examples=200, deadline=None)
@given(_terms())
def test_term_print_parse_roundtrip(t):
    assert parse_term(print_term(t)) == t
