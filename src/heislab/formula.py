"""First-order formulas over a group with named constants.

Grammar (see README for the EBNF):

    forall x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )

Terms are group words over variables, the distinguished constants a1/a2,
named constants ``@g``, with ``*``, integer powers ``^n``, and the bracket
``[t,s]`` as sugar for t^-1 s^-1 t s.  ``!=`` is a first-class literal (not
sugar over negation) so DNF matrices stay lists of literals.

Quantifier semantics over infinite groups are handled by bounded search:
assignments range over the ball of words of length <= bound in a group
environment's generators.  A counterexample is a proof of refutation; an
exhausted bound never is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str  # a1, a2, or a named group element


@dataclass(frozen=True)
class TMul:
    left: Any
    right: Any


@dataclass(frozen=True)
class TPow:
    base: Any
    exp: int  # any integer; -1 is the inverse


@dataclass(frozen=True)
class TComm:
    left: Any
    right: Any


ONE = One()
A1 = Const("a1")
A2 = Const("a2")


def inv(t) -> TPow:
    return TPow(t, -1)


@dataclass(frozen=True)
class Eq:
    left: Any
    right: Any


@dataclass(frozen=True)
class Ne:
    left: Any
    right: Any


@dataclass(frozen=True)
class Not:
    arg: Any


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Implies:
    left: Any
    right: Any


@dataclass(frozen=True)
class Quant:
    kind: str  # "forall" | "exists"
    vars: tuple[str, ...]
    body: Any


class FormulaError(ValueError):
    pass


class FormulaParseError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(->|!=|\d+|[A-Za-z][A-Za-z0-9]*|[@()\[\],=|&~*^-])"
)
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaParseError(f"bad character at offset {pos}: {text[pos:pos+10]!r}")
        tokens.append((m.group(1), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok: str):
        got, pos = (
            self.tokens[self.i] if self.i < len(self.tokens) else (None, len(self.text))
        )
        if got != tok:
            raise FormulaParseError(f"expected {tok!r} at offset {pos}, got {got!r}")
        self.i += 1

    # -- sentences ---------------------------------------------------------

    def sentence(self):
        blocks = []
        while self.peek() in ("forall", "exists"):
            kind = self.next()
            vars_ = [self._varname()]
            while self.peek() == ",":
                self.next()
                vars_.append(self._varname())
            blocks.append((kind, tuple(vars_)))
        body = self.matrix()
        for kind, vars_ in reversed(blocks):
            body = Quant(kind, vars_, body)
        return body

    def _varname(self) -> str:
        tok = self.next()
        if not _IDENT_RE.fullmatch(tok) or tok in ("forall", "exists"):
            raise FormulaParseError(f"bad variable name {tok!r}")
        return tok

    def matrix(self):
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Implies(left, self.matrix())  # right-associative
        return left

    def disj(self):
        items = [self.conj()]
        while self.peek() == "|":
            self.next()
            items.append(self.conj())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conj(self):
        items = [self.lit()]
        while self.peek() == "&":
            self.next()
            items.append(self.lit())
        return items[0] if len(items) == 1 else And(tuple(items))

    def lit(self):
        if self.peek() == "~":
            self.next()
            return Not(self.lit())
        if self.peek() == "(":
            # could be a parenthesized matrix or a parenthesized term in an atom
            save = self.i
            try:
                self.next()
                inner = self.matrix()
                self.expect(")")
                if self.peek() in ("=", "!=", "*", "^"):
                    raise FormulaParseError("term context")
                return inner
            except FormulaParseError:
                self.i = save
        return self.atom()

    def atom(self):
        left = self.term()
        op = self.next()
        if op == "=":
            return Eq(left, self.term())
        if op == "!=":
            return Ne(left, self.term())
        raise FormulaParseError(f"expected '=' or '!=', got {op!r}")

    # -- terms -------------------------------------------------------------

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.next()
            out = TMul(out, self.factor())
        return out

    def factor(self):
        out = self.base()
        while self.peek() == "^":
            self.next()
            out = TPow(out, self._integer())
        return out

    def _integer(self) -> int:
        tok = self.next()
        if tok == "-":
            return -int(self.next())
        if tok.isdigit():
            return int(tok)
        raise FormulaParseError(f"expected integer exponent, got {tok!r}")

    def base(self):
        tok = self.next()
        if tok == "1":
            return ONE
        if tok == "@":
            name = self.next()
            if not _IDENT_RE.fullmatch(name):
                raise FormulaParseError(f"bad constant name {name!r}")
            return Const(name)
        if tok == "[":
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect("]")
            return TComm(left, right)
        if tok == "(":
            out = self.term()
            self.expect(")")
            return out
        if tok in ("a1", "a2"):
            return Const(tok)
        if _IDENT_RE.fullmatch(tok) and tok not in ("forall", "exists"):
            return Var(tok)
        if tok.isdigit():
            raise FormulaParseError(f"integer {tok!r} is not a group term (only 1 is)")
        raise FormulaParseError(f"unexpected token {tok!r}")


def parse(text: str):
    p = _Parser(text)
    out = p.sentence()
    if p.peek() is not None:
        raise FormulaParseError(f"trailing input at {p.tokens[p.i][1]}")
    return out


def parse_term(text: str):
    p = _Parser(text)
    out = p.term()
    if p.peek() is not None:
        raise FormulaParseError(f"trailing input at {p.tokens[p.i][1]}")
    return out


# ---------------------------------------------------------------------------
# Printer (parse(print(f)) == f)


def _print_term(t, level: int = 0) -> str:
    # levels: 0 = term (mul chain), 1 = factor, 2 = base
    if isinstance(t, One):
        return "1"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name if t.name in ("a1", "a2") else "@" + t.name
    if isinstance(t, TComm):
        return f"[{_print_term(t.left)},{_print_term(t.right)}]"
    if isinstance(t, TMul):
        s = f"{_print_term(t.left, 0)}*{_print_term(t.right, 1)}"
        return f"({s})" if level >= 1 else s
    if isinstance(t, TPow):
        s = f"{_print_term(t.base, 2)}^{t.exp}"
        return f"({s})" if level >= 2 else s
    raise TypeError(f"not a term: {t!r}")


def _print_formula(f, level: int = 0) -> str:
    # levels: 0 = matrix (implies), 1 = disj, 2 = conj, 3 = lit
    if isinstance(f, Eq):
        return f"{_print_term(f.left)}={_print_term(f.right)}"
    if isinstance(f, Ne):
        return f"{_print_term(f.left)}!={_print_term(f.right)}"
    if isinstance(f, Not):
        return "~" + _print_formula(f.arg, 3)
    if isinstance(f, And):
        s = " & ".join(_print_formula(x, 3) for x in f.items)
        return f"({s})" if level >= 3 else s
    if isinstance(f, Or):
        s = " | ".join(_print_formula(x, 2) for x in f.items)
        return f"({s})" if level >= 2 else s
    if isinstance(f, Implies):
        s = f"{_print_formula(f.left, 1)} -> {_print_formula(f.right, 0)}"
        return f"({s})" if level >= 1 else s
    if isinstance(f, Quant):
        blocks = []
        body = f
        while isinstance(body, Quant):
            blocks.append(f"{body.kind} {','.join(body.vars)}")
            body = body.body
        return " ".join(blocks) + " ( " + _print_formula(body, 0) + " )"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f) -> str:
    return _print_formula(f)


def print_term(t) -> str:
    return _print_term(t)


# ---------------------------------------------------------------------------
# Structure


def free_vars(f) -> frozenset[str]:
    if isinstance(f, (One, Const)):
        return frozenset()
    if isinstance(f, Var):
        return frozenset([f.name])
    if isinstance(f, (TMul, TComm, Eq, Ne, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, TPow):
        return free_vars(f.base)
    if isinstance(f, Not):
        return free_vars(f.arg)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for x in f.items:
            out |= free_vars(x)
        return out
    if isinstance(f, Quant):
        return free_vars(f.body) - frozenset(f.vars)
    raise TypeError(f"not an AST node: {f!r}")


def _peel_quantifiers(f):
    blocks = []
    while isinstance(f, Quant):
        blocks.append((f.kind, f.vars))
        f = f.body
    return blocks, f


def _is_qf(f) -> bool:
    if isinstance(f, (Eq, Ne)):
        return True
    if isinstance(f, Not):
        return _is_qf(f.arg)
    if isinstance(f, (And, Or)):
        return all(_is_qf(x) for x in f.items)
    if isinstance(f, Implies):
        return _is_qf(f.left) and _is_qf(f.right)
    return False


def _conj_items(f):
    return list(f.items) if isinstance(f, And) else [f]


def classify(f) -> str:
    """Syntactic class of a sentence: identity, quasi_identity, universal,
    existential, primitive, forall_exists, or other."""
    if free_vars(f):
        raise FormulaError("classify requires a sentence (no free variables)")
    blocks, matrix = _peel_quantifiers(f)
    if not _is_qf(matrix):
        return "other"
    kinds = [k for k, _ in blocks]
    if all(k == "forall" for k in kinds):
        if isinstance(matrix, Eq):
            return "identity"
        if isinstance(matrix, Implies) and isinstance(matrix.right, Eq):
            if all(isinstance(x, Eq) for x in _conj_items(matrix.left)):
                return "quasi_identity"
        return "universal"
    if all(k == "exists" for k in kinds):
        if all(isinstance(x, (Eq, Ne)) for x in _conj_items(matrix)):
            return "primitive"
        return "existential"
    split = 0
    while split < len(kinds) and kinds[split] == "forall":
        split += 1
    if split > 0 and all(k == "exists" for k in kinds[split:]):
        return "forall_exists"
    return "other"


# ---------------------------------------------------------------------------
# DNF


def _nnf_literals(f, negate: bool):
    """Negation normal form as nested And/Or over Eq/Ne literals."""
    if isinstance(f, Eq):
        return Ne(f.left, f.right) if negate else f
    if isinstance(f, Ne):
        return Eq(f.left, f.right) if negate else f
    if isinstance(f, Not):
        return _nnf_literals(f.arg, not negate)
    if isinstance(f, And):
        items = tuple(_nnf_literals(x, negate) for x in f.items)
        return Or(items) if negate else And(items)
    if isinstance(f, Or):
        items = tuple(_nnf_literals(x, negate) for x in f.items)
        return And(items) if negate else Or(items)
    if isinstance(f, Implies):
        if negate:
            return And((_nnf_literals(f.left, False), _nnf_literals(f.right, True)))
        return Or((_nnf_literals(f.left, True), _nnf_literals(f.right, False)))
    raise FormulaError("quantifier inside a quantifier-free matrix")


def _distribute(f) -> list[list]:
    """NNF formula -> list of disjuncts, each a list of literals."""
    if isinstance(f, (Eq, Ne)):
        return [[f]]
    if isinstance(f, Or):
        out = []
        for x in f.items:
            out.extend(_distribute(x))
        return out
    if isinstance(f, And):
        out = [[]]
        for x in f.items:
            out = [d + e for d in out for e in _distribute(x)]
        return out
    raise FormulaError(f"unexpected node in NNF: {f!r}")


def dnf_disjuncts(matrix, negate: bool = False) -> list[list]:
    if not _is_qf(matrix):
        raise FormulaError("to_dnf requires a quantifier-free matrix")
    return _distribute(_nnf_literals(matrix, negate))


def to_dnf(matrix):
    """Logically equivalent disjunction of conjunctions of literals."""
    disjuncts = dnf_disjuncts(matrix)
    built = [d[0] if len(d) == 1 else And(tuple(d)) for d in disjuncts]
    return built[0] if len(built) == 1 else Or(tuple(built))


# ---------------------------------------------------------------------------
# Evaluation


class UnresolvedNameError(FormulaError):
    pass


class GroupEnv:
    """Element universe for evaluation and bounded quantifier search.

    Elements must support __mul__, inv(), pow_int(), comm() and hashable
    equality (UT3Elem and NilForm both do).  a1 and a2 must be present in
    the constant table.
    """

    def __init__(self, identity, constants: dict, generators: list):
        if "a1" not in constants or "a2" not in constants:
            raise ValueError("constant table must contain a1 and a2")
        self.identity = identity
        self.constants = dict(constants)
        self.generators = list(generators)  # (name, element) pairs
        self._balls: dict[int, list] = {}

    def ball(self, bound: int) -> list:
        """Distinct elements of word length <= bound over the generators,
        as (element, word) pairs in canonical BFS order."""
        if bound in self._balls:
            return self._balls[bound]
        letters = []
        for name, g in self.generators:
            letters.append((g, name))
            letters.append((g.inv(), name + "^-1"))
        seen = {self.identity: "1"}
        frontier = [self.identity]
        for _ in range(bound):
            nxt = []
            for e in frontier:
                word = seen[e]
                for g, name in letters:
                    e2 = e * g
                    if e2 not in seen:
                        seen[e2] = name if word == "1" else word + "*" + name
                        nxt.append(e2)
            frontier = nxt
        out = list(seen.items())
        self._balls[bound] = out
        return out


def eval_term(t, env: GroupEnv, assignment: dict):
    if isinstance(t, One):
        return env.identity
    if isinstance(t, Var):
        if t.name not in assignment:
            raise UnresolvedNameError(f"unassigned variable {t.name!r}")
        return assignment[t.name]
    if isinstance(t, Const):
        if t.name not in env.constants:
            raise UnresolvedNameError(f"unknown constant {t.name!r}")
        return env.constants[t.name]
    if isinstance(t, TMul):
        return eval_term(t.left, env, assignment) * eval_term(t.right, env, assignment)
    if isinstance(t, TPow):
        return eval_term(t.base, env, assignment).pow_int(t.exp)
    if isinstance(t, TComm):
        return eval_term(t.left, env, assignment).comm(
            eval_term(t.right, env, assignment)
        )
    raise TypeError(f"not a term: {t!r}")


def eval_qf(f, env: GroupEnv, assignment: dict) -> bool:
    if isinstance(f, Eq):
        return eval_term(f.left, env, assignment) == eval_term(f.right, env, assignment)
    if isinstance(f, Ne):
        return eval_term(f.left, env, assignment) != eval_term(f.right, env, assignment)
    if isinstance(f, Not):
        return not eval_qf(f.arg, env, assignment)
    if isinstance(f, And):
        return all(eval_qf(x, env, assignment) for x in f.items)
    if isinstance(f, Or):
        return any(eval_qf(x, env, assignment) for x in f.items)
    if isinstance(f, Implies):
        return (not eval_qf(f.left, env, assignment)) or eval_qf(f.right, env, assignment)
    raise FormulaError("eval_qf requires a quantifier-free formula")


# ---------------------------------------------------------------------------
# Bounded quantifier search


@dataclass(frozen=True)
class CounterExample:
    assignment: dict = field(hash=False)
    words: dict = field(hash=False)
    bound: int = 0


@dataclass(frozen=True)
class Witness:
    assignment: dict = field(hash=False)
    words: dict = field(hash=False)
    bound: int = 0


@dataclass(frozen=True)
class NoneWithinBound:
    bound: int


def _search_conjunction(literals, variables, env, ball):
    """First assignment (canonical order) making every literal true.

    A literal is checked as soon as all its variables are bound, literal
    evaluations are memoized per value tuple, and conflict-directed
    backjumping skips a variable's remaining values when no failure below
    involved it -- this keeps exhaustive refutation over sizeable balls
    tractable for four-variable sentences."""
    var_pos = {v: k for k, v in enumerate(variables)}
    nvars = len(variables)
    checkpoints: list[list[int]] = [[] for _ in range(nvars + 1)]
    lit_vars: list[list[str]] = []
    lit_positions: list[frozenset[int]] = []
    for idx, lit in enumerate(literals):
        vs = sorted(v for v in free_vars(lit) if v in var_pos)
        lit_vars.append(vs)
        lit_positions.append(frozenset(var_pos[v] for v in vs))
        level = max((var_pos[v] + 1 for v in vs), default=0)
        checkpoints[level].append(idx)

    assignment: dict = {}
    cache: dict = {}

    def eval_lit(idx: int) -> bool:
        key = (idx,) + tuple(id(assignment[v]) for v in lit_vars[idx])
        result = cache.get(key)
        if result is None:
            result = eval_qf(literals[idx], env, assignment)
            cache[key] = result
        return result

    def descend(level: int):
        """(solution, None) or (None, conflict var-position set)."""
        for idx in checkpoints[level]:
            if not eval_lit(idx):
                return None, lit_positions[idx]
        if level == nvars:
            return dict(assignment), None
        var = variables[level]
        union: set[int] = set()
        for elem, _word in ball:
            assignment[var] = elem
            sol, conflict = descend(level + 1)
            if sol is not None:
                return sol, None
            union |= conflict
            if level not in conflict:
                # every failure below is independent of this variable
                break
        assignment.pop(var, None)
        union.discard(level)
        return None, union

    return descend(0)[0]


def _search_ball(f, env: GroupEnv, bound: int, negate: bool, found_type):
    """First assignment over the ball satisfying the (negated, if
    ``negate``) matrix of f, wrapped in found_type; else NoneWithinBound."""
    blocks, matrix = _peel_quantifiers(f)
    variables = [v for _, vs in blocks for v in vs]
    ball = env.ball(bound)
    words = dict(ball)
    for disjunct in dnf_disjuncts(matrix, negate=negate):
        found = _search_conjunction(disjunct, variables, env, ball)
        if found is not None:
            return found_type(found, {v: words[e] for v, e in found.items()}, bound)
    return NoneWithinBound(bound)


def refute_universal(f, env: GroupEnv, bound: int):
    """Search the ball for a falsifying assignment of a universal sentence.

    Sound for refutation; NoneWithinBound is not a proof of validity.
    """
    if classify(f) not in ("universal", "quasi_identity", "identity"):
        raise FormulaError("refute_universal requires a universal sentence")
    return _search_ball(f, env, bound, True, CounterExample)


def witness_existential(f, env: GroupEnv, bound: int):
    """Dual of refute_universal for existential sentences."""
    if classify(f) not in ("existential", "primitive"):
        raise FormulaError("witness_existential requires an existential sentence")
    return _search_ball(f, env, bound, False, Witness)


# ---------------------------------------------------------------------------
# Builtin sentences


def _comm_chain(terms):
    out = terms[0]
    for t in terms[1:]:
        out = TComm(out, t)
    return out


def nzct():
    x1, x2, x3, y = Var("x1"), Var("x2"), Var("x3"), Var("y")
    return Quant(
        "forall",
        ("x1", "x2", "x3", "y"),
        Implies(
            And((Ne(TComm(x2, y), ONE), Eq(TComm(x1, x2), ONE), Eq(TComm(x2, x3), ONE))),
            Eq(TComm(x1, x3), ONE),
        ),
    )


def ct(n: int):
    """Commutativity transitive off the n-th upper central subgroup."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        noncentral = Ne(Var("x2"), ONE)
    else:
        w = [Var(f"w{i}") for i in range(1, n + 1)]
        noncentral = Ne(_comm_chain(w + [Var("x2")]), ONE)
    vars_ = ("x1", "x2", "x3") + tuple(f"w{i}" for i in range(1, n + 1))
    x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
    return Quant(
        "forall",
        vars_,
        Implies(
            And((noncentral, Eq(TComm(x1, x2), ONE), Eq(TComm(x2, x3), ONE))),
            Eq(TComm(x1, x3), ONE),
        ),
    )


def tau():
    x1, x2 = Var("x1"), Var("x2")
    return Quant(
        "forall",
        ("x1", "x2"),
        Implies(
            And((Eq(TComm(x2, x1), ONE), Eq(TComm(A2, x2), ONE), Eq(TComm(x1, A1), ONE))),
            Or((Eq(TComm(x2, A1), ONE), Eq(TComm(A2, x1), ONE))),
        ),
    )


def sigma():
    x1, x2, y1, y2 = Var("x1"), Var("x2"), Var("y1"), Var("y2")
    return Quant(
        "forall",
        ("x1", "x2"),
        Quant(
            "exists",
            ("y1", "y2"),
            And(
                (
                    Eq(TComm(y1, A1), ONE),
                    Eq(TComm(A2, y2), ONE),
                    Eq(TComm(x2, x1), TComm(y2, A1)),
                    Eq(TComm(x2, x1), TComm(A2, y1)),
                )
            ),
        ),
    )


def centralizer_qi():
    x, z = Var("x"), Var("z")
    return Quant(
        "forall",
        ("x", "z"),
        Implies(
            And((Eq(TComm(z, A1), ONE), Eq(TComm(A2, z), ONE))),
            Eq(TComm(z, x), ONE),
        ),
    )


def torsion_free_qi(k: int):
    if k == 0:
        raise ValueError("k must be nonzero")
    x = Var("x")
    return Quant("forall", ("x",), Implies(Eq(TPow(x, k), ONE), Eq(x, ONE)))


def zero_sq_qi():
    # group-side mirror of the ring sentence: no elements of order two
    x = Var("x")
    return Quant("forall", ("x",), Implies(Eq(TMul(x, x), ONE), Eq(x, ONE)))


_BUILTIN_RE = re.compile(r"([A-Za-z_]+)(\((-?\d+)\))?")


def builtin(name: str):
    """Named sentence by text, e.g. ``NZCT``, ``tau``, ``CT(2)``,
    ``torsion_free_qi(3)``."""
    m = _BUILTIN_RE.fullmatch(name.strip())
    if not m:
        raise FormulaError(f"bad builtin name {name!r}")
    base, _, arg = m.groups()
    if base == "NZCT" and arg is None:
        return nzct()
    if base == "CT" and arg is not None:
        return ct(int(arg))
    if base == "tau" and arg is None:
        return tau()
    if base == "sigma" and arg is None:
        return sigma()
    if base == "centralizer_qi" and arg is None:
        return centralizer_qi()
    if base == "torsion_free_qi" and arg is not None:
        return torsion_free_qi(int(arg))
    if base == "zero_sq_qi" and arg is None:
        return zero_sq_qi()
    raise FormulaError(f"unknown builtin {name!r}")
