"""First-order formulas over a group with named constants.

Grammar (see README for the EBNF):

    forall x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )

Terms are group words over variables, the distinguished constants a1/a2,
named constants ``@g``, with ``*``, integer powers ``^n``, and the bracket
``[t,s]`` as sugar for t^-1 s^-1 t s.  ``!=`` is a first-class literal (not
sugar over negation) so DNF matrices stay lists of literals.  Input nested
deeper than MAX_DEPTH levels is a parse error.  The builtin sentences (NZCT,
CT(n), tau, sigma and the quasi-identities) are texts in this grammar, in
one table at the end of the module, parsed on first use.

Quantifier semantics over infinite groups are handled by bounded search:
assignments range over the ball of words of length <= bound in a group
environment's generators.  Both searches answer with the ``Verdict`` the
exact checkers of ``reprs`` return.  A counterexample is a proof of
refutation; an exhausted bound never is.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from typing import Any, Optional

from .rings import MAX_DEPTH, parse_int

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


class _TooDeep(FormulaParseError):
    """Nesting past MAX_DEPTH, which no other reading of the text avoids."""

    def __init__(self):
        super().__init__(f"nested deeper than {MAX_DEPTH} levels")


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
    """Recursive descent over the tokens.  Each rule returns (node, height),
    the number of levels of the node's syntax tree.  A tree taller than
    MAX_DEPTH is a parse error, and so are more than MAX_DEPTH groups open
    at once, so neither this parser nor a later recursion over the tree
    (printer, free_vars, the search) can overflow the stack."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # groups open around the current token

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

    def node(self, node, *below: int):
        """(node, height) for a node over parts of the given heights."""
        height = 1 + max(below, default=0)
        if height > MAX_DEPTH:
            raise _TooDeep()
        return node, height

    def group(self, rule):
        """rule() inside a group: a parenthesis, a bracket, ``~`` or the
        right side of ``->``.  The parser recurses only here."""
        if self.depth == MAX_DEPTH:
            raise _TooDeep()
        self.depth += 1
        try:
            return rule()
        finally:
            self.depth -= 1

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
        body, height = self.matrix()
        for kind, vars_ in reversed(blocks):
            body, height = self.node(Quant(kind, vars_, body), height)
        return body, height

    def _varname(self) -> str:
        tok = self.next()
        if not _IDENT_RE.fullmatch(tok) or tok in ("forall", "exists"):
            raise FormulaParseError(f"bad variable name {tok!r}")
        return tok

    def matrix(self):
        left, lh = self.disj()
        if self.peek() == "->":
            self.next()
            right, rh = self.group(self.matrix)  # right-associative
            return self.node(Implies(left, right), lh, rh)
        return left, lh

    def _joined(self, cls, rule, sep: str):
        items = [rule()]
        while self.peek() == sep:
            self.next()
            items.append(rule())
        if len(items) == 1:
            return items[0]
        nodes, heights = zip(*items)
        return self.node(cls(nodes), *heights)

    def disj(self):
        return self._joined(Or, self.conj, "|")

    def conj(self):
        return self._joined(And, self.lit, "&")

    def lit(self):
        if self.peek() == "~":
            self.next()
            arg, height = self.group(self.lit)
            return self.node(Not(arg), height)
        if self.peek() == "(":
            # could be a parenthesized matrix or a parenthesized term in an atom
            save = self.i
            try:
                self.next()
                inner, height = self.group(self.matrix)
                self.expect(")")
                if self.peek() in ("=", "!=", "*", "^"):
                    raise FormulaParseError("term context")
                return inner, height
            except _TooDeep:
                raise
            except FormulaParseError:
                self.i = save
        return self.atom()

    def atom(self):
        left, lh = self.term()
        op = self.next()
        if op not in ("=", "!="):
            raise FormulaParseError(f"expected '=' or '!=', got {op!r}")
        right, rh = self.term()
        return self.node((Eq if op == "=" else Ne)(left, right), lh, rh)

    # -- terms -------------------------------------------------------------

    def term(self):
        out, height = self.factor()
        while self.peek() == "*":
            self.next()
            right, rh = self.factor()
            out, height = self.node(TMul(out, right), height, rh)
        return out, height

    def factor(self):
        out, height = self.base()
        while self.peek() == "^":
            self.next()
            out, height = self.node(TPow(out, self._integer()), height)
        return out, height

    def _integer(self) -> int:
        tok = self.next()
        sign = 1
        if tok == "-":
            sign, tok = -1, self.next()
        if tok.isdigit():
            return sign * parse_int(tok, FormulaParseError)
        raise FormulaParseError(f"expected integer exponent, got {tok!r}")

    def base(self):
        tok = self.next()
        if tok == "1":
            return self.node(ONE)
        if tok == "@":
            name = self.next()
            if not _IDENT_RE.fullmatch(name):
                raise FormulaParseError(f"bad constant name {name!r}")
            return self.node(Const(name))
        if tok == "[":
            left, lh = self.group(self.term)
            self.expect(",")
            right, rh = self.group(self.term)
            self.expect("]")
            return self.node(TComm(left, right), lh, rh)
        if tok == "(":
            out, height = self.group(self.term)
            self.expect(")")
            return out, height
        if tok in ("a1", "a2"):
            return self.node(Const(tok))
        if _IDENT_RE.fullmatch(tok) and tok not in ("forall", "exists"):
            return self.node(Var(tok))
        if tok.isdigit():
            raise FormulaParseError(f"integer {tok!r} is not a group term (only 1 is)")
        raise FormulaParseError(f"unexpected token {tok!r}")


def parse(text: str):
    p = _Parser(text)
    out, _ = p.sentence()
    if p.peek() is not None:
        raise FormulaParseError(f"trailing input at {p.tokens[p.i][1]}")
    return out


def parse_term(text: str):
    p = _Parser(text)
    out, _ = p.term()
    if p.peek() is not None:
        raise FormulaParseError(f"trailing input at {p.tokens[p.i][1]}")
    return out


# ---------------------------------------------------------------------------
# Printer (parse(print(f)) == f)


def print_term(t, *, level: int = 0) -> str:
    # levels: 0 = term (mul chain), 1 = factor, 2 = base
    if isinstance(t, One):
        return "1"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name if t.name in ("a1", "a2") else "@" + t.name
    if isinstance(t, TComm):
        return f"[{print_term(t.left)},{print_term(t.right)}]"
    if isinstance(t, TMul):
        s = f"{print_term(t.left)}*{print_term(t.right, level=1)}"
        return f"({s})" if level >= 1 else s
    if isinstance(t, TPow):
        s = f"{print_term(t.base, level=2)}^{t.exp}"
        return f"({s})" if level >= 2 else s
    raise TypeError(f"not a term: {t!r}")


def print_formula(f, *, level: int = 0) -> str:
    # levels: 0 = matrix (implies), 1 = disj, 2 = conj, 3 = lit
    if isinstance(f, Eq):
        return f"{print_term(f.left)}={print_term(f.right)}"
    if isinstance(f, Ne):
        return f"{print_term(f.left)}!={print_term(f.right)}"
    if isinstance(f, Not):
        return "~" + print_formula(f.arg, level=3)
    if isinstance(f, And):
        s = " & ".join(print_formula(x, level=3) for x in f.items)
        return f"({s})" if level >= 3 else s
    if isinstance(f, Or):
        s = " | ".join(print_formula(x, level=2) for x in f.items)
        return f"({s})" if level >= 2 else s
    if isinstance(f, Implies):
        s = f"{print_formula(f.left, level=1)} -> {print_formula(f.right)}"
        return f"({s})" if level >= 1 else s
    if isinstance(f, Quant):
        blocks = []
        body = f
        while isinstance(body, Quant):
            blocks.append(f"{body.kind} {','.join(body.vars)}")
            body = body.body
        return " ".join(blocks) + " ( " + print_formula(body) + " )"
    raise TypeError(f"not a formula: {f!r}")


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
        raise FormulaError("dnf_disjuncts requires a quantifier-free matrix")
    return _distribute(_nnf_literals(matrix, negate))


# ---------------------------------------------------------------------------
# Evaluation


class UnresolvedNameError(FormulaError):
    pass


class GroupEnv:
    """Element universe for evaluation and bounded quantifier search.

    The elements must form a group of nilpotency class 2, so that every
    commutator is central, and support __mul__, inv(), pow_int(), comm(),
    hashable equality and coset_key(), which may be equal for two elements
    only when they differ by a central factor.  ``Representation.env`` uses
    ``ut3.Class2Elem``, ``discriminate`` uses ``nilform.NilForm``, and the
    tests also use ``ut3.UT3Elem``.  a1 and a2 must be present in the
    constant table.
    """

    def __init__(self, identity, constants: dict, generators: list):
        if "a1" not in constants or "a2" not in constants:
            raise ValueError("constant table must contain a1 and a2")
        self.identity = identity
        self.constants = dict(constants)
        self.generators = list(generators)  # (name, element) pairs
        self._balls: dict[int, list] = {}
        self._representatives: dict[int, list[int]] = {}

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

    def representatives(self, bound: int) -> list[int]:
        """The ball position of the first element of each center class, in
        ball order; a center class is the set of ball elements with one
        coset_key."""
        reps = self._representatives.get(bound)
        if reps is None:
            keys = set()
            reps = self._representatives[bound] = []
            for pos, (e, _word) in enumerate(self._balls.get(bound) or self.ball(bound)):
                key = e.coset_key()
                if key not in keys:
                    keys.add(key)
                    reps.append(pos)
        return reps


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
class Verdict:
    """The answer to whether a group satisfies a sentence, from an exact
    checker (``reprs``) or a bounded search (below)."""

    status: str  # holds | violated | inconclusive
    method: str  # exact_lattice | bounded_search
    witness: object = None
    bound: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "method": self.method,
            "bound": self.bound,
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


@dataclass(frozen=True)
class SearchWitness:
    """The assignment a bounded search found: elements and their words."""

    assignment: dict = field(hash=False)
    words: dict = field(hash=False)

    def to_dict(self) -> dict:
        return dict(sorted(self.words.items()))


def _is_central(t) -> bool:
    """Central in every class-2 group by its syntax: 1, a commutator, or a
    product or power of these."""
    if isinstance(t, (One, TComm)):
        return True
    if isinstance(t, TMul):
        return _is_central(t.left) and _is_central(t.right)
    if isinstance(t, TPow):
        return _is_central(t.base)
    return False


def _bare_vars(t) -> set[str]:
    """The variables of a term with an occurrence outside every commutator."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, TMul):
        return _bare_vars(t.left) | _bare_vars(t.right)
    if isinstance(t, TPow):
        return _bare_vars(t.base)
    return set()


def _compile_term(t, env: GroupEnv, var_pos: dict, cur: list):
    """(value, None) for a term without variables, else (None, fn) where
    fn() evaluates t on the elements in ``cur`` (variable v is
    ``cur[var_pos[v]]``).  Named constants are looked up here, so an
    unknown one raises before any search starts.  A commutator with a
    syntactically central side is 1 in a class-2 group, so it compiles to
    ``env.identity`` (its sides are still compiled, for those errors)."""
    if isinstance(t, One):
        return env.identity, None
    if isinstance(t, Var):
        if t.name not in var_pos:
            raise UnresolvedNameError(f"unassigned variable {t.name!r}")
        return None, partial(cur.__getitem__, var_pos[t.name])
    if isinstance(t, Const):
        if t.name not in env.constants:
            raise UnresolvedNameError(f"unknown constant {t.name!r}")
        return env.constants[t.name], None
    if isinstance(t, TPow):
        base, fn = _compile_term(t.base, env, var_pos, cur)
        exp = t.exp
        if fn is None:
            return base.pow_int(exp), None
        return None, lambda: fn().pow_int(exp)
    if isinstance(t, TMul):
        op = operator.mul
    elif isinstance(t, TComm):
        op = _comm
    else:
        raise TypeError(f"not a term: {t!r}")
    left = _compile_term(t.left, env, var_pos, cur)
    right = _compile_term(t.right, env, var_pos, cur)
    if op is _comm and (_is_central(t.left) or _is_central(t.right)):
        return env.identity, None
    return _combine(op, left, right)


def _comm(x, y):
    return x.comm(y)


def _combine(op, left, right):
    """op on two compiled terms, evaluated now when neither has variables."""
    (lv, lf), (rv, rf) = left, right
    if lf is None and rf is None:
        return op(lv, rv), None
    if lf is None:
        return None, lambda: op(lv, rf())
    if rf is None:
        return None, lambda: op(lf(), rv)
    return None, lambda: op(lf(), rf())


def _compile_conjunction(literals, variables, env: GroupEnv):
    """Compile a conjunction of Eq/Ne literals over ``variables`` into
    search(ball, reps): the ball positions of the first assignment, in
    canonical (lexicographic) order, that makes every literal true, or
    None.  ``reps`` is ``env.representatives`` of the ball.

    Each literal becomes a closure over the list of chosen elements and is
    checked in the loop that chooses its last variable, so a candidate
    that fails costs no recursive call; literals without variables are
    decided here, once -- with the commutator fold of ``_compile_term``
    this decides CT(n >= 2), whose chain compiles to 1, before any search.
    A literal's memo holds one row of truth values per choice of its other
    variables' ball positions, indexed by its last variable's position; a
    literal on every variable so far never repeats, so it has no memo.
    Conflict-directed backjumping skips a variable's remaining values when
    no failure below involved it -- this keeps exhaustive refutation over
    sizeable balls tractable for four-variable sentences.

    A variable is *blind* when every occurrence of it, on both sides of
    every literal, lies inside a commutator; it ranges over ``reps`` only.
    This loses no first assignment.  Multiplying a variable by a central
    z multiplies each term around it by a power of z, and a commutator
    ignores central factors of its sides, so each literal is unchanged when
    a blind variable is multiplied by a central element.  Two elements of
    one center class differ by a central factor, so replacing each blind
    variable's position in a satisfying assignment by the first position
    of its class gives a satisfying assignment that is componentwise no
    larger, hence lexicographically no later: the first satisfying
    assignment is already made of representatives at its blind
    variables."""
    nvars = len(variables)
    var_pos = {v: k for k, v in enumerate(variables)}
    cur: list = [None] * nvars  # the element chosen for each variable
    holds = True  # every literal without variables is true
    checks: list[list] = [[] for _ in range(nvars)]  # by last variable
    bare: set[str] = set()  # variables with an occurrence outside commutators
    for lit in literals:
        bare |= _bare_vars(lit.left) | _bare_vars(lit.right)
        op = operator.eq if isinstance(lit, Eq) else operator.ne
        truth, test = _combine(
            op,
            _compile_term(lit.left, env, var_pos, cur),
            _compile_term(lit.right, env, var_pos, cur),
        )
        if test is None:
            holds = holds and truth
            continue
        levels = sorted({var_pos[v] for v in free_vars(lit)})
        last = levels[-1]
        prefix = None if levels == list(range(last + 1)) else levels[:-1]
        checks[last].append((test, prefix, sum(1 << k for k in levels)))

    blind = [v not in bare for v in variables]

    def search(ball, reps):
        if not holds:
            return None
        elems = [e for e, _word in ball]
        size = len(elems)
        domains = [reps if b else range(size) for b in blind]
        values = [0] * nvars  # the ball position chosen for each variable
        memos = [[None if prefix is None else {} for _, prefix, _ in level] for level in checks]

        def descend(level: int):
            """None once cur/values satisfy every literal, else the bit mask
            of the variables that the failures below level depend on."""
            tests = []
            for (test, prefix, conflict), memo in zip(checks[level], memos[level]):
                row = None
                if prefix is not None:
                    key = tuple([values[k] for k in prefix])
                    row = memo.get(key)
                    if row is None:
                        row = memo[key] = [None] * size
                tests.append((test, row, conflict))
            last = level + 1 == nvars
            bit = 1 << level
            union = 0
            for pos in domains[level]:
                values[level] = pos
                cur[level] = elems[pos]
                for test, row, conflict in tests:
                    if row is None:
                        ok = test()
                    else:
                        ok = row[pos]
                        if ok is None:
                            ok = row[pos] = test()
                    if not ok:
                        union |= conflict  # it has this level's bit: go on
                        break
                else:
                    if last:
                        return None
                    below = descend(level + 1)
                    if below is None:
                        return None
                    union |= below
                    if not below & bit:
                        # every failure below is independent of this variable
                        break
            return union & ~bit

        if nvars and descend(0) is not None:
            return None
        return list(values)

    return search


def _search_ball(f, env: GroupEnv, bound: int, negate: bool) -> Verdict:
    """The first assignment over the ball satisfying the (negated, if
    ``negate``) matrix of f, as a violated (holds) Verdict; else an
    inconclusive one.  Every disjunct is compiled first, so an unknown
    constant anywhere in the matrix raises UnresolvedNameError, also where
    no search would evaluate it."""
    blocks, matrix = _peel_quantifiers(f)
    variables = [v for _, vs in blocks for v in vs]
    ball = env.ball(bound)
    searches = [
        _compile_conjunction(d, variables, env)
        for d in dnf_disjuncts(matrix, negate=negate)
    ]
    reps = env.representatives(bound)
    for search in searches:
        positions = search(ball, reps)
        if positions is not None:
            picks = [ball[p] for p in positions]
            witness = SearchWitness(
                {v: e for v, (e, _) in zip(variables, picks)},
                {v: w for v, (_, w) in zip(variables, picks)},
            )
            return Verdict("violated" if negate else "holds", "bounded_search", witness, bound)
    return Verdict("inconclusive", "bounded_search", bound=bound)


def refute_universal(f, env: GroupEnv, bound: int) -> Verdict:
    """Search the ball for a falsifying assignment of a universal sentence.

    Sound for refutation; an inconclusive Verdict is not a proof of validity.
    """
    if classify(f) not in ("universal", "quasi_identity", "identity"):
        raise FormulaError("refute_universal requires a universal sentence")
    return _search_ball(f, env, bound, True)


def witness_existential(f, env: GroupEnv, bound: int) -> Verdict:
    """Dual of refute_universal for existential sentences."""
    if classify(f) not in ("existential", "primitive"):
        raise FormulaError("witness_existential requires an existential sentence")
    return _search_ball(f, env, bound, False)


# ---------------------------------------------------------------------------
# Builtin sentences


def _ct(n: int) -> str:
    """CT(n): commutativity is transitive wherever the left-normed chain
    [[w1,w2],...,x2] is nontrivial, i.e. off the n-th upper central subgroup."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_DEPTH:  # the chain alone nests too deep: spare writing it
        raise _TooDeep()
    ws = [f"w{i}" for i in range(1, n + 1)]
    chain = reduce("[{},{}]".format, ws + ["x2"])
    quantified = ",".join(["x1", "x2", "x3", *ws])
    return f"forall {quantified} ( {chain}!=1 & [x1,x2]=1 & [x2,x3]=1 -> [x1,x3]=1 )"


def _torsion_free_qi(k: int) -> str:
    if k == 0:
        raise ValueError("k must be nonzero")
    return f"forall x ( x^{k}=1 -> x=1 )"


# Each builtin's text as print_formula writes it; a name that takes an
# integer argument maps to the function that writes its text.
_BUILTINS = {
    "NZCT": "forall x1,x2,x3,y ( [x2,y]!=1 & [x1,x2]=1 & [x2,x3]=1 -> [x1,x3]=1 )",
    "CT": _ct,
    "tau": "forall x1,x2 ( [x2,x1]=1 & [a2,x2]=1 & [x1,a1]=1 -> [x2,a1]=1 | [a2,x1]=1 )",
    "sigma": "forall x1,x2 exists y1,y2 "
    "( [y1,a1]=1 & [a2,y2]=1 & [x2,x1]=[y2,a1] & [x2,x1]=[a2,y1] )",
    "centralizer_qi": "forall x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )",
    "torsion_free_qi": _torsion_free_qi,
    # group-side mirror of the ring sentence: no elements of order two
    "zero_sq_qi": "forall x ( x*x=1 -> x=1 )",
}
_BUILTIN_RE = re.compile(r"([A-Za-z_]+)(\((-?\d+)\))?")


@cache
def builtin(name: str):
    """Named sentence, e.g. ``NZCT``, ``CT(2)`` or ``torsion_free_qi(3)``,
    parsed from its text once per process (the trees are frozen)."""
    m = _BUILTIN_RE.fullmatch(name.strip())
    base, arg = (m.group(1), m.group(3)) if m else (None, None)
    text = _BUILTINS.get(base)
    if isinstance(text, str) and arg is None:
        return parse(text)
    if callable(text) and arg is not None:
        return parse(text(parse_int(arg, FormulaParseError)))
    raise UnresolvedNameError(f"unknown builtin {name!r}")
