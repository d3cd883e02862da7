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

import heapq
import math
import operator
import re
from functools import cache, partial, reduce
from typing import Any, Optional

from .record import Record
from .rings import MAX_DEPTH, parse_int

# ---------------------------------------------------------------------------
# AST


class One(Record):
    pass


class _Pair(Record):
    """The shape of the binary nodes, each its own class."""

    left: Any
    right: Any


class Var(Record):
    name: str


class Const(Record):
    name: str  # a1, a2, or a named group element


class TMul(_Pair):
    pass


class TPow(Record):
    base: Any
    exp: int  # any integer; -1 is the inverse


class TComm(_Pair):
    pass


ONE = One()
A1 = Const("a1")
A2 = Const("a2")


class Eq(_Pair):
    pass


class Ne(_Pair):
    pass


class Not(Record):
    arg: Any


class And(Record):
    items: tuple


class Or(Record):
    items: tuple


class Implies(_Pair):
    pass


class Quant(Record):
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


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    # findall skips what no token matches, so the tokens cover the text up
    # to blanks iff they hold all of its non-blank characters
    if sum(map(len, tokens)) == len("".join(text.split())):
        return tokens
    pos = 0
    while m := _TOKEN_RE.match(text, pos):
        pos = m.end()
    pos = len(text) - len(text[pos:].lstrip())
    raise FormulaParseError(f"bad character at offset {pos}: {text[pos:pos+10]!r}")


class _Parser:
    """Recursive descent over the tokens.  Each rule returns (node, height),
    the number of levels of the node's syntax tree.  A tree taller than
    MAX_DEPTH is a parse error, and so are more than MAX_DEPTH groups open
    at once, so neither this parser nor a later recursion over the tree
    (printer, free_vars, the search) can overflow the stack."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [*_tokenize(text), None]  # None ends the input
        self.i = 0
        self.depth = 0  # groups open around the current token

    def peek(self) -> Optional[str]:
        return self.tokens[self.i]

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaParseError("unexpected end of input")
        self.i += 1
        return tok

    def offset(self) -> int:
        """The current token's offset in the text, or the text's length at
        its end, from a second pass that only error messages pay for."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        return [*starts, len(self.text)][self.i]

    def expect(self, tok: str):
        if (got := self.peek()) != tok:
            raise FormulaParseError(f"expected {tok!r} at offset {self.offset()}, got {got!r}")
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
    # The term rules read ``self.tokens`` directly and count heights inline:
    # every target line of ``discriminate`` and ``bigpowers`` comes through
    # here.  A node's height is 1 + the greatest height below it, as
    # ``node`` gives it.

    def term(self):
        out, height = self.factor()
        tokens = self.tokens
        while tokens[self.i] == "*":
            self.i += 1
            right, rh = self.factor()
            height = 1 + (height if height > rh else rh)
            if height > MAX_DEPTH:
                raise _TooDeep()
            out = TMul(out, right)
        return out, height

    def factor(self):
        out, height = self.base()
        tokens = self.tokens
        while tokens[self.i] == "^":
            self.i += 1
            out = TPow(out, self._integer())
            height += 1
            if height > MAX_DEPTH:
                raise _TooDeep()
        return out, height

    def _integer(self) -> int:
        tokens, i = self.tokens, self.i
        tok, sign = tokens[i], 1
        if tok == "-":
            i += 1
            tok, sign = tokens[i], -1
        if tok is None:
            raise FormulaParseError("unexpected end of input")
        self.i = i + 1
        if tok.isdigit():
            return sign * parse_int(tok, FormulaParseError)
        raise FormulaParseError(f"expected integer exponent, got {tok!r}")

    def base(self):
        tok = self.tokens[self.i]
        if tok is None:
            raise FormulaParseError("unexpected end of input")
        self.i += 1
        if tok == "a1":
            return A1, 1
        if tok == "a2":
            return A2, 1
        if tok == "1":
            return ONE, 1
        if tok == "@":
            name = self.next()
            if not _IDENT_RE.fullmatch(name):
                raise FormulaParseError(f"bad constant name {name!r}")
            return Const(name), 1
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
        if _IDENT_RE.fullmatch(tok) and tok not in ("forall", "exists"):
            return Var(tok), 1
        if tok.isdigit():
            raise FormulaParseError(f"integer {tok!r} is not a group term (only 1 is)")
        raise FormulaParseError(f"unexpected token {tok!r}")


def parse(text: str):
    p = _Parser(text)
    out, _ = p.sentence()
    if p.peek() is not None:
        raise FormulaParseError(f"trailing input at {p.offset()}")
    return out


def parse_term(text: str):
    p = _Parser(text)
    out, _ = p.term()
    if p.peek() is not None:
        raise FormulaParseError(f"trailing input at {p.offset()}")
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

# The most disjuncts a matrix may distribute into: k two-literal clauses
# make 2^k, all built before any search starts.
MAX_DISJUNCTS = 4096


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


def _count_disjuncts(f) -> int:
    """The number of disjuncts ``_distribute`` makes of an NNF formula."""
    if isinstance(f, Or):
        return sum(map(_count_disjuncts, f.items))
    if isinstance(f, And):
        return math.prod(map(_count_disjuncts, f.items))
    return 1


def dnf_disjuncts(matrix, negate: bool = False) -> list[list]:
    if not _is_qf(matrix):
        raise FormulaError("dnf_disjuncts requires a quantifier-free matrix")
    nnf = _nnf_literals(matrix, negate)
    if _count_disjuncts(nnf) > MAX_DISJUNCTS:
        raise FormulaError(f"the matrix has more than {MAX_DISJUNCTS} disjuncts in DNF")
    return _distribute(nnf)


# ---------------------------------------------------------------------------
# Evaluation


class UnresolvedNameError(FormulaError):
    pass


class GroupEnv:
    """Element universe for evaluation and bounded quantifier search.

    ``law`` does the arithmetic: it has an ``identity`` element and
    mul(x, y), right_mul(g) (a function x -> x*g), inv(x), pow_int(x, n),
    comm(x, y) and coset_key(x).  The elements must form a group of
    nilpotency class 2, so that every commutator is central, and be
    hashable, with == as group equality.  Two elements have one coset_key
    exactly when they differ by a factor in N, a central subgroup that
    holds every commutator, so G/N is abelian.  The group must be
    torsion-free: x^d = 1 with d != 0 only for x = 1 (lemma 4 of
    ``_compile_conjunction``).  In the program the law is always a
    ``ut3.Class2Law`` on integer tuples, a representation's
    (``Representation.env``, N the (1,3) block) or the free class-2
    group's (``discriminate``, N the basic commutators), and each such
    group is torsion-free: x^d = 1 makes d*x zero below the central block
    N, so x is in N, where x^d is d*x.

    ``generators`` are (name, element) pairs, a1 and a2 among them; they
    are the letters of the ball's words and the named constants.

    A *center class* is the set of ball elements with one coset_key.
    ``ball``, ``classes`` and ``class_ball`` read one breadth-first walk,
    made once per bound and kind, whose frontier keeps each new element
    for the ball and each new coset_key for the class ball.
    """

    def __init__(self, law, generators: list):
        self.constants = dict(generators)
        if "a1" not in self.constants or "a2" not in self.constants:
            raise ValueError("generators must include a1 and a2")
        self.law = law
        self.identity = law.identity
        self.generators = list(generators)
        self._walks: dict[tuple[int, bool], tuple[list, dict]] = {}

    def _walk(self, bound: int, by_class: bool) -> tuple[list, dict]:
        """``ball`` and ``classes``, or with ``by_class`` ``class_ball``: BFS
        over words in each generator and then its inverse, whose frontier
        keeps each new element, or each new coset_key's first element alone
        (lemma 3 of ``_compile_conjunction``)."""
        if (bound, by_class) in self._walks:
            return self._walks[bound, by_class]
        law = self.law
        letters = []
        for name, g in self.generators:
            letters.append((law.right_mul(g), name))
            letters.append((law.right_mul(law.inv(g)), name + "^-1"))
        coset_key = law.coset_key
        pairs = [(self.identity, "1")]
        classes = {coset_key(self.identity): [0]}
        seen = classes if by_class else {self.identity}  # what the frontier deduplicates
        frontier = pairs[:]
        for _ in range(bound):
            nxt = []
            for e, word in frontier:
                for step, name in letters:
                    e2 = step(e)
                    if (mark := coset_key(e2) if by_class else e2) in seen:
                        continue
                    if by_class:
                        classes[mark] = [len(pairs)]
                    else:
                        seen.add(e2)
                        classes.setdefault(coset_key(e2), []).append(len(pairs))
                    pairs.append((e2, name if word == "1" else word + "*" + name))
                    nxt.append(pairs[-1])
            frontier = nxt
        self._walks[bound, by_class] = pairs, classes
        return pairs, classes

    def ball(self, bound: int) -> list:
        """Distinct elements of word length <= bound over the generators,
        as (element, word) pairs in canonical BFS order."""
        return self._walk(bound, False)[0]

    def classes(self, bound: int) -> dict:
        """The center classes of the ball: each coset_key maps to its ball
        positions in ascending order, in the order of first positions."""
        return self._walk(bound, False)[1]

    def class_ball(self, bound: int) -> tuple[list, dict]:
        """(pairs, classes): the (element, word) pair of the first element
        of each center class of ``ball(bound)``, in class order, and the
        map from each class's coset_key to [its index in pairs]."""
        return self._walk(bound, True)


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
        return env.law.mul(eval_term(t.left, env, assignment), eval_term(t.right, env, assignment))
    if isinstance(t, TPow):
        return env.law.pow_int(eval_term(t.base, env, assignment), t.exp)
    if isinstance(t, TComm):
        return env.law.comm(
            eval_term(t.left, env, assignment), eval_term(t.right, env, assignment)
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


class Verdict(Record):
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


class SearchWitness(Record):
    """The assignment a bounded search found: elements and their words."""

    assignment: dict
    words: dict
    _unhashed = ("assignment", "words")

    def to_dict(self) -> dict:
        return dict(sorted(self.words.items()))


def _built_from(t, leaves) -> bool:
    """Whether t is made of nodes of the types in ``leaves`` by products and
    powers alone.  Made of 1 and commutators, t is central in every class-2
    group."""
    if isinstance(t, TMul):
        return _built_from(t.left, leaves) and _built_from(t.right, leaves)
    if isinstance(t, TPow):
        return _built_from(t.base, leaves)
    return isinstance(t, leaves)


def _exponents(t, sign: int, out: dict) -> dict:
    """Add sign times t's exponent sum of each variable and constant outside
    every commutator to ``out``, keyed by its Var or Const node: t's image
    in the abelian G/N, where every commutator is 1.  A node that occurs
    outside commutators has a key even when its sum is 0."""
    if isinstance(t, (Var, Const)):
        out[t] = out.get(t, 0) + sign
    elif isinstance(t, TMul):
        _exponents(t.left, sign, out)
        _exponents(t.right, sign, out)
    elif isinstance(t, TPow):
        _exponents(t.base, sign * t.exp, out)
    return out


def _to_one(t, ones):
    """t, a term or an Eq/Ne literal, with each Var in ``ones`` replaced by 1."""
    if isinstance(t, Var):
        return ONE if t in ones else t
    if isinstance(t, TPow):
        return TPow(_to_one(t.base, ones), t.exp)
    if isinstance(t, (TMul, TComm, Eq, Ne)):
        return type(t)(_to_one(t.left, ones), _to_one(t.right, ones))
    return t


def _fold_powers(literals) -> list:
    """The literals with each *power literal*, whose sides are made of one
    variable x and 1 by products and powers, folded by lemma 4 of
    ``_compile_conjunction``.  With d the net exponent of x, an Eq becomes
    1=1 and, if d != 0, sets x to 1 in every literal; an Ne becomes x!=1
    if d != 0, else 1!=1."""
    ones = set()
    folded = []
    for lit in literals:
        if _built_from(lit.left, (One, Var)) and _built_from(lit.right, (One, Var)):
            exponents = _exponents(lit.right, -1, _exponents(lit.left, 1, {}))
            if len(exponents) == 1:
                ((x, d),) = exponents.items()
                if d and isinstance(lit, Eq):
                    ones.add(x)
                lit = type(lit)(x if d else ONE, ONE)
        folded.append(lit)
    return [_to_one(lit, ones) for lit in folded] if ones else folded


def _commutator_sides(lit):
    """(u, v) when lit is [u,v]=1 or [u,v]!=1, either way round, with u and
    v each a variable or a constant and not one variable twice; else None."""
    for side, other in ((lit.left, lit.right), (lit.right, lit.left)):
        if isinstance(other, One) and isinstance(side, TComm):
            u, v = side.left, side.right
            if isinstance(u, (Var, Const)) and isinstance(v, (Var, Const)) and u != v:
                return u, v
    return None


def _set_bits(mask: int):
    """The positions of mask's set bits, in increasing order."""
    bits = bin(mask)[:1:-1]  # bit i at index i
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


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
    law = env.law
    if isinstance(t, TPow):
        base, fn = _compile_term(t.base, env, var_pos, cur)
        exp, pow_int = t.exp, law.pow_int
        if fn is None:
            return pow_int(base, exp), None
        return None, lambda: pow_int(fn(), exp)
    if not isinstance(t, (TMul, TComm)):
        raise TypeError(f"not a term: {t!r}")
    left = _compile_term(t.left, env, var_pos, cur)
    right = _compile_term(t.right, env, var_pos, cur)
    if isinstance(t, TMul):
        return _combine(law.mul, left, right)
    if _built_from(t.left, (One, TComm)) or _built_from(t.right, (One, TComm)):
        return env.identity, None
    return _combine(law.comm, left, right)


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
    (search, blind).  search(ball, classes) gives the ball positions of the
    first assignment, in canonical (lexicographic) order, that makes every
    literal true, or None.  ``classes`` is ``env.classes`` of the ball; the
    search numbers the center classes 0, 1, ... in its order.  ``blind``
    tells whether every variable is blind (below): then the search may be
    given ``env.class_ball`` instead, and finds the same elements and
    words (lemma 3).

    Literals without variables are decided here, once, before any ball is
    built: search is None when one of them is false.  With the commutator
    fold of ``_compile_term`` this decides CT(n >= 2), whose chain
    compiles to 1.  Power literals are folded first (``_fold_powers``,
    lemma 4 below), which decides the negated ``zero_sq_qi``, x*x=1 &
    x!=1, and ``torsion_free_qi(k)`` the same way.  Every other literal is
    checked at the level of its last variable, in one of three ways.

    - A *row literal* [u,v]=1 or [u,v]!=1, whose sides u and v are each a
      variable or a constant, is decided per center class (lemma 1
      below).  Its *commuting row*, kept per class of the other side and
      shared by all row literals, records the classes known to commute
      with that side, as a dict and as int bitmasks over class indices.
      On entering a level, the classes known to fail its row literals are
      masked out, in the order of the other side's level, constants first.
      A candidate whose class is not yet known fills that class's entry
      with one ``law.comm``, so a row is filled one class at a time, and
      only for the candidates the walk reaches.  A pair evaluated for a
      variable's row also fills the mirror entry, in the row of the
      candidate's class, since x and y commute exactly when y and x do.
      Class 0 holds the identity and is central, so every row starts
      with it known.
    - A *pin* masks the candidates of an Eq literal t=s in which the last
      variable x has a net exponent d != 0 outside commutators down to
      the classes whose d-th power lies in the class of the other factors'
      inverse (lemma 2).  The literal is then also checked as below, for
      its central part.
    - Every other literal becomes a closure over the list of chosen
      elements and is called on each candidate that the masks keep.  Its
      memo holds one row of truth values per choice of its other
      variables' ball positions, indexed by its last variable's position;
      a literal on every variable so far never repeats, so it has no memo.

    Candidates are walked in increasing position and a mask removes only
    candidates that fail a literal, so the masks change no first
    assignment.  Conflict-directed backjumping skips a variable's
    remaining values when no failure below involved it -- this keeps
    exhaustive refutation over sizeable balls tractable for four-variable
    sentences.  A mask charges its literal's variables to the failures
    only when it removes a candidate, and a level whose mask empties
    returns at once, charged with the masks applied so far.

    Both lemmas hold in a class-2 group G with N as in ``GroupEnv``.
    *Lemma 1 (class invariance):* for central z, [xz,y] =
    z^-1 x^-1 y^-1 x z y = [x,y], and likewise on the right, so whether x
    and y commute depends only on their center classes.  *Lemma 2
    (pins):* N holds every commutator, so G/N is abelian, and t=s implies
    that the product of f^e over the variables and constants f outside
    the commutators of t*s^-1, with e the net exponent of f, lies in N;
    that is, x^d lies in the class of the other factors' inverse.  As
    (xz)^d = x^d z^d, the class of x^d depends only on the class of x,
    and a pin removes only positions where the literal is false.

    A variable is *blind* when every occurrence of it, on both sides of
    every literal, lies inside a commutator; it ranges over the first
    position of each class only.  This loses no first assignment.
    Multiplying a variable by a central z multiplies each term around it
    by a power of z, and a commutator ignores central factors of its
    sides, so each literal is unchanged when a blind variable is
    multiplied by a central element.  Two elements of one center class
    differ by a central factor, so replacing each blind variable's
    position in a satisfying assignment by the first position of its
    class gives a satisfying assignment that is componentwise no larger,
    hence lexicographically no later: the first satisfying assignment is
    already made of representatives at its blind variables.

    *Lemma 3 (the class ball):* ``class_ball`` lists the first element of
    each class of the ball, in class order, with its ball word.  So when
    every variable is blind, the search over the class ball, where each
    class holds one position, finds the same elements and words.  Proof,
    by induction on shells: call a class's *abelian length* the least word
    length of its image in G/N, which is the least word length of its
    elements, so a class first reached by ``ball`` at shell s has abelian
    length s.  Each of its elements at shell s is e*l for an e at shell
    s-1 whose class has abelian length s-1, and as (ez)l = (el)z, the
    class of e*l depends only on those of e and l.  Within one class, its
    first element r precedes its other members in the frontier, so the
    first element of the class is r*l for the least (frontier index of r,
    letter l) over the first elements r of the classes of abelian length
    s-1.  By induction the class walk's frontier holds exactly those r,
    with the same words and in the same order, so it reaches the same
    classes at shell s, in the same order, with the same first elements
    and words.

    *Lemma 4 (power literals):* a literal whose sides are made of one
    variable x and 1 by products and powers says x^d = 1, where d is x's
    net exponent, since the powers of x commute.  The group is
    torsion-free (``GroupEnv``), so with d != 0 an Eq holds exactly when
    x = 1 and an Ne exactly when x != 1; with d = 0 an Eq always holds and
    an Ne never does.  An Eq with d != 0 leaves x one value, the identity,
    at ball position 0 with word ``1``, so replacing x by 1 in every
    literal keeps each satisfying assignment of the other variables.  x
    then occurs nowhere, so it is blind, and its first value is position
    0: the search finds the same first assignment as before."""
    literals = _fold_powers(literals)
    nvars = len(variables)
    var_pos = {v: k for k, v in enumerate(variables)}
    cur: list = [None] * nvars  # the element chosen for each variable
    holds = True  # every literal without variables is true
    law = env.law
    # by last variable: closures, commuting rows and pins
    checks: list[list] = [[] for _ in range(nvars)]
    rows: list[list] = [[] for _ in range(nvars)]
    pins: list[list] = [[] for _ in range(nvars)]
    bare: set[str] = set()  # variables with an occurrence outside commutators
    for lit in literals:
        exponents = _exponents(lit.right, -1, _exponents(lit.left, 1, {}))
        bare.update(node.name for node in exponents if isinstance(node, Var))
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
        conflict = sum(1 << k for k in levels)
        x = Var(variables[last])
        sides = _commutator_sides(lit)
        if sides is not None:
            other = sides[0] if sides[1] == x else sides[1]
            if isinstance(other, Var):
                rows[last].append((var_pos[other.name], None, isinstance(lit, Ne), conflict))
            else:
                rows[last].append((-1, env.constants[other.name], isinstance(lit, Ne), conflict))
            continue
        prefix = None if levels == list(range(last + 1)) else levels[:-1]
        checks[last].append((test, prefix, conflict))
        d = exponents.get(x, 0)
        if isinstance(lit, Eq) and d:
            fixed = law.identity  # the constant factors, f^e each
            free = []  # (level, e) for the other variables
            for node, e in exponents.items():
                if isinstance(node, Const):
                    fixed = law.mul(fixed, law.pow_int(env.constants[node.name], e))
                elif node != x and e:
                    free.append((var_pos[node.name], e))
            pins[last].append((d, fixed, free, conflict))
    for level_rows in rows:
        level_rows.sort(key=lambda row: row[0])

    blind = [v not in bare for v in variables]
    masked = [bool(r or p) for r, p in zip(rows, pins)]
    mul, inv, pow_int, comm = law.mul, law.inv, law.pow_int, law.comm
    coset_key, identity = law.coset_key, law.identity

    def search(ball, classes):
        elems = [e for e, _word in ball]
        size = len(elems)
        members = list(classes.values())
        reps = [positions[0] for positions in members]
        domains = [reps if b else range(size) for b in blind]
        values = [0] * nvars  # the ball position chosen for each variable
        memos = [[None if prefix is None else {} for _, prefix, _ in level] for level in checks]
        if any(masked):
            class_of = [0] * size  # the class of each position, by index
            for c, positions in enumerate(members):
                for p in positions:
                    class_of[p] = c
            every = (1 << len(members)) - 1  # a mask of class indices
            off: dict = {}  # a negative row key per class off the ball

            def class_key(value) -> int:
                positions = classes.get(coset_key(value))
                if positions is None:
                    return off.setdefault(coset_key(value), -1 - len(off))
                return class_of[positions[0]]

            # (level of the other side, or -1; its key for a constant; its
            # value for a constant; ne; conflict) for each row literal
            level_rows = [
                [(j, j < 0 and class_key(value), value, *rest) for j, value, *rest in level]
                for level in rows
            ]
        # key -> (class -> whether it commutes with key's elements,
        #         [classes known to commute, classes known not to])
        commuting: dict = {}
        powers: dict = {}  # d -> {coset_key(x^d): the classes of such x}

        def row(key):
            """The commuting row of key.  Class 0 holds the identity, so its
            elements are central: each row starts with it known."""
            known = commuting.get(key)
            if known is None:
                if key == 0:
                    known = (dict.fromkeys(range(len(members)), True), [every, 0])
                elif key > 0:
                    known = ({0: True, key: True}, [1 | 1 << key, 0])
                else:
                    known = ({0: True}, [1, 0])
                commuting[key] = known
            return known

        def fill(key, value, c: int, truth: dict, known: list, mirror: bool) -> bool:
            """Whether class c commutes with value, of class key, recorded
            in key's row (truth, known) and, if mirror, in c's."""
            commutes = comm(elems[reps[c]], value) == identity
            truth[c] = commutes
            known[not commutes] |= 1 << c
            if mirror:
                truth, known = commuting.get(c) or row(c)
                truth[key] = commutes
                known[not commutes] |= 1 << key
            return commutes

        def pinned(d: int, fixed) -> int:
            """The classes of the x with x^d * fixed in N."""
            if d in (1, -1):
                positions = classes.get(coset_key(inv(fixed) if d == 1 else fixed))
                return 0 if positions is None else 1 << class_of[positions[0]]
            table = powers.get(d)
            if table is None:
                table = powers[d] = {}
                for c, p in enumerate(reps):
                    key = coset_key(pow_int(elems[p], d))
                    table[key] = table.get(key, 0) | 1 << c
            return table.get(coset_key(inv(fixed)), 0)

        def descend(level: int):
            """None once cur/values satisfy every literal, else the bit mask
            of the variables that the failures below level depend on."""
            bit = 1 << level
            union = 0
            candidates = domains[level]
            active = []  # the rows of this level's row literals
            if masked[level]:
                open_ = every  # the classes still open
                for d, fixed, free, conflict in pins[level]:
                    for j, e in free:
                        fixed = mul(fixed, pow_int(cur[j], e))
                    kept = open_ & pinned(d, fixed)
                    if kept != open_:
                        union |= conflict
                        if not kept:
                            return union & ~bit
                        open_ = kept
                for j, key, value, ne, conflict in level_rows[level]:
                    if j >= 0:
                        key, value = class_of[values[j]], cur[j]
                    truth, known = row(key)
                    kept = open_ & ~known[not ne]  # drop the known failures
                    if kept != open_:
                        union |= conflict
                        if not kept:
                            return union & ~bit
                        open_ = kept
                    active.append((truth, known, key, value, ne, conflict, j >= 0))
                if open_ != every:
                    if blind[level]:
                        candidates = map(reps.__getitem__, _set_bits(open_))
                    else:
                        candidates = heapq.merge(*[members[c] for c in _set_bits(open_)])
            tests = []
            for (test, prefix, conflict), memo in zip(checks[level], memos[level]):
                known = None
                if prefix is not None:
                    key = tuple([values[k] for k in prefix])
                    known = memo.get(key)
                    if known is None:
                        known = memo[key] = [None] * size
                tests.append((test, known, conflict))
            last = level + 1 == nvars
            for pos in candidates:
                values[level] = pos
                cur[level] = elems[pos]
                failed = 0
                if active:
                    c = class_of[pos]
                    for truth, known, key, value, ne, conflict, mirror in active:
                        commutes = truth.get(c)
                        if commutes is None:
                            commutes = fill(key, value, c, truth, known, mirror)
                        if commutes == ne:
                            failed = conflict
                            break
                if not failed:
                    for test, known, conflict in tests:
                        if known is None:
                            ok = test()
                        else:
                            ok = known[pos]
                            if ok is None:
                                ok = known[pos] = test()
                        if not ok:
                            failed = conflict
                            break
                if failed:
                    union |= failed  # it has this level's bit: go on
                    continue
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

        found = not nvars or descend(0) is None
        # descend refers to itself: drop that cycle so that the rows and
        # memos go now, not at the next cyclic garbage collection
        del descend
        return list(values) if found else None

    return (search if holds else None), all(blind)


def _search_ball(f, env: GroupEnv, bound: int, negate: bool) -> Verdict:
    """The first assignment over the ball satisfying the (negated, if
    ``negate``) matrix of f, as a violated (holds) Verdict; else an
    inconclusive one.  Every disjunct is compiled first, so an unknown
    constant anywhere in the matrix raises UnresolvedNameError, also where
    no search would evaluate it.  A disjunct whose variables are all blind
    searches ``env.class_ball``, any other the whole ball; a disjunct
    that a literal without variables decides false, after the commutator
    fold and lemma 4 of ``_compile_conjunction`` (so the negated
    ``zero_sq_qi`` and ``torsion_free_qi(k)``), builds neither."""
    blocks, matrix = _peel_quantifiers(f)
    variables = [v for _, vs in blocks for v in vs]
    searches = [
        _compile_conjunction(d, variables, env)
        for d in dnf_disjuncts(matrix, negate=negate)
    ]
    for search, blind in searches:
        if search is None:
            continue
        ball, classes = env.class_ball(bound) if blind else (env.ball(bound), env.classes(bound))
        positions = search(ball, classes)
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
