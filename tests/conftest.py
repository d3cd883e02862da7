"""Shared oracles and randomized-corpus helpers for the test suite."""

import functools
import itertools
import math
import operator
import random
import re
import types

import pytest

from heislab import formula, nilform, reprs, rings, ut3, zlattice
from heislab.reprs import LameWitness, NzctWitness, SigmaWitness, Verdict
from heislab.rings import RingDesc, RingElem, Retraction, discriminate
from heislab.ut3 import UT3Elem

# The ring family every randomized property in the suite ranges over.
CORPUS_RINGS = ["Z", "Z^2", "Z^3", "Z[theta]"]


# ---------------------------------------------------------------------------
# The element format of the program's answers, as matrices


def matrix(ring: RingDesc, element) -> UT3Elem:
    """The matrix of an element given by its (t12, t23, t13) entry terms,
    the format of ``Representation.product_of_generators``, the witnesses
    and the solutions: every such answer is checked by matrix arithmetic
    through it."""
    t12, t23, t13 = (rings.from_terms(ring, t) for t in element)
    return UT3Elem(ring, t12, t13, t23)


def entry_terms(g: UT3Elem) -> tuple[dict, dict, dict]:
    """The (t12, t23, t13) entry terms of a matrix: ``matrix``'s inverse."""
    return tuple(map(rings.frame_terms, (g.u12, g.u23, g.u13)))


def h_tuple(g: UT3Elem) -> tuple[int, int, int]:
    """The tuple (p, q, r) of H = Class2Law.free(2), a1^p a2^q [a2,a1]^r,
    of an integer matrix with entries (e12, e13, e23) = (q, r, p)."""
    return tuple(rings.frame_terms(x).get((0, ()), 0) for x in (g.u23, g.u12, g.u13))


# ---------------------------------------------------------------------------
# Ring helpers that only tests use


def frame_of(elems) -> rings.Frame:
    """Sorted (component, monomial) coordinates occurring in the elements."""
    return tuple(sorted({(j, e) for x in elems for j, p in enumerate(x.parts) for e, _c in p}))


def is_zero_divisor(r: RingElem) -> bool:
    """True iff r is nonzero and annihilated by some nonzero element.

    Each component is an integral domain, so this happens exactly when r is
    nonzero but vanishes on some component.
    """
    if r.is_zero():
        return False
    return len(r.support) < r.ring.ncomponents


def separate(r: RingElem) -> Retraction:
    """A retraction that does not annihilate the nonzero element r."""
    if r.is_zero():
        raise ValueError("zero has no separating retraction")
    return discriminate([r])


def nonvanishing_point_oracle(groups, names, start: int = 0) -> dict[str, int]:
    """rings.nonvanishing_point by trial substitution: each value from
    ``start`` up is substituted into every element of every group until
    every group keeps a nonzero element, and the next name works on the
    substituted elements."""
    groups = [[r for r in group if not r.is_zero()] for group in groups]
    if not all(groups):
        raise ValueError("every group needs a nonzero element")
    point = {}
    for name in names:
        value = start
        while True:
            images = []
            for group in groups:
                image = [s for r in group if not (s := rings.substitute(r, name, value)).is_zero()]
                if not image:
                    break
                images.append(image)
            else:
                break
            value += 1
        groups = images
        point[name] = value
    return point


def big_powers_by_substitution(rep: reprs.Representation, ut3_targets, name: str):
    """``reprs.big_powers_retraction``'s exponent and printed images by the
    route it replaced, on matrices (``rep.to_ut3`` of its law tuples): the
    entries reach ``rings.nonvanishing_point`` as their ``frame_terms``,
    and each image is the matrix of ``rings.substitute`` of every entry,
    printed by ``str``."""
    groups = [[t.u12, t.u13, t.u23] for t in ut3_targets]
    terms = [list(map(rings.frame_terms, g)) for g in groups]
    n = rings.nonvanishing_point(rep.ring, terms, [name], start=1)[0][name]
    images = [str(UT3Elem(rep.ring, *(rings.substitute(e, name, n) for e in g))) for g in groups]
    return n, images


def on_free_law(targets, n: int | None = None):
    """NilForms as nilform.discriminate_to_H and
    DiscriminationCertificate.verify read them: the law Class2Law.free(n),
    n the forms' rank unless there are none, and each form's tuple e + f."""
    targets = list(targets)
    law = ut3.Class2Law.free(targets[0].n if targets else n)
    return law, [t.e + t.f for t in targets]


def h_hom(extra_images) -> nilform.Hom:
    """The retraction a certificate stands for, as a Hom onto UT3Elems over
    Z: a1 and a2 fixed and a_k -> a1^p a2^q [a2,a1]^r, the matrix (q, r, p)."""
    images = [ut3.a1(rings.Z), ut3.a2(rings.Z)] + [ut3.elem(rings.Z, q, r, p) for p, q, r in extra_images]
    return nilform.Hom(images, ut3.identity(rings.Z))


def verify_oracle(cert, targets) -> bool:
    """DiscriminationCertificate.verify on NilForms, through ``h_hom``."""
    hom = h_hom(cert.extra_images)
    images = [hom(t) for t in targets]
    return list(cert.target_images) == list(map(h_tuple, images)) and not any(g.is_identity() for g in images)


def discriminate_to_H_generic(targets):
    """nilform.discriminate_to_H by multiplying out a generic Hom: each
    target goes through the retraction a_k -> (q_k, r_k, p_k) over
    Z[p3, q3, r3, ...] by UT3Elem and RingElem arithmetic,
    ``rings.nonvanishing_point`` picks the exponents from the images'
    entries, and ``h_hom`` gives the target images.  Returns the generic
    entries [[e12, e13, e23], ...], the extra images and the target images."""
    n = targets[0].n
    extras = range(3, n + 1)
    names = [f"{v}{k}" for k in extras for v in "pqr"]
    ring = RingDesc((tuple(names),))
    x = {v: RingElem.var(ring, v) for v in names}
    generic = nilform.Hom(
        [ut3.a1(ring), ut3.a2(ring)]
        + [UT3Elem(ring, x[f"q{k}"], x[f"r{k}"], x[f"p{k}"]) for k in extras],
        ut3.identity(ring),
    )
    entries = [[g.u12, g.u13, g.u23] for g in map(generic, targets)]
    point, _ = rings.nonvanishing_point(ring, [list(map(rings.frame_terms, g)) for g in entries], names)
    exps = tuple((point[f"p{k}"], point[f"q{k}"], point[f"r{k}"]) for k in extras)
    return entries, exps, tuple(map(h_hom(exps), targets))


# ---------------------------------------------------------------------------
# Bracket-depth readers (reprs and rings now read configs and tuple literals
# from the formats' own facts, without tracking bracket depth)


def split_tuple_oracle(tokens: list[str]) -> list[list[str]] | None:
    """Split ``( ... , ... )`` at top-level commas; None if not a tuple."""
    if not tokens or tokens[0] != "(" or tokens[-1] != ")":
        return None
    depth = 0
    parts: list[list[str]] = [[]]
    for tok in tokens[1:-1]:
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                return None
        if tok == "," and depth == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    if depth != 0 or len(parts) < 2:
        return None
    return parts


def parse_elem_oracle(ring: RingDesc, text: str) -> RingElem:
    """rings.parse_elem with tuples found by bracket depth."""
    terms = rings._flat_terms(ring, text)
    if terms is not None:
        return rings.from_terms(ring, terms)
    tokens = rings._tokenize(text)
    parts = split_tuple_oracle(tokens)
    if parts is not None:
        if len(parts) != ring.ncomponents:
            raise rings.RingParseError(
                f"tuple has {len(parts)} entries, ring has {ring.ncomponents} components"
            )
        return RingElem(
            ring,
            tuple(
                rings._parse_poly(part, names, j, f"trailing tokens in component {j + 1}")
                for j, (part, names) in enumerate(zip(parts, ring.components))
            ),
        )
    polys = {}
    for j, names in enumerate(ring.components):
        if names not in polys:
            polys[names] = rings._parse_poly(tokens, names, j, "trailing tokens in expression")
    return RingElem(ring, tuple(polys[names] for names in ring.components))


class _TermRulesOracle(formula._Parser):
    """formula._Parser with its term rules read through ``peek``/``next``,
    heights made by ``node`` and a fresh leaf per token."""

    def term(self):
        out, height = self.factor()
        while self.peek() == "*":
            self.next()
            right, rh = self.factor()
            out, height = self.node(formula.TMul(out, right), height, rh)
        return out, height

    def factor(self):
        out, height = self.base()
        while self.peek() == "^":
            self.next()
            out, height = self.node(formula.TPow(out, self._integer()), height)
        return out, height

    def _integer(self) -> int:
        tok = self.next()
        sign = 1
        if tok == "-":
            sign, tok = -1, self.next()
        if tok.isdigit():
            return sign * rings.parse_int(tok, formula.FormulaParseError)
        raise formula.FormulaParseError(f"expected integer exponent, got {tok!r}")

    def base(self):
        tok = self.next()
        if tok == "1":
            return self.node(formula.One())
        if tok == "@":
            name = self.next()
            if not formula._IDENT_RE.fullmatch(name):
                raise formula.FormulaParseError(f"bad constant name {name!r}")
            return self.node(formula.Const(name))
        if tok == "[":
            left, lh = self.group(self.term)
            self.expect(",")
            right, rh = self.group(self.term)
            self.expect("]")
            return self.node(formula.TComm(left, right), lh, rh)
        if tok == "(":
            out, height = self.group(self.term)
            self.expect(")")
            return out, height
        if tok in ("a1", "a2"):
            return self.node(formula.Const(tok))
        if formula._IDENT_RE.fullmatch(tok) and tok not in ("forall", "exists"):
            return self.node(formula.Var(tok))
        if tok.isdigit():
            raise formula.FormulaParseError(f"integer {tok!r} is not a group term (only 1 is)")
        raise formula.FormulaParseError(f"unexpected token {tok!r}")


def parse_term_oracle(text: str):
    """formula.parse_term through ``_TermRulesOracle``."""
    p = _TermRulesOracle(text)
    out, _ = p.term()
    if p.peek() is not None:
        raise formula.FormulaParseError(f"trailing input at {p.offset()}")
    return out


def parse_oracle(text: str):
    """formula.parse through ``_TermRulesOracle``."""
    p = _TermRulesOracle(text)
    out, _ = p.sentence()
    if p.peek() is not None:
        raise formula.FormulaParseError(f"trailing input at {p.offset()}")
    return out


def _split_top_commas(text: str) -> list[str]:
    parts = []
    depth = start = 0
    for m in re.finditer(r"[(\[{)\]},]", text):
        ch = m.group()
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise reprs.ConfigError("unbalanced brackets")
        elif depth == 0:  # a top-level comma
            parts.append(text[start : m.start()].strip())
            start = m.end()
    parts.append(text[start:].strip())
    return parts


def _balanced_block(text: str, start: int) -> tuple[str, int]:
    """The contents of the brace block opening at the first non-space
    character from text[start] on, and the index after its closing brace."""
    start = re.compile(r"\s*").match(text, start).end()
    if start >= len(text) or text[start] != "{":
        raise reprs.ConfigError("expected '{'")
    depth = 0
    for m in re.compile(r"[{}]").finditer(text, start):
        depth += 1 if m.group() == "{" else -1
        if depth == 0:
            return text[start + 1 : m.start()], m.end()
    raise reprs.ConfigError("unterminated '{' block")


def parse_elem_block_oracle(ring: RingDesc, body: str) -> UT3Elem:
    entries = {}
    for item in _split_top_commas(body):
        if not item:
            continue
        key, sep, value = item.partition(":")
        key = key.strip()
        if not sep or key not in ("e12", "e13", "e23"):
            raise reprs.ConfigError(f"bad entry {item!r} (want e12/e13/e23)")
        if key in entries:
            raise reprs.ConfigError(f"duplicate entry {key}")
        entries[key] = parse_elem_oracle(ring, value.strip())
    zero = RingElem.zero(ring)
    return UT3Elem(ring, entries.get("e12", zero), entries.get("e13", zero), entries.get("e23", zero))


def parse_config_oracle(text: str) -> reprs.Representation:
    """reprs.parse_config with blocks and entries found by bracket depth."""
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    fields: dict[str, str] = {}
    pos = 0
    while text[pos:].strip():
        m = re.compile(r"\s*(\w+)\s*:[ \t]*([^\n]*)").match(text, pos)
        if not m:
            raise reprs.ConfigError(f"unexpected text {text[pos:].strip()[:30]!r}")
        key = m.group(1)
        if key not in ("ring", "full_center", "generators"):
            raise reprs.ConfigError(f"unknown key {key!r}")
        if key in fields:
            raise reprs.ConfigError(f"duplicate key {key!r}")
        if key == "generators":
            fields[key], pos = _balanced_block(text, m.start(2))
        else:
            fields[key], pos = m.group(2).strip(), m.end()
    if "ring" not in fields:
        raise reprs.ConfigError("missing 'ring:' line")
    try:
        ring = rings.parse_ring(fields["ring"])
    except rings.RingParseError as exc:
        raise reprs.ConfigError(str(exc)) from exc
    full_center = fields.get("full_center", "false")
    if full_center not in ("true", "false"):
        raise reprs.ConfigError("full_center must be true or false")
    extra: dict[str, UT3Elem] = {}
    body = fields.get("generators", "")
    pos = 0
    while body[pos:].replace(",", " ").strip():  # until only \s blanks and commas remain
        nm = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)\s*:").match(body, pos)
        if not nm:
            raise reprs.ConfigError(f"bad generator syntax near {body[pos:pos+30]!r}")
        name = nm.group(1)
        if name in extra or name in ("a1", "a2"):
            raise reprs.ConfigError(f"duplicate or reserved generator name {name!r}")
        block, pos = _balanced_block(body, nm.end())
        try:
            extra[name] = parse_elem_block_oracle(ring, block)
        except rings.RingParseError as exc:
            raise reprs.ConfigError(f"generator {name!r}: {exc}") from exc
        pos = re.compile(r"\s*,?").match(body, pos).end()
    return reprs.representation(ring, extra, full_center == "true")


# ---------------------------------------------------------------------------
# Per-entry config reader (reprs.parse_config reads entries into terms)


def parse_config_per_entry(text: str) -> reprs.Representation:
    """reprs.parse_config as it read configs before its term reader: each
    entry literal, e12, e13 then e23, into a ring element and a UT3Elem,
    and the matrices given to reprs.representation.  The literals go
    through the recursive descent, which gives parse_elem's element and
    error on every text, so no flat reader takes part."""
    ring, full_center, generators = reprs._config_parts(text)
    zero = RingElem.zero(ring)
    extra = {}
    for name, texts in generators:
        try:
            entries = [
                rings.from_terms(ring, rings._parse_tokens(ring, texts[k])) if k in texts else zero
                for k in ("e12", "e13", "e23")
            ]
        except rings.RingParseError as exc:
            raise reprs.ConfigError(f"generator {name!r}: {exc}") from exc
        extra[name] = UT3Elem(ring, *entries)
    return reprs.representation(ring, extra, full_center)


def law_oracle(rep: reprs.Representation):
    """(f12, f23, f13, law tuples) read off rep's generator matrices entry
    by entry, by frame_of and frame_coords, as Representation read them
    before it read its terms."""
    gens = [g for _, g in rep.generators]
    f12 = frame_of(g.u12 for g in gens)
    f23 = frame_of(g.u23 for g in gens)
    products = {(c, tuple(a + b for a, b in zip(e, e2))) for c, e in f12 for c2, e2 in f23 if c == c2}
    f13 = tuple(sorted(products | set(frame_of(g.u13 for g in gens))))
    index = [{m: k for k, m in enumerate(f)} for f in (f12, f23, f13)]
    law = tuple(
        sum((rings.frame_coords(i, x) for i, x in zip(index, (g.u12, g.u23, g.u13))), ())
        for g in gens
    )
    return f12, f23, f13, law


def _reading(read, text: str):
    try:
        return read(text)
    except Exception as exc:  # both readers must raise the same
        return type(exc).__name__, str(exc)


def config_readings(text: str):
    """What reprs.parse_config and the per-entry oracle read from text: the
    ring, the flag, (f12, f23, f13, law tuples) and the named matrices, or
    the exception's type and message."""

    def read(text):
        rep = reprs.parse_config(text)
        law = (rep.f12, rep.f23, rep.f13, rep.law_generators)  # before any matrix is made
        return rep.ring, rep.full_center, law, rep.generators

    def read_per_entry(text):
        rep = parse_config_per_entry(text)
        return rep.ring, rep.full_center, law_oracle(rep), rep.generators

    return _reading(read, text), _reading(read_per_entry, text)


# ---------------------------------------------------------------------------
# Brute-force 3x3 matrix oracle (independent of ut3's closed forms)


def to_full_matrix(g: UT3Elem):
    one = RingElem.one(g.ring)
    zero = RingElem.zero(g.ring)
    return [
        [one, g.u12, g.u13],
        [zero, one, g.u23],
        [zero, zero, one],
    ]


def matmul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), start=RingElem.zero(a[i][0].ring))
            for j in range(n)
        ]
        for i in range(n)
    ]


def from_full_matrix(ring, m) -> UT3Elem:
    return UT3Elem(ring, m[0][1], m[0][2], m[1][2])


def oracle_mul(g: UT3Elem, h: UT3Elem) -> UT3Elem:
    return from_full_matrix(g.ring, matmul(to_full_matrix(g), to_full_matrix(h)))


def product_oracle(rep: reprs.Representation, exponents) -> UT3Elem:
    """prod_k g_k^{c_k} in generator order by matrix arithmetic (UT3Elem
    products and powers), beside the class-2 coordinates that
    Representation.product_of_generators multiplies."""
    out = ut3.identity(rep.ring)
    for (_, g), c in zip(rep.generators, exponents):
        if c:
            out = out * g.pow_int(c)
    return out


class ElementLaw:
    """The law of a GroupEnv whose elements carry their own group methods,
    __mul__, inv(), pow_int() and comm(): the oracle beside
    ut3.Class2Law, with ``UT3Elem``s (``ut3_env``) or ``NilForm``s.
    ``coset_key`` maps an element to its class modulo the central block."""

    def __init__(self, identity, coset_key):
        self.identity = identity
        self.coset_key = coset_key

    mul = operator.mul
    inv = operator.methodcaller("inv")
    pow_int = staticmethod(lambda x, n: x.pow_int(n))
    comm = staticmethod(lambda x, y: x.comm(y))

    def right_mul(self, g):
        return lambda x: x * g


def ut3_env(rep: reprs.Representation) -> formula.GroupEnv:
    """The group environment over the matrices themselves: UT3Elem and
    RingElem arithmetic, which Representation.env's integer class-2
    coordinates replace.  Two matrices differ by a central factor exactly
    when their (1,2) and (2,3) entries agree."""
    law = ElementLaw(ut3.identity(rep.ring), lambda g: (g.u12, g.u23))
    return formula.GroupEnv(law, rep.generators)


def shortlex_firsts(env: formula.GroupEnv, bound: int) -> tuple[list, list]:
    """GroupEnv.ball(bound) and the pairs of GroupEnv.class_ball(bound)
    without a breadth-first walk: every word of length <= bound in
    shortlex order, the letters being each generator and then its inverse,
    evaluated by law.mul, keeping the first word of each element and of
    each coset_key.  A BFS word is its element's shortlex-least word, so
    the lists agree with the walks pair for pair, words included."""
    law = env.law
    letters = []
    for name, g in env.generators:
        letters += [(name, g), (name + "^-1", law.pow_int(g, -1))]
    elements, classes = {}, {}
    for length in range(bound + 1):
        for word in itertools.product(letters, repeat=length):
            e = functools.reduce(law.mul, (g for _, g in word), env.identity)
            text = "*".join(name for name, _ in word) or "1"
            elements.setdefault(e, text)
            classes.setdefault(law.coset_key(e), (e, text))
    return list(elements.items()), list(classes.values())


def classes_two_pass(env: formula.GroupEnv, bound: int) -> list:
    """GroupEnv.classes as a list of (coset_key, positions) pairs, in two
    passes over the ball: the distinct keys in the order they first
    appear, then the positions of each key."""
    keys = [env.law.coset_key(e) for e, _ in env.ball(bound)]
    return [
        (key, [p for p, k in enumerate(keys) if k == key]) for key in dict.fromkeys(keys)
    ]


def first_by_brute_force(literals, variables, env: formula.GroupEnv, ball):
    """The ball positions of the first tuple of ball elements, in
    lexicographic order, that satisfies every literal under eval_qf: the
    bounded search with no commuting rows, pins or blind variables.  A
    prefix is dropped as soon as a literal on its variables alone is false,
    since every extension of it fails that literal too.  The first
    completion of a prefix depends only on the prefix's values of the
    variables that the later literals read, so it is found once for each
    such tuple of values."""
    by_level = [[] for _ in variables]  # each literal at its last variable
    for lit in literals:
        names = formula.free_vars(lit)
        if not names:
            if not formula.eval_qf(lit, env, {}):
                return None
            continue
        by_level[max(variables.index(v) for v in names)].append(lit)
    # reads[level]: the earlier variables read by the literals at level on
    reads = [()] * (len(variables) + 1)
    for level in reversed(range(len(variables))):
        names = set(reads[level + 1]).union(*map(formula.free_vars, by_level[level]))
        reads[level] = tuple(v for v in variables[:level] if v in names)
    assignment, completions = {}, {}

    def scan(level):
        if level == len(variables):
            return ()
        key = (level,) + tuple(assignment[v] for v in reads[level])
        if key not in completions:
            completions[key] = None
            for p, (e, _) in enumerate(ball):
                assignment[variables[level]] = e
                if all(formula.eval_qf(lit, env, assignment) for lit in by_level[level]):
                    found = scan(level + 1)
                    if found is not None:
                        completions[key] = (p,) + found
                        break
        return completions[key]

    return scan(0)


def refute_by_brute_force(f, env: formula.GroupEnv, bound: int) -> Verdict:
    """formula.refute_universal with first_by_brute_force as the search of
    each disjunct of the negated matrix."""
    blocks, matrix = formula._peel_quantifiers(f)
    variables = [v for _, vs in blocks for v in vs]
    ball = env.ball(bound)
    for literals in formula.dnf_disjuncts(matrix, negate=True):
        positions = first_by_brute_force(literals, variables, env, ball)
        if positions is not None:
            picks = [ball[p] for p in positions]
            witness = formula.SearchWitness(
                {v: e for v, (e, _) in zip(variables, picks)},
                {v: w for v, (_, w) in zip(variables, picks)},
            )
            return Verdict("violated", "bounded_search", witness, bound)
    return Verdict("inconclusive", "bounded_search", bound=bound)


# ---------------------------------------------------------------------------
# Row-reduction oracles (zlattice's kernel starts each row update at the
# pivot column and has a shortcut for the first coordinates)


def row_reduce_oracle(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """zlattice._row_reduce as first written: the same row operations in
    the same order, each row update over the whole row."""
    n = len(rows)
    dim = len(rows[0]) if rows else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for col in range(dim):
        while True:
            pivots = [i for i in range(r, n) if rows[i][col] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: (abs(rows[i][col]), i))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, n):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[r][col]
                    for j in range(dim):
                        rows[i][j] -= q * rows[r][j]
                    for j in range(n):
                        U[i][j] -= q * U[r][j]
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if r < n and rows[r][col] != 0:
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
                U[r] = [-x for x in U[r]]
            for i in range(r):
                q = rows[i][col] // rows[r][col]
                if q:
                    for j in range(dim):
                        rows[i][j] -= q * rows[r][j]
                    for j in range(n):
                        U[i][j] -= q * U[r][j]
            r += 1
    return rows, U


def intersect_coordinate_zero_general(L: zlattice.Lattice, coords) -> zlattice.Lattice:
    """zlattice.intersect_coordinate_zero without its shortcut for the first
    coordinates: the left kernel of the basis restricted to ``coords``,
    brought to HNF, with the transform composed over L's source vectors."""
    coords = sorted(set(coords))
    if not L.basis or not coords:
        return L
    kernel = zlattice.left_kernel([[row[c] for c in coords] for row in L.basis])
    if not kernel:
        return zlattice.Lattice(L.ambient_dim, (), ())
    rows, U2 = row_reduce_oracle([zlattice.combine(k, L.basis, L.ambient_dim) for k in kernel])
    basis = [tuple(row) for row in rows if any(row)]
    nsrc = len(L.transform[0])
    srcs = [zlattice.combine(k, L.transform, nsrc) for k in kernel]
    transform = tuple(tuple(zlattice.combine(u, srcs, nsrc)) for u in U2[: len(basis)])
    return zlattice.Lattice(L.ambient_dim, tuple(basis), transform)


# ---------------------------------------------------------------------------
# The tau mask loop (reprs.tau_check walks the masks as a pruned tree)


def tau_check_masks(rep: reprs.Representation) -> Verdict:
    """tau over all 2^k - 2 component masks in increasing order, with no
    pruning and no shortcut in the intersections: the first mask whose U
    and V are both nonzero gives the witness."""
    k = rep.ring.ncomponents
    for mask in range(1, 2**k - 1):
        inside = [j for j in range(k) if mask >> j & 1]
        outside = [j for j in range(k) if not mask >> j & 1]
        u_coords = [c for j in outside for c in reprs._block_coords(rep, 0, j)]
        latU = intersect_coordinate_zero_general(rep.A2, u_coords)
        if latU.rank == 0:
            continue
        v_coords = [c for j in inside for c in reprs._block_coords(rep, 1, j)]
        latV = intersect_coordinate_zero_general(rep.A1, v_coords)
        if latV.rank == 0:
            continue
        y = rep.product_of_generators(latU.transform[0])
        x = rep.product_of_generators(latV.transform[0])
        return Verdict("violated", "exact_lattice", reprs.TauWitness(rep.ring, y, x))
    return Verdict("holds", "exact_lattice")


# ---------------------------------------------------------------------------
# Ring-element views of entry-pair vectors


def pair_det(rep: reprs.Representation, u, v) -> RingElem:
    """det(u, v) = u12*v23 - v12*u23, computed in the ring."""
    u12, u23 = rep.elem_from_coords(u)
    v12, v23 = rep.elem_from_coords(v)
    return u12 * v23 - v12 * u23


def pair_dets(rep: reprs.Representation) -> list[RingElem]:
    """Entry determinants g12*h23 - h12*g23 of the generator pairs, computed
    in the ring, in itertools.combinations order: the (1,3) entries of the
    generator commutators."""
    return [
        g.u12 * h.u23 - h.u12 * g.u23
        for (_, g), (_, h) in itertools.combinations(rep.generators, 2)
    ]


# ---------------------------------------------------------------------------
# Union-frame entry lattices (reprs.entry_lattices reads the law's frames)


def union_frame_lattices(rep: reprs.Representation):
    """A, A1 and A2 over one frame spanning every generator entry and every
    ring-computed pair determinant, in Z^(2d): the coordinates the entry
    lattices had before they moved to the law's frames.  Returns the frame,
    labelled with its block (0: 12-block, 1: 23-block), and the lattices."""
    entries = [x for _, g in rep.generators for x in (g.u12, g.u13, g.u23)]
    frame = frame_of(entries + pair_dets(rep))
    index = {m: i for i, m in enumerate(frame)}
    d = len(frame)
    rows = [
        rings.frame_coords(index, g.u12) + rings.frame_coords(index, g.u23)
        for _, g in rep.generators
    ]
    A = zlattice.hnf(rows, ambient_dim=2 * d)
    A1 = zlattice.intersect_coordinate_zero(A, range(d))
    A2 = zlattice.intersect_coordinate_zero(A, range(d, 2 * d))
    labels = [(0, m) for m in frame] + [(1, m) for m in frame]
    return labels, types.SimpleNamespace(A=A, A1=A1, A2=A2)


# ---------------------------------------------------------------------------
# Ring-element NZCT oracle (reprs.nzct_check decides each candidate on integers)


def domain_or_diagonal(rep: reprs.Representation) -> bool:
    """The ring has one component, or its components are identical and every
    entry of A's basis is the same polynomial on each of them: then the
    group embeds in UT3 of one component, a domain, and NZCT holds."""
    if rep.ring.ncomponents == 1:
        return True

    def diagonal(e: RingElem) -> bool:
        return all(p == e.parts[0] for p in e.parts[1:])

    return len(set(rep.ring.components)) == 1 and all(
        diagonal(x) for v in rep.A.basis for x in rep.elem_from_coords(v)
    )


def nzct_check_ringelem(rep: reprs.Representation, bound: int = 2) -> Verdict:
    """The NZCT search that pairs the small lattice vectors themselves, with
    every determinant computed as a ring element: no rank test and no
    projection layer, only the commuting and ``domain_or_diagonal``
    shortcuts, and no integer determinant form.  Any violation it finds at
    x2 = q in the box, reprs.nzct_check finds at q, at -q or earlier."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if all(pair_det(rep, u, v).is_zero() for u, v in itertools.combinations(rep.A.basis, 2)):
        return Verdict("holds", "exact_lattice")
    if domain_or_diagonal(rep):
        return Verdict("holds", "exact_lattice")
    vectors = [v for v in rep.A.vectors_up_to(bound) if any(v)]

    def line(v):  # the primitive vector on v's line whose first nonzero entry is negative
        g = math.gcd(*v) * (1 if next(x for x in v if x) < 0 else -1)
        return tuple(x // g for x in v)

    @functools.cache
    def entries(u):
        return rep.elem_from_coords(u)

    @functools.cache
    def det_zero(u, w):  # depends on the lines of u and w only, in either order
        (u12, u23), (w12, w23) = entries(u), entries(w)
        return (u12 * w23 - w12 * u23).is_zero()

    lines = [line(v) for v in vectors]

    def commute(i, j):
        return det_zero(*sorted((lines[i], lines[j])))

    indices = range(len(vectors))
    for q in indices:
        parallels = [p for p in indices if commute(p, q)]
        for p, w in itertools.combinations(parallels, 2):
            if commute(p, w):
                continue
            witness_y = next((y for y in indices if not commute(q, y)), None)
            if witness_y is None:
                continue

            def build(i):
                return product_oracle(rep, zlattice.in_source_coordinates(rep.A, vectors[i]))

            witness = NzctWitness(rep.ring, *(entry_terms(build(i)) for i in (q, p, w, witness_y)))
            return Verdict("violated", "exact_lattice", witness, bound=bound)
    return Verdict("inconclusive", "bounded_search", bound=bound)


# ---------------------------------------------------------------------------
# Definitional Lame oracle (a second code path beside reprs.lame_check)


def lame_check_def1(rep: reprs.Representation, bound: int = 3) -> Verdict:
    """The definitional formulation: search elements g of C(a1) u C(a2) and
    test whether g12^2 + g23^2 is zero or a non-zero-divisor.

    Candidates are small lattice vectors of A1 and A2 plus the basis vectors
    of every component-vanishing sublattice (which makes the search complete
    over this ring family while keeping it a genuine second code path)."""
    for lat, block in ((rep.A2, 0), (rep.A1, 1)):
        candidates = list(lat.vectors_up_to(min(bound, 2) if lat.rank > 4 else bound))
        for comp in range(rep.ring.ncomponents):
            sub = zlattice.intersect_coordinate_zero(
                lat, reprs._block_coords(rep, block, comp)
            )
            candidates.extend(sub.basis)
        for vec in candidates:
            u12, u23 = rep.elem_from_coords(vec)
            s = u12 * u12 + u23 * u23
            if not s.is_zero() and is_zero_divisor(s):
                coeffs = zlattice.in_source_coordinates(lat, vec)
                g = product_oracle(rep, coeffs)
                comp_dead = min(
                    set(range(rep.ring.ncomponents)) - set(s.support)
                )
                return Verdict(
                    "violated",
                    "exact_lattice",
                    LameWitness(rep.ring, 2 if block == 0 else 1, entry_terms(g), comp_dead),
                )
    return Verdict("holds", "exact_lattice")


# ---------------------------------------------------------------------------
# Determinant-lattice sigma oracle (reprs.sigma_check reads the generator
# commutators directly)


def sigma_check_dlattice(rep: reprs.Representation) -> Verdict:
    """sigma through the determinant lattice D: the HNF of the frame vectors
    of the ring-computed generator commutator values.  Both (d, 0) and
    (0, d) must lie in the entry-pair lattice for every basis vector d of D;
    a violation names that basis vector, which is only a combination of
    commutator values."""
    dets = pair_dets(rep)
    frame = frame_of(dets)
    index = {m: i for i, m in enumerate(frame)}
    D = zlattice.hnf([rings.frame_coords(index, x) for x in dets], ambient_dim=len(frame))
    for dvec in D.basis:
        value = rings.from_frame(rep.ring, frame, dvec)
        for system, block in (("S", 0), ("T", 1)):
            c = rings.frame_coords(rep.index[block], value)
            if c is not None:
                pad = (0,) * (len(rep.frame) - len(c))
                vec = c + pad if block == 0 else pad + c
            if c is None or not zlattice.member(rep.A, vec):
                witness = SigmaWitness(rep.ring, rings.frame_terms(value), system)
                return Verdict("violated", "exact_lattice", witness)
    return Verdict("holds", "exact_lattice")


# ---------------------------------------------------------------------------
# Appropriateness over every product (reprs.appropriateness_check stops once
# the span stops growing)


def appropriateness_check_products(rep: reprs.Representation, degree_bound: int):
    """The span of every product of at most degree_bound entries, stopping
    only at a layer that adds no product, and the first designated ring
    generator outside it."""
    entries = [RingElem.one(rep.ring)]
    for _, g in rep.generators:
        for entry in (g.u12, g.u13, g.u23):
            if not entry.is_zero() and entry not in entries:
                entries.append(entry)
    products = {RingElem.one(rep.ring): None}  # a set in order of insertion
    layer = list(products)
    for _ in range(degree_bound):
        layer = [q for q in dict.fromkeys(p * e for p in layer for e in entries) if q not in products]
        if not layer:
            break
        products.update(dict.fromkeys(layer))
    products = list(products)
    ring = rep.ring
    # the designated generators: the idempotents of a product, then each
    # indeterminate confined to its component
    targets = [RingElem.idempotent(ring, j) for j in range(ring.ncomponents)] if ring.ncomponents > 1 else []
    for j, names in enumerate(ring.components):
        for name in names:
            var = RingElem.var(RingDesc((names,)), name).parts[0]
            targets.append(RingElem(ring, tuple(var if k == j else () for k in range(ring.ncomponents))))
    frame = frame_of(products + targets)
    index = {m: i for i, m in enumerate(frame)}
    span = zlattice.hnf([rings.frame_coords(index, p) for p in products], ambient_dim=len(frame))

    def variables(x):  # the indeterminates with a positive exponent in x
        return {n for names, p in zip(ring.components, x.parts) for e, _c in p for n, d in zip(names, e) if d}

    entry_vars = set().union(*map(variables, entries))
    for t in targets:
        if not zlattice.member(span, rings.frame_coords(index, t)):
            target_vars = variables(t)
            status = "refuted" if target_vars and not (target_vars & entry_vars) else "inconclusive"
            return reprs.Appropriateness(ring, status, rings.frame_terms(t), degree_bound)
    return reprs.Appropriateness(ring, "confirmed", None, degree_bound)


# ---------------------------------------------------------------------------
# Matrix-built constructions, as reprs built them before it built terms.  A
# representation here is (ring, ((name, UT3Elem), ...), full_center).


def _fresh_name_oracle(gens, stem: str) -> str:
    names = {n for n, _ in gens}
    if stem not in names:
        return stem
    k = 2
    while f"{stem}{k}" in names:
        k += 1
    return f"{stem}{k}"


def adjoin_Y_matrices(ring, gens, full_center, z13: RingElem, name: str | None = None):
    zero = RingElem.zero(ring)
    Y = UT3Elem(ring, z13, zero, zero)
    return ring, gens + ((name or _fresh_name_oracle(gens, "Y"), Y),), full_center


def adjoin_center_matrices(ring, gens, full_center):
    return ring, gens, True


def extend_centralizer_matrices(ring, gens, full_center, i: int, name: str):
    new_ring = rings.adjoin_indeterminate(ring, name)
    new = tuple(
        (n, UT3Elem(new_ring, *(rings.embed(x, new_ring) for x in (g.u12, g.u13, g.u23))))
        for n, g in gens
    )
    theta = RingElem.var(new_ring, name)
    zero = RingElem.zero(new_ring)
    t = UT3Elem(new_ring, zero, zero, theta) if i == 1 else UT3Elem(new_ring, theta, zero, zero)
    return new_ring, new + ((_fresh_name_oracle(gens, "t"), t),), full_center


def serialize_config_matrices(ring, gens, full_center) -> str:
    lines = [f"ring: {ring}"]
    lines.append(f"full_center: {'true' if full_center else 'false'}")
    extra = [(n, g) for n, g in gens if n not in ("a1", "a2")]
    if extra:
        lines.append("generators: {")
        for name, g in extra:
            lines.append(f"  {name}: {{e12: {g.u12}, e13: {g.u13}, e23: {g.u23}}},")
        lines[-1] = lines[-1].rstrip(",")
        lines.append("}")
    else:
        lines.append("generators: {}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random generators


def random_poly_elem(rng: random.Random, ring: RingDesc, coeff_bound: int = 5, degree: int = 2):
    """Random element: each component independently zero or a short polynomial."""
    parts_elem = RingElem.zero(ring)
    for j, names in enumerate(ring.components):
        if rng.random() < 0.4:
            continue  # leave this component zero
        ej = RingElem.idempotent(ring, j)
        comp = RingElem.zero(ring)
        for _ in range(rng.randint(1, 2)):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c == 0:
                c = 1
            term = RingElem.integer(ring, c)
            for name in names:
                for _ in range(rng.randint(0, degree)):
                    if rng.random() < 0.5:
                        term = term * RingElem.var(ring, name)
            comp = comp + term
        parts_elem = parts_elem + ej * comp
    return parts_elem


def random_ut3(rng: random.Random, ring: RingDesc, coeff_bound: int = 5) -> UT3Elem:
    return UT3Elem(
        ring,
        random_poly_elem(rng, ring, coeff_bound),
        random_poly_elem(rng, ring, coeff_bound),
        random_poly_elem(rng, ring, coeff_bound),
    )


def random_representation(rng: random.Random) -> reprs.Representation:
    ring = rings.parse_ring(rng.choice(CORPUS_RINGS))
    extra = {}
    for k in range(rng.randint(0, 3)):  # plus implied a1, a2 -> <= 5 generators
        extra[f"g{k+1}"] = random_ut3(rng, ring)
    return reprs.representation(ring, extra)


def wide_representation(rng: random.Random, ngens: int) -> reprs.Representation:
    """A random representation with ``ngens`` extra generators; about a third
    of them have a single nonzero off-diagonal entry."""
    ring = rings.parse_ring(rng.choice(CORPUS_RINGS))
    zero = RingElem.zero(ring)
    extra = {}
    for k in range(ngens):
        g = random_ut3(rng, ring)
        shape = rng.randrange(3)
        if shape == 1:
            g = UT3Elem(ring, g.u12, g.u13, zero)
        elif shape == 2:
            g = UT3Elem(ring, zero, g.u13, g.u23)
        extra[f"g{k+1}"] = g
    return reprs.representation(ring, extra)


def corpus(n: int, seed: int = 0):
    rng = random.Random(seed)
    return [random_representation(rng) for _ in range(n)]


@pytest.fixture
def rng():
    return random.Random(0)
