"""Exact arithmetic in finite products of multivariate integer polynomial rings.

The ring universe is R = Z[t11,...] x ... x Z[tk1,...]: a finite product of
polynomial rings over Z, each component in finitely many named indeterminates
(possibly none).  Every element has a unique canonical form, equality is
syntactic, and all coefficients are arbitrary-precision Python ints.

Retractions R -> Z factor through a single component (the idempotents must map
to 0 or 1, summing to 1) followed by integer evaluation of the indeterminates,
so they are represented by a component index plus an integer point.  Such
points are chosen one indeterminate at a time by ``nonvanishing_point``: a
nonzero polynomial of degree d in one variable over a domain has at most d
roots, so each value is the least integer outside a few integer root sets
and no search bound is needed.
"""

from __future__ import annotations

import itertools
import re

from .record import Record, setfield

# A polynomial is a sorted tuple of (exponent-vector, coefficient) pairs with
# nonzero coefficients; the exponent vector indexes the component's
# indeterminate list.  Sorting is lexicographic on exponent vectors.
Monomial = tuple[int, ...]
Poly = tuple[tuple[Monomial, int], ...]


class RingMismatchError(ValueError):
    pass


class RingParseError(ValueError):
    pass


# indeterminate names, as ring descriptors and element literals spell them
_IDENT = r"[A-Za-z][A-Za-z0-9]*"

# The deepest nesting an element literal or a formula may have (see README);
# past it both parsers raise a parse error instead of overflowing the stack.
MAX_DEPTH = 100

# The most components a ring descriptor may have; ``Z^N`` builds N of them,
# so past it ``parse_ring`` raises a parse error instead.
MAX_COMPONENTS = 1000


def _canon(terms: dict[Monomial, int]) -> Poly:
    return tuple(sorted((e, c) for e, c in terms.items() if c != 0))


def _padd(p: Poly, q: Poly) -> Poly:
    terms = dict(p)
    for e, c in q:
        terms[e] = terms.get(e, 0) + c
    return _canon(terms)


def _pneg(p: Poly) -> Poly:
    return tuple((e, -c) for e, c in p)


def _pmul(p: Poly, q: Poly) -> Poly:
    if len(q) == 1:
        p, q = q, p
    if len(p) == 1:
        # adding one exponent vector keeps q's terms in lexicographic order
        ((e1, c1),) = p
        return tuple((tuple(a + b for a, b in zip(e1, e2)), c1 * c2) for e2, c2 in q)
    terms: dict[Monomial, int] = {}
    for e1, c1 in p:
        for e2, c2 in q:
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return _canon(terms)


def _ppow(p: Poly, n: int, nvars: int) -> Poly:
    """p^n by repeated squaring, in at most 2*log2(n) + 2 products."""
    if n == 0:
        return _pconst(1, nvars)
    if len(p) == 1:
        ((e, c),) = p
        return ((tuple(n * a for a in e), c**n),)
    half = _ppow(p, n // 2, nvars)
    out = _pmul(half, half)
    return _pmul(out, p) if n % 2 else out


def _pscale(p: Poly, k: int) -> Poly:
    if k == 0:
        return ()
    return tuple((e, k * c) for e, c in p)


def _pconst(c: int, nvars: int) -> Poly:
    if c == 0:
        return ()
    return (((0,) * nvars, c),)


def _peval(p: Poly, point: tuple[int, ...]) -> int:
    total = 0
    for e, c in p:
        v = c
        for exp, x in zip(e, point):
            v *= x**exp
        total += v
    return total


def _psubst(p: Poly, idx: int, value: int) -> Poly:
    """Substitute an integer for the idx-th indeterminate (exponent folded to 0)."""
    terms: dict[Monomial, int] = {}
    for e, c in p:
        e2 = e[:idx] + (0,) + e[idx + 1 :]
        c2 = c * value ** e[idx]
        terms[e2] = terms.get(e2, 0) + c2
    return _canon(terms)


class RingDesc(Record):
    """Descriptor of a finite product of integer polynomial rings.

    ``components[j]`` is the tuple of indeterminate names of the j-th factor;
    Z itself is the descriptor with a single component and no indeterminates.
    """

    components: tuple[tuple[str, ...], ...]

    def __init__(self, components):
        if not components:
            raise ValueError("ring needs at least one component")
        for names in components:
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate indeterminate in component {names}")
        setfield(self, "components", components)

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        parts = []
        for names in self.components:
            parts.append("Z" if not names else "Z[" + ",".join(names) + "]")
        return " x ".join(parts)


Z = RingDesc(((),))


def parse_int(digits: str, error: type[Exception] = RingParseError) -> int:
    """int(digits); a literal past the interpreter's limit on integer string
    conversion raises ``error``, and the limit stays as it is."""
    try:
        return int(digits)
    except ValueError:
        raise error(f"integer literal of {len(digits)} digits is too long") from None


def parse_ring(text: str) -> RingDesc:
    """Parse a ring descriptor: ``Z``, ``Z^k``, ``Z[theta]``, ``Z[t1,t2]``,
    and products joined with ``x`` as in ``Z[theta] x Z``, with at most
    MAX_COMPONENTS components in all."""
    comps: list[tuple[str, ...]] = []
    for factor in re.split(r"\s+x\s+", text.strip()):
        factor = factor.strip()
        m = re.fullmatch(r"Z(\^(\d+))?", factor)
        if m:
            names, k = (), parse_int(m.group(2)) if m.group(2) else 1
            if k < 1:
                raise RingParseError(f"bad power in {factor!r}")
        else:
            m = re.fullmatch(rf"Z\[({_IDENT}(\s*,\s*{_IDENT})*)\]", factor)
            if not m:
                raise RingParseError(f"cannot parse ring factor {factor!r}")
            names, k = tuple(n.strip() for n in m.group(1).split(",")), 1
            if len(set(names)) != len(names):
                raise RingParseError(f"duplicate indeterminate in {factor!r}")
        if len(comps) + k > MAX_COMPONENTS:
            raise RingParseError(f"ring has more than {MAX_COMPONENTS} components")
        comps.extend([names] * k)
    return RingDesc(tuple(comps))


class RingElem(Record):
    """Element of a product ring, one canonical polynomial per component."""

    ring: RingDesc
    parts: tuple[Poly, ...]

    def __init__(self, ring, parts):
        if len(parts) != ring.ncomponents:
            raise ValueError("component count mismatch")
        setfield(self, "ring", ring)
        setfield(self, "parts", parts)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDesc) -> "RingElem":
        return cls(ring, tuple(() for _ in ring.components))

    @classmethod
    def one(cls, ring: RingDesc) -> "RingElem":
        return cls.integer(ring, 1)

    @classmethod
    def integer(cls, ring: RingDesc, n: int) -> "RingElem":
        return cls(ring, tuple(_pconst(n, len(names)) for names in ring.components))

    @classmethod
    def var(cls, ring: RingDesc, name: str) -> "RingElem":
        """The indeterminate ``name`` diagonally in every component (each
        component must carry it)."""
        parts = []
        for names in ring.components:
            if name not in names:
                raise ValueError(f"{name!r} is not an indeterminate of every component")
            i = names.index(name)
            e = tuple(1 if j == i else 0 for j in range(len(names)))
            parts.append(((e, 1),))
        return cls(ring, tuple(parts))

    @classmethod
    def idempotent(cls, ring: RingDesc, component: int) -> "RingElem":
        parts = [
            _pconst(1 if j == component else 0, len(names))
            for j, names in enumerate(ring.components)
        ]
        return cls(ring, tuple(parts))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "RingElem") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return RingElem(self.ring, tuple(_padd(p, q) for p, q in zip(self.parts, other.parts)))

    def __neg__(self) -> "RingElem":
        return RingElem(self.ring, tuple(_pneg(p) for p in self.parts))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return RingElem(self.ring, tuple(_pmul(p, q) for p, q in zip(self.parts, other.parts)))

    def __pow__(self, n: int) -> "RingElem":
        """self^n by repeated squaring in each component."""
        if n < 0:
            raise ValueError("negative power")
        return RingElem(
            self.ring,
            tuple(_ppow(p, n, len(names)) for p, names in zip(self.parts, self.ring.components)),
        )

    def scale(self, k: int) -> "RingElem":
        return RingElem(self.ring, tuple(_pscale(p, k) for p in self.parts))

    def is_zero(self) -> bool:
        return all(p == () for p in self.parts)

    @property
    def support(self) -> frozenset[int]:
        """Component indices where the element is nonzero."""
        return frozenset(j for j, p in enumerate(self.parts) if p != ())

    def uses_var(self, name: str) -> bool:
        for names, p in zip(self.ring.components, self.parts):
            if name in names:
                i = names.index(name)
                if any(e[i] > 0 for e, _ in p):
                    return True
        return False

    def __str__(self) -> str:
        return format_elem(self)


# A frame is a sorted tuple of (component, monomial) coordinates; the elements
# in its Z-span are integer vectors over it.
Frame = tuple[tuple[int, Monomial], ...]


def frame_of(elems) -> Frame:
    """Sorted (component, monomial) coordinates occurring in the elements."""
    return tuple(
        sorted({(j, e) for x in elems for j, p in enumerate(x.parts) for e, _c in p})
    )


def frame_coords(index: dict, elem: RingElem) -> tuple[int, ...] | None:
    """Coordinates of elem over the frame whose positions ``index`` maps;
    None if elem is outside the frame's span."""
    v = [0] * len(index)
    for j, p in enumerate(elem.parts):
        for e, c in p:
            i = index.get((j, e))
            if i is None:
                return None
            v[i] = c
    return tuple(v)


def from_frame(ring: RingDesc, frame: Frame, v) -> RingElem:
    """The element with coordinate vector v over the frame."""
    # the frame is sorted by (component, monomial), so each component's terms
    # come out in canonical order
    parts = [[] for _ in ring.components]
    for x, (j, e) in zip(v, frame):
        if x:
            parts[j].append((e, x))
    return RingElem(ring, tuple(map(tuple, parts)))


class Retraction(Record):
    """A homomorphism R -> Z: project to one component, then evaluate the
    indeterminates at an integer point."""

    component: int
    point: tuple[tuple[str, int], ...]  # sorted (name, value) pairs

    def __init__(self, component, point):
        setfield(self, "component", component)
        setfield(self, "point", point)

    @classmethod
    def of(cls, component: int, assignment: dict[str, int]) -> "Retraction":
        return cls(component, tuple(sorted(assignment.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.point)

    def __str__(self) -> str:
        if not self.point:
            return f"project component {self.component + 1}"
        subst = ", ".join(f"{n}->{v}" for n, v in self.point)
        return f"component {self.component + 1}, {subst}"


def retract(rho: Retraction, r: RingElem) -> int:
    names = r.ring.components[rho.component]
    assignment = rho.as_dict()
    if set(assignment) != set(names):
        raise ValueError("retraction point does not match component indeterminates")
    point = tuple(assignment[n] for n in names)
    return _peval(r.parts[rho.component], point)


# The term format of ``nonvanishing_point`` for a list of names: an element
# is {(component, monomial): nonzero coefficient}, a monomial the sorted
# tuple of its (index, exponent) pairs.  Index i < len(names) stands for
# names[i]; a component's other indeterminates sort last, from len(names) on.


def terms_of(groups, names) -> list[list[dict]]:
    """Groups of ``RingElem``s in the term format for ``names``.  Each
    exponent vector of a list of component names becomes a monomial once
    per call, however many terms share it."""
    position = {name: i for i, name in enumerate(names)}
    known = {}  # component names -> (index of each, {exponent vector: monomial})
    out = []
    for group in groups:
        elems = []
        for r in group:
            terms = {}
            for j, (comp, p) in enumerate(zip(r.ring.components, r.parts)):
                if comp not in known:
                    index = [position.get(x, len(names) + i) for i, x in enumerate(comp)]
                    known[comp] = index, {}
                index, memo = known[comp]
                for e, c in p:
                    mono = memo.get(e)
                    if mono is None:
                        mono = memo[e] = tuple(sorted((index[i], d) for i, d in enumerate(e) if d))
                    terms[j, mono] = c
            elems.append(terms)
        out.append(elems)
    return out


def _split(terms: dict, k: int) -> dict:
    """The slices of an element in names[k] once names[:k] are substituted
    away: one coefficient list, indexed by the degree in names[k], per
    (component, rest of the monomial).  No index below k is left, so
    names[k], where it occurs, leads its monomial and is split off the
    front."""
    out = {}
    for (j, mono), c in terms.items():
        d = mono[0][1] if mono and mono[0][0] == k else 0
        key = (j, mono[1:] if d else mono)
        coeffs = out.get(key)
        if coeffs is None:
            out[key] = coeffs = [0] * (d + 1)
        elif len(coeffs) <= d:
            coeffs.extend([0] * (d + 1 - len(coeffs)))
        coeffs[d] = c
    return out


def _horner(coeffs: list[int], x: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _least_live(sliced, start: int) -> int:
    """The least integer >= start at which every group of sliced elements
    keeps a nonzero slice.

    A group dies at v only if its slice of least degree vanishes there, so
    only that slice's integer roots are checked, each with Horner's rule
    on every slice of the group.  A constant has none.  A line [c0, c1] has
    at most -c0/c1, found at once.  For a higher degree the walk up from
    ``start`` tests each value it reaches: 0 is a root candidate when the
    constant term is 0, and v != 0 when it divides the lowest nonzero
    coefficient (the rational root theorem: an integer root v != 0 of
    x^m * q with q(0) != 0 divides q(0))."""
    lines = {}  # a line's integer root >= start -> the groups it may kill
    curves = []  # (constant term, lowest nonzero coefficient, group)
    for group in sliced:
        c = min((c for s in group for c in s.values()), key=len)
        if len(c) == 2:
            root, rest = divmod(-c[0], c[1])
            if not rest and root >= start:
                lines.setdefault(root, []).append(group)
        elif len(c) > 2:
            curves.append((c[0], next(filter(None, c)), group))

    def dies(group):
        return not any(_horner(c, value) for s in group for c in s.values())

    value = start
    while any(map(dies, lines.get(value, ()))) or any(
        dies(group) for c0, low, group in curves if (not low % value if value else not c0)
    ):
        value += 1
    return value


def _images(sliced, value: int):
    """The groups of sliced elements with the name set to ``value``, in
    the term format, or None as soon as a group has no nonzero element
    left."""
    images = []
    for group in sliced:
        image = []
        for s in group:
            terms = {key: v for key, c in s.items() if (v := _horner(c, value))}
            if terms:
                image.append(terms)
        if not image:
            return None
        images.append(image)
    return images


def nonvanishing_point(groups, names, start: int = 0) -> dict[str, int]:
    """Integer values for ``names`` under which every group keeps a nonzero
    element.

    Each group is a list of elements in the term format above (``terms_of``
    converts ring elements), at least one of them nonzero.  The names are
    assigned in order, each the least integer >= ``start`` after which
    every group, with all earlier names already substituted, still has a
    nonzero element.  With a single name the value is therefore the least
    valid one.

    Each element is split once per name into its slices (``_split``), and
    an element vanishes at a value exactly when each of its slices, a list
    of integer coefficients, vanishes there, which Horner's rule decides
    on plain ints.  So a group dies at v exactly when all of its slices
    vanish at v, and each of its dead values is an integer root of its
    slice of least degree.  The value is read off these root sets
    (``_least_live``): the least integer >= ``start`` in no group's dead
    set, where each candidate root is checked on every slice of its group.
    A loop trying start, start + 1, ... in turn takes exactly the values
    in no dead set, so it would take the same value first.  For every name
    but the last the substituted elements are the slices evaluated once at
    the chosen value, still in the term format; that pass is made at
    ``start`` first, and when it keeps every group alive ``start`` is
    taken with no root looked for.

    Termination and the window (the one-variable case of Alon's
    Combinatorial Nullstellensatz): the least slice of a group is a
    nonzero integer polynomial in the name of some degree d, so it has at
    most d roots and the group at most d dead values.  At most D = the sum
    of these degrees are dead, so one of start, ..., start + D is taken:
    the walk of ``_least_live`` reaches no value above start + D.  D is at
    most the sum over groups of the largest degree of an element in the
    name.
    """
    groups = [[terms for terms in group if terms] for group in groups]
    if not all(groups):
        raise ValueError("every group needs a nonzero element")
    point = {}
    for k, name in enumerate(names):
        sliced = [[_split(terms, k) for terms in group] for group in groups]
        if k == len(names) - 1:
            # the last name: nothing is substituted
            point[name] = _least_live(sliced, start)
            break
        value = start
        groups = _images(sliced, value)
        if groups is None:
            value = _least_live(sliced, start)
            groups = _images(sliced, value)
        point[name] = value
    return point


class DomainFailure(Record):
    """Certificate that no single retraction keeps the requested elements
    nonzero: a pair of nonzero elements whose product is zero."""

    witness: tuple[RingElem, RingElem]

    def __init__(self, witness):
        setfield(self, "witness", witness)


def discriminate(rs: list[RingElem]) -> Retraction | DomainFailure:
    """A retraction keeping every element of rs nonzero, or a DomainFailure.

    Each retraction factors through one component, so it suffices to find
    the first component on which no element vanishes and a point of its
    indeterminates keeping each element nonzero there; the search fails
    exactly when every component annihilates some input.
    """
    if not rs:
        raise ValueError("discriminate needs at least one element")
    ring = rs[0].ring
    for r in rs:
        if r.is_zero():
            raise ValueError("discriminate requires nonzero elements")
        if r.ring != ring:
            raise RingMismatchError("mixed rings")
    for comp, names in enumerate(ring.components):
        if all(comp in r.support for r in rs):
            groups = [
                [RingElem(ring, tuple(p if j == comp else () for j, p in enumerate(r.parts)))]
                for r in rs
            ]
            return Retraction.of(comp, nonvanishing_point(terms_of(groups, names), names))
    # no component works: exhibit an annihilating pair
    for a, b in itertools.combinations(rs, 2):
        if (a * b).is_zero():
            return DomainFailure((a, b))
    e1 = RingElem.idempotent(ring, 0)
    return DomainFailure((e1, RingElem.one(ring) - e1))


def adjoin_indeterminate(ring: RingDesc, name: str) -> RingDesc:
    """Append a fresh indeterminate to every component."""
    if not re.fullmatch(_IDENT, name):
        raise ValueError(f"bad indeterminate name {name!r} (want a letter, then letters or digits)")
    for names in ring.components:
        if name in names:
            raise ValueError(f"{name!r} already an indeterminate")
    return RingDesc(tuple(names + (name,) for names in ring.components))


def embed(elem: RingElem, new_ring: RingDesc) -> RingElem:
    """Coefficientwise embedding into a ring obtained by adjoining
    indeterminates (old names must be a prefix of the new ones)."""
    if new_ring.ncomponents != elem.ring.ncomponents:
        raise RingMismatchError("component count mismatch")
    parts = []
    for old_names, new_names, p in zip(elem.ring.components, new_ring.components, elem.parts):
        if new_names[: len(old_names)] != old_names:
            raise RingMismatchError("old indeterminates are not a prefix of the new ones")
        pad = (0,) * (len(new_names) - len(old_names))
        parts.append(tuple((e + pad, c) for e, c in p))
    return RingElem(new_ring, tuple(parts))


def substitute(elem: RingElem, name: str, value: int) -> RingElem:
    """Substitute an integer for an indeterminate in every component that
    carries it (the ring descriptor is unchanged)."""
    parts = []
    for names, p in zip(elem.ring.components, elem.parts):
        if name in names:
            p = _psubst(p, names.index(name), value)
        parts.append(p)
    return RingElem(elem.ring, tuple(parts))


# -- element literals -------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|[-+*^(),])")


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    # findall skips what no token matches, so the tokens cover the text up
    # to blanks iff they hold all of its non-blank characters
    if sum(map(len, tokens)) == len("".join(text.split())):
        return tokens
    pos = 0
    while m := _TOKEN.match(text, pos):
        pos = m.end()
    raise RingParseError(f"bad character at {text[pos:]!r}")


class _ExprParser:
    """Recursive-descent parser for a polynomial expression over one
    component: every rule returns that component's canonical ``Poly``, and
    ``parse_elem`` assembles the ring element once.  ``component`` only
    names the component in error messages.  Parentheses nest at most
    MAX_DEPTH deep."""

    def __init__(self, tokens, names: tuple[str, ...], component: int):
        self.tokens = [*tokens, None]  # None ends the input
        self.i = 0
        self.depth = 0  # parentheses open around the current token
        self.names = names
        self.component = component

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok is None:
            raise RingParseError("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise RingParseError(f"expected {tok!r}, got {got!r}")

    def expr(self) -> Poly:
        terms: dict[Monomial, int] = {}
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        while True:
            for e, c in self.term():
                terms[e] = terms.get(e, 0) + sign * c
            if self.peek() not in ("+", "-"):
                return _canon(terms)
            sign = 1 if self.next() == "+" else -1

    def term(self) -> Poly:
        out = self.factor()
        while self.peek() == "*":
            self.next()
            out = _pmul(out, self.factor())
        return out

    def factor(self) -> Poly:
        out = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if not tok.isdigit():
                raise RingParseError(f"expected a non-negative integer exponent, got {tok!r}")
            out = _ppow(out, parse_int(tok), len(self.names))
        return out

    def atom(self) -> Poly:
        tok = self.next()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise RingParseError(f"parentheses nested deeper than {MAX_DEPTH} levels")
            out = self.expr()
            self.expect(")")
            self.depth -= 1
            return out
        if tok.isdigit():
            return _pconst(parse_int(tok), len(self.names))
        if tok[0].isalpha():  # the tokenizer's names start with a letter
            if tok not in self.names:
                raise RingParseError(
                    f"{tok!r} is not an indeterminate of component {self.component + 1}"
                )
            idx = self.names.index(tok)
            return ((tuple(1 if j == idx else 0 for j in range(len(self.names))), 1),)
        raise RingParseError(f"unexpected token {tok!r}")


def _parse_poly(tokens, names, component: int, trailing: str) -> Poly:
    p = _ExprParser(tokens, names, component)
    out = p.expr()
    if p.peek() is not None:
        raise RingParseError(trailing)
    return out


# A flat literal: a tuple of two or more flat expressions, or one bare flat
# expression.  A flat expression is an optionally negated sum of products of
# integers and powers name^k, with no blanks, no parentheses and no power of
# an integer.  Digit runs are capped at 640, the least limit on integer
# string conversion that Python lets a program set, so a longer run takes
# the recursive descent and ``parse_int``'s error.
_FLAT_NUM = r"[0-9]{1,640}"
_FLAT_FACTOR = rf"(?:{_FLAT_NUM}|{_IDENT}(?:\^{_FLAT_NUM})?)"
_FLAT_EXPR = rf"-?{_FLAT_FACTOR}(?:[-+*]{_FLAT_FACTOR})*"
_FLAT = re.compile(rf"\(({_FLAT_EXPR}(?:,{_FLAT_EXPR})+)\)|({_FLAT_EXPR})")
# one signed product of a flat expression (the "+" between terms is skipped)
_FLAT_TERM = re.compile(r"(-?)([^-+]+)")


def _flat_poly(text: str, names: tuple[str, ...]) -> Poly | None:
    """The canonical polynomial of a flat expression over the
    indeterminates ``names``; None if it names another indeterminate."""
    if text.lstrip("-").isdigit():  # an integer
        return _pconst(int(text), len(names))
    terms: dict[Monomial, int] = {}
    for sign, product in _FLAT_TERM.findall(text):
        c = -1 if sign else 1
        e = [0] * len(names)
        for factor in product.split("*"):
            if factor[0].isdigit():
                c *= int(factor)
            else:
                name, _, k = factor.partition("^")
                if name not in names:
                    return None
                e[names.index(name)] += int(k) if k else 1
        e = tuple(e)
        terms[e] = terms.get(e, 0) + c
    return _canon(terms)


def _parse_flat(ring: RingDesc, text: str) -> RingElem | None:
    """``parse_elem`` of a flat literal that names only indeterminates of
    its components and, as a tuple, has one entry per component; None for
    any other text."""
    m = _FLAT.fullmatch(text)
    if m is None:
        return None
    entries, bare = m.groups()
    if bare is None:
        entries = entries.split(",")
        if len(entries) != ring.ncomponents:
            return None
        parts = [_flat_poly(entry, names) for entry, names in zip(entries, ring.components)]
    else:
        polys: dict[tuple[str, ...], Poly | None] = {}
        for names in ring.components:
            if names not in polys:
                polys[names] = _flat_poly(bare, names)
        parts = [polys[names] for names in ring.components]
    if None in parts:
        return None
    return RingElem(ring, tuple(parts))


def parse_elem(ring: RingDesc, text: str) -> RingElem:
    """Parse an element literal.

    A tuple literal like ``(theta, 2)`` gives one expression per component; a
    bare expression applies diagonally to every component (the canonical
    embedding of Z or Z[theta] into the product).  A bare expression is
    parsed once per distinct list of indeterminates, at its first component,
    and components with the same list share the polynomial.

    A flat literal (see ``_FLAT``) such as ``(2*t^2-t,-3)`` or ``s*t+1``,
    with at most 640 digits in a row, that names only indeterminates of its
    components and, as a tuple, has one entry per component, is matched by
    one regular expression and read straight into its polynomials.  Any
    other text, valid or not, goes to the recursive descent of
    ``_parse_tokens``, so the result and every error message are the same
    on both paths.
    """
    elem = _parse_flat(ring, text)
    return elem if elem is not None else _parse_tokens(ring, text)


def _parse_tokens(ring: RingDesc, text: str) -> RingElem:
    """``parse_elem`` by recursive descent over the tokens: any literal,
    and the error message of any text that is not one.  An expression holds
    no comma, so a literal in parentheses that holds one is a tuple, whose
    entries lie between its commas."""
    tokens = _tokenize(text)
    if tokens[:1] == ["("] and tokens[-1:] == [")"] and "," in tokens:
        cuts = [i for i, tok in enumerate(tokens) if tok == ","]
        parts = [tokens[i + 1 : j] for i, j in zip([0, *cuts], [*cuts, len(tokens) - 1])]
        if len(parts) != ring.ncomponents:
            raise RingParseError(
                f"tuple has {len(parts)} entries, ring has {ring.ncomponents} components"
            )
        return RingElem(
            ring,
            tuple(
                _parse_poly(part, names, j, f"trailing tokens in component {j + 1}")
                for j, (part, names) in enumerate(zip(parts, ring.components))
            ),
        )
    polys: dict[tuple[str, ...], Poly] = {}
    for j, names in enumerate(ring.components):
        if names not in polys:
            polys[names] = _parse_poly(tokens, names, j, "trailing tokens in expression")
    return RingElem(ring, tuple(polys[names] for names in ring.components))


def _format_poly(p: Poly, names: tuple[str, ...]) -> str:
    if not p:
        return "0"
    pieces = []
    for e, c in reversed(p):  # highest monomial first
        mono = "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k > 0
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def format_elem(elem: RingElem) -> str:
    strs = [
        _format_poly(p, names) for p, names in zip(elem.parts, elem.ring.components)
    ]
    if len(strs) == 1:
        return strs[0]
    return "(" + ",".join(strs) + ")"
