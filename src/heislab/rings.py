"""Exact arithmetic in finite products of multivariate integer polynomial rings.

The ring universe is R = Z[t11,...] x ... x Z[tk1,...]: a finite product of
polynomial rings over Z, each component in finitely many named indeterminates
(possibly none).  Every element has a unique canonical form, equality is
syntactic, and all coefficients are arbitrary-precision Python ints.

Retractions R -> Z factor through a single component (the idempotents must map
to 0 or 1, summing to 1) followed by integer evaluation of the indeterminates,
so they are represented by a component index plus an integer point.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

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
    terms: dict[Monomial, int] = {}
    for e1, c1 in p:
        for e2, c2 in q:
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return _canon(terms)


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


@dataclass(frozen=True)
class RingDesc:
    """Descriptor of a finite product of integer polynomial rings.

    ``components[j]`` is the tuple of indeterminate names of the j-th factor;
    Z itself is the descriptor with a single component and no indeterminates.
    """

    components: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("ring needs at least one component")
        for names in self.components:
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate indeterminate in component {names}")

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        parts = []
        for names in self.components:
            parts.append("Z" if not names else "Z[" + ",".join(names) + "]")
        return " x ".join(parts)


Z = RingDesc(((),))


def parse_ring(text: str) -> RingDesc:
    """Parse a ring descriptor: ``Z``, ``Z^k``, ``Z[theta]``, ``Z[t1,t2]``,
    and products joined with ``x`` as in ``Z[theta] x Z``."""
    comps: list[tuple[str, ...]] = []
    for factor in re.split(r"\s+x\s+", text.strip()):
        factor = factor.strip()
        m = re.fullmatch(r"Z(\^(\d+))?", factor)
        if m:
            k = int(m.group(2)) if m.group(2) else 1
            if k < 1:
                raise RingParseError(f"bad power in {factor!r}")
            comps.extend([()] * k)
            continue
        m = re.fullmatch(rf"Z\[({_IDENT}(\s*,\s*{_IDENT})*)\]", factor)
        if m:
            comps.append(tuple(n.strip() for n in m.group(1).split(",")))
            continue
        raise RingParseError(f"cannot parse ring factor {factor!r}")
    return RingDesc(tuple(comps))


@dataclass(frozen=True)
class RingElem:
    """Element of a product ring, one canonical polynomial per component."""

    ring: RingDesc
    parts: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.parts) != self.ring.ncomponents:
            raise ValueError("component count mismatch")

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
        if n < 0:
            raise ValueError("negative power")
        out = RingElem.one(self.ring)
        for _ in range(n):
            out = out * self
        return out

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


@dataclass(frozen=True)
class Retraction:
    """A homomorphism R -> Z: project to one component, then evaluate the
    indeterminates at an integer point."""

    component: int
    point: tuple[tuple[str, int], ...]  # sorted (name, value) pairs

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


def is_domain(ring: RingDesc) -> bool:
    return ring.ncomponents == 1


def is_zero_divisor(r: RingElem) -> bool:
    """True iff r is nonzero and annihilated by some nonzero element.

    Each component is an integral domain, so this happens exactly when r is
    nonzero but vanishes on some component.
    """
    if r.is_zero():
        return False
    return len(r.support) < r.ring.ncomponents


def _integer_points(m: int):
    """Points of N^m by increasing sup-norm, lexicographic tie-break.
    A nonzero integer polynomial cannot vanish on all of N^m, so searches
    over this enumeration terminate; witnesses are deterministic."""
    if m == 0:
        yield ()
        return
    for bound in itertools.count(0):
        for point in itertools.product(range(bound + 1), repeat=m):
            if max(point) == bound:
                yield point


def separate(r: RingElem) -> Retraction:
    """A retraction that does not annihilate the nonzero element r."""
    if r.is_zero():
        raise ValueError("zero has no separating retraction")
    comp = min(r.support)
    names = r.ring.components[comp]
    for point in _integer_points(len(names)):
        if _peval(r.parts[comp], point) != 0:
            return Retraction.of(comp, dict(zip(names, point)))
    raise AssertionError("unreachable: nonzero polynomial vanishes on all of Z^m")


@dataclass(frozen=True)
class DomainFailure:
    """Certificate that no single retraction keeps the requested elements
    nonzero: a pair of nonzero elements whose product is zero."""

    witness: tuple[RingElem, RingElem]


def discriminate(rs: list[RingElem]) -> Retraction | DomainFailure:
    """A retraction keeping every element of rs nonzero, or a DomainFailure.

    Over an integral domain the product of the elements is nonzero and a
    single separating retraction works.  Over a proper product ring each
    retraction factors through one component, so the search fails exactly
    when every component annihilates some input.
    """
    if not rs:
        raise ValueError("discriminate needs at least one element")
    ring = rs[0].ring
    for r in rs:
        if r.is_zero():
            raise ValueError("discriminate requires nonzero elements")
        if r.ring != ring:
            raise RingMismatchError("mixed rings")
    for comp in range(ring.ncomponents):
        if all(comp in r.support for r in rs):
            prod = rs[0]
            for r in rs[1:]:
                prod = prod * r
            # the product is nonzero on this component (a domain) and zero on
            # every earlier one, so separate() retracts through this component
            return separate(prod)
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
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise RingParseError(f"bad character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser for polynomial expressions over one component."""

    def __init__(self, tokens, ring, component):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.component = component

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise RingParseError("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise RingParseError(f"expected {tok!r}, got {got!r}")

    def _comp_elem(self, poly: Poly) -> RingElem:
        parts = [
            poly if j == self.component else ()
            for j in range(self.ring.ncomponents)
        ]
        return RingElem(self.ring, tuple(parts))

    def expr(self) -> RingElem:
        if self.peek() == "-":
            self.next()
            out = -self.term()
        else:
            out = self.term()
        while self.peek() in ("+", "-"):
            if self.next() == "+":
                out = out + self.term()
            else:
                out = out - self.term()
        return out

    def term(self) -> RingElem:
        out = self.factor()
        while self.peek() == "*":
            self.next()
            out = out * self.factor()
        return out

    def factor(self) -> RingElem:
        out = self.atom()
        if self.peek() == "^":
            self.next()
            out = out ** int(self.next())
        return out

    def atom(self) -> RingElem:
        tok = self.next()
        if tok == "(":
            out = self.expr()
            self.expect(")")
            return out
        if tok.isdigit():
            names = self.ring.components[self.component]
            return self._comp_elem(_pconst(int(tok), len(names)))
        if re.fullmatch(_IDENT, tok):
            names = self.ring.components[self.component]
            if tok not in names:
                raise RingParseError(
                    f"{tok!r} is not an indeterminate of component {self.component + 1}"
                )
            idx = names.index(tok)
            e = tuple(1 if j == idx else 0 for j in range(len(names)))
            return self._comp_elem(((e, 1),))
        raise RingParseError(f"unexpected token {tok!r}")


def _split_tuple(tokens: list[str]) -> list[list[str]] | None:
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


def parse_elem(ring: RingDesc, text: str) -> RingElem:
    """Parse an element literal.

    A tuple literal like ``(theta, 2)`` gives one expression per component; a
    bare expression applies diagonally to every component (the canonical
    embedding of Z or Z[theta] into the product).
    """
    tokens = _tokenize(text)
    parts = _split_tuple(tokens)
    if parts is not None:
        if len(parts) != ring.ncomponents:
            raise RingParseError(
                f"tuple has {len(parts)} entries, ring has {ring.ncomponents} components"
            )
        out = RingElem.zero(ring)
        for j, part_tokens in enumerate(parts):
            p = _ExprParser(part_tokens, ring, j)
            out = out + p.expr()
            if p.peek() is not None:
                raise RingParseError(f"trailing tokens in component {j + 1}")
        return out
    out = RingElem.zero(ring)
    for j in range(ring.ncomponents):
        p = _ExprParser(tokens, ring, j)
        out = out + p.expr()
        if p.peek() is not None:
            raise RingParseError("trailing tokens in expression")
    return out


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
