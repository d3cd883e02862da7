"""The group of upper unitriangular 3x3 matrices over a product ring.

Elements are stored by their three strict upper entries; the full matrix is
never materialized (the test suite keeps a brute-force 3x3 oracle).  All the
group-theoretic structure used downstream reads off these entries:

    (g * h)   = (g12 + h12,  g13 + h13 + g12*h23,  g23 + h23)
    [g, h]    = (0,  g12*h23 - h12*g23,  0)        (always central)
    g^n       = (n*g12,  n*g13 + C(n,2)*g12*g23,  n*g23)

The distinguished generators a1 (lower one in the (2,3) slot) and a2 (one in
the (1,2) slot) generate the integer-entry copy of the Heisenberg group.

These closed forms hold in every group of class 2 whose product adds a
bilinear map B to a central block.  ``Class2Law`` is that arithmetic on
plain tuples of ints, read off an integer table of B's terms: the law
multiplies, and the tuples hash and compare by themselves.  A finitely
generated G <= UT3(R) gets one over integer coordinates of its entries
(``reprs.Representation.law``, which holds the frames), and the free
class-2 group of rank n one over its Mal'cev coordinates
(``Class2Law.free``, which ``discriminate`` evaluates on).  Every
``formula.GroupEnv`` in the program runs on one of these laws.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .record import Record, setfield
from .rings import RingDesc, RingElem, RingMismatchError, parse_elem


class UT3Elem(Record):
    ring: RingDesc
    u12: RingElem
    u13: RingElem
    u23: RingElem

    def __init__(self, ring, u12, u13, u23):
        for entry in (u12, u13, u23):
            if entry.ring != ring:
                raise RingMismatchError("entry over the wrong ring")
        setfield(self, "ring", ring)
        setfield(self, "u12", u12)
        setfield(self, "u13", u13)
        setfield(self, "u23", u23)

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "UT3Elem") -> "UT3Elem":
        if self.ring != other.ring:
            raise RingMismatchError("mixed rings")
        return UT3Elem(
            self.ring,
            self.u12 + other.u12,
            self.u13 + other.u13 + self.u12 * other.u23,
            self.u23 + other.u23,
        )

    def inv(self) -> "UT3Elem":
        return UT3Elem(
            self.ring,
            -self.u12,
            -self.u13 + self.u12 * self.u23,
            -self.u23,
        )

    def comm(self, other: "UT3Elem") -> "UT3Elem":
        """The commutator self^-1 other^-1 self other, in closed form."""
        if self.ring != other.ring:
            raise RingMismatchError("mixed rings")
        zero = RingElem.zero(self.ring)
        return UT3Elem(
            self.ring,
            zero,
            self.u12 * other.u23 - other.u12 * self.u23,
            zero,
        )

    def pow_int(self, n: int) -> "UT3Elem":
        binom = n * (n - 1) // 2
        return UT3Elem(
            self.ring,
            self.u12.scale(n),
            self.u13.scale(n) + (self.u12 * self.u23).scale(binom),
            self.u23.scale(n),
        )

    # -- predicates ---------------------------------------------------------

    def is_identity(self) -> bool:
        return self.u12.is_zero() and self.u13.is_zero() and self.u23.is_zero()

    def is_central(self) -> bool:
        """Central iff both off-center entries vanish (then it commutes with
        a1 and a2, hence with everything)."""
        return self.u12.is_zero() and self.u23.is_zero()

    def __str__(self) -> str:
        return format_entries(self.u12, self.u13, self.u23)


def format_entries(e12, e13, e23) -> str:
    """The printed matrix with entries e12, e13 and e23, each printed by
    ``str``."""
    return f"{{e12: {e12}, e13: {e13}, e23: {e23}}}"


def identity(ring: RingDesc) -> UT3Elem:
    z = RingElem.zero(ring)
    return UT3Elem(ring, z, z, z)


def a1(ring: RingDesc) -> UT3Elem:
    z = RingElem.zero(ring)
    return UT3Elem(ring, z, z, RingElem.one(ring))


def a2(ring: RingDesc) -> UT3Elem:
    z = RingElem.zero(ring)
    return UT3Elem(ring, RingElem.one(ring), z, z)


def elem(ring: RingDesc, e12, e13, e23) -> UT3Elem:
    """Convenience constructor accepting ints, literals, or ring elements."""

    def coerce(x):
        if isinstance(x, RingElem):
            return x
        if isinstance(x, int):
            return RingElem.integer(ring, x)
        return parse_elem(ring, x)

    return UT3Elem(ring, coerce(e12), coerce(e13), coerce(e23))


# ---------------------------------------------------------------------------
# Integer class-2 coordinates


class Class2Law(Record):
    """A group law of class 2 on integer coordinate tuples.

    An element is one flat tuple x of ``dim`` ints whose coordinates from
    ``central`` on span the central block.  ``table`` holds one (i, j, k)
    per term of the bilinear map B: x*y adds B(x, y), that is x[i]*y[j] for
    each row, to the central coordinate k, and i and j lie below
    ``central``.  Two elements are equal iff their tuples are; the tuples
    carry no law, so ``mul`` and ``comm`` reject only a tuple of another
    length.  ``Representation.law`` builds the law of <generators> <=
    UT3(R) over its frames, and ``free`` the free class-2 group."""

    dim: int
    central: int
    table: tuple[tuple[int, int, int], ...]
    _hidden = ("table",)

    @classmethod
    def free(cls, n: int) -> "Class2Law":
        """The free class-2 group of rank n on Mal'cev coordinates: a tuple
        is ``NilForm``'s e + f, with f in ``nilform._pairs(n)`` order, and
        x*y gains [a_j, a_i]^(x_j*y_i) (i < j) from moving y's a_i past x's
        a_j, which is ``NilForm``'s collection rule."""
        pairs = [(j - 1, i - 1) for j in range(2, n + 1) for i in range(1, j)]
        return cls(n + len(pairs), n, tuple((i, j, n + p) for p, (i, j) in enumerate(pairs)))

    @cached_property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def mul(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        if not len(x) == len(y) == self.dim:
            raise RingMismatchError("elements of different groups")
        out = list(map(operator.add, x, y))
        for i, j, k in self.table:
            out[k] += x[i] * y[j]
        return tuple(out)

    def right_mul(self, g: tuple[int, ...]):
        """x -> x*g for one fixed g, touching only g's nonzero coordinates
        and the ``table`` rows where g is nonzero (the ball multiplies by
        each letter many times)."""
        if len(g) != self.dim:
            raise RingMismatchError("elements of different groups")
        adds = tuple((p, c) for p, c in enumerate(g) if c)
        rows = tuple((i, g[j], k) for i, j, k in self.table if g[j])

        def step(x):
            out = list(x)
            for p, c in adds:
                out[p] += c
            for i, c, k in rows:
                out[k] += x[i] * c
            return tuple(out)

        return step

    def inv(self, x: tuple[int, ...]) -> tuple[int, ...]:
        out = list(map(operator.neg, x))
        for i, j, k in self.table:
            out[k] += x[i] * x[j]
        return tuple(out)

    def pow_int(self, x: tuple[int, ...], n: int) -> tuple[int, ...]:
        binom = n * (n - 1) // 2
        out = [n * a for a in x]
        for i, j, k in self.table:
            out[k] += binom * x[i] * x[j]
        return tuple(out)

    def comm(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        """The commutator x^-1 y^-1 x y, in closed form."""
        n = self.dim
        if not len(x) == len(y) == n:
            raise RingMismatchError("elements of different groups")
        out = [0] * n
        for i, j, k in self.table:
            out[k] += x[i] * y[j] - y[i] * x[j]
        return tuple(out)

    def coset_key(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """The coordinates below the central block: equal for two elements
        exactly when they differ by a central factor."""
        return x[: self.central]
