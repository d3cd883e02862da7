"""The group of upper unitriangular 3x3 matrices over a product ring.

Elements are stored by their three strict upper entries; the full matrix is
never materialized (the test suite keeps a brute-force 3x3 oracle).  All the
group-theoretic structure used downstream reads off these entries:

    (g * h)   = (g12 + h12,  g13 + h13 + g12*h23,  g23 + h23)
    [g, h]    = (0,  g12*h23 - h12*g23,  0)        (always central)
    g^n       = (n*g12,  n*g13 + C(n,2)*g12*g23,  n*g23)

The distinguished generators a1 (lower one in the (2,3) slot) and a2 (one in
the (1,2) slot) generate the integer-entry copy of the Heisenberg group.

A finitely generated G <= UT3(R) has class 2, and its elements have exact
integer coordinates: the (1,2) and (2,3) entries over the monomial frames of
the generators' (1,2) and (2,3) entries, the (1,3) entry over the frame of
the generators' (1,3) monomials and of every product of a (1,2) with a (2,3)
frame monomial in the same component.  With B(x, y) = x12*y23 read off an
integer table, the closed forms above become integer arithmetic
(``Class2Law``) on plain tuples of ints: the law multiplies, and the tuples
hash and compare by themselves.  The bounded formula search runs on it, and
the entry lattices, sigma, the systems S/T and NZCT in ``reprs`` use its
frames as their only coordinates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

from .rings import Frame, RingDesc, RingElem, RingMismatchError, frame_coords, frame_of, from_frame


@dataclass(frozen=True)
class UT3Elem:
    ring: RingDesc
    u12: RingElem
    u13: RingElem
    u23: RingElem

    def __post_init__(self):
        for entry in (self.u12, self.u13, self.u23):
            if entry.ring != self.ring:
                raise RingMismatchError("entry over the wrong ring")

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

    def coset_key(self):
        """Equal for two elements exactly when they differ by a central
        factor of the (1,3) block."""
        return self.u12, self.u23

    def __str__(self) -> str:
        return "{e12: %s, e13: %s, e23: %s}" % (self.u12, self.u13, self.u23)


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
        from .rings import parse_elem

        return parse_elem(ring, x)

    return UT3Elem(ring, coerce(e12), coerce(e13), coerce(e23))


# ---------------------------------------------------------------------------
# Integer class-2 coordinates


@dataclass(frozen=True)
class Class2Law:
    """The group law of <generators> <= UT3(R) on integer coordinates.

    An element is one flat tuple x = (x12, x23, z) of ints over the frames
    ``f12``, ``f23`` and ``f13``; ``Class2Law.of`` is the one place that
    picks the monomials of a representation, and ``coords`` the one
    coordinate routine.  ``table`` holds one (i, j, k) per pair of a (1,2)
    and a (2,3) frame monomial in the same component: the coordinate i of
    x, the coordinate j of y and the z-coordinate k of their product, so
    B(x, y) = x12*y23 adds x[i]*y[j] to z[k].  Frame coordinates are unique,
    so two elements are equal iff their tuples are; the tuples carry no law,
    so ``mul`` and ``comm`` reject only a tuple of another length."""

    ring: RingDesc
    f12: Frame
    f23: Frame
    f13: Frame
    table: tuple[tuple[int, int, int], ...] = field(compare=False, repr=False)
    index: tuple[dict, dict, dict] = field(compare=False, repr=False)  # of f12, f23, f13

    @classmethod
    def of(cls, ring: RingDesc, generators) -> "Class2Law":
        gens = list(generators)
        f12 = frame_of(g.u12 for g in gens)
        f23 = frame_of(g.u23 for g in gens)
        products = [
            (i, j, (c, tuple(a + b for a, b in zip(e, e2))))
            for i, (c, e) in enumerate(f12)
            for j, (c2, e2) in enumerate(f23)
            if c == c2
        ]
        f13 = tuple(sorted(set(frame_of(g.u13 for g in gens)) | {m for *_, m in products}))
        index = tuple({m: k for k, m in enumerate(f)} for f in (f12, f23, f13))
        n12, n23 = len(f12), len(f23)
        table = tuple((i, n12 + j, n12 + n23 + index[2][m]) for i, j, m in products)
        return cls(ring, f12, f23, f13, table, index)

    @cached_property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.dim

    @cached_property
    def dim(self) -> int:
        """The length of every element's tuple."""
        return len(self.f12) + len(self.f23) + len(self.f13)

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
        """The 12/23 coordinates: equal for two elements exactly when they
        differ by a central factor of the (1,3) block."""
        return x[: self.dim - len(self.f13)]

    def coords(self, block: int, entry: RingElem) -> tuple[int, ...] | None:
        """The coordinates of a ring element over one frame (block 0: f12,
        1: f23, 2: f13); None if it has a monomial outside that frame."""
        return frame_coords(self.index[block], entry)

    def element(self, g: UT3Elem) -> tuple[int, ...]:
        """The coordinates of g, which must lie in the frames (every element
        of the group the law was made for does)."""
        v = ()
        for block, entry in enumerate((g.u12, g.u23, g.u13)):
            coords = self.coords(block, entry)
            if coords is None:
                raise ValueError(f"{g} is outside the frames of the law")
            v += coords
        return v

    def to_ut3(self, v: tuple[int, ...]) -> UT3Elem:
        n12, n23 = len(self.f12), len(self.f23)
        return UT3Elem(
            self.ring,
            from_frame(self.ring, self.f12, v[:n12]),
            from_frame(self.ring, self.f13, v[n12 + n23 :]),
            from_frame(self.ring, self.f23, v[n12 : n12 + n23]),
        )
