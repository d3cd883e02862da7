"""Free 2-nilpotent groups of finite rank, and their discrimination into H.

An element of the rank-n free 2-nilpotent group is written uniquely as

    a1^e1 ... an^en  *  prod_{i<j} [a_j, a_i]^f_ij

with the basic commutators [a_j, a_i] (j > i) central.  Collection uses the
class-2 rule a_j a_i = a_i a_j [a_j, a_i]; commutators are written
g^-1 h^-1 g h throughout.

The program runs on ``ut3.Class2Law.free(n)``, the same group's law on the
tuples e + f, which ``discriminate`` and this module's certificates read.
``NilForm``, ``collect``, ``to_matrix`` and ``Hom`` are its reference.

The rank-2 group is identified with the integer Heisenberg group via
a1^p a2^q c^r  ->  matrix entries (e12, e13, e23) = (q, r, p); the program
keeps the tuple (p, q, r) of ``Class2Law.free(2)`` and prints its matrix
with ``ut3.format_entries(q, r, p)``.  Higher-rank
groups are discriminated into it by sending each a_k (k > 2) to the generic
element with entries (q_k, r_k, p_k) over Z[p3, q3, r3, ...], which is
injective, and then choosing integer exponents one at a time with
``rings.nonvanishing_point``.  The generic image of a tuple is read off its
exponents by the class-2 product rule: its 12- and 23-entries are linear
forms in the q_k and p_k and its 13-entry is a quadratic form
(``generic_forms``), summed as integer dictionaries and handed over as
entry terms, so no ring element is built or multiplied.  The routine
returns the forms at the chosen point, which are the target images.
"""

from __future__ import annotations

import functools

from . import rings
from .record import Record, setfield
from .rings import Z, RingElem
from .ut3 import Class2Law, UT3Elem


@functools.cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Ordered basic-commutator index pairs (i, j), 1-based, i < j."""
    return tuple((i, j) for j in range(2, n + 1) for i in range(1, j))


class NilForm(Record):
    """Mal'cev normal form; ``f`` is indexed by ``_pairs(n)`` order."""

    n: int
    e: tuple[int, ...]
    f: tuple[int, ...]

    def __init__(self, n, e, f):
        if len(e) != n or len(f) != n * (n - 1) // 2:
            raise ValueError("exponent vector lengths do not match rank")
        setfield(self, "n", n)
        setfield(self, "e", e)
        setfield(self, "f", f)

    def is_identity(self) -> bool:
        return not any(self.e) and not any(self.f)

    def __mul__(self, other: "NilForm") -> "NilForm":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        e = tuple(a + b for a, b in zip(self.e, other.e))
        # moving other's a_i past self's a_j (j > i) contributes e_j(x)*e_i(y)
        f = tuple(
            fx + fy + self.e[j - 1] * other.e[i - 1]
            for (i, j), fx, fy in zip(_pairs(self.n), self.f, other.f)
        )
        return NilForm(self.n, e, f)

    def inv(self) -> "NilForm":
        e = tuple(-x for x in self.e)
        f = tuple(
            -fx + self.e[i - 1] * self.e[j - 1]
            for (i, j), fx in zip(_pairs(self.n), self.f)
        )
        return NilForm(self.n, e, f)

    def pow_int(self, m: int) -> "NilForm":
        binom = m * (m - 1) // 2
        e = tuple(m * x for x in self.e)
        f = tuple(
            m * fx + binom * self.e[j - 1] * self.e[i - 1]
            for (i, j), fx in zip(_pairs(self.n), self.f)
        )
        return NilForm(self.n, e, f)

    def comm(self, other: "NilForm") -> "NilForm":
        return self.inv() * other.inv() * self * other


def identity(n: int) -> NilForm:
    return NilForm(n, (0,) * n, (0,) * (n * (n - 1) // 2))


def generator(n: int, i: int) -> NilForm:
    if not 1 <= i <= n:
        raise ValueError("generator index out of range")
    e = tuple(1 if k == i - 1 else 0 for k in range(n))
    return NilForm(n, e, (0,) * (n * (n - 1) // 2))


def collect(n: int, word) -> NilForm:
    """Normal form of a word given as (generator index, +-1) letters."""
    out = identity(n)
    for idx, sign in word:
        g = generator(n, idx)
        out = out * (g if sign == 1 else g.inv())
    return out


def to_matrix(x: NilForm) -> UT3Elem:
    """The isomorphism of the rank-2 group with the integer Heisenberg group."""
    if x.n != 2:
        raise ValueError("to_matrix requires rank 2")
    p, q = x.e
    r = x.f[0]
    return UT3Elem(
        Z,
        RingElem.integer(Z, q),
        RingElem.integer(Z, r),
        RingElem.integer(Z, p),
    )


class Hom:
    """Homomorphism determined by generator images.

    Images may live in any group-like type with __mul__, inv, pow_int and
    comm (NilForm or UT3Elem); the extension to normal forms is by
    substitution, which is well defined because the target images of basic
    commutators are the commutators of the images.
    """

    def __init__(self, images, target_identity):
        self.images = tuple(images)
        self.target_identity = target_identity

    def apply(self, x: NilForm):
        if x.n != len(self.images):
            raise ValueError("arity mismatch")
        out = self.target_identity
        for img, exp in zip(self.images, x.e):
            if exp:
                out = out * img.pow_int(exp)
        for (i, j), fx in zip(_pairs(x.n), x.f):
            if fx:
                out = out * self.images[j - 1].comm(self.images[i - 1]).pow_int(fx)
        return out

    __call__ = apply


class DiscriminationCertificate(Record):
    """A retraction F_n(N_2) -> H that kills none of the targets, with the
    nonidentity images.  Both are tuples (p, q, r) of H =
    ``Class2Law.free(2)``, the element a1^p a2^q [a2,a1]^r, whose matrix
    has entries (e12, e13, e23) = (q, r, p)."""

    extra_images: tuple[tuple[int, int, int], ...]  # per generator > 2
    target_images: tuple[tuple[int, int, int], ...]

    def verify(self, targets) -> bool:
        """Whether a1, a2 fixed and a_k -> a1^p a2^q [a2,a1]^r send the
        targets, tuples of ``Class2Law.free(n)``, to ``target_images`` and
        none to 1, computed on H's tuples.  A commutator coordinate's image
        [image(a_i), image(a_j)] is made the first time a target uses it
        (``free`` lists its ``table`` rows in coordinate order)."""
        H, gens = Class2Law.free(2), [(1, 0, 0), (0, 1, 0), *self.extra_images]
        law = Class2Law.free(len(gens))
        targets = list(targets)
        if len(targets) != len(self.target_images) or any(len(t) != law.dim for t in targets):
            return False
        images = dict(enumerate(gens))

        def image(k):
            if k not in images:
                i, j, _ = law.table[k - law.central]
                images[k] = H.comm(gens[i], gens[j])
            return images[k]

        powers = ((H.pow_int(image(k), e) for k, e in enumerate(t) if e) for t in targets)
        got = tuple(functools.reduce(H.mul, p, H.identity) for p in powers)
        return H.identity not in got and got == self.target_images


def generic_forms(law: Class2Law, t: tuple[int, ...]) -> tuple[dict, dict, dict]:
    """The (12, 13, 23)-entries of the image of t, a tuple of
    ``law = Class2Law.free(n)``, under the generic retraction, as entry
    terms {(0, exponent vector): coefficient} over the one-component ring
    Z[p3, q3, r3, p4, ...].

    a_k goes to the element with entries (Q_k, R_k, P_k): (0, 0, 1) for a1,
    (1, 0, 0) for a2 and (q_k, r_k, p_k) for k > 2.  The class-2 product
    rule (g*h)13 = g13 + h13 + g12*h23, its powers
    g^e = (e*g12, e*g13 + C(e,2)*g12*g23, e*g23) and the central commutators
    [g,h] = (0, g12*h23 - h12*g23, 0) give t = a1^e1...an^en prod c_k^t[k],
    with c_k = [a_i, a_j] for each ``law.table`` row (i - 1, j - 1, k), the
    entries

        12:  sum_k e_k Q_k                23:  sum_k e_k P_k
        13:  sum_k (e_k R_k + C(e_k,2) Q_k P_k) + sum_{j<k} e_j e_k Q_j P_k
             + sum_{rows} t[k] (Q_i P_j - Q_j P_i)

    so the 12- and 23-entries are linear forms and the 13-entry a
    quadratic form.  Every quadratic monomial is a product Q_j P_k of two
    distinct names (a q and a p), so each exponent is 1.
    """
    n = law.central
    Q = [None, ()] + [(3 * k + 1,) for k in range(n - 2)]
    R = [None, None] + [(3 * k + 2,) for k in range(n - 2)]
    P = [(), None] + [(3 * k,) for k in range(n - 2)]
    f12, f13, f23 = {}, {}, {}

    def add(form, a, b, c):
        # c * a * b, where None is the form 0
        if a is not None and b is not None:
            key = a + b
            form[key] = form.get(key, 0) + c

    left = []  # (Q_j, e_j) for the letters before a_k
    for k, e in enumerate(t[:n]):
        if e:
            add(f12, Q[k], (), e)
            add(f23, P[k], (), e)
            add(f13, R[k], (), e)
            add(f13, Q[k], P[k], e * (e - 1) // 2)
            for q, d in left:
                add(f13, q, P[k], d * e)
            if Q[k] is not None:
                left.append((Q[k], e))
    for i, j, k in law.table:
        if t[k]:
            add(f13, Q[i], P[j], t[k])
            add(f13, Q[j], P[i], -t[k])
    zero = (0,) * (3 * n - 6)

    def vector(names):  # the exponent vector of a product of distinct names
        return functools.reduce(lambda e, i: e[:i] + (1,) + e[i + 1 :], names, zero)

    # the 13-entry's coefficients can cancel to 0; entry terms keep none
    return tuple({(0, vector(names)): c for names, c in form.items() if c} for form in (f12, f13, f23))


def discriminate_to_H(law: Class2Law, targets) -> DiscriminationCertificate:
    """Retraction of ``law = Class2Law.free(n)`` to the rank-2 (Heisenberg)
    copy mapping no target, a tuple of the law, to 1.

    a1 and a2 are fixed; each a_k (k > 2) is sent to a1^p a2^q c^r.  The
    targets' images under the generic retraction with indeterminate
    exponents p_k, q_k, r_k are read off their tuples as integer forms
    (``generic_forms``), with no group or ring multiplication.  The
    generic retraction is injective (the images of a1, ..., an and of the
    basic commutators have independent entries), so every image has a
    nonzero entry, and ``rings.nonvanishing_point`` picks nonnegative
    exponents p3, q3, r3, p4, ... in that order, each the least one keeping
    every image nonidentity.  When the retraction a_k -> 1 kills no target,
    all exponents are 0.

    The forms are the terms of the entries that multiplying out the
    generic images gives, so every exponent taken is the one that
    product would give.  The forms it returns at the chosen point, each a
    constant or {} for 0, are the target images, read as H's tuples
    (p, q, r) = (e23, e12, e13).
    """
    targets = list(targets)
    if not targets:
        raise ValueError("no targets")
    if law.identity in targets:
        raise ValueError("identity is annihilated by every retraction")
    names = [f"{v}{k}" for k in range(3, law.central + 1) for v in "pqr"]
    ring = rings.RingDesc((tuple(names),))
    point, forms = rings.nonvanishing_point(ring, [generic_forms(law, t) for t in targets], names)
    exps = tuple(tuple(map(point.get, names[i : i + 3])) for i in range(0, len(names), 3))
    images = tuple(tuple(sum(f.values()) for f in (f23, f12, f13)) for f12, f13, f23 in forms)
    return DiscriminationCertificate(exps, images)
