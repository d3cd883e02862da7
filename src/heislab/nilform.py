"""Free 2-nilpotent groups of finite rank with Mal'cev normal forms.

An element of the rank-n free 2-nilpotent group is written uniquely as

    a1^e1 ... an^en  *  prod_{i<j} [a_j, a_i]^f_ij

with the basic commutators [a_j, a_i] (j > i) central.  Collection uses the
class-2 rule a_j a_i = a_i a_j [a_j, a_i]; commutators are written
g^-1 h^-1 g h throughout.

The rank-2 group is identified with the integer Heisenberg group via
a1^p a2^q c^r  ->  matrix entries (e12, e13, e23) = (q, r, p), and
discrimination of higher-rank groups into it is by exhaustive search over
retraction images with increasing exponent bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import ut3
from .rings import Z, RingElem
from .ut3 import UT3Elem


def _pairs(n: int) -> list[tuple[int, int]]:
    """Ordered basic-commutator index pairs (i, j), 1-based, i < j."""
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


@dataclass(frozen=True)
class NilForm:
    """Mal'cev normal form; ``f`` is indexed by ``_pairs(n)`` order."""

    n: int
    e: tuple[int, ...]
    f: tuple[int, ...]

    def __post_init__(self):
        if len(self.e) != self.n or len(self.f) != self.n * (self.n - 1) // 2:
            raise ValueError("exponent vector lengths do not match rank")

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

    def __str__(self) -> str:
        pieces = [f"a{i+1}^{x}" for i, x in enumerate(self.e) if x]
        pieces += [
            f"[a{j},a{i}]^{fx}"
            for (i, j), fx in zip(_pairs(self.n), self.f)
            if fx
        ]
        return "*".join(pieces) if pieces else "1"


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


def hom_on_generators(images, target_identity=None) -> Hom:
    if target_identity is None:
        sample = images[0]
        if isinstance(sample, NilForm):
            target_identity = identity(sample.n)
        elif isinstance(sample, UT3Elem):
            target_identity = ut3.identity(sample.ring)
        else:
            raise ValueError("cannot infer target identity")
    return Hom(images, target_identity)


class DiscriminationBoundExceeded(Exception):
    def __init__(self, cap, targets):
        super().__init__(
            f"no discriminating retraction found with exponent bound <= {cap}"
        )
        self.cap = cap
        self.targets = targets


@dataclass(frozen=True)
class DiscriminationCertificate:
    """A retraction F_n(N_2) -> H that kills none of the targets, with the
    verified nonidentity images."""

    hom: Hom
    extra_images: tuple[tuple[int, int, int], ...]  # (p, q, r) per generator > 2
    target_images: tuple[UT3Elem, ...]

    def verify(self, targets) -> bool:
        return all(
            not self.hom(t).is_identity() and self.hom(t) == img
            for t, img in zip(targets, self.target_images)
        )


def discriminate_to_H(targets, cap: int = 10) -> DiscriminationCertificate:
    """Retraction to the rank-2 (Heisenberg) copy mapping no target to 1.

    a1 and a2 are fixed; each a_k (k > 2) is sent to a1^p a2^q c^r with the
    exponents searched by increasing sup-norm.  Raises
    DiscriminationBoundExceeded when the cap is exhausted.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("no targets")
    n = targets[0].n
    if n < 2:
        raise ValueError("rank must be at least 2")
    for t in targets:
        if t.n != n:
            raise ValueError("mixed ranks")
        if t.is_identity():
            raise ValueError("identity is annihilated by every retraction")
    base = [ut3.a1(Z), ut3.a2(Z)]
    c = ut3.a2(Z).comm(ut3.a1(Z))
    extras = n - 2

    def attempt(exps):
        images = list(base)
        for p, q, r in exps:
            images.append(ut3.a1(Z).pow_int(p) * ut3.a2(Z).pow_int(q) * c.pow_int(r))
        hom = Hom(images, ut3.identity(Z))
        imgs = [hom(t) for t in targets]
        if all(not g.is_identity() for g in imgs):
            return DiscriminationCertificate(hom, tuple(exps), tuple(imgs))
        return None

    if extras == 0:
        cert = attempt([])
        if cert is not None:
            return cert
        raise AssertionError("identity retraction kills a nonidentity form")

    for bound in range(cap + 1):
        for flat in itertools.product(
            range(-bound, bound + 1), repeat=3 * extras
        ):
            if bound and max(abs(v) for v in flat) != bound:
                continue
            exps = [tuple(flat[3 * k : 3 * k + 3]) for k in range(extras)]
            cert = attempt(exps)
            if cert is not None:
                return cert
    raise DiscriminationBoundExceeded(cap, targets)
