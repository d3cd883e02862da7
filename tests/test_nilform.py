"""Tests for Mal'cev normal forms and discrimination into the rank-2 group."""

import random
import time

import pytest
from conftest import ElementLaw, discriminate_to_H_generic, h_hom, on_free_law, verify_oracle

from heislab import nilform, rings, ut3
from heislab.rings import RingElem
from heislab.nilform import (
    Hom,
    NilForm,
    collect,
    discriminate_to_H,
    generator,
    identity,
    to_matrix,
)
from heislab.rings import Z


def random_form(rng: random.Random, n: int, bound: int = 3) -> NilForm:
    word = []
    for _ in range(rng.randint(0, 2 * bound)):
        word.append((rng.randint(1, n), rng.choice((1, -1))))
    return collect(n, word)


def test_generator_forms():
    g = generator(3, 2)
    assert g.e == (0, 1, 0) and not any(g.f)
    with pytest.raises(ValueError):
        generator(3, 4)


def test_collect_matches_mul():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 4)
        w1 = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]
        w2 = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))]
        assert collect(n, w1 + w2) == collect(n, w1) * collect(n, w2)


def test_inverse():
    rng = random.Random(1)
    for _ in range(100):
        x = random_form(rng, 3)
        assert x * x.inv() == identity(3)
        assert x.inv() * x == identity(3)


def test_pow_int_matches_iteration():
    rng = random.Random(2)
    for _ in range(50):
        x = random_form(rng, 3)
        acc = identity(3)
        for m in range(5):
            assert x.pow_int(m) == acc
            acc = acc * x
        assert x.pow_int(-2) == x.inv().pow_int(2)


def test_basic_commutator_exponents():
    # a2 * a1 collected = a1 a2 [a2,a1]
    x = collect(2, [(2, 1), (1, 1)])
    assert x.e == (1, 1) and x.f == (1,)
    # a1*a2 needs no correction
    y = collect(2, [(1, 1), (2, 1)])
    assert y.e == (1, 1) and y.f == (0,)


def test_to_matrix_is_isomorphism():
    rng = random.Random(3)
    for _ in range(1000):
        x = random_form(rng, 2)
        y = random_form(rng, 2)
        assert to_matrix(x * y) == to_matrix(x) * to_matrix(y)
    assert to_matrix(generator(2, 1)) == ut3.a1(Z)
    assert to_matrix(generator(2, 2)) == ut3.a2(Z)
    c = collect(2, [(1, -1), (2, -1), (1, 1), (2, 1)])  # [a1,a2]^-1 = [a2,a1]
    assert to_matrix(c.inv()) == ut3.a2(Z).comm(ut3.a1(Z))
    with pytest.raises(ValueError):
        to_matrix(identity(3))


def _form(n: int, x: tuple[int, ...]) -> NilForm:
    """The NilForm of a tuple e + f of Class2Law.free(n)."""
    return NilForm(n, x[:n], x[n:])


def _random_nilform(rng: random.Random, n: int) -> NilForm:
    """A collected word, or a form with arbitrary exponents up to +-50."""
    if rng.random() < 0.5:
        return random_form(rng, n)
    e = tuple(rng.randint(-50, 50) for _ in range(n))
    return NilForm(n, e, tuple(rng.randint(-50, 50) for _ in range(n * (n - 1) // 2)))


@pytest.mark.parametrize("n", range(2, 7))
def test_free_law_matches_nilform(n):
    # Class2Law.free(n) on e + f is NilForm's arithmetic
    rng = random.Random(40 + n)
    law = ut3.Class2Law.free(n)
    assert law.dim == n + n * (n - 1) // 2 and law.central == n
    assert _form(n, law.identity) == identity(n)
    for _ in range(300):
        x, y = _random_nilform(rng, n), _random_nilform(rng, n)
        a, b, m = x.e + x.f, y.e + y.f, rng.randint(-5, 5)
        assert _form(n, law.mul(a, b)) == x * y
        assert _form(n, law.right_mul(b)(a)) == x * y
        assert _form(n, law.inv(a)) == x.inv()
        assert _form(n, law.pow_int(a, m)) == x.pow_int(m)
        assert _form(n, law.comm(a, b)) == x.comm(y)
        # one coset key exactly when x and y differ by a central factor
        z = y if rng.random() < 0.5 else x * NilForm(n, (0,) * n, y.f)
        c = z.e + z.f
        assert law.coset_key(a) == x.e
        assert (law.coset_key(a) == law.coset_key(c)) == (not any((x.inv() * z).e))


def test_free_law_of_rank_2_is_the_heisenberg_group():
    # through to_matrix, Class2Law.free(2) is UT3Elem's arithmetic over Z
    rng = random.Random(46)
    law = ut3.Class2Law.free(2)
    for _ in range(300):
        a, b = (_random_nilform(rng, 2) for _ in range(2))
        a, b, m = a.e + a.f, b.e + b.f, rng.randint(-5, 5)
        g, h = to_matrix(_form(2, a)), to_matrix(_form(2, b))
        assert to_matrix(_form(2, law.mul(a, b))) == g * h
        assert to_matrix(_form(2, law.inv(a))) == g.inv()
        assert to_matrix(_form(2, law.pow_int(a, m))) == g.pow_int(m)
        assert to_matrix(_form(2, law.comm(a, b))) == g.comm(h)
        # coset_key is (e23, e12), the entries a central factor leaves
        key = to_matrix(NilForm(2, law.coset_key(a), (0,)))
        assert (key.u23, key.u12) == (g.u23, g.u12)


def test_free_law_evaluates_words_as_nilform():
    # discriminate's evaluation of its targets on the free law, against
    # the same words on NilForms through the tests' ElementLaw
    from heislab import formula

    rng = random.Random(47)

    def word(depth):
        pick = rng.randrange(4 if depth else 1)
        if pick == 0:
            return f"a{rng.randint(1, 5)}"
        if pick == 1:
            return f"{word(depth - 1)}*{word(depth - 1)}"
        if pick == 2:
            return f"({word(depth - 1)})^{rng.randint(-3, 3)}"
        return f"[{word(depth - 1)},{word(depth - 1)}]"

    for n in (5, 7):
        law = ut3.Class2Law.free(n)
        units = [(f"a{k}", tuple(int(i == k - 1) for i in range(law.dim))) for k in range(1, n + 1)]
        forms = [(f"a{k}", generator(n, k)) for k in range(1, n + 1)]
        env = formula.GroupEnv(law, units[:2])
        oracle = formula.GroupEnv(ElementLaw(identity(n), lambda x: x.e), forms[:2])
        for _ in range(200):
            t = formula.parse_term(word(3))
            got = formula.eval_term(t, env, dict(units[2:]))
            assert _form(n, got) == formula.eval_term(t, oracle, dict(forms[2:]))


def test_coset_key_classes_match_the_heisenberg_ball():
    # the rank-2 free law is H, and to_matrix sends coset_key to (e23, e12)
    from heislab import formula, reprs

    env = formula.GroupEnv(ut3.Class2Law.free(2), [("a1", (1, 0, 0)), ("a2", (0, 1, 0))])
    rep = reprs.heisenberg()
    H = rep.env()
    for bound in range(4):
        assert [to_matrix(_form(2, x)) for x, _ in env.ball(bound)] == [
            rep.to_ut3(g) for g, _ in H.ball(bound)
        ]
        assert [(to_matrix(_form(2, x)), w) for x, w in env.class_ball(bound)[0]] == [
            (rep.to_ut3(g), w) for g, w in H.class_ball(bound)[0]
        ]


def test_to_matrix_injective_on_samples():
    rng = random.Random(4)
    seen = {}
    for _ in range(300):
        x = random_form(rng, 2)
        m = to_matrix(x)
        key = (str(m.u12), str(m.u13), str(m.u23))
        if key in seen:
            assert seen[key] == x
        seen[key] = x


def test_hom_respects_operations():
    rng = random.Random(5)
    images = [generator(2, 1), collect(2, [(2, 1), (1, 1)])]
    phi = Hom(images, identity(2))
    for _ in range(50):
        x = random_form(rng, 2)
        y = random_form(rng, 2)
        assert phi(x * y) == phi(x) * phi(y)
        assert phi(x.inv()) == phi(x).inv()


def test_hom_killing_a_generator():
    # a3 -> 1 kills exactly the forms that need a3
    phi = Hom([ut3.a1(Z), ut3.a2(Z), ut3.identity(Z)], ut3.identity(Z))
    assert phi(generator(3, 3)).is_identity()
    assert not phi(generator(3, 1)).is_identity()
    x = collect(3, [(3, 1), (1, 1)])  # a3*a1 -> a1
    assert phi(x) == ut3.a1(Z)


def test_hom_commutator_bilinearity():
    # a1 -> a1^2 sends c = [a2,a1] to c^2
    phi = Hom([ut3.a1(Z).pow_int(2), ut3.a2(Z)], ut3.identity(Z))
    c = collect(2, [(2, -1), (1, -1), (2, 1), (1, 1)])
    assert phi(c) == ut3.a2(Z).comm(ut3.a1(Z)).pow_int(2)


def test_discriminate_single_target():
    law, ts = on_free_law([generator(3, 3)])
    cert = discriminate_to_H(law, ts)
    assert cert.verify(ts)


def test_verify_wants_one_target_per_image():
    law, ts = on_free_law([generator(4, 3), generator(4, 4)])
    cert = discriminate_to_H(law, ts)
    assert cert.verify(ts)
    assert not cert.verify(ts[:1])
    assert not cert.verify(ts + on_free_law([generator(4, 1)])[1])


def test_discriminate_needs_nontrivial_image():
    # a3 dies under a3->1, so the exponents cannot all be zero
    t = collect(3, [(3, 1)])
    cert = discriminate_to_H(*on_free_law([t]))
    assert cert.verify(on_free_law([t])[1])
    assert not h_hom(cert.extra_images)(t).is_identity()
    assert any(any(e) for e in cert.extra_images)


def test_discriminate_fixed_rank2_part():
    c = collect(3, [(2, -1), (1, -1), (2, 1), (1, 1)])  # [a2,a1]
    cert = discriminate_to_H(*on_free_law([c]))
    assert h_hom(cert.extra_images)(c) == ut3.a2(Z).comm(ut3.a1(Z))
    assert cert.target_images == (ut3.a2(Z).comm(ut3.a1(Z)),)


def test_discriminate_rejects_identity_target():
    with pytest.raises(ValueError):
        discriminate_to_H(*on_free_law([identity(3)]))
    with pytest.raises(ValueError):
        discriminate_to_H(*on_free_law([], 3))


def test_discriminate_random_sets():
    rng = random.Random(6)
    for _ in range(50):
        targets = []
        while len(targets) < rng.randint(1, 5):
            t = random_form(rng, 3, bound=3)
            if not t.is_identity():
                targets.append(t)
        law, ts = on_free_law(targets)
        cert = discriminate_to_H(law, ts)
        assert cert.verify(ts)
        for t, img in zip(targets, cert.target_images):
            assert not img.is_identity()


def test_discriminate_leaves_the_exponent_cube():
    # a3*[a2,a1]^-r*a2^-q*a1^-p dies when a3 goes to a1^p*a2^q*[a2,a1]^r, so
    # these 27 targets leave a3 no exponent triple in {-1,0,1}^3
    a1, a2, a3 = (generator(5, k) for k in (1, 2, 3))
    c = a2.comm(a1)
    targets = [
        a3 * c.pow_int(-r) * a2.pow_int(-q) * a1.pow_int(-p)
        for p in (-1, 0, 1)
        for q in (-1, 0, 1)
        for r in (-1, 0, 1)
    ]
    targets.append(generator(5, 4) * generator(5, 5))
    law, ts = on_free_law(targets)
    started = time.perf_counter()
    cert = discriminate_to_H(law, ts)
    assert time.perf_counter() - started < 2.0
    assert cert.verify(ts)
    assert cert.extra_images == ((0, 0, 2), (0, 0, 0), (0, 0, 1))


def test_discriminate_exponents_zero_when_trivial_retraction_works():
    rng = random.Random(9)
    seen_zero = seen_nonzero = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        targets = []
        while len(targets) < rng.randint(1, 4):
            t = random_form(rng, n)
            if not t.is_identity():
                targets.append(t)
        trivial = Hom(
            [ut3.a1(Z), ut3.a2(Z)] + [ut3.identity(Z)] * (n - 2), ut3.identity(Z)
        )
        law, ts = on_free_law(targets)
        cert = discriminate_to_H(law, ts)
        assert cert.verify(ts)
        if all(not trivial(t).is_identity() for t in targets):
            assert cert.extra_images == ((0, 0, 0),) * (n - 2)
            seen_zero += 1
        else:
            assert any(any(e) for e in cert.extra_images)
            seen_nonzero += 1
    assert seen_zero and seen_nonzero


def _random_targets(rng: random.Random, n: int) -> list[NilForm]:
    """Nonidentity forms of rank n: general ones with exponents from the
    small ones up to +-10^6, commutator-only ones, and ones that die under
    a_k -> 1 for every k > 2 (no a1, a2 or [a2,a1] in them)."""

    def exponent():
        return rng.choice((0, 0, 0, 1, -1, 2, -3, rng.randint(-(10**6), 10**6)))

    npairs = n * (n - 1) // 2
    out = []
    while len(out) < rng.randint(1, 5):
        kind = rng.randrange(3)
        e = [0] * n if kind == 1 else [exponent() for _ in range(n)]
        f = [exponent() for _ in range(npairs)]
        if kind == 2:
            e[0] = e[1] = f[0] = 0
        t = NilForm(n, tuple(e), tuple(f))
        if not t.is_identity():
            out.append(t)
    return out


def test_generic_forms_match_the_generic_hom():
    rng = random.Random(24)
    cases = [_random_targets(rng, n) for n in range(2, 9) for _ in range(12)]
    # last, one rank-100 set, where the exponents move at a64, a99 and a100
    a = [None] + [generator(100, k) for k in range(1, 101)]
    cases.append(
        [a[100], a[99].comm(a[100]), a[3] * a[57].pow_int(2) * a[100].inv(), a[1].comm(a[64])]
    )
    moved = 0
    for targets in cases:
        n = targets[0].n
        names = [f"{v}{k}" for k in range(3, n + 1) for v in "pqr"]
        entries, exps, images = discriminate_to_H_generic(targets)
        law, ts = on_free_law(targets)
        assert [list(nilform.generic_forms(law, t)) for t in ts] == rings.terms_of(entries, names)
        cert = discriminate_to_H(law, ts)
        assert cert.extra_images == exps
        assert cert.target_images == images
        assert cert.verify(ts)
        moved += any(map(any, exps))
    assert moved  # some sets die under a_k -> 1 and move the exponents
    assert [k for k, e in enumerate(exps, 3) if any(e)] == [64, 99, 100]  # the rank-100 set


def test_discriminate_multiplies_nothing(monkeypatch):
    from heislab.rings import RingDesc, RingElem
    from heislab.ut3 import UT3Elem

    calls = {}

    def count(owner, attr):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    targets = _random_targets(random.Random(25), 6)
    targets.append(generator(6, 3))  # dies under a3 -> 1
    law, ts = on_free_law(targets)
    for owner, attr in (
        (RingDesc, "__init__"),
        (RingElem, "__mul__"),
        (UT3Elem, "__mul__"),
        (UT3Elem, "pow_int"),
        (UT3Elem, "comm"),
        (NilForm, "__init__"),
        (Hom, "apply"),
        (Hom, "__call__"),
        (Hom, "__init__"),
    ):
        count(owner, attr)
    cert = discriminate_to_H(law, ts)
    assert any(any(e) for e in cert.extra_images)
    # verify runs on the free law's tuples too
    assert cert.verify(ts)
    assert calls == {}


def test_verify_matches_the_hom_oracle():
    # verify on the tuples against the Hom onto UT3Elems on the NilForms:
    # random sets of ranks 2-6, each with one image changed, target lists
    # one short and one long, and the retraction a_k -> 1 with its own
    # images, which verify rejects exactly when it kills a target
    rng = random.Random(26)
    changed = killed = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        targets = _random_targets(rng, n)
        law, ts = on_free_law(targets)
        cert = discriminate_to_H(law, ts)
        assert cert.verify(ts) and verify_oracle(cert, targets)
        k = rng.randrange(len(ts))
        g = cert.target_images[k]
        for bad in (
            ut3.elem(Z, g.u12, g.u13 + RingElem.integer(Z, rng.choice((-1, 1))), g.u23),
            ut3.elem(Z, g.u12 + RingElem.one(Z), g.u13, g.u23),
            ut3.identity(Z),
        ):
            other = nilform.DiscriminationCertificate(
                cert.extra_images, cert.target_images[:k] + (bad,) + cert.target_images[k + 1 :]
            )
            assert not other.verify(ts) and not verify_oracle(other, targets)
            changed += 1
        assert not cert.verify(ts[:-1]) and not verify_oracle(cert, targets[:-1])
        assert not cert.verify(ts + ts[:1]) and not verify_oracle(cert, targets + targets[:1])
        # a tuple of another rank is no target of this certificate
        assert not cert.verify([t + (0,) for t in ts])
        trivial = ((0, 0, 0),) * (n - 2)
        own = nilform.DiscriminationCertificate(trivial, tuple(map(h_hom(trivial), targets)))
        alive = not any(g.is_identity() for g in own.target_images)
        assert own.verify(ts) == verify_oracle(own, targets) == alive
        killed += not alive
    assert changed == 450 and killed
