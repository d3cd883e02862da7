"""Tests for Mal'cev normal forms and discrimination into the rank-2 group."""

import random

import pytest

from heislab import nilform, ut3
from heislab.nilform import (
    DiscriminationBoundExceeded,
    NilForm,
    collect,
    discriminate_to_H,
    generator,
    hom_on_generators,
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
    phi = hom_on_generators(images)
    for _ in range(50):
        x = random_form(rng, 2)
        y = random_form(rng, 2)
        assert phi(x * y) == phi(x) * phi(y)
        assert phi(x.inv()) == phi(x).inv()


def test_hom_killing_a_generator():
    # a3 -> 1 kills exactly the forms that need a3
    phi = hom_on_generators(
        [ut3.a1(Z), ut3.a2(Z), ut3.identity(Z)], ut3.identity(Z)
    )
    assert phi(generator(3, 3)).is_identity()
    assert not phi(generator(3, 1)).is_identity()
    x = collect(3, [(3, 1), (1, 1)])  # a3*a1 -> a1
    assert phi(x) == ut3.a1(Z)


def test_hom_commutator_bilinearity():
    # a1 -> a1^2 sends c = [a2,a1] to c^2
    phi = hom_on_generators([ut3.a1(Z).pow_int(2), ut3.a2(Z)], ut3.identity(Z))
    c = collect(2, [(2, -1), (1, -1), (2, 1), (1, 1)])
    assert phi(c) == ut3.a2(Z).comm(ut3.a1(Z)).pow_int(2)


def test_discriminate_single_target():
    cert = discriminate_to_H([generator(3, 3)])
    assert cert.verify([generator(3, 3)])


def test_discriminate_needs_nontrivial_image():
    # a3*a1^-1 dies under a3->1 and a3->a1; the search must move past both
    t = collect(3, [(3, 1), (1, -1)])
    cert = discriminate_to_H([t])
    assert cert.verify([t])
    assert not cert.hom(t).is_identity()


def test_discriminate_fixed_rank2_part():
    c = collect(3, [(2, -1), (1, -1), (2, 1), (1, 1)])  # [a2,a1]
    cert = discriminate_to_H([c])
    assert cert.hom(c) == ut3.a2(Z).comm(ut3.a1(Z))


def test_discriminate_rejects_identity_target():
    with pytest.raises(ValueError):
        discriminate_to_H([identity(3)])
    with pytest.raises(ValueError):
        discriminate_to_H([])


def test_discriminate_random_sets():
    rng = random.Random(6)
    for _ in range(50):
        targets = []
        while len(targets) < rng.randint(1, 5):
            t = random_form(rng, 3, bound=3)
            if not t.is_identity():
                targets.append(t)
        cert = discriminate_to_H(targets)
        assert cert.verify(targets)
        for t, img in zip(targets, cert.target_images):
            assert not img.is_identity()


def test_discriminate_bound_exhausted():
    with pytest.raises(DiscriminationBoundExceeded):
        # cap 0 only allows a3 -> 1, which kills a3
        discriminate_to_H([generator(3, 3)], cap=0)
