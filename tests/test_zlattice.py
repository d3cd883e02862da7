"""Tests for the HNF integer-lattice engine."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import corpus, intersect_coordinate_zero_general, row_reduce_oracle
from heislab import zlattice
from heislab.zlattice import hnf, in_source_coordinates, intersect_coordinate_zero, member, solve


def brute_member(vectors, v, coeff_bound=6):
    """Brute-force membership with coefficients in [-coeff_bound, coeff_bound]."""
    dim = len(v)
    for coeffs in itertools.product(
        range(-coeff_bound, coeff_bound + 1), repeat=len(vectors)
    ):
        s = [0] * dim
        for c, row in zip(coeffs, vectors):
            for j, x in enumerate(row):
                s[j] += c * x
        if tuple(s) == tuple(v):
            return True
    return False


def test_hnf_shape():
    L = hnf([(0, 1), (1, 0)])
    assert L.basis == ((1, 0), (0, 1))
    assert L.rank == 2
    L = hnf([(2, 4), (4, 8)])
    assert L.basis == ((2, 4),)


def test_hnf_empty_and_zero():
    L = hnf([], ambient_dim=3)
    assert L.rank == 0 and L.ambient_dim == 3
    L = hnf([(0, 0, 0)])
    assert L.rank == 0


def test_membership_basic():
    L = hnf([(2, 0), (0, 3)])
    assert member(L, (4, 3))
    assert not member(L, (1, 0))
    assert not member(L, (0, 1))
    assert member(L, (0, 0))
    assert solve(L, (4, -3)) == (2, -1)


def test_transform_reconstructs_sources():
    gens = [(2, 1, 0), (1, 1, 1), (0, 0, 3)]
    L = hnf(gens)
    for row, coeffs in zip(L.basis, L.transform):
        s = [0, 0, 0]
        for c, g in zip(coeffs, gens):
            for j, x in enumerate(g):
                s[j] += c * x
        assert tuple(s) == row


def test_in_source_coordinates():
    gens = [(2, 0), (3, 0)]
    L = hnf(gens)  # lattice Z*(1,0)
    coeffs = in_source_coordinates(L, (5, 0))
    s = [coeffs[0] * 2 + coeffs[1] * 3, 0]
    assert tuple(s) == (5, 0)
    assert in_source_coordinates(L, (0, 1)) is None


def test_intersect_coordinate_zero():
    L = hnf([(1, 0, 1), (0, 1, 1)])
    sub = intersect_coordinate_zero(L, [2])
    # vectors with last coordinate zero: multiples of (1,-1,0)
    assert sub.rank == 1
    assert sub.basis[0] in ((1, -1, 0), (-1, 1, 0))
    full = intersect_coordinate_zero(L, [])
    assert full.basis == L.basis


def test_intersect_transform_composes():
    gens = [(1, 0, 1), (0, 1, 1)]
    L = hnf(gens)
    sub = intersect_coordinate_zero(L, [2])
    for row, coeffs in zip(sub.basis, sub.transform):
        s = [0, 0, 0]
        for c, g in zip(coeffs, gens):
            for j, x in enumerate(g):
                s[j] += c * x
        assert tuple(s) == row


def test_intersect_out_of_range():
    L = hnf([(1, 0)])
    with pytest.raises(IndexError):
        intersect_coordinate_zero(L, [5])


def test_vectors_up_to():
    L = hnf([(1, 0), (0, 2)])
    vecs = set(L.vectors_up_to(1))
    assert vecs == {
        (a, 2 * b) for a in (-1, 0, 1) for b in (-1, 0, 1)
    }


def test_membership_vs_bruteforce_random():
    rng = random.Random(0)
    for trial in range(100):
        dim = rng.randint(1, 4)
        nvec = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(nvec)
        ]
        L = hnf(gens, ambient_dim=dim)
        v = tuple(rng.randint(-6, 6) for _ in range(dim))
        got = member(L, v)
        expect = brute_member(gens, v, coeff_bound=6)
        if expect:
            assert got  # brute found a combination, HNF must agree
        if got:
            # verify via exact coefficients instead of the bounded brute force
            coeffs = in_source_coordinates(L, v)
            s = [0] * dim
            for c, g in zip(coeffs, gens):
                for j, x in enumerate(g):
                    s[j] += c * x
            assert tuple(s) == v


def test_hnf_idempotent_random():
    rng = random.Random(1)
    for _ in range(50):
        dim = rng.randint(1, 5)
        gens = [
            tuple(rng.randint(-9, 9) for _ in range(dim))
            for _ in range(rng.randint(1, 5))
        ]
        L = hnf(gens, ambient_dim=dim)
        again = hnf(L.basis, ambient_dim=dim)
        assert again.basis == L.basis


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
        min_size=1,
        max_size=4,
    )
)
def test_hnf_contains_generators(gens):
    L = hnf(gens, ambient_dim=3)
    for g in gens:
        assert member(L, g)
    # HNF basis shape: positive pivots, staircase, reduced above
    pivots = []
    for row in L.basis:
        col = next(j for j, x in enumerate(row) if x)
        assert row[col] > 0
        pivots.append(col)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for i, row in enumerate(L.basis):
        for k in range(i):
            col = next(j for j, x in enumerate(row) if x)
            assert 0 <= L.basis[k][col] < row[col]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
def test_lattice_closed_under_combination(gens, coeffs):
    L = hnf(gens, ambient_dim=3)
    v = [0, 0, 0]
    for c, g in zip(coeffs, gens):
        for j, x in enumerate(g):
            v[j] += c * x
    assert member(L, tuple(v))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=1,
        max_size=4,
    )
)
def test_left_kernel_is_the_whole_integer_kernel(rows):
    n = len(rows)
    kernel = zlattice.left_kernel(rows)
    assert len(kernel) == n - hnf(rows, ambient_dim=2).rank
    for k in kernel:
        assert zlattice.combine(k, rows, 2) == [0, 0]
    # every small integer relation is an integer combination of the basis
    K = hnf(kernel, ambient_dim=n) if kernel else None
    for c in itertools.product(range(-2, 3), repeat=n):
        if any(c) and zlattice.combine(c, rows, 2) == [0, 0]:
            assert K is not None and member(K, c)


@st.composite
def integer_matrices(draw):
    """Tall, wide and square integer matrices (zero rows or zero columns
    allowed), with negative entries and some rows zeroed."""
    n = draw(st.integers(0, 7))
    dim = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim), min_size=n, max_size=n))
    return [[0] * dim if draw(st.integers(0, 4)) == 0 else row for row in rows]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example([[0, 0], [0, 0], [3, -6]])
@example([[-4, 6, 2], [6, -9, 3]])
@example([[0, 5, 7, 1, -2]])
@example([])
def test_row_reduce_matches_the_oracle(rows):
    # same row operations in the same order, so (rows, U) is identical
    assert zlattice._row_reduce([list(r) for r in rows]) == row_reduce_oracle([list(r) for r in rows])


@pytest.mark.parametrize("seed", range(6))
def test_prefix_intersection_matches_the_general_path(seed):
    # the rows of A's HNF that are 0 on range(m), with their transform rows,
    # are what the left-kernel path computes: basis and transform
    for rep in corpus(60, seed=seed):
        A = rep.A
        for m in range(1, A.ambient_dim + 1):
            assert intersect_coordinate_zero(A, range(m)) == intersect_coordinate_zero_general(A, range(m))
        n12 = len(rep.f12)
        assert rep.A1 == intersect_coordinate_zero_general(A, range(n12))


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_prefix_intersection_matches_the_general_path_on_random_lattices(rows):
    if not rows or not rows[0]:
        return
    L = hnf(rows)
    for m in range(1, L.ambient_dim + 1):
        assert intersect_coordinate_zero(L, range(m)) == intersect_coordinate_zero_general(L, range(m))
