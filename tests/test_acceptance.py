"""Acceptance suite: twelve oracle- and property-based criteria, each
printed as a single PASS/FAIL line (run with ``pytest -s`` or ``-v`` to see
them; pytest captures stdout otherwise)."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from conftest import corpus, lame_check_def1, product_oracle, random_ut3
from heislab import formula, nilform, reprs, rings, ut3, zlattice
from heislab.formula import builtin, refute_universal
from heislab.nilform import collect, discriminate_to_H, to_matrix
from heislab.reprs import (
    adjoin_center,
    big_powers_retraction,
    c_rank,
    extend_centralizer,
    heisenberg,
    lame_check,
    nzct_check,
    representation,
    sigma_check,
    solve_S,
    solve_T,
    tau_check,
)
from heislab.rings import DomainFailure, RingElem, Z, parse_elem, parse_ring, retract
from heislab.ut3 import UT3Elem, a1, a2, elem

ZZ = parse_ring("Z x Z")
ZTH = parse_ring("Z[theta]")


@contextmanager
def criterion(num, text, limit=None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {text}")
        raise
    elapsed = time.monotonic() - start
    if limit is not None and elapsed >= limit:
        print(f"FAIL criterion {num}: {text} (took {elapsed:.1f}s, limit {limit}s)")
        raise AssertionError(f"criterion {num} exceeded its {limit}s time limit")
    print(f"PASS criterion {num}: {text} ({elapsed:.2f}s)")


def test_criterion_1_zxz_counterexample():
    with criterion(1, "Z x Z representation violates the Lame property with witness entry e1", 1.0):
        rep = representation(ZZ, {"b": elem(ZZ, 0, 0, "(1,0)")})
        v = lame_check(rep)
        assert v.status == "violated"
        assert v.witness.element.u23 == parse_elem(ZZ, "(1,0)")


def test_criterion_2_ztheta_repair():
    with criterion(2, "the same group over Z[theta] satisfies the Lame property", 1.0):
        rep = representation(ZTH, {"b": elem(ZTH, 0, 0, "theta")})
        assert lame_check(rep).status == "holds"


def test_criterion_3_tau_failure_full_slices():
    with criterion(3, "tau fails on full slices of UT3(Z x Z); witness re-verified; search confirms at bound <= 2"):
        rep = representation(
            ZZ, {"Y": elem(ZZ, "(1,0)", 0, 0), "X": elem(ZZ, 0, 0, "(0,1)")}
        )
        v = tau_check(rep)
        assert v.status == "violated"
        y, x = v.witness.y, v.witness.x
        g1, g2 = a1(ZZ), a2(ZZ)
        assert y.comm(x).is_identity()
        assert g2.comm(y).is_identity()
        assert x.comm(g1).is_identity()
        assert not y.comm(g1).is_identity()
        assert not g2.comm(x).is_identity()
        out = refute_universal(builtin("tau"), rep.env(), 2)
        assert out.status == "violated"


def test_criterion_4_H_satisfies_tau_and_nzct():
    with criterion(4, "H satisfies tau and NZCT: exact holds; no counterexample in the word-length-4 ball", 30.0):
        H = heisenberg()
        assert tau_check(H).status == "holds"
        assert nzct_check(H, 4).status == "holds"
        env = H.env()
        assert refute_universal(builtin("tau"), env, 4).status == "inconclusive"
        assert refute_universal(builtin("NZCT"), env, 4).status == "inconclusive"


def test_criterion_5_lemma_equivalence_and_lame_implies_tau():
    with criterion(5, "Def-1 vs conditions-(1)/(2) Lame formulations agree and Lame implies tau on 200 random representations", 60.0):
        discrepancies = 0
        for rep in corpus(200, seed=5):
            s1 = lame_check(rep).status
            s2 = lame_check_def1(rep).status
            if s1 != s2:
                discrepancies += 1
            if s1 == "holds":
                assert tau_check(rep).status == "holds"
        assert discrepancies == 0


def test_criterion_6_collection_oracle():
    with criterion(6, "to_matrix is a homomorphism on 1000 random normal-form pairs", 5.0):
        rng = random.Random(6)

        def rand_form():
            word = [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))]
            return collect(2, word)

        for _ in range(1000):
            x, y = rand_form(), rand_form()
            assert to_matrix(x * y) == to_matrix(x) * to_matrix(y)


def test_criterion_7_discrimination():
    with criterion(7, "certified discriminating retractions for 50 random target sets in the rank-3 free 2-nilpotent group", 60.0):
        rng = random.Random(7)
        for _ in range(50):
            targets = []
            while len(targets) < rng.randint(1, 5):
                word = [
                    (rng.randint(1, 3), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 6))
                ]
                t = collect(3, word)
                if not t.is_identity() and max(
                    map(abs, t.e + t.f)
                ) <= 3:
                    targets.append(t)
            cert = discriminate_to_H(targets)
            assert cert.verify(targets)


def test_criterion_8_systems_and_sigma():
    with criterion(8, "solve_S/solve_T agree with bounded ball search on 100 random central targets; sigma verdicts on H and the Z[theta] example"):
        rng = random.Random(8)
        reps = corpus(25, seed=8)
        checked = 0
        for rep in reps:
            env = rep.env()
            ball = [(rep.law.to_ut3(e), w) for e, w in env.ball(3)]
            g1, g2 = a1(rep.ring), a2(rep.ring)
            for _ in range(4):
                g = product_oracle(rep, [rng.randint(-2, 2) for _ in rep.generators])
                h = product_oracle(rep, [rng.randint(-2, 2) for _ in rep.generators])
                z = g.comm(h)
                checked += 1
                sol = solve_S(rep, z)
                searched = next(
                    (
                        e
                        for e, _ in ball
                        if g2.comm(e).is_identity() and e.comm(g1) == z
                    ),
                    None,
                )
                # sound directions: search success implies exact solvability,
                # and every exact solution is verified by matrix arithmetic
                if searched is not None:
                    assert sol is not None
                if sol is not None:
                    assert g2.comm(sol.element).is_identity()
                    assert sol.element.comm(g1) == z
                sol_t = solve_T(rep, z)
                searched_t = next(
                    (
                        e
                        for e, _ in ball
                        if e.comm(g1).is_identity() and g2.comm(e) == z
                    ),
                    None,
                )
                if searched_t is not None:
                    assert sol_t is not None
                if sol_t is not None:
                    assert sol_t.element.comm(g1).is_identity()
                    assert g2.comm(sol_t.element) == z
        assert checked >= 100
        assert sigma_check(heisenberg()).status == "holds"
        v = sigma_check(representation(ZTH, {"b": elem(ZTH, 0, 0, "theta")}))
        assert v.status == "violated"
        assert v.witness.system == "S"  # the (theta, 0) membership failure
        assert v.witness.value == RingElem.var(ZTH, "theta")


def test_criterion_9_c_rank():
    with criterion(9, "C-rank: H has rank 1, the Z[theta] example rank 2, invariant under center adjunction"):
        assert c_rank(heisenberg()) == 1
        assert c_rank(representation(ZTH, {"b": elem(ZTH, 0, 0, "theta")})) == 2
        for rep in corpus(50, seed=9):
            assert c_rank(adjoin_center(rep)) == c_rank(rep)


def test_criterion_10_hnf_engine():
    with criterion(10, "HNF membership agrees with brute force on 100 random lattices; hnf is idempotent"):
        rng = random.Random(10)
        for _ in range(100):
            dim = rng.randint(1, 4)
            gens = [
                tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(1, 4))
            ]
            L = zlattice.hnf(gens, ambient_dim=dim)
            assert zlattice.hnf(L.basis, ambient_dim=dim).basis == L.basis
            v = tuple(rng.randint(-5, 5) for _ in range(dim))
            brute = False
            for coeffs in itertools.product(range(-6, 7), repeat=len(gens)):
                s = [0] * dim
                for c, g in zip(coeffs, gens):
                    for j, x in enumerate(g):
                        s[j] += c * x
                if tuple(s) == v:
                    brute = True
                    break
            got = zlattice.member(L, v)
            if brute:
                assert got
            if got:
                coeffs = zlattice.in_source_coordinates(L, v)
                s = [0] * dim
                for c, g in zip(coeffs, gens):
                    for j, x in enumerate(g):
                        s[j] += c * x
                assert tuple(s) == v


def test_criterion_11_big_powers():
    with criterion(11, "big_powers_retraction returns the minimal certified exponent on random extended targets"):
        rng = random.Random(11)
        rep2 = extend_centralizer(heisenberg(), 1, "theta")
        ring = rep2.ring
        th = RingElem.var(ring, "theta")
        zero = RingElem.zero(ring)

        def rand_entry():
            # theta-degree <= 3, small integer coefficients
            out = RingElem.zero(ring)
            for d in range(rng.randint(0, 3) + 1):
                c = rng.randint(-3, 3)
                if c:
                    out = out + RingElem.integer(ring, c) * th**d
            return out

        def substituted(g, n):
            return UT3Elem(
                ring,
                rings.substitute(g.u12, "theta", n),
                rings.substitute(g.u13, "theta", n),
                rings.substitute(g.u23, "theta", n),
            )

        for _ in range(30):
            targets = []
            while len(targets) < rng.randint(1, 5):
                g = UT3Elem(ring, rand_entry(), rand_entry(), rand_entry())
                if not g.is_identity():
                    targets.append(g)
            cert = big_powers_retraction(rep2, targets, 1)
            # certificate re-verified by direct substitution
            for g, img in zip(targets, cert.retracted_targets):
                assert substituted(g, cert.n) == img
                assert not img.is_identity()
            # minimality: every smaller n kills some target
            for m in range(1, cert.n):
                assert any(substituted(g, m).is_identity() for g in targets)


def test_criterion_12_ring_discrimination():
    with criterion(12, "rings.discriminate succeeds over every domain and produces verified annihilating pairs over every non-domain"):
        rng = random.Random(12)
        from conftest import random_poly_elem

        domains = [Z, ZTH]
        non_domains = [ZZ, parse_ring("Z^3")]
        for ring in domains:
            for _ in range(25):
                elems = []
                while len(elems) < rng.randint(1, 4):
                    x = random_poly_elem(rng, ring)
                    if not x.is_zero():
                        elems.append(x)
                rho = rings.discriminate(elems)
                assert not isinstance(rho, DomainFailure)
                for x in elems:
                    assert retract(rho, x) != 0
        for ring in non_domains:
            e_first = RingElem.idempotent(ring, 0)
            e_last = RingElem.idempotent(ring, ring.ncomponents - 1)
            out = rings.discriminate([e_first, e_last])
            assert isinstance(out, DomainFailure)
            u, v = out.witness
            assert not u.is_zero() and not v.is_zero()
            assert (u * v).is_zero()
