"""End-to-end acceptance checks: exact reference values, exhaustive grids,
and runtime envelopes.

Every rational comparison is exact.  Grid tests enumerate their whole
parameter box; randomized tests run from fixed seeds.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from conftest import iter_signatures
from mufilt import (
    LTSModel,
    RaynaudDatum,
    Signature,
    appendix_lemma_check,
    appendix_lemma_detail,
    bijakowski_containment,
    classical_weighting,
    constants,
    deg_weighted,
    enumerate_split_subgroups,
    frobenius_deformation_check,
    generator_valuation,
    graded_valuation,
    hasse_recursion,
    hasse_threshold,
    hn_from_lattice,
    hn_mu_ordinary_tau,
    mu_ord_canonical_filtration,
    mu_ordinary_product,
    multiplication_map,
    prime_admissible,
    ptorsion_report,
    raynaud_hodge_tate_coker_degree,
    renormalize,
    reversed_hodge,
    t_decomposition_check,
    t_monomial,
    tau_weighting,
    tower_report,
    verify_phi_eq_p,
    worst_case,
)
from mufilt.cli_reports import run_command

F = Fraction

GRID_PRIMES = (2, 3, 5, 7)


def test_reference_constants_exact_and_fast():
    started = time.monotonic()
    sig = Signature(f=2, p=7, h=3, q=(1, 2))
    consts = constants(sig)
    assert consts.k == (0, 1)
    assert consts.K == (F(0), F(7, 48))
    assert consts.r == (1, 2)
    assert hasse_threshold(sig, 1, 1) == F(23, 48)
    assert hasse_threshold(sig, 1, 2) == F(23, 2352)
    k, K, r, n = oracles.constants_bruteforce(sig.f, sig.p, sig.q)
    assert consts.k == tuple(k)
    assert consts.K == tuple(K)
    assert consts.r == tuple(r)
    assert consts.n == tuple(n)
    for t in range(sig.f):
        for m in (1, 2):
            assert hasse_threshold(sig, t, m) == oracles.threshold_bruteforce(
                sig.f, sig.p, sig.q, t, m
            )
    assert time.monotonic() - started < 1.0


def test_mu_ordinary_hn_equalities():
    started = time.monotonic()
    for sig in iter_signatures(3, 4, GRID_PRIMES):
        target = reversed_hodge(sig)
        mu_polys = [hn_mu_ordinary_tau(sig, t) for t in range(sig.f)]
        for n in (1, 2):
            nodes = enumerate_split_subgroups(mu_ordinary_product(sig, n))
            classical = hn_from_lattice(
                nodes, classical_weighting(sig.p, sig.f)
            )
            assert renormalize(classical.polygon, n) == target
            for t in range(sig.f):
                res = hn_from_lattice(nodes, tau_weighting(sig.p, sig.f, t))
                assert res.filtration == classical.filtration
                scaled = renormalize(res.polygon, n)
                for x, y in scaled.points:
                    assert y == sig.f * mu_polys[t].value(x)
    assert time.monotonic() - started < 60.0


def test_raynaud_formula_matches_valuation_recursion():
    rng = random.Random(20260818)
    for f in range(1, 7):
        for p in GRID_PRIMES:
            for _ in range(1000):
                vd = tuple(F(rng.randrange(0, 33), 32) for _ in range(f))
                d = RaynaudDatum(f=f, p=p, vdelta=vd)
                vgamma = list(d.vgamma)
                for t in range(f):
                    assert raynaud_hodge_tate_coker_degree(
                        d, t
                    ) == oracles.raynaud_affine_cycle(p, vgamma, t)


def test_cyclotomic_period_grid():
    for f in range(1, 9):
        for p in oracles.primes_upto(97):
            assert t_decomposition_check(f, p)
            _, val = graded_valuation(t_monomial(f), p)
            assert val == F(1, p - 1)


@pytest.mark.slow
def test_multiplication_K_sweep():
    # neither the K constant nor the multiplication map reads the height
    # beyond the q range, and a slot nondegenerate at any h <= 6 is still
    # nondegenerate at h = 6, so the h = 6 box covers every smaller h
    # exactly once
    from itertools import product as iproduct

    h = 6
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for f in range(1, 7):
            for q in iproduct(range(h + 1), repeat=f):
                sig = Signature(f=f, p=p, h=h, q=q)
                consts = constants(sig)
                for t in range(f):
                    if q[t] in (0, h):
                        continue
                    mm = multiplication_map(sig, t)
                    assert mm.K_value == consts.K[t]


def test_transport_on_random_admissible():
    rng = random.Random(20260818)
    found = 0
    while found < 200:
        f = rng.randrange(1, 7)
        h = rng.randrange(1, 7)
        p = rng.choice((5, 7, 11, 13, 17, 19, 23))
        q = tuple(rng.randrange(0, h + 1) for _ in range(f))
        sig = Signature(f=f, p=p, h=h, q=q)
        ok, _ = prime_admissible(sig)
        taus = [t for t in range(f) if q[t] not in (0, h)]
        if not ok or not taus:
            continue
        for t in taus:
            assert multiplication_map(sig, t).transport_ok
        found += 1


def test_lt_crystal_suite_exhaustive():
    started = time.monotonic()
    for f in range(1, 7):
        for p in GRID_PRIMES:
            for size in range(f):
                for S in combinations(range(f), size):
                    Sset = frozenset(S)
                    for tau0 in range(f):
                        if tau0 in Sset:
                            continue
                        m = LTSModel(f=f, p=p, S=Sset, tau0=tau0)
                        check = verify_phi_eq_p(m)
                        assert check.eigen_ok
                        assert check.fil_pattern_ok
                        assert generator_valuation(m) < F(1, p - 1)
    assert time.monotonic() - started < 30.0


def test_tower_recursion_worst_case():
    ha = F(1, 400)
    for sig in iter_signatures(3, 4, GRID_PRIMES):
        expected = sig.p**sig.f * ha
        assert worst_case(sig, ha) == expected
        for t in range(sig.f):
            if sig.q[t] in (0, sig.h):
                continue
            assert hasse_recursion(sig, t, ha, ha) == expected
            break


def test_tower_quotient_bound():
    ha = F(1, 100)
    for sig in iter_signatures(3, 4, GRID_PRIMES):
        for t in range(sig.f):
            if sig.q[t] in (0, sig.h):
                continue
            rep = tower_report(sig, t, ha, 3)
            for lv in rep.levels:
                assert lv.ha_quotient <= sig.p ** (lv.level * sig.f) * ha
            break


def test_ptorsion_matches_cran_degrees():
    # independent paths: scalar identities on one side, the enumerated
    # canonical filtration on the other
    for sig in iter_signatures(3, 4, GRID_PRIMES):
        for members, desc in mu_ord_canonical_filtration(sig, 1):
            rep_t = members[0]
            if sig.q[rep_t] in (0, sig.h):
                continue
            rep = ptorsion_report(sig, rep_t, F(0))
            assert rep.slot_lower_bounds == desc.deg
            w = tau_weighting(sig.p, sig.f, rep_t)
            assert rep.deg_identity_rhs == deg_weighted(desc, w)


def test_frobenius_deformation_exhaustive():
    for sig in iter_signatures(3, 3, GRID_PRIMES):
        for n in (1, 2):
            check = frobenius_deformation_check(sig, n)
            assert check.heights_match
            assert check.subgroup_match


def test_appendix_lemma_grid():
    failures = []
    for p in oracles.primes_upto(97):
        for n in range(1, 9):
            for f in range(1, 9):
                if not appendix_lemma_check(p, n, f):
                    failures.append((p, n, f))
    assert failures == []


def test_appendix_anchor_grid():
    for p in oracles.primes_upto(97):
        for f in range(1, 9):
            assert appendix_lemma_detail(p, 1, f).anchor_ok
            assert 2 * p**f >= 3 * f + 1


def test_containment_certificate_fires_on_nested():
    for sig in iter_signatures(3, 4, GRID_PRIMES):
        for n in (1, 2):
            steps = mu_ord_canonical_filtration(sig, n)
            for i in range(len(steps)):
                for j in range(i + 1, len(steps)):
                    inner = steps[i][1]
                    outer = steps[j][1]
                    if inner.o_height == 0:
                        continue
                    assert bijakowski_containment(
                        sig,
                        n,
                        inner.o_height,
                        outer.o_height,
                        inner.total_degree,
                        outer.total_degree,
                    )


def test_containment_certificate_no_false_positives():
    for sig in iter_signatures(3, 4, GRID_PRIMES):
        for n in (1, 2):
            nodes = enumerate_split_subgroups(mu_ordinary_product(sig, n))
            for a in nodes:
                for b in nodes:
                    if a.o_height == 0 or a.o_height > b.o_height:
                        continue
                    if b.contains(a):
                        continue
                    assert not bijakowski_containment(
                        sig,
                        n,
                        a.o_height,
                        b.o_height,
                        a.total_degree,
                        b.total_degree,
                    )


def test_analyze_byte_identical(capsys):
    argv = [
        "analyze",
        "--sig",
        "{f:2,p:7,h:3,q:[1,2]}",
        "--ha",
        "{0:1/100,1:1/200}",
        "--n",
        "2",
        "--human",
    ]
    assert run_command(list(argv)) == 0
    first = capsys.readouterr().out
    assert run_command(list(argv)) == 0
    second = capsys.readouterr().out
    assert first.encode("utf-8") == second.encode("utf-8")
    json.loads(first)
