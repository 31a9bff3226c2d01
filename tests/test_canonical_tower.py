"""Canonical subgroup scalars: degree identities, recursions, tower levels."""

from fractions import Fraction

import pytest

import oracles
from conftest import iter_signatures
from mufilt import (
    AppendixDetail,
    DegenerateEmbedding,
    HypothesisViolation,
    MufiltError,
    NotMuOrdinary,
    Signature,
    WindowViolation,
    appendix_lemma_check,
    appendix_lemma_detail,
    duality_bookkeeping,
    frobenius_deformation_check,
    hasse_recursion,
    hasse_threshold,
    ptorsion_report,
    tower_report,
    worst_case,
)

F = Fraction

HA = F(1, 100)


class TestHasseInput:
    def test_out_of_range_rejected(self, ref_sig):
        with pytest.raises(MufiltError):
            worst_case(ref_sig, F(3, 2))
        with pytest.raises(MufiltError):
            tower_report(ref_sig, 1, F(-1, 2), 1)

    def test_boundary_values_allowed(self, ref_sig):
        assert worst_case(ref_sig, 0) == 0
        assert worst_case(ref_sig, 1) == 49


class TestPTorsionReport:
    def test_reference_values(self, ref_sig):
        rep = ptorsion_report(ref_sig, 1, HA)
        assert rep.deg_identity_rhs == F(799, 100)
        assert rep.coker_degree == F(701, 4800)
        assert rep.eps_tau == F(1363, 2400)
        assert rep.slot_lower_bounds == (F(699, 700), F(99, 100))
        assert rep.dual_deg_upper_bound == HA
        assert rep.classical_lower_bound == F(199, 100)
        assert rep.h1_ok

    def test_h1_flag_threshold(self, ref_sig):
        # flips exactly at 1 + K_tau - 2 q_tau/(p-1) = 23/48
        assert ptorsion_report(ref_sig, 1, F(23, 48) - F(1, 1000)).h1_ok
        assert not ptorsion_report(ref_sig, 1, F(23, 48)).h1_ok

    def test_zero_ha_identities(self, ref_sig):
        rep = ptorsion_report(ref_sig, 1, F(0))
        assert rep.deg_identity_rhs == 8
        assert rep.classical_lower_bound == 2
        assert rep.dual_deg_upper_bound == 0
        assert rep.slot_lower_bounds == (1, 1)

    def test_values_match_oracle_on_grid(self):
        has = (F(0), F(1, 100), F(1, 3), F(23, 48), F(1, 2), F(1))
        for sig in iter_signatures(3, 3, (2, 7)):
            for tau in range(sig.f):
                if sig.is_degenerate(tau):
                    continue
                for ha in has:
                    assert vars(ptorsion_report(sig, tau, ha)) == (
                        oracles.ptorsion_reference(sig.f, sig.p, sig.h, sig.q, tau, ha)
                    )

    def test_eps_capped_at_one(self):
        # K_0 = 7/48 > 0, so (K + 1)/q_0 exceeds 1 at ha = 0
        sig = Signature(f=2, p=7, h=3, q=(1, 0))
        rep = ptorsion_report(sig, 0, F(0))
        assert rep.eps_tau == 1

    def test_degenerate_embedding_rejected(self):
        sig = Signature(f=2, p=7, h=3, q=(0, 2))
        with pytest.raises(DegenerateEmbedding):
            ptorsion_report(sig, 0, F(0))

    def test_ha_validation(self, ref_sig):
        with pytest.raises(MufiltError):
            ptorsion_report(ref_sig, 1, F(3, 2))


class TestHasseRecursion:
    def test_reference_value(self, ref_sig):
        assert hasse_recursion(ref_sig, 1, HA, F(1, 200)) == F(1, 4)

    def test_zero_dual_degree_is_identity(self, ref_sig):
        assert hasse_recursion(ref_sig, 1, HA, F(0)) == HA

    def test_window_violation_carries_fallback(self, ref_sig):
        with pytest.raises(WindowViolation) as exc:
            hasse_recursion(ref_sig, 1, HA, F(1, 4))
        assert exc.value.fallback_lower_bound == F(99, 100)

    def test_negative_dual_degree_rejected(self, ref_sig):
        with pytest.raises(MufiltError):
            hasse_recursion(ref_sig, 1, HA, F(-1, 10))

    def test_worst_case_reference(self, ref_sig):
        assert worst_case(ref_sig, HA) == F(49, 100)

    def test_recursion_at_worst_input_matches_worst_case(self, ref_sig):
        # deg_dual = ha saturates the recursion to p^f * ha
        p, f = ref_sig.p, ref_sig.f
        ha = F(1, 2 * p**f)
        assert hasse_recursion(ref_sig, 1, ha, ha) == worst_case(ref_sig, ha)


class TestTowerReport:
    def test_reference_levels(self, ref_sig):
        rep = tower_report(ref_sig, 1, HA, 2)
        assert rep.tau == 1 and rep.ha == HA
        lv1, lv2 = rep.levels
        assert lv1.deg_dual_tau == HA
        assert lv1.ha_quotient == F(49, 100)
        assert lv1.deg_lower_bound == F(799, 100)
        assert lv1.classical_lower_bound == F(199, 100)
        assert lv2.deg_dual_tau == F(1, 2)
        assert lv2.ha_quotient == F(2401, 100)
        assert lv2.deg_lower_bound == F(31, 2)
        assert lv2.classical_lower_bound == F(7, 2)

    def test_reference_hypotheses(self, ref_sig):
        rep = tower_report(ref_sig, 1, HA, 2)
        lv1, lv2 = (dict(lv.hypotheses) for lv in rep.levels)
        assert lv1["H1"] and lv1["Hn"]
        # level-2 threshold 23/2352 sits below ha = 1/100
        assert not lv2["Hn"]
        assert lv2["H1"] == lv1["H1"]

    def test_level_one_matches_ptorsion(self, ref_sig):
        lv1 = tower_report(ref_sig, 1, HA, 1).levels[0]
        rep = ptorsion_report(ref_sig, 1, HA)
        assert lv1.deg_lower_bound == rep.deg_identity_rhs
        assert lv1.classical_lower_bound == rep.classical_lower_bound
        assert dict(lv1.hypotheses)["H1"] == rep.h1_ok

    def test_dual_degree_accumulation(self, ref_sig):
        # delta_{m+1} = delta_m + p^{mf} * ha
        rep = tower_report(ref_sig, 1, HA, 4)
        p, f = ref_sig.p, ref_sig.f
        for prev, cur in zip(rep.levels, rep.levels[1:]):
            assert cur.deg_dual_tau == prev.deg_dual_tau + p ** (
                prev.level * f
            ) * HA
            assert cur.ha_quotient == p**f * prev.ha_quotient

    def test_bad_level_rejected(self, ref_sig):
        with pytest.raises(MufiltError):
            tower_report(ref_sig, 1, HA, 0)

    def test_hn_hf_flags_match_thresholds_on_grid(self):
        # Hn at level m, and Hf at level f, hold exactly when ha is below
        # hasse_threshold at every nondegenerate embedding; 23/48 and
        # 23/2352 sit on the ref_sig thresholds at levels 1 and 2
        has = (F(0), F(1, 100), F(1, 3), F(1, 2), F(1), F(23, 48), F(23, 2352))
        for sig in iter_signatures(3, 4, (2, 7)):
            live = [u for u in range(sig.f) if not sig.is_degenerate(u)]
            expected = {
                (ha, m): all(ha < hasse_threshold(sig, u, m) for u in live)
                for ha in has
                for m in range(1, 4)
            }
            for tau in range(sig.f):
                for ha in has:
                    for lv in tower_report(sig, tau, ha, 3).levels:
                        flags = dict(lv.hypotheses)
                        assert flags["Hn"] == expected[ha, lv.level]
                        assert flags["Hf"] == expected[ha, sig.f]

    def test_flags_at_knife_edges(self):
        # ha exactly on each edge and 10^-6 to either side: the H1 bound,
        # the level-m Hn floor over p^{(m-1)f} for m up to f (so Hf's edge
        # too), and at levels 1 and 2 the ha whose accumulated dual degree
        # is the H2 edge (p-2)/(p-1) and the H3 bound
        eps = F(1, 10**6)
        n = 2
        for sig in iter_signatures(3, 4, (2, 3, 7)):
            f, p, h, q = sig.f, sig.p, sig.h, sig.q
            K = oracles.constants_bruteforce(f, p, q)[1]
            live = [u for u in range(f) if not sig.is_degenerate(u)]
            if not live:
                continue
            floor = min(
                min(F(1, 2), oracles.h1_bound_reference(p, q[u], K[u])) for u in live
            )
            for tau in live:
                h1 = oracles.h1_bound_reference(p, q[tau], K[tau])
                edges = {h1} | {floor / p ** ((m - 1) * f) for m in range(1, f + 1)}
                for m in range(1, n + 1):
                    edges.add(F(p - 2, p - 1) / sum(p ** (i * f) for i in range(m)))
                    edges.add(oracles.h3_bound_reference(f, p, q[tau], K[tau], m))
                has = {e + d for e in edges for d in (-eps, 0, eps)}
                for ha in sorted(x for x in has if 0 <= x <= 1):
                    got = [
                        {
                            "deg_dual_tau": lv.deg_dual_tau,
                            "ha_quotient": lv.ha_quotient,
                            "deg_lower_bound": lv.deg_lower_bound,
                            "classical_lower_bound": lv.classical_lower_bound,
                            **dict(lv.hypotheses),
                        }
                        for lv in tower_report(sig, tau, ha, n).levels
                    ]
                    assert got == oracles.tower_reference(f, p, h, q, tau, ha, n)
                    assert ptorsion_report(sig, tau, ha).h1_ok == (ha < h1)

    def test_hf_at_large_f_matches_fraction_formula(self):
        # Hf compares ha p^{(f-1)f} with the floor; at f = 40 and p = 5 that
        # power has 3623 bits, and ha on the edge has a denominator as large
        f, p = 40, 5
        sig = Signature(f=f, p=p, h=3, q=tuple(i % 3 for i in range(f)))
        K = oracles.constants_bruteforce(f, p, sig.q)[1]
        floor = min(
            min(F(1, 2), oracles.h1_bound_reference(p, sig.q[u], K[u]))
            for u in range(f)
            if not sig.is_degenerate(u)
        )
        assert floor > 0
        edge = floor / p ** ((f - 1) * f)
        for ha in (F(0), edge - edge / 7, edge, edge + edge / 7, F(1, 100), F(1)):
            (lv,) = tower_report(sig, 1, ha, 1).levels
            assert dict(lv.hypotheses)["Hf"] == (ha * p ** ((f - 1) * f) < floor)


class TestDeformationCheck:
    def test_reference_exponents(self, ref_sig):
        chk = frobenius_deformation_check(ref_sig, 1)
        assert chk.k_exponents == (0, 1, 2)
        assert chk.ker_exponents == (0, 1, 2)
        assert chk.heights_match and chk.subgroup_match
        assert chk.o_height == 3

    def test_exponents_capped_at_f(self, ref_sig):
        chk = frobenius_deformation_check(ref_sig, 5)
        assert all(e <= ref_sig.f for e in chk.k_exponents)
        assert chk.subgroup_match

    def test_nonzero_ha_rejected(self, ref_sig):
        with pytest.raises(NotMuOrdinary):
            frobenius_deformation_check(ref_sig, 1, ha=F(1, 10))

    def test_bad_level_rejected(self, ref_sig):
        with pytest.raises(MufiltError):
            frobenius_deformation_check(ref_sig, 0)


class TestAppendixLemma:
    def test_known_failure_point(self):
        det = appendix_lemma_detail(2, 3, 1)
        assert not det.displayed_ok
        assert det.reduced_ok
        assert det.anchor_ok
        assert not appendix_lemma_check(2, 3, 1)

    def test_reference_pass_point(self):
        det = appendix_lemma_detail(7, 2, 2)
        assert det.displayed_ok and det.reduced_ok and det.anchor_ok
        assert appendix_lemma_check(7, 2, 2)

    def test_cleared_form_matches_displayed_on_grid(self):
        # multiplying the displayed inequality by (P - 1) * 2 P^{n-1} f, with
        # P = p^f, leaves P^{n-1} (2fP - 2f - 3) + 3 >= 0; the coded reduced
        # form is not that and parts from it exactly at the six failures
        disagree = []
        for p in oracles.primes_upto(97):
            for n in range(1, 9):
                for f in range(1, 9):
                    det = appendix_lemma_detail(p, n, f)
                    P = p**f
                    cleared = P ** (n - 1) * (2 * f * P - 2 * f - 3) + 3 >= 0
                    assert cleared == det.displayed_ok
                    assert det == AppendixDetail(
                        displayed_ok=oracles.appendix_displayed_bruteforce(p, n, f),
                        reduced_ok=oracles.appendix_reduced_bruteforce(p, n, f),
                        anchor_ok=oracles.appendix_anchor_bruteforce(p, f),
                    )
                    if det.reduced_ok != det.displayed_ok:
                        disagree.append((p, n, f))
        assert disagree == [(2, n, 1) for n in range(3, 9)]

    def test_validation(self):
        with pytest.raises(MufiltError):
            appendix_lemma_detail(4, 2, 2)
        with pytest.raises(MufiltError):
            appendix_lemma_detail(5, 0, 2)

    def test_non_integer_p_rejected(self):
        with pytest.raises(MufiltError):
            appendix_lemma_detail(7.0, 2, 1)


class TestDualityBookkeeping:
    def test_reference_chain(self, ref_sig):
        bk = duality_bookkeeping(ref_sig, 1, HA)
        assert bk.chain == (F(199, 100),) * 5
        assert bk.perp_deg_lower_bound == F(199, 100)
        assert bk.consistent

    def test_chain_matches_classical_bound(self):
        for sig in (
            Signature(f=2, p=7, h=3, q=(1, 2)),
            Signature(f=3, p=5, h=4, q=(1, 2, 3)),
            Signature(f=2, p=11, h=5, q=(2, 4)),
        ):
            for tau in range(sig.f):
                if sig.q[tau] in (0, sig.h):
                    continue
                try:
                    bk = duality_bookkeeping(sig, tau, F(1, 1000))
                except HypothesisViolation:
                    # threshold can be negative at large q_tau
                    continue
                assert bk.consistent
                assert bk.perp_deg_lower_bound == ptorsion_report(
                    sig, tau, F(1, 1000)
                ).classical_lower_bound

    def test_threshold_violation(self, ref_sig):
        with pytest.raises(HypothesisViolation):
            duality_bookkeeping(ref_sig, 1, F(1, 2))
