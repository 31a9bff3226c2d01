"""Period monomial algebra: Frobenius, valuations, multiplication maps."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import iter_signatures
from mufilt import (
    DegenerateEmbedding,
    MufiltError,
    NegativeExponent,
    PeriodMonomial,
    Signature,
    constants,
    d_matrix,
    faltings_margin,
    graded_valuation,
    mod_p_filp_valuation,
    monomial_frobenius,
    multiplication_coeff,
    multiplication_map,
    t_decomposition_check,
    t_monomial,
)

F = Fraction

exps_strategy = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=5),
    st.integers(min_value=0, max_value=9),
)


class TestMonomialAlgebra:
    def test_times_p_touches_only_counter(self):
        m = PeriodMonomial(2, (1,), 0)
        assert m.times_p(3) == PeriodMonomial(2, (1,), 3)

    def test_text_rendering(self):
        assert PeriodMonomial(1, (1,), 0).text() == "t_O^1 * (phi^1 t_O / p)^1"
        assert PeriodMonomial(0, (0, 0, 0)).text() == "1"
        assert PeriodMonomial(0, (0, 2), -1).text() == "(phi^2 t_O / p)^2 * p^-1"

    def test_f_property(self):
        assert PeriodMonomial(0, (), 0).f == 1
        assert PeriodMonomial(0, (0, 0, 0), 0).f == 4


class TestFrobenius:
    @given(exps_strategy)
    def test_matches_rotation_oracle(self, exps):
        a, b, c = exps
        m = monomial_frobenius(PeriodMonomial(a, tuple(b), c))
        assert (m.a, m.b, m.c) == oracles.frobenius_replay(a, tuple(b), c)

    def test_single_embedding(self):
        # f=1: phi fixes t_O up to the p-counter
        m = PeriodMonomial(3, (), 1)
        assert monomial_frobenius(m) == PeriodMonomial(3, (), 4)

    @given(exps_strategy)
    def test_full_cycle_returns_with_p_power(self, exps):
        a, b, c = exps
        m = PeriodMonomial(a, tuple(b), c)
        out = m
        for _ in range(m.f):
            out = monomial_frobenius(out)
        assert out == m.times_p(a + sum(b))

    def test_t_is_frobenius_eigenvector(self):
        for f in range(1, 7):
            t = t_monomial(f)
            assert monomial_frobenius(t) == t.times_p(1)


class TestGradedValuation:
    @given(exps_strategy, st.sampled_from([2, 3, 5, 7, 11]))
    def test_matches_oracle(self, exps, p):
        a, b, c = exps
        deg, val = graded_valuation(PeriodMonomial(a, tuple(b), c), p)
        assert deg == a
        assert val == oracles.graded_valuation_bruteforce(a, tuple(b), c, p)

    def test_negative_exponent_rejected(self):
        with pytest.raises(NegativeExponent):
            graded_valuation(PeriodMonomial(-1, (0,), 0), 5)
        with pytest.raises(NegativeExponent):
            graded_valuation(PeriodMonomial(0, (0, -2), 0), 5)

    def test_p_counter_may_be_negative(self):
        # only period exponents are sign-restricted
        _, val = graded_valuation(PeriodMonomial(1, (), -1), 2)
        assert val == F(1, 1) - 1

    def test_t_valuation(self):
        for f in range(1, 6):
            for p in (2, 3, 5, 7, 11):
                _, val = graded_valuation(t_monomial(f), p)
                assert val == F(1, p - 1)

    def test_t_decomposition_small_grid(self):
        for f in range(1, 6):
            for p in (2, 3, 5, 7, 11):
                assert t_decomposition_check(f, p)


class TestMultiplicationMap:
    def test_reference_coefficients(self, ref_sig):
        mm = multiplication_map(ref_sig, 1)
        assert [m.text() for m in mm.coeffs.entries] == [
            "t_O^1",
            "(phi^1 t_O / p)^1",
        ]

    def test_reference_K_value(self, ref_sig):
        mm = multiplication_map(ref_sig, 1)
        assert mm.K_value == F(7, 48)
        assert mm.K_value == constants(ref_sig).K[1]
        assert mm.transport_ok

    def test_K_matches_constants_on_grid(self):
        for sig in iter_signatures(3, 4, (2, 3, 5, 7)):
            cs = constants(sig)
            for tau in range(sig.f):
                if sig.q[tau] in (0, sig.h):
                    continue
                mm = multiplication_map(sig, tau)
                assert mm.K_value == cs.K[tau]
                assert mm.transport_ok

    def test_K_value_never_reads_constants(self, monkeypatch):
        # the K sweep compares K_value with constants(sig).K, which shows
        # something only while the multiplication map does not read constants
        import mufilt.period_calculus
        import mufilt.signature_core

        cases = [
            (sig, tau, constants(sig).K[tau])
            for sig in iter_signatures(3, 3, (2, 5))
            for tau in range(sig.f)
            if not sig.is_degenerate(tau)
        ]

        def refuse(sig):
            raise AssertionError("multiplication_map read constants")

        monkeypatch.setattr(mufilt.period_calculus, "constants", refuse)
        monkeypatch.setattr(mufilt.signature_core, "constants", refuse)
        for sig, tau, K in cases:
            assert multiplication_map(sig, tau).K_value == K

    def test_lazy_fields_match_eager_oracle(self):
        cases = 0
        for sig in iter_signatures(4, 5, (2, 3, 5, 7)):
            for tau in range(sig.f):
                if sig.is_degenerate(tau):
                    continue
                coeffs, K, transport = oracles.multiplication_map_eager(
                    sig.f, sig.p, sig.q, tau
                )
                mm = multiplication_map(sig, tau)
                assert mm.K_value == K
                assert [(m.a, m.b, m.c) for m in mm.coeffs.entries] == coeffs
                assert mm.transport_ok is transport is True
                cases += 1
        assert cases == 25864

    @pytest.mark.parametrize("first", ["coeffs", "transport_ok"])
    def test_construction_builds_one_coefficient(self, monkeypatch, first):
        import mufilt.period_calculus as pc

        calls = []
        original = pc.multiplication_coeff

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pc, "multiplication_coeff", counted)
        sig = Signature(f=4, p=5, h=4, q=(1, 3, 0, 2))
        mm = multiplication_map(sig, 1)
        assert calls == [(sig, 1, 1)]
        assert mm.K_value == constants(sig).K[1]
        assert len(calls) == 1
        getattr(mm, first)
        assert len(calls) == 1 + sig.f
        assert mm.transport_ok and len(mm.coeffs.entries) == sig.f
        assert len(calls) == 1 + sig.f

    def test_equality_and_hash_cover_signature_tau_and_K(self):
        sig = Signature(f=3, p=5, h=4, q=(1, 3, 2))
        a = multiplication_map(sig, 1)
        b = multiplication_map(Signature(f=3, p=5, h=4, q=(1, 3, 2)), 1)
        b.coeffs, b.transport_ok  # read on one side only
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != multiplication_map(sig, 2)
        assert a != multiplication_map(Signature(f=3, p=7, h=4, q=(1, 3, 2)), 1)
        # a map whose K_value differs from the one (sig, tau) gives is unequal
        c = multiplication_map(sig, 1)
        object.__setattr__(c, "K_value", a.K_value + 1)
        assert a != c
        assert (a.sig, a.tau, a.K_value) == (sig, 1, constants(sig).K[1])

    def test_coeff_exponents_match_oracle(self):
        for sig in iter_signatures(3, 4, (5,)):
            for tau in range(sig.f):
                for u in range(sig.f):
                    m = multiplication_coeff(sig, tau, u)
                    assert (m.a, m.b, m.c) == oracles.multiplication_coeff_bruteforce(
                        sig.f, sig.q, tau, u
                    )

    def test_degenerate_embedding_rejected(self):
        sig = Signature(f=2, p=7, h=3, q=(0, 2))
        with pytest.raises(DegenerateEmbedding):
            multiplication_map(sig, 0)
        sig = Signature(f=2, p=7, h=3, q=(3, 2))
        with pytest.raises(DegenerateEmbedding):
            multiplication_map(sig, 0)

    def test_embedding_out_of_range(self, ref_sig):
        with pytest.raises(MufiltError):
            multiplication_map(ref_sig, 2)


class TestDMatrix:
    def test_reference_values(self, ref_sig):
        assert d_matrix(ref_sig, 1) == (1, 2)
        assert d_matrix(ref_sig, 0) == (1, 1)

    def test_exponent_sum_identity(self):
        # sum of diagonal p-exponents is f*q_tau - k_tau
        for sig in iter_signatures(3, 4, (2, 3, 5, 7)):
            cs = constants(sig)
            for tau in range(sig.f):
                total = sum(d_matrix(sig, tau))
                assert total == sig.f * sig.q[tau] - cs.k[tau]

    def test_entries_bounded_by_q(self):
        for sig in iter_signatures(3, 3, (3,)):
            for tau in range(sig.f):
                for e in d_matrix(sig, tau):
                    assert 0 <= e <= sig.q[tau]

    def test_embedding_out_of_range(self, ref_sig):
        with pytest.raises(MufiltError):
            d_matrix(ref_sig, -1)


class TestFaltingsMargin:
    def test_reference_value(self, ref_sig):
        fm = faltings_margin(ref_sig, 1)
        assert fm.value == F(17, 48)
        assert fm.margin_ok

    def test_formula_on_grid(self):
        for sig in iter_signatures(2, 3, (3, 7)):
            cs = constants(sig)
            for tau in range(sig.f):
                fm = faltings_margin(sig, tau)
                expected = (
                    cs.K[tau] / sig.p
                    + F(sig.q[tau], sig.p * (sig.p - 1))
                    + F(sig.q[tau], sig.p)
                )
                assert fm.value == expected
                assert fm.margin_ok == (fm.value < 1)

    def test_margin_fails_at_small_prime(self):
        # p=2 forces value = K/2 + q_tau >= 1 at any q_tau >= 1
        sig = Signature(f=2, p=2, h=3, q=(1, 2))
        assert not faltings_margin(sig, 1).margin_ok


class TestModValuations:
    def test_reference_values(self, ref_sig):
        assert mod_p_filp_valuation(ref_sig, 1) == F(1, 48)

    def test_scaling_relation(self):
        for sig in iter_signatures(3, 3, (2, 5)):
            for tau in range(sig.f):
                assert mod_p_filp_valuation(sig, tau) == constants(sig).K[tau] / sig.p

    def test_embedding_out_of_range(self, ref_sig):
        with pytest.raises(MufiltError):
            mod_p_filp_valuation(ref_sig, 5)
