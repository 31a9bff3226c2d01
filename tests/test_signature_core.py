"""Signature invariants: constants, thresholds, duality, decomposition."""

import time
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import iter_signatures
from mufilt import (
    DegenerateEmbedding,
    MufiltError,
    Signature,
    constants,
    hasse_threshold,
    ladder_index,
    mu_ordinary_decomposition,
    mu_ordinary_ladder,
    prime_admissible,
    threshold_existence,
    threshold_h1,
    threshold_h3,
)
from mufilt.signature_core import _frobenius_weights, _is_prime

sig_strategy = st.integers(1, 4).flatmap(
    lambda f: st.tuples(
        st.just(f),
        st.sampled_from((2, 3, 5, 7, 11, 13)),
        st.integers(1, 5),
    ).flatmap(
        lambda fph: st.tuples(
            st.just(fph),
            st.lists(
                st.integers(0, fph[2]), min_size=fph[0], max_size=fph[0]
            ),
        )
    )
).map(lambda t: Signature(f=t[0][0], p=t[0][1], h=t[0][2], q=tuple(t[1])))


class TestValidation:
    def test_rejects_nonpositive_f(self):
        with pytest.raises(MufiltError):
            Signature(f=0, p=7, h=3, q=())

    def test_rejects_composite_p(self):
        with pytest.raises(MufiltError):
            Signature(f=1, p=6, h=2, q=(1,))

    def test_rejects_nonpositive_h(self):
        with pytest.raises(MufiltError):
            Signature(f=1, p=7, h=0, q=(0,))

    def test_rejects_q_out_of_range(self):
        with pytest.raises(MufiltError):
            Signature(f=2, p=7, h=3, q=(1, 4))
        with pytest.raises(MufiltError):
            Signature(f=2, p=7, h=3, q=(-1, 2))

    def test_rejects_wrong_q_length(self):
        with pytest.raises(MufiltError):
            Signature(f=2, p=7, h=3, q=(1, 2, 0))

    def test_embedding_bounds(self, ref_sig):
        with pytest.raises(MufiltError):
            ref_sig.check_embedding(2)
        with pytest.raises(MufiltError):
            ref_sig.check_embedding(-1)

    def test_embedding_must_be_integer(self, ref_sig):
        with pytest.raises(MufiltError, match="out of range"):
            ref_sig.check_embedding(1.0)

    def test_p_values(self, ref_sig):
        assert ref_sig.p_values == (2, 1)


class TestPrimality:
    # Strong pseudoprimes to the prime bases up to 7, 23 and 37; psi_13 is
    # the least composite that Miller-Rabin over the bases up to 41 misses.
    PSEUDOPRIMES = (
        3215031751,
        3825123056546413051,
        318665857834031151167461,
    )
    PSI_13 = 3317044064679887385961981

    def test_agrees_with_sieve(self):
        bound = 10**5
        primes = set(oracles.primes_upto(bound))
        assert all(_is_prime(n) == (n in primes) for n in range(-2, bound + 1))

    def test_strong_pseudoprimes_rejected(self):
        for n in self.PSEUDOPRIMES:
            assert not _is_prime(n)
            with pytest.raises(MufiltError, match="prime"):
                Signature(f=1, p=n, h=1, q=(0,))

    def test_undecided_from_psi_13(self):
        with pytest.raises(MufiltError, match=str(self.PSI_13)):
            _is_prime(self.PSI_13)
        with pytest.raises(MufiltError, match=str(self.PSI_13)):
            Signature(f=1, p=self.PSI_13, h=1, q=(0,))
        # a factor among the bases still decides exactly
        assert not _is_prime(self.PSI_13 + 2)

    def test_large_prime_is_prompt(self):
        start = time.perf_counter()
        sig = Signature(f=1, p=10**18 + 3, h=1, q=(0,))
        assert time.perf_counter() - start < 1
        assert sig.p == 10**18 + 3


class TestConstants:
    def test_frobenius_weights_reference(self):
        # sigma^i tau gets p^{f-i}: from tau = 0 at f = 3, slot 1 gets p^2,
        # slot 2 gets p, and tau itself gets 1
        assert _frobenius_weights(3, 3, 0) == (1, 9, 3)
        assert _frobenius_weights(7, 2, 1) == (7, 1)

    def test_reference_values(self, ref_sig):
        c = constants(ref_sig)
        assert c.k == (0, 1)
        assert c.K == (Fraction(0), Fraction(7, 48))
        assert c.r == (1, 2)
        assert c.n == (1, 1)
        assert c.k_dual == (1, 0)

    def test_matches_bruteforce_on_grid(self):
        for sig in iter_signatures(3, 3, (2, 5, 11)):
            got = constants(sig)
            k, K, r, n = oracles.constants_bruteforce(sig.f, sig.p, sig.q)
            assert got.k == tuple(k)
            assert got.K == tuple(K)
            assert got.r == tuple(r)
            assert got.n == tuple(n)
            assert got.k_dual == tuple(
                oracles.dual_k_bruteforce(sig.f, sig.q, sig.h)
            )

    @given(sig_strategy)
    def test_matches_bruteforce_random(self, sig):
        got = constants(sig)
        k, K, r, n = oracles.constants_bruteforce(sig.f, sig.p, sig.q)
        assert (got.k, got.K, got.r, got.n) == (
            tuple(k),
            tuple(K),
            tuple(r),
            tuple(n),
        )

    @given(sig_strategy)
    def test_k_dual_is_k_of_dual(self, sig):
        # the dual datum swaps each q_tau with p_tau
        dual = Signature(sig.f, sig.p, sig.h, sig.p_values)
        assert constants(sig).k_dual == constants(dual).k

    def test_computed_once_per_signature(self, ref_sig):
        fresh = Signature(f=2, p=7, h=3, q=(1, 2))
        c = constants(ref_sig)
        assert constants(ref_sig) is c
        assert constants(fresh) == c
        # the memo is no field: a cached and an uncached instance still
        # compare, hash and print alike
        other = Signature(f=2, p=7, h=3, q=(1, 2))
        assert ref_sig == fresh == other
        assert hash(ref_sig) == hash(fresh) == hash(other)
        assert repr(ref_sig) == repr(other)
        assert [fld.name for fld in fields(ref_sig)] == ["f", "p", "h", "q"]


class TestThresholds:
    def test_reference_level_one(self, ref_sig):
        assert hasse_threshold(ref_sig, 1, 1) == Fraction(23, 48)

    def test_reference_level_two(self, ref_sig):
        assert hasse_threshold(ref_sig, 1, 2) == Fraction(23, 2352)

    def test_level_scaling(self, ref_sig):
        base = hasse_threshold(ref_sig, 1, 1)
        for n in (2, 3, 4):
            expected = base / ref_sig.p ** ((n - 1) * ref_sig.f)
            assert hasse_threshold(ref_sig, 1, n) == expected

    def test_non_integer_level_rejected(self, ref_sig):
        # a float level would turn the exact threshold into a float
        with pytest.raises(MufiltError, match="level n"):
            hasse_threshold(ref_sig, 1, 1.5)

    def test_degenerate_embedding_rejected(self):
        sig = Signature(f=2, p=7, h=3, q=(0, 3))
        for t in (0, 1):
            with pytest.raises(DegenerateEmbedding):
                hasse_threshold(sig, t, 1)

    def test_matches_bruteforce_on_grid(self):
        for sig in iter_signatures(3, 3, (2, 5, 11)):
            for t in range(sig.f):
                if sig.q[t] in (0, sig.h):
                    continue
                for n in (1, 2):
                    assert hasse_threshold(sig, t, n) == oracles.threshold_bruteforce(
                        sig.f, sig.p, sig.q, t, n
                    )

    def test_h1_variant(self, ref_sig):
        K = constants(ref_sig).K[1]
        q = ref_sig.q[1]
        assert threshold_h1(ref_sig, 1) == 1 + K - Fraction(2 * q, 6)

    def test_h3_variant(self, ref_sig):
        K = constants(ref_sig).K[1]
        p, f, q = 7, 2, 2
        for n in (1, 2, 3):
            expected = (1 + K) / p ** ((n - 1) * f) - Fraction(
                2 * q, p ** (n * f) - p ** ((n - 1) * f)
            )
            assert threshold_h3(ref_sig, 1, n) == expected

    def test_existence_uses_single_q(self, ref_sig):
        K = constants(ref_sig).K[1]
        assert threshold_existence(ref_sig, 1) == min(
            Fraction(1, 2), 1 + K - Fraction(2, 6)
        )

    @given(sig_strategy)
    def test_existence_at_least_main(self, sig):
        # subtracting 2q/(p-1) can only lower the cap relative to q/(p-1)
        for t in range(sig.f):
            if sig.q[t] in (0, sig.h):
                continue
            assert threshold_existence(sig, t) >= hasse_threshold(sig, t, 1)


class TestPrimeAdmissible:
    def test_reference_is_admissible(self, ref_sig):
        ok, diagnostics = prime_admissible(ref_sig)
        assert ok
        assert diagnostics == []

    def test_small_prime_fails_with_named_embedding(self):
        sig = Signature(f=2, p=2, h=3, q=(1, 2))
        ok, diagnostics = prime_admissible(sig)
        assert not ok
        assert diagnostics
        assert any("embedding" in d for d in diagnostics)

    def test_boundary_q_equals_p_minus_one(self):
        # q=2 with p=3 sits exactly at q = p-1, which is excluded
        sig = Signature(f=1, p=3, h=3, q=(2,))
        ok, _ = prime_admissible(sig)
        assert not ok

    def test_degenerate_embeddings_ignored(self):
        sig = Signature(f=2, p=2, h=2, q=(0, 2))
        ok, diagnostics = prime_admissible(sig)
        assert ok
        assert diagnostics == []


class TestDecomposition:
    def test_reference_factors(self, ref_sig):
        factors = mu_ordinary_decomposition(ref_sig)
        assert factors == (
            (frozenset(), 1),
            (frozenset({0}), 1),
            (frozenset({0, 1}), 1),
        )

    def test_all_q_zero_is_multiplicative(self):
        sig = Signature(f=2, p=5, h=3, q=(0, 0))
        assert mu_ordinary_decomposition(sig) == ((frozenset({0, 1}), 3),)

    def test_all_q_h_is_etale(self):
        sig = Signature(f=2, p=5, h=3, q=(3, 3))
        assert mu_ordinary_decomposition(sig) == ((frozenset(), 3),)

    def test_multiplicities_sum_to_height(self):
        for sig in iter_signatures(3, 4, (5,)):
            assert sum(m for _, m in mu_ordinary_decomposition(sig)) == sig.h

    def test_sets_strictly_increase(self):
        for sig in iter_signatures(3, 4, (5,)):
            factors = mu_ordinary_decomposition(sig)
            for (a1, _), (a2, _) in zip(factors, factors[1:]):
                assert a1 < a2

    def test_matches_bruteforce(self):
        for sig in iter_signatures(3, 4, (5,)):
            got = [(set(A), m) for A, m in mu_ordinary_decomposition(sig)]
            assert got == oracles.mu_ord_factors_bruteforce(sig.f, sig.q, sig.h)

    def test_signature_recovers_from_factors(self):
        # q_tau = sum of multiplicities of factors whose set misses tau
        for sig in iter_signatures(3, 4, (5,)):
            factors = mu_ordinary_decomposition(sig)
            for t in range(sig.f):
                q_t = sum(m for A, m in factors if t not in A)
                assert q_t == sig.q[t]

    def test_ladder_reference(self, ref_sig):
        assert mu_ordinary_ladder(ref_sig) == [0, 1, 2, 3]
        assert ladder_index(ref_sig, 0) == 1
        assert ladder_index(ref_sig, 1) == 2

    def test_ladder_index_at_height(self):
        sig = Signature(f=2, p=5, h=3, q=(1, 3))
        assert mu_ordinary_ladder(sig) == [0, 1, 3]
        assert ladder_index(sig, 1) == 2
