"""Generalized Lubin-Tate crystals: Frobenius patterns and Tate generators."""

from fractions import Fraction
from itertools import combinations

import pytest

from mufilt import (
    LTSModel,
    MufiltError,
    frobenius_matrix,
    generator_valuation,
    graded_valuation,
    solution_count_mod_p,
    tate_generator,
    verify_phi_eq_p,
)

F = Fraction


def iter_models(fmax, primes):
    for f in range(1, fmax + 1):
        slots = range(f)
        for size in range(f):
            for S in combinations(slots, size):
                for tau0 in slots:
                    if tau0 in S:
                        continue
                    for p in primes:
                        yield LTSModel(f=f, p=p, S=frozenset(S), tau0=tau0)


class TestModelValidation:
    def test_reference_model_accepted(self):
        m = LTSModel(f=2, p=5, S=frozenset({0}), tau0=1)
        assert m.S == frozenset({0})

    def test_set_input_coerced(self):
        m = LTSModel(f=3, p=3, S={1}, tau0=0)
        assert isinstance(m.S, frozenset)

    def test_bad_f(self):
        with pytest.raises(MufiltError):
            LTSModel(f=0, p=5, S=frozenset(), tau0=0)

    def test_composite_p(self):
        with pytest.raises(MufiltError):
            LTSModel(f=2, p=6, S=frozenset(), tau0=0)

    def test_S_outside_range(self):
        with pytest.raises(MufiltError):
            LTSModel(f=2, p=5, S=frozenset({2}), tau0=0)

    def test_S_must_be_proper(self):
        with pytest.raises(MufiltError):
            LTSModel(f=1, p=5, S=frozenset({0}), tau0=0)

    def test_tau0_out_of_range(self):
        with pytest.raises(MufiltError):
            LTSModel(f=2, p=5, S=frozenset(), tau0=2)

    def test_non_integer_tau0_rejected(self):
        with pytest.raises(MufiltError, match="out of range"):
            LTSModel(f=2, p=5, S=frozenset({0}), tau0=1.0)

    def test_tau0_inside_S(self):
        with pytest.raises(MufiltError):
            LTSModel(f=2, p=5, S=frozenset({0}), tau0=0)


class TestFrobeniusMatrix:
    def test_reference_pattern(self):
        m = LTSModel(f=4, p=5, S=frozenset({0, 2}), tau0=1)
        assert frobenius_matrix(m) == (1, 0, 1, 0)

    def test_empty_S_gives_all_ones(self):
        m = LTSModel(f=3, p=3, S=frozenset(), tau0=0)
        assert frobenius_matrix(m) == (1, 1, 1)

    def test_exponent_sum_counts_complement(self):
        for m in iter_models(4, (3,)):
            assert sum(frobenius_matrix(m)) == m.f - len(m.S)


class TestTateGenerator:
    def test_reference_entries(self):
        m = LTSModel(f=2, p=5, S=frozenset({0}), tau0=1)
        g = tate_generator(m)
        assert [e.text() for e in g.entries] == ["t_O^1", "(phi^1 t_O / p)^1"]

    def test_reference_valuation(self):
        m = LTSModel(f=2, p=5, S=frozenset({0}), tau0=1)
        assert generator_valuation(m) == F(5, 24)
        assert generator_valuation(m) < F(1, 4)

    def test_trivial_crystal(self):
        # S empty: every slot holds the unit monomial
        m = LTSModel(f=3, p=7, S=frozenset(), tau0=1)
        g = tate_generator(m)
        assert all(e.text() == "1" for e in g.entries)
        assert generator_valuation(m) == 0

    def test_valuation_stays_below_eigenvalue_bound(self):
        for m in iter_models(5, (2, 3, 5)):
            assert generator_valuation(m) < F(1, m.p - 1)

    def test_rotation_equivariance(self):
        # shifting S and tau0 by one slot rotates the generator entries
        for m in iter_models(4, (3,)):
            shifted = LTSModel(
                f=m.f,
                p=m.p,
                S=frozenset((s + 1) % m.f for s in m.S),
                tau0=(m.tau0 + 1) % m.f,
            )
            base = tate_generator(m).entries
            rot = tate_generator(shifted).entries
            assert rot == tuple(base[(t - 1) % m.f] for t in range(m.f))

    def test_filtration_degree_marks_S(self):
        for m in iter_models(4, (5,)):
            g = tate_generator(m)
            for t, e in enumerate(g.entries):
                deg, _ = graded_valuation(e, m.p)
                assert deg == (1 if t in m.S else 0)


class TestPhiEqP:
    def test_reference_model(self):
        m = LTSModel(f=2, p=5, S=frozenset({0}), tau0=1)
        chk = verify_phi_eq_p(m)
        assert chk.eigen_ok
        assert chk.fil_pattern_ok

    def test_exhaustive_small(self):
        for m in iter_models(4, (2, 3, 5)):
            chk = verify_phi_eq_p(m)
            assert chk.eigen_ok
            assert chk.fil_pattern_ok


class TestSolutionCount:
    def test_reference_count(self):
        m = LTSModel(f=2, p=5, S=frozenset({0}), tau0=1)
        assert solution_count_mod_p(m) == 25

    def test_count_on_grid(self):
        for m in iter_models(4, (2, 3)):
            assert solution_count_mod_p(m) == m.p**m.f
