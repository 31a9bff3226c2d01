"""Polygon calculus: canonical form, evaluation, dominance, profiles."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import iter_signatures
from mufilt import (
    DomainMismatch,
    MufiltError,
    Polygon,
    hn_mu_ordinary_tau,
    hodge_polygon,
    renormalize,
    reversed_hodge,
)

F = Fraction


def poly(*pts, convexity="convex"):
    return Polygon(
        points=tuple((F(x), F(y)) for x, y in pts), convexity=convexity
    )


class TestCanonicalForm:
    def test_collinear_points_merge(self):
        p = poly((0, 0), (1, 1), (2, 2), (3, 4))
        assert p.points == ((F(0), F(0)), (F(2), F(2)), (F(3), F(4)))

    def test_must_start_at_origin(self):
        with pytest.raises(MufiltError):
            poly((1, 0), (2, 1))

    def test_rejects_nonincreasing_x(self):
        with pytest.raises(MufiltError):
            poly((0, 0), (1, 1), (1, 2))

    def test_convex_needs_nondecreasing_slopes(self):
        with pytest.raises(MufiltError):
            poly((0, 0), (1, 1), (2, 1.5))

    def test_concave_needs_nonincreasing_slopes(self):
        with pytest.raises(MufiltError):
            poly((0, 0), (1, 1), (2, 3), convexity="concave")
        poly((0, 0), (1, 2), (2, 3), convexity="concave")

    def test_single_point_degenerate(self):
        p = poly((0, 0))
        assert p.domain == (F(0), F(0))
        assert p.endpoint == (F(0), F(0))

    def test_merge_matches_oracle(self):
        pts = [(F(0), F(0)), (F(1), F(1, 2)), (F(2), F(1)), (F(3), F(3))]
        assert list(poly(*[(x, y) for x, y in pts]).points) == (
            oracles.merge_collinear(pts)
        )


class TestEvaluation:
    def test_value_at_breakpoints_and_midpoints(self):
        p = poly((0, 0), (1, 0), (3, 2), (4, 4))
        pts = list(p.points)
        for x in (F(0), F(1, 2), F(1), F(2), F(3), F(7, 2), F(4)):
            assert p.value(x) == oracles.eval_piecewise(pts, x)

    def test_value_outside_domain_rejected(self):
        p = poly((0, 0), (2, 1))
        with pytest.raises(DomainMismatch):
            p.value(F(-1, 2))
        with pytest.raises(DomainMismatch):
            p.value(F(5, 2))

    def test_slopes(self):
        p = poly((0, 0), (1, 0), (3, 2), (4, 4))
        assert p.slopes() == (F(0), F(1), F(2))


class TestHodgeAndReversed:
    def test_reference_hodge(self, ref_sig):
        p = hodge_polygon(ref_sig)
        assert p.points == (
            (F(0), F(0)),
            (F(1), F(0)),
            (F(2), F(1, 2)),
            (F(3), F(3, 2)),
        )

    def test_reference_reversed(self, ref_sig):
        p = reversed_hodge(ref_sig)
        assert p.points == (
            (F(0), F(0)),
            (F(1), F(1)),
            (F(2), F(3, 2)),
            (F(3), F(3, 2)),
        )

    def test_hodge_matches_oracle(self):
        # 2352 signatures; the closed form breaks only at the q-values
        for sig in iter_signatures(3, 8, (5,)):
            expected = oracles.hodge_unit_intervals(sig.f, sig.q, sig.h)
            assert list(hodge_polygon(sig).points) == expected

    def test_reversed_matches_oracle(self):
        for sig in iter_signatures(3, 8, (5,)):
            expected = oracles.reversed_hodge_unit_intervals(
                sig.f, sig.q, sig.h
            )
            assert list(reversed_hodge(sig).points) == expected

    def test_same_endpoint(self):
        for sig in iter_signatures(2, 4, (5,)):
            assert hodge_polygon(sig).endpoint == reversed_hodge(sig).endpoint

    def test_reversed_dominates_hodge(self):
        # both polygons break only at integers, so comparing at x = 0..h
        # settles dominance
        for sig in iter_signatures(2, 4, (5,)):
            upper, lower = reversed_hodge(sig), hodge_polygon(sig)
            assert upper.endpoint == lower.endpoint
            for x in range(sig.h + 1):
                assert upper.value(x) >= lower.value(x)


class TestTauProfile:
    def test_reference_values(self, ref_sig):
        p0 = hn_mu_ordinary_tau(ref_sig, 0)
        assert p0.points == (
            (F(0), F(0)),
            (F(1), F(4)),
            (F(2), F(9, 2)),
            (F(3), F(9, 2)),
        )
        p1 = hn_mu_ordinary_tau(ref_sig, 1)
        assert p1.points == (
            (F(0), F(0)),
            (F(1), F(4)),
            (F(2), F(15, 2)),
            (F(3), F(15, 2)),
        )

    def test_values_match_oracle_everywhere(self):
        for sig in iter_signatures(3, 3, (2, 7)):
            pvals = sig.p_values
            for t in range(sig.f):
                p = hn_mu_ordinary_tau(sig, t)
                for x in (F(0), F(1, 2), F(1), F(3, 2), F(sig.h)):
                    if x > sig.h:
                        continue
                    assert p.value(x) == oracles.hn_tau_value(
                        sig.f, sig.p, pvals, t, x
                    )

    def test_concave(self):
        for sig in iter_signatures(2, 4, (3,)):
            for t in range(sig.f):
                p = hn_mu_ordinary_tau(sig, t)
                slopes = list(p.slopes())
                assert slopes == sorted(slopes, reverse=True)


class TestRenormalize:
    def test_halves_coordinates(self):
        p = poly((0, 0), (2, 1), (4, 4))
        r = renormalize(p, 2)
        assert r.points == ((F(0), F(0)), (F(1), F(1, 2)), (F(2), F(2)))

    def test_identity_at_one(self):
        p = poly((0, 0), (2, 1))
        assert renormalize(p, 1) == p

    def test_rejects_bad_n(self):
        p = poly((0, 0), (2, 1))
        with pytest.raises(DomainMismatch):
            renormalize(p, 0)
        with pytest.raises(DomainMismatch):
            renormalize(p, F(1, 2))

    @given(st.integers(1, 5))
    def test_slopes_preserved(self, n):
        p = poly((0, 0), (1, 0), (3, 2), (4, 4))
        r = renormalize(p, n)
        assert r.slopes() == p.slopes()
