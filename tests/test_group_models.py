"""Group-scheme descriptors: Raynaud data, split products, enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import iter_signatures
from mufilt import (
    EnumerationCapExceeded,
    FiniteOModuleDesc,
    LTProductGroup,
    MufiltError,
    RaynaudDatum,
    SplitSubgroupDesc,
    enumerate_split_subgroups,
    mu_ord_canonical_filtration,
    mu_ordinary_product,
    raynaud_degrees,
    raynaud_dual,
    raynaud_hodge_tate_coker_degree,
)

F = Fraction

vdelta_strategy = st.lists(
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    min_size=1,
    max_size=5,
)


class TestRaynaud:
    def test_reference_coker(self):
        # f=2, p=5, parameter valuations (1/2, 1/3):
        # coker_0 = (5*(1 - 1/3) + (1 - 1/2)) / 24 = 23/144... frozen below
        d = RaynaudDatum(f=2, p=5, vdelta=(F(1, 2), F(1, 3)))
        got0 = raynaud_hodge_tate_coker_degree(d, 0)
        assert got0 == oracles.raynaud_affine_cycle(5, list(d.vgamma), 0)

    def test_spec_multiplicative_value(self):
        # all delta valuations zero: gamma valuations all 1, so the coker
        # degree collapses to 1/(p-1) at every slot
        for f in (1, 2, 3):
            for p in (2, 5, 97):
                d = RaynaudDatum(f=f, p=p, vdelta=(F(0),) * f)
                for t in range(f):
                    assert raynaud_hodge_tate_coker_degree(d, t) == F(1, p - 1)

    def test_etale_value(self):
        d = RaynaudDatum(f=2, p=5, vdelta=(F(1), F(1)))
        for t in range(2):
            assert raynaud_hodge_tate_coker_degree(d, t) == 0

    def test_degrees_complement_delta(self):
        d = RaynaudDatum(f=3, p=5, vdelta=(F(1, 2), F(0), F(1)))
        desc = raynaud_degrees(d)
        assert desc.deg == (F(1, 2), F(1), F(0))
        assert desc.o_height == 1
        assert desc.level == 1

    def test_vgamma_complements(self):
        d = RaynaudDatum(f=2, p=5, vdelta=(F(1, 4), F(2, 3)))
        assert d.vgamma == (F(3, 4), F(1, 3))

    def test_validation(self):
        with pytest.raises(MufiltError):
            RaynaudDatum(f=2, p=5, vdelta=(F(1, 2),))
        with pytest.raises(MufiltError):
            RaynaudDatum(f=1, p=5, vdelta=(F(3, 2),))
        with pytest.raises(MufiltError):
            RaynaudDatum(f=1, p=4, vdelta=(F(1, 2),))

    def test_non_integer_f_rejected(self):
        with pytest.raises(MufiltError):
            RaynaudDatum(f=2.0, p=5, vdelta=(0, 0))

    def test_non_integer_slot_rejected(self):
        d = RaynaudDatum(f=2, p=5, vdelta=(F(1, 2), F(1, 3)))
        with pytest.raises(MufiltError, match="out of range"):
            raynaud_hodge_tate_coker_degree(d, 1.0)

    @given(vdelta_strategy, st.sampled_from((2, 3, 5, 7)))
    def test_coker_matches_affine_oracle(self, vdelta, p):
        d = RaynaudDatum(f=len(vdelta), p=p, vdelta=tuple(vdelta))
        for t in range(d.f):
            assert raynaud_hodge_tate_coker_degree(d, t) == (
                oracles.raynaud_affine_cycle(p, list(d.vgamma), t)
            )

    @given(vdelta_strategy, st.sampled_from((2, 3, 5, 7)))
    def test_dual_flips_degrees(self, vdelta, p):
        d = RaynaudDatum(f=len(vdelta), p=p, vdelta=tuple(vdelta))
        desc = raynaud_degrees(d)
        flipped = raynaud_degrees(raynaud_dual(d))
        assert flipped.deg == tuple(1 - x for x in desc.deg)

    def test_dual_involution(self):
        d = RaynaudDatum(f=2, p=5, vdelta=(F(1, 4), F(2, 3)))
        assert raynaud_dual(raynaud_dual(d)) == d


class TestDescriptors:
    def test_total_degree(self):
        desc = FiniteOModuleDesc(o_height=2, deg=(F(1), F(1, 2)), level=1)
        assert desc.total_degree == F(3, 2)
        assert desc.f == 2

    def test_negative_degree_rejected(self):
        with pytest.raises(MufiltError):
            FiniteOModuleDesc(o_height=1, deg=(F(-1, 2),), level=1)

    def test_contains_componentwise(self):
        a = SplitSubgroupDesc(
            o_height=1, deg=(F(1),), level=1, torsion=(1, 0)
        )
        b = SplitSubgroupDesc(
            o_height=2, deg=(F(2),), level=1, torsion=(1, 1)
        )
        assert b.contains(a)
        assert not a.contains(b)


class TestProductGroup:
    def test_reference_product(self, ref_sig):
        G = mu_ordinary_product(ref_sig, 1)
        assert G.f == 2
        assert G.level == 1
        assert [set(A) for A, _ in G.factors] == [set(), {0}, {0, 1}]

    def test_factor_sets_must_increase(self):
        with pytest.raises(MufiltError):
            LTProductGroup(
                f=2,
                factors=((frozenset({0}), 1), (frozenset({0}), 1)),
                level=1,
            )


class TestEnumeration:
    def test_reference_count(self, ref_sig):
        nodes = enumerate_split_subgroups(mu_ordinary_product(ref_sig, 1))
        assert len(nodes) == 8

    def test_count_is_product_of_ranges(self):
        for sig in iter_signatures(2, 4, (5,)):
            for n in (1, 2):
                G = mu_ordinary_product(sig, n)
                expected = 1
                for _, mult in G.factors:
                    expected *= n * mult + 1
                assert len(enumerate_split_subgroups(G)) == expected

    def test_matches_bruteforce(self):
        for sig in iter_signatures(2, 3, (5,)):
            for n in (1, 2):
                G = mu_ordinary_product(sig, n)
                nodes = enumerate_split_subgroups(G)
                got = {(d.o_height, d.deg) for d in nodes}
                expected = oracles.split_subgroups_bruteforce(
                    sig.f, list(G.factors), n
                )
                assert got == expected
                # no two torsion vectors share a (height, degrees) descriptor
                assert len(got) == len(nodes)

    def test_sorted_output(self):
        for sig in iter_signatures(2, 3, (3,)):
            nodes = enumerate_split_subgroups(mu_ordinary_product(sig, 2))
            keys = [
                (d.o_height, d.total_degree, d.deg, d.torsion) for d in nodes
            ]
            assert keys == sorted(keys)

    def test_cap_raises_with_details(self, ref_sig, monkeypatch):
        G = mu_ordinary_product(ref_sig, 1)
        monkeypatch.setattr("mufilt.group_models.ENUM_CAP", 4)
        with pytest.raises(EnumerationCapExceeded) as err:
            enumerate_split_subgroups(G)
        assert err.value.cap == 4
        assert err.value.required == 8

    def test_cap_default(self, monkeypatch):
        # 1001 * 1001 nodes, just past the default cap of 10^6; with the
        # descriptor class taken away, building any node would raise
        # TypeError, so the cap is checked before enumeration starts
        G = LTProductGroup(
            f=1, factors=((frozenset(), 1000), (frozenset({0}), 1000)), level=1
        )
        monkeypatch.setattr("mufilt.group_models.SplitSubgroupDesc", None)
        with pytest.raises(EnumerationCapExceeded) as err:
            enumerate_split_subgroups(G)
        assert err.value.cap == 10**6
        assert err.value.required == 1001 * 1001

    def test_heights_and_degrees_unique(self):
        # (o_height, deg vector) identifies the torsion vector
        for sig in iter_signatures(2, 4, (3,)):
            nodes = enumerate_split_subgroups(mu_ordinary_product(sig, 2))
            seen = {(d.o_height, d.deg) for d in nodes}
            assert len(seen) == len(nodes)


class TestCanonicalFiltration:
    def test_reference_steps(self, ref_sig):
        steps = mu_ord_canonical_filtration(ref_sig, 1)
        assert [(members, d.o_height) for members, d in steps] == [
            ((1,), 1),
            ((0,), 2),
        ]
        assert steps[0][1].deg == (F(1), F(1))
        assert steps[1][1].deg == (F(2), F(1))

    def test_heights_scale_with_level(self, ref_sig):
        steps = mu_ord_canonical_filtration(ref_sig, 2)
        assert [d.o_height for _, d in steps] == [2, 4]

    def test_matches_bruteforce(self):
        for sig in iter_signatures(3, 4, (5,)):
            for n in (1, 2):
                steps = mu_ord_canonical_filtration(sig, n)
                by_member = {
                    t: d for members, d in steps for t in members
                }
                for t in range(sig.f):
                    ht, deg = oracles.mu_ord_cran_degrees_bruteforce(
                        sig.f, sig.q, sig.h, t, n
                    )
                    assert by_member[t].o_height == ht
                    assert list(by_member[t].deg) == deg

    def test_members_partition_all_embeddings(self):
        # one class per distinct q-value; q = h contributes the zero cran
        for sig in iter_signatures(3, 4, (5,)):
            steps = mu_ord_canonical_filtration(sig, 1)
            seen = [t for members, _ in steps for t in members]
            assert sorted(seen) == list(range(sig.f))
            assert len(steps) == len(set(sig.q))

    def test_cran_height_identity(self):
        # the cran containing tau' has O-height n * p_{tau'}
        for sig in iter_signatures(3, 3, (5,)):
            for n in (1, 2):
                for members, d in mu_ord_canonical_filtration(sig, n):
                    for t in members:
                        assert d.o_height == n * sig.p_values[t]
