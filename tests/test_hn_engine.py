"""HN filtration engine: weightings, greedy selection, certificates."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import iter_signatures
from mufilt import (
    AdditivityViolation,
    AmbiguousLattice,
    DegreeWeighting,
    DimensionMismatch,
    FiniteOModuleDesc,
    HeightMismatch,
    LTProductGroup,
    MufiltError,
    NotALattice,
    OrderViolation,
    Signature,
    SplitSubgroupDesc,
    bijakowski_containment,
    break_certificate,
    classical_weighting,
    deg_weighted,
    enumerate_split_subgroups,
    hn_from_lattice,
    hn_mu_ordinary_tau,
    mu_ord_canonical_filtration,
    mu_ordinary_product,
    renormalize,
    reversed_hodge,
    tau_weighting,
)
from mufilt.hn_engine import _containment_from_pairs

F = Fraction


def desc(ht, deg, level=1):
    return FiniteOModuleDesc(
        o_height=ht, deg=tuple(F(d) for d in deg), level=level
    )


class TestWeighting:
    def test_tau_mode_needs_tau(self):
        with pytest.raises(MufiltError):
            DegreeWeighting(mode="tau", p=7, f=2)

    def test_unknown_mode(self):
        with pytest.raises(MufiltError):
            DegreeWeighting(mode="other", p=7, f=2)

    def test_non_integer_p_rejected(self):
        with pytest.raises(MufiltError):
            DegreeWeighting(mode="classical", p=7.0, f=2)

    def test_non_integer_tau_rejected(self):
        with pytest.raises(MufiltError, match="out of range"):
            tau_weighting(7, 2, 1.0)

    def test_deg_weighted_reference(self):
        # Deg_tau weights deg_{sigma^j tau} by p^{f-j}, tau itself at j=f
        w = tau_weighting(7, 2, 1)
        assert deg_weighted(desc(1, (1, 1)), w) == 7 * 1 + 1
        assert deg_weighted(desc(2, (2, 1)), w) == 7 * 2 + 1

    def test_classical_weighted_is_total(self):
        w = classical_weighting(7, 2)
        assert deg_weighted(desc(2, (2, F(1, 2))), w) == F(5, 2)

    def test_dimension_mismatch(self):
        w = tau_weighting(7, 3, 0)
        with pytest.raises(DimensionMismatch):
            deg_weighted(desc(1, (1, 1)), w)


class TestFromLattice:
    def test_classical_equals_reversed_hodge(self, ref_sig):
        nodes = enumerate_split_subgroups(mu_ordinary_product(ref_sig, 1))
        result = hn_from_lattice(nodes, classical_weighting(7, 2))
        assert result.polygon == reversed_hodge(ref_sig)

    def test_slopes_strictly_decrease(self):
        for sig in iter_signatures(2, 3, (3,)):
            nodes = enumerate_split_subgroups(mu_ordinary_product(sig, 1))
            for w in (
                classical_weighting(sig.p, sig.f),
                tau_weighting(sig.p, sig.f, 0),
            ):
                slopes = hn_from_lattice(nodes, w).slopes
                assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def test_filtration_brackets(self, ref_sig):
        nodes = enumerate_split_subgroups(mu_ordinary_product(ref_sig, 1))
        result = hn_from_lattice(nodes, classical_weighting(7, 2))
        assert result.filtration[0].o_height == 0
        assert result.filtration[0].total_degree == 0
        assert result.filtration[-1].o_height == ref_sig.h

    def test_polygon_dominates_every_node(self):
        # concave envelope property; classical ordinates carry deg/f
        for sig in iter_signatures(2, 3, (3, 7)):
            nodes = enumerate_split_subgroups(mu_ordinary_product(sig, 1))
            result = hn_from_lattice(nodes, classical_weighting(sig.p, sig.f))
            for d in nodes:
                assert result.polygon.value(d.o_height) >= F(
                    d.total_degree, sig.f
                )

    def test_tau_polygon_dominates_weighted_nodes(self):
        for sig in iter_signatures(2, 3, (3, 7)):
            nodes = enumerate_split_subgroups(mu_ordinary_product(sig, 1))
            for t in range(sig.f):
                w = tau_weighting(sig.p, sig.f, t)
                result = hn_from_lattice(nodes, w)
                for d in nodes:
                    assert result.polygon.value(d.o_height) >= deg_weighted(
                        d, w
                    )

    def test_break_values_scale_tau_profile(self, ref_sig):
        nodes = enumerate_split_subgroups(mu_ordinary_product(ref_sig, 2))
        for t in range(2):
            result = hn_from_lattice(nodes, tau_weighting(7, 2, t))
            scaled = renormalize(result.polygon, 2)
            profile = hn_mu_ordinary_tau(ref_sig, t)
            for x, y in scaled.points:
                assert y == 2 * profile.value(x)

    def test_no_bottom_rejected(self):
        nodes = [desc(1, (1, 0)), desc(2, (1, 1))]
        with pytest.raises(NotALattice):
            hn_from_lattice(nodes, classical_weighting(7, 2))

    def test_no_top_rejected(self):
        # two maximal incomparable nodes under explicit containment
        nodes = [desc(0, (0, 0)), desc(1, (1, 0)), desc(1, (0, 1))]
        pairs = [(0, 1), (0, 2)]
        with pytest.raises(NotALattice, match="^no top object among the nodes$"):
            hn_from_lattice(
                nodes, classical_weighting(7, 2), containment=pairs
            )

    def test_no_common_top_over_chains(self):
        # connected pairs whose up-sets share no bit: two maximal nodes,
        # each above a chain from the zero object
        nodes = [desc(0, (0, 0)), desc(1, (1, 0)), desc(1, (0, 1)),
                 desc(2, (1, 1)), desc(2, (2, 0))]
        pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3)]
        with pytest.raises(NotALattice, match="^no top object among the nodes$"):
            hn_from_lattice(
                nodes, classical_weighting(7, 2), containment=pairs
            )

    def test_negative_quotient_rejected(self):
        nodes = [desc(0, (0, 0)), desc(1, (1, 1)), desc(2, (0, 0))]
        pairs = [(0, 1), (1, 2), (0, 2)]
        with pytest.raises(AdditivityViolation):
            hn_from_lattice(
                nodes, classical_weighting(7, 2), containment=pairs
            )

    def test_ambiguous_tie_rejected(self):
        # the two height-1 nodes tie at slope 1/2 with distinct degree
        # vectors; the top sits strictly below at slope 3/8
        nodes = [
            desc(0, (0, 0)),
            desc(1, (1, 0)),
            desc(1, (0, 1)),
            desc(2, (1, F(1, 2))),
        ]
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]
        with pytest.raises(AmbiguousLattice):
            hn_from_lattice(
                nodes, classical_weighting(7, 2), containment=pairs
            )

    def test_torsion_order_used_when_available(self, ref_sig):
        # SplitSubgroupDesc nodes carry their own containment order
        nodes = enumerate_split_subgroups(mu_ordinary_product(ref_sig, 1))
        assert all(isinstance(d, SplitSubgroupDesc) for d in nodes)
        result = hn_from_lattice(nodes, classical_weighting(7, 2))
        heights = [d.o_height for d in result.filtration]
        assert heights == sorted(heights)


    def test_self_pairs_accepted(self):
        nodes = [desc(0, (0, 0)), desc(1, (1, 0)), desc(1, (0, 1)), desc(2, (1, 1))]
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        w = classical_weighting(7, 2)
        plain = hn_from_lattice(nodes, w, containment=pairs)
        looped = hn_from_lattice(
            nodes, w, containment=pairs + [(i, i) for i in range(4)]
        )
        assert looped == plain
        assert [d.o_height for d in plain.filtration] == [0, 2]

    @pytest.mark.parametrize(
        "extra",
        [[(3, 0)], [(1, 2), (2, 1)]],
        ids=["top-below-bottom", "middle-two-cycle"],
    )
    def test_cyclic_containment_rejected(self, extra):
        # a diamond whose pairs also close a cycle: the closure would make
        # the cycle's nodes equal, so no order is left to run HN over
        nodes = [desc(0, (0, 0)), desc(1, (1, 0)), desc(1, (0, 1)), desc(2, (1, 1))]
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3)] + extra
        with pytest.raises(NotALattice, match="cycle"):
            hn_from_lattice(nodes, classical_weighting(7, 2), containment=pairs)

    def test_equal_descriptors_lowest_index_wins(self):
        # nodes 1 and 2 are equal descriptors, so the step from the zero
        # object keeps the first in ascending order; only node 1 has node 3
        # above it, so the walk order shows in the chain
        nodes = [(0, (0,)), (1, (2,)), (1, (2,)), (2, (3,)), (3, (3,))]
        pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]
        w = classical_weighting(7, 1)
        assert _assert_matches_reference(nodes, pairs, w) == "ok"
        result = hn_from_lattice([desc(*node) for node in nodes], w, containment=pairs)
        assert [d.o_height for d in result.filtration] == [0, 1, 2, 3]

    def test_first_additivity_violation_in_index_order(self):
        # nodes 1 and 2 both drop a partial degree below node 3's
        nodes = [desc(0, (0, 0)), desc(2, (0, 1)), desc(3, (1, 0)),
                 desc(1, (1, 1)), desc(4, (2, 2))]
        pairs = [(0, 3), (3, 1), (3, 2), (1, 4), (2, 4)]
        with pytest.raises(AdditivityViolation, match="^quotient of node 1 by node 3 "):
            hn_from_lattice(nodes, classical_weighting(7, 2), containment=pairs)

    def test_pairs_never_read_torsion(self, ref_sig):
        # with explicit pairs the candidates come from the up-set bits, so
        # the torsion keys are never read: keys of three lengths, which the
        # torsion order rejects, leave the selection as it was
        split = enumerate_split_subgroups(mu_ordinary_product(ref_sig, 2))
        pairs = [
            (i, j)
            for i, a in enumerate(split)
            for j, b in enumerate(split)
            if i != j and b.contains(a)
        ]
        w = tau_weighting(7, 2, 1)
        expected = hn_from_lattice(split, w)
        garbled = [replace(d, torsion=(0,) * (i % 3)) for i, d in enumerate(split)]
        got = hn_from_lattice(garbled, w, containment=pairs)
        assert (got.polygon, got.slopes) == (expected.polygon, expected.slopes)
        assert got.filtration == tuple(
            garbled[split.index(d)] for d in expected.filtration
        )
        with pytest.raises(MufiltError, match="^torsion keys of different products$"):
            hn_from_lattice(garbled, w)

    def test_out_of_range_pair_rejected(self):
        nodes = [desc(0, (0, 0)), desc(1, (1, 0))]
        with pytest.raises(MufiltError, match="out of range"):
            hn_from_lattice(
                nodes, classical_weighting(7, 2), containment=[(0, 1), (1, 2)]
            )


def _masks(reach):
    return [sum(1 << j for j in above) for above in reach]


def _random_dag(rng):
    """A random pair set over shuffled node indices: edges only go up a
    hidden rank order, so the index order is not a topological order; some
    pairs are repeated and some nodes carry a self-pair."""
    n = rng.randint(1, 40)
    rank = list(range(n))
    rng.shuffle(rank)
    density = rng.choice((0.05, 0.15, 0.4))
    pairs = [
        (rank[a], rank[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    pairs += rng.sample(pairs, len(pairs) // 4)
    pairs += [(i, i) for i in range(n) if rng.random() < 0.2]
    rng.shuffle(pairs)
    return n, pairs


def _bench_shaped_split_lattice(f, mults, n, seed):
    """A split product (factor sets {0}, {0,1}, ...) as generic nodes in a
    shuffled order, with the covering pairs: j adds one unit of torsion to
    i in one factor."""
    factors = tuple((frozenset(range(l + 1)), m) for l, m in enumerate(mults))
    split = enumerate_split_subgroups(LTProductGroup(f, factors, n))
    random.Random(seed).shuffle(split)
    index = {d.torsion: i for i, d in enumerate(split)}
    pairs = []
    for i, d in enumerate(split):
        for l in range(len(mults)):
            up = d.torsion[:l] + (d.torsion[l] + 1,) + d.torsion[l + 1:]
            if up in index:
                pairs.append((i, index[up]))
    return split, pairs


class TestContainmentClosure:
    def test_random_dags_match_reference(self):
        rng = random.Random(20161)
        unsorted = 0
        for _ in range(300):
            n, pairs = _random_dag(rng)
            unsorted += any(i > j for i, j in pairs)
            expected = _masks(oracles.containment_closure_reference(n, pairs))
            assert _containment_from_pairs(n, pairs) == expected
        assert unsorted > 250

    def test_random_back_edges_are_cycles(self):
        rng = random.Random(20162)
        for _ in range(100):
            n, pairs = _random_dag(rng)
            reach = oracles.containment_closure_reference(n, pairs)
            below = [(i, j) for i in range(n) for j in reach[i] if j != i]
            if not below:
                continue
            i, j = rng.choice(below)
            with pytest.raises(NotALattice, match="cycle"):
                _containment_from_pairs(n, pairs + [(j, i)])

    @pytest.mark.parametrize(
        "f, mults, n, size",
        [
            (3, (4, 4, 4), 1, 125),
            (3, (1, 1, 1), 4, 125),
            (4, (2, 2, 4, 4), 1, 225),
            (4, (1, 1, 2, 2), 2, 225),
        ],
    )
    def test_split_lattices_match_reference(self, f, mults, n, size):
        split, pairs = _bench_shaped_split_lattice(f, mults, n, seed=size + n)
        assert len(split) == size
        up = _containment_from_pairs(size, pairs)
        reach = oracles.containment_closure_reference(size, pairs)
        assert up == _masks(reach)
        # the covering pairs generate exactly the torsion order
        assert all(
            (up[i] >> j & 1) == b.contains(a)
            for i, a in enumerate(split)
            for j, b in enumerate(split)
        )
        for w in (classical_weighting(7, f), tau_weighting(5, f, f - 1)):
            assert hn_from_lattice(split, w, containment=pairs) == hn_from_lattice(
                split, w
            )


# Hand lattices whose partial degrees sit over 3, 4 and 6, so the engine's
# common denominator is 12: (heights and degrees, containment pairs, the
# outcome under each of _mixed_weightings).
MIXED_LATTICES = {
    # slope tie between a height-1 and a height-2 step: the taller one wins
    "diamond": (
        [(0, (0, 0)), (1, (F(1, 3), F(1, 4))), (1, (F(1, 6), F(1, 2))),
         (2, (F(1, 2), F(3, 4))), (3, (F(5, 6), 1))],
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
        ["ok", "ok", "ok", "ok"],
    ),
    # two distinct height-1 nodes of classical slope 1/4: ambiguous
    # classically, resolved by the tau weights
    "tie": (
        [(0, (0, 0, 0)), (1, (F(1, 3), 0, F(1, 6))), (1, (F(1, 4), F(1, 4), 0)),
         (2, (F(1, 2), F(1, 4), F(1, 6)))],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        ["ambiguous", "ok", "ok", "ok"],
    ),
    # the top's first partial degree drops below node 1's: a walk through
    # node 1 stops there, while the p=3 tau weights jump straight to the top
    "drop": (
        [(0, (0, 0)), (1, (F(2, 3), F(1, 6))), (2, (F(1, 3), F(5, 6)))],
        [(0, 1), (1, 2)],
        ["additivity", "ok", "additivity", "additivity"],
    ),
}


def _mixed_weightings(f):
    yield classical_weighting(7, f)
    for p, t in ((3, 0), (5, f - 1), (7, 1 % f)):
        yield tau_weighting(p, f, t)


def _scaled_split_lattice(sig, n, scale):
    """A split-product lattice with embedding t's degrees times scale[t]
    (orders and additivity survive), as generic nodes with every
    containment pair."""
    split = enumerate_split_subgroups(mu_ordinary_product(sig, n))
    nodes = [(d.o_height, tuple(x * c for x, c in zip(d.deg, scale))) for d in split]
    pairs = [
        (i, j)
        for i, a in enumerate(split)
        for j, b in enumerate(split)
        if i != j and b.contains(a)
    ]
    return nodes, pairs


def _assert_matches_reference(nodes, pairs, w) -> str:
    """Run the engine and the Fraction reference on one lattice; returns
    the shared outcome: "ok", "additivity" or "ambiguous"."""
    descs = [desc(ht, deg) for ht, deg in nodes]
    expected = oracles.hn_selection_reference(
        nodes, pairs, w.weights, w.mode == "classical"
    )
    if expected == "additivity":
        with pytest.raises(AdditivityViolation):
            hn_from_lattice(descs, w, containment=pairs)
        return expected
    if expected == "ambiguous":
        with pytest.raises(AmbiguousLattice):
            hn_from_lattice(descs, w, containment=pairs)
        return expected
    chain, slopes, points = expected
    result = hn_from_lattice(descs, w, containment=pairs)
    assert result.filtration == tuple(descs[i] for i in chain)
    assert result.slopes == tuple(slopes)
    assert result.polygon.points == tuple(points)
    return "ok"


class TestMixedDenominators:
    @pytest.mark.parametrize("name", sorted(MIXED_LATTICES))
    def test_hand_lattice_matches_reference(self, name):
        nodes, pairs, outcomes = MIXED_LATTICES[name]
        got = [
            _assert_matches_reference(nodes, pairs, w)
            for w in _mixed_weightings(len(nodes[0][1]))
        ]
        assert got == outcomes

    def test_diamond_values(self):
        # classical: node 2 at slope 1/3, then the top at 7/24 (a tie with
        # node 3 at height 1, won by the larger height)
        nodes, pairs, _ = MIXED_LATTICES["diamond"]
        result = hn_from_lattice(
            [desc(ht, deg) for ht, deg in nodes], classical_weighting(7, 2),
            containment=pairs,
        )
        assert result.slopes == (F(1, 3), F(7, 24))
        assert result.polygon.points == ((0, 0), (1, F(1, 3)), (3, F(11, 12)))

    @pytest.mark.parametrize("scale", [(F(1, 3), F(1, 4)), (F(5, 6), F(3, 4))])
    def test_scaled_split_lattices_match_reference(self, scale):
        for sig in iter_signatures(2, 3, (3,)):
            nodes, pairs = _scaled_split_lattice(sig, 1, scale)
            for w in _mixed_weightings(sig.f):
                _assert_matches_reference(nodes, pairs, w)

_DENOMINATORS = (1, 2, 3, 4, 6)


@st.composite
def _small_lattices(draw):
    """A lattice of at most 12 nodes over shuffled indices: a zero object,
    a top above every node, and random pairs between the nodes in between,
    all going up a hidden rank order.  Heights and degrees (over mixed
    denominators) usually grow along the pairs; some lattices take
    arbitrary values instead, which break additivity or repeat a height
    along a pair."""
    n = draw(st.integers(2, 12))
    f = draw(st.integers(1, 3))
    rank = draw(st.permutations(range(n)))
    zero, top = rank[0], rank[-1]
    middle = range(1, n - 1)
    links = draw(st.lists(st.tuples(st.sampled_from(middle), st.sampled_from(middle)),
                          max_size=2 * n)) if n > 2 else []
    below = {k: {0} for k in range(1, n)}
    below[n - 1] |= set(middle)
    for a, b in links:
        if a < b:
            below[b].add(a)
    # a twin has the height and the predecessors of an earlier node and its
    # degrees reversed: the same classical slope from below, so ties
    twins = {}
    for k in range(2, n - 1):
        if draw(st.integers(0, 3)) == 0:
            twins[k] = draw(st.integers(1, k - 1))
            below[k] = set(below[twins[k]])
    pairs = [(rank[a], rank[b]) for b in range(1, n) for a in sorted(below[b])]
    monotone = draw(st.integers(0, 3)) > 0
    step = st.builds(Fraction, st.integers(0, 2), st.sampled_from(_DENOMINATORS))
    values = {0: (0, (Fraction(0),) * f)}
    for k in range(1, n):
        if k in twins:
            ht, deg = values[twins[k]]
            values[k] = (ht, deg[::-1])
            continue
        ht = draw(st.integers(0, 2))
        deg = tuple(draw(step) for _ in range(f))
        if monotone:
            for a in below[k]:
                ht = max(ht, values[a][0] + draw(st.integers(1, 2)))
                deg = tuple(max(x, y) for x, y in zip(deg, values[a][1]))
        values[k] = (ht, deg)
    nodes = [None] * n
    for k, index in enumerate(rank):
        nodes[index] = values[k]
    return nodes, pairs


class TestAgainstReference:
    @settings(max_examples=250, deadline=1000)
    @given(lattice=_small_lattices(), p=st.sampled_from((2, 3, 5)), data=st.data())
    def test_random_small_lattices(self, lattice, p, data):
        nodes, pairs = lattice
        f = len(nodes[0][1])
        tau = data.draw(st.integers(0, f - 1))
        for w in (classical_weighting(p, f), tau_weighting(p, f, tau)):
            _assert_matches_reference(nodes, pairs, w)


class TestBreakCertificate:
    def test_tau_mode_reference(self, ref_sig):
        # cran of tau2: height 1, partial degrees (1,1)
        C = desc(1, (1, 1))
        cert = break_certificate(ref_sig, 1, tau_weighting(7, 2, 1), 1, C)
        assert cert.weighted_degree == 8
        assert cert.break_bound == F(15, 2)
        assert cert.cran_bound == F(43, 6)
        assert cert.break_ok
        assert cert.cran_ok

    def test_classical_mode_reference(self, ref_sig):
        C = desc(1, (1, 1))
        cert = break_certificate(
            ref_sig, 1, classical_weighting(7, 2), 1, C
        )
        assert cert.weighted_degree == 2
        assert cert.break_bound == F(3, 2)
        assert cert.break_ok

    def test_classical_mode_spec_margin(self, ref_sig):
        # degree 9/5 still clears the classical bound 3/2
        C = desc(1, (F(9, 5), 0))
        cert = break_certificate(
            ref_sig, 1, classical_weighting(7, 2), 1, C
        )
        assert cert.weighted_degree == F(9, 5)
        assert cert.break_ok

    def test_below_both_bounds(self, ref_sig):
        C = desc(1, (0, 0))
        cert = break_certificate(ref_sig, 1, tau_weighting(7, 2, 1), 1, C)
        assert not cert.break_ok
        assert not cert.cran_ok

    def test_height_mismatch(self, ref_sig):
        C = desc(2, (1, 1))
        with pytest.raises(HeightMismatch):
            break_certificate(ref_sig, 1, tau_weighting(7, 2, 1), 1, C)

    def test_weighting_must_match_signature(self, ref_sig):
        C = desc(1, (1, 1))
        with pytest.raises(DimensionMismatch):
            break_certificate(ref_sig, 1, tau_weighting(5, 2, 1), 1, C)

    def test_matches_stated_formula_f3(self):
        # every (w.tau, tau') pair, so tau' != w.tau is covered, plus classical
        deg = (F(1, 3), F(2, 3), F(1))
        for p in (2, 3, 5, 7):
            weightings = [(None, classical_weighting(p, 3))]
            weightings += [(t, tau_weighting(p, 3, t)) for t in range(3)]
            for q in oracles.all_signatures(3, 3):
                sig = Signature(f=3, p=p, h=3, q=q)
                for (tau, w), tau_prime, n in product(weightings, range(3), (1, 2)):
                    C = desc(n * sig.p_values[tau_prime], deg)
                    cert = break_certificate(sig, n, w, tau_prime, C)
                    expected = oracles.break_certificate_bruteforce(
                        3, p, q, 3, n, tau, tau_prime, deg
                    )
                    assert (
                        cert.weighted_degree,
                        cert.break_bound,
                        cert.cran_bound,
                    ) == expected


class TestBijakowski:
    def test_spec_bound_three(self, ref_sig):
        assert bijakowski_containment(
            ref_sig, 1, 1, 2, F(9, 5), F(29, 10)
        )

    def test_zero_degrees_never_fire(self, ref_sig):
        assert not bijakowski_containment(ref_sig, 1, 1, 2, F(0), F(0))

    def test_nested_crans_fire(self, ref_sig):
        steps = mu_ord_canonical_filtration(ref_sig, 1)
        inner, outer = steps[0][1], steps[1][1]
        assert bijakowski_containment(
            ref_sig,
            1,
            inner.o_height,
            outer.o_height,
            inner.total_degree,
            outer.total_degree,
        )

    def test_matches_bound_oracle(self):
        for sig in iter_signatures(2, 3, (3, 7)):
            pv = sig.p_values
            for n in (1, 2):
                for d in range(0, sig.h + 1):
                    for c in range(d, sig.h + 1):
                        bound = oracles.bijakowski_bound_bruteforce(
                            pv, n, d, c
                        )
                        assert bijakowski_containment(
                            sig, n, d, c, bound, F(1, 1000)
                        )
                        assert not bijakowski_containment(
                            sig, n, d, c, bound, F(0)
                        )

    def test_order_violation(self, ref_sig):
        with pytest.raises(OrderViolation):
            bijakowski_containment(ref_sig, 1, 2, 1, F(1), F(1))

    def test_knife_edge_pair_does_not_fire(self):
        # incomparable split subgroups with intersection height d-1 and a
        # slot at n*p = d-1: certificate must stay quiet
        sig = Signature(f=2, p=7, h=3, q=(1, 2))
        assert not bijakowski_containment(sig, 1, 2, 2, F(2), F(3))

