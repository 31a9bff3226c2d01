"""Concrete models of finite flat O-module schemes at desk scale.

Three families: Raynaud (p,...,p)-schemes given by exact valuation data,
torsion of the Lubin-Tate modules LT_A, and split subgroups of mu-ordinary
products.  Everything is a descriptor: heights, levels, and one exact
partial degree per embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

from .errors import EnumerationCapExceeded, MufiltError
from .signature_core import (
    Signature,
    _check_f_p,
    _check_index,
    _check_level,
    _frobenius_weights,
    ladder_index,
    mu_ordinary_decomposition,
)

ENUM_CAP = 10**6


@dataclass(frozen=True)
class RaynaudDatum:
    """Valuation datum of a Raynaud scheme: v(delta_i) per slot.

    The companion parameters satisfy gamma_i delta_i = (element of
    valuation 1), so v(gamma_i) = 1 - v(delta_i).
    """

    f: int
    p: int
    vdelta: tuple[Fraction, ...]

    def __post_init__(self):
        _check_f_p(self.f, self.p)
        vd = tuple(Fraction(v) for v in self.vdelta)
        object.__setattr__(self, "vdelta", vd)
        if len(vd) != self.f:
            raise MufiltError(f"need f={self.f} slot valuations, got {len(vd)}")
        for i, v in enumerate(vd):
            if not 0 <= v <= 1:
                raise MufiltError(f"vdelta[{i}]={v} outside [0, 1]")

    @property
    def vgamma(self) -> tuple[Fraction, ...]:
        return tuple(1 - v for v in self.vdelta)


def _check_desc(o_height: int, deg, level: int) -> None:
    """The one guard on a descriptor's fields: height, level and every
    partial degree nonnegative."""
    if o_height < 0:
        raise MufiltError(f"o_height must be >= 0, got {o_height!r}")
    if level < 0:
        raise MufiltError(f"level must be >= 0, got {level!r}")
    for t, d in enumerate(deg):
        # Fractions keep a positive denominator
        if d.numerator < 0:
            raise MufiltError(f"deg[{t}]={d} must be >= 0")


@dataclass(frozen=True)
class FiniteOModuleDesc:
    """Descriptor (O-height, partial degrees, torsion level).

    Callers pass deg as a tuple of Fractions; it is stored as given.  The
    literal readers in serialize are the only coercion of outside input."""

    o_height: int
    deg: tuple[Fraction, ...]
    level: int

    def __post_init__(self):
        _check_desc(self.o_height, self.deg, self.level)

    @property
    def f(self) -> int:
        return len(self.deg)

    @property
    def total_degree(self) -> Fraction:
        return sum(self.deg, Fraction(0))


@dataclass(frozen=True)
class SplitSubgroupDesc(FiniteOModuleDesc):
    """Descriptor of a split subgroup, tagged with its per-factor torsion
    exponents.  Containment of two split subgroups of the same product is
    componentwise comparison of these exponents."""

    torsion: tuple[int, ...] = ()

    def contains(self, other: "SplitSubgroupDesc") -> bool:
        if len(self.torsion) != len(other.torsion):
            raise MufiltError("torsion keys of different products")
        return all(a >= b for a, b in zip(self.torsion, other.torsion))


@dataclass(frozen=True)
class LTProductGroup:
    """Product of Lubin-Tate factors LT_{A_l}^{mult_l}, truncated at p^level.

    The factor subsets must be strictly increasing along the sequence.
    """

    f: int
    factors: tuple[tuple[frozenset[int], int], ...]
    level: int

    def __post_init__(self):
        facs = tuple((frozenset(A), int(m)) for A, m in self.factors)
        object.__setattr__(self, "factors", facs)
        if self.level < 0:
            raise MufiltError(f"level must be >= 0, got {self.level!r}")
        prev: frozenset[int] | None = None
        for A, m in facs:
            if not A <= frozenset(range(self.f)):
                raise MufiltError(f"factor subset {sorted(A)} outside 0..{self.f - 1}")
            if m < 1:
                raise MufiltError(f"factor multiplicity {m} must be >= 1")
            if prev is not None and not (prev < A):
                raise MufiltError(
                    "factor subsets must be strictly increasing along the sequence"
                )
            prev = A


# === Raynaud schemes ========================================================

def raynaud_degrees(d: RaynaudDatum) -> FiniteOModuleDesc:
    """Degree descriptor of the Raynaud scheme: deg slot i is v(gamma_i)."""
    return FiniteOModuleDesc(o_height=1, deg=d.vgamma, level=1)


def raynaud_dual(d: RaynaudDatum) -> RaynaudDatum:
    """Cartier dual swaps the gamma and delta parameters slotwise."""
    return RaynaudDatum(d.f, d.p, d.vgamma)


def raynaud_hodge_tate_coker_degree(d: RaynaudDatum, tau: int) -> Fraction:
    """Valuation of the Hodge-Tate cokernel at a slot.

    Closed form: the Frobenius-weighted degree at tau divided by p^f - 1,
    with deg_{sigma^j tau_i} = v(gamma_{i+j}).  The raynaud verify suite
    and the tests check it against _raynaud_point_valuation, the recursion
    coming from the defining equations x_i^p = gamma_{i+1} x_{i+1}.
    """
    _check_index(tau, d.f, "slot")
    f, p = d.f, d.p
    weights = _frobenius_weights(p, f, tau)
    return sum(c * g for c, g in zip(weights, d.vgamma)) / (p**f - 1)


def _raynaud_point_valuation(p: int, vgamma, slot: int) -> Fraction:
    # v(x_i) solves p v_i = v(gamma_{i+1}) + v_{i+1} around the cycle of
    # length f; unrolling gives v_slot = sum_k v(gamma_{slot+k+1}) p^{-(k+1)}
    # + p^{-f} v_slot, solved for v_slot.
    f = len(vgamma)
    total = Fraction(0)
    for k in range(f):
        total += Fraction(vgamma[(slot + k + 1) % f], p ** (k + 1))
    return total / (1 - Fraction(1, p**f))


# === Lubin-Tate torsion and mu-ordinary products ============================

def mu_ordinary_product(sig: Signature, n: int) -> LTProductGroup:
    """The mu-ordinary product group of a signature, truncated at p^n."""
    _check_level(n)
    return LTProductGroup(sig.f, mu_ordinary_decomposition(sig), n)


def _split_nodes(G: LTProductGroup) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """All split subgroups Prod_l LT_{A_l}[p^{s_l}] of the product, in
    integers: one row (height, total degree, degrees, torsion) each, sorted.

    The mult_l copies of one factor contribute interchangeably, so a
    subgroup is determined by the total torsion s_l in [0, n*mult_l] per
    factor.  The factor sets strictly increase, so the degree at an
    embedding first met in factor l is s_l + ... + s_r, and 0 at one in no
    factor.  Distinct torsion vectors give distinct (height, degrees): the
    degrees give every sum s_l + ... + s_r with l > 0, and the height s_0.
    """
    n = G.level
    ranges = [n * m + 1 for _, m in G.factors]
    required = 1
    for r in ranges:
        required *= r
    if required > ENUM_CAP:
        raise EnumerationCapExceeded(ENUM_CAP, required)
    # embedding t first met in factor l (l = r when in none) has degree
    # acc[r - l], where acc[k] sums the last k entries of the torsion vector
    r = len(ranges)
    back = [
        r - next((l for l, (A, _) in enumerate(G.factors) if t in A), r)
        for t in range(G.f)
    ]
    rows = []
    for sums in product(*map(range, ranges)):
        acc = (0, *accumulate(reversed(sums)))
        deg = tuple([acc[k] for k in back])
        rows.append((acc[r], sum(deg), deg, sums))
    rows.sort()
    return rows


def _split_desc(row, level: int) -> SplitSubgroupDesc:
    """The descriptor of one _split_nodes row at the given level."""
    ht, _, deg, torsion = row
    return SplitSubgroupDesc(ht, tuple(map(Fraction, deg)), level, torsion)


def _node_desc(row) -> FiniteOModuleDesc:
    """The descriptor of one parse_lattice row: split when it has torsion."""
    o_height, deg, level, torsion = row
    if torsion is None:
        return FiniteOModuleDesc(o_height, deg, level)
    return SplitSubgroupDesc(o_height, deg, level, torsion)


def enumerate_split_subgroups(G: LTProductGroup) -> list[SplitSubgroupDesc]:
    """All split subgroups of the product as descriptors, sorted by
    (height, total degree, degree sequence, torsion); see _split_nodes."""
    return [_split_desc(row, G.level) for row in _split_nodes(G)]


def mu_ord_canonical_filtration(
    sig: Signature, n: int
) -> list[tuple[tuple[int, ...], FiniteOModuleDesc]]:
    """Canonical filtration steps of the mu-ordinary group at level n.

    One step per distinct q-value: the step for tau is the product of the
    full n-torsion of every factor containing tau.  Degrees are accumulated
    factor by factor, which keeps this path independent of the closed
    min(p_tau, p_tau') formula used elsewhere.  Returned in increasing
    height order, each step tagged with its class of embeddings.
    """
    _check_level(n)
    factors = mu_ordinary_decomposition(sig)
    classes: dict[int, list[int]] = {}
    for t in range(sig.f):
        classes.setdefault(sig.q[t], []).append(t)
    steps = []
    for qval in sorted(classes, reverse=True):
        members = classes[qval]
        l_tau = ladder_index(sig, members[0])
        ht = 0
        deg = [Fraction(0)] * sig.f
        for l in range(l_tau, len(factors)):
            A, mult = factors[l]
            ht += n * mult
            for t in A:
                deg[t] += n * mult
        steps.append(
            (
                tuple(members),
                FiniteOModuleDesc(o_height=ht, deg=tuple(deg), level=n),
            )
        )
    return steps
