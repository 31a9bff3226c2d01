"""Scalar identities and recursions for canonical subgroups up the tower.

Everything here consumes Hasse valuations as inputs; nothing is ever
computed from an actual group.  All bounds and identities are exact
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    HypothesisViolation,
    MufiltError,
    NotMuOrdinary,
    WindowViolation,
)
from .signature_core import (
    Signature,
    _check_f_p,
    _check_level,
    _frobenius_weights,
    _h1_bound,
    _level_one,
    constants,
    ladder_index,
    mu_ordinary_decomposition,
)

def _check_ha(ha) -> Fraction:
    ha = Fraction(ha)
    if not 0 <= ha <= 1:
        raise MufiltError(f"Hasse valuation {ha} outside [0, 1]")
    return ha


def _min_sums(sig: Signature, tau: int) -> tuple[int, int]:
    """(weighted, classical) sums of min(p_tau, p_{sigma^i tau})."""
    pv = sig.p_values
    pt = pv[tau]
    mins = [min(pt, pu) for pu in pv]
    weights = _frobenius_weights(sig.p, sig.f, tau)
    return sum(map(mul, weights, mins)), sum(mins)


@dataclass(frozen=True)
class PTorsionReport:
    """Exact values attached to the p-torsion canonical subgroup."""

    deg_identity_rhs: Fraction
    coker_degree: Fraction
    eps_tau: Fraction
    slot_lower_bounds: tuple[Fraction, ...]
    dual_deg_upper_bound: Fraction
    classical_lower_bound: Fraction
    h1_ok: bool


def ptorsion_report(sig: Signature, tau: int, ha: Fraction) -> PTorsionReport:
    """Degree identity, cokernel degree, eps, and per-slot bounds at level 1.

    The identity value is sum_i min(p_tau, p_{sigma^i tau}) p^{f-i} - ha;
    the Hodge-Tate cokernel degree is K_tau + ha/(p^f - 1);
    eps = min(1, (K_tau + 1 - ha)/q_tau).  Slot tau' gets the lower bound
    min(p_tau, p_{tau'}) - ha/p^{f-i} where tau' = sigma^i tau, and the
    dual degree is bounded above by ha.  The h1_ok flag records whether ha
    sits below the level-one threshold; values are computed either way.
    """
    sig.check_nondegenerate(tau)
    ha = _check_ha(ha)
    f, p = sig.f, sig.p
    # every value is one Fraction over a known denominator: ha = a/b and
    # K_tau = w/(p^f - 1)
    a, b = ha.as_integer_ratio()
    P1 = p**f - 1
    w = _level_one(sig)[2][tau]
    pv = sig.p_values
    pt = pv[tau]
    weighted, classical = _min_sums(sig, tau)
    eps_num, eps_den = (P1 + w) * b - P1 * a, P1 * b * sig.q[tau]
    return PTorsionReport(
        deg_identity_rhs=Fraction(weighted * b - a, b),
        coker_degree=Fraction(w * b + a, P1 * b),
        eps_tau=Fraction(min(eps_num, eps_den), eps_den),
        slot_lower_bounds=tuple(
            Fraction(min(pt, pu) * c * b - a, c * b)
            for c, pu in zip(_frobenius_weights(p, f, tau), pv)
        ),
        dual_deg_upper_bound=ha,
        classical_lower_bound=Fraction(classical * b - a, b),
        h1_ok=ha < _h1_bound(sig, tau),
    )


def hasse_recursion(
    sig: Signature, tau: int, ha: Fraction, deg_dual: Fraction
) -> Fraction:
    """Hasse valuation of the quotient by the canonical subgroup:
    (p^f - 1) * deg_dual + ha, valid while p^f * deg_dual + ha < 1.

    Outside the window the exact recursion fails; the raised error carries
    the unconditional fallback lower bound 1 - ha.
    """
    sig.check_embedding(tau)
    ha = _check_ha(ha)
    deg_dual = Fraction(deg_dual)
    if deg_dual < 0:
        raise MufiltError(f"dual degree {deg_dual} must be >= 0")
    pf = sig.p**sig.f
    if not pf * deg_dual + ha < 1:
        raise WindowViolation(
            f"p^f*deg_dual + ha = {pf * deg_dual + ha} is not below 1",
            fallback_lower_bound=1 - ha,
        )
    return (pf - 1) * deg_dual + ha


def worst_case(sig: Signature, ha: Fraction) -> Fraction:
    """Worst-case quotient valuation p^f * ha, from deg_dual <= ha."""
    ha = _check_ha(ha)
    return sig.p**sig.f * ha


@dataclass(frozen=True)
class TowerLevel:
    level: int
    deg_dual_tau: Fraction
    ha_quotient: Fraction
    deg_lower_bound: Fraction
    classical_lower_bound: Fraction
    hypotheses: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class TowerReport:
    tau: int
    ha: Fraction
    levels: tuple[TowerLevel, ...]


def tower_report(sig: Signature, tau: int, ha: Fraction, n: int) -> TowerReport:
    """Level-by-level worst-case tower data for m = 1..n.

    Per level: the accumulated dual degree (p^{mf}-1)/(p^f-1) * ha, the
    worst-case quotient valuation p^{mf} * ha, the weighted degree bound
    m * sum min(p_tau, p_{sigma^i tau}) p^{f-i} minus the accumulated dual
    degree, its classical counterpart, and the five hypothesis flags.  The
    scalar ha is read as the worst partial Hasse valuation of the input,
    so Hn compares it against the smallest level-m threshold over the
    nondegenerate embeddings, and Hf is Hn at level f; with no such
    embedding both hold.  Hypotheses are reported, never enforced.
    """
    sig.check_embedding(tau)
    ha = _check_ha(ha)
    _check_level(n)
    f, p = sig.f, sig.p
    P = p**f
    a, b = ha.as_integer_ratio()
    weighted, classical = _min_sums(sig, tau)
    P1 = P - 1
    h1 = ha < _h1_bound(sig, tau)
    # The level-m H3 bound, and every level-m threshold of hasse_threshold,
    # is its level-one value over p^{(m-1)f}: each flag compares
    # a p^{(m-1)f} / b with a fixed fraction by cross-multiplying.  The
    # level-one H3 bound is (p^f - 1 + w - 2 q_tau)/(p^f - 1); the floor
    # is the least level-one threshold at a nondegenerate embedding.
    _, floor, defects = _level_one(sig)
    h3_num = P1 + defects[tau] - 2 * sig.q[tau]
    floor_num, floor_den = (0, 1) if floor is None else floor.as_integer_ratio()
    floor_b = floor_num * b

    def below_floor(Q: int) -> bool:
        """ha Q below the floor, for Q = p^{(m-1)f}."""
        return floor is None or a * floor_den * Q < floor_b

    hf = below_floor(p ** ((f - 1) * f))
    levels = []
    Q, G = 1, 1  # p^{(m-1)f} and (p^{mf} - 1)/(p^f - 1) = 1 + P + ... + Q
    for m in range(1, n + 1):
        Ga = G * a  # the accumulated dual degree is Ga/b
        levels.append(
            TowerLevel(
                level=m,
                deg_dual_tau=Fraction(Ga, b),
                ha_quotient=Fraction(Q * P * a, b),
                deg_lower_bound=Fraction(m * weighted * b - Ga, b),
                classical_lower_bound=Fraction(m * classical * b - Ga, b),
                hypotheses=(
                    ("H1", h1),
                    ("H2", Ga * (p - 1) < (p - 2) * b),
                    ("H3", a * Q * P1 < h3_num * b),
                    ("Hn", below_floor(Q)),
                    ("Hf", hf),
                ),
            )
        )
        Q *= P
        G += Q
    return TowerReport(tau=tau, ha=ha, levels=tuple(levels))


@dataclass(frozen=True)
class DeformationCheck:
    heights_match: bool
    subgroup_match: bool
    k_exponents: tuple[int, ...]
    ker_exponents: tuple[int, ...]
    o_height: int


def frobenius_deformation_check(
    sig: Signature, n: int, ha: Fraction = Fraction(0)
) -> DeformationCheck:
    """Compare K_n with the kernel of the nf-fold Frobenius, mu-ordinary
    model only.

    K_n route: join over embeddings of the p^{n r_tau}-torsion of the
    canonical step Fil_tau(G[p^f]), giving per-factor torsion exponent
    max over tau in A_l of min(f, n r_tau).  Kernel route: the f-fold
    Frobenius on LT_A multiplies by p^{|A|}, so Ker F^{nf} inside the
    f-torsion has per-factor exponent min(f, n |A_l|) with |A_l| counted
    through the complement.  Both exponent vectors and the resulting
    heights are compared.
    """
    _check_level(n)
    if Fraction(ha) != 0:
        raise NotMuOrdinary(
            f"Frobenius deformation check needs ha = 0, got {ha}"
        )
    f = sig.f
    factors = mu_ordinary_decomposition(sig)
    r = constants(sig).r
    k_exp = [0] * len(factors)
    for t in range(f):
        lt = ladder_index(sig, t)
        cap = min(f, n * r[t])
        for l in range(lt, len(factors)):
            if cap > k_exp[l]:
                k_exp[l] = cap
    ker_exp = []
    for A, _ in factors:
        outside = sum(1 for t in range(f) if t not in A)
        ker_exp.append(min(f, n * (f - outside)))
    height_k = sum(m * e for (_, m), e in zip(factors, k_exp))
    height_ker = sum(m * e for (_, m), e in zip(factors, ker_exp))
    return DeformationCheck(
        heights_match=height_k == height_ker,
        subgroup_match=tuple(k_exp) == tuple(ker_exp),
        k_exponents=tuple(k_exp),
        ker_exponents=tuple(ker_exp),
        o_height=height_k,
    )


@dataclass(frozen=True)
class AppendixDetail:
    displayed_ok: bool
    reduced_ok: bool
    anchor_ok: bool


def appendix_lemma_detail(p: int, n: int, f: int) -> AppendixDetail:
    """Exact evaluation of the appendix inequality and two companions.

    displayed: with denominator D = 2 p^{(n-1)f} f,
    (p^{(n-1)f} - 1)/((p^f - 1) D) + 2 (p^{nf} - 1)/((p^f - 1) D) - 1/f <= 1.
    Clearing denominators gives P^{n-1} (2fP - 2f - 3) + 3 >= 0 with
    P = p^f, which fails at (2, n, 1) for every n >= 3.
    reduced: P^{n-1} (2P - 3f - 1)/f + 3 >= 0.  Despite the name it is not
    a rearrangement of the displayed form: on the grid p <= 97, n <= 8,
    f <= 8 it always holds, so it disagrees with the displayed form
    exactly at the six points (2, n, 1), n = 3..8.
    anchor: 2 p^f >= 3f + 1.
    """
    _check_f_p(f, p)
    _check_level(n)
    D = 2 * p ** ((n - 1) * f) * f
    lhs = (
        Fraction(p ** ((n - 1) * f) - 1, (p**f - 1) * D)
        + Fraction(2 * (p ** (n * f) - 1), (p**f - 1) * D)
        - Fraction(1, f)
    )
    displayed_ok = lhs <= 1
    reduced_ok = (
        Fraction(p ** ((n - 1) * f) * (2 * p**f - 3 * f - 1), f) + 3 >= 0
    )
    anchor_ok = 2 * p**f >= 3 * f + 1
    return AppendixDetail(
        displayed_ok=displayed_ok, reduced_ok=reduced_ok, anchor_ok=anchor_ok
    )


def appendix_lemma_check(p: int, n: int, f: int) -> bool:
    """True when both the displayed and the reduced appendix inequalities
    hold at (p, n, f)."""
    detail = appendix_lemma_detail(p, n, f)
    return detail.displayed_ok and detail.reduced_ok


@dataclass(frozen=True)
class DualityBookkeeping:
    chain: tuple[Fraction, ...]
    perp_deg_lower_bound: Fraction
    consistent: bool


def duality_bookkeeping(sig: Signature, tau: int, ha: Fraction) -> DualityBookkeeping:
    """Replay the degree chain identifying the canonical subgroup with the
    orthogonal complement of the dual one.

    Requires ha < min(1/2, 1 + K_tau - 2 q_tau/(p-1)).  Each chain entry is
    one line of the displayed computation, all equal; the last is
    sum_i min(p_tau, p_{sigma^i tau}) - ha, which must match the classical
    p-torsion lower bound.
    """
    sig.check_embedding(tau)
    ha = _check_ha(ha)
    bound = min(Fraction(1, 2), _h1_bound(sig, tau))
    if not ha < bound:
        raise HypothesisViolation(
            f"ha={ha} is not below the duality threshold {bound}"
        )
    f, h = sig.f, sig.h
    q = sig.q
    pv = sig.p_values
    qs = [q[(tau + i) % f] for i in range(f)]
    ps = [pv[(tau + i) % f] for i in range(f)]
    pt, qt = pv[tau], q[tau]
    line1 = f * pt - sum(qs) + sum(min(qt, qu) for qu in qs) - ha
    line2 = sum(pt - qu + min(qt, qu) for qu in qs) - ha
    line3 = sum(pt - qu + h - max(pt, pu) for qu, pu in zip(qs, ps)) - ha
    line4 = sum(pt + pu - max(pt, pu) for pu in ps) - ha
    line5 = sum(min(pt, pu) for pu in ps) - ha
    chain = (line1, line2, line3, line4, line5)
    classical_direct = sum(min(pt, pu) for pu in pv) - ha
    consistent = len(set(chain)) == 1 and chain[-1] == classical_direct
    return DualityBookkeeping(
        chain=chain, perp_deg_lower_bound=line5, consistent=consistent
    )
