"""Degree weightings, slopes, and Harder-Narasimhan filtrations over
explicit descriptor lattices.

A degree weighting is a weight vector over the embeddings, and Deg is its
dot product with the partial degrees.  Classical mode weights each
embedding by 1.  Tau mode uses signature_core._frobenius_weights, so
Deg_tau = sum over j = 1..f of p^{f-j} deg_{sigma^j tau}, with the tau slot
itself at weight 1 (j = f).  Either way the slope of a descriptor is
mu = Deg/(f * o_height).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import (
    AdditivityViolation,
    AmbiguousLattice,
    DimensionMismatch,
    HeightMismatch,
    InternalInvariantBreach,
    MufiltError,
    NegativeValuation,
    NotALattice,
    OrderViolation,
)
from .group_models import FiniteOModuleDesc, SplitSubgroupDesc
from .polygons import Polygon
from .signature_core import (
    Signature,
    _check_f_p,
    _check_index,
    _check_level,
    _frobenius_weights,
    constants,  # unused here; bench/test_bench.py checks the tracer wraps this binding
)


@dataclass(frozen=True)
class DegreeWeighting:
    """Choice of degree function, held as its weight vector over the
    embeddings: all ones in classical mode, _frobenius_weights(p, f, tau)
    in tau mode."""

    mode: str
    p: int
    f: int
    tau: int | None = None
    weights: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("classical", "tau"):
            raise MufiltError(f"unknown weighting mode {self.mode!r}")
        _check_f_p(self.f, self.p)
        weights = (1,) * self.f
        if self.mode == "tau":
            _check_index(self.tau, self.f, "tau mode embedding")
            weights = _frobenius_weights(self.p, self.f, self.tau)
        elif self.tau is not None:
            raise MufiltError("classical mode takes no embedding")
        object.__setattr__(self, "weights", weights)


def classical_weighting(p: int, f: int) -> DegreeWeighting:
    return DegreeWeighting(mode="classical", p=p, f=f)


def tau_weighting(p: int, f: int, tau: int) -> DegreeWeighting:
    return DegreeWeighting(mode="tau", p=p, f=f, tau=tau)


def deg_weighted(desc: FiniteOModuleDesc, w: DegreeWeighting) -> Fraction:
    """Weighted degree of a descriptor under the chosen mode."""
    if desc.f != w.f:
        raise DimensionMismatch(
            f"descriptor has {desc.f} partial degrees, weighting expects {w.f}"
        )
    return sum(map(mul, desc.deg, w.weights), Fraction(0))


def slope_mu(desc: FiniteOModuleDesc, w: DegreeWeighting) -> Fraction:
    """Slope mu = Deg/(f * o_height); needs positive height."""
    if desc.o_height <= 0:
        raise MufiltError("slope of a height-zero descriptor")
    return deg_weighted(desc, w) / (w.f * desc.o_height)


def mu_range_upper(w: DegreeWeighting) -> Fraction:
    """Largest possible slope, the total weight over f: 1 in classical
    mode, (p^f - 1)/(f (p - 1)) in tau mode."""
    return Fraction(sum(w.weights), w.f)


@dataclass(frozen=True)
class HNResult:
    """Filtration (starting at the zero object, ending at the top), the
    strictly decreasing quotient slopes, and the slope polygon."""

    polygon: Polygon
    filtration: tuple[FiniteOModuleDesc, ...]
    slopes: tuple[Fraction, ...]


def _containment_from_pairs(n: int, pairs) -> list[list[bool]]:
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise MufiltError(f"containment pair ({i},{j}) out of range")
        leq[i][j] = True
    # Warshall: once k is done, row i holds everything reachable from i
    # through intermediates 0..k, so one pass gives the transitive closure
    for k in range(n):
        above_k = [j for j, le in enumerate(leq[k]) if le]
        for row in leq:
            if row[k]:
                for j in above_k:
                    row[j] = True
    return leq


def hn_from_lattice(nodes, w: DegreeWeighting, containment=None) -> HNResult:
    """Harder-Narasimhan filtration of the top object of a subobject lattice.

    nodes: descriptors closed under the containment order.  The order is
    taken from explicit (i, j) index pairs when given, from per-factor
    torsion keys when every node carries one, and from componentwise
    (height, degrees) comparison otherwise; the last fallback is only
    sound for chains and is meant for hand-written inputs.

    Selection: starting from the zero object, repeatedly pick the node
    above the current one whose quotient maximizes the slope, breaking
    ties by maximal height.  A residual tie between distinct descriptors
    raises AmbiguousLattice.  Quotient heights and partial degrees must be
    nonnegative along every chain the selection walks.
    """
    nodes = list(nodes)
    if not nodes:
        raise NotALattice("empty node set")
    for d in nodes:
        if d.f != w.f:
            raise DimensionMismatch(
                f"descriptor has {d.f} partial degrees, weighting expects {w.f}"
            )
    n = len(nodes)
    if containment is not None:
        leq_matrix = _containment_from_pairs(n, containment)

        def leq(i: int, j: int) -> bool:
            return leq_matrix[i][j]

    elif all(isinstance(d, SplitSubgroupDesc) for d in nodes):
        def leq(i: int, j: int) -> bool:
            return nodes[j].contains(nodes[i])

    else:
        def leq(i: int, j: int) -> bool:
            a, b = nodes[i], nodes[j]
            return a.o_height <= b.o_height and all(
                x <= y for x, y in zip(a.deg, b.deg)
            )

    bottoms = [
        i
        for i in range(n)
        if nodes[i].o_height == 0 and all(d == 0 for d in nodes[i].deg)
    ]
    if not bottoms:
        raise NotALattice("no zero object among the nodes")
    bottom = bottoms[0]
    tops = [j for j in range(n) if all(leq(i, j) for i in range(n))]
    if not tops:
        raise NotALattice("no top object among the nodes")
    top = tops[0]
    # Integer selection: every partial degree is held over one common
    # denominator L, and Deg is linear, so a quotient's weighted degree is
    # the difference of two node totals.  A slope is that difference over
    # L * f * (height difference); slopes are compared by cross-multiplying
    # with the positive height differences, and Fractions are built only
    # for the node each step picks.
    L = lcm(*(d.denominator for node in nodes for d in node.deg))
    ideg = [
        tuple(d.numerator * (L // d.denominator) for d in node.deg) for node in nodes
    ]
    ht = [node.o_height for node in nodes]
    tot = [sum(map(mul, row, w.weights)) for row in ideg]

    current = bottom
    filtration = [nodes[bottom]]
    slopes: list[Fraction] = []
    points = [(Fraction(0), Fraction(0))]
    x = Fraction(0)
    y = Fraction(0)
    while current != top:
        best = None
        tie = False
        cur_ht, cur_deg, cur_tot = ht[current], ideg[current], tot[current]
        for j in range(n):
            if j == current or not leq(current, j):
                continue
            dht = ht[j] - cur_ht
            if dht < 0 or any(a < b for a, b in zip(ideg[j], cur_deg)):
                raise AdditivityViolation(
                    f"quotient of node {j} by node {current} has a negative component"
                )
            if dht == 0:
                # distinct subobjects of equal height cannot nest strictly
                raise AdditivityViolation(
                    f"nodes {current} and {j} are ordered but have equal height"
                )
            dtot = tot[j] - cur_tot
            # the sign of slope(j) - slope(best)
            cmp = 1 if best is None else dtot * best_dht - best_dtot * dht
            if cmp > 0 or (cmp == 0 and dht > best_dht):
                best, best_dht, best_dtot = j, dht, dtot
                tie = False
            elif cmp == 0 and dht == best_dht and ideg[j] != ideg[best]:
                tie = True
        if best is None:
            raise NotALattice(
                f"no node lies strictly above node {current} on the way to the top"
            )
        if tie:
            raise AmbiguousLattice(
                f"two distinct maximal-slope subobjects above node {current}"
            )
        best_slope = Fraction(best_dtot, L * w.f * best_dht)
        if slopes and not best_slope < slopes[-1]:
            raise InternalInvariantBreach(
                "maximal-slope selection produced a non-decreasing slope"
            )
        x += best_dht
        # Classical ordinates are the average partial degree, so segments
        # have slope mu and renormalize(polygon, n) is the reversed Hodge
        # polygon.  Tau ordinates keep the weighted degree Deg_tau itself:
        # segments have slope f * mu, and the renormalized polygon is f
        # times hn_mu_ordinary_tau, whose 1/f already sits in the profile.
        y += Fraction(best_dtot, L * w.f if w.mode == "classical" else L)
        points.append((x, y))
        slopes.append(best_slope)
        filtration.append(nodes[best])
        current = best
    polygon = Polygon(tuple(points), "concave")
    return HNResult(
        polygon=polygon, filtration=tuple(filtration), slopes=tuple(slopes)
    )


@dataclass(frozen=True)
class BreakCertificate:
    """Outcome of the break-point and cran tests at one abscissa."""

    break_ok: bool
    cran_ok: bool
    weighted_degree: Fraction
    break_bound: Fraction
    cran_bound: Fraction


def break_certificate(
    sig: Signature,
    n: int,
    w: DegreeWeighting,
    tau_prime: int,
    C: FiniteOModuleDesc,
) -> BreakCertificate:
    """Certify that C forces a polygon break at abscissa n*p_{tau'}.

    With w the weighting's weight vector (all ones in classical mode,
    p^{f-j} at sigma^j tau in tau mode), compares the weighted degree of C
    to n * sum_u w_u min(p_{tau'}, p_u) minus half the total weight of the
    embeddings u with q_u = q_{tau'}.  The cran test replaces the
    subtracted term by (p-2)/(p-1).
    """
    sig.check_embedding(tau_prime)
    _check_level(n)
    if w.f != sig.f or w.p != sig.p:
        raise DimensionMismatch("weighting does not match the signature")
    pv = sig.p_values
    expected = n * pv[tau_prime]
    if C.o_height != expected:
        raise HeightMismatch(
            f"candidate has O-height {C.o_height}, abscissa needs {expected}"
        )
    value = deg_weighted(C, w)
    main = n * sum(c * min(pv[tau_prime], pu) for c, pu in zip(w.weights, pv))
    half = Fraction(
        sum(c for c, qu in zip(w.weights, sig.q) if qu == sig.q[tau_prime]), 2
    )
    break_bound = main - half
    cran_bound = main - Fraction(sig.p - 2, sig.p - 1)
    return BreakCertificate(
        break_ok=value > break_bound,
        cran_ok=value > cran_bound,
        weighted_degree=value,
        break_bound=break_bound,
        cran_bound=cran_bound,
    )


def bijakowski_containment(
    sig: Signature, n: int, d: int, c: int, degD: Fraction, degC: Fraction
) -> bool:
    """Degree certificate forcing D inside C for heights d <= c.

    True when degD + degC strictly exceeds
    sum_{tau'} (min(n p_{tau'}, d) + min(n p_{tau'}, c))
    - #{tau' : d - 1 < n p_{tau'} <= c}.

    The count needs the strict lower comparison: at the knife edge where
    D and C are incomparable with intersection height exactly d - 1 and
    some n p_{tau'} also equals d - 1, a weak comparison would fire the
    certificate on genuinely non-nested pairs (split products realize
    such pairs), while every slot with n p_{tau'} >= d supports it.
    Heights are integers, so the count set is {tau' : d <= n p_{tau'} <= c}.
    """
    _check_level(n)
    if d > c:
        raise OrderViolation(f"need d <= c, got d={d}, c={c}")
    pv = sig.p_values
    total = sum(min(n * pt, d) + min(n * pt, c) for pt in pv)
    count = sum(1 for pt in pv if d <= n * pt <= c)
    return Fraction(degD) + Fraction(degC) > total - count


def fitting_degree(divisor_valuations) -> Fraction:
    """Degree of a finite module presented by elementary divisors: the sum
    of their valuations."""
    total = Fraction(0)
    for i, v in enumerate(divisor_valuations):
        v = Fraction(v)
        if v < 0:
            raise NegativeValuation(f"valuation {v} at position {i} is negative")
        total += v
    return total


@dataclass(frozen=True)
class DetDegreeCheck:
    ok: bool
    warning: bool


def det_degree_valid(det_val: Fraction, r: int) -> DetDegreeCheck:
    """Guard for reading degrees off a map of modules of rank r: sound when
    v(det f) < r, flagged when equality holds (the equality case can
    undercount)."""
    det_val = Fraction(det_val)
    return DetDegreeCheck(ok=det_val < r, warning=det_val == r)
