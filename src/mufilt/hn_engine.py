"""Degree weightings, slopes, and Harder-Narasimhan filtrations over
descriptor lattices, split mu-ordinary products and lattice file rows.

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
from functools import reduce
from math import lcm
from operator import and_, le, lt, mul

from .errors import (
    AdditivityViolation,
    AmbiguousLattice,
    DimensionMismatch,
    HeightMismatch,
    InternalInvariantBreach,
    MufiltError,
    NotALattice,
    OrderViolation,
)
from .group_models import (
    FiniteOModuleDesc,
    SplitSubgroupDesc,
    _node_desc,
    _split_desc,
    _split_nodes,
    mu_ordinary_product,
)
from .polygons import Polygon
from .signature_core import (
    Signature,
    _check_f_p,
    _check_index,
    _check_level,
    _check_level_work,
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


@dataclass(frozen=True)
class HNResult:
    """Filtration (starting at the zero object, ending at the top), the
    strictly decreasing quotient slopes, and the slope polygon."""

    polygon: Polygon
    filtration: tuple[FiniteOModuleDesc, ...]
    slopes: tuple[Fraction, ...]


def _containment_from_pairs(n: int, pairs) -> list[int]:
    """Up-sets of the order generated by the (i, j) pairs, i below j: bit j
    of the i-th mask is set when i <= j.  Self-pairs are dropped, and pairs
    that close a cycle raise NotALattice."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise MufiltError(f"containment pair ({i},{j}) out of range")
        if i != j:
            succ[i].append(j)
            indegree[j] += 1
    # Kahn: a node enters the order once every pair below it is consumed
    order = [i for i in range(n) if indegree[i] == 0]
    for i in order:
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    if len(order) < n:
        raise NotALattice("containment pairs form a cycle")
    # successors come later in the order, so their up-sets are complete
    up = [0] * n
    for i in reversed(order):
        mask = 1 << i
        for j in succ[i]:
            mask |= up[j]
        up[i] = mask
    return up


def _integer_rows(degs) -> tuple[list[tuple[int, ...]], int]:
    """Rational degree rows held over one common denominator L: returns
    the integer rows L * deg and L."""
    ratios = [[d.as_integer_ratio() for d in row] for row in degs]
    L = lcm(*{den for row in ratios for _, den in row})
    return [tuple([num * (L // den) for num, den in row]) for row in ratios], L


def _hn_select(
    ht, rows, L: int, w: DegreeWeighting, node, keys=None, containment=None
) -> HNResult:
    """Harder-Narasimhan selection over integer rows: node i has height
    ht[i] and partial degrees rows[i] / L.  The order is taken from the
    (i, j) containment pairs when given, else from the keys: i lies below
    j when keys[i] <= keys[j] componentwise, with (height, degrees) as the
    keys when none are given.  node(i) is the descriptor of node i; it is
    called only for the nodes of the filtration.  See hn_from_lattice.
    """
    n = len(rows)
    for row in rows:
        if len(row) != w.f:
            raise DimensionMismatch(
                f"descriptor has {len(row)} partial degrees, weighting expects {w.f}"
            )
    # a bad pair (out of range, cycle) is reported before a missing zero object
    if containment is not None:
        up = _containment_from_pairs(n, containment)
    bottom = next((i for i in range(n) if ht[i] == 0 and not any(rows[i])), -1)
    if bottom < 0:
        raise NotALattice("no zero object among the nodes")
    if containment is not None:
        # the tops are the common bits of all up-sets; -1 when there are none
        tops = reduce(and_, up)
        top = (tops & -tops).bit_length() - 1

        def above(i: int):
            # the set bits of i's up-set other than i, lowest first
            mask = up[i] ^ (1 << i)
            while mask:
                low = mask & -mask
                yield low.bit_length() - 1
                mask ^= low

    else:
        if keys is None:
            keys = [(h, *row) for h, row in zip(ht, rows)]
        elif len(set(map(len, keys))) > 1:
            raise MufiltError("torsion keys of different products")
        # a top lies above every node: its key is the componentwise maximum
        roof = tuple(map(max, zip(*keys)))
        top = next((j for j in range(n) if keys[j] == roof), -1)

        def above(i: int):
            low = keys[i]
            return [
                j for j, key in enumerate(keys) if j != i and all(map(le, low, key))
            ]

    if top < 0:
        raise NotALattice("no top object among the nodes")
    # Deg is linear, so a quotient's weighted degree is the difference of
    # two node totals.  A slope is that difference over L * f * (height
    # difference); slopes are compared by cross-multiplying with the
    # positive height differences, and Fractions are built only for the
    # node each step picks.
    tot = [sum(map(mul, row, w.weights)) for row in rows]

    current = bottom
    chain = [bottom]
    slopes: list[Fraction] = []
    points = [(Fraction(0), Fraction(0))]
    x = Fraction(0)
    y = Fraction(0)
    while current != top:
        best = None
        tie = False
        cur_ht, cur_deg, cur_tot = ht[current], rows[current], tot[current]
        for j in above(current):
            dht = ht[j] - cur_ht
            if dht < 0 or any(map(lt, rows[j], cur_deg)):
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
            elif cmp == 0 and dht == best_dht and rows[j] != rows[best]:
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
        chain.append(best)
        current = best
    return HNResult(
        polygon=Polygon(tuple(points), "concave"),
        filtration=tuple(map(node, chain)),
        slopes=tuple(slopes),
    )


def hn_from_lattice(nodes, w: DegreeWeighting, containment=None) -> HNResult:
    """Harder-Narasimhan filtration of the top object of a subobject lattice.

    nodes: descriptors closed under the containment order.  The order is
    taken from explicit (i, j) index pairs when given, from per-factor
    torsion keys when every node carries one, and from componentwise
    (height, degrees) comparison otherwise; the last fallback is only
    sound for chains and is meant for hand-written inputs.  Explicit pairs
    are closed by one pass over a topological order, which keeps an up-set
    bitmask per node; pairs that form a cycle raise NotALattice, and
    self-pairs (i, i) are accepted and ignored.  With pairs, each step's
    candidates are the set bits of the current node's up-set; the other
    two orders compare keys with every node.  Either way candidates come
    in ascending index order.

    Selection: starting from the zero object, repeatedly pick the node
    above the current one whose quotient maximizes the slope, breaking
    ties by maximal height.  A residual tie between distinct descriptors
    raises AmbiguousLattice.  Quotient heights and partial degrees must be
    nonnegative along every chain the selection walks.  The selection runs
    in integers, every partial degree held over one common denominator.
    """
    nodes = list(nodes)
    if not nodes:
        raise NotALattice("empty node set")
    rows, L = _integer_rows([d.deg for d in nodes])
    keys = None
    if all(isinstance(d, SplitSubgroupDesc) for d in nodes):
        keys = [d.torsion for d in nodes]
    return _hn_select(
        [d.o_height for d in nodes], rows, L, w, nodes.__getitem__, keys, containment
    )


def hn_split(
    sig: Signature, n: int, mode: str = "classical", tau: int | None = None
) -> tuple[HNResult, int]:
    """HN filtration of the split mu-ordinary product of sig at level n under
    DegreeWeighting(mode, p, f, tau), and its number of split subgroups.
    Checked in order: the size guard in tau mode (its weights reach
    p^(f-1)), the level, the enumeration cap, the weighting.  The walk runs
    on the integer _split_nodes rows and their torsion keys."""
    if mode == "tau":
        _check_level_work(sig.f, sig.p, 1, sig.h * n * sig.f)
    rows = _split_nodes(mu_ordinary_product(sig, n))
    w = DegreeWeighting(mode, sig.p, sig.f, tau)
    ht, _, degs, keys = zip(*rows)
    return _hn_select(ht, degs, 1, w, lambda i: _split_desc(rows[i], n), keys), len(rows)


def hn_rows(rows, w: DegreeWeighting, containment=None) -> HNResult:
    """HN filtration over parse_lattice's rows (o_height, deg, level,
    torsion or None), ordered as in hn_from_lattice; in tau mode the size
    guard reads the degrees over their common denominator first."""
    ht, fdegs, _, keys = zip(*rows)
    degs, L = _integer_rows(fdegs)
    if w.mode == "tau":
        top = max(max(row, default=0) for row in degs)
        _check_level_work(w.f, w.p, 1, L * w.f * max(ht) * top)
    return _hn_select(
        ht, degs, L, w, lambda i: _node_desc(rows[i]),
        None if None in keys else keys, containment,
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

