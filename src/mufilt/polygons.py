"""Exact piecewise-linear polygon calculus.

Polygons start at (0, 0), use Fraction breakpoints, and are stored in
canonical form: adjacent collinear segments are merged, so every interior
breakpoint is a genuine slope break.  Convex polygons have weakly
increasing slopes, concave ones weakly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainMismatch, MufiltError
from .signature_core import Signature, _frobenius_weights

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Polygon:
    points: tuple[Point, ...]
    convexity: str

    def __post_init__(self):
        """The one validator: every polygon is checked and put in canonical
        form here.

        The checks run on integer numerators over one common denominator D,
        the lcm of the point denominators.  Scaling both axes by D keeps the
        order of abscissas, collinearity (a zero cross product) and the
        order of slopes, so no Fraction is built past the points themselves.
        The stored points are the caller's, as Fractions, minus the interior
        points of collinear runs.
        """
        if self.convexity not in ("convex", "concave"):
            raise MufiltError(f"unknown convexity {self.convexity!r}")
        pts = [
            (
                x if type(x) is Fraction else Fraction(x),
                y if type(y) is Fraction else Fraction(y),
            )
            for x, y in self.points
        ]
        if not pts:
            raise MufiltError("polygon must start at (0, 0)")
        ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in pts]
        D = lcm(*(d for (_, dx), (_, dy) in ratios for d in (dx, dy)))
        xs = [nx * (D // dx) for (nx, dx), _ in ratios]
        ys = [ny * (D // dy) for _, (ny, dy) in ratios]
        if xs[0] or ys[0]:
            raise MufiltError("polygon must start at (0, 0)")
        for x0, x1 in zip(xs, xs[1:]):
            if not x1 > x0:
                raise MufiltError("abscissas must be strictly increasing")
        # drop the middle of every collinear triple: the cross product of
        # (x1-x0, y1-y0) and (x-x0, y-y0) vanishes
        keep: list[int] = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            while len(keep) >= 2:
                i0, i1 = keep[-2], keep[-1]
                x0, y0 = xs[i0], ys[i0]
                if (xs[i1] - x0) * (y - y0) != (x - x0) * (ys[i1] - y0):
                    break
                keep.pop()
            keep.append(i)
        # no kept triple is collinear, so the sign of the cross product of
        # two consecutive segments is the sign of their slope change
        convex = self.convexity == "convex"
        for i0, i1, i2 in zip(keep, keep[1:], keep[2:]):
            dx0, dy0 = xs[i1] - xs[i0], ys[i1] - ys[i0]
            turn = dx0 * (ys[i2] - ys[i1]) - (xs[i2] - xs[i1]) * dy0
            if convex and turn < 0:
                raise MufiltError("convex polygon with decreasing slopes")
            if not convex and turn > 0:
                raise MufiltError("concave polygon with increasing slopes")
        object.__setattr__(self, "points", tuple(pts[i] for i in keep))

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.points[0][0], self.points[-1][0])

    @property
    def endpoint(self) -> Point:
        return self.points[-1]

    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.points, self.points[1:])
        )

    def value(self, x) -> Fraction:
        x = Fraction(x)
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise DomainMismatch(f"abscissa {x} outside [{lo}, {hi}]")
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return self.points[-1][1]


def hodge_polygon(sig: Signature) -> Polygon:
    """Convex polygon on [0, h] whose slope on [i, i+1] is #{q_tau <= i}/f.

    H(x) = (1/f) * sum over tau of max(0, x - q_tau), evaluated at 0, the
    distinct q-values, and h.
    """
    xs = sorted({0, sig.h, *sig.q})
    return Polygon(
        tuple((Fraction(x), Fraction(sum(max(0, x - qt) for qt in sig.q), sig.f)) for x in xs),
        "convex",
    )


def _min_profile(sig: Signature, weights) -> Polygon:
    """Concave polygon (1/f) * sum over tau of weights[tau] * min(x, p_tau),
    evaluated at 0, the distinct p-values, and h: the only places it can
    break."""
    pv = sig.p_values
    return Polygon(
        tuple(
            (Fraction(x), Fraction(sum(c * min(x, pt) for c, pt in zip(weights, pv)), sig.f))
            for x in sorted({0, sig.h, *pv})
        ),
        "concave",
    )


def reversed_hodge(sig: Signature) -> Polygon:
    """Concave polygon on [0, h]: slope on [b-1, b] is #{p_tau >= b}/f, so
    R(x) = (1/f) * sum over tau of min(x, p_tau).

    Endpoint ordinate is the average degree (sum of p_tau)/f.
    """
    return _min_profile(sig, (1,) * sig.f)


def hn_mu_ordinary_tau(sig: Signature, tau: int) -> Polygon:
    """Concave polygon of the tau-weighted mu-ordinary profile:
    V(x) = (1/f) * sum over i = 1..f of p^{f-i} * min(x, p_{sigma^i tau}).
    """
    sig.check_embedding(tau)
    return _min_profile(sig, _frobenius_weights(sig.p, sig.f, tau))


def renormalize(poly: Polygon, n: int) -> Polygon:
    """Rescale both axes by 1/n: Q(x) = P(n x)/n."""
    if not isinstance(n, int) or n < 1:
        raise DomainMismatch(f"renormalization level must be a positive integer, got {n!r}")
    return Polygon(
        tuple((x / n, y / n) for x, y in poly.points), poly.convexity
    )
