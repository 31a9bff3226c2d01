"""Exact piecewise-linear polygon calculus.

Polygons start at (0, 0), use Fraction breakpoints, and are stored in
canonical form: adjacent collinear segments are merged, so every interior
breakpoint is a genuine slope break.  Convex polygons have weakly
increasing slopes, concave ones weakly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatch, MufiltError
from .signature_core import Signature, _frobenius_weights

Point = tuple[Fraction, Fraction]


def _merge_collinear(points: list[Point]) -> tuple[Point, ...]:
    out: list[Point] = []
    for pt in points:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            # cross product of (x1-x0, y1-y0) and (pt-x0) detects collinearity
            if (x1 - x0) * (pt[1] - y0) == (pt[0] - x0) * (y1 - y0):
                out.pop()
            else:
                break
        out.append(pt)
    return tuple(out)


@dataclass(frozen=True)
class Polygon:
    points: tuple[Point, ...]
    convexity: str

    def __post_init__(self):
        if self.convexity not in ("convex", "concave"):
            raise MufiltError(f"unknown convexity {self.convexity!r}")
        pts = [
            (Fraction(x), Fraction(y)) for x, y in self.points
        ]
        if not pts or pts[0] != (Fraction(0), Fraction(0)):
            raise MufiltError("polygon must start at (0, 0)")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if not x1 > x0:
                raise MufiltError("abscissas must be strictly increasing")
        pts = list(_merge_collinear(pts))
        slopes = [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(pts, pts[1:])
        ]
        for s0, s1 in zip(slopes, slopes[1:]):
            if self.convexity == "convex" and s1 < s0:
                raise MufiltError("convex polygon with decreasing slopes")
            if self.convexity == "concave" and s1 > s0:
                raise MufiltError("concave polygon with increasing slopes")
        object.__setattr__(self, "points", tuple(pts))

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
