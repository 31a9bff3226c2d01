"""Reference computations the benchmark checks mufilt's outputs against.

Everything here is written from the definitions, with its own loops and
data flow, and imports nothing from mufilt: agreement with the program is
evidence, not a tautology.  Rationals are Fractions; polygons are lists of
(x, y) Fraction breakpoints starting at (0, 0).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# === primes =================================================================

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits: int) -> int:
    """A prime with exactly `bits` bits, drawn with rng."""
    if bits < 2:
        raise ValueError("a prime has at least two bits")
    while True:
        cand = rng.randrange(1 << (bits - 1), 1 << bits)
        if is_prime(cand):
            return cand


# === signature constants ====================================================

def constants(f, p, h, q):
    """(k, K, r, n, k_dual) from the defining sums, iterating over the
    other embedding u rather than over the Frobenius shift j."""
    pv = [h - x for x in q]
    denom = p**f - 1
    k, K, r, n, kd = [], [], [], [], []
    for t in range(f):
        kt, Kt = 0, Fraction(0)
        for u in range(f):
            gap = q[t] - q[u]
            if gap > 0:
                kt += gap
                j = (t - u) % f  # u = sigma^{-j} t
                if j:
                    Kt += Fraction(gap * p**j, denom)
        k.append(kt)
        K.append(Kt)
        r.append(sum(q[u] <= q[t] for u in range(f)))
        n.append(sum(q[u] == q[t] for u in range(f)))
        kd.append(sum(max(0, pv[t] - pv[u]) for u in range(f)))
    return k, K, r, n, kd


def threshold(f, p, q, K_t, t, n):
    """Level-n threshold min(1/2, 1 + K - 2q/(p-1)) / p^{(n-1)f}."""
    base = min(Fraction(1, 2), 1 + K_t - Fraction(2 * q[t], p - 1))
    return base / p ** ((n - 1) * f)


def threshold_h1(p, q, K_t, t):
    return 1 + K_t - Fraction(2 * q[t], p - 1)


def threshold_h3(f, p, q, K_t, t, n):
    lower = p ** ((n - 1) * f)
    return (1 + K_t) / lower - Fraction(2 * q[t], p ** (n * f) - lower)


def threshold_existence(p, q, K_t, t):
    return min(Fraction(1, 2), 1 + K_t - Fraction(q[t], p - 1))


# === polygons ===============================================================

def merge_collinear(pts):
    """Drop breakpoints where the slope does not change."""
    out = []
    for pt in pts:
        if len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            if (y1 - y0) / (x1 - x0) == (pt[1] - y1) / (pt[0] - x1):
                out.pop()
        out.append(pt)
    return out


def hodge(f, h, q):
    """Convex: slope #{q_tau <= i}/f on [i, i+1]."""
    pts, y = [(Fraction(0), Fraction(0))], Fraction(0)
    for i in range(h):
        y += Fraction(sum(x <= i for x in q), f)
        pts.append((Fraction(i + 1), y))
    return merge_collinear(pts)


def reversed_hodge(f, h, q):
    """Concave: slope #{p_tau >= i+1}/f on [i, i+1], with p_tau = h - q_tau."""
    pts, y = [(Fraction(0), Fraction(0))], Fraction(0)
    for i in range(h):
        y += Fraction(sum(h - x >= i + 1 for x in q), f)
        pts.append((Fraction(i + 1), y))
    return merge_collinear(pts)


def v_tau(f, p, h, q, t, x):
    """V_tau(x) = (1/f) sum_{i=1..f} p^{f-i} min(x, p_{sigma^i tau})."""
    total = Fraction(0)
    for i in range(1, f + 1):
        total += p ** (f - i) * min(Fraction(x), Fraction(h - q[(t + i) % f]))
    return total / f


def tau_profile(f, p, h, q, t):
    xs = sorted({0, h} | {h - x for x in q})
    return merge_collinear([(Fraction(x), v_tau(f, p, h, q, t, x)) for x in xs])


def polygon_from_json(obj):
    """Breakpoints of mufilt's polygon JSON (extra human entries ignored)."""
    return [(Fraction(e[0], e[1]), Fraction(e[2], e[3])) for e in obj["points"]]


def evaluate(pts, x):
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"abscissa {x} outside the polygon")


def same_function(a, b) -> bool:
    """Two piecewise-linear polygons agree on the same domain."""
    if a[0][0] != b[0][0] or a[-1][0] != b[-1][0]:
        return False
    xs = {x for x, _ in a} | {x for x, _ in b}
    return all(evaluate(a, x) == evaluate(b, x) for x in xs)


# === period monomials =======================================================

def multiplication_coeff(f, q, t, u):
    """Exponents (a, b, c) of the slot-u coefficient of the multiplication
    map at t, read off the displayed product."""
    a = max(0, q[t] - q[u])
    b = [max(0, q[t] - q[(u - j) % f]) for j in range(1, f)]
    return a, b, 0


def K_defining_sum(f, p, q, t):
    """K_tau = sum_{j=1..f-1} p^j max(0, q_tau - q_{sigma^{-j} tau}) / (p^f - 1)."""
    acc = sum(p**j * max(0, q[t] - q[(t - j) % f]) for j in range(1, f))
    return Fraction(acc, p**f - 1)


# === Raynaud schemes ========================================================

def raynaud_affine_cycle(p, vgamma, slot):
    """Solve p v_i = v(gamma_{i+1}) + v_{i+1} around the cycle by carrying
    v_slot = a + b * X through f steps, then closing the loop X = a + b X."""
    f = len(vgamma)
    a, b = Fraction(0), Fraction(1)
    for step in range(f):
        a = p * a - vgamma[(slot + step + 1) % f]
        b = p * b
    return a / (1 - b)


# === split mu-ordinary products =============================================

def mu_ordinary_factors(f, h, q):
    """[(A_l, m_l)]: ladder 0 < interior q-values < h, factor l has the
    embeddings with q <= ladder[l] and multiplicity ladder[l+1] - ladder[l]."""
    ladder = [0] + sorted({x for x in q if 0 < x < h}) + [h]
    return [
        (frozenset(t for t in range(f) if q[t] <= lo), hi - lo)
        for lo, hi in zip(ladder, ladder[1:])
    ]


def node_count(f, h, q, n):
    total = 1
    for _, m in mu_ordinary_factors(f, h, q):
        total *= n * m + 1
    return total


def split_lattice(f, h, q, n):
    """All split subgroups as (torsion, o_height, deg) in product order,
    with the covering pairs (i, j): j adds one unit of torsion to i."""
    factors = mu_ordinary_factors(f, h, q)
    dims = [n * m + 1 for _, m in factors]
    nodes = []
    index = {}
    for s in product(*(range(d) for d in dims)):
        deg = [0] * f
        for (A, _), sl in zip(factors, s):
            for t in A:
                deg[t] += sl
        index[s] = len(nodes)
        nodes.append((s, sum(s), deg))
    pairs = []
    for s, _, _ in nodes:
        for l in range(len(dims)):
            if s[l] + 1 < dims[l]:
                up = s[:l] + (s[l] + 1,) + s[l + 1:]
                pairs.append((index[s], index[up]))
    return nodes, pairs
