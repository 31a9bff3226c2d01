"""Independent reference computations used to pin expected values in the tests.

Everything here is deliberately written against the raw definitions, with
different summation orders and different data flow than the library, so that
agreement between the two is evidence rather than tautology.  No imports from
mufilt are allowed in this file, with two exceptions, each inside its
function: dump_json_reference, the json.dumps renderer the library's writer
replaced, kept as its oracle, which must recognise the library's own types;
and polygon_reference, the Fraction-based polygon check the integer one
replaced, which raises the library's own error.
"""

from __future__ import annotations

from fractions import Fraction


# === scalar constants =======================================================

def constants_bruteforce(f, p, q):
    """k, K, r, n_tau straight from the defining sums, iterating over
    embeddings rather than over shift offsets."""
    k = []
    K = []
    r = []
    ncl = []
    denom = p ** f - 1
    for t in range(f):
        kt = 0
        Kt = Fraction(0)
        for u in range(f):
            gap = q[t] - q[u]
            if gap > 0:
                kt += gap
                # u = sigma^{-j} t  <=>  j = (t - u) mod f, weight p^j, j >= 1
                j = (t - u) % f
                if j != 0:
                    Kt += Fraction(p ** j * gap, denom)
        k.append(kt)
        K.append(Kt)
        r.append(sum(1 for u in range(f) if q[u] <= q[t]))
        ncl.append(sum(1 for u in range(f) if q[u] == q[t]))
    return k, K, r, ncl


def dual_k_bruteforce(f, q, h):
    """k of the dual signature computed on the p side."""
    pv = [h - x for x in q]
    return [sum(max(0, pv[t] - pv[u]) for u in range(f)) for t in range(f)]


def threshold_bruteforce(f, p, q, t, n):
    _, K, _, _ = constants_bruteforce(f, p, q)
    base = min(Fraction(1, 2), 1 + K[t] - Fraction(2 * q[t], p - 1))
    return base / p ** ((n - 1) * f)


def h1_bound_reference(p, qt, Kt):
    """1 + K_t - 2 q_t/(p - 1)."""
    return 1 + Kt - Fraction(2 * qt, p - 1)


def h3_bound_reference(f, p, qt, Kt, m):
    """(1 + K_t)/p^{(m-1)f} - 2 q_t/(p^{mf} - p^{(m-1)f})."""
    return (1 + Kt) / Fraction(p) ** ((m - 1) * f) - Fraction(
        2 * qt, p ** (m * f) - p ** ((m - 1) * f)
    )


def tower_reference(f, p, h, q, t, ha, n):
    """Per level m = 1..n of the worst-case tower at embedding t: the four
    printed values and the five flags, each straight from its Fraction
    formula.  The accumulated dual degree is ha summed over the quotients,
    ha (1 + p^f + ... + p^{(m-1)f}); Hn asks ha below the level-m threshold
    at every nondegenerate embedding, and Hf is Hn at level f."""
    ha = Fraction(ha)
    pv = [h - x for x in q]
    # sigma^i t has weight p^{f-i}, i = 1..f
    mins = [(p ** (f - i), min(pv[t], pv[(t + i) % f])) for i in range(1, f + 1)]
    weighted = sum(c * x for c, x in mins)
    classical = sum(x for _, x in mins)
    _, K, _, _ = constants_bruteforce(f, p, q)
    level_one = [
        min(Fraction(1, 2), h1_bound_reference(p, q[u], K[u]))
        for u in range(f)
        if q[u] not in (0, h)
    ]

    def hn(m):
        return all(ha < x / p ** ((m - 1) * f) for x in level_one)

    h1, hf = ha < h1_bound_reference(p, q[t], K[t]), hn(f)

    levels = []
    for m in range(1, n + 1):
        delta = sum(ha * Fraction(p) ** (i * f) for i in range(m))
        levels.append({
            "deg_dual_tau": delta,
            "ha_quotient": Fraction(p) ** (m * f) * ha,
            "deg_lower_bound": m * weighted - delta,
            "classical_lower_bound": m * classical - delta,
            "H1": h1,
            "H2": delta < Fraction(p - 2, p - 1),
            "H3": ha < h3_bound_reference(f, p, q[t], K[t], m),
            "Hn": hn(m),
            "Hf": hf,
        })
    return levels


def ptorsion_reference(f, p, h, q, t, ha):
    """ptorsion_report's values at a nondegenerate t, from their Fraction
    formulas, summed over i = 1..f with sigma^i t at weight p^{f-i}."""
    ha = Fraction(ha)
    _, K, _, _ = constants_bruteforce(f, p, q)
    pv = [h - x for x in q]
    slots = [None] * f
    weighted = classical = 0
    for i in range(1, f + 1):
        u = (t + i) % f
        m = min(pv[t], pv[u])
        weighted += p ** (f - i) * m
        classical += m
        slots[u] = m - ha / p ** (f - i)
    return {
        "deg_identity_rhs": weighted - ha,
        "coker_degree": K[t] + ha / (p ** f - 1),
        "eps_tau": min(Fraction(1), (K[t] + 1 - ha) / q[t]),
        "slot_lower_bounds": tuple(slots),
        "dual_deg_upper_bound": ha,
        "classical_lower_bound": classical - ha,
        "h1_ok": ha < h1_bound_reference(p, q[t], K[t]),
    }


# === polygons ===============================================================

def hodge_unit_intervals(f, q, h):
    """Hodge polygon by accumulating unit-interval slopes |{q_tau <= i}|/f."""
    pts = [(Fraction(0), Fraction(0))]
    y = Fraction(0)
    for i in range(h):
        y += Fraction(sum(1 for x in q if x <= i), f)
        pts.append((Fraction(i + 1), y))
    return merge_collinear(pts)


def reversed_hodge_unit_intervals(f, q, h):
    """Concave analogue: slope on [i, i+1] is |{p_tau >= i+1}|/f."""
    pv = [h - x for x in q]
    pts = [(Fraction(0), Fraction(0))]
    y = Fraction(0)
    for i in range(h):
        y += Fraction(sum(1 for x in pv if x >= i + 1), f)
        pts.append((Fraction(i + 1), y))
    return merge_collinear(pts)


def merge_collinear(pts):
    out = [pts[0]]
    for pt in pts[1:]:
        if len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            s_prev = (y1 - y0) / (x1 - x0)
            s_new = (pt[1] - y1) / (pt[0] - x1)
            if s_prev == s_new:
                out.pop()
        out.append(pt)
    return out


def polygon_reference(points, convexity):
    """The polygon check and canonical form that Polygon.__post_init__ ran
    in Fractions before it moved to integers over one denominator, as it
    was: the canonical points, or the MufiltError it raised."""
    from mufilt.errors import MufiltError

    def _merge_collinear(points):
        out = []
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

    if convexity not in ("convex", "concave"):
        raise MufiltError(f"unknown convexity {convexity!r}")
    pts = [
        (Fraction(x), Fraction(y)) for x, y in points
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
        if convexity == "convex" and s1 < s0:
            raise MufiltError("convex polygon with decreasing slopes")
        if convexity == "concave" and s1 > s0:
            raise MufiltError("concave polygon with increasing slopes")
    return tuple(pts)


def eval_piecewise(pts, x):
    x = Fraction(x)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError("x outside domain")


def hn_tau_value(f, p, pvals, t, x):
    total = Fraction(0)
    for i in range(1, f + 1):
        total += Fraction(p ** (f - i)) * min(Fraction(x), Fraction(pvals[(t + i) % f]))
    return Fraction(total, f)


def break_certificate_bruteforce(f, p, q, h, n, tau, tau_prime, deg):
    """(weighted degree, break bound, cran bound) read off the stated
    formulas, walking the shifts j = 1..f of tau.  tau None is classical
    mode: every embedding once, unweighted."""
    pv = [h - x for x in q]
    if tau is None:
        slots = [(u, 1) for u in range(f)]
    else:
        slots = [((tau + j) % f, p ** (f - j)) for j in range(1, f + 1)]
    value = Fraction(0)
    main = 0
    half = Fraction(0)
    for u, weight in slots:
        value += weight * Fraction(deg[u])
        main += weight * min(pv[tau_prime], pv[u])
        if q[u] == q[tau_prime]:
            half += Fraction(weight, 2)
    main *= n
    return value, main - half, main - Fraction(p - 2, p - 1)


# === Raynaud ================================================================

def raynaud_affine_cycle(p, vgamma, slot):
    """Solve p v_i = v(gamma_{i+1}) + v_{i+1} around the cycle by affine
    propagation v = a + b X, then close the loop."""
    f = len(vgamma)
    a = Fraction(0)
    b = Fraction(1)
    for step in range(f):
        nxt = (slot + step + 1) % f
        a = p * a - Fraction(vgamma[nxt])
        b = p * b
    # after f steps: v_slot = a + b v_slot
    return a / (1 - b)


# === mu-ordinary structure ==================================================

def mu_ord_ladder(q, h):
    interior = sorted({x for x in q if 0 < x < h})
    return [0] + interior + [h]


def mu_ord_factors_bruteforce(f, q, h):
    ladder = mu_ord_ladder(q, h)
    out = []
    for lo, hi in zip(ladder, ladder[1:]):
        A = frozenset(t for t in range(f) if q[t] <= lo)
        out.append((A, hi - lo))
    return out


def mu_ord_cran_degrees_bruteforce(f, q, h, t, n):
    """Partial degrees of the tau-cran by direct per-factor accumulation,
    no min() shortcut."""
    ladder = mu_ord_ladder(q, h)
    factors = mu_ord_factors_bruteforce(f, q, h)
    if q[t] >= h:
        lt = len(factors)
    else:
        lt = ladder.index(q[t])
    deg = [0] * f
    height = 0
    for l in range(lt, len(factors)):
        A, mult = factors[l]
        height += mult
        for u in A:
            deg[u] += mult
    return n * height, [Fraction(n * d) for d in deg]


def split_subgroups_bruteforce(f, factors, n):
    """All split subgroups as per-copy torsion tuples, collapsed to
    (height, deg tuple) descriptors.  Exponential; tiny inputs only."""
    from itertools import product

    copies = []
    for A, mult in factors:
        copies.extend([A] * mult)
    descs = set()
    for combo in product(range(n + 1), repeat=len(copies)):
        ht = sum(combo)
        deg = [0] * f
        for m, A in zip(combo, copies):
            for u in A:
                deg[u] += m
        descs.add((ht, tuple(deg)))
    return descs



def containment_closure_reference(n, pairs):
    """Reflexive-transitive closure of the (i, j) pairs over n nodes, by a
    breadth-first search from each node; returns one set of reachable
    indices per node (each node reaches itself)."""
    from collections import deque

    adjacent = [set() for _ in range(n)]
    for i, j in pairs:
        adjacent[i].add(j)
    reach = []
    for start in range(n):
        seen = {start}
        queue = deque([start])
        while queue:
            for j in adjacent[queue.popleft()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        reach.append(seen)
    return reach


def hn_selection_reference(nodes, pairs, weights, classical):
    """Greedy HN selection in Fractions, one candidate list per step.

    nodes: (height, partial degrees) pairs; pairs: (i, j) containments,
    closed here by search; weights: the degree weight per embedding.
    Returns (chosen node indices, slopes, polygon points), or the string
    "additivity" or "ambiguous" when the selection must stop there.
    """
    n = len(nodes)
    f = len(weights)
    above = containment_closure_reference(n, pairs)
    bottom = next(i for i, (h, deg) in enumerate(nodes) if h == 0 and not any(deg))
    top = next(j for j in range(n) if all(j in above[i] for i in range(n)))

    def Deg(i):
        return sum(Fraction(c) * d for c, d in zip(weights, nodes[i][1]))

    chain, slopes = [bottom], []
    points = [(Fraction(0), Fraction(0))]
    while chain[-1] != top:
        cur = chain[-1]
        cands = []
        for j in sorted(above[cur] - {cur}):
            dht = nodes[j][0] - nodes[cur][0]
            lower = any(a < b for a, b in zip(nodes[j][1], nodes[cur][1]))
            if dht <= 0 or lower:
                return "additivity"
            cands.append(((Deg(j) - Deg(cur)) / (f * dht), dht, j))
        key = max((s, d) for s, d, _ in cands)
        winners = [j for s, d, j in cands if (s, d) == key]
        if len({(nodes[j][0], tuple(nodes[j][1])) for j in winners}) > 1:
            return "ambiguous"
        slope, dht = key
        j = winners[0]
        x, y = points[-1]
        rise = slope * f * dht
        points.append((x + dht, y + (rise / f if classical else rise)))
        chain.append(j)
        slopes.append(slope)
    return chain, slopes, points


# === period monomials =======================================================

def frobenius_replay(a, b, c):
    """One Frobenius step on exponents, done as an explicit rotation of the
    length-f vector (a, b_1, ..., b_{f-1}) with a p-counter."""
    vec = [a] + list(b)
    rotated = [vec[-1]] + vec[:-1]
    return rotated[0], tuple(rotated[1:]), c + a


def graded_valuation_bruteforce(a, b, c, p):
    f = len(b) + 1
    denom = p ** f - 1
    val = Fraction(a, denom) + c
    for j, bj in enumerate(b, start=1):
        val += Fraction(bj * p ** j, denom)
    return val


def multiplication_coeff_bruteforce(f, q, t, u):
    """Exponents of the coefficient at slot u of the multiplication map for
    embedding t, straight from the displayed product."""
    a = max(0, q[t] - q[u])
    b = tuple(max(0, q[t] - q[(u - j) % f]) for j in range(1, f))
    return a, b, 0


def multiplication_map_eager(f, p, q, t):
    """The multiplication map at t as it was first computed, all at once:
    (coefficient exponents per slot, K from the diagonal coefficient, the
    transport identity replayed at every slot)."""
    coeffs = [multiplication_coeff_bruteforce(f, q, t, u) for u in range(f)]
    K = graded_valuation_bruteforce(*coeffs[t], p)
    transport = True
    for u in range(f):
        a, b, c = frobenius_replay(*coeffs[u])
        a1, b1, c1 = coeffs[(u + 1) % f]
        if (a, b, c + min(q[t], q[u])) != (a1, b1, c1 + q[t]):
            transport = False
    return coeffs, K, transport


# === decimal approximation ==================================================

def approx_str_digit_loop(x, places=6):
    """"~" decimal of a Fraction by long division one digit at a time,
    stopping at `places` digits or a zero remainder, trailing zeros
    dropped."""
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    whole, rem = divmod(n, d)
    digits = []
    for _ in range(places):
        rem *= 10
        dig, rem = divmod(rem, d)
        digits.append(str(dig))
        if rem == 0:
            break
    frac_part = "".join(digits).rstrip("0")
    if not frac_part:
        return f"~{sign}{whole}"
    return f"~{sign}{whole}.{frac_part}"


# === appendix inequality ====================================================

def appendix_displayed_bruteforce(p, n, f):
    """The displayed auxiliary inequality with denominator 2 p^{(n-1)f} f."""
    D = 2 * p ** ((n - 1) * f) * f
    lhs = (
        Fraction(p ** ((n - 1) * f) - 1, (p ** f - 1) * D)
        + Fraction(2 * (p ** (n * f) - 1), (p ** f - 1) * D)
        - Fraction(1, f)
    )
    return lhs <= 1


def appendix_reduced_bruteforce(p, n, f):
    return Fraction(p ** ((n - 1) * f) * (2 * p ** f - 3 * f - 1), f) + 3 >= 0


def appendix_anchor_bruteforce(p, f):
    return 2 * p ** f >= 3 * f + 1


# === misc ===================================================================

def bijakowski_bound_bruteforce(pvals, n, d, c):
    # count needs the strict lower comparison d - 1 < n*pt; the weak form
    # admits false certificates at the knife edge n*pt = d - 1 = Ht(D cap C)
    total = 0
    for pt in pvals:
        total += min(n * pt, d) + min(n * pt, c)
    count = sum(1 for pt in pvals if d - 1 < n * pt <= c)
    return Fraction(total - count)


def primes_upto(bound):
    sieve = [True] * (bound + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, bound + 1, i):
                sieve[j] = False
    return [i for i, ok in enumerate(sieve) if ok]


def all_signatures(f, h):
    """Every q-vector with entries in [0, h]."""
    from itertools import product

    return list(product(range(h + 1), repeat=f))


# === JSON rendering =========================================================

def dump_json_reference(data, human: bool = False) -> str:
    """The renderer that serialize.dump_json replaced, as it was: json.dumps
    with sorted keys and an indent of 2, the library types rendered by its
    default hook, encode.  The writer must give the same bytes on every
    tree both accept."""
    import json
    import sys

    from mufilt.errors import DigitCapExceeded
    from mufilt.group_models import FiniteOModuleDesc, SplitSubgroupDesc
    from mufilt.hn_engine import HNResult
    from mufilt.period_calculus import PeriodMonomial
    from mufilt.polygons import Polygon
    from mufilt.serialize import approx_str
    from mufilt.signature_core import Signature, _decimal_cap_bits

    digits = sys.get_int_max_str_digits()
    cap = _decimal_cap_bits(digits) if digits else 0

    def encode(o):
        if type(o) is Fraction:
            num, den = o.as_integer_ratio()
            if cap and (num.bit_length() > cap or den.bit_length() > cap):
                raise DigitCapExceeded(cap, max(num.bit_length(), den.bit_length()))
            return [num, den, approx_str(o)] if human else [num, den]
        # nested values are rendered here rather than handed back: each value
        # default() returns costs the pure-Python encoder (indent=2) one more
        # generator level for everything inside it
        if type(o) is Polygon:
            points = []
            for x, y in o.points:
                ex, ey = encode(x), encode(y)
                # [xn, xd, yn, yd], then the two "~" strings in human mode
                points.append(ex[:2] + ey[:2] + ex[2:] + ey[2:])
            return {"convexity": o.convexity, "points": points}
        if isinstance(o, FiniteOModuleDesc):
            out = {"o_height": o.o_height, "deg": [encode(x) for x in o.deg], "level": o.level}
            if isinstance(o, SplitSubgroupDesc):
                out["torsion"] = o.torsion
            return out
        if type(o) is PeriodMonomial:
            return {"a": o.a, "b": o.b, "c": o.c, "text": o.text()}
        if type(o) is Signature:
            return {"f": o.f, "p": o.p, "h": o.h, "q": o.q}
        if type(o) is HNResult:
            return {
                "polygon": encode(o.polygon),
                "filtration": [encode(d) for d in o.filtration],
                "slopes": [encode(s) for s in o.slopes],
            }
        raise TypeError(f"cannot render {type(o).__name__}")

    # report trees hold no cycles; the check would cost a dict entry per container
    return json.dumps(data, sort_keys=True, indent=2, check_circular=False, default=encode) + "\n"
