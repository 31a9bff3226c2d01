"""Signatures and their combinatorial constants.

A signature records an unramified degree f, a prime p, a height h, and one
partial Hodge number q_tau per embedding.  Embeddings are the residue
classes 0..f-1 and the Frobenius sigma acts by tau -> tau+1 mod f, so
sigma^{-j} tau is (tau - j) mod f.  The complementary numbers are
p_tau = h - q_tau.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul

from .errors import (
    DegenerateEmbedding,
    DigitCapExceeded,
    LevelCapExceeded,
    MufiltError,
)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least composite that is a strong pseudoprime to every base
# above: Miller-Rabin with these bases decides primality exactly below it.
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41.

    Exact for n below psi_13 = 3317044064679887385961981; larger n with no
    factor among the bases raise MufiltError instead of risking a wrong
    answer.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_EXACT_BELOW:
        raise MufiltError(
            f"primality of {n} is only decided below {_MR_EXACT_BELOW}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_f_p(f: int, p: int) -> None:
    """The one guard on the unramified degree f and the prime p."""
    if not isinstance(f, int) or f < 1:
        raise MufiltError(f"f must be a positive integer, got {f!r}")
    if not isinstance(p, int) or not _is_prime(p):
        raise MufiltError(f"p must be prime, got {p!r}")


def _check_index(i: int, f: int, what: str) -> int:
    """The one guard on an embedding (or slot) index: an integer in 0..f-1."""
    if not isinstance(i, int) or not 0 <= i < f:
        raise MufiltError(f"{what} {i!r} out of range 0..{f - 1}")
    return i


def _check_level(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise MufiltError(f"level n must be an integer >= 1, got {n!r}")


LEVEL_CAP = 4096


@cache
def _decimal_cap_bits(digits: int) -> int:
    """The most bits an integer may have to be written in at most `digits`
    decimal digits: b with 2^b <= 10^digits < 2^(b+1)."""
    return (10**digits).bit_length() - 1


def _check_level_work(f: int, p: int, n: int = 1, scale: int = 1) -> None:
    """The one guard on the size of a report, run before any of its work.

    Level m carries denominators p^{(m-1)f} (and p^{mf} - p^{(m-1)f}), so
    the numbers, the time and the output all grow with the bit length of
    p^{(n-1)f}.  That is bounded above by (n - 1) f bitlen(p), which must
    not exceed LEVEL_CAP; otherwise LevelCapExceeded.

    Every integer the report prints lies below scale * p^{nf}, where the
    caller's scale bounds the factors that are not powers of p (heights,
    levels, the Hasse inputs), so it has at most n f bitlen(p) +
    bitlen(scale) bits.  The JSON output writes integers in decimal, which
    the interpreter refuses past sys.get_int_max_str_digits() digits (0
    lifts the limit); a report that could need more raises DigitCapExceeded
    with both sizes in bits.
    """
    required = (n - 1) * f * p.bit_length()
    if required > LEVEL_CAP:
        raise LevelCapExceeded(LEVEL_CAP, required)
    digits = sys.get_int_max_str_digits()
    if digits:
        cap = _decimal_cap_bits(digits)
        required = n * f * p.bit_length() + scale.bit_length()
        if required > cap:
            raise DigitCapExceeded(cap, required)


def _frobenius_weights(p: int, f: int, tau: int) -> tuple[int, ...]:
    """Weight vector of Deg_tau(x) = sum over i = 1..f of p^{f-i} x_{sigma^i tau}.

    Indexed by embedding: sigma^i tau gets p^{f-i}, so tau itself (i = f)
    gets 1 and sigma^{-j} tau gets p^j.  Every Frobenius-weighted sum in
    the library is a dot product with this vector.
    """
    powers = [p**j for j in range(f)]
    # embedding u is sigma^{-j} tau for j = (tau - u) mod f: tau, ..., 1, 0,
    # then f - 1, ..., tau + 1 as u runs over 0..f-1
    return tuple(powers[tau::-1] + powers[:tau:-1])


@dataclass(frozen=True)
class Signature:
    """Immutable signature datum (f, p, h, q)."""

    f: int
    p: int
    h: int
    q: tuple[int, ...]

    def __post_init__(self):
        _check_f_p(self.f, self.p)
        if not isinstance(self.h, int) or self.h < 1:
            raise MufiltError(f"h must be a positive integer, got {self.h!r}")
        q = tuple(self.q)
        object.__setattr__(self, "q", q)
        if len(q) != self.f:
            raise MufiltError(
                f"need exactly f={self.f} partial Hodge numbers, got {len(q)}"
            )
        for t, qt in enumerate(q):
            if not isinstance(qt, int) or not 0 <= qt <= self.h:
                raise MufiltError(
                    f"q[{t}]={qt!r} must be an integer in [0, {self.h}]"
                )

    @property
    def p_values(self) -> tuple[int, ...]:
        """Complementary numbers p_tau = h - q_tau."""
        return tuple(self.h - qt for qt in self.q)

    def check_embedding(self, tau: int) -> int:
        return _check_index(tau, self.f, "embedding index")

    def is_degenerate(self, tau: int) -> bool:
        """True when q_tau is 0 or h: such an embedding carries no
        threshold, canonical subgroup datum or multiplication map."""
        return self.q[tau] in (0, self.h)

    def check_nondegenerate(self, tau: int) -> int:
        """check_embedding, then DegenerateEmbedding when q_tau is 0 or h."""
        self.check_embedding(tau)
        if self.is_degenerate(tau):
            raise DegenerateEmbedding(
                f"embedding {tau} has q={self.q[tau]} in {{0, h}}, "
                "so no datum is defined there"
            )
        return tau


@dataclass(frozen=True)
class SignatureConstants:
    """Per-embedding invariants, each a tuple indexed by embedding.

    k: integer defect sums max(0, q_tau - q_tau')
    K: Frobenius-weighted defect, in [0, 1) whenever q_tau <= p - 2
    r: count of embeddings with q_tau' <= q_tau
    n: count of embeddings with q_tau' == q_tau
    k_dual: defect sums of the dual signature, max(0, p_tau - p_tau')
    """

    k: tuple[int, ...]
    K: tuple[Fraction, ...]
    r: tuple[int, ...]
    n: tuple[int, ...]
    k_dual: tuple[int, ...]


def constants(sig: Signature) -> SignatureConstants:
    """All per-embedding constants of a signature.

    K_tau is the _frobenius_weights dot product with the defects
    max(0, q_tau - q_u), divided by p^f - 1: the weight of sigma^{-j} tau
    is p^j, and tau's own defect is 0.  r and n are read off the sorted
    q-values, and k_dual off k.

    Computed once per Signature instance and kept on it as _constants,
    outside the dataclass fields, so equality, hash and repr ignore it.
    """
    cached = vars(sig).get("_constants")
    if cached is not None:
        return cached
    f, p, q = sig.f, sig.p, sig.q
    denom = p**f - 1
    total = sum(q)
    ordered = sorted(q)
    k = []
    K = []
    r = []
    n = []
    kd = []
    for t, qt in enumerate(q):
        defects = [qt - qu if qu < qt else 0 for qu in q]
        kt = sum(defects)
        k.append(kt)
        w = _frobenius_weights(p, f, t)
        K.append(Fraction(sum(map(mul, w, defects)), denom))
        r.append(bisect_right(ordered, qt))
        n.append(q.count(qt))
        # p_tau - p_u = q_u - q_tau, and max(0, x) - max(0, -x) = x, so the
        # dual defects sum to k_tau - sum_u (q_tau - q_u)
        kd.append(kt - f * qt + total)
    consts = SignatureConstants(tuple(k), tuple(K), tuple(r), tuple(n), tuple(kd))
    object.__setattr__(sig, "_constants", consts)
    return consts


def _level_one(
    sig: Signature,
) -> tuple[tuple[Fraction, ...], Fraction | None, tuple[int, ...]]:
    """The level-one bounds 1 + K_tau - 2 q_tau/(p - 1) at every embedding,
    the floor (the least level-one threshold min(1/2, bound) over the
    nondegenerate embeddings, None when there is none), and the integer
    weighted defects w_tau = K_tau (p^f - 1).

    Each bound is one Fraction over (p - 1)(p^f - 1): its numerator is
    (p - 1)(p^f - 1 + w_tau) - 2 q_tau (p^f - 1).  Computed once per
    Signature instance and kept on it as _level_one, as constants is.
    """
    cached = vars(sig).get("_level_one")
    if cached is not None:
        return cached
    p = sig.p
    P1 = p**sig.f - 1
    ratios = (K.as_integer_ratio() for K in constants(sig).K)
    defects = tuple(num * (P1 // den) for num, den in ratios)
    bounds = tuple(
        Fraction((p - 1) * (P1 + w) - 2 * qt * P1, (p - 1) * P1)
        for w, qt in zip(defects, sig.q)
    )
    half = Fraction(1, 2)
    floor = min(
        (min(half, b) for t, b in enumerate(bounds) if not sig.is_degenerate(t)),
        default=None,
    )
    object.__setattr__(sig, "_level_one", (bounds, floor, defects))
    return bounds, floor, defects


def _h1_bound(sig: Signature, tau: int) -> Fraction:
    """Level-one bound 1 + K_tau - 2 q_tau/(p - 1), with no guards: the
    public thresholds add theirs, the tower flags run at every embedding."""
    return _level_one(sig)[0][tau]


def hasse_threshold(sig: Signature, tau: int, n: int) -> Fraction:
    """Level-n canonical-subgroup threshold at an embedding.

    Value: p^{-(n-1)f} * min(1/2, 1 + K_tau - 2 q_tau / (p - 1)).
    Requires q_tau outside {0, h}; the degenerate embeddings carry no
    threshold.
    """
    sig.check_nondegenerate(tau)
    _check_level(n)
    return min(Fraction(1, 2), _h1_bound(sig, tau)) / sig.p ** ((n - 1) * sig.f)


def threshold_h1(sig: Signature, tau: int) -> Fraction:
    """Level-one bound 1 + K_tau - 2 q_tau / (p - 1), without the 1/2 cap."""
    sig.check_nondegenerate(tau)
    return _h1_bound(sig, tau)


def threshold_h3(sig: Signature, tau: int, n: int) -> Fraction:
    """Level-n refinement (1+K_tau)/p^{(n-1)f} - 2q_tau/(p^{nf}-p^{(n-1)f}),
    that is (p^f - 1 + w_tau - 2 q_tau) over p^{(n-1)f} (p^f - 1), w_tau
    the weighted defect."""
    sig.check_nondegenerate(tau)
    _check_level(n)
    f, p = sig.f, sig.p
    P1 = p**f - 1
    w = _level_one(sig)[2][tau]
    return Fraction(P1 + w - 2 * sig.q[tau], p ** ((n - 1) * f) * P1)


def threshold_existence(sig: Signature, tau: int) -> Fraction:
    """Existence-only variant min(1/2, 1 + K_tau - q_tau/(p-1)).

    Weaker than the threshold used by hasse_threshold: a single q_tau/(p-1)
    term instead of two, enough for the subgroup to exist but not for the
    full degree identity.
    """
    sig.check_nondegenerate(tau)
    K = constants(sig).K[tau]
    return min(Fraction(1, 2), 1 + K - Fraction(sig.q[tau], sig.p - 1))


def prime_admissible(sig: Signature) -> tuple[bool, list[str]]:
    """Check the two largeness conditions on p.

    Condition 1: p > max over embeddings with q_tau != h of
    2 q_tau / (1 + K_tau), plus 1.  An empty maximum passes vacuously.
    Condition 2: q_tau < p - 1 for every embedding with q_tau not in {0, h}.

    Returns (ok, diagnostics); each diagnostic names the violated condition
    and the embedding.
    """
    diags: list[str] = []
    K = constants(sig).K
    candidates = [
        Fraction(2 * sig.q[t]) / (1 + K[t])
        for t in range(sig.f)
        if sig.q[t] != sig.h
    ]
    if candidates:
        bound = max(candidates) + 1
        if not sig.p > bound:
            diags.append(
                f"p={sig.p} is not greater than the ratio bound {bound}"
            )
    for t in range(sig.f):
        if not sig.is_degenerate(t) and not sig.q[t] < sig.p - 1:
            diags.append(
                f"embedding {t}: q={sig.q[t]} is not below p-1={sig.p - 1}"
            )
    return (not diags, diags)


def mu_ordinary_decomposition(
    sig: Signature,
) -> tuple[tuple[frozenset[int], int], ...]:
    """Slope factors of the mu-ordinary group attached to a signature.

    The ladder is 0, then the distinct q-values strictly between 0 and h,
    then h.  Each consecutive pair (lo, hi) contributes one factor with
    embedding set {tau : q_tau <= lo} and multiplicity hi - lo.  The sets
    are strictly increasing along the list and the multiplicities sum to h.
    Round trip: p_tau is the total multiplicity of factors containing tau.
    """
    ladder = mu_ordinary_ladder(sig)
    factors = []
    for lo, hi in zip(ladder, ladder[1:]):
        A = frozenset(t for t in range(sig.f) if sig.q[t] <= lo)
        factors.append((A, hi - lo))
    return tuple(factors)


def mu_ordinary_ladder(sig: Signature) -> list[int]:
    """Sorted value ladder [0, interior q-values, h]."""
    interior = sorted({qt for qt in sig.q if 0 < qt < sig.h})
    return [0] + interior + [sig.h]


def ladder_index(sig: Signature, tau: int) -> int:
    """Position l_tau of q_tau in the ladder.

    Factors are indexed 0..r; an embedding sits inside factor l exactly
    when l >= l_tau, so q_tau = h yields r + 1 and belongs to no factor.
    """
    sig.check_embedding(tau)
    return mu_ordinary_ladder(sig).index(sig.q[tau])
