"""Explicit crystals of generalized Lubin-Tate modules LT_S.

The crystal has one basis slot per embedding; Frobenius sends the slot
sigma^{-1} tau to tau, picking up one factor of p exactly when
sigma^{-1} tau lies outside S.  The distinguished Tate generator is
assembled from Lubin-Tate period monomials and checked symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalNonIntegral, MufiltError, ValuationOverflow
from .period_calculus import (
    PeriodMonomial,
    PeriodVector,
    graded_valuation,
    monomial_frobenius,
)
from .signature_core import _check_f_p, _check_index


@dataclass(frozen=True)
class LTSModel:
    """Model datum (f, p, S, tau0) with S a proper subset avoiding tau0."""

    f: int
    p: int
    S: frozenset[int]
    tau0: int

    def __post_init__(self):
        _check_f_p(self.f, self.p)
        S = frozenset(self.S)
        object.__setattr__(self, "S", S)
        if not S <= frozenset(range(self.f)):
            raise MufiltError(f"S={sorted(S)} outside 0..{self.f - 1}")
        if len(S) == self.f:
            raise MufiltError("S must be a proper subset of the embeddings")
        _check_index(self.tau0, self.f, "tau0")
        if self.tau0 in S:
            raise MufiltError(f"tau0={self.tau0} must lie outside S")


def frobenius_matrix(m: LTSModel) -> tuple[int, ...]:
    """p-exponent of Frobenius per target slot tau: 1 when the source slot
    sigma^{-1} tau lies outside S, 0 when it lies inside."""
    return tuple(
        0 if (t - 1) % m.f in m.S else 1 for t in range(m.f)
    )


def tate_generator(m: LTSModel) -> PeriodVector:
    """Tate-module generator, one period monomial per slot.

    Slot tau0 carries x = prod_{j=1}^{f-1} (phi^j(t_O)/p)^{[sigma^{-j} tau0 in S]};
    slot sigma^j tau0 carries phi^j(x) divided by p^{|S cap
    {tau0,...,sigma^{j-1} tau0}|}.  Every exponent must come out
    nonnegative; a negative one means the slot bookkeeping broke.
    """
    f = m.f
    b = tuple(
        1 if (m.tau0 - j) % f in m.S else 0 for j in range(1, f)
    )
    x = PeriodMonomial(0, b, 0)
    entries: list[PeriodMonomial | None] = [None] * f
    entries[m.tau0] = x
    current = x
    prefix_hits = 0
    for j in range(1, f):
        current = monomial_frobenius(current)
        if (m.tau0 + j - 1) % f in m.S:
            prefix_hits += 1
        slot_mon = current.times_p(-prefix_hits)
        slot = (m.tau0 + j) % f
        entries[slot] = slot_mon
    for slot, mon in enumerate(entries):
        if mon.a < 0 or any(bj < 0 for bj in mon.b) or mon.c < 0:
            raise InternalNonIntegral(
                f"slot {slot} generator {mon.text()} has a negative exponent"
            )
    return PeriodVector(tuple(entries))


@dataclass(frozen=True)
class PhiCheck:
    eigen_ok: bool
    fil_pattern_ok: bool


def verify_phi_eq_p(m: LTSModel) -> PhiCheck:
    """Symbolic check that the generator satisfies Phi = p and that its
    filtration degrees match membership in S."""
    g = tate_generator(m).entries
    exps = frobenius_matrix(m)
    eigen_ok = all(
        monomial_frobenius(g[t]).times_p(exps[(t + 1) % m.f])
        == g[(t + 1) % m.f].times_p(1)
        for t in range(m.f)
    )
    fil_pattern_ok = all(
        g[t].a == (1 if t in m.S else 0) for t in range(m.f)
    )
    return PhiCheck(eigen_ok=eigen_ok, fil_pattern_ok=fil_pattern_ok)


def generator_valuation(m: LTSModel) -> Fraction:
    """Graded valuation of the tau0-slot generator."""
    _, val = graded_valuation(tate_generator(m).entries[m.tau0], m.p)
    return val


def solution_count_mod_p(m: LTSModel) -> int:
    """Number of mod-p solutions of the Phi = p equation: p^f, valid
    because the generator valuation stays strictly below 1/(p-1)."""
    val = generator_valuation(m)
    if not val < Fraction(1, m.p - 1):
        raise ValuationOverflow(
            f"generator valuation {val} reached 1/(p-1); counting is void"
        )
    return m.p**m.f

