"""Symbolic exponent algebra of crystalline period monomials.

A monomial is t_O^a * prod_{j=1}^{f-1} (phi^j(t_O)/p)^{b_j} * p^c with
integer exponents; units are dropped throughout.  Frobenius permutes the
factors cyclically, turning t_O into p * (phi(t_O)/p) and phi^{f-1}(t_O)/p
back into t_O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import NegativeExponent
from .signature_core import Signature, constants


@dataclass(frozen=True)
class PeriodMonomial:
    a: int
    b: tuple[int, ...]
    c: int = 0

    @property
    def f(self) -> int:
        return len(self.b) + 1

    def times_p(self, k: int) -> "PeriodMonomial":
        return PeriodMonomial(self.a, self.b, self.c + k)

    def text(self) -> str:
        parts = []
        if self.a:
            parts.append(f"t_O^{self.a}")
        for j, bj in enumerate(self.b, start=1):
            if bj:
                parts.append(f"(phi^{j} t_O / p)^{bj}")
        if self.c:
            parts.append(f"p^{self.c}")
        return " * ".join(parts) if parts else "1"


def monomial_frobenius(m: PeriodMonomial) -> PeriodMonomial:
    """One Frobenius step: phi(t_O) = p*(phi(t_O)/p), the b-chain shifts up,
    and phi^{f-1}(t_O)/p closes back to t_O."""
    exps = (m.a, *m.b)
    return PeriodMonomial(exps[-1], exps[:-1], m.c + m.a)


def graded_valuation(m: PeriodMonomial, p: int) -> tuple[int, Fraction]:
    """(filtration degree, valuation) of a monomial with a, b >= 0.

    t_O sits in filtration degree 1 with valuation 1/(p^f - 1); the factor
    phi^j(t_O)/p in degree 0 with valuation p^j/(p^f - 1); p in degree 0
    with valuation 1.
    """
    if m.a < 0 or any(bj < 0 for bj in m.b):
        raise NegativeExponent(
            f"monomial {m.text()} has a negative period exponent"
        )
    num, pj = m.a, 1
    for bj in m.b:
        pj *= p
        num += bj * pj
    denom = pj * p - 1
    return (m.a, Fraction(num + m.c * denom, denom))


def t_monomial(f: int) -> PeriodMonomial:
    """The cyclotomic period t = t_O * prod_j phi^j(t_O)/p."""
    return PeriodMonomial(1, (1,) * (f - 1), 0)


def t_decomposition_check(f: int, p: int) -> bool:
    """The product decomposition of t: valuation 1/(p-1) and phi(t) = p t."""
    t = t_monomial(f)
    _, val = graded_valuation(t, p)
    if val != Fraction(1, p - 1):
        return False
    return monomial_frobenius(t) == t.times_p(1)


@dataclass(frozen=True)
class PeriodVector:
    """One monomial per embedding slot."""

    entries: tuple[PeriodMonomial, ...]


def multiplication_coeff(sig: Signature, tau: int, tau_prime: int) -> PeriodMonomial:
    """Coefficient of the period multiplication map at slot tau'."""
    q = sig.q
    qt = q[tau]
    # the slots sigma^{-j} tau' for j = 0..f-1: tau', tau' - 1, ... mod f
    exps = [qt - qu if qu < qt else 0 for qu in q[tau_prime::-1] + q[:tau_prime:-1]]
    return PeriodMonomial(exps[0], tuple(exps[1:]), 0)


@dataclass(frozen=True)
class MultiplicationMap:
    """Period multiplication map at an embedding with q_tau outside {0, h}.

    Built from (sig, tau).  K_value, the graded valuation of the diagonal
    coefficient, is computed at construction; equality and hash are over
    (sig, tau, K_value).  coeffs and transport_ok are computed on first read
    and then kept: transport replays the equivariance identity
    phi(coeff(tau')) * p^{min(q_tau, q_{tau'})} = coeff(sigma tau') * p^{q_tau}
    on exponent tuples for every slot.
    """

    sig: Signature
    tau: int
    K_value: Fraction = field(init=False)

    def __post_init__(self):
        self.sig.check_nondegenerate(self.tau)
        diagonal = multiplication_coeff(self.sig, self.tau, self.tau)
        object.__setattr__(self, "K_value", graded_valuation(diagonal, self.sig.p)[1])

    @cached_property
    def coeffs(self) -> PeriodVector:
        sig, tau = self.sig, self.tau
        return PeriodVector(
            tuple([multiplication_coeff(sig, tau, u) for u in range(sig.f)])
        )

    @cached_property
    def transport_ok(self) -> bool:
        q, f, tau = self.sig.q, self.sig.f, self.tau
        coeffs = self.coeffs.entries
        return all(
            monomial_frobenius(coeffs[u]).times_p(min(q[tau], q[u]))
            == coeffs[(u + 1) % f].times_p(q[tau])
            for u in range(f)
        )


def multiplication_map(sig: Signature, tau: int) -> MultiplicationMap:
    """The period multiplication map of sig at tau; DegenerateEmbedding when
    q_tau is 0 or h."""
    return MultiplicationMap(sig, tau)


def d_matrix(sig: Signature, tau: int) -> tuple[int, ...]:
    """Diagonal p-exponents of the comparison matrix: block i holds
    min(q_tau, q_{sigma^{i-1} tau}) for the slot sigma^i tau, i = 0..f-1."""
    sig.check_embedding(tau)
    return tuple(
        min(sig.q[tau], sig.q[(tau + i - 1) % sig.f]) for i in range(sig.f)
    )


@dataclass(frozen=True)
class FaltingsMargin:
    value: Fraction
    margin_ok: bool


def faltings_margin(sig: Signature, tau: int) -> FaltingsMargin:
    """Injectivity margin K_tau/p + q_tau/(p(p-1)) + q_tau/p, with the
    predicate that it stays strictly below 1."""
    sig.check_embedding(tau)
    K = constants(sig).K[tau]
    p, qt = sig.p, sig.q[tau]
    value = K / p + Fraction(qt, p * (p - 1)) + Fraction(qt, p)
    return FaltingsMargin(value=value, margin_ok=value < 1)


def mod_p_filp_valuation(sig: Signature, tau: int) -> Fraction:
    """Valuation normalization modulo (p, Fil^p): K_tau/p."""
    sig.check_embedding(tau)
    return constants(sig).K[tau] / sig.p
