"""Exception hierarchy.

Two families: MufiltError covers rejected input (the CLI maps it to exit
code 1), InternalInvariantBreach covers conditions that can only arise from
a bug in the library itself (exit code 2).
"""

from __future__ import annotations


class MufiltError(Exception):
    """Base class for all input validation failures."""


class DegenerateEmbedding(MufiltError):
    """Raised when an operation needs q_tau outside {0, h}."""


class DomainMismatch(MufiltError):
    """Polygon domains do not line up."""


class DimensionMismatch(MufiltError):
    """Descriptor embedding count does not match the weighting."""


class NotALattice(MufiltError):
    """Subobject family without a usable bottom or top element."""


class AdditivityViolation(MufiltError):
    """A chain in the lattice has a quotient with a negative height or a
    negative partial degree."""


class AmbiguousLattice(MufiltError):
    """Two distinct descriptors tie on slope and height during filtration
    selection, so the maximal destabilizing step is not unique."""


class HeightMismatch(MufiltError):
    """Candidate subgroup has the wrong O-height for the requested abscissa."""


class OrderViolation(MufiltError):
    """Containment certificate called with d > c."""


class NegativeExponent(MufiltError):
    """Monomial left the ring: a or some b_j went negative."""


class EnumerationCapExceeded(MufiltError):
    """Split-subgroup enumeration would exceed the configured cap."""

    def __init__(self, cap: int, required: int):
        self.cap = cap
        self.required = required
        super().__init__(
            f"enumeration needs {required} descriptors, cap is {cap}"
        )


class LevelCapExceeded(MufiltError):
    """A report's level loop would exceed the configured cap on the bit
    length of its largest level denominator p^{(n-1)f}."""

    def __init__(self, cap: int, required: int):
        self.cap = cap
        self.required = required
        super().__init__(
            f"the level loop needs p^((n-1)f) of up to {required} bits,"
            f" cap is {cap}"
        )


class DigitCapExceeded(MufiltError):
    """A report could print an integer longer than the interpreter writes
    in decimal: sys.get_int_max_str_digits(), held as a bit length."""

    def __init__(self, cap: int, required: int):
        self.cap = cap
        self.required = required
        super().__init__(
            f"the output needs integers of up to {required} bits, cap is {cap}"
            " (sys.get_int_max_str_digits() decimal digits)"
        )


class WindowViolation(MufiltError):
    """Hasse recursion called outside its validity window.  Carries the
    unconditional fallback lower bound 1 - ha for the quotient invariant."""

    def __init__(self, message: str, fallback_lower_bound):
        self.fallback_lower_bound = fallback_lower_bound
        super().__init__(message)


class HypothesisViolation(MufiltError):
    """Hasse input too large for the duality bookkeeping hypothesis."""


class NotMuOrdinary(MufiltError):
    """Frobenius deformation check requires a zero Hasse input."""


class InternalInvariantBreach(Exception):
    """An identity the library guarantees failed to hold.  Always a bug."""


class InternalNonIntegral(InternalInvariantBreach):
    """A crystal generator slot acquired a negative exponent."""


class ValuationOverflow(InternalInvariantBreach):
    """A generator valuation reached 1/(p-1); the counting argument would
    be void."""
