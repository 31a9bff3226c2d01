"""Exact-arithmetic toolkit for the combinatorics of p-divisible O-modules:
signatures and their invariants, Newton/Hodge/HN polygon calculus, weighted
degree bookkeeping for finite flat subgroup lattices, period monomials,
Lubin-Tate style crystals, and canonical-subgroup degree recursions.

All quantities are held as integers or fractions.Fraction; no floats enter
any computation.
"""

from .canonical_tower import (
    AppendixDetail,
    DeformationCheck,
    DualityBookkeeping,
    PTorsionReport,
    TowerLevel,
    TowerReport,
    appendix_lemma_check,
    appendix_lemma_detail,
    duality_bookkeeping,
    frobenius_deformation_check,
    hasse_recursion,
    ptorsion_report,
    tower_report,
    worst_case,
)
from .errors import (
    AdditivityViolation,
    AmbiguousLattice,
    DegenerateEmbedding,
    DigitCapExceeded,
    DimensionMismatch,
    DomainMismatch,
    EnumerationCapExceeded,
    HeightMismatch,
    HypothesisViolation,
    InternalInvariantBreach,
    InternalNonIntegral,
    LevelCapExceeded,
    MufiltError,
    NegativeExponent,
    NotALattice,
    NotMuOrdinary,
    OrderViolation,
    ValuationOverflow,
    WindowViolation,
)
from .group_models import (
    FiniteOModuleDesc,
    LTProductGroup,
    RaynaudDatum,
    SplitSubgroupDesc,
    enumerate_split_subgroups,
    mu_ord_canonical_filtration,
    mu_ordinary_product,
    raynaud_degrees,
    raynaud_dual,
    raynaud_hodge_tate_coker_degree,
)
from .hn_engine import (
    BreakCertificate,
    DegreeWeighting,
    HNResult,
    bijakowski_containment,
    break_certificate,
    classical_weighting,
    deg_weighted,
    hn_from_lattice,
    hn_rows,
    hn_split,
    tau_weighting,
)
from .lt_crystals import (
    LTSModel,
    PhiCheck,
    frobenius_matrix,
    generator_valuation,
    solution_count_mod_p,
    tate_generator,
    verify_phi_eq_p,
)
from .period_calculus import (
    FaltingsMargin,
    MultiplicationMap,
    PeriodMonomial,
    PeriodVector,
    d_matrix,
    faltings_margin,
    graded_valuation,
    mod_p_filp_valuation,
    monomial_frobenius,
    multiplication_coeff,
    multiplication_map,
    t_decomposition_check,
    t_monomial,
)
from .polygons import (
    Polygon,
    hn_mu_ordinary_tau,
    hodge_polygon,
    renormalize,
    reversed_hodge,
)
from .signature_core import (
    Signature,
    SignatureConstants,
    constants,
    hasse_threshold,
    ladder_index,
    mu_ordinary_decomposition,
    mu_ordinary_ladder,
    prime_admissible,
    threshold_existence,
    threshold_h1,
    threshold_h3,
)

__version__ = "0.1.0"
