"""Rank-one cutting-and-stacking transformations.

Construct transformations from their defining parameters, realize them
as finite towers with correlation error estimates (|n|/L_K plus a
probed tail), fit weak limits of powers, test p/q-similarity evidence
of disjointness, and run Mobius-independence experiments including the
exact telescoping identities of the prime-extension argument.
"""

from .construction import (
    ClassKind,
    ClassLabel,
    ConstructionParams,
    StageParams,
    bounded_profile,
    chacon,
    class4,
    classify,
    column_offsets,
    cyclic_factor_preset,
    eigenvalue_order,
    flat3,
    flatness,
    heights,
    odometer,
    preset,
    return_times,
)
from .errors import (
    ConfigError,
    ConsistencyFailure,
    DepthTooShallow,
    NotBounded,
    OdometerCase,
    RankOneError,
    StageUnavailable,
)
from .limits import (
    DisjointnessVerdict,
    LimitPolynomial,
    SimilarityVerdict,
    Verdict,
    WeakLimitResult,
    auto_ref_stage,
    disjointness_certificate,
    divisibility_cascade,
    fit_for_shift,
    fit_limit_polynomial,
    flatness_consequence,
    is_pq_similar,
    weak_limit,
)
from .mobius import mobius_direct, sieve_mobius
from .sarnak import (
    Observable,
    compact_factor,
    mobius_weighted_sum,
    prime_extension_report,
    telescope_identity_check,
)
from .tower import (
    CorrelationMatrix,
    build_labels,
    correlation_depths,
    correlation_matrices,
    correlation_matrix,
    level_measures,
    orbit_labels,
    tail_bound,
)

__version__ = "0.1.0"
