"""Numerical checks for positivity of matrix semigroups and their generators.

The package evaluates the classical equivalent characterizations of positive
one-parameter semigroups on M(n, C) -- semigroup-level, resolvent-level and
generator-level -- against each other on concrete instances, treating the
equivalences themselves as test oracles.
"""

from .config import DEFAULT_TOLERANCES, RunConfig, subseed
from .criteria import (
    CONDITION_IDS,
    ConditionResult,
    ProbeSet,
    Theorem1Report,
    Theorem2Report,
    check_condition,
    corollary1_check,
    dissipation,
    laplace_dissipation,
    theorem1_report,
    theorem2_check,
)
from .duality import (
    DensityMatrix,
    TracePreservationReport,
    as_density,
    pairing,
    predual_evolve,
    predual_generator,
    purity,
    trace_preservation_check,
    trajectory_records,
)
from .errors import (
    ConsistencyError,
    DecayFailureError,
    DimensionMismatch,
    HypothesisViolation,
    PropagatorOverflow,
    ResolventPoleError,
    SchemaError,
)
from .instances import (
    FAMILIES,
    InstanceRecipe,
    build,
    dephasing,
    flip_nonpositive,
    lindblad,
    random_density,
    random_hermitian,
    random_lindblad,
    random_unitary,
    transpose_conjugated,
    transpose_mixing,
)
from .matrixcore import (
    CMatrix,
    ElementFlags,
    classify_element,
    hermitian_part,
    mat_exp,
    spectral_norm,
)
from .semigroup import (
    GENERATOR_KINDS,
    GeneratorSpec,
    SemigroupHandle,
    build_superoperator,
    decay_horizon,
    euler_product,
    evolve,
    lambda_grid,
    laplace_resolvent,
    resolvent,
    spectral_abscissa,
    yosida_generator,
    yosida_semigroup,
)
from .superop import (
    CERTIFIED_CONTRACTION,
    CERTIFIED_POSITIVE,
    NO_VIOLATION_FOUND,
    VIOLATED,
    CPCheck,
    ConeVerdict,
    ContractionVerdict,
    MapCheck,
    Superoperator,
    apply,
    choi_matrix,
    compose,
    conjugation,
    contraction_check,
    cp_check,
    devec,
    from_function,
    hs_adjoint,
    identity_superop,
    is_symmetric_map,
    is_unital,
    positivity_check,
    positivity_checks,
    sandwich,
    transpose_map,
    vec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
