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
    dissipation,
    theorem1_report,
    theorem2_check,
)
from .duality import (
    DensityMatrix,
    TracePreservationReport,
    as_density,
    purity,
    trace_preservation_check,
    trajectory_records,
)
from .errors import (
    ConsistencyError,
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
    random_hermitian,
    random_lindblad,
    transpose_conjugated,
    transpose_mixing,
)
from .matrixcore import (
    CMatrix,
    hermitian_part,
    mat_exp,
    spectral_norm,
)
from .semigroup import (
    GENERATOR_KINDS,
    GeneratorSpec,
    SemigroupHandle,
    build_maps,
    build_superoperator,
    euler_product,
    evolve,
    family_maps,
    lambda_grid,
    resolvent,
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
    contraction_check,
    contraction_checks,
    cp_check,
    devec,
    is_symmetric_map,
    is_unital,
    positivity_check,
    positivity_checks,
    transpose_map,
    vec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
