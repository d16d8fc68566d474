"""tslattice: nonlinear hypersurface-by-hypersurface dynamics on a qubit chain.

Statevector simulator for a 1+1D brickwork lattice where the quantum state
lives on discrete spacelike hypersurfaces. Supports operator-expectation
nonlinearities (local and deliberately nonlocal variants) and ships the
experiments that probe foliation independence, measurement-driven signaling,
and composed-map structure.
"""

__version__ = "0.1.0"

# The one kernel implementation, named in every report's version line.
KERNEL_BACKEND = "python"

from .dynamics import (
    ModelConfig,
    NonlinearitySpec,
    TrajectoryRecord,
    TrajectoryStep,
    compose_map,
    evolve,
    free_field,
    ts_step,
)
from .quantum_core import (
    DensityMatrix,
    SiteOperator,
    StateVector,
    basis_state,
    bell_pair_state,
    entanglement_entropy,
    expectation,
    plus_state,
    reduced_density,
    state_distance,
    trace_distance,
    zero_state,
)
from .spacetime import (
    Deformation,
    Foliation,
    FoliationError,
    Hypersurface,
    LinkApply,
    NotEnabledError,
    SiteAdvance,
    apply_deformation,
    canonical_foliation,
    count_foliations,
    enabled_deformations,
    foliation_from_text,
    foliation_length,
    foliation_to_text,
    initial_surface,
    random_foliation,
    validate_foliation,
)

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    "ModelConfig",
    "NonlinearitySpec",
    "TrajectoryRecord",
    "TrajectoryStep",
    "compose_map",
    "evolve",
    "free_field",
    "ts_step",
    "DensityMatrix",
    "SiteOperator",
    "StateVector",
    "basis_state",
    "bell_pair_state",
    "entanglement_entropy",
    "expectation",
    "plus_state",
    "reduced_density",
    "state_distance",
    "trace_distance",
    "zero_state",
    "Deformation",
    "Foliation",
    "FoliationError",
    "Hypersurface",
    "LinkApply",
    "NotEnabledError",
    "SiteAdvance",
    "apply_deformation",
    "canonical_foliation",
    "count_foliations",
    "enabled_deformations",
    "foliation_from_text",
    "foliation_length",
    "foliation_to_text",
    "initial_surface",
    "random_foliation",
    "validate_foliation",
]
