"""dickesim: collective-spin state preparation on the Dicke ladder.

Simulates permutation-symmetric N-emitter states under coherent rotations
and spin squeezing, verifies that this gate set generates the full algebra,
computes spherical and (approximate) planar Wigner functions, and searches
for pulse sequences that prepare cat and grid states.
"""

from .core import (
    DickeSpace,
    DimensionMismatchError,
    NormDriftError,
    NotHermitianError,
    QuantumState,
    build_sminus,
    build_splus,
    build_sx,
    build_sy,
    build_sz,
    fidelity,
)
from .gates import (
    DEFAULT_CONVENTIONS,
    Convention,
    GateConventions,
    PulseSequence,
    PulseStep,
    apply_sequence,
    flatten_params,
    propagate,
    unflatten_params,
)
from .targets import (
    TargetKind,
    TargetSpec,
    TruncationError,
    TruncationWarning,
    make_target,
)
from .wigner import (
    PlaneGrid,
    SphereGrid,
    export_grid,
    planar_wigner,
    spherical_wigner,
)
from .algebra import (
    ClosureReport,
    lie_closure,
    multipole_closure,
    oscillator_counterexample,
    synthesis_by_powers,
    trotter_commutator,
    trotter_commutator_error,
    trotter_sum,
    trotter_sum_error,
)
from .optimizer import (
    OptimizationRun,
    OptimizerConfig,
    grown_search,
    nelder_mead,
    random_restart_search,
)

__version__ = "0.1.0"
