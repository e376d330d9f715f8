"""First-passage random-walk measurement statistics and Bell correlations.

The walk engine reduces a normalized amplitude vector to a single outcome by
an unbiased first-passage walk on the squared-amplitude simplex, reproducing
the |a_i|^2 outcome frequencies.  The analytic module provides the diffusion
closed forms used as oracles.  The bell module hosts the quantum reference,
the deterministic sign model and the detector-image hidden-variable model,
with CHSH and three-setting inequality evaluators.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analytic import (
    DiffusionParams,
    absorption_flux_residual,
    absorption_probs,
    absorption_probs_chain,
    greens_tilde,
    mean_exit_time,
)
from .bell import (
    C1,
    CorrelationEstimate,
    DetectorSetting,
    ImageEventBatch,
    InequalityReport,
    ModelConstants,
    bell64,
    bell_sign_correlation,
    chsh,
    correlation_estimate,
    estimate_from_events,
    image_correlation_analytic,
    image_correlation_event,
    overlap_integral,
    quantum_correlation,
    sample_image_events,
    solve_c2,
)
from .errors import (
    AllZeroError,
    CollapseWalkError,
    DegenerateGridError,
    MaxStepsExceededError,
    NoRealRootError,
    NumericOverflowError,
    RejectionStallError,
    TooFewStatesError,
    UsageError,
)
from .states import JointState, QuantumState, form_joint, normalize, parse_amplitudes
from .walk import (
    BornStatistics,
    WalkConfig,
    WalkOutcome,
    born_statistics,
    quantize_weights,
    run_walk,
    trial_rng,
)

# The imports above also bind the submodules (bell, walk, ...); leave them out.
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)
