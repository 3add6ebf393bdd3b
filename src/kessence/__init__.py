"""Pure-kinetic k-essence toolkit: equation of state, wall profiles,
homogeneous evolution, and regime classification."""

from .errors import (
    KessenceError,
    SingularMassMatrix,
    StepFailure,
    FitDomain,
    ConfigError,
)
from .model import (
    KineticModel,
    ConstantPotential,
    QuadraticPotential,
    PotentialSpec,
    ScalingSolution,
    eval_F,
    eval_F_X,
    eval_F_XX,
    pressure,
    density,
    eos_w,
    sound_speed,
    sound_speed_perturbed,
    w_perturbed_exact,
    w_thinwall_approx,
    cs2_thinwall_approx,
    scaling_cs2_of_a,
    classify_regimes,
    guarded_div,
)
from .walls import (
    WallProfile,
    ProfileSample,
    SharpnessReport,
    DerivativeCheck,
    sample,
    default_grid,
    sharpness,
    sample_sharpness,
    check_derivative,
)
from .evolution import (
    DeSitter,
    PowerLaw,
    BackgroundSpec,
    FieldState,
    StepControl,
    Trajectory,
    initial_state,
    evolve_full,
    evolve_kinetic_only,
    fit_scaling,
    scaling_slope,
)

__version__ = "0.1.0"
