"""Randomized planar gathering with backward-looking binary sensors:
seed-reproducible simulators for the discrete jump and continuous blind-zone
processes, plus closed-form convergence bounds and a sweep harness."""

from .bounds import (
    BoundsReport,
    compute_bounds,
    expected_time_bound,
    move_probability_bound,
    sharpest_angle_bound,
    shrink,
    shrink_min,
    shrink_partials,
    step_min,
    theta_gamma,
)
from .continuous import (
    ContinuousConfig,
    LyapunovState,
    check_lyapunov_monotone,
    check_separation_band,
    continuous_interval,
    lyapunov_value,
    run_continuous,
)
from .discrete import DiscreteConfig, discrete_step, run_discrete
from .geometry import (
    Disc,
    Hull,
    Vec2,
    convex_hull,
    corner_angles,
    min_enclosing_disc,
)
from .harness import FitResult, SweepConfig, fit_sweep, least_squares_fit, run_sweep
from .rng import derive_seed, make_rng
from .state import Constellation, Frame, RunSummary, Trace, draw_headings, init_constellation

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "Constellation",
    "ContinuousConfig",
    "Disc",
    "DiscreteConfig",
    "FitResult",
    "Frame",
    "Hull",
    "LyapunovState",
    "RunSummary",
    "SweepConfig",
    "Trace",
    "Vec2",
    "check_lyapunov_monotone",
    "check_separation_band",
    "compute_bounds",
    "continuous_interval",
    "convex_hull",
    "corner_angles",
    "derive_seed",
    "discrete_step",
    "draw_headings",
    "expected_time_bound",
    "fit_sweep",
    "init_constellation",
    "least_squares_fit",
    "lyapunov_value",
    "make_rng",
    "min_enclosing_disc",
    "move_probability_bound",
    "run_continuous",
    "run_discrete",
    "run_sweep",
    "sharpest_angle_bound",
    "shrink",
    "shrink_min",
    "shrink_partials",
    "step_min",
    "theta_gamma",
]
