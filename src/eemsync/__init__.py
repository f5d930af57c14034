"""Time-scale generation for measured atomic clock ensembles.

Builds the two-state clock ensemble model, filters it despite the
unobservable ensemble mean (standard, determinate, and stationary Kalman
forms), synchronizes the clocks to an explicit ensemble mean with
observer-based feedback, and evaluates everything through Allan variance.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .allan import (
    AllanPlot,
    allan_pi,
    allan_plot,
    analytical_allan_clock,
    gamma_matrix,
    optimal_weight,
    statistical_allan,
    variance_vector,
    weight_long,
    weight_short,
)
from .control import (
    ControllerConfig,
    EemPolicy,
    check_collective_gain,
    check_obs_gain,
    closed_loop,
    default_collective_gain,
    default_obs_gain,
    destination_trajectory,
    sync_error,
)
from .decomp import (
    Decomposition,
    decompose,
    expand_input,
    generalized_inverse,
    project_state,
    reconstruct_state,
    weight_vector,
)
from .errors import ConfigError, ConvergenceError, NumericalError
from .filters import (
    DeterminateKFState,
    FilterPass,
    StandardKFState,
    StationaryGains,
    determinate_kf_init,
    determinate_kf_step,
    filter_pass,
    solve_stationary,
    standard_kf_init,
    standard_kf_step,
    stationary_kf_step,
    unobservable_covariance_from_observable,
    unobservable_gain_from_observable,
)
from .models import (
    DiscreteClockModel,
    EnsembleModel,
    MeasurementStructure,
    NoiseParams,
    build_ensemble,
    discretize,
    star_measurement,
)
from .presets import (
    DEMO_MEAS_STD,
    DEMO_SIGMA1,
    DEMO_SIGMA2,
    demo_ensemble,
    demo_noise_params,
)
from .scenarios import KINDS, ScenarioConfig, run_scenario, validate_config
from .simkit import (
    NoiseSampler,
    TrajectoryRecord,
    digital_imitation,
    reference_timescale,
    simulate,
)
