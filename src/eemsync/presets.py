"""Bundled demonstration ensemble: ten commercial cesium clocks.

Noise intensities and pairwise measurement-noise levels measured on a
ten-clock ensemble, written as the decimals the bundled scenario configs
hold, so ``demo_ensemble()`` is every bundled config's model bit for bit.
"""

from __future__ import annotations

import numpy as np

from .models import EnsembleModel, NoiseParams, build_ensemble, star_measurement

# white FM intensity per clock, 1/sqrt(s)
DEMO_SIGMA1 = np.array(
    [1.7e-10, 8.86e-11, 1.221e-10, 1.273e-10, 2.185e-10, 1.063e-10, 1.805e-10, 2.168e-10, 9.3e-11, 1.801e-10]
)

# random-walk FM intensity per clock, 1/sqrt(s^3)
DEMO_SIGMA2 = np.array(
    [1.507e-13, 5.32e-14, 1.67e-14, 7.71e-14, 2.94e-13, 4.92e-14, 4.07e-14, 8.29e-14, 5.2e-14, 5.66e-14]
)

# measurement-noise standard deviation of each difference measurement
# (clock i vs clock 10, star topology), seconds
DEMO_MEAS_STD = np.array(
    [4.353e-15, 7.59e-16, 4.72e-15, 1.166e-15, 4.148e-15, 8.85e-16, 9.98e-16, 2.453e-15, 3.73e-16]
)

# default controller settings for the demonstration scenarios
DEFAULT_OBS_GAIN_COEFFS = (0.1, 1.0)         # F_o = [c1/tau, c2] kron I_{N-1}
DEFAULT_COLLECTIVE_GAIN_COEFFS = (0.01, 1.0)  # K_bo = [c1/(m*tau), c2]
DEFAULT_COLLECTIVE_PERIOD = 200


def demo_noise_params() -> list[NoiseParams]:
    """Per-clock NoiseParams for the bundled ten-clock ensemble."""
    return [NoiseParams(s1, s2) for s1, s2 in zip(DEMO_SIGMA1, DEMO_SIGMA2)]


def demo_ensemble(tau: float = 1.0, n_clocks: int | None = None) -> EnsembleModel:
    """Build the bundled ensemble (star measurement against clock N).

    n_clocks selects a leading subset; the measurement noise of pair
    (i, N) keeps clock i's bundled level.
    """
    params = demo_noise_params()
    stds = DEMO_MEAS_STD.copy()
    if n_clocks is not None:
        if not 2 <= n_clocks <= len(params):
            raise ValueError(f"n_clocks must be in [2, {len(params)}], got {n_clocks}")
        params = params[:n_clocks]
        stds = stds[: n_clocks - 1]
    N = len(params)
    V = star_measurement(N)
    R = np.diag(stds ** 2)
    return build_ensemble(params, V, R, tau)
