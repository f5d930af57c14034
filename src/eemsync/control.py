"""Ensemble-mean synchronization control.

The controller closes the loop around the stationary decomposed
observer: synchronization feedback acts on the observable (relative)
states every step, while an intermittent collective input nudges the
unobservable ensemble mean without disturbing any relative state.  The
synchronization destination is the free-running weighted-mean process,
co-simulated on the recorded noise so that errors are measured against
the destination the ensemble actually carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Union

import numpy as np

from .decomp import Decomposition, EnsembleWeight, expand_input, reconstruct_state, weight_vector
from .errors import ConfigError
from .filters import (
    DeterminateKFState,
    StationaryGains,
    determinate_kf_init,
    determinate_kf_step,
    stationary_kf_step,
)
from .models import EnsembleModel
from .simkit import NoiseSampler

__all__ = [
    "ControllerConfig",
    "EemPolicy",
    "check_obs_gain",
    "check_collective_gain",
    "default_obs_gain",
    "default_collective_gain",
    "destination_trajectory",
    "sync_error",
    "write_command_log_csv",
]

MODES = ("sync-only", "balanced")


def default_obs_gain(N: int, tau: float, coeffs=(0.1, 1.0)) -> np.ndarray:
    """Per-clock deadbeat-damped feedback [c1/tau, c2] on each relative state."""
    return np.kron(np.array([[coeffs[0] / tau, coeffs[1]]]), np.eye(N - 1))


def default_collective_gain(m: int, tau: float, coeffs=(0.01, 1.0)) -> np.ndarray:
    """Collective feedback [c1/(m tau), c2] acting once per period."""
    return np.array([[coeffs[0] / (m * tau), coeffs[1]]])


def check_obs_gain(F_o: np.ndarray, N: int, tau: float) -> float:
    """Spectral radius of the observable closed loop Ao - Bo F_o."""
    F_o = np.asarray(F_o, dtype=float)
    n_obs = 2 * (N - 1)
    if F_o.shape != (N - 1, n_obs):
        raise ValueError(f"F_o must have shape ({N - 1}, {n_obs}), got {F_o.shape}")
    A = np.array([[1.0, tau], [0.0, 1.0]])
    B = np.array([tau, 1.0])
    Ao = np.kron(A, np.eye(N - 1))
    Bo = np.kron(B.reshape(2, 1), np.eye(N - 1))
    return float(np.max(np.abs(np.linalg.eigvals(Ao - Bo @ F_o))))


def check_collective_gain(K_bo: np.ndarray, m: int, tau: float) -> float:
    """Spectral radius of the collective loop sampled at interval m tau.

    Between kicks the mean free-runs, so the relevant pair is the
    transition and input matrices of the m-step sampled system.
    """
    K = np.asarray(K_bo, dtype=float).reshape(1, 2)
    if m < 1:
        raise ValueError(f"period must be >= 1, got {m}")
    Am = np.array([[1.0, m * tau], [0.0, 1.0]])
    Bm = np.array([[m * tau], [1.0]])
    return float(np.max(np.abs(np.linalg.eigvals(Am - Bm @ K))))


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, weight, and schedule for the closed loop.

    ``validate=False`` skips the spectral checks; the destabilized runs
    used to exercise the instability direction of the synchronization
    theorem need it.
    """

    q: np.ndarray
    F_o: np.ndarray
    K_bo: Optional[np.ndarray]
    m: int
    mode: str
    tau: float = 1.0
    phase: int = 0
    validate: bool = True

    def __post_init__(self):
        qv = weight_vector(self.q)
        N = qv.size
        object.__setattr__(self, "q", qv)
        F_o = np.asarray(self.F_o, dtype=float)
        problems: List[str] = []
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if F_o.shape != (N - 1, 2 * (N - 1)):
            problems.append(
                f"F_o must have shape ({N - 1}, {2 * (N - 1)}), got {F_o.shape}"
            )
        object.__setattr__(self, "F_o", F_o)
        if int(self.m) != self.m or self.m < 1:
            problems.append(f"period m must be an integer >= 1, got {self.m!r}")
        else:
            object.__setattr__(self, "m", int(self.m))
        if self.tau <= 0:
            problems.append(f"tau must be positive, got {self.tau}")
        if self.K_bo is not None:
            object.__setattr__(self, "K_bo", np.asarray(self.K_bo, dtype=float).reshape(1, 2))
        if self.mode == "balanced" and self.K_bo is None:
            problems.append("balanced mode requires a collective gain K_bo")
        if problems:
            raise ConfigError(problems)
        if self.validate and not problems:
            rho_o = check_obs_gain(self.F_o, N, self.tau)
            if rho_o >= 1.0:
                raise ConfigError(
                    [f"observable closed loop is not contractive (rho = {rho_o:.6f})"]
                )
            if self.mode == "balanced":
                rho_c = check_collective_gain(self.K_bo, self.m, self.tau)
                if rho_c >= 1.0:
                    raise ConfigError(
                        [f"collective closed loop is not contractive (rho = {rho_c:.6f})"]
                    )

    @property
    def N(self) -> int:
        return self.q.size


class EemPolicy:
    """Measurement-feedback policy for the simulator loop.

    Each call runs one observer step (the stationary filter on the
    precomputed gains, or the full time-varying decomposed filter on R):
    it predicts with the previous command and updates with y[k].  The
    command then comes from that prior estimate, so ``estimates[k]``
    (kept when ``record_estimates`` is set) is the reconstructed prior
    that command k acted on.  Every command is logged.
    """

    def __init__(
        self,
        cfg: ControllerConfig,
        d: Decomposition,
        gains: Optional[StationaryGains] = None,
        R: Optional[np.ndarray] = None,
        record_estimates: bool = False,
    ):
        if d.q is None:
            raise ValueError("the controller requires a weight-basis decomposition")
        if gains is None and R is None:
            raise ValueError("provide stationary gains or R for the time-varying filter")
        self.cfg = cfg
        self.d = d
        self.record_estimates = record_estimates
        self.omega_o_log: List[np.ndarray] = []
        self.omega_obar_log: List[float] = []
        self._estimates: List[np.ndarray] = []
        # bound per instance, so a step patched onto this module is picked up
        if gains is not None:
            self._step = partial(stationary_kf_step, d, gains)
        else:
            self._step = partial(determinate_kf_step, d, np.asarray(R, dtype=float))
        self.state: DeterminateKFState = determinate_kf_init(d)
        self._last_omega = (np.zeros(d.N - 1), 0.0)

    def __call__(self, k: int, y: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        self.state = self._step(self.state, self._last_omega, y)
        prior_o, prior_obar = self.state.xi_o_hat, self.state.xi_obar_hat
        omega_o = -(cfg.F_o @ prior_o)
        if cfg.mode == "balanced" and (k - cfg.phase) % cfg.m == 0:
            omega_obar = float(-(cfg.K_bo @ prior_obar)[0])
        else:
            omega_obar = 0.0
        self._last_omega = (omega_o, omega_obar)
        self.omega_o_log.append(omega_o)
        self.omega_obar_log.append(omega_obar)
        if self.record_estimates:
            self._estimates.append(reconstruct_state(prior_o, prior_obar, self.d))
        return expand_input(omega_o, omega_obar, self.d)

    @property
    def estimates(self) -> Optional[np.ndarray]:
        return np.asarray(self._estimates) if self._estimates else None

    def command_log(self) -> tuple:
        return np.asarray(self.omega_o_log), np.asarray(self.omega_obar_log)


def destination_trajectory(
    model: EnsembleModel,
    q: Union[np.ndarray, EnsembleWeight],
    T: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Free-running weighted-mean states r[0..T], shape (T+1, 2).

    Replays the process-noise sub-stream of ``seed``, so a simulation
    run with the same seed shares its noise with the destination
    exactly; the measurement sub-stream is untouched.
    """
    qv = weight_vector(q, model.N)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    N = model.N
    v = NoiseSampler(model, seed).process_block(T)
    v_phase = v[:, :N] @ qv
    v_freq = v[:, N:] @ qv
    if x0 is None:
        r0 = np.zeros(2)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (2 * N,):
            raise ValueError(f"x0 must have shape ({2 * N},), got {x0.shape}")
        r0 = np.array([x0[:N] @ qv, x0[N:] @ qv])

    freq = np.empty(T + 1)
    freq[0] = r0[1]
    np.cumsum(v_freq, out=freq[1:])
    freq[1:] += r0[1]
    phase = np.empty(T + 1)
    phase[0] = r0[0]
    np.cumsum(model.tau * freq[:-1] + v_phase, out=phase[1:])
    phase[1:] += r0[0]
    return np.column_stack([phase, freq])


def sync_error(traj, dest: np.ndarray) -> np.ndarray:
    """Deviation of every clock from the destination: x - (I2 kron 1) r."""
    x = np.asarray(traj.x, dtype=float)
    r = np.asarray(dest, dtype=float)
    if r.ndim != 2 or r.shape[1] != 2:
        raise ValueError(f"destination must have shape (T+1, 2), got {r.shape}")
    if r.shape[0] != x.shape[0]:
        raise ValueError(
            f"trajectory has {x.shape[0]} states but destination has {r.shape[0]}"
        )
    N = x.shape[1] // 2
    delta = np.empty_like(x)
    delta[:, :N] = x[:, :N] - r[:, [0]]
    delta[:, N:] = x[:, N:] - r[:, [1]]
    return delta


def write_command_log_csv(path, omega_o: np.ndarray, omega_obar: np.ndarray, u: np.ndarray) -> None:
    """Command log: k, omega_o_1..omega_o_{N-1}, omega_obar, u_1..u_N."""
    omega_o = np.atleast_2d(np.asarray(omega_o, dtype=float))
    omega_obar = np.asarray(omega_obar, dtype=float).reshape(-1, 1)
    u = np.asarray(u, dtype=float)
    T, n_rel = omega_o.shape
    if omega_obar.shape[0] != T or u.shape[0] != T:
        raise ValueError("command series lengths disagree")
    header = (
        ["k"]
        + [f"omega_o_{i + 1}" for i in range(n_rel)]
        + ["omega_obar"]
        + [f"u_{i + 1}" for i in range(u.shape[1])]
    )
    data = np.column_stack([np.arange(T), omega_o, omega_obar, u])
    np.savetxt(
        path,
        data,
        delimiter=",",
        header=",".join(header),
        comments="",
        fmt=["%d"] + ["%.16e"] * (data.shape[1] - 1),
    )
