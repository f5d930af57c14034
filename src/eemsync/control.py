"""Ensemble-mean synchronization control.

The controller closes the loop around the stationary decomposed
observer: synchronization feedback acts on the observable (relative)
states every step, while an intermittent collective input nudges the
unobservable ensemble mean without disturbing any relative state.
``EemPolicy`` runs that loop one measurement at a time inside the
simulator; ``closed_loop`` runs the same loop on stationary gains as one
linear recursion over plant and observer together.  The
synchronization destination is the free-running weighted-mean process,
co-simulated on the recorded noise so that errors are measured against
the destination the ensemble actually carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple, Union

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
from .simkit import NoiseSampler, TrajectoryRecord

__all__ = [
    "ControllerConfig",
    "EemPolicy",
    "check_obs_gain",
    "check_collective_gain",
    "closed_loop",
    "default_obs_gain",
    "default_collective_gain",
    "destination_trajectory",
    "sync_error",
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


# steps per block of the fused recursion: bounds its work array, not the result
_LOOP_BLOCK = 4096


def closed_loop(
    model: EnsembleModel,
    cfg: ControllerConfig,
    d: Decomposition,
    gains: StationaryGains,
    T: int,
    seed: int,
) -> Tuple[TrajectoryRecord, np.ndarray, np.ndarray]:
    """The stationary-gain loop of ``simulate(model, EemPolicy(cfg, d,
    gains=gains), T, seed)``, run as one state-space recursion.

    With the gains frozen, plant and observer together are linear in
    z[k] = [xi_o_hat[k], xi_obar_hat[k], xi_o[k], xi_obar[k]]: the priors
    that command k acts on, then the plant state in the same decomposed
    coordinates (xi = T x).  From z[0] = 0, on the noise ``simulate``
    draws for ``seed``,

        z[k+1] = M z[k] + [Ao H_o w[k]; A H_bo w[k]; T v[k]],

    and in balanced mode the steps with (k - phase) % m == 0 add the
    collective feedback to M.  For a weight basis q' Vplus = 0, so the
    synchronization input drives only the relative states and the mean
    moves by v and the kicks alone; the observer reads the relative
    phases y - w directly instead of as differences of large phases.
    Afterwards x = Tinv xi, y, the commands and u = Vplus omega_o +
    1 omega_obar are formed in blocks; a clock whose row of Vplus is zero
    (the steering weight's) gets an input of exactly 0.0.  Agrees with
    the policy loop up to rounding.

    Returns the record (``h`` is a view of ``x``) and the command logs
    (omega_o, omega_obar), as ``EemPolicy.command_log`` gives them.
    """
    if d.q is None:
        raise ValueError("the controller requires a weight-basis decomposition")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    N = model.N
    n2 = 2 * N
    # z[:n2] holds the estimates, z[n2:] the state, each as (xi_o, xi_obar)
    obs_hat, obar_hat = slice(0, n2 - 2), slice(n2 - 2, n2)
    obs, obar = slice(n2, 2 * n2 - 2), slice(2 * n2 - 2, 2 * n2)
    sampler = NoiseSampler(model, seed)
    v = sampler.process_block(T)
    w = sampler.measurement_block(T)

    H_o, H_bo = gains.H_o_star, gains.H_bo_star
    M = np.zeros((2 * n2, 2 * n2))
    M[obs_hat, obs_hat] = d.Ao @ (np.eye(n2 - 2) - H_o @ d.Co) - d.Bo @ cfg.F_o
    M[obs_hat, obs] = d.Ao @ H_o @ d.Co
    M[obar_hat, obs_hat] = -(d.A @ H_bo @ d.Co)
    M[obar_hat, obar_hat] = d.A
    M[obar_hat, obs] = d.A @ H_bo @ d.Co
    M[obs, obs_hat] = -(d.Bo @ cfg.F_o)
    M[obs, obs] = d.Ao
    M[obar, obar] = d.A
    M_kick = M.copy()
    kicks = np.zeros(T, dtype=bool)
    if cfg.mode == "balanced":
        M_kick[obar_hat, obar_hat] -= np.outer(d.B, cfg.K_bo)
        M_kick[obar, obar_hat] = -np.outer(d.B, cfg.K_bo)
        kicks[cfg.phase % cfg.m :: cfg.m] = True
    # rows of Z are states, so one step is z[k+1]^T += z[k]^T M^T
    M_T, M_kick_T = M.T.copy(), M_kick.T.copy()
    w_gain = np.vstack([d.Ao @ H_o, d.A @ H_bo]).T

    x = np.empty((T + 1, n2))
    x[0] = 0.0
    y = np.empty((T, N - 1))
    omega_o = np.empty((T, N - 1))
    omega_obar = np.zeros(T)
    Z = np.empty((min(T, _LOOP_BLOCK) + 1, 2 * n2))
    Z[0] = 0.0
    rows = list(Z)
    for k0 in range(0, T, _LOOP_BLOCK):
        n = min(_LOOP_BLOCK, T - k0)
        Z[1 : n + 1, :n2] = w[k0 : k0 + n] @ w_gain
        Z[1 : n + 1, n2:] = v[k0 : k0 + n] @ d.T.T
        for prev, nxt, kick in zip(rows[:n], rows[1 : n + 1], kicks[k0 : k0 + n].tolist()):
            nxt += prev @ (M_kick_T if kick else M_T)
        x[k0 + 1 : k0 + n + 1] = Z[1 : n + 1, n2:] @ d.Tinv.T
        y[k0 : k0 + n] = Z[:n, obs] @ d.Co.T + w[k0 : k0 + n]
        omega_o[k0 : k0 + n] = -(Z[:n, obs_hat] @ cfg.F_o.T)
        at = np.flatnonzero(kicks[k0 : k0 + n])
        if at.size:
            omega_obar[k0 + at] = -(Z[at, obar_hat] @ cfg.K_bo[0])
        Z[0] = Z[n]

    u = omega_o @ d.Vplus.T + omega_obar[:, None]
    record = TrajectoryRecord(tau=model.tau, x=x, h=x[:, :N], y=y, u=u)
    return record, omega_o, omega_obar


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

