"""Ensemble-mean synchronization control.

The controller closes the loop around the stationary decomposed
observer: synchronization feedback acts on the observable (relative)
states every step, while an intermittent collective input nudges the
unobservable ensemble mean without disturbing any relative state.
``EemPolicy`` runs that loop one measurement at a time inside the
simulator; ``closed_loop`` runs the same loop on stationary gains as one
linear recursion over plant and observer together.  The
synchronization destination is the free-running weighted-mean process,
driven by the very process noise the loop draws, so that errors are
measured against the destination the ensemble actually carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

# perfbench/child.py wraps determinate_kf_step and reconstruct_state as
# attributes of this module
from .decomp import Decomposition, expand_input, reconstruct_state, weight_vector  # noqa: F401
from .errors import ConfigError
from .filters import (  # noqa: F401
    DeterminateKFState,
    StationaryGains,
    determinate_kf_init,
    determinate_kf_step,
    stationary_kf_step,
)
from .models import EnsembleModel
from .presets import DEFAULT_COLLECTIVE_GAIN_COEFFS, DEFAULT_OBS_GAIN_COEFFS
from .simkit import BLOCK, NoiseSampler, TrajectoryRecord, _free_run, _spans

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


def default_obs_gain(N: int, tau: float, coeffs=DEFAULT_OBS_GAIN_COEFFS) -> np.ndarray:
    """Per-clock deadbeat-damped feedback [c1/tau, c2] on each relative state."""
    return np.kron(np.array([[coeffs[0] / tau, coeffs[1]]]), np.eye(N - 1))


def default_collective_gain(m: int, tau: float, coeffs=DEFAULT_COLLECTIVE_GAIN_COEFFS) -> np.ndarray:
    """Collective feedback [c1/(m tau), c2] acting once per period."""
    return np.array([[coeffs[0] / (m * tau), coeffs[1]]])


def _closed_loop_radius(step: float, K: np.ndarray, n: int) -> float:
    """Spectral radius of A - B K for n clocks advanced by ``step`` (A and B
    of the clock model, kron I_n); inf when that loop is not finite."""
    eye = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        loop = np.kron([[1.0, step], [0.0, 1.0]], eye) - np.kron([[step], [1.0]], eye) @ K
    if not np.isfinite(loop).all():
        return float("inf")
    return float(np.max(np.abs(np.linalg.eigvals(loop))))


def check_obs_gain(F_o: np.ndarray, N: int, tau: float) -> float:
    """Spectral radius of the observable closed loop Ao - Bo F_o."""
    F_o = np.asarray(F_o, dtype=float)
    n_obs = 2 * (N - 1)
    if F_o.shape != (N - 1, n_obs):
        raise ValueError(f"F_o must have shape ({N - 1}, {n_obs}), got {F_o.shape}")
    return _closed_loop_radius(tau, F_o, N - 1)


def check_collective_gain(K_bo: np.ndarray, m: int, tau: float) -> float:
    """Spectral radius of the collective loop sampled at interval m tau.

    Between kicks the mean free-runs, so the relevant pair is the
    transition and input matrices of the m-step sampled system.
    """
    K = np.asarray(K_bo, dtype=float).reshape(1, 2)
    if m < 1:
        raise ValueError(f"period must be >= 1, got {m}")
    return _closed_loop_radius(m * tau, K, 1)


def _whole(value) -> Optional[int]:
    """``value`` as an int when it is a finite whole number, else None."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, weight, and schedule for the closed loop.

    ``K_bo`` is the collective gain on the ensemble mean: with it the loop
    is balanced and kicks the mean at the steps k with
    (k - phase) % m == 0; ``None`` only synchronizes.  Every problem with
    F_o's shape, K_bo (2 numbers), m (an integer >= 1), phase (an
    integer) or tau (finite, > 0) is reported in one :class:`ConfigError`.
    ``validate=False`` skips the spectral checks; the destabilized runs
    used to exercise the instability direction of the synchronization
    theorem need it.
    """

    q: np.ndarray
    F_o: np.ndarray
    K_bo: Optional[np.ndarray]
    m: int
    tau: float = 1.0
    phase: int = 0
    validate: bool = True

    def __post_init__(self):
        qv = weight_vector(self.q)
        N = qv.size
        object.__setattr__(self, "q", qv)
        F_o = np.asarray(self.F_o, dtype=float)
        problems: List[str] = []
        if F_o.shape != (N - 1, 2 * (N - 1)):
            problems.append(
                f"F_o must have shape ({N - 1}, {2 * (N - 1)}), got {F_o.shape}"
            )
        object.__setattr__(self, "F_o", F_o)
        m, phase = _whole(self.m), _whole(self.phase)
        if m is None or m < 1:
            problems.append(f"period m must be an integer >= 1, got {self.m!r}")
        else:
            object.__setattr__(self, "m", m)
        if phase is None:
            problems.append(f"phase must be an integer, got {self.phase!r}")
        else:
            object.__setattr__(self, "phase", phase)
        if not (np.isfinite(self.tau) and self.tau > 0):
            problems.append(f"tau must be finite and > 0, got {self.tau!r}")
        if self.K_bo is not None:
            try:
                K_bo = np.asarray(self.K_bo, dtype=float)
            except (TypeError, ValueError):
                K_bo = None
            if K_bo is None or K_bo.size != 2:
                problems.append(f"K_bo must hold 2 numbers, got {self.K_bo!r}")
            else:
                object.__setattr__(self, "K_bo", K_bo.reshape(1, 2))
        if problems:
            raise ConfigError(problems)
        if self.validate:
            rho_o = check_obs_gain(self.F_o, N, self.tau)
            if rho_o >= 1.0:
                raise ConfigError(
                    [f"observable closed loop is not contractive (rho = {rho_o:.6f})"]
                )
            if self.K_bo is not None:
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

    Each call runs one step of the stationary filter on the precomputed
    ``gains``: it predicts with the previous command and updates with
    y[k].  The command then comes from that prior estimate, which
    ``state`` holds after the call.  Every command is logged.
    """

    def __init__(self, cfg: ControllerConfig, d: Decomposition, gains: StationaryGains):
        if d.q is None:
            raise ValueError("the controller requires a weight-basis decomposition")
        self.cfg = cfg
        self.d = d
        self.gains = gains
        self.omega_o_log: List[np.ndarray] = []
        self.omega_obar_log: List[float] = []
        self.state: DeterminateKFState = determinate_kf_init(d)
        self._last_omega = (np.zeros(d.N - 1), 0.0)

    def __call__(self, k: int, y: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        self.state = stationary_kf_step(self.d, self.gains, self.state, self._last_omega, y)
        prior_o, prior_obar = self.state.xi_o_hat, self.state.xi_obar_hat
        omega_o = -(cfg.F_o @ prior_o)
        if cfg.K_bo is not None and (k - cfg.phase) % cfg.m == 0:
            omega_obar = float(-(cfg.K_bo @ prior_obar)[0])
        else:
            omega_obar = 0.0
        self._last_omega = (omega_o, omega_obar)
        self.omega_o_log.append(omega_o)
        self.omega_obar_log.append(omega_obar)
        return expand_input(omega_o, omega_obar, self.d)

    def command_log(self) -> tuple:
        return np.asarray(self.omega_o_log), np.asarray(self.omega_obar_log)


def closed_loop(
    model: EnsembleModel,
    cfg: ControllerConfig,
    d: Decomposition,
    gains: StationaryGains,
    T: int,
    seed: int,
    weights: Sequence[np.ndarray] = (),
) -> Tuple[TrajectoryRecord, np.ndarray, np.ndarray, List[np.ndarray]]:
    """The loop of ``simulate(model, EemPolicy(cfg, d, gains), T, seed)``,
    run as one state-space recursion.

    With the gains frozen, plant and observer together are linear in
    z[k] = [xi_o_hat[k], xi_obar_hat[k], xi_o[k], xi_obar[k]]: the priors
    that command k acts on, then the plant state in the same decomposed
    coordinates (xi = T x).  From z[0] = 0, on the noise ``simulate``
    draws for ``seed``,

        z[k+1] = M z[k] + [Ao H_o w[k]; A H_bo w[k]; T v[k]],

    and with a collective gain (``cfg.K_bo`` not ``None``) the steps with
    (k - phase) % m == 0 add the collective feedback to M.  For a weight
    basis q' Vplus = 0, so the synchronization input drives only the
    relative states and the mean moves by v and the kicks alone; the
    observer reads the relative phases y - w directly instead of as
    differences of large phases.  The recursion runs in blocks of
    ``BLOCK`` steps, each drawing its own process and measurement noise;
    after each block its x = Tinv xi, y and commands are formed, and its
    process noise is projected on ``weights`` and dropped.  At the end
    u = Vplus omega_o + 1 omega_obar; a clock whose row of Vplus is zero
    (the steering weight's) gets an input of exactly 0.0.  Agrees with the
    policy loop up to rounding.

    Returns the record (``h`` is a view of ``x``; ``v`` is ``None``), the
    command logs (omega_o, omega_obar), as ``EemPolicy.command_log`` gives
    them, and for each of ``weights`` its destination, shape (T+1, 2):
    bit for bit ``destination_trajectory(model, q, T, seed)``.
    """
    if d.q is None:
        raise ValueError("the controller requires a weight-basis decomposition")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    N = model.N
    n2 = 2 * N
    Q = np.array([weight_vector(q, N) for q in weights]).reshape(-1, N)
    # z[:n2] holds the estimates, z[n2:] the state, each as (xi_o, xi_obar)
    obs_hat, obar_hat = slice(0, n2 - 2), slice(n2 - 2, n2)
    obs, obar = slice(n2, 2 * n2 - 2), slice(2 * n2 - 2, 2 * n2)
    sampler = NoiseSampler(model, seed)

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
    if cfg.K_bo is not None:
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

    def run():
        # the recursion, block by block; yields each block's process noise
        # projected on the weights, which the destinations' free run sums
        Z = np.empty((min(T, BLOCK) + 1, 2 * n2))
        Z[0] = 0.0
        rows = list(Z)
        for k0, k1 in _spans(T):
            n = k1 - k0
            v = sampler.process_block(n)
            w = sampler.measurement_block(n)
            Z[1 : n + 1, :n2] = w @ w_gain
            Z[1 : n + 1, n2:] = v @ d.T.T
            for prev, nxt, kick in zip(rows[:n], rows[1 : n + 1], kicks[k0:k1].tolist()):
                nxt += prev @ (M_kick_T if kick else M_T)
            x[k0 + 1 : k1 + 1] = Z[1 : n + 1, n2:] @ d.Tinv.T
            y[k0:k1] = Z[:n, obs] @ d.Co.T + w
            omega_o[k0:k1] = -(Z[:n, obs_hat] @ cfg.F_o.T)
            at = np.flatnonzero(kicks[k0:k1])
            if at.size:
                omega_obar[k0 + at] = -(Z[at, obar_hat] @ cfg.K_bo[0])
            Z[0] = Z[n]
            yield _project(v, Q)

    # every destination starts from the zero state, as the loop does
    dest = _free_run(model.tau, run(), np.empty((T + 1, 2 * len(Q))), 0.0, 0.0)
    u = omega_o @ d.Vplus.T
    u += omega_obar[:, None]
    record = TrajectoryRecord(tau=model.tau, x=x, y=y, u=u)
    return record, omega_o, omega_obar, [dest[:, j :: len(Q)] for j in range(len(Q))]


def _project(v: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The process noise v, shape (b, 2N), projected on each weight (row)
    of Q: shape (b, 2W), the W weighted-mean phase noises, then the W
    frequency noises, as :func:`_free_run` takes W clocks."""
    N, W = Q.shape[1], Q.shape[0]
    out = np.empty((len(v), 2 * W))
    for j, q in enumerate(Q):
        out[:, j] = v[:, :N] @ q
        out[:, W + j] = v[:, N:] @ q
    return out


def destination_trajectory(
    model: EnsembleModel,
    q: np.ndarray,
    T: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Free-running weighted-mean states r[0..T], shape (T+1, 2).

    Replays the process-noise sub-stream of ``seed``, one block of
    ``BLOCK`` rows at a time, projecting each block on q as
    :func:`closed_loop` does; so a simulation run with the same seed
    shares its noise with the destination exactly, and
    ``closed_loop(..., weights=[q])`` returns this destination bit for
    bit.  The measurement sub-stream is untouched.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    qv = weight_vector(q, model.N)
    N = model.N
    if x0 is None:
        r0 = (0.0, 0.0)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (2 * N,):
            raise ValueError(f"x0 must have shape ({2 * N},), got {x0.shape}")
        r0 = (x0[:N] @ qv, x0[N:] @ qv)
    sampler = NoiseSampler(model, seed)
    noise = (_project(sampler.process_block(k1 - k0), qv[None]) for k0, k1 in _spans(T))
    return _free_run(model.tau, noise, np.empty((T + 1, 2)), *r0)


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

