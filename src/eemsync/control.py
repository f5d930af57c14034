"""Ensemble-mean synchronization control.

The controller closes the loop around the stationary decomposed
observer: synchronization feedback acts on the observable (relative)
states every step, while an intermittent collective input nudges the
unobservable ensemble mean without disturbing any relative state.
``EemPolicy`` runs that loop one measurement at a time inside the
simulator; ``closed_loop`` runs the same loop on stationary gains as one
linear recursion over plant and observer together; both refuse gains
whose loops do not contract (``loop_radii``), and without feedback what
is left is ``simulate(model, None, ...)``.  The synchronization
destination is the free-running weighted-mean process, driven by the
very process noise the loop draws, so that errors are measured against
the destination the ensemble actually carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# perfbench/child.py wraps determinate_kf_step and reconstruct_state as
# attributes of this module
from .decomp import Decomposition, expand_input, reconstruct_state, weight_vector  # noqa: F401
from .errors import ConfigError
from .filters import (  # noqa: F401
    DeterminateKFState,
    StationaryGains,
    _predict_decomposed,
    determinate_kf_init,
    determinate_kf_step,
)
from .models import EnsembleModel
from .presets import DEFAULT_COLLECTIVE_GAIN_COEFFS, DEFAULT_OBS_GAIN_COEFFS
from .simkit import BLOCK, NoiseSampler, TrajectoryRecord, _free_run, _spans

__all__ = [
    "ControllerConfig",
    "EemPolicy",
    "closed_loop",
    "default_obs_gain",
    "default_collective_gain",
    "destination_trajectory",
    "loop_radii",
    "sync_error",
]


def default_obs_gain(N: int, tau: float, coeffs=DEFAULT_OBS_GAIN_COEFFS) -> np.ndarray:
    """Per-clock deadbeat-damped feedback [c1/tau, c2] on each relative state."""
    return np.kron(np.array([[coeffs[0] / tau, coeffs[1]]]), np.eye(N - 1))


def default_collective_gain(m: int, tau: float, coeffs=DEFAULT_COLLECTIVE_GAIN_COEFFS) -> np.ndarray:
    """Collective feedback [c1/(m tau), c2] acting once per period."""
    return np.array([[coeffs[0] / (m * tau), coeffs[1]]])


def _whole(value) -> Optional[int]:
    """``value`` as an int when it is a finite whole number, else None."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and schedule for the closed loop.

    ``F_o`` is the synchronization gain on the relative states, shape
    (N-1, 2(N-1)).  ``K_bo`` is the collective gain on the ensemble mean:
    with it the loop is balanced and kicks the mean at the steps k with
    (k - phase) % m == 0; ``None`` only synchronizes.  The weight, and
    with it the destination, is the one of the :class:`Decomposition`
    that :func:`closed_loop` and :class:`EemPolicy` take; they refuse
    gains whose loops do not contract at the model's tau.  Every problem
    with F_o's shape, K_bo (2 numbers), m (an integer >= 1) or phase (an
    integer) is reported in one :class:`ConfigError`.
    """

    F_o: np.ndarray
    K_bo: Optional[np.ndarray]
    m: int
    phase: int = 0

    def __post_init__(self):
        F_o = np.asarray(self.F_o, dtype=float)
        problems: List[str] = []
        if F_o.ndim != 2 or F_o.size == 0 or F_o.shape[1] != 2 * F_o.shape[0]:
            problems.append(f"F_o must have shape (n, 2n) with n >= 1, got {F_o.shape}")
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


def loop_radii(cfg: ControllerConfig, A: np.ndarray, B: np.ndarray) -> Dict[str, float]:
    """Spectral radius of each loop ``cfg`` closes around clocks whose
    one-step transition and input are A and B (``model.clock.A`` and
    ``model.clock.B``, the same matrices as ``d.A`` and ``d.B``).

    ``"observable"`` is kron(A, I) - kron(B, I) F_o; with a collective
    gain, ``"collective"`` is the mean's loop sampled once per period,
    A^m - A^(m-1) B K_bo, as the mean free-runs between kicks.  A loop
    that is not finite has radius inf.
    """
    eye = np.eye(len(cfg.F_o))
    with np.errstate(over="ignore", invalid="ignore"):
        loops = {"observable": np.kron(A, eye) - np.kron(B[:, None], eye) @ cfg.F_o}
        if cfg.K_bo is not None:
            A_m1 = np.linalg.matrix_power(A, cfg.m - 1)
            loops["collective"] = A_m1 @ A - np.outer(A_m1 @ B, cfg.K_bo)
    return {
        name: float(np.max(np.abs(np.linalg.eigvals(loop)))) if np.isfinite(loop).all() else float("inf")
        for name, loop in loops.items()
    }


def _check_contractive(cfg: ControllerConfig, A: np.ndarray, B: np.ndarray) -> None:
    """One :class:`ConfigError` naming every loop of :func:`loop_radii`
    whose radius is not below 1."""
    rho = loop_radii(cfg, A, B)
    problems = [f"{name} closed loop is not contractive (rho = {r:.6f})" for name, r in rho.items() if r >= 1.0]
    if problems:
        raise ConfigError(problems)


def _check_loop(cfg: ControllerConfig, d: Decomposition) -> None:
    """What :func:`closed_loop` and :class:`EemPolicy` need: a weight basis,
    one F_o row per relative clock, and loops that contract at d's tau."""
    if d.q is None:
        raise ValueError("the controller requires a weight-basis decomposition")
    if len(cfg.F_o) != d.N - 1:
        raise ValueError(f"F_o has {len(cfg.F_o)} rows; the decomposition's {d.N} clocks need {d.N - 1}")
    _check_contractive(cfg, d.A, d.B)


class EemPolicy:
    """Measurement-feedback policy for the simulator loop.

    Each call runs one step of the stationary filter on the precomputed
    ``gains``: it predicts with the previous command and updates with
    y[k].  The command then comes from that prior estimate, which
    ``state`` holds after the call.  Every command is logged.
    """

    def __init__(self, cfg: ControllerConfig, d: Decomposition, gains: StationaryGains):
        _check_loop(cfg, d)
        self.cfg = cfg
        self.d = d
        self.gains = gains
        self.omega_o_log: List[np.ndarray] = []
        self.omega_obar_log: List[float] = []
        self.state: DeterminateKFState = determinate_kf_init(d)
        self._last_omega = (np.zeros(d.N - 1), 0.0)

    def __call__(self, k: int, y: np.ndarray) -> np.ndarray:
        cfg, d, g, post = self.cfg, self.d, self.gains, self.state
        y = np.asarray(y, dtype=float)
        if y.shape != (d.N - 1,):
            raise ValueError(f"y must have shape ({d.N - 1},), got {y.shape}")
        # determinate_kf_step with the gains frozen at the fixed point:
        # predict from the posterior with the previous command, update with y
        xo_m, xb_m = _predict_decomposed(d, post.xi_o_post, post.xi_obar_post, self._last_omega)
        innov = d.Co @ xo_m
        np.subtract(y, innov, out=innov)
        xi_o = g.H_o_star @ innov
        xi_o += xo_m
        xi_obar = g.H_bo_star @ innov
        xi_obar += xb_m
        self.state = DeterminateKFState(
            xi_o_post=xi_o, xi_obar_post=xi_obar, xi_o_hat=xo_m, xi_obar_hat=xb_m
        )
        omega_o = -(cfg.F_o @ xo_m)
        if cfg.K_bo is not None and (k - cfg.phase) % cfg.m == 0:
            omega_obar = float(-(cfg.K_bo @ xb_m)[0])
        else:
            omega_obar = 0.0
        self._last_omega = (omega_o, omega_obar)
        self.omega_o_log.append(omega_o)
        self.omega_obar_log.append(omega_obar)
        return expand_input(omega_o, omega_obar, d)

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
    differences of large phases.  Rows of the state are stepped as
    z[k+1]^T = z[k]^T M^T + (the noise row): ``prev.dot(M_T, step)``
    into one buffer, then ``np.add(nxt, step, nxt)``, which gives the
    bits of ``nxt += prev @ M_T`` at a lower call cost; the tests keep
    that form as their oracle.  The recursion runs in blocks of
    ``BLOCK`` steps, each drawing its own process and measurement noise;
    after each block its x = Tinv xi and commands are formed, and its
    process noise is projected on ``weights`` and dropped.  At the end
    :func:`expand_input` forms u, as ``EemPolicy`` does; a clock whose row
    of Vplus is zero (the steering weight's) gets an input of exactly 0.0.
    Agrees with the policy loop in x, u and the commands up to rounding.

    Returns the record (``h`` is a view of ``x``; ``y`` and ``v`` are
    ``None``, as no run reads them), the command logs (omega_o,
    omega_obar), as ``EemPolicy.command_log`` gives them, and for each
    of ``weights`` its destination, shape (T+1, 2): bit for bit ``destination_trajectory(model, q, T, seed)``.
    """
    _check_loop(cfg, d)
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
    omega_o = np.empty((T, N - 1))
    omega_obar = np.zeros(T)

    def run():
        # the recursion, block by block; yields each block's process noise
        # projected on the weights, which the destinations' free run sums
        Z = np.empty((min(T, BLOCK) + 1, 2 * n2))
        Z[0] = 0.0
        rows = list(Z)
        step = np.empty(2 * n2)
        for k0, k1 in _spans(T):
            n = k1 - k0
            v = sampler.process_block(n)
            w = sampler.measurement_block(n)
            Z[1 : n + 1, :n2] = w @ w_gain
            Z[1 : n + 1, n2:] = v @ d.T.T
            for prev, nxt, kick in zip(rows[:n], rows[1 : n + 1], kicks[k0:k1].tolist()):
                prev.dot(M_kick_T if kick else M_T, step)
                np.add(nxt, step, nxt)
            x[k0 + 1 : k1 + 1] = Z[1 : n + 1, n2:] @ d.Tinv.T
            omega_o[k0:k1] = -(Z[:n, obs_hat] @ cfg.F_o.T)
            at = np.flatnonzero(kicks[k0:k1])
            if at.size:
                omega_obar[k0 + at] = -(Z[at, obar_hat] @ cfg.K_bo[0])
            Z[0] = Z[n]
            yield _project(v, Q)

    dest = _free_run(model.tau, run(), np.empty((T + 1, 2 * len(Q))))
    record = TrajectoryRecord(x=x, y=None, u=expand_input(omega_o, omega_obar, d))
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
) -> np.ndarray:
    """Free-running weighted-mean states r[0..T] from zero, shape (T+1, 2).

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
    sampler = NoiseSampler(model, seed)
    noise = (_project(sampler.process_block(k1 - k0), qv[None]) for k0, k1 in _spans(T))
    return _free_run(model.tau, noise, np.empty((T + 1, 2)))


def sync_error(x: np.ndarray, dest: np.ndarray) -> np.ndarray:
    """Deviation of state rows x, (K, 2N), from destination rows r, (K, 2): x - (I2 kron 1) r."""
    x = np.asarray(x, dtype=float)
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

