"""Seeded stochastic simulation of the measured ensemble.

Every run is driven by one 64-bit seed.  Process and measurement noise
come from independent counter-based sub-streams of that seed, so two
scenarios with the same seed see bit-identical noise even when their
feedback policies differ.  That is what makes "same data, different
filter" comparisons meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it lazily; every simulation draws from it

from .models import DiscreteClockModel, EnsembleModel

__all__ = [
    "NoiseSampler",
    "TrajectoryRecord",
    "simulate",
    "digital_imitation",
    "reference_timescale",
]

Policy = Callable[[int, np.ndarray], np.ndarray]


def _sqrt_factor_lower(M: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = M for symmetric PSD M.

    Cholesky when M is definite; otherwise an eigen square root
    re-triangularized through QR (a sigma of zero makes bigQ singular).
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, u = np.linalg.eigh(M)
        w = np.clip(w, 0.0, None)
        root = u * np.sqrt(w)
        _, r = np.linalg.qr(root.T)
        return r.T


class NoiseSampler:
    """Gaussian process/measurement noise with reproducible sub-streams."""

    def __init__(self, model: EnsembleModel, seed: int):
        self.seed = int(seed)
        self.chol_q = _sqrt_factor_lower(model.bigQ)
        self.chol_r = _sqrt_factor_lower(model.meas.R)
        proc_seq, meas_seq = np.random.SeedSequence(self.seed).spawn(2)
        self._proc = np.random.Generator(np.random.Philox(proc_seq))
        self._meas = np.random.Generator(np.random.Philox(meas_seq))

    def process_block(self, T: int) -> np.ndarray:
        """Draw T process-noise vectors v[0..T-1], shape (T, 2N)."""
        z = self._proc.standard_normal((T, self.chol_q.shape[0]))
        return z @ self.chol_q.T

    def measurement_block(self, T: int) -> np.ndarray:
        """Draw T measurement-noise vectors w[0..T-1], shape (T, N-1)."""
        z = self._meas.standard_normal((T, self.chol_r.shape[0]))
        return z @ self.chol_r.T


@dataclass
class TrajectoryRecord:
    """One finished simulation run.

    State series x and h have T+1 entries (k = 0..T); the
    measurement-aligned series y, u, and the optional xhat and v have T
    entries (k = 0..T-1), since step T receives no input.  Treat records
    as immutable once returned.
    """

    tau: float
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    xhat: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None

    @property
    def T(self) -> int:
        return self.u.shape[0]

    @property
    def N(self) -> int:
        return self.x.shape[1] // 2

    @property
    def h(self) -> np.ndarray:
        """The clock phases x[:, :N], a view of x."""
        return self.x[:, : self.N]


def simulate(
    model: EnsembleModel,
    policy: Optional[Policy],
    T: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
    record_noise: bool = False,
) -> TrajectoryRecord:
    """Run the closed loop for T steps and record everything.

    Parameters
    ----------
    policy : callable (k, y[k]) -> u[k], or None for free run.  The policy
        sees only measurements, never the true state.  y[k] is drawn
        before the policy is invoked at step k.
    seed : drives both noise sub-streams, which every run draws; equal
        seeds reproduce the record bit-for-bit.
    x0 : initial ensemble state, default zero.
    record_noise : keep the process-noise draws in the record (v).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    N = model.N
    n2 = 2 * N
    if x0 is None:
        x0 = np.zeros(n2)
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n2,):
            raise ValueError(f"x0 must have shape ({n2},), got {x0.shape}")

    sampler = NoiseSampler(model, seed)
    v = sampler.process_block(T)
    w = sampler.measurement_block(T)

    if policy is None:
        xs = _free_run(model.tau, v[:, :N], v[:, N:], x0[:N], x0[N:])
        ys = xs[:T, :N] @ model.meas.V.T + w
        us = np.zeros((T, N))
    else:
        xs = np.empty((T + 1, n2))
        ys = np.empty((T, N - 1))
        us = np.empty((T, N))
        xs[0] = x0
        bigA, bigB, bigC = model.bigA, model.bigB, model.bigC
        x = x0
        for k in range(T):
            y = bigC @ x + w[k]
            u = np.asarray(policy(k, y), dtype=float)
            if u.shape != (N,):
                raise ValueError(
                    f"policy returned input of shape {u.shape}, expected ({N},)"
                )
            ys[k] = y
            us[k] = u
            x = bigA @ x + bigB @ u + v[k]
            xs[k + 1] = x

    return TrajectoryRecord(tau=model.tau, x=xs, y=ys, u=us, v=v if record_noise else None)


def _free_run(tau: float, v_phase, v_freq, phase0, freq0) -> np.ndarray:
    """States of n free-running clocks, shape (T+1, 2n): phases, then
    frequencies.

    Integrates x[k+1] = A x[k] + v[k] by cumulative sums, in place in the
    one array it returns: freq[k] = freq0 + sum_{j<k} v_freq[j], then
    phase[k] = phase0 + sum_{j<k} (tau freq[j] + v_phase[j]).  The noise
    blocks have shape (T, n).
    """
    T, n = v_freq.shape
    out = np.empty((T + 1, 2 * n))
    phase, freq = out[:, :n], out[:, n:]
    phase[0] = phase0
    freq[0] = freq0
    np.cumsum(v_freq, axis=0, out=freq[1:])
    freq[1:] += freq0
    np.multiply(tau, freq[:-1], out=phase[1:])
    phase[1:] += v_phase
    np.cumsum(phase[1:], axis=0, out=phase[1:])
    phase[1:] += phase0
    return out


def digital_imitation(model: DiscreteClockModel, u: np.ndarray) -> np.ndarray:
    """Reading adjustments u' that imitate physically steering the clock.

    Iterates eps[k+1] = A eps[k] + B u[k] from eps[0] = 0 and returns
    u'[k] = C eps[k] for k = 0..T (one entry more than the inputs: the
    final input still shifts the reading after step T-1).  Adding u' to
    the free-running reading reproduces the steered reading exactly.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"u must be a scalar series, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    u = u[:, None]
    return _free_run(model.tau, model.tau * u, u, 0.0, 0.0)[:, 0]


def reference_timescale(e: np.ndarray, N: int) -> np.ndarray:
    """Mean of the phase block: eps[k] = (C kron (1/N) 1^T) e[k]."""
    e = np.asarray(e, dtype=float)
    if e.shape[-1] != 2 * N:
        raise ValueError(f"expected {2 * N} state components, got {e.shape[-1]}")
    return e[..., :N].mean(axis=-1)

