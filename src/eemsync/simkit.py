"""Seeded stochastic simulation of the measured ensemble.

Every run is driven by one 64-bit seed.  Process and measurement noise
come from independent counter-based sub-streams of that seed, so two
scenarios with the same seed see bit-identical noise even when their
feedback policies differ.  That is what makes "same data, different
filter" comparisons meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .models import DiscreteClockModel, EnsembleModel

__all__ = [
    "NoiseSampler",
    "TrajectoryRecord",
    "step",
    "simulate",
    "digital_imitation",
    "reference_timescale",
    "write_csv",
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
    h: np.ndarray
    y: np.ndarray
    u: np.ndarray
    xhat: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None

    @property
    def T(self) -> int:
        return self.u.shape[0]

    @property
    def N(self) -> int:
        return self.h.shape[1]


def step(model: EnsembleModel, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One exact model step: bigA x + bigB u + v."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n2 = 2 * model.N
    if x.shape != (n2,):
        raise ValueError(f"x must have shape ({n2},), got {x.shape}")
    if u.shape != (model.N,):
        raise ValueError(f"u must have shape ({model.N},), got {u.shape}")
    if v.shape != (n2,):
        raise ValueError(f"v must have shape ({n2},), got {v.shape}")
    return model.bigA @ x + model.bigB @ u + v


def simulate(
    model: EnsembleModel,
    policy: Optional[Policy],
    T: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
    noiseless: bool = False,
    record_noise: bool = False,
) -> TrajectoryRecord:
    """Run the closed loop for T steps and record everything.

    Parameters
    ----------
    policy : callable (k, y[k]) -> u[k], or None for free run.  The policy
        sees only measurements, never the true state.  y[k] is drawn
        before the policy is invoked at step k.
    seed : drives both noise sub-streams; equal seeds reproduce the
        record bit-for-bit.
    x0 : initial ensemble state, default zero.
    noiseless : zero both noise streams (the generator is not consumed).
    record_noise : keep the process-noise draws in the record.
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

    if noiseless:
        v = np.zeros((T, n2))
        w = np.zeros((T, N - 1))
    else:
        sampler = NoiseSampler(model, seed)
        v = sampler.process_block(T)
        w = sampler.measurement_block(T)

    if policy is None:
        xs = _free_run(model, x0, v)
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

    return TrajectoryRecord(
        tau=model.tau,
        x=xs,
        h=xs[:, :N].copy(),
        y=ys,
        u=us,
        v=v if record_noise else None,
    )


def _free_run(model: EnsembleModel, x0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized zero-input trajectory (cumulative sums, no loop)."""
    T = v.shape[0]
    N = model.N
    tau = model.tau
    freq = np.empty((T + 1, N))
    freq[0] = x0[N:]
    np.cumsum(v[:, N:], axis=0, out=freq[1:])
    freq[1:] += x0[N:]
    phase = np.empty((T + 1, N))
    phase[0] = x0[:N]
    incr = tau * freq[:-1] + v[:, :N]
    np.cumsum(incr, axis=0, out=phase[1:])
    phase[1:] += x0[:N]
    return np.hstack([phase, freq])


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
    tau = model.tau
    # eps_freq[k] = sum_{j<k} u[j]; eps_phase[k] = tau * sum_{j=1..k} eps_freq[j]
    ef = np.concatenate([[0.0], np.cumsum(u)])
    ep = np.concatenate([[0.0], tau * np.cumsum(ef[1:])])
    return ep


def reference_timescale(e: np.ndarray, N: int) -> np.ndarray:
    """Mean of the phase block: eps[k] = (C kron (1/N) 1^T) e[k]."""
    e = np.asarray(e, dtype=float)
    if e.shape[-1] != 2 * N:
        raise ValueError(f"expected {2 * N} state components, got {e.shape[-1]}")
    return e[..., :N].mean(axis=-1)


def write_csv(path, header: Sequence[str], data: np.ndarray, index: bool = True) -> None:
    """Write a header line, then one comma-separated line per row of data.

    Meant for short tables such as Allan curves; long series are saved as
    ``.npy``.  Values use 17 significant digits (``%.16e``); with ``index``
    the first column is written as an integer k.  The bytes equal those of
    ``np.savetxt`` with the same formats, ``delimiter=","`` and
    ``comments=""``, but all rows are formatted by one ``%`` operation on
    the data's ``tolist()``.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"data of shape {data.shape} does not match {len(header)} header columns")
    fmt = ["%.16e"] * data.shape[1]
    if index:
        fmt[0] = "%d"
    row = ",".join(fmt) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * data.shape[0]) % tuple(data.ravel().tolist()))
