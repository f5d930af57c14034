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

from .models import EnsembleModel, _check_tau

__all__ = [
    "NoiseSampler",
    "TrajectoryRecord",
    "simulate",
    "digital_imitation",
    "reference_timescale",
]

Policy = Callable[[int, np.ndarray], np.ndarray]

# rows per block of noise, and of every streamed pass over a run: bounds
# the work arrays, not the result
BLOCK = 4096


def _spans(T: int) -> list:
    """The (k0, k1) row ranges of a T-row pass in blocks of ``BLOCK``."""
    return [(k0, min(k0 + BLOCK, T)) for k0 in range(0, T, BLOCK)]


def _sqrt_factor_lower(M: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = M for symmetric PSD M.

    Rows and columns with a zero diagonal (a clock without random-walk
    FM gives bigQ one) stay exactly zero, so the draws of each row of
    noise round alike in any block size; the rest is factored by
    Cholesky, or failing that by an eigen root re-triangularized by QR.
    """
    keep = np.ix_(*[np.flatnonzero(np.diag(M) > 0)] * 2)
    try:
        root = np.linalg.cholesky(M[keep])
    except np.linalg.LinAlgError:
        w, u = np.linalg.eigh(M[keep])
        root = np.linalg.qr((u * np.sqrt(np.clip(w, 0.0, None))).T)[1].T
    L = np.zeros_like(M)
    L[keep] = root
    return L


def _colour(z: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """z @ chol.T with every row rounded as in a longer product: numpy
    sends a one-row product to gemv, whose sums round unlike gemm's rows."""
    if z.shape[0] == 1:
        return (np.repeat(z, 2, axis=0) @ chol.T)[:1]
    return z @ chol.T


class NoiseSampler:
    """Gaussian process/measurement noise with reproducible sub-streams.

    Each draw continues its sub-stream, and each row of noise depends
    only on its own standard normals.  So successive
    ``process_block(a)`` and ``process_block(b)`` calls together equal
    one ``process_block(a + b)`` bit for bit, and the same holds for
    ``measurement_block``: a run may draw its noise block by block.
    """

    def __init__(self, model: EnsembleModel, seed: int):
        self.seed = int(seed)
        self.chol_q = _sqrt_factor_lower(model.bigQ)
        self.chol_r = _sqrt_factor_lower(model.meas.R)
        proc_seq, meas_seq = np.random.SeedSequence(self.seed).spawn(2)
        self._proc = np.random.Generator(np.random.Philox(proc_seq))
        self._meas = np.random.Generator(np.random.Philox(meas_seq))

    def process_block(self, T: int) -> np.ndarray:
        """Draw T process-noise vectors v[0..T-1], shape (T, 2N)."""
        return _colour(self._proc.standard_normal((T, self.chol_q.shape[0])), self.chol_q)

    def measurement_block(self, T: int) -> np.ndarray:
        """Draw T measurement-noise vectors w[0..T-1], shape (T, N-1)."""
        return _colour(self._meas.standard_normal((T, self.chol_r.shape[0])), self.chol_r)


@dataclass
class TrajectoryRecord:
    """One finished simulation run.

    State series x and h have T+1 entries (k = 0..T); the
    measurement-aligned series y and u have T entries (k = 0..T-1), since
    step T receives no input.  :func:`simulate` and
    :func:`eemsync.control.closed_loop` draw their noise one block at a
    time and keep none, so ``v`` (the process noise) and ``xhat`` (state
    estimates) are ``None`` from both; the fields stay because
    ``perfbench/child.py`` reads them.  Treat records as immutable once
    returned.
    """

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
) -> TrajectoryRecord:
    """Run the closed loop from the zero state for T steps; record x, y, u.

    Parameters
    ----------
    policy : callable (k, y[k]) -> u[k], or None for free run.  The policy
        sees only measurements, never the true state.  y[k] is drawn
        before the policy is invoked at step k.
    seed : drives both noise sub-streams, which every run draws; equal
        seeds reproduce the record bit-for-bit.

    The noise is drawn, and used, in blocks of ``BLOCK`` rows, so besides
    the record a run holds one block of noise; by the block property of
    :class:`NoiseSampler` the record is the one whole draws would give.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    N = model.N
    n2 = 2 * N
    sampler = NoiseSampler(model, seed)
    spans = _spans(T)
    xs = np.empty((T + 1, n2))
    ys = np.empty((T, N - 1))

    if policy is None:
        process = (sampler.process_block(k1 - k0) for k0, k1 in spans)
        _free_run(model.tau, process, xs)
        # one product over every row: a one-row block would round otherwise
        np.matmul(xs[:T, :N], model.meas.V.T, out=ys)
        for k0, k1 in spans:
            ys[k0:k1] += sampler.measurement_block(k1 - k0)
        us = np.zeros((T, N))
    else:
        us = np.empty((T, N))
        x = xs[0] = np.zeros(n2)
        bigA, bigB, bigC = model.bigA, model.bigB, model.bigC
        for k0, k1 in spans:
            v = sampler.process_block(k1 - k0)
            w = sampler.measurement_block(k1 - k0)
            for k in range(k0, k1):
                y = bigC @ x + w[k - k0]
                u = np.asarray(policy(k, y), dtype=float)
                if u.shape != (N,):
                    raise ValueError(
                        f"policy returned input of shape {u.shape}, expected ({N},)"
                    )
                ys[k] = y
                us[k] = u
                x = bigA @ x + bigB @ u + v[k - k0]
                xs[k + 1] = x

    return TrajectoryRecord(x=xs, y=ys, u=us)


def _free_run(tau: float, blocks, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, shape (T+1, 2n), with the states of n free-running
    clocks from the zero state, phases then frequencies, and return it.

    Integrates x[k+1] = A x[k] + v[k] by cumulative sums, in place:
    freq[k] = sum_{j<k} v_freq[j], then
    phase[k] = sum_{j<k} (tau freq[j] + v_phase[j]).  ``blocks``
    yields the noise v[0..T-1] as consecutive blocks of shape (b, 2n),
    v_phase then v_freq.  Each block's sums go on from the raw sums of
    the block before, and a cumulative sum adds in order, so the states
    do not depend on how the noise is blocked.
    """
    n = out.shape[1] // 2
    phase, freq = out[:, :n], out[:, n:]
    out[0] = 0.0
    k = 0
    for v in blocks:
        v_phase, v_freq = v[:, :n], v[:, n:]
        k1 = k + len(v)
        f, p = freq[k + 1 : k1 + 1], phase[k + 1 : k1 + 1]
        f[...] = v_freq
        if k:
            f[0] += raw_freq
        np.cumsum(f, axis=0, out=f)
        raw_freq = f[-1].copy()
        np.multiply(tau, freq[k:k1], out=p)
        p += v_phase
        if k:
            p[0] += raw_phase
        np.cumsum(p, axis=0, out=p)
        raw_phase = p[-1].copy()
        k = k1
    return out


def digital_imitation(tau: float, u: np.ndarray) -> np.ndarray:
    """Reading adjustments u' that imitate physically steering the clock.

    Iterates eps[k+1] = A eps[k] + B u[k] from eps[0] = 0 and returns
    u'[k] = C eps[k] for k = 0..T (one entry more than the inputs: the
    final input still shifts the reading after step T-1).  Adding u' to
    the free-running reading reproduces the steered reading exactly.
    """
    _check_tau(tau)
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"u must be a scalar series, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    v = np.column_stack([tau * u, u])
    return _free_run(tau, [v], np.empty((len(u) + 1, 2)))[:, 0]


def reference_timescale(e: np.ndarray, N: int) -> np.ndarray:
    """Mean of the phase block: eps[k] = (C kron (1/N) 1^T) e[k]."""
    e = np.asarray(e, dtype=float)
    if e.shape[-1] != 2 * N:
        raise ValueError(f"expected {2 * N} state components, got {e.shape[-1]}")
    return e[..., :N].mean(axis=-1)

