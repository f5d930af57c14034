"""Discrete two-state clock models and the measured clock ensemble.

A single clock carries a phase deviation (seconds) and a fractional
frequency deviation, driven by white FM noise (sigma1) and random-walk
FM noise (sigma2).  An ensemble of N such clocks is observed only through
pairwise phase differences, so the ensemble mean itself is unobservable;
everything downstream (decomposition, filtering, control) builds on the
matrices assembled here.

State ordering is phase-block-first: x = [x11..x1N, x21..x2N].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "NoiseParams",
    "DiscreteClockModel",
    "MeasurementStructure",
    "EnsembleModel",
    "discretize",
    "star_measurement",
    "build_ensemble",
]


def _check_finite_power(name: str, value, exponent: int) -> None:
    """Raise ValueError naming ``name`` if ``value ** exponent`` is not finite."""
    with np.errstate(over="ignore"):
        result = np.float64(value) ** exponent
    if not np.isfinite(result):
        raise ValueError(f"{name}**{exponent} overflows, so the model is not finite; got {name} = {value!r}")


@dataclass(frozen=True)
class NoiseParams:
    """Continuous-time noise intensities of one clock.

    sigma1 is the white FM intensity, sigma2 the random-walk FM intensity,
    both in 1/sqrt(s) units of fractional frequency.  Variances, not
    standard deviations, enter the model as sigma**2.
    """

    sigma1: float
    sigma2: float

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {val!r}")
            _check_finite_power(name, val, 2)
        if self.sigma1 == 0 and self.sigma2 == 0:
            raise ValueError("sigma1 and sigma2 must not both be zero")


@dataclass(frozen=True)
class DiscreteClockModel:
    """Exact zero-order-hold discretization of the two-state clock.

    A, B, C are the step matrices for sampling interval tau; Q is the exact
    covariance of the accumulated process noise over one interval.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    tau: float


def discretize(noise: NoiseParams, tau: float) -> DiscreteClockModel:
    """Discretize one clock at sampling interval tau.

    Returns the matrices

        A = [[1, tau], [0, 1]],  B = [tau, 1],  C = [1, 0]

    and the exact one-interval noise covariance

        Q = [[tau*s1^2 + tau^3/3*s2^2, tau^2/2*s2^2],
             [tau^2/2*s2^2,            tau*s2^2   ]]

    with s1 = noise.sigma1 and s2 = noise.sigma2.
    """
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")
    _check_finite_power("tau", tau, 3)
    s1sq = noise.sigma1 ** 2
    s2sq = noise.sigma2 ** 2
    A = np.array([[1.0, tau], [0.0, 1.0]])
    B = np.array([tau, 1.0])
    C = np.array([1.0, 0.0])
    with np.errstate(over="ignore"):  # an overflow is reported below
        Q = np.array(
            [
                [tau * s1sq + tau ** 3 / 3.0 * s2sq, tau ** 2 / 2.0 * s2sq],
                [tau ** 2 / 2.0 * s2sq, tau * s2sq],
            ]
        )
    if not np.isfinite(Q).all():
        raise ValueError(f"tau = {tau!r} with {noise} leaves the process covariance Q not finite")
    return DiscreteClockModel(A=A, B=B, C=C, Q=Q, tau=tau)


def _check_measurement(V: np.ndarray, R: np.ndarray) -> None:
    V = np.asarray(V, dtype=float)
    R = np.asarray(R, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1] - 1:
        raise ValueError(f"V must be (N-1) x N, got shape {V.shape}")
    n_meas, N = V.shape
    ones = np.ones(N)
    kernel_defect = np.max(np.abs(V @ ones))
    if kernel_defect > 1e-12 * max(1.0, np.max(np.abs(V))):
        raise ValueError(
            "V rows must sum to zero (the all-ones vector must lie in ker V); "
            f"max |V.1| = {kernel_defect:.3e}"
        )
    sv = np.linalg.svd(V, compute_uv=False)
    tol = max(V.shape) * np.finfo(float).eps * sv[0]
    if np.sum(sv > tol) < n_meas:
        raise ValueError("V must have full row rank N-1")
    if R.shape != (n_meas, n_meas):
        raise ValueError(f"R must be (N-1) x (N-1) = {(n_meas, n_meas)}, got {R.shape}")
    if not np.isfinite(R).all():
        raise ValueError("R must be finite")
    if np.max(np.abs(R - R.T)) > 1e-12 * max(1.0, np.max(np.abs(R))):
        raise ValueError("R must be symmetric")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise ValueError("R must be positive definite") from exc


@dataclass(frozen=True)
class MeasurementStructure:
    """Difference-measurement matrix V and measurement-noise covariance R.

    V maps clock phases to the N-1 observed phase differences.  Its kernel
    contains the all-ones vector, which is exactly why the ensemble mean
    never shows up in the data.
    """

    V: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        _check_measurement(self.V, self.R)

    @property
    def N(self) -> int:
        return self.V.shape[1]


def star_measurement(N: int) -> np.ndarray:
    """Star-topology measurement matrix V = [I_{N-1} | -1].

    Every clock is measured against clock N.  Returns only V; pair it with
    an R of your choosing in MeasurementStructure.
    """
    if N < 2:
        raise ValueError(f"star measurement needs N >= 2 clocks, got {N}")
    return np.hstack([np.eye(N - 1), -np.ones((N - 1, 1))])


@dataclass(frozen=True)
class EnsembleModel:
    """The full measured ensemble: dynamics, noise, and measurement.

    bigA = A kron I_N, bigB = B kron I_N, bigC = C kron V, with the
    phase-block-first state ordering.  Sigma1/Sigma2 are the diagonal
    noise-variance matrices of the member clocks; bigQ is the exact
    one-interval covariance of the stacked process noise.
    """

    N: int
    tau: float
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    bigQ: np.ndarray
    meas: MeasurementStructure
    bigA: np.ndarray
    bigB: np.ndarray
    bigC: np.ndarray

    @cached_property
    def clock(self) -> DiscreteClockModel:
        """The shared single-clock discretization (A, B, C and a unit Q),
        computed on first access."""
        return discretize(NoiseParams(1.0, 0.0), self.tau)


def build_ensemble(
    params: Sequence[NoiseParams],
    V: np.ndarray,
    R: np.ndarray,
    tau: float,
) -> EnsembleModel:
    """Assemble the measured ensemble model from per-clock noise parameters.

    Parameters
    ----------
    params : sequence of NoiseParams, one per clock.
    V : (N-1, N) measurement matrix; rows must sum to zero array-exactly
        enough to keep the all-ones vector in the kernel.
    R : (N-1, N-1) symmetric positive-definite measurement covariance.
    tau : sampling interval in seconds.

    The stacked process covariance has the block form

        bigQ = [[tau*Sigma1 + tau^3/3*Sigma2, tau^2/2*Sigma2],
                [tau^2/2*Sigma2,              tau*Sigma2    ]]

    whose per-clock marginals coincide with discretize(params[i], tau).Q.
    """
    meas = MeasurementStructure(V=np.asarray(V, dtype=float), R=np.asarray(R, dtype=float))
    N = meas.N
    if len(params) != N:
        raise ValueError(f"got {len(params)} NoiseParams for N = {N} clocks")
    clock = discretize(params[0], tau)  # checks tau, including tau**3
    Sigma1 = np.diag([p.sigma1 ** 2 for p in params])
    Sigma2 = np.diag([p.sigma2 ** 2 for p in params])
    with np.errstate(over="ignore"):  # an overflow is reported below
        bigQ = np.block(
            [
                [tau * Sigma1 + tau ** 3 / 3.0 * Sigma2, tau ** 2 / 2.0 * Sigma2],
                [tau ** 2 / 2.0 * Sigma2, tau * Sigma2],
            ]
        )
    if not np.isfinite(bigQ).all():
        raise ValueError(f"tau = {tau!r} with these sigma1 and sigma2 leaves the process covariance bigQ not finite")
    eye = np.eye(N)
    bigA = np.kron(clock.A, eye)
    bigB = np.kron(clock.B[:, None], eye)
    bigC = np.kron(clock.C[None, :], meas.V)
    return EnsembleModel(
        N=N,
        tau=tau,
        Sigma1=Sigma1,
        Sigma2=Sigma2,
        bigQ=bigQ,
        meas=meas,
        bigA=bigA,
        bigB=bigB,
        bigC=bigC,
    )
