"""Allan-variance analytics and ensemble weight optimization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .decomp import weight_vector
from .models import NoiseParams, _check_finite_power

__all__ = [
    "AllanPlot",
    "variance_vector",
    "gamma_matrix",
    "analytical_allan_clock",
    "allan_pi",
    "statistical_allan",
    "allan_plot",
    "optimal_weight",
    "weight_short",
    "weight_long",
]


def variance_vector(variances: Union[np.ndarray, Sequence[float]]) -> np.ndarray:
    """Validate one variance per clock, such as ``EnsembleModel.sigma1_sq``:
    a 1-D array of finite, nonnegative entries; otherwise ``ValueError``."""
    S = np.asarray(variances, dtype=float)
    if S.ndim != 1:
        raise ValueError(f"expected a 1-D variance vector, got shape {S.shape}")
    if not np.all(np.isfinite(S)) or np.any(S < 0):
        raise ValueError("variances must be finite and nonnegative")
    return S


def _check_tau(tau: float) -> None:
    """Refuse a sampling interval that is not finite and positive."""
    if not np.isfinite(tau) or tau <= 0:
        raise ValueError(f"tau must be finite and > 0, got {tau!r}")


def gamma_matrix(sigma1_sq, sigma2_sq, tau: float) -> np.ndarray:
    """Diagonal of the interval covariance Gamma(tau), tau sigma1_sq + (tau^3/3) sigma2_sq."""
    _check_tau(tau)
    _check_finite_power("tau", tau, 3)
    s1 = variance_vector(sigma1_sq)
    s2 = variance_vector(sigma2_sq)
    if s1.shape != s2.shape:
        raise ValueError("sigma1_sq and sigma2_sq must have matching sizes")
    return tau * s1 + (tau**3 / 3.0) * s2


def analytical_allan_clock(noise: NoiseParams, tau: float) -> float:
    """Two-noise single-clock Allan variance: sigma1^2/tau + (tau/3) sigma2^2."""
    _check_tau(tau)
    return noise.sigma1**2 / tau + (tau / 3.0) * noise.sigma2**2


def allan_pi(q: np.ndarray, sigma1_sq, sigma2_sq, tau: float) -> float:
    """Allan variance of the weighted ensemble mean: q^T Gamma(tau) q / tau^2."""
    qv = weight_vector(q)
    g = gamma_matrix(sigma1_sq, sigma2_sq, tau)
    if g.size != qv.size:
        raise ValueError(f"weight has {qv.size} entries, noise has {g.size}")
    return float(qv @ (g * qv) / tau**2)


# Longest run of second differences formed at once: the leaf buffer and
# the three column slices it reads (4 x 512 KiB) stay in a 2 MiB L2 across
# the four ufunc passes and the sum, instead of streaming from L3.
_LEAF = 65536


def _sum_squares(c: np.ndarray, m: int, lo: int, n: int, buf: np.ndarray) -> float:
    """Sum of the n squared second differences at lag m from sample lo.

    Above ``_LEAF`` samples the sum splits as ``np.add.reduce`` splits a
    contiguous array (pairwise, the left half rounded down to a multiple
    of 8), so the leaves' sums add up to the one-pass sum bit for bit.
    """
    if n > _LEAF:
        n2 = n // 2 - (n // 2) % 8
        return _sum_squares(c, m, lo, n2, buf) + _sum_squares(c, m, lo + n2, n - n2, buf)
    d = buf[:n]
    np.multiply(c[lo + m : lo + m + n], 2.0, out=d)
    np.subtract(c[lo + 2 * m : lo + 2 * m + n], d, out=d)
    np.add(d, c[lo : lo + n], out=d)
    np.multiply(d, d, out=d)
    return np.add.reduce(d)


def _allan_values(h: np.ndarray, tau: float, m_set: Sequence[int]) -> np.ndarray:
    """The overlapping estimator at every m in ``m_set``, column by column.

    Each column is copied once to a contiguous array.  An interval's
    second differences are formed and squared in place in one reused
    buffer of at most ``_LEAF`` samples, leaf by leaf, and each leaf is
    summed by ``np.add.reduce``; the leaves follow numpy's own pairwise
    tree, so every value equals the one-pass ``mean`` of the squares bit
    for bit.  Returns one entry per interval for a 1-D series, one row
    per interval for a 2-D one.
    """
    T = h.shape[0] - 1
    columns = h.reshape(h.shape[0], -1)
    values = np.empty((len(m_set), columns.shape[1]))
    buf = np.empty(min(T, _LEAF))
    for i in range(columns.shape[1]):
        c = np.ascontiguousarray(columns[:, i])
        for j, m in enumerate(m_set):
            m = int(m)
            n = T - 2 * m
            values[j, i] = _sum_squares(c, m, 0, n, buf) / n / (2.0 * (m * tau) ** 2)
    return values if h.ndim == 2 else values[:, 0]


@dataclass(frozen=True)
class AllanPlot:
    """Statistical Allan variance over a grid of averaging intervals.

    ``values`` has one entry per interval for a scalar series, one row
    per interval for a vector series.
    """

    m_set: np.ndarray
    intervals: np.ndarray
    values: np.ndarray


def _default_m_grid(m_max: int, per_decade: int = 30) -> np.ndarray:
    if m_max <= 1:
        return np.array([1])
    count = int(np.ceil(per_decade * np.log10(m_max))) + 1
    grid = np.round(np.logspace(0.0, np.log10(m_max), count)).astype(int)
    # sorted, so a repeat equals its left neighbour (np.unique imports numpy.ma)
    grid = grid[np.diff(grid, prepend=0) != 0]
    return grid[(grid >= 1) & (grid <= m_max)]


def allan_plot(h: np.ndarray, tau: float, m_subset: Optional[Sequence[int]] = None) -> AllanPlot:
    """Overlapping second-difference estimator over an interval grid.

    ``h`` is a reading series of length T+1 >= 4 (optionally one column
    per series).  ``m_subset`` lists the integer interval counts m to
    evaluate, each in the feasible set 1 <= m <= m_max = (T-1)//2; a
    non-integer or infeasible entry raises ``ValueError``.  Every
    feasible m, ``np.arange(1, m_max + 1)``, costs time quadratic in the
    horizon.  Defaults to a logarithmically spaced grid (about 30 points
    per decade) that starts at m = 1.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[0] < 4:
        raise ValueError("series must be 1-D or 2-D with at least 4 samples")
    _check_tau(tau)
    m_max = (h.shape[0] - 2) // 2
    if m_subset is None:
        m_set = _default_m_grid(m_max)
    else:
        requested = np.asarray(m_subset, dtype=float).ravel()
        if requested.size == 0:
            raise ValueError("m_subset must be nonempty")
        fractional = requested[~np.isfinite(requested) | (requested != np.round(requested))]
        if fractional.size:
            raise ValueError(f"intervals {fractional.tolist()} are not integers")
        m_set = np.unique(requested)
        bad = m_set[(m_set < 1) | (m_set > m_max)]
        if bad.size:
            raise ValueError(f"intervals {[int(m) for m in bad]} outside the feasible set 1..{m_max}")
        m_set = m_set.astype(int)
    values = _allan_values(h, tau, m_set)
    return AllanPlot(m_set=m_set, intervals=m_set * float(tau), values=values)


def statistical_allan(h: np.ndarray, tau: float, m: int) -> Union[float, np.ndarray]:
    """The estimator of :func:`allan_plot` at the one interval m tau: a
    float for a scalar series, one entry per column for a vector one."""
    values = allan_plot(h, tau, m_subset=[m]).values
    return float(values[0]) if values.ndim == 1 else values[0]


def _inverse_variance(s: np.ndarray, zero_message: str) -> np.ndarray:
    """Weights proportional to 1/s, normalized; a zero entry raises."""
    if np.any(s == 0.0):
        raise ValueError(zero_message)
    w = 1.0 / s
    return weight_vector(w / w.sum())


def optimal_weight(sigma1_sq, sigma2_sq, tau: float) -> np.ndarray:
    """Weight minimizing the ensemble-mean Allan variance at interval tau.

    Gamma(tau) is diagonal here, so the inverse-variance form is exact:
    q = Gamma^{-1} 1 / (1^T Gamma^{-1} 1).
    """
    return _inverse_variance(
        gamma_matrix(sigma1_sq, sigma2_sq, tau), "Gamma(tau) is singular; a clock has zero interval variance"
    )


def weight_short(sigma1_sq) -> np.ndarray:
    """Short-term optimal weight: inverse white-noise variances, normalized."""
    return _inverse_variance(variance_vector(sigma1_sq), "zero white-noise variance entry")


def weight_long(sigma2_sq) -> np.ndarray:
    """Long-term optimal weight: inverse random-walk variances, normalized."""
    return _inverse_variance(variance_vector(sigma2_sq), "zero random-walk variance entry")

