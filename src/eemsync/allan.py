"""Allan-variance analytics and ensemble weight optimization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .decomp import weight_vector
from .models import _check_tau, _interval_covariance

__all__ = [
    "AllanPlot",
    "variance_vector",
    "gamma_matrix",
    "analytical_allan_clock",
    "allan_pi",
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


def _variance_pair(sigma1_sq, sigma2_sq) -> tuple:
    """Both variance vectors, validated, of matching sizes."""
    s1 = variance_vector(sigma1_sq)
    s2 = variance_vector(sigma2_sq)
    if s1.shape != s2.shape:
        raise ValueError("sigma1_sq and sigma2_sq must have matching sizes")
    return s1, s2


def gamma_matrix(sigma1_sq, sigma2_sq, tau: float) -> np.ndarray:
    """Diagonal of the interval covariance Gamma(tau): each clock's phase
    entry of Q(tau), tau sigma1_sq + (tau^3/3) sigma2_sq."""
    return _interval_covariance(*_variance_pair(sigma1_sq, sigma2_sq), tau)[0]


def _intervals(tau) -> list:
    """tau as a list of intervals, one for a number; each is checked where
    it is used, by :func:`_check_tau`."""
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError(f"tau must be a number or a 1-D array of intervals, got shape {taus.shape}")
    return taus.reshape(-1).tolist()


def analytical_allan_clock(sigma1_sq, sigma2_sq, tau) -> np.ndarray:
    """Two-noise Allan variance of each clock: sigma1_sq/tau + (tau/3) sigma2_sq.

    For a 1-D array of intervals, one row per interval."""
    taus = _intervals(tau)
    for t in taus:
        _check_tau(t)
    s1, s2 = _variance_pair(sigma1_sq, sigma2_sq)
    col = np.array(taus)[:, None]
    lines = s1 / col + (col / 3.0) * s2
    return lines[0] if np.ndim(tau) == 0 else lines


def allan_pi(q: np.ndarray, sigma1_sq, sigma2_sq, tau):
    """Allan variance of the weighted ensemble mean: q^T Gamma(tau) q / tau^2.

    For a 1-D array of intervals, one value per interval; the weight and
    the variances are checked once."""
    qv = weight_vector(q)
    s1, s2 = _variance_pair(sigma1_sq, sigma2_sq)
    taus = _intervals(tau)
    gammas = [_interval_covariance(s1, s2, t)[0] for t in taus]
    if s1.size != qv.size:
        raise ValueError(f"weight has {qv.size} entries, noise has {s1.size}")
    values = np.array([qv @ (g * qv) / t**2 for g, t in zip(gammas, taus)])
    return float(values[0]) if np.ndim(tau) == 0 else values


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


def _aligned(n: int) -> np.ndarray:
    """An uninitialized float64 array of n entries on a 64-byte line."""
    raw = np.empty(n + 8)
    return raw[(-raw.ctypes.data % 64) // 8 :][:n]


def _allan_values(h: np.ndarray, tau: float, m_set: Sequence[int]) -> np.ndarray:
    """The overlapping estimator at every m in ``m_set``, column by column.

    A contiguous column is read in place; a strided one is copied into
    one column buffer, allocated once per call, so the work is one
    column and one leaf.  An interval's second differences are formed
    and squared in place in one reused buffer of at most ``_LEAF``
    samples, leaf by leaf, and each leaf is summed by ``np.add.reduce``;
    the leaves follow numpy's own pairwise tree, so every value equals
    the one-pass ``mean`` of the squares bit for bit.  Returns one entry
    per interval for a 1-D series, one row per interval for a 2-D one.
    """
    T = h.shape[0] - 1
    columns = h.reshape(h.shape[0], -1)
    values = np.empty((len(m_set), columns.shape[1]))
    # both buffers start on a 64-byte line: numpy aligns only to 16 bytes,
    # and off a 32-byte boundary the four passes over the leaf ran about
    # 15% slower (their vector loads and stores split cache lines)
    buf = _aligned(min(T, _LEAF))
    # every column has the strides of the first
    column = None if columns[:, 0].flags.c_contiguous else _aligned(T + 1)
    # a square, a sum or a division that overflows gives inf (NaN from
    # inf - inf) without numpy's warnings; a scenario refuses to write it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(columns.shape[1]):
            c = columns[:, i]
            if column is not None:
                np.copyto(column, c)
                c = column
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


def _longest_interval(T: int) -> int:
    """Largest interval count m on T + 1 samples: T - 2 m >= 1 differences remain."""
    return (T - 1) // 2


def _default_m_grid(m_max: int) -> np.ndarray:
    if m_max <= 1:
        return np.array([1])
    # about 30 points per decade
    count = int(np.ceil(30 * np.log10(m_max))) + 1
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
    m_max = _longest_interval(h.shape[0] - 1)
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

