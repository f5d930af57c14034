"""Kalman filters for the clock ensemble.

Three variants share one model: the standard full-state filter (whose
covariance diverges along the unobservable subspace while its gain still
converges), the determinate decomposed filter (which never forms the
diverging block), and the stationary filter running on precomputed
fixed-point gains, which a structure-preserving doubling solve finds in
about twenty steps.  The module also provides the weight-transport
shortcuts that express the unobservable gain and covariance of an
arbitrary weight basis through the observable solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional, Tuple

import numpy as np

from .allan import variance_vector, weight_long
from .decomp import Decomposition, generalized_inverse
from .errors import ConvergenceError, NumericalError
from .models import EnsembleModel
from .simkit import BLOCK

__all__ = [
    "StandardKFState",
    "DeterminateKFState",
    "StationaryGains",
    "standard_kf_init",
    "standard_kf_step",
    "determinate_kf_init",
    "determinate_kf_step",
    "FilterPass",
    "filter_pass",
    "solve_stationary",
    "stationary_kf_step",
    "unobservable_gain_from_observable",
    "unobservable_covariance_from_observable",
]

InputPair = Optional[Tuple[np.ndarray, float]]


def _sym(P: np.ndarray) -> np.ndarray:
    # symmetrize after every update to suppress drift: 0.5 * (P + P.T)
    out = P + P.T
    out *= 0.5
    return out


def _check_finite(a: np.ndarray, what: str) -> None:
    # count_nonzero stays in C; ndarray.all() goes through a Python wrapper
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NumericalError(f"{what} is not finite")


@cache
def lapack_cholesky():
    """LAPACK ``(dpotrf, dpotrs)`` from SciPy, imported on first use (an
    ``ImportError`` without SciPy): only the per-step filter updates need
    them, and importing SciPy costs more than the rest of eemsync."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    return dpotrf, dpotrs


def _cho_factor(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of S from LAPACK potrf, as ``cho_factor`` computes it."""
    _check_finite(S, "innovation covariance")
    dpotrf, _ = lapack_cholesky()
    factor, info = dpotrf(S, lower=1, clean=0)
    if info:
        raise NumericalError("innovation covariance is not positive definite")
    return factor


def _cho_solve(factor: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve S X = B from the factor of :func:`_cho_factor` (LAPACK potrs)."""
    _check_finite(B, "gain right-hand side")
    _, dpotrs = lapack_cholesky()
    X, _ = dpotrs(factor, B, lower=1)
    return X


def _spd_solve_gain(S: np.ndarray, CP: np.ndarray) -> np.ndarray:
    """Gain P C^T S^{-1} computed as solve(S, C P)^T via a PD factorization."""
    return _cho_solve(_cho_factor(S), CP).T


def _spd_solve(S: np.ndarray, B: np.ndarray, what: str = "innovation covariance") -> np.ndarray:
    """S^{-1} B through numpy alone, for the cold stationary solve: a
    Cholesky factorization checks that S is positive definite."""
    _check_finite(S, what)
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite") from exc
    return np.linalg.solve(S, B)


def _fro(a: np.ndarray) -> float:
    # what np.linalg.norm(a, "fro") (or the 2-norm of a vector) computes
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _input_pair(omega_prev: InputPair, n_obs_inputs: int) -> Tuple[np.ndarray, float]:
    omega_o, omega_obar = omega_prev
    omega_o = np.asarray(omega_o, dtype=float)
    if omega_o.shape != (n_obs_inputs,):
        raise ValueError(
            f"omega_o must have shape ({n_obs_inputs},), got {omega_o.shape}"
        )
    return omega_o, float(omega_obar)


# ---------------------------------------------------------------------------
# standard full-state filter


@dataclass
class StandardKFState:
    """Full-state filter state.

    ``xhat`` / ``P`` hold the posterior consumed by the next predict;
    ``xhat_minus`` / ``P_minus`` / ``H`` record the prior and gain of the
    latest step (``None`` until the first step runs).
    """

    xhat: np.ndarray
    P: np.ndarray
    xhat_minus: Optional[np.ndarray] = None
    P_minus: Optional[np.ndarray] = None
    H: Optional[np.ndarray] = None


def standard_kf_init(model: EnsembleModel) -> StandardKFState:
    """Initial state: zero estimate, one-step process covariance."""
    return StandardKFState(xhat=np.zeros(2 * model.N), P=model.bigQ.copy())


def _standard_update(model: EnsembleModel, xhat, P, u_prev, y):
    """One cycle of the five-line recursion on bare arrays.

    Returns the fields of :class:`StandardKFState` in order; ``u_prev`` is
    a float array or ``None``, whose zero input product is skipped.
    """
    bigA, bigC = model.bigA, model.bigC
    xm = bigA @ xhat
    if u_prev is not None:
        xm += model.bigB @ u_prev
    Pm = bigA @ P @ bigA.T
    Pm += model.bigQ
    Pm = _sym(Pm)

    CP = bigC @ Pm
    S = CP @ bigC.T
    S += model.meas.R
    H = _spd_solve_gain(S, CP)

    P = H @ CP
    np.subtract(Pm, P, out=P)
    innov = bigC @ xm
    np.subtract(y, innov, out=innov)
    xhat = H @ innov
    xhat += xm
    return xhat, _sym(P), xm, Pm, H


def standard_kf_step(
    model: EnsembleModel,
    state: StandardKFState,
    u_prev: Optional[np.ndarray],
    y: np.ndarray,
) -> StandardKFState:
    """One cycle of the five-line recursion.

    ``u_prev`` is the input applied at the previous step (``None`` reads
    as zero); ``y`` is the current relative measurement.  A non-finite
    or indefinite innovation covariance raises :class:`NumericalError`.
    """
    if u_prev is not None:
        u_prev = np.asarray(u_prev, dtype=float)
    return StandardKFState(
        *_standard_update(model, state.xhat, state.P, u_prev, np.asarray(y, dtype=float))
    )


# ---------------------------------------------------------------------------
# determinate decomposed filter


@dataclass
class DeterminateKFState:
    """Decomposed filter state; the unobservable-unobservable covariance
    block never appears.

    ``xi_o_hat`` / ``xi_obar_hat`` are the prior estimates of the latest
    step, as propagated by the decomposed recursion; the ``*_post``
    fields hold the matching posteriors (consumed by the next predict).
    ``P_oo`` / ``P_bo`` are posterior covariances; the stationary step
    leaves every covariance and gain field ``None``.
    """

    xi_o_post: Optional[np.ndarray] = None
    xi_obar_post: Optional[np.ndarray] = None
    P_oo: Optional[np.ndarray] = None
    P_bo: Optional[np.ndarray] = None
    xi_o_hat: Optional[np.ndarray] = None
    xi_obar_hat: Optional[np.ndarray] = None
    P_oo_minus: Optional[np.ndarray] = None
    P_bo_minus: Optional[np.ndarray] = None
    H_o: Optional[np.ndarray] = None
    H_bo: Optional[np.ndarray] = None


def determinate_kf_init(d: Decomposition) -> DeterminateKFState:
    """Initial state matching the standard filter's initialization.

    With a zero estimate, P_oo = Qo and P_bo = Qbo this corresponds
    exactly to the standard filter started from P = bigQ, so the two
    recursions stay equivalent step by step.
    """
    return DeterminateKFState(
        xi_o_post=np.zeros(2 * (d.N - 1)),
        xi_obar_post=np.zeros(2),
        P_oo=d.Qo.copy(),
        P_bo=d.Qbo.copy(),
    )


def _predict_decomposed(d: Decomposition, xi_o, xi_obar, omega_prev: InputPair):
    """Prior means of the decomposed recursion; the products of a zero
    input (``None``) and of the coupling of a weight basis (exactly zero)
    are skipped."""
    xo_m = d.Ao @ xi_o
    if d.q is None:
        xb_m = d.coupling @ xi_o
        xb_m += d.A @ xi_obar
    else:
        xb_m = d.A @ xi_obar
    if omega_prev is not None:
        omega_o, omega_obar = _input_pair(omega_prev, d.N - 1)
        xo_m += d.Bo @ omega_o
        xb_m += d.B * omega_obar
    return xo_m, xb_m


def _determinate_update(d: Decomposition, R, xi_o, xi_obar, P_oo, P_bo, omega_prev, y):
    """One cycle of the five-block recursion on bare arrays.

    Returns the fields of :class:`DeterminateKFState` in order.
    """
    Ao, Co = d.Ao, d.Co
    xo_m, xb_m = _predict_decomposed(d, xi_o, xi_obar, omega_prev)
    Poo_m = Ao @ P_oo @ Ao.T
    Poo_m += d.Qo
    Poo_m = _sym(Poo_m)
    if d.q is None:
        Pbo_m = d.coupling @ P_oo @ Ao.T
        Pbo_m += d.A @ P_bo @ Ao.T
    else:
        Pbo_m = d.A @ P_bo @ Ao.T
    Pbo_m += d.Qbo

    CP = Co @ Poo_m
    S = CP @ Co.T
    S += R
    # both gains from one potrs over [C P_oo- | C P_bo-^T]
    HT = _cho_solve(_cho_factor(S), np.concatenate((CP, Co @ Pbo_m.T), axis=1))
    n_obs = CP.shape[1]
    H_o, H_bo = HT[:, :n_obs].T, HT[:, n_obs:].T

    P_oo = H_o @ CP
    np.subtract(Poo_m, P_oo, out=P_oo)
    P_bo = H_bo @ CP
    np.subtract(Pbo_m, P_bo, out=P_bo)

    innov = Co @ xo_m
    np.subtract(y, innov, out=innov)
    xi_o = H_o @ innov
    xi_o += xo_m
    xi_obar = H_bo @ innov
    xi_obar += xb_m
    return xi_o, xi_obar, _sym(P_oo), P_bo, xo_m, xb_m, Poo_m, Pbo_m, H_o, H_bo


def determinate_kf_step(
    d: Decomposition,
    R: np.ndarray,
    state: DeterminateKFState,
    omega_prev: InputPair,
    y: np.ndarray,
) -> DeterminateKFState:
    """One cycle of the five-block decomposed recursion.

    ``omega_prev`` is the decomposed input pair (omega_o, omega_obar)
    applied at the previous step, or ``None`` for zero input.  The
    coupling block links the observable state into the unobservable
    prediction; for weight bases it is exactly zero and skipped.  A
    non-finite or indefinite innovation covariance raises
    :class:`NumericalError`.
    """
    return DeterminateKFState(
        *_determinate_update(
            d,
            R,
            state.xi_o_post,
            state.xi_obar_post,
            state.P_oo,
            state.P_bo,
            omega_prev,
            np.asarray(y, dtype=float),
        )
    )


# ---------------------------------------------------------------------------
# offline pass


@dataclass(frozen=True)
class FilterPass:
    """Per-step results of one :func:`filter_pass` (row k is step k).

    ``eps`` is the reference time-scale error of the standard posterior
    (with ``x``).  ``increments`` (with ``increments=True``) holds the
    Frobenius norms [|H_k - H_k-1|, |H_k|, |P-_k - P-_k-1|, |P-_k|] of the
    standard gain and prior covariance; ``det_increments`` (with ``d``)
    holds [|H_o,k - H_o,k-1|, |H_o,k|, |H_bo,k - H_bo,k-1|, |H_bo,k|] of
    the determinate gains.  Row 0 has no previous step, so its increments
    are NaN.  ``deviation`` (with ``d``) is the Lemma-1 relative deviation
    |reconstructed determinate posterior - standard posterior| / |standard
    posterior|.
    """

    eps: Optional[np.ndarray] = None
    increments: Optional[np.ndarray] = None
    deviation: Optional[np.ndarray] = None
    det_increments: Optional[np.ndarray] = None


def _increment_row(row: np.ndarray, k: int, a, a_prev, b, b_prev) -> None:
    row[1], row[3] = _fro(a), _fro(b)
    if k == 0:
        row[0] = row[2] = np.nan
    else:
        row[0], row[2] = _fro(a - a_prev), _fro(b - b_prev)


def filter_pass(
    model: EnsembleModel,
    y: np.ndarray,
    x: Optional[np.ndarray] = None,
    d: Optional[Decomposition] = None,
    increments: bool = False,
) -> FilterPass:
    """Run the standard filter from :func:`standard_kf_init` over the
    measurements ``y`` (T rows) of a free run and reduce every step as it
    goes.

    The steps are those of :func:`standard_kf_step` (and, with ``d``,
    :func:`determinate_kf_step` from :func:`determinate_kf_init` on
    ``model.meas.R``), bit for bit, but no state object is built per step
    and posteriors are held for one block of at most 4096 steps at a time.
    Both filters see zero input.  ``x`` holds the true states, which
    ``eps`` is measured against.
    """
    y = np.asarray(y, dtype=float)
    T, N = y.shape[0], model.N
    xhat, P = np.zeros(2 * N), model.bigQ.copy()
    H = Pm = None
    eps = None
    if x is not None:
        eps = np.empty(T)
        phases = np.empty((min(T, BLOCK), N))  # posterior phases of one block
    inc = np.empty((T, 4)) if increments else None
    deviation = det_inc = None
    if d is not None:
        R = model.meas.R
        n_obs = 2 * (N - 1)
        xi_o, xi_obar, P_oo, P_bo = np.zeros(n_obs), np.zeros(2), d.Qo.copy(), d.Qbo.copy()
        H_o = H_bo = None
        TinvT = d.Tinv.T
        z = np.empty(2 * N)
        deviation = np.empty(T)
        det_inc = np.empty((T, 4))

    for k in range(T):
        prev = (H, Pm)
        xhat, P, _, Pm, H = _standard_update(model, xhat, P, None, y[k])
        if eps is not None:
            i = k % BLOCK
            phases[i] = xhat[:N]
            if i == len(phases) - 1 or k == T - 1:
                # reference_timescale(x[k] - xhat) row by row: each row is
                # summed alone, as the 1-D sum of one step would be
                k0 = k - i
                eps[k0 : k + 1] = np.add.reduce(x[k0 : k + 1, :N] - phases[: i + 1], axis=1) / N
        if inc is not None:
            _increment_row(inc[k], k, H, prev[0], Pm, prev[1])
        if d is not None:
            prev = (H_o, H_bo)
            out = _determinate_update(d, R, xi_o, xi_obar, P_oo, P_bo, None, y[k])
            xi_o, xi_obar, P_oo, P_bo = out[:4]
            H_o, H_bo = out[8:]
            _increment_row(det_inc[k], k, H_o, prev[0], H_bo, prev[1])
            # reconstruct_state(xi_o, xi_obar, d), one row at a time
            z[:n_obs] = xi_o
            z[n_obs:] = xi_obar
            gap = z @ TinvT
            gap -= xhat
            deviation[k] = _fro(gap) / max(_fro(xhat), 1e-300)

    return FilterPass(eps=eps, increments=inc, deviation=deviation, det_increments=det_inc)


# ---------------------------------------------------------------------------
# stationary gains and filter


@dataclass(frozen=True)
class StationaryGains:
    """Fixed point of the decomposed covariance recursion."""

    P_oo_star: np.ndarray
    P_bo_star: np.ndarray
    H_o_star: np.ndarray
    H_bo_star: np.ndarray
    residual_oo: float          # relative residual of the observable equation
    residual_bo: float          # relative residual of the cross equation
    iterations: int
    spectral_radius: float      # rho(Ao (I - H_o_star Co)), < 1 at a valid fixed point


# relative Frobenius increment at which the stationary solve stops, and
# the doublings it may take to get there (about twenty at N = 10)
_STATIONARY_TOL = 1e-13
_MAX_DOUBLINGS = 64


def solve_stationary(d: Decomposition, R: np.ndarray) -> StationaryGains:
    """Stationary covariances and gains for one decomposition.

    The observable prior covariance solves the filter Riccati equation by
    structure-preserving doubling (Chu, Fan & Lin, 2005), always from
    zero: doubling k yields the covariance recursion's 2^k-th iterate, so
    ``iterations`` counts doublings (at most 64) until the
    relative Frobenius increment drops to 1e-13.  That takes about twenty
    doublings and a few milliseconds at N = 10; the observable fixed
    point does not depend on the weight.  The cross covariance then
    solves a linear system of dimension 4(N-1) by vectorization.  Both
    fixed-point residuals are checked before returning.
    """
    n_obs = 2 * (d.N - 1)
    R = np.asarray(R, dtype=float)
    R_inv_Co = _spd_solve(R, d.Co, "measurement noise covariance")

    def advance(P_prior: np.ndarray) -> np.ndarray:
        CP = d.Co @ P_prior
        H = _spd_solve(CP @ d.Co.T + R, CP).T
        return _sym(d.Ao @ (P_prior - H @ CP) @ d.Ao.T + d.Qo)

    def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.linalg.norm(a - b, "fro") / max(np.linalg.norm(a, "fro"), 1e-300))

    # doubling for X = A^T X (I + G X)^{-1} A + H with A = Ao^T, G = Co^T R^{-1} Co, H = Qo
    A, G, P = d.Ao.T, _sym(d.Co.T @ R_inv_Co), d.Qo
    rel = np.inf
    for iterations in range(1, _MAX_DOUBLINGS + 1):
        try:
            WA, WG = np.hsplit(np.linalg.solve(np.eye(n_obs) + G @ P, np.hstack([A, G])), 2)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("doubling step: I + G H is singular") from exc
        P_next = _sym(P + A.T @ P @ WA)
        G, A = _sym(G + A @ WG @ A.T), A @ WA
        rel, P = rel_diff(P_next, P), P_next
        if rel <= _STATIONARY_TOL:
            break
    else:
        raise ConvergenceError(
            f"observable covariance did not converge in {_MAX_DOUBLINGS} doublings "
            f"(last relative increment {rel:.3e})"
        )

    CP = d.Co @ P
    S = CP @ d.Co.T + R
    H_o = _spd_solve(S, CP).T
    gain_complement = np.eye(n_obs) - H_o @ d.Co
    Z = d.Ao @ gain_complement

    # cross equation P_bo = A P_bo Z^T + X, solved by column-major vectorization
    X = d.Qbo if d.q is not None else d.Qbo + d.coupling @ P @ gain_complement.T @ d.Ao.T
    M = np.eye(4 * (d.N - 1)) - np.kron(Z, d.A)
    try:
        vec = np.linalg.solve(M, X.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "vectorized cross-covariance system is singular; the observable "
            "closed loop is not contractive"
        ) from exc
    P_bo = vec.reshape((2, n_obs), order="F")
    H_bo = _spd_solve(S, d.Co @ P_bo.T).T

    residual_oo = rel_diff(P, advance(P))
    residual_bo = rel_diff(P_bo, d.A @ P_bo @ Z.T + X)
    if residual_oo > 1e-10 or residual_bo > 1e-10:
        raise ConvergenceError(
            f"stationary solution failed its fixed-point residual check "
            f"(observable {residual_oo:.3e}, cross {residual_bo:.3e})"
        )

    rho = float(np.max(np.abs(np.linalg.eigvals(Z))))
    return StationaryGains(
        P_oo_star=P,
        P_bo_star=P_bo,
        H_o_star=H_o,
        H_bo_star=H_bo,
        residual_oo=residual_oo,
        residual_bo=residual_bo,
        iterations=iterations,
        spectral_radius=rho,
    )


def stationary_kf_step(
    d: Decomposition,
    g: StationaryGains,
    state: DeterminateKFState,
    omega_prev: InputPair,
    y: np.ndarray,
) -> DeterminateKFState:
    """``determinate_kf_step`` with the gains frozen at the fixed point.

    Same state and ordering: predict from the stored posterior with the
    previous input, then update with ``y``.  The covariance fields stay
    ``None`` because the gains hold them.
    """
    xo_m, xb_m = _predict_decomposed(d, state.xi_o_post, state.xi_obar_post, omega_prev)
    innov = d.Co @ xo_m
    np.subtract(np.asarray(y, dtype=float), innov, out=innov)
    xi_o = g.H_o_star @ innov
    xi_o += xo_m
    xi_obar = g.H_bo_star @ innov
    xi_obar += xb_m
    return DeterminateKFState(
        xi_o_post=xi_o,
        xi_obar_post=xi_obar,
        xi_o_hat=xo_m,
        xi_obar_hat=xb_m,
    )


# ---------------------------------------------------------------------------
# weight-transport shortcuts for the unobservable part


def _transport(d: Decomposition, sigma2_sq: np.ndarray) -> np.ndarray:
    if d.q is None:
        raise ValueError("the weight-transport shortcuts require a weight basis")
    q_inf = weight_long(sigma2_sq)
    v_inf_plus = generalized_inverse(d.V, q_inf)
    return np.kron(np.eye(2), (d.q @ v_inf_plus)[None, :])


def unobservable_gain_from_observable(
    d: Decomposition, H_o_star: np.ndarray, sigma2_sq: np.ndarray
) -> np.ndarray:
    """Unobservable stationary gain without solving the cross equation.

    H_bo_star = (I2 kron q^T Vinf_plus) H_o_star, where Vinf_plus is the
    generalized inverse taken at the long-term weight.  Vanishes exactly
    when q equals that weight.
    """
    return _transport(d, sigma2_sq) @ np.asarray(H_o_star, dtype=float)


def unobservable_covariance_from_observable(
    d: Decomposition,
    P_oo_star: np.ndarray,
    sigma1_sq: np.ndarray,
    sigma2_sq: np.ndarray,
) -> np.ndarray:
    """Unobservable stationary cross covariance by weight transport.

    Adds the weight-independent offset whose only nonzero block couples
    the mean phase to the observable frequency coordinates.
    """
    base = _transport(d, sigma2_sq) @ np.asarray(P_oo_star, dtype=float)
    q_inf = weight_long(sigma2_sq)
    offset = np.zeros_like(base)
    offset[0, d.N - 1 :] = -((q_inf * variance_vector(sigma1_sq)) @ d.V.T)
    return base + offset

