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

from dataclasses import dataclass
from functools import cache
from typing import Optional, Tuple

import numpy as np

from .allan import variance_vector, weight_long
from .decomp import Decomposition, generalized_inverse
from .errors import ConvergenceError, NumericalError
from .models import EnsembleModel

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


def _sym(P: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # symmetrize after every update to suppress drift: 0.5 * (P + P.T)
    out = np.add(P, P.T, out=out)
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


def _norms(a: np.ndarray) -> np.ndarray:
    # np.linalg.norm(a[i], "fro") (or the 2-norm of a vector) for each i:
    # the sqrt of one ddot over a[i] in memory order, the same call per row
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel()


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


def _standard_update(model: EnsembleModel, xhat, P, u_prev, y, out=(None,) * 4, work=(None,) * 4):
    """One cycle of the five-line recursion on bare arrays.

    Returns the fields of :class:`StandardKFState` in order, written into
    the caller's ``out`` (which must not alias ``xhat`` or ``P``) and
    workspace ``work`` as :func:`filter_pass` allocates them, or into new
    arrays for each ``None``; ``u_prev`` is a float array or ``None``,
    whose zero input product is skipped.
    """
    bigA, bigC = model.bigA, model.bigC
    (xhat_new, P_new, xm, Pm), (W, CP, S, innov) = out, work
    xm = np.matmul(bigA, xhat, out=xm)
    if u_prev is not None:
        xm += model.bigB @ u_prev
    W = np.matmul(np.matmul(bigA, P, out=P_new), bigA.T, out=W)
    W += model.bigQ
    Pm = _sym(W, Pm)

    CP = np.matmul(bigC, Pm, out=CP)
    S = np.matmul(CP, bigC.T, out=S)
    S += model.meas.R
    H = _spd_solve_gain(S, CP)

    W = np.matmul(H, CP, out=W)
    P_new = _sym(np.subtract(Pm, W, out=W), P_new)
    innov = np.matmul(bigC, xm, out=innov)
    np.subtract(y, innov, out=innov)
    xhat_new = np.matmul(H, innov, out=xhat_new)
    xhat_new += xm
    return xhat_new, P_new, xm, Pm, H


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


def _predict_decomposed(d: Decomposition, xi_o, xi_obar, omega_prev: InputPair, xo_m=None, xb_m=None):
    """Prior means of the decomposed recursion, into ``xo_m`` / ``xb_m``
    when given; the products of a zero input (``None``) and of the
    coupling of a weight basis (exactly zero) are skipped."""
    xo_m = np.matmul(d.Ao, xi_o, out=xo_m)
    if d.q is None:
        xb_m = np.matmul(d.coupling, xi_o, out=xb_m)
        xb_m += d.A @ xi_obar
    else:
        xb_m = np.matmul(d.A, xi_obar, out=xb_m)
    if omega_prev is not None:
        omega_o, omega_obar = _input_pair(omega_prev, d.N - 1)
        xo_m += d.Bo @ omega_o
        xb_m += d.B * omega_obar
    return xo_m, xb_m


def _determinate_update(
    d: Decomposition, R, xi_o, xi_obar, P_oo, P_bo, omega_prev, y, out=(None,) * 8, work=(None,) * 5
):
    """One cycle of the five-block recursion on bare arrays.

    Returns the fields of :class:`DeterminateKFState` in order, written
    like :func:`_standard_update`'s into the caller's buffers or into new
    arrays.
    """
    Ao, Co, AoT, n_obs = d.Ao, d.Co, d.Ao.T, len(xi_o)
    xi_o_new, xi_obar_new, P_oo_new, P_bo_new, xo_m, xb_m, Poo_m, Pbo_m = out
    W, W_bo, rhs, S, innov = work
    xo_m, xb_m = _predict_decomposed(d, xi_o, xi_obar, omega_prev, xo_m, xb_m)
    W = np.matmul(np.matmul(Ao, P_oo, out=P_oo_new), AoT, out=W)
    W += d.Qo
    Poo_m = _sym(W, Poo_m)
    Pbo_m = np.matmul(np.matmul(d.A, P_bo, out=W_bo), AoT, out=Pbo_m)
    if d.q is None:
        Pbo_m += np.matmul(np.matmul(d.coupling, P_oo, out=W_bo), AoT, out=P_bo_new)
    Pbo_m += d.Qbo

    # both gains from one potrs over [C P_oo- | C P_bo-^T]
    rhs = np.empty((len(y), n_obs + 2)) if rhs is None else rhs
    CP = np.matmul(Co, Poo_m, out=rhs[:, :n_obs])
    S = np.matmul(CP, Co.T, out=S)
    S += R
    np.matmul(Co, Pbo_m.T, out=rhs[:, n_obs:])
    HT = _cho_solve(_cho_factor(S), rhs)
    H_o, H_bo = HT[:, :n_obs].T, HT[:, n_obs:].T

    W = np.matmul(H_o, CP, out=W)
    P_oo_new = _sym(np.subtract(Poo_m, W, out=W), P_oo_new)
    P_bo_new = np.matmul(H_bo, CP, out=P_bo_new)
    np.subtract(Pbo_m, P_bo_new, out=P_bo_new)

    innov = np.matmul(Co, xo_m, out=innov)
    np.subtract(y, innov, out=innov)
    xi_o_new = np.matmul(H_o, innov, out=xi_o_new)
    xi_o_new += xo_m
    xi_obar_new = np.matmul(H_bo, innov, out=xi_obar_new)
    xi_obar_new += xb_m
    return xi_o_new, xi_obar_new, P_oo_new, P_bo_new, xo_m, xb_m, Poo_m, Pbo_m, H_o, H_bo


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
    posterior|.  Rows are formed per 32-step sub-block, as each step would
    give them alone.
    """

    eps: Optional[np.ndarray] = None
    increments: Optional[np.ndarray] = None
    deviation: Optional[np.ndarray] = None
    det_increments: Optional[np.ndarray] = None


# steps per sub-block of filter_pass: what its reductions read is stored
# for one sub-block (under 250 KB at N = 10) and reduced at its end
_SUB = 32


def _increments(out: np.ndarray, a: np.ndarray) -> None:
    # out[j - 1] = [|a_j - a_j-1|, |a_j|] of the stored a[1:], a[0] being the step before
    out[:, 0] = _norms(a[1:] - a[:-1])
    out[:, 1] = _norms(a[1:])


def filter_pass(
    model: EnsembleModel,
    y: np.ndarray,
    x: Optional[np.ndarray] = None,
    d: Optional[Decomposition] = None,
    increments: bool = False,
) -> FilterPass:
    """Run the standard filter from :func:`standard_kf_init` over the
    measurements ``y`` (T rows) of a free run, with ``x`` its true states.

    The steps are those of :func:`standard_kf_step` (and, with ``d``,
    :func:`determinate_kf_step` from :func:`determinate_kf_init` on
    ``model.meas.R``), bit for bit, written into buffers allocated once
    per pass; both filters see zero input.  The posteriors, and the gains
    and priors that the increments need, are stored for a sub-block of 32
    steps, whose rows of every output are then formed together by batched
    products that give the per-step values bit for bit.
    """
    y = np.asarray(y, dtype=float)
    T, N = y.shape[0], model.N
    n, p = 2 * N, N - 1
    # slot 0 of a store holds the step before the sub-block (NaN gains and
    # priors before step 0: no increment); steps index lists of row views
    xs = np.zeros((_SUB + 1, n))  # standard posteriors
    stored, x_rows = [xs], list(xs)
    P = model.bigQ.copy()
    P_next, xm, Pm, *work = (np.empty(s) for s in ((n, n), n, (n, n), (n, n), (p, n), (p, p), p))
    Pm_rows = [Pm] * (_SUB + 1)  # the priors, unless stored
    eps = np.empty(T) if x is not None else None
    inc = deviation = det_inc = None
    if increments:
        inc = np.empty((T, 4))
        Hs, Pms = np.full((_SUB + 1, n, p), np.nan), np.full((_SUB + 1, n, n), np.nan)
        stored += [Hs, Pms]
        Pm_rows = list(Pms)
    if d is not None:
        R, TinvT, n_obs = model.meas.R, d.Tinv.T, n - 2
        zs = np.zeros((_SUB + 1, n))  # determinate posteriors [xi_o | xi_obar]
        Hos, Hbos = np.full((_SUB + 1, n_obs, p), np.nan), np.full((_SUB + 1, 2, p), np.nan)
        stored += [zs, Hos, Hbos]
        z_rows = [(z[:n_obs], z[n_obs:]) for z in zs]
        P_oo, P_bo = d.Qo.copy(), d.Qbo.copy()
        P_oo_next, P_bo_next = np.empty((n_obs, n_obs)), np.empty((2, n_obs))
        det_prior = tuple(np.empty(s) for s in (n_obs, 2, (n_obs, n_obs), (2, n_obs)))
        det_work = tuple(np.empty(s) for s in ((n_obs, n_obs), (2, n_obs), (p, n), (p, p), p))
        deviation, det_inc = np.empty(T), np.empty((T, 4))

    for k0 in range(0, T, _SUB):
        b = min(_SUB, T - k0)
        for j, yk in enumerate(y[k0 : k0 + b], 1):
            out = (x_rows[j], P_next, xm, Pm_rows[j])
            H = _standard_update(model, x_rows[j - 1], P, None, yk, out, work)[4]
            P, P_next = P_next, P
            if inc is not None:
                Hs[j] = H
            if d is not None:
                out = (*z_rows[j], P_oo_next, P_bo_next, *det_prior)
                out = _determinate_update(d, R, *z_rows[j - 1], P_oo, P_bo, None, yk, out, det_work)
                P_oo, P_oo_next, P_bo, P_bo_next = P_oo_next, P_oo, P_bo_next, P_bo
                Hos[j], Hbos[j] = out[8:]

        rows, xhat = slice(k0, k0 + b), xs[1 : b + 1]
        if eps is not None:
            # reference_timescale(x[k] - xhat) row by row: each row is
            # summed alone, as the 1-D sum of one step would be
            eps[rows] = np.add.reduce(x[rows, :N] - xhat[:, :N], axis=1) / N
        if inc is not None:
            _increments(inc[rows, :2], Hs[: b + 1])
            _increments(inc[rows, 2:], Pms[: b + 1])
        if d is not None:
            _increments(det_inc[rows, :2], Hos[: b + 1])
            _increments(det_inc[rows, 2:], Hbos[: b + 1])
            # reconstruct_state(xi_o, xi_obar, d) with one gemv per row
            gap = (zs[1 : b + 1, None] @ TinvT)[:, 0]
            gap -= xhat
            deviation[rows] = _norms(gap) / np.maximum(_norms(xhat), 1e-300)
        for a in stored:
            a[0] = a[b]
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

