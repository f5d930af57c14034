"""The paper's closed forms that tests compare the library against.

This module is their one home.  The library builds each quantity one
way: ``solve_stationary`` is the only construction of the unobservable
stationary gain H_bo* and covariance P_bo*, and ``d.T`` the only forward
transform.  The forms here reach the same quantities by another route,
so a test that agrees with them checks the library, not a copy of it.

It also keeps the offline pass as it stood before its update kernel
went through ``np.dot``, prebuilt argument tuples and flat buffers that
the two filters share, and before the kernel formed the prior means:
``_blocks``, ``_buffers``, ``_kalman_update``, the decomposed
prediction ``_predict_decomposed`` and the loop of ``filter_pass``
(``reference_filter_pass`` here), verbatim, on the library's unchanged
constants and reductions.  The one exception is the prediction's input
branch, which the pass (zero input) never took: it is left out.  Every
output of the library's pass equals this one's bit for bit.
"""

from typing import Optional

import numpy as np

from eemsync import generalized_inverse, variance_vector, weight_long
from eemsync.decomp import Decomposition
from eemsync.filters import (
    _SUB,
    FilterPass,
    _determinate_constants,
    _gain_solve,
    _increments,
    _norms,
    _standard_constants,
    _sym,
)
from eemsync.models import EnsembleModel
from eemsync.simkit import reference_timescale


def _transport(d, sigma2_sq):
    """I2 kron q^T Vinf_plus, Vinf_plus the generalized inverse taken at
    the long-term weight; d must have a weight basis."""
    v_inf_plus = generalized_inverse(d.V, weight_long(sigma2_sq))
    return np.kron(np.eye(2), (d.q @ v_inf_plus)[None, :])


def unobservable_gain_from_observable(d, H_o_star, sigma2_sq):
    """H_bo* = (I2 kron q^T Vinf_plus) H_o*, which vanishes exactly when q
    is the long-term weight."""
    return _transport(d, sigma2_sq) @ H_o_star


def unobservable_covariance_from_observable(d, P_oo_star, sigma1_sq, sigma2_sq):
    """P_bo* by the same transport of P_oo*, plus the weight-independent
    offset whose only nonzero block couples the mean phase to the
    observable frequency coordinates."""
    base = _transport(d, sigma2_sq) @ P_oo_star
    offset = np.zeros_like(base)
    offset[0, d.N - 1 :] = -((weight_long(sigma2_sq) * variance_vector(sigma1_sq)) @ d.V.T)
    return base + offset


def project(x, d):
    """Split ensemble coordinates into (xi_o, xi_obar): ``x @ d.T.T`` at
    2(N-1), for one state or a stacked series."""
    xi = x @ d.T.T
    return xi[..., : 2 * (d.N - 1)], xi[..., 2 * (d.N - 1) :]


# ---------------------------------------------------------------------------
# the offline pass before its dispatch changes, verbatim


def _predict_decomposed(d: Decomposition, xi_o, xi_obar, xo_m=None, xb_m=None):
    """Prior means of the decomposed recursion at zero input, into
    ``xo_m`` / ``xb_m`` when given; the product of the coupling of a
    weight basis (exactly zero) is skipped."""
    xo_m = np.matmul(d.Ao, xi_o, out=xo_m)
    if d.q is None:
        xb_m = np.matmul(d.coupling, xi_o, out=xb_m)
        xb_m += d.A @ xi_obar
    else:
        xb_m = np.matmul(d.A, xi_obar, out=xb_m)
    return xo_m, xb_m


def _blocks(P: np.ndarray) -> tuple:
    # a stacked (n, n_top) covariance with views of its top block and carried rows
    return P, P[: P.shape[1]], P[P.shape[1] :]


def _buffers(n: int, n_top: int, p: int) -> tuple:
    """Fresh ``out`` and ``work`` of :func:`_kalman_update` for n states,
    n_top of them in the top block, and p measurements: the posterior
    mean's blocks, the stacked posterior and prior covariances with views of
    their blocks (:func:`_blocks`), and [RHS | S] as one (p, n + p) buffer
    with views of RHS, of its first block C P_top- and of S, so one
    :func:`_gain_solve` checks both for finiteness."""
    BS = np.empty((p, n + p))
    out = (np.empty(n_top), np.empty(n - n_top), *_blocks(np.empty((n, n_top))), *_blocks(np.empty((n, n_top))))
    return out, (np.empty((n, n_top)), BS, BS[:, :n], BS[:, :n_top], BS[:, n:], np.empty(p))


def _kalman_update(const, P_top, P_bot, xm_top, xm_bot, y, out, work) -> np.ndarray:
    """One step of either filter on bare arrays; returns the gain [H_top; H_bot].

    The covariance is one stacked block [P_top; P_bot]: a square top block
    and rows that ``A_bot`` carries alongside.  The standard filter is the
    case of no carried rows; the determinate filter's blocks are P_oo and
    P_bo.  ``const`` is :func:`_standard_constants` or
    :func:`_determinate_constants`; the caller forms the prior means.  Both
    blocks share A^T and C P_top-, so the product by A^T, the noise, the
    gain's right-hand side and the update H C P_top- are one call each.
    Writes into ``out`` (which must not alias the inputs) and ``work``, as
    :func:`_buffers` lays them out.
    """
    A, C, AT, CT, Q, R, A_bot, coupling = const
    x_top, x_bot, P_new, P_top_new, P_bot_new, Pm, Pm_top, Pm_bot = out
    W, BS, RHS, CP, S, innov = work
    # the left products go to the posterior's blocks, free until the update
    np.matmul(A, P_top, out=P_top_new)
    if A_bot is not None:
        np.matmul(A_bot, P_bot, out=P_bot_new)
    np.matmul(P_new, AT, out=Pm)
    if coupling is not None:
        Pm_bot += coupling @ P_top @ AT
    Pm += Q
    _sym(Pm_top, Pm_top)

    # C [P_top-; P_bot-]^T, P_top- being exactly symmetric
    np.matmul(C, Pm.T, out=RHS)
    np.matmul(CP, CT, out=S)
    S += R
    H = _gain_solve(BS, RHS, S).T

    np.matmul(H, CP, out=W)
    np.subtract(Pm, W, out=P_new)
    _sym(P_top_new, P_top_new)

    np.matmul(C, xm_top, out=innov)
    np.subtract(y, innov, out=innov)
    np.matmul(H[: len(x_top)], innov, out=x_top)
    x_top += xm_top
    if A_bot is not None:
        np.matmul(H[len(x_top) :], innov, out=x_bot)
        x_bot += xm_bot
    return H


def reference_filter_pass(
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
    ``model.meas.R``), bit for bit: both recursions run through the one
    kernel :func:`_kalman_update`, into buffers allocated once per pass,
    and both filters see zero input.  The posteriors, and the gains and
    priors that the increments need, are stored for a sub-block of 32
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
    std = _standard_constants(model)
    # the posteriors P of this step and the next, and the prior mean
    out, work = _buffers(n, n, p)
    P, xm = [_blocks(model.bigQ.copy()), out[2:5]], np.empty(n)
    Pm_rows = [out[5:]] * (_SUB + 1)  # the priors, unless stored
    eps = np.empty(T) if x is not None else None
    inc = deviation = det_inc = None
    if increments:
        inc = np.empty((T, 4))
        Hs, Pms = np.full((_SUB + 1, n, p), np.nan), np.full((_SUB + 1, n, n), np.nan)
        stored += [Hs, Pms]
        Pm_rows = [_blocks(a) for a in Pms]
    if d is not None:
        det, TinvT, n_obs = _determinate_constants(d, model.meas.R), d.Tinv.T, n - 2
        zs = np.zeros((_SUB + 1, n))  # determinate posteriors [xi_o | xi_obar]
        Hds = np.full((_SUB + 1, n, p), np.nan)  # determinate gains [H_o; H_bo]
        stored += [zs, Hds]
        z_rows = [(z[:n_obs], z[n_obs:]) for z in zs]
        # the stacked posteriors [P_oo; P_bo] of this step and the next, the
        # prior, and the prior means in out's posterior means (zs holds those)
        det_out, det_work = _buffers(n, n_obs, p)
        det_P, det_prior, det_m = [_blocks(det[4].copy()), det_out[2:5]], det_out[5:], det_out[:2]
        deviation, det_inc = np.empty(T), np.empty((T, 4))

    # a step that meets a non-finite covariance raises NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, T, _SUB):
            b = min(_SUB, T - k0)
            for j, yk in enumerate(y[k0 : k0 + b], 1):
                np.matmul(model.bigA, x_rows[j - 1], out=xm)
                H = _kalman_update(std, P[0][1], None, xm, None, yk, (x_rows[j], None, *P[1], *Pm_rows[j]), work)
                P.reverse()
                if inc is not None:
                    Hs[j] = H
                if d is not None:
                    _predict_decomposed(d, *z_rows[j - 1], *det_m)
                    out = (*z_rows[j], *det_P[1], *det_prior)
                    Hds[j] = _kalman_update(det, *det_P[0][1:], *det_m, yk, out, det_work)
                    det_P.reverse()

            rows, xhat = slice(k0, k0 + b), xs[1 : b + 1]
            if eps is not None:
                eps[rows] = reference_timescale(x[rows] - xhat, N)
            if inc is not None:
                _increments(inc[rows, :2], Hs[: b + 1])
                _increments(inc[rows, 2:], Pms[: b + 1])
            if d is not None:
                _increments(det_inc[rows, :2], Hds[: b + 1, :n_obs])
                _increments(det_inc[rows, 2:], Hds[: b + 1, n_obs:])
                # reconstruct_state(xi_o, xi_obar, d) with one gemv per row
                gap = (zs[1 : b + 1, None] @ TinvT)[:, 0]
                gap -= xhat
                deviation[rows] = _norms(gap) / np.maximum(_norms(xhat), 1e-300)
            for a in stored:
                a[0] = a[b]
    return FilterPass(eps=eps, increments=inc, deviation=deviation, det_increments=det_inc)
