"""Kalman filters for the clock ensemble.

Two recursions share one model: the standard full-state filter (whose
covariance diverges along the unobservable subspace while its gain still
converges) and the determinate decomposed filter (which never forms the
diverging block).  One update kernel, ``_kalman_update``, serves both:
the standard filter is its case with no carried rows.  Every step forms
its gain by one LAPACK ``posv`` (``_gain_solve``).  At ten clocks the
operands are at most 20 x 20, where numpy's call dispatch costs more
than the arithmetic, so the kernel reaches numpy through its cheapest
entry points: ``np.dot`` with a positional ``out`` for every product,
ufuncs with a positional ``out``, and views and argument tuples built
once per step function call or per ``filter_pass`` sub-block slot.
Every product keeps the operands and order it had under ``np.matmul``,
so the outputs are that kernel's bit for bit (``tests/oracles.py`` keeps
it).  ``filter_pass`` runs both over a whole measurement series, and
takes the reference time-scale error from
``eemsync.simkit.reference_timescale``.  ``solve_stationary`` finds the
decomposed filter's fixed-point gains by a structure-preserving doubling
solve in about twenty steps; the stationary filter that runs on them is
the observer step of ``eemsync.control.closed_loop`` (and of
``EemPolicy``).  It is the one construction of the unobservable
stationary gain and covariance H_bo* and P_bo*; the paper's closed forms
for them, by weight transport of the observable solution, are the tests'
oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Optional, Tuple

import numpy as np

from .decomp import Decomposition
from .errors import ConvergenceError, NumericalError
from .models import EnsembleModel
from .simkit import reference_timescale

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
]

InputPair = Optional[Tuple[np.ndarray, float]]


def _sym(P: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # symmetrize after every update to suppress drift: 0.5 * (P + P.T), the
    # transpose copied contiguous first (cheaper than adding the strided
    # view, same values), which also lets ``out`` be ``P``
    out = np.add(P, P.T.copy(), out=out)
    out *= 0.5
    return out


def _check_finite(a: np.ndarray, what: str) -> None:
    # count_nonzero stays in C; ndarray.all() goes through a Python wrapper
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NumericalError(f"{what} is not finite")


@cache
def lapack_cholesky():
    """LAPACK ``dposv`` (Cholesky factorization and solve in one call)
    from SciPy's LAPACK extension ``scipy.linalg._flapack``, loaded on
    first use: only the per-step filter updates need it.

    The extension is loaded straight from the installed ``scipy``
    package, without running ``scipy/linalg/__init__.py``, which would
    import about 285 more modules (``numpy.f2py``, ``numpy.testing``,
    ...) and double an offline run's start-up.  The routine is the very
    object ``scipy.linalg.lapack.dposv``.  Raises ``ImportError`` without
    SciPy, and one naming the extension when the package lacks it.
    """
    import scipy

    name = "scipy.linalg._flapack"
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"SciPy's LAPACK extension {name} is not in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dposv


def _gain_solve(BS: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """X = S^{-1} B by one LAPACK posv (the ``potrf`` + ``potrs`` of
    ``cho_factor``/``cho_solve``); X^T is the gain.

    ``BS`` holds both B and S (the kernel's one flat buffer, of which
    they are views, or any [B | S]), so one finiteness check covers both.
    Its failure is named as two separate checks would name it: a non-finite S
    first, then an S that is not positive definite (whatever B holds),
    then a non-finite B.
    """
    finite = np.count_nonzero(np.isfinite(BS)) == BS.size
    if not finite:
        _check_finite(S, "innovation covariance")
    _, X, info = lapack_cholesky()(S, B, lower=1)
    if info:
        raise NumericalError("innovation covariance is not positive definite")
    if not finite:
        raise NumericalError("gain right-hand side is not finite")
    return X


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


def _transposes(*mats: np.ndarray) -> tuple:
    # constant right factors copied C-contiguous once: a product reads them
    # faster than a transposed view.  The values are the same when the
    # factor's entries are 0 and +-1 (star V's bigC, the decomposed Co);
    # for a dense V, CP @ C.T and CP @ C.T.copy() can differ in the last bit
    return tuple(m.T.copy() for m in mats)


# the 0.5 of the symmetrization as a 0-d array, which numpy would otherwise
# build from the Python float on every multiply
_HALF = np.array(0.5)
_HALF.flags.writeable = False


def _buffers(n: int, n_top: int, p: int) -> tuple:
    """Fresh ``out`` and ``work`` of :func:`_kalman_update` for n states,
    n_top of them in the top block, and p measurements.  ``out`` is the
    posterior mean's two blocks and the stacked (n, n_top) posterior and
    prior covariances.  ``work`` is W = H C P_top- and its top block; one
    flat buffer holding the gain's right-hand side RHS (p, n) and S (p, p)
    as C-contiguous views, so one :func:`_gain_solve` checks both for
    finiteness; RHS, its first block C P_top- and S; and the innovation."""
    flat, W = np.empty(p * (n + p)), np.empty((n, n_top))
    RHS = flat[: p * n].reshape(p, n)
    work = (W, W[:n_top], flat, RHS, RHS[:, :n_top], flat[p * n :].reshape(p, p), np.empty(p))
    return (np.empty(n_top), np.empty(n - n_top), np.empty((n, n_top)), np.empty((n, n_top))), work


def _update_args(P_top, P_bot, xm_top, xm_bot, out, work) -> tuple:
    """The argument tuple of one :func:`_kalman_update` call, with every
    view it reads: the posterior blocks and prior means it starts from,
    and ``out`` and ``work`` as :func:`_buffers` lays them out.  A pass
    builds one per sub-block slot, once."""
    x_top, x_bot, P_new, Pm = out
    n_top = len(x_top)
    P_top_new, Pm_top = P_new[:n_top], Pm[:n_top]
    return (
        P_top, P_bot, xm_top, xm_bot, x_top, x_bot,
        P_new, P_top_new, P_new[n_top:], P_top_new.T, Pm, Pm_top, Pm[n_top:], Pm.T, Pm_top.T,
        *work,
    )


def _kalman_update(const, args, y) -> np.ndarray:
    """One step of either filter on bare arrays; returns the gain [H_top; H_bot].

    The covariance is one stacked block [P_top; P_bot]: a square top block
    and rows that ``A_bot`` carries alongside.  The standard filter is the
    case of no carried rows; the determinate filter's blocks are P_oo and
    P_bo.  ``const`` is :func:`_standard_constants` or
    :func:`_determinate_constants`, ``args`` is :func:`_update_args`; the
    caller forms the prior means.  Both blocks share A^T and C P_top-, so
    the product by A^T, the noise, the gain's right-hand side and the
    update H C P_top- are one call each.  Writes into ``out`` (which must
    not alias the inputs) and ``work``.

    numpy is reached through its cheapest entry points, every product with
    the operands and order it always had: ``np.dot(a, b, out)`` for every
    product (gemm and gemv into a C-contiguous buffer; a strided operand
    such as the determinate C P_top- is read in place), ufuncs with a
    positional ``out`` and the 0-d ``_HALF``, and each symmetrization
    0.5 (P + P^T) of :func:`_sym` through W's top block, free at both
    points, so no step allocates a transpose copy.  The outputs equal those
    of the kernel before these rules (``tests/oracles.py``) bit for bit,
    checked for star and dense V, N in {2, 3, 10}, tau in {0.7, 1, 3},
    weight and general bases and passes of 1 to 4097 steps.
    """
    A, C, AT, CT, Q, R, A_bot, coupling = const
    (
        P_top, P_bot, xm_top, xm_bot, x_top, x_bot,
        P_new, P_top_new, P_bot_new, P_top_newT, Pm, Pm_top, Pm_bot, PmT, Pm_topT,
        W, W_top, BS, RHS, CP, S, innov,
    ) = args
    # the left products go to the posterior's blocks, free until the update
    np.dot(A, P_top, P_top_new)
    if A_bot is not None:
        np.dot(A_bot, P_bot, P_bot_new)
    np.dot(P_new, AT, Pm)
    if coupling is not None:
        np.add(Pm_bot, coupling @ P_top @ AT, Pm_bot)
    np.add(Pm, Q, Pm)
    W_top[...] = Pm_topT
    np.add(Pm_top, W_top, Pm_top)
    np.multiply(Pm_top, _HALF, Pm_top)

    # C [P_top-; P_bot-]^T, P_top- being exactly symmetric
    np.dot(C, PmT, RHS)
    np.dot(CP, CT, S)
    np.add(S, R, S)
    H = _gain_solve(BS, RHS, S).T

    np.dot(H, CP, W)
    np.subtract(Pm, W, P_new)
    W_top[...] = P_top_newT
    np.add(P_top_new, W_top, P_top_new)
    np.multiply(P_top_new, _HALF, P_top_new)

    np.dot(C, xm_top, innov)
    np.subtract(y, innov, innov)
    n_top = len(x_top)
    np.dot(H[:n_top], innov, x_top)
    np.add(x_top, xm_top, x_top)
    if A_bot is not None:
        np.dot(H[n_top:], innov, x_bot)
        np.add(x_bot, xm_bot, x_bot)
    return H


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


def _standard_constants(model: EnsembleModel) -> tuple:
    """The operands of :func:`_kalman_update` for the standard filter:
    bigA, bigC, their transposes, bigQ, R and no carried rows."""
    return (model.bigA, model.bigC, *_transposes(model.bigA, model.bigC), model.bigQ, model.meas.R, None, None)


def standard_kf_step(
    model: EnsembleModel,
    state: StandardKFState,
    u_prev: Optional[np.ndarray],
    y: np.ndarray,
) -> StandardKFState:
    """One cycle of the five-line recursion, by :func:`_kalman_update`.

    ``u_prev`` is the input applied at the previous step (``None`` reads
    as zero); ``y`` is the current relative measurement.  A non-finite
    or indefinite innovation covariance raises :class:`NumericalError`.
    """
    xm = model.bigA @ state.xhat
    if u_prev is not None:
        xm += model.bigB @ np.asarray(u_prev, dtype=float)
    y = np.asarray(y, dtype=float)
    out, work = _buffers(len(xm), len(xm), len(y))
    H = _kalman_update(_standard_constants(model), _update_args(state.P, None, xm, None, out, work), y)
    return StandardKFState(xhat=out[0], P=out[2], xhat_minus=xm, P_minus=out[3], H=H)


# ---------------------------------------------------------------------------
# determinate decomposed filter


@dataclass
class DeterminateKFState:
    """Decomposed filter state; the unobservable-unobservable covariance
    block never appears.

    ``xi_o_hat`` / ``xi_obar_hat`` are the prior estimates of the latest
    step, as propagated by the decomposed recursion; the ``*_post``
    fields hold the matching posteriors (consumed by the next predict).
    ``P_oo`` / ``P_bo`` are posterior covariances; the stationary step of
    ``EemPolicy`` leaves every covariance and gain field ``None``.
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


def _determinate_constants(d: Decomposition, R: np.ndarray) -> tuple:
    """The operands of :func:`_kalman_update` for the determinate filter:
    Ao, Co, their transposes, [Qo; Qbo], R, the carried rows' ``d.A``, and
    the coupling of a general basis (a weight basis's is exactly zero)."""
    coupling = d.coupling if d.q is None else None
    return (d.Ao, d.Co, *_transposes(d.Ao, d.Co), np.vstack([d.Qo, d.Qbo]), R, d.A, coupling)


def determinate_kf_step(
    d: Decomposition,
    R: np.ndarray,
    state: DeterminateKFState,
    omega_prev: InputPair,
    y: np.ndarray,
) -> DeterminateKFState:
    """One cycle of the five-block decomposed recursion, by :func:`_kalman_update`.

    ``omega_prev`` is the decomposed input pair (omega_o, omega_obar)
    applied at the previous step, or ``None`` for zero input.  The
    coupling block links the observable state into the unobservable
    prediction; for weight bases it is exactly zero and skipped.  A
    non-finite or indefinite innovation covariance raises
    :class:`NumericalError`.
    """
    xo_m, xb_m = _predict_decomposed(d, state.xi_o_post, state.xi_obar_post, omega_prev)
    y = np.asarray(y, dtype=float)
    out, work = _buffers(len(xo_m) + 2, len(xo_m), len(y))
    args = _update_args(state.P_oo, state.P_bo, xo_m, xb_m, out, work)
    H = _kalman_update(_determinate_constants(d, R), args, y)
    (x_o, x_b, P, Pm), n_obs = out, len(xo_m)
    return DeterminateKFState(
        x_o, x_b, P[:n_obs], P[n_obs:], xo_m, xb_m, Pm[:n_obs], Pm[n_obs:], H[:n_obs], H[n_obs:]
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
    ``model.meas.R``), bit for bit: both recursions run through the one
    kernel :func:`_kalman_update`, into buffers allocated once per pass,
    and both filters see zero input.  The posteriors, and the gains and
    priors that the increments need, are stored for a sub-block of 32
    steps, whose rows of every output are then formed together by batched
    products that give the per-step values bit for bit.  A ``y`` not
    shaped (T, N - 1) with T >= 1, or an ``x`` with fewer than T rows or
    other than 2N columns, raises ``ValueError`` before the first step.
    """
    y = np.asarray(y, dtype=float)
    N = model.N
    n, p = 2 * N, N - 1
    if y.ndim != 2 or y.shape[1] != p or len(y) < 1:
        raise ValueError(f"y must have shape (T, {p}) with T >= 1, got {y.shape}")
    T = len(y)
    if x is not None and (np.ndim(x) != 2 or np.shape(x)[0] < T or np.shape(x)[1] != n):
        raise ValueError(f"x must have shape (T', {n}) with T' >= {T}, got {np.shape(x)}")
    # slot 0 of a store holds the step before the sub-block (NaN gains and
    # priors before step 0: no increment); slot j of a sub-block has its
    # kernel arguments built once, below
    xs = np.zeros((_SUB + 1, n))  # standard posteriors
    stored, x_rows = [xs], list(xs)
    std, A = _standard_constants(model), model.bigA
    # the posterior covariances alternate between two buffers: step k reads
    # Ps[k % 2], and sub-blocks start at even steps (_SUB is even), so slot
    # j reads Ps[(j - 1) % 2] and writes Ps[j % 2]
    out, work = _buffers(n, n, p)
    Ps, xm = (model.bigQ.copy(), out[2]), np.empty(n)
    Pms = [out[3]] * (_SUB + 1)  # the priors, unless stored
    eps = np.empty(T) if x is not None else None
    inc = Hs = deviation = det_inc = None
    if increments:
        inc = np.empty((T, 4))
        Hs, Pms = np.full((_SUB + 1, n, p), np.nan), np.full((_SUB + 1, n, n), np.nan)
        stored += [Hs, Pms]
    std_args = [None] + [
        _update_args(Ps[(j - 1) % 2], None, xm, None, (x_rows[j], None, Ps[j % 2], Pms[j]), work)
        for j in range(1, _SUB + 1)
    ]
    if d is not None:
        det, TinvT, n_obs = _determinate_constants(d, model.meas.R), d.Tinv.T, n - 2
        zs = np.zeros((_SUB + 1, n))  # determinate posteriors [xi_o | xi_obar]
        Hds = np.full((_SUB + 1, n, p), np.nan)  # determinate gains [H_o; H_bo]
        stored += [zs, Hds]
        z_rows = [(z[:n_obs], z[n_obs:]) for z in zs]
        # the stacked posteriors [P_oo; P_bo], alternating as Ps do, with
        # their blocks, the prior, and the prior means in out's posterior
        # means (zs holds those)
        det_out, det_work = _buffers(n, n_obs, p)
        det_Ps, det_m = (det[4].copy(), det_out[2]), det_out[:2]
        det_blocks = [(P[:n_obs], P[n_obs:]) for P in det_Ps]
        det_pred = [None] + [(d, *z_rows[j - 1], None, *det_m) for j in range(1, _SUB + 1)]
        det_args = [None] + [
            _update_args(*det_blocks[(j - 1) % 2], *det_m, (*z_rows[j], det_Ps[j % 2], det_out[3]), det_work)
            for j in range(1, _SUB + 1)
        ]
        deviation, det_inc = np.empty(T), np.empty((T, 4))

    # a step that meets a non-finite covariance raises NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, T, _SUB):
            b = min(_SUB, T - k0)
            for j, yk in enumerate(y[k0 : k0 + b], 1):
                np.dot(A, x_rows[j - 1], xm)
                H = _kalman_update(std, std_args[j], yk)
                if Hs is not None:
                    Hs[j] = H
                if d is not None:
                    _predict_decomposed(*det_pred[j])
                    Hds[j] = _kalman_update(det, det_args[j], yk)

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

    def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.linalg.norm(a - b, "fro") / max(np.linalg.norm(a, "fro"), 1e-300))

    # an iterate, a solve or a norm that overflows gives NaN, which fails
    # the convergence test or the residual check below: the solve fails
    # closed without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
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

        residual_oo = rel_diff(P, _sym(d.Ao @ (P - H_o @ CP) @ d.Ao.T + d.Qo))
        residual_bo = rel_diff(P_bo, d.A @ P_bo @ Z.T + X)
    # fails closed: a NaN residual (norms that overflow) fails too
    if not (residual_oo <= 1e-10 and residual_bo <= 1e-10):
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
