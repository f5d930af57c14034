"""Kalman filters for the clock ensemble.

Two recursions share one model: the standard full-state filter (whose
covariance diverges along the unobservable subspace while its gain still
converges) and the determinate decomposed filter (which never forms the
diverging block).  One update kernel, ``_kalman_update``, serves both:
the standard filter is its case with no carried rows.  It steps a group
of filters at once, the standard one or the determinate one alone (the
step functions) or both on the same measurement (``filter_pass``).
Each quantity of a group lives in one flat buffer, laid out filter after
filter: the priors, the two alternating posteriors, W = H C P- and Q;
the gain system [RHS_std | RHS_det | S_std | S_det] and R; the means
[x | xi_o | xi_obar] and the innovations.  So every elementwise step
(``+ Q``, the add and the ``* 0.5`` of both symmetrizations, ``+ R``,
the finiteness check, ``P- - W``, ``y - C x-`` and the mean add) is one
call for both filters; the products, the transposed copies and LAPACK
``posv`` (which forms each gain) stay one call per filter.  At ten
clocks the operands are at most 20 x 20, where numpy's call dispatch
costs more than the arithmetic, so the kernel reaches numpy through its
cheapest entry points: ``ndarray.dot`` with a positional ``out`` for
every product (the routine of ``np.dot`` without its dispatcher), ufuncs
with a positional ``out``, and views and argument tuples built once per
step function call or per ``filter_pass`` sub-block slot.  Every product
keeps the operands and order it had when each filter ran alone through
``np.matmul``, so the outputs are that kernel's bit for bit
(``tests/oracles.py`` keeps it; ``tests/test_filters.py`` checks it).
``filter_pass`` runs both over a whole measurement series, and
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

    ``BS`` holds both B and S (any [B | S], or a flat buffer of which
    they are views), so one finiteness check covers both.  Its failure is
    named as two separate checks would name it: a non-finite S first,
    then an S that is not positive definite (whatever B holds), then a
    non-finite B.  :func:`_kalman_update` checks the gain systems of all
    its filters at once, and names a failure by this function, filter by
    filter.
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


def _group(consts: list) -> tuple:
    """The filters that one :func:`_kalman_update` call steps together:
    their constants (:func:`_standard_constants`, then
    :func:`_determinate_constants`), the shape (n, n_top) of each stacked
    covariance, and Q and R laid out flat, filter after filter.  Only the
    last filter may carry rows, so the top blocks of every flat covariance
    buffer are one contiguous run."""
    shapes = tuple((len(c[0]) + (0 if c[6] is None else len(c[6])), len(c[0])) for c in consts)
    Q = np.concatenate([np.ravel(c[4]) for c in consts])
    R = np.concatenate([np.ravel(c[5]) for c in consts])
    return tuple(consts), shapes, Q, R


def _covariances(group: tuple, flat: np.ndarray) -> list:
    """Each filter's stacked (n, n_top) covariance, as a C-contiguous view
    of a flat buffer laid out filter after filter."""
    views, offset = [], 0
    for n, n_top in group[1]:
        views.append(flat[offset : offset + n * n_top].reshape(n, n_top))
        offset += n * n_top
    return views


def _buffers(group: tuple, p: int) -> tuple:
    """Fresh flat ``out`` and ``work`` of :func:`_kalman_update` for the
    filters of ``group`` and p measurements.  ``out`` is the posterior
    means [x | xi_o | xi_obar], and the posterior and the prior
    covariances, each filter's (n, n_top) block after the last one's.
    ``work`` is W = H C P_top- laid out the same way; the gain system
    [RHS_1 | RHS_2 | S_1 | S_2], each filter's right-hand side (p, n) and
    S (p, p) a C-contiguous view of it; and the innovations (filters, p)."""
    shapes = group[1]
    n_sum, cov = sum(n for n, _ in shapes), sum(n * n_top for n, n_top in shapes)
    out = (np.empty(n_sum), np.empty(cov), np.empty(cov))
    return out, (np.empty(cov), np.empty(p * (n_sum + len(shapes) * p)), np.empty((len(shapes), p)))


def _update_args(group: tuple, P: list, xm: np.ndarray, out: tuple, work: tuple) -> tuple:
    """The argument tuple of one :func:`_kalman_update` call, with every
    view it reads.  ``P`` holds each filter's (P_top, P_bot) posterior
    blocks that the step starts from (P_bot unread for the standard
    filter), ``xm`` the prior means laid out as the posterior means, and
    ``out`` and ``work`` are laid out as :func:`_buffers` makes them.  A
    pass builds one per sub-block slot, once.  The per-filter entries come
    phase by phase: the left products, the prior's top blocks, the gain
    system and the means; the shared ones are the flat buffers and their
    runs of top blocks."""
    consts, shapes, Q, R = group
    x, P_new, Pm = out
    W, BS, innov = work
    p, n_sum = innov.shape[1], len(x)
    left, prior_tops, gain, post_tops, means = [], [], [], [], []
    rhs, s, m, o = 0, p * n_sum, 0, 0
    for f, (A, C, AT, CT, _, _, A_bot, coupling) in enumerate(consts):
        (n, t), (P_top, P_bot) = shapes[f], P[f]
        P_f, Pm_f, W_f = P_new[o : o + n * t].reshape(n, t), Pm[o : o + n * t].reshape(n, t), W[o : o + n * t].reshape(n, t)
        RHS = BS[rhs : rhs + p * n].reshape(p, n)
        left.append((A, P_top, P_f[:t], A_bot, P_bot, P_f[t:], P_f, AT, Pm_f, coupling, Pm_f[t:]))
        prior_tops.append((W_f[:t], Pm_f[:t].T))
        gain.append((C, Pm_f.T, RHS, RHS[:, :t], CT, BS[s : s + p * p].reshape(p, p), W_f))
        post_tops.append((W_f[:t], P_f[:t].T))
        means.append((C, xm[m : m + t], innov[f], t, x[m : m + t], x[m + t : m + n] if A_bot is not None else None))
        rhs, s, m, o = rhs + p * n, s + p * p, m + n, o + n * t
    tops = o - (n - t) * t  # every top block: all but the last filter's carried rows
    S = BS[p * n_sum :]
    return (
        left, prior_tops, gain, post_tops, means,
        Pm, Q, Pm[:tops], W[:tops], BS, S, R, P_new, W, P_new[:tops], innov, x, xm,
    )


def _kalman_update(args: tuple, y: np.ndarray) -> list:
    """One step of a group of filters (:func:`_group`) on bare arrays;
    returns each filter's gain [H_top; H_bot].

    Each covariance is one stacked block [P_top; P_bot]: a square top
    block and rows that ``A_bot`` carries alongside.  The standard filter
    is the case of no carried rows; the determinate filter's blocks are
    P_oo and P_bo.  ``args`` is :func:`_update_args`; the caller forms the
    prior means.  Within a filter both blocks share A^T and C P_top-, so
    the product by A^T, the gain's right-hand side and the update
    H C P_top- are one call each.  Across the filters every quantity
    lives in one flat buffer, laid out filter after filter (the priors and
    posteriors, W, Q; the gain system [RHS_1 | RHS_2 | S_1 | S_2] and R;
    the means [x | xi_o | xi_obar] and the innovations), so each
    elementwise step is one call for the whole group: ``+ Q``, the add
    and the ``* 0.5`` of both symmetrizations, ``+ R``, the finiteness
    check of the gain system, ``P- - W``, ``y - C x-`` (y broadcast over
    the filters' rows) and the mean add.  The products, the transposed
    copies of the symmetrizations and ``dposv`` stay one call per
    filter.  If the shared finiteness check fails, each filter's
    :func:`_gain_solve` runs in order, so the error is the one that a
    step of each filter alone would raise.  Writes into ``out`` (which
    must not alias the inputs) and ``work``.

    numpy is reached through its cheapest entry points, every product with
    the operands and order it always had: ``a.dot(b, out)`` for every
    product (gemm and gemv into a C-contiguous buffer; a strided operand
    such as the determinate C P_top- is read in place), ufuncs with a
    positional ``out`` and the 0-d ``_HALF``, and each symmetrization
    0.5 (P + P^T) of :func:`_sym` through W's top blocks, free at both
    points, so no step allocates a transpose copy.  The outputs equal those
    of the kernel that ran each filter on its own buffers through
    ``np.matmul`` (``tests/oracles.py``) bit for bit, checked for star and
    dense V, N in {2, 3, 10}, tau in {0.7, 1, 3}, weight and general
    bases and passes of 1 to 4097 steps.
    """
    (
        left, prior_tops, gain, post_tops, means,
        Pm, Q, Pm_tops, W_tops, BS, S, R, P_new, W, P_new_tops, innov, x, xm,
    ) = args
    # the left products go to the posterior's blocks, free until the update
    for A, P_top, P_top_new, A_bot, P_bot, P_bot_new, P_new_f, AT, Pm_f, coupling, Pm_bot in left:
        A.dot(P_top, P_top_new)
        if A_bot is not None:
            A_bot.dot(P_bot, P_bot_new)
        P_new_f.dot(AT, Pm_f)
        if coupling is not None:
            np.add(Pm_bot, coupling @ P_top @ AT, Pm_bot)
    np.add(Pm, Q, Pm)
    for W_top, Pm_topT in prior_tops:
        W_top[...] = Pm_topT
    np.add(Pm_tops, W_tops, Pm_tops)
    np.multiply(Pm_tops, _HALF, Pm_tops)

    # C [P_top-; P_bot-]^T, P_top- being exactly symmetric
    for C, PmT, RHS, CP, CT, S_f, _ in gain:
        C.dot(PmT, RHS)
        CP.dot(CT, S_f)
    np.add(S, R, S)
    if np.count_nonzero(np.isfinite(BS)) != BS.size:
        for _, _, RHS, _, _, S_f, _ in gain:
            _gain_solve(np.hstack([RHS, S_f]), RHS, S_f)
    Hs, posv = [], lapack_cholesky()
    for _, _, RHS, CP, _, S_f, W_f in gain:
        _, X, info = posv(S_f, RHS, 1)
        if info:
            raise NumericalError("innovation covariance is not positive definite")
        H = X.T
        H.dot(CP, W_f)
        Hs.append(H)
    np.subtract(Pm, W, P_new)
    for W_top, P_top_newT in post_tops:
        W_top[...] = P_top_newT
    np.add(P_new_tops, W_tops, P_new_tops)
    np.multiply(P_new_tops, _HALF, P_new_tops)

    for C, xm_top, innov_f, _, _, _ in means:
        C.dot(xm_top, innov_f)
    np.subtract(y, innov, innov)
    for H, (_, _, innov_f, n_top, x_top, x_bot) in zip(Hs, means):
        H[:n_top].dot(innov_f, x_top)
        if x_bot is not None:
            H[n_top:].dot(innov_f, x_bot)
    np.add(x, xm, x)
    return Hs


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
    group = _group([_standard_constants(model)])
    out, work = _buffers(group, len(y))
    (H,) = _kalman_update(_update_args(group, [(state.P, None)], xm, out, work), y)
    (P,), (P_minus,) = _covariances(group, out[1]), _covariances(group, out[2])
    return StandardKFState(xhat=out[0], P=P, xhat_minus=xm, P_minus=P_minus, H=H)


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


def _measurement_covariance(d: Decomposition, R) -> np.ndarray:
    """R as a float array; one not shaped (N - 1, N - 1) raises ValueError."""
    R = np.asarray(R, dtype=float)
    if R.shape != (d.N - 1, d.N - 1):
        raise ValueError(f"R must have shape ({d.N - 1}, {d.N - 1}), got {R.shape}")
    return R


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
    prediction; for weight bases it is exactly zero and skipped.  An R
    not shaped (N - 1, N - 1) raises ``ValueError``, as in
    :func:`solve_stationary`; a non-finite or indefinite innovation
    covariance raises :class:`NumericalError`.
    """
    n_obs, xm = 2 * (d.N - 1), np.empty(2 * d.N)
    xo_m, xb_m = _predict_decomposed(d, state.xi_o_post, state.xi_obar_post, omega_prev, xm[:n_obs], xm[n_obs:])
    y = np.asarray(y, dtype=float)
    group = _group([_determinate_constants(d, _measurement_covariance(d, R))])
    out, work = _buffers(group, len(y))
    (H,) = _kalman_update(_update_args(group, [(state.P_oo, state.P_bo)], xm, out, work), y)
    x, (P,), (Pm,) = out[0], _covariances(group, out[1]), _covariances(group, out[2])
    return DeterminateKFState(
        x[:n_obs], x[n_obs:], P[:n_obs], P[n_obs:], xo_m, xb_m, Pm[:n_obs], Pm[n_obs:], H[:n_obs], H[n_obs:]
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
    ``model.meas.R``), bit for bit: each step is one call of the kernel
    :func:`_kalman_update` for both filters, which shares every
    elementwise call between them, into flat buffers allocated once per
    pass, and both filters see zero input.  The posteriors, and the gains and
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
    # prediction and kernel arguments built once, below
    consts = [_standard_constants(model)]
    if d is not None:
        consts.append(_determinate_constants(d, model.meas.R))
    group = _group(consts)
    out, work = _buffers(group, p)
    # the posterior means [x | xi_o | xi_obar], and the prior means so laid out
    xs, xm = np.zeros((_SUB + 1, len(out[0]))), np.empty(len(out[0]))
    stored = [xs]
    # the flat posterior covariances alternate between two buffers: step k
    # reads Ps[k % 2], and sub-blocks start at even steps (_SUB is even), so
    # slot j reads Ps[(j - 1) % 2] and writes Ps[j % 2]; both filters start at Q
    Ps = (group[2].copy(), out[1])
    blocks = [[(P[: P.shape[1]], P[P.shape[1] :]) for P in _covariances(group, a)] for a in Ps]
    Pms = [out[2]] * (_SUB + 1)  # the priors, unless stored
    eps = np.empty(T) if x is not None else None
    inc = Hs = deviation = det_inc = coupled = None
    if increments:
        inc = np.empty((T, 4))
        Hs, Pms = np.full((_SUB + 1, n, p), np.nan), np.full((_SUB + 1, len(out[2])), np.nan)
        stored += [Hs, Pms]
    # x- = A x (and xi_o- = Ao xi_o, xi_obar- = A xi_obar) from the slot before
    pred = [None] + [[(model.bigA, xs[j - 1, :n], xm[:n])] for j in range(1, _SUB + 1)]
    if d is not None:
        TinvT, n_obs = d.Tinv.T, n - 2
        Hds = np.full((_SUB + 1, n, p), np.nan)  # determinate gains [H_o; H_bo]
        stored.append(Hds)
        xo_m, xb_m = xm[n : n + n_obs], xm[n + n_obs :]
        if d.q is None:
            # xi_obar- = coupling xi_o + A xi_obar for a general basis
            coupled = (xb_m, np.empty(2), xb_m)
        for j in range(1, _SUB + 1):
            xi_o, xi_obar = xs[j - 1, n : n + n_obs], xs[j - 1, n + n_obs :]
            pred[j].append((d.Ao, xi_o, xo_m))
            if coupled is None:
                pred[j].append((d.A, xi_obar, xb_m))
            else:
                pred[j] += [(d.coupling, xi_o, xb_m), (d.A, xi_obar, coupled[1])]
        deviation, det_inc = np.empty(T), np.empty((T, 4))
    args = [None] + [
        _update_args(group, blocks[(j - 1) % 2], xm, (xs[j], Ps[j % 2], Pms[j]), work) for j in range(1, _SUB + 1)
    ]

    # a step that meets a non-finite covariance raises NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, T, _SUB):
            b = min(_SUB, T - k0)
            for j, yk in enumerate(y[k0 : k0 + b], 1):
                for a, v, o in pred[j]:
                    a.dot(v, o)
                if coupled is not None:
                    np.add(*coupled)
                H = _kalman_update(args[j], yk)
                if Hs is not None:
                    Hs[j] = H[0]
                if d is not None:
                    Hds[j] = H[1]

            rows, xhat = slice(k0, k0 + b), xs[1 : b + 1, :n]
            if eps is not None:
                eps[rows] = reference_timescale(x[rows] - xhat, N)
            if inc is not None:
                _increments(inc[rows, :2], Hs[: b + 1])
                _increments(inc[rows, 2:], Pms[: b + 1, : n * n].reshape(b + 1, n, n))
            if d is not None:
                _increments(det_inc[rows, :2], Hds[: b + 1, :n_obs])
                _increments(det_inc[rows, 2:], Hds[: b + 1, n_obs:])
                # reconstruct_state(xi_o, xi_obar, d) with one gemv per row
                gap = (xs[1 : b + 1, None, n:] @ TinvT)[:, 0]
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
    fixed-point residuals are checked before returning.  An R not shaped
    (N - 1, N - 1) raises ``ValueError``.
    """
    n_obs = 2 * (d.N - 1)
    R = _measurement_covariance(d, R)
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
