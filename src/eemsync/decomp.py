"""Observable canonical decomposition of the clock ensemble.

Splits the 2N ensemble state into an observable part (relative clock
states, seen by the difference measurements) and a two-dimensional
unobservable part (the weighted ensemble mean).  The split is
parameterized either by an ensemble-mean weight vector q or by a general
2 x 2N row block selecting the unobservable coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .models import EnsembleModel, star_measurement

__all__ = [
    "Decomposition",
    "generalized_inverse",
    "decompose",
    "reconstruct_state",
    "expand_input",
    "weight_vector",
]

# tolerance for the structural identities; everything here is at most a
# few dense factorizations deep
_IDENTITY_TOL = 1e-10
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def weight_vector(q, n: Optional[int] = None) -> np.ndarray:
    """Validate an ensemble-mean weight and return it as a float vector.

    q must be a nonempty 1-D array of finite entries summing to 1 within
    1e-9, with n entries when n is given; otherwise ``ValueError``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.ndim != 1 or q.size == 0:
        raise ValueError("weight must be a nonempty vector")
    if not np.all(np.isfinite(q)):
        raise ValueError("weight entries must be finite")
    total = q.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weight entries must sum to 1, got {total!r}")
    if n is not None and q.size != n:
        raise ValueError(f"weight has {q.size} entries, expected {n}")
    return q


@dataclass(frozen=True)
class Decomposition:
    """Transformation pair and decomposed system matrices for one basis.

    ``T`` maps ensemble coordinates to (xi_o, xi_obar); ``Tinv`` maps
    back.  Ubar, T's last two rows, reads the unobservable coordinates
    (I2 kron q^T for a weight basis); U is Tinv's first 2(N-1) columns.
    ``coupling`` is the 2 x 2(N-1) block feeding the observable
    state into the unobservable dynamics; it is exactly zero for every
    weight basis.  ``Vplus`` is present only for weight bases (it is
    what makes input expansion well defined).  Treat instances as
    immutable values.
    """

    N: int
    q: Optional[np.ndarray]       # weight vector, None for a general basis
    V: np.ndarray                 # (N-1) x N relative measurement matrix
    Vplus: Optional[np.ndarray]   # N x (N-1) generalized inverse of V
    T: np.ndarray                 # 2N x 2N forward transform [I2 kron V; Ubar]
    Tinv: np.ndarray              # 2N x 2N inverse transform [U, I2 kron 1]
    A: np.ndarray                 # 2 x 2 single-clock transition
    B: np.ndarray                 # (2,) single-clock input vector
    Ao: np.ndarray                # 2(N-1) x 2(N-1) observable transition
    Bo: np.ndarray                # 2(N-1) x (N-1) observable input map
    Co: np.ndarray                # (N-1) x 2(N-1) observable output map
    coupling: np.ndarray          # 2 x 2(N-1) block Ubar bigA U
    Qo: np.ndarray                # 2(N-1) x 2(N-1) observable process covariance
    Qbo: np.ndarray               # 2 x 2(N-1) cross process covariance


def generalized_inverse(V: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Right inverse of V whose columns carry zero q-weighted mean.

    Vplus meets both defining identities V Vplus = I and q^T Vplus = 0.
    For the star difference form (:func:`~eemsync.models.star_measurement`)
    it is the closed form [I; 0] - 1 q_{1..N-1}^T, whose entries that
    should vanish are exact zeros (the last row, for q = e_N); for any
    other V it solves the stacked nonsingular system [V; q^T] Vplus =
    [I; 0].  Either way a result that misses the identities by more than
    1e-10 max(1, max|Vplus|) raises ``NumericalError``.

    Parameters
    ----------
    V : (N-1) x N relative measurement matrix (rows sum to zero).
    q : weight vector with q^T 1 = 1.

    Returns
    -------
    Vplus : N x (N-1) array.
    """
    V = np.asarray(V, dtype=float)
    qv = weight_vector(q)
    N = qv.size
    if V.shape != (N - 1, N):
        raise ValueError(f"V must have shape ({N - 1}, {N}), got {V.shape}")

    rhs = np.vstack([np.eye(N - 1), np.zeros((1, N - 1))])
    if N >= 2 and np.array_equal(V, star_measurement(N)):
        # every row repeats -q_1..-q_{N-1}; rows 1..N-1 add the identity
        vplus = rhs - np.outer(np.ones(N), qv[:-1])
    else:
        try:
            vplus = np.linalg.solve(np.vstack([V, qv[None, :]]), rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "stacked system [V; q^T] is singular; this weight cannot "
                "complement the kernel of V"
            ) from exc

    scale = max(1.0, float(np.max(np.abs(vplus))))
    res_v = np.max(np.abs(V @ vplus - np.eye(N - 1)))
    res_q = np.max(np.abs(qv @ vplus))
    if res_v > _IDENTITY_TOL * scale or res_q > _IDENTITY_TOL * scale:
        raise NumericalError(
            f"generalized inverse failed its defining identities "
            f"(residuals {res_v:.3e}, {res_q:.3e})"
        )
    return vplus


def decompose(model: EnsembleModel, basis: np.ndarray) -> Decomposition:
    """Build the observable canonical decomposition for one basis.

    ``basis`` is either a length-N weight vector (the EEM family) or a
    general 2 x 2N array whose rows define the unobservable coordinates.
    A general basis must have full row rank, Wbar (I2 kron 1)
    nonsingular, and a kernel that complements the unobservable
    subspace; violations raise ``ValueError`` naming the condition.  A
    basis that meets them but is so ill-conditioned that the transform
    pair misses T Tinv = I by more than 1e-10, or whose round trip
    ``reconstruct_state`` after ``x @ T.T`` could miss x by more than
    1e-10 max|x|, raises ``NumericalError`` (a few random Gaussian bases
    in a thousand do).  The round trip is bounded by
    ||Tinv T - I|| + 4 gamma || |Tinv| |T| ||, in the max-row-sum norm and
    with gamma = 2N u / (1 - 2N u) for the unit roundoff u: the first
    term is the pair's own error, the second the rounding of the two
    products (2N terms each) and of Tinv T itself.
    """
    N = model.N
    n_obs = 2 * (N - 1)
    V = model.meas.V
    kIV = np.kron(np.eye(2), V)
    ones_col = np.kron(np.eye(2), np.ones((N, 1)))

    basis_arr = np.asarray(basis, dtype=float)
    if basis_arr.ndim == 1:
        qv = weight_vector(basis_arr, N)
        vplus = generalized_inverse(V, qv)
        ubar = np.kron(np.eye(2), qv[None, :])
        u_mat = np.kron(np.eye(2), vplus)
        # A kron (q^T Vplus) vanishes identically for every weight basis
        coupling = np.zeros((2, n_obs))
    elif basis_arr.shape == (2, 2 * N):
        qv = None
        vplus = None
        wbar = basis_arr
        if not np.all(np.isfinite(wbar)):
            raise ValueError("Wbar entries must be finite")
        gram = wbar @ ones_col
        try:
            ubar = np.linalg.solve(gram, wbar)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "Wbar (I2 kron 1) is singular; the basis rows do not see "
                "the unobservable subspace"
            ) from exc
        # orthonormal kernel by scipy.linalg.null_space's rank rule
        _, s, vh = np.linalg.svd(wbar)
        rank = np.count_nonzero(s > np.max(s) * max(wbar.shape) * np.finfo(float).eps)
        kernel = vh[rank:].T
        if kernel.shape[1] != n_obs:
            raise ValueError(
                f"Wbar must have full row rank 2; its kernel has dimension "
                f"{kernel.shape[1]}, expected {n_obs}"
            )
        g = kIV @ kernel
        try:
            u_mat = np.linalg.solve(g.T, kernel.T).T
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "ker Wbar does not complement the unobservable subspace; "
                "the direct-sum condition fails"
            ) from exc
        coupling = ubar @ model.bigA @ u_mat
    else:
        raise ValueError(
            f"basis must be a length-{N} weight or a (2, {2 * N}) array, "
            f"got shape {basis_arr.shape}"
        )

    t_fwd = np.vstack([kIV, ubar])
    t_inv = np.hstack([u_mat, ones_col])
    resid = np.max(np.abs(t_fwd @ t_inv - np.eye(2 * N)))
    if resid > _IDENTITY_TOL:
        raise NumericalError(
            f"transform pair failed T Tinv = I (max residual {resid:.3e})"
        )
    gamma = 2 * N * _UNIT_ROUNDOFF / (1 - 2 * N * _UNIT_ROUNDOFF)
    round_trip = np.linalg.norm(t_inv @ t_fwd - np.eye(2 * N), np.inf) + 4 * gamma * np.linalg.norm(
        np.abs(t_inv) @ np.abs(t_fwd), np.inf
    )
    if not round_trip <= _IDENTITY_TOL:
        raise NumericalError(
            f"transform pair cannot keep the round trip Tinv (T x) within "
            f"{_IDENTITY_TOL:g} of x (bound {round_trip:.3e})"
        )

    clock = model.clock
    eye_o = np.eye(N - 1)
    return Decomposition(
        N=N,
        q=qv,
        V=V,
        Vplus=vplus,
        T=t_fwd,
        Tinv=t_inv,
        A=clock.A,
        B=clock.B,
        Ao=np.kron(clock.A, eye_o),
        Bo=np.kron(clock.B.reshape(2, 1), eye_o),
        Co=np.kron(clock.C[None, :], eye_o),
        coupling=coupling,
        Qo=kIV @ model.bigQ @ kIV.T,
        Qbo=ubar @ model.bigQ @ kIV.T,
    )


def reconstruct_state(xi_o: np.ndarray, xi_obar: np.ndarray, d: Decomposition) -> np.ndarray:
    """Ensemble coordinates x = U xi_o + (I2 kron 1) xi_obar: the inverse of
    ``x @ d.T.T`` split at 2(N-1) into (xi_o, xi_obar)."""
    xi_o = np.asarray(xi_o, dtype=float)
    xi_obar = np.asarray(xi_obar, dtype=float)
    n_obs = 2 * (d.N - 1)
    if xi_o.shape[-1] != n_obs or xi_obar.shape[-1] != 2:
        raise ValueError(
            f"expected last dimensions ({n_obs},) and (2,), got "
            f"{xi_o.shape} and {xi_obar.shape}"
        )
    return np.concatenate([xi_o, xi_obar], axis=-1) @ d.Tinv.T


def expand_input(omega_o: np.ndarray, omega_obar, d: Decomposition) -> np.ndarray:
    """Map decomposed inputs to per-clock inputs: u = Vplus omega_o + 1 omega_obar.

    One step, omega_o (N-1,) with a scalar omega_obar, maps to u (N,); rows,
    omega_o (T, N-1) with omega_obar (T,), to u (T, N).  Only defined for
    weight bases.  For the steering weight q = e_N the last row of Vplus is
    exactly zero, so u_N inherits omega_obar bit-for-bit (and is exactly
    zero whenever omega_obar is).
    """
    if d.Vplus is None:
        raise ValueError("input expansion requires a weight basis, not a general Wbar")
    omega_o, omega_obar = np.asarray(omega_o, dtype=float), np.asarray(omega_obar, dtype=float)
    if omega_o.shape != omega_obar.shape + (d.N - 1,):
        raise ValueError(f"omega_o must have shape {omega_obar.shape + (d.N - 1,)}, got {omega_o.shape}")
    u = omega_o @ d.Vplus.T
    u += omega_obar[..., None]
    return u
