"""The paper's closed forms that tests compare the library against.

This module is their one home.  The library builds each quantity one
way: ``solve_stationary`` is the only construction of the unobservable
stationary gain H_bo* and covariance P_bo*, and ``d.T`` the only forward
transform.  The forms here reach the same quantities by another route,
so a test that agrees with them checks the library, not a copy of it.
"""

import numpy as np

from eemsync import generalized_inverse, variance_vector, weight_long


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
