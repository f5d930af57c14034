"""Filter checks: decomposed-filter equivalence, stationary solutions."""

import dataclasses
import time
import tracemalloc
from dataclasses import fields
from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from eemsync import (
    ControllerConfig,
    ConvergenceError,
    DeterminateKFState,
    EemPolicy,
    NoiseParams,
    NumericalError,
    StandardKFState,
    build_ensemble,
    decompose,
    default_collective_gain,
    default_obs_gain,
    determinate_kf_init,
    determinate_kf_step,
    expand_input,
    filter_pass,
    reconstruct_state,
    reference_timescale,
    simulate,
    solve_stationary,
    standard_kf_init,
    standard_kf_step,
    star_measurement,
    unobservable_covariance_from_observable,
    unobservable_gain_from_observable,
    weight_long,
    weight_short,
)
from eemsync import filters
from eemsync.decomp import Decomposition
from eemsync.filters import InputPair, StationaryGains, _gain_solve, _sym
from eemsync.presets import DEMO_MEAS_STD, DEMO_SIGMA1, DEMO_SIGMA2, demo_ensemble
from eemsync.scenarios import _gains_doc, _write_json


# ---------------------------------------------------------------------------
# reference steps: the scipy cho_factor/cho_solve bodies that the lean
# LAPACK steps replaced, kept verbatim as their oracle


def reference_sym(P: np.ndarray) -> np.ndarray:
    # symmetrize after every update to suppress drift
    return 0.5 * (P + P.T)


def reference_spd_solve_gain(S: np.ndarray, CP: np.ndarray) -> np.ndarray:
    """Gain P C^T S^{-1} computed as solve(S, C P)^T via a PD factorization."""
    try:
        factor = cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not positive definite") from exc
    return cho_solve(factor, CP).T


def gain(S: np.ndarray, CP: np.ndarray) -> np.ndarray:
    """The gain P C^T S^{-1} as the library's steps form it: X^T of one
    LAPACK posv on [CP | S]."""
    return _gain_solve(np.hstack([CP, S]), CP, S).T


def reference_input_pair(omega_prev: InputPair, n_obs_inputs: int) -> Tuple[np.ndarray, float]:
    if omega_prev is None:
        return np.zeros(n_obs_inputs), 0.0
    omega_o, omega_obar = omega_prev
    omega_o = np.asarray(omega_o, dtype=float)
    if omega_o.shape != (n_obs_inputs,):
        raise ValueError(
            f"omega_o must have shape ({n_obs_inputs},), got {omega_o.shape}"
        )
    return omega_o, float(omega_obar)


def reference_standard_kf_step(
    model,
    state: StandardKFState,
    u_prev: Optional[np.ndarray],
    y: np.ndarray,
) -> StandardKFState:
    """One cycle of the five-line recursion.

    ``u_prev`` is the input applied at the previous step (``None`` reads
    as zero); ``y`` is the current relative measurement.
    """
    bigA, bigC = model.bigA, model.bigC
    y = np.asarray(y, dtype=float)

    xm = bigA @ state.xhat
    if u_prev is not None:
        xm = xm + model.bigB @ np.asarray(u_prev, dtype=float)
    Pm = reference_sym(bigA @ state.P @ bigA.T + model.bigQ)

    CP = bigC @ Pm
    S = CP @ bigC.T + model.meas.R
    H = reference_spd_solve_gain(S, CP)

    P = reference_sym(Pm - H @ CP)
    xhat = xm + H @ (y - bigC @ xm)
    return StandardKFState(xhat=xhat, P=P, xhat_minus=xm, P_minus=Pm, H=H)


def reference_determinate_kf_step(
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
    prediction; for weight bases it is exactly zero.
    """
    omega_o, omega_obar = reference_input_pair(omega_prev, d.N - 1)
    y = np.asarray(y, dtype=float)

    xo_m = d.Ao @ state.xi_o_post + d.Bo @ omega_o
    xb_m = d.coupling @ state.xi_o_post + d.A @ state.xi_obar_post + d.B * omega_obar
    Poo_m = reference_sym(d.Ao @ state.P_oo @ d.Ao.T + d.Qo)
    Pbo_m = d.coupling @ state.P_oo @ d.Ao.T + d.A @ state.P_bo @ d.Ao.T + d.Qbo

    CP = d.Co @ Poo_m
    S = CP @ d.Co.T + R
    try:
        factor = cho_factor(S, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("innovation covariance is not positive definite") from exc
    H_o = cho_solve(factor, CP).T
    H_bo = cho_solve(factor, d.Co @ Pbo_m.T).T

    P_oo = reference_sym(Poo_m - H_o @ CP)
    P_bo = Pbo_m - H_bo @ CP

    innov = y - d.Co @ xo_m
    return DeterminateKFState(
        xi_o_post=xo_m + H_o @ innov,
        xi_obar_post=xb_m + H_bo @ innov,
        P_oo=P_oo,
        P_bo=P_bo,
        xi_o_hat=xo_m,
        xi_obar_hat=xb_m,
        P_oo_minus=Poo_m,
        P_bo_minus=Pbo_m,
        H_o=H_o,
        H_bo=H_bo,
    )


def reference_stationary_kf_step(
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
    omega_o, omega_obar = reference_input_pair(omega_prev, d.N - 1)
    xo_m = d.Ao @ state.xi_o_post + d.Bo @ omega_o
    xb_m = d.coupling @ state.xi_o_post + d.A @ state.xi_obar_post + d.B * omega_obar
    innov = np.asarray(y, dtype=float) - d.Co @ xo_m
    return DeterminateKFState(
        xi_o_post=xo_m + g.H_o_star @ innov,
        xi_obar_post=xb_m + g.H_bo_star @ innov,
        xi_o_hat=xo_m,
        xi_obar_hat=xb_m,
    )


def run_both_filters(model, basis, T, seed, policy_omegas=None):
    """Drive the standard and decomposed filters on identical data.

    policy_omegas, when given, is a list of (omega_o, omega_obar) pairs
    applied through the weight basis; both filters then see the matching
    physical input.
    """
    d = decompose(model, basis)
    if policy_omegas is None:
        rec = simulate(model, None, T, seed=seed)
        us = None
    else:
        pol = lambda k, y: expand_input(*policy_omegas[k], d)
        rec = simulate(model, pol, T, seed=seed)
        us = rec.u
    std = standard_kf_init(model)
    det = determinate_kf_init(d)
    rows = []
    for k in range(T):
        u_prev = None if (us is None or k == 0) else us[k - 1]
        w_prev = None if (policy_omegas is None or k == 0) else policy_omegas[k - 1]
        std = standard_kf_step(model, std, u_prev, rec.y[k])
        det = determinate_kf_step(d, model.meas.R, det, w_prev, rec.y[k])
        rows.append((std, det))
    return d, rec, rows


class TestStandardKF:
    def test_zero_data_keeps_zero_estimate(self):
        model = demo_ensemble(n_clocks=3)
        state = standard_kf_init(model)
        for _ in range(5):
            state = standard_kf_step(model, state, None, np.zeros(2))
        assert np.all(state.xhat == 0.0)

    def test_step_matches_textbook_dense_form(self):
        # same step computed with explicit inverses, no Cholesky route
        model = demo_ensemble(n_clocks=3)
        rec = simulate(model, None, 4, seed=17)
        state = standard_kf_init(model)
        x, P = state.xhat.copy(), state.P.copy()
        for k in range(4):
            state = standard_kf_step(model, state, None, rec.y[k])
            xm = model.bigA @ x
            Pm = model.bigA @ P @ model.bigA.T + model.bigQ
            S = model.bigC @ Pm @ model.bigC.T + model.meas.R
            H = Pm @ model.bigC.T @ np.linalg.inv(S)
            x = xm + H @ (rec.y[k] - model.bigC @ xm)
            P = Pm - H @ model.bigC @ Pm
            assert np.max(np.abs(state.xhat - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))
            assert np.max(np.abs(state.P - P)) <= 1e-10 * np.max(np.abs(P))
            x, P = state.xhat, state.P

    def test_posterior_covariance_shrinks_along_measured_directions(self):
        model = demo_ensemble(n_clocks=3)
        state = standard_kf_init(model)
        new = standard_kf_step(model, state, None, np.zeros(2))
        kIV = np.kron(np.eye(2), model.meas.V)
        prior_obs = kIV @ new.P_minus @ kIV.T
        post_obs = kIV @ new.P @ kIV.T
        assert np.trace(post_obs) < np.trace(prior_obs)


class TestLemmaOneEquivalence:
    def test_estimates_match_weight_basis(self):
        model = demo_ensemble(n_clocks=3)
        _, _, rows = run_both_filters(model, np.full(3, 1 / 3), T=400, seed=5)
        d = decompose(model, np.full(3, 1 / 3))
        scale = max(np.max(np.abs(s.xhat)) for s, _ in rows)
        worst = max(
            np.max(np.abs(reconstruct_state(det.xi_o_post, det.xi_obar_post, d) - std.xhat))
            for std, det in rows
        )
        assert worst <= 1e-10 * scale

    def test_estimates_match_general_basis(self):
        model = demo_ensemble(n_clocks=3)
        rng = np.random.default_rng(8)
        wbar = rng.standard_normal((2, 6))
        d, _, rows = run_both_filters(model, wbar, T=400, seed=6)
        scale = max(np.max(np.abs(s.xhat)) for s, _ in rows)
        worst = max(
            np.max(np.abs(reconstruct_state(det.xi_o_post, det.xi_obar_post, d) - std.xhat))
            for std, det in rows
        )
        assert worst <= 1e-8 * scale

    def test_covariance_blocks_match_projected_standard(self):
        model = demo_ensemble(n_clocks=3)
        q = np.array([0.5, 0.3, 0.2])
        d, _, rows = run_both_filters(model, q, T=50, seed=7)
        kIV = np.kron(np.eye(2), model.meas.V)
        # init correspondence: P = bigQ projects onto (Qo, Qbo)
        assert np.allclose(kIV @ model.bigQ @ kIV.T, d.Qo)
        assert np.allclose(d.T[-2:] @ model.bigQ @ kIV.T, d.Qbo)
        for std, det in rows:
            P_oo_ref = kIV @ std.P @ kIV.T
            P_bo_ref = d.T[-2:] @ std.P @ kIV.T
            # the projection cancels the growing unobservable block of
            # std.P, so its roundoff scales with std.P, not the result
            floor = 1e-13 * np.max(np.abs(std.P))
            assert np.max(np.abs(det.P_oo - P_oo_ref)) <= floor
            assert np.max(np.abs(det.P_bo - P_bo_ref)) <= floor

    def test_equivalence_with_driving_input(self):
        model = demo_ensemble(n_clocks=3)
        rng = np.random.default_rng(9)
        scale = 1e-10
        omegas = [
            (scale * rng.standard_normal(2), float(scale * rng.standard_normal()))
            for _ in range(120)
        ]
        q = np.array([0.2, 0.3, 0.5])
        d, _, rows = run_both_filters(model, q, T=120, seed=10, policy_omegas=omegas)
        ref = max(np.max(np.abs(s.xhat)) for s, _ in rows)
        worst = max(
            np.max(np.abs(reconstruct_state(det.xi_o_post, det.xi_obar_post, d) - std.xhat))
            for std, det in rows
        )
        assert worst <= 1e-10 * ref


class TestGainCovarianceDichotomy:
    def test_gain_converges_long_before_prior_covariance(self):
        # the full-state prior covariance keeps absorbing unobservable
        # noise, so its increment never dies; the gain still settles
        model = demo_ensemble(n_clocks=10)
        d = decompose(model, np.full(10, 0.1))
        R = model.meas.R
        T = 150_000  # the cross covariance converges slowest, at rho(Z) per step

        # verify the in-test recursions against the real filter steps
        std = standard_kf_init(model)
        det = determinate_kf_init(d)
        P = std.P.copy()
        Poo, Pbo = det.P_oo.copy(), det.P_bo.copy()
        for k in range(30):
            std = standard_kf_step(model, std, None, np.zeros(9))
            det = determinate_kf_step(d, R, det, None, np.zeros(9))
            Pm = _sym(model.bigA @ P @ model.bigA.T + model.bigQ)
            CP = model.bigC @ Pm
            H = gain(CP @ model.bigC.T + R, CP)
            P = _sym(Pm - H @ CP)
            assert np.array_equal(P, std.P)
            Poo_m = _sym(d.Ao @ Poo @ d.Ao.T + d.Qo)
            Pbo_m = d.A @ Pbo @ d.Ao.T + d.Qbo
            CPo = d.Co @ Poo_m
            So = CPo @ d.Co.T + R
            H_o = gain(So, CPo)
            H_bo = gain(So, d.Co @ Pbo_m.T)
            Poo = _sym(Poo_m - H_o @ CPo)
            Pbo = Pbo_m - H_bo @ CPo
            assert np.array_equal(Poo, det.P_oo)
            assert np.array_equal(Pbo, det.P_bo)

        # continue the covariance recursions alone out to T
        fro = np.linalg.norm
        for k in range(30, T):
            Pm_next = _sym(model.bigA @ P @ model.bigA.T + model.bigQ)
            CP = model.bigC @ Pm_next
            H_next = gain(CP @ model.bigC.T + R, CP)
            P = _sym(Pm_next - H_next @ CP)
            Poo_m_next = _sym(d.Ao @ Poo @ d.Ao.T + d.Qo)
            Pbo_m_next = d.A @ Pbo @ d.Ao.T + d.Qbo
            CPo = d.Co @ Poo_m_next
            Ho_next = gain(CPo @ d.Co.T + R, CPo)
            Hbo_next = gain(CPo @ d.Co.T + R, d.Co @ Pbo_m_next.T)
            Poo = _sym(Poo_m_next - Ho_next @ CPo)
            Pbo = Pbo_m_next - Hbo_next @ CPo
            if k == T - 1:
                gain_rel = fro(H_next - H) / fro(H_next)
                prior_rel = fro(Pm_next - Pm) / fro(Pm_next)
                det_gain_rel = fro(Ho_next - H_o) / fro(Ho_next)
                det_cross_rel = fro(Hbo_next - H_bo) / fro(Hbo_next)
                det_prior_rel = fro(Poo_m_next - Poo_m) / fro(Poo_m_next)
                det_cprior_rel = fro(Pbo_m_next - Pbo_m) / fro(Pbo_m_next)
            H, H_o, H_bo = H_next, Ho_next, Hbo_next
            Pm, Poo_m, Pbo_m = Pm_next, Poo_m_next, Pbo_m_next

        # determinate filter: clean convergence of everything
        assert det_gain_rel <= 1e-12
        assert det_cross_rel <= 1e-12
        assert det_prior_rel <= 1e-12
        assert det_cprior_rel <= 1e-12
        # standard filter: the prior covariance keeps moving, and the
        # gain increment bottoms out on a roundoff floor (the divergent
        # unobservable block pollutes C P-minus by cancellation, so the
        # floor grows with k and 1e-12 is out of reach in doubles)
        assert prior_rel >= 1e3 * 1e-12
        assert gain_rel <= 1e-8
        assert gain_rel >= 100 * det_gain_rel


# ---------------------------------------------------------------------------
# lean steps and the offline pass against the references


def _general_basis(n_clocks: int, q: np.ndarray, rng) -> np.ndarray:
    # the weight rows plus a perturbation small enough that Wbar (I2 kron 1)
    # stays well conditioned
    wbar = np.kron(np.eye(2), q[None, :])
    return wbar + 0.1 / np.sqrt(n_clocks) * rng.standard_normal((2, 2 * n_clocks))


def _basis(model, kind: str) -> np.ndarray:
    rng = np.random.default_rng(31)
    q = rng.dirichlet(np.ones(model.N))
    return q if kind == "weight" else _general_basis(model.N, q, rng)


def _assert_states_equal(lean, ref) -> None:
    for f in fields(ref):
        a, b = getattr(lean, f.name), getattr(ref, f.name)
        if b is None:
            assert a is None, f.name
        else:
            assert np.array_equal(a, b), f.name


def _omega(rng, n_clocks: int):
    return 1e-10 * rng.standard_normal(n_clocks - 1), float(1e-10 * rng.standard_normal())


class TestLeanStepsMatchReference:
    T = 300

    @pytest.mark.parametrize("with_inputs", [False, True])
    def test_standard_step(self, with_inputs):
        model = demo_ensemble()
        rec = simulate(model, None, self.T, seed=41)
        rng = np.random.default_rng(42)
        lean, ref = standard_kf_init(model), standard_kf_init(model)
        for k in range(self.T):
            u_prev = 1e-10 * rng.standard_normal(model.N) if with_inputs and k else None
            lean = standard_kf_step(model, lean, u_prev, rec.y[k])
            ref = reference_standard_kf_step(model, ref, u_prev, rec.y[k])
            _assert_states_equal(lean, ref)

    @pytest.mark.parametrize("with_inputs", [False, True])
    @pytest.mark.parametrize("basis", ["weight", "general"])
    def test_determinate_step(self, basis, with_inputs):
        model = demo_ensemble()
        d = decompose(model, _basis(model, basis))
        rec = simulate(model, None, self.T, seed=43)
        rng = np.random.default_rng(44)
        lean, ref = determinate_kf_init(d), determinate_kf_init(d)
        for k in range(self.T):
            omega = _omega(rng, model.N) if with_inputs and k else None
            lean = determinate_kf_step(d, model.meas.R, lean, omega, rec.y[k])
            ref = reference_determinate_kf_step(d, model.meas.R, ref, omega, rec.y[k])
            _assert_states_equal(lean, ref)

    @pytest.mark.parametrize("basis", ["weight"])  # EemPolicy refuses a general basis
    def test_stationary_step(self, basis):
        # the frozen-gain step is EemPolicy's observer: each call predicts
        # with the policy's previous command
        model = demo_ensemble()
        d = decompose(model, _basis(model, basis))
        g = solve_stationary(d, model.meas.R)
        cfg = ControllerConfig(
            F_o=default_obs_gain(model.N, model.tau), K_bo=default_collective_gain(7, model.tau), m=7, phase=3
        )
        policy = EemPolicy(cfg, d, g)
        rec = simulate(model, None, self.T, seed=45)
        ref = determinate_kf_init(d)
        for k in range(self.T):
            omega = policy._last_omega if k else None
            policy(k, rec.y[k])
            ref = reference_stationary_kf_step(d, g, ref, omega, rec.y[k])
            _assert_states_equal(policy.state, ref)
        assert np.count_nonzero(policy.command_log()[1]) == len(range(3, self.T, 7))


def loop_over_steps(model, y, x=None, d=None, std_step=standard_kf_step, det_step=determinate_kf_step):
    """``filter_pass``'s per-step results from a loop over the library
    steps, or over the steps given (such as the reference steps)."""
    fro = np.linalg.norm
    T, N = y.shape[0], model.N
    eps, inc = np.empty(T), np.empty((T, 4))
    deviation, det_inc = np.empty(T), np.empty((T, 4))
    std = standard_kf_init(model)
    det = determinate_kf_init(d) if d is not None else None
    for k in range(T):
        prev = std
        std = std_step(model, std, None, y[k])
        if x is not None:
            eps[k] = reference_timescale(x[k] - std.xhat, N)
        inc[k] = (
            np.nan if k == 0 else fro(std.H - prev.H, "fro"),
            fro(std.H, "fro"),
            np.nan if k == 0 else fro(std.P_minus - prev.P_minus, "fro"),
            fro(std.P_minus, "fro"),
        )
        if d is not None:
            prev = det
            det = det_step(d, model.meas.R, det, None, y[k])
            recon = reconstruct_state(det.xi_o_post, det.xi_obar_post, d)
            deviation[k] = fro(recon - std.xhat) / max(fro(std.xhat), 1e-300)
            det_inc[k] = (
                np.nan if k == 0 else fro(det.H_o - prev.H_o, "fro"),
                fro(det.H_o, "fro"),
                np.nan if k == 0 else fro(det.H_bo - prev.H_bo, "fro"),
                fro(det.H_bo, "fro"),
            )
    return eps, inc, deviation, det_inc


class TestFilterPass:
    T = 300

    # 4200 steps cross the 4096-row block of posterior phases
    @pytest.mark.parametrize("n_clocks, T", [(10, 300), (10, 4200), (3, 300)])
    def test_standard_pass_matches_step_loop(self, n_clocks, T):
        model = demo_ensemble(n_clocks=n_clocks)
        rec = simulate(model, None, T, seed=51)
        run = filter_pass(model, rec.y, x=rec.x, increments=True)
        eps, inc, _, _ = loop_over_steps(model, rec.y, x=rec.x)
        assert np.array_equal(run.eps, eps)
        assert np.array_equal(run.increments, inc, equal_nan=True)
        assert run.deviation is None and run.det_increments is None

    @pytest.mark.parametrize("basis", ["weight", "general"])
    def test_determinate_twin_matches_step_loop(self, basis):
        model = demo_ensemble()
        d = decompose(model, _basis(model, basis))
        rec = simulate(model, None, self.T, seed=53)
        run = filter_pass(model, rec.y, d=d)
        _, _, deviation, det_inc = loop_over_steps(model, rec.y, d=d)
        assert np.array_equal(run.deviation, deviation)
        assert np.array_equal(run.det_increments, det_inc, equal_nan=True)
        assert run.eps is None and run.increments is None
        assert np.max(run.deviation) < 1e-8


def _assert_pass_equal(run, eps, inc, deviation, det_inc) -> None:
    assert np.array_equal(run.eps, eps)
    assert np.array_equal(run.increments, inc, equal_nan=True)
    assert np.array_equal(run.deviation, deviation)
    assert np.array_equal(run.det_increments, det_inc, equal_nan=True)


class TestFilterPassSubBlocks:
    """``filter_pass`` reduces its steps in sub-blocks of ``filters._SUB``;
    every row equals the step loop's at and across their edges."""

    def test_sub_block_length(self):
        assert filters._SUB == 32

    @pytest.mark.parametrize("T", [1, 2, 31, 32, 33, 4097])
    @pytest.mark.parametrize("n_clocks", [2, 3, 10])
    @pytest.mark.parametrize("basis", ["weight", "general"])
    def test_matches_step_loop(self, basis, n_clocks, T):
        model = demo_ensemble(n_clocks=n_clocks)
        d = decompose(model, _basis(model, basis))
        rec = simulate(model, None, T, seed=57)
        ref = loop_over_steps(model, rec.y, x=rec.x, d=d)
        _assert_pass_equal(filter_pass(model, rec.y, x=rec.x, d=d, increments=True), *ref)
        # each output alone: a pass stores only the matrices its outputs need
        eps, inc, deviation, det_inc = ref
        assert np.array_equal(filter_pass(model, rec.y, x=rec.x).eps, eps)
        assert np.array_equal(filter_pass(model, rec.y, increments=True).increments, inc, equal_nan=True)
        twin = filter_pass(model, rec.y, d=d)
        assert np.array_equal(twin.deviation, deviation)
        assert np.array_equal(twin.det_increments, det_inc, equal_nan=True)

    @staticmethod
    def _overflowing():
        # random-walk FM of 1.5e152: the standard filter's diverging
        # unobservable block overflows the innovation covariance at step 48
        params = [NoiseParams(DEMO_SIGMA1[i], 1.5e152) for i in range(10)]
        model = build_ensemble(params, star_measurement(10), np.diag(np.asarray(DEMO_MEAS_STD) ** 2), 1.0)
        return model, model

    @staticmethod
    def _indefinite():
        # a negative process covariance patched in (build_ensemble refuses
        # it) shrinks the prior each step, until S turns indefinite at step 48
        model = build_ensemble([NoiseParams(1e-10, 1e-13)] * 3, star_measurement(3), np.eye(2) * 3.0e-17, 1.0)
        return dataclasses.replace(model, bigQ=-model.bigQ), model

    @pytest.mark.parametrize("with_d", [False, True])
    @pytest.mark.parametrize("case", ["_overflowing", "_indefinite"])
    def test_failure_inside_a_sub_block_matches_step_loop(self, case, with_d):
        model, source = getattr(self, case)()
        rec = simulate(source, None, 60, seed=3)
        d = decompose(model, np.full(model.N, 1.0 / model.N)) if with_d else None
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError) as ref:
                loop_over_steps(model, rec.y, x=rec.x, d=d)
            with pytest.raises(NumericalError) as got:
                filter_pass(model, rec.y, x=rec.x, d=d, increments=True)
            # the failing step is 48, the 17th of the second sub-block
            filter_pass(model, rec.y[:48], x=rec.x, d=d, increments=True)
            with pytest.raises(NumericalError):
                filter_pass(model, rec.y[:49], x=rec.x, d=d, increments=True)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)

    def test_heap_is_one_sub_block(self):
        # beyond the arrays it returns, the pass holds a sub-block of
        # posteriors and gains and its reduction temporaries, whatever T
        model = demo_ensemble()
        d = decompose(model, _basis(model, "weight"))
        rec = simulate(model, None, 40_000, seed=59)
        filter_pass(model, rec.y[:40], d=d)
        extra = []
        for T in (20_000, 40_000):
            tracemalloc.start()
            try:
                run = filter_pass(model, rec.y[:T], d=d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - run.deviation.nbytes - run.det_increments.nbytes)
        assert extra[0] <= 0.5e6
        assert extra[1] <= extra[0]


def _weight_or_basis(model, name: str) -> np.ndarray:
    if name == "uniform":
        return np.full(model.N, 1.0 / model.N)
    if name == "short":
        return weight_short(model.sigma1_sq)
    if name == "last-clock":
        return np.eye(model.N)[-1]
    return _basis(model, "general")


class TestFilterPassAgainstReferenceSteps:
    """The offline pass, with its one posv per gain and its stacked
    determinate covariance, against the scipy ``cho_factor``/``cho_solve``
    reference steps, bit for bit, at and across the sub-block edges."""

    @pytest.mark.parametrize("T", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("basis", ["uniform", "short", "last-clock", "general"])
    def test_determinate_and_eps_only_passes(self, basis, T):
        model = demo_ensemble()
        d = decompose(model, _weight_or_basis(model, basis))
        rec = simulate(model, None, T, seed=61)
        eps, _, deviation, det_inc = loop_over_steps(
            model, rec.y, x=rec.x, d=d,
            std_step=reference_standard_kf_step, det_step=reference_determinate_kf_step,
        )
        twin = filter_pass(model, rec.y, d=d)
        assert np.array_equal(twin.deviation, deviation)
        assert np.array_equal(twin.det_increments, det_inc, equal_nan=True)
        assert np.array_equal(filter_pass(model, rec.y, x=rec.x).eps, eps)


def _spd(rng, p: int, cond: float) -> np.ndarray:
    # a random SPD matrix with eigenvalues spread log-uniformly over cond
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    S = (Q * np.logspace(0.0, -np.log10(cond), p)) @ Q.T
    return 0.5 * (S + S.T) * 10.0 ** rng.uniform(-30, 0)


class TestGainSolve:
    # at 1e18, past double precision, about half the systems are not
    # positive definite in floating point: both paths refuse the same ones
    @pytest.mark.parametrize("cond", [1e0, 1e4, 1e8, 1e12, 1e15, 1e18])
    def test_posv_matches_cho_factor_and_solve(self, cond):
        rng = np.random.default_rng(int(np.log10(cond)))
        for _ in range(100):
            p, n = int(rng.integers(1, 13)), int(rng.integers(1, 25))
            S, CP = _spd(rng, p, cond), rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-20, 0)
            try:
                want = reference_spd_solve_gain(S, CP)
            except NumericalError as exc:
                with pytest.raises(NumericalError, match=str(exc)):
                    _gain_solve(np.hstack([CP, S]), CP, S)
                continue
            assert np.array_equal(_gain_solve(np.hstack([CP, S]), CP, S).T, want)
            # as the kernels call it, on views of one [CP | S] buffer
            BS = np.hstack([CP, S])
            assert np.array_equal(_gain_solve(BS, BS[:, :n], BS[:, n:]).T, want)

    @pytest.mark.parametrize(
        "S, rhs_entry, message",
        [
            # S is checked first, then its definiteness, then the right-hand side
            ([[1.0, np.nan], [np.nan, 1.0]], 1.0, "innovation covariance is not finite"),
            ([[np.inf, 0.0], [0.0, 1.0]], np.nan, "innovation covariance is not finite"),
            ([[1.0, 2.0], [2.0, 1.0]], np.nan, "innovation covariance is not positive definite"),
            ([[1.0, 2.0], [2.0, 1.0]], 1.0, "innovation covariance is not positive definite"),
            ([[2.0, 1.0], [1.0, 2.0]], np.inf, "gain right-hand side is not finite"),
        ],
    )
    def test_error_order(self, S, rhs_entry, message):
        S, CP = np.array(S), np.ones((2, 3))
        CP[1, 2] = rhs_entry
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=f"^{message}$"):
            _gain_solve(np.hstack([CP, S]), CP, S)


@settings(max_examples=40, deadline=None)
@given(
    n_clocks=st.integers(2, 12),
    T=st.integers(1, 100),
    general=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_filter_pass_matches_step_loop(n_clocks, T, general, seed):
    model = _property_model(n_clocks)
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(n_clocks))
    d = decompose(model, _general_basis(n_clocks, q, rng) if general else q)
    rec = simulate(model, None, T, seed=seed)
    run = filter_pass(model, rec.y, x=rec.x, d=d, increments=True)
    _assert_pass_equal(run, *loop_over_steps(model, rec.y, x=rec.x, d=d))


class TestNonFiniteCovariance:
    """An inf in a covariance reaches the innovation covariance or the gain
    right-hand side and raises NumericalError (exit code 3 in the CLI)."""

    def test_standard_step(self):
        model = demo_ensemble(n_clocks=3)
        state = standard_kf_init(model)
        state.P[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            standard_kf_step(model, state, None, np.zeros(2))

    @pytest.mark.parametrize("field", ["P_oo", "P_bo"])
    def test_determinate_step(self, field):
        model = demo_ensemble(n_clocks=3)
        d = decompose(model, np.full(3, 1 / 3))
        state = determinate_kf_init(d)
        getattr(state, field)[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
            determinate_kf_step(d, model.meas.R, state, None, np.zeros(2))

    def test_stationary_solve(self):
        model = demo_ensemble(n_clocks=3)
        d = decompose(model, np.full(3, 1 / 3))
        R = model.meas.R.copy()
        R[1, 1] = np.inf
        with pytest.raises(NumericalError, match="measurement noise covariance is not finite"):
            solve_stationary(d, R)


def _property_model(n_clocks: int):
    params = [NoiseParams(DEMO_SIGMA1[i % 10], DEMO_SIGMA2[i % 10]) for i in range(n_clocks)]
    R = np.diag(np.resize(DEMO_MEAS_STD, n_clocks - 1) ** 2)
    return build_ensemble(params, star_measurement(n_clocks), R, 1.0)


@settings(max_examples=40, deadline=None)
@given(n_clocks=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_property_lean_steps_and_lemma_one(n_clocks, seed):
    model = _property_model(n_clocks)
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(n_clocks))
    T = 40
    rec = simulate(model, None, T, seed=seed)
    std, std_ref = standard_kf_init(model), standard_kf_init(model)
    xhats = []
    for k in range(T):
        std = standard_kf_step(model, std, None, rec.y[k])
        std_ref = reference_standard_kf_step(model, std_ref, None, rec.y[k])
        _assert_states_equal(std, std_ref)
        xhats.append(std.xhat)
    scale = max(np.max(np.abs(xh)) for xh in xhats)
    for basis, bound in ((q, 1e-10), (_general_basis(n_clocks, q, rng), 1e-8)):
        d = decompose(model, basis)
        det, det_ref = determinate_kf_init(d), determinate_kf_init(d)
        worst = 0.0
        for k in range(T):
            det = determinate_kf_step(d, model.meas.R, det, None, rec.y[k])
            det_ref = reference_determinate_kf_step(d, model.meas.R, det_ref, None, rec.y[k])
            _assert_states_equal(det, det_ref)
            recon = reconstruct_state(det.xi_o_post, det.xi_obar_post, d)
            worst = max(worst, np.max(np.abs(recon - xhats[k])))
        assert worst <= bound * scale


# ---------------------------------------------------------------------------
# reference stationary solver


def reference_solve_stationary(
    d: Decomposition,
    R: np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 10**6,
    warm_start: Optional[np.ndarray] = None,
) -> StationaryGains:
    """Iterate-and-polish stationary solver, kept as the oracle for the
    doubling solve in ``solve_stationary``.

    The observable prior covariance is obtained by iterating the exact
    covariance recursion from Qo (or from ``warm_start``, which lets a
    solution for one weight seed the solve for another: the observable
    fixed point does not depend on the weight) until the relative
    Frobenius increment drops below ``tol``, then polished to the
    machine floor by re-solving the frozen-gain covariance equation.
    The cross covariance then solves a linear system of dimension
    4(N-1) by vectorization.  Both fixed-point residuals are checked
    before returning.
    """
    n_obs = 2 * (d.N - 1)
    R = np.asarray(R, dtype=float)
    P = d.Qo.copy() if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    if P.shape != (n_obs, n_obs):
        raise ValueError(f"warm_start must have shape ({n_obs}, {n_obs})")

    def advance(P_prior: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        CP = d.Co @ P_prior
        S = CP @ d.Co.T + R
        H = gain(S, CP)
        P_next = _sym(d.Ao @ (P_prior - H @ CP) @ d.Ao.T + d.Qo)
        return P_next, H, CP

    iterations = 0
    rel = np.inf
    for iterations in range(1, max_iter + 1):
        P_next, _, _ = advance(P)
        rel = np.linalg.norm(P_next - P, "fro") / max(np.linalg.norm(P_next, "fro"), 1e-300)
        P = P_next
        if rel <= tol:
            break
    else:
        raise ConvergenceError(
            f"observable covariance did not converge in {max_iter} iterations "
            f"(last relative increment {rel:.3e})"
        )

    # polish to the machine floor: the iteration leaves a truncation error
    # of order tol/(1 - rho^2), which the ill-conditioned cross solve below
    # would amplify by 1/(1 - rho).  Re-solving the frozen-gain (Joseph
    # form) Stein equation removes it; gain suboptimality only enters at
    # second order, so one or two solves suffice.
    eye_obs = np.eye(n_obs)
    for _ in range(5):
        CP = d.Co @ P
        H = gain(CP @ d.Co.T + R, CP)
        Z_pol = d.Ao @ (eye_obs - H @ d.Co)
        rhs = _sym(d.Qo + d.Ao @ H @ R @ H.T @ d.Ao.T)
        try:
            vec = np.linalg.solve(
                np.eye(n_obs**2) - np.kron(Z_pol, Z_pol), rhs.flatten(order="F")
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "frozen-gain covariance equation is singular during polish"
            ) from exc
        P_polished = _sym(vec.reshape((n_obs, n_obs), order="F"))
        move = np.linalg.norm(P_polished - P, "fro") / max(
            np.linalg.norm(P, "fro"), 1e-300
        )
        P = P_polished
        if move <= 1e-15:
            break

    CP = d.Co @ P
    S = CP @ d.Co.T + R
    H_o = gain(S, CP)
    gain_complement = np.eye(n_obs) - H_o @ d.Co
    Z = d.Ao @ gain_complement

    # cross equation P_bo = A P_bo Z^T + X, solved by column-major vectorization
    X = d.Qbo + d.coupling @ P @ gain_complement.T @ d.Ao.T
    M = np.eye(4 * (d.N - 1)) - np.kron(Z, d.A)
    try:
        vec = np.linalg.solve(M, X.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "vectorized cross-covariance system is singular; the observable "
            "closed loop is not contractive"
        ) from exc
    P_bo = vec.reshape((2, n_obs), order="F")
    H_bo = gain(S, d.Co @ P_bo.T)

    P_check, _, _ = advance(P)
    residual_oo = float(
        np.linalg.norm(P_check - P, "fro") / max(np.linalg.norm(P, "fro"), 1e-300)
    )
    bo_map = d.A @ P_bo @ Z.T + X
    residual_bo = float(
        np.linalg.norm(bo_map - P_bo, "fro") / max(np.linalg.norm(P_bo, "fro"), 1e-300)
    )
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


class TestStationary:
    def test_fixed_point_residuals(self):
        model = demo_ensemble(n_clocks=4)
        d = decompose(model, np.full(4, 0.25))
        g = solve_stationary(d, model.meas.R)
        assert g.residual_oo <= 1e-10
        assert g.residual_bo <= 1e-10
        assert g.spectral_radius < 1.0
        # the returned covariance really is a fixed point of one update
        CP = d.Co @ g.P_oo_star
        H = gain(CP @ d.Co.T + model.meas.R, CP)
        P_next = _sym(d.Ao @ (g.P_oo_star - H @ CP) @ d.Ao.T + d.Qo)
        assert np.max(np.abs(P_next - g.P_oo_star)) <= 1e-10 * np.max(np.abs(g.P_oo_star))

    def test_observable_solution_does_not_depend_on_weight(self):
        model = demo_ensemble(n_clocks=4)
        d1 = decompose(model, np.full(4, 0.25))
        g1 = solve_stationary(d1, model.meas.R)
        d2 = decompose(model, np.array([0.4, 0.3, 0.2, 0.1]))
        g2 = solve_stationary(d2, model.meas.R)
        assert np.max(np.abs(g2.P_oo_star - g1.P_oo_star)) <= 1e-10 * np.max(np.abs(g1.P_oo_star))

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(filters, "_MAX_DOUBLINGS", 3)
        model = demo_ensemble(n_clocks=3)
        d = decompose(model, np.full(3, 1 / 3))
        with pytest.raises(ConvergenceError, match="in 3 doublings"):
            solve_stationary(d, model.meas.R)

    def test_nan_residual_fails_the_check(self):
        # at tau = 1e90 the residuals' Frobenius norms overflow to NaN,
        # which a "residual > bound" test let through as a solution
        model = demo_ensemble(tau=1e90)
        d = decompose(model, np.full(10, 0.1))
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="residual check"):
            solve_stationary(d, model.meas.R)

    def test_indefinite_noise_raises_numerical_error(self):
        model = demo_ensemble(n_clocks=3)
        d = decompose(model, np.full(3, 1 / 3))
        with pytest.raises(NumericalError):
            solve_stationary(d, -np.eye(2))

    @pytest.mark.parametrize(
        "R, message",
        [
            ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
            ([[1.0, 0.0], [0.0, -1e-30]], "not positive definite"),
            ([[1.0, 0.0], [0.0, np.nan]], "not finite"),
        ],
        ids=["indefinite", "negative-eigenvalue", "nan"],
    )
    def test_indefinite_or_non_finite_noise_is_rejected(self, R, message):
        # np.linalg.solve alone accepts the first two; the Cholesky check must not
        model = demo_ensemble(n_clocks=3)
        d = decompose(model, np.full(3, 1 / 3))
        with pytest.raises(NumericalError, match=f"measurement noise covariance is {message}"):
            solve_stationary(d, np.array(R))

    def test_frozen_gain_filter_matches_determinate_at_fixed_point(self):
        model = demo_ensemble(n_clocks=3)
        q = np.array([0.5, 0.25, 0.25])
        d = decompose(model, q)
        g = solve_stationary(d, model.meas.R)
        rec = simulate(model, None, 300, seed=12)
        det = determinate_kf_init(d)
        # start the exact recursion at the posterior of the stationary
        # point: its first predict lands on P_oo_star / P_bo_star, so its
        # gains equal the constant ones from the first step on
        det.P_oo = g.P_oo_star - g.H_o_star @ d.Co @ g.P_oo_star
        det.P_bo = g.P_bo_star - g.H_bo_star @ d.Co @ g.P_oo_star
        sta = determinate_kf_init(d)
        diffs, scale = [], 0.0
        for k in range(300):
            det = determinate_kf_step(d, model.meas.R, det, None, rec.y[k])
            sta = reference_stationary_kf_step(d, g, sta, None, rec.y[k])
            if k == 0:
                gain_gap = np.max(np.abs(det.H_o - g.H_o_star))
                assert gain_gap <= 1e-12 * np.max(np.abs(g.H_o_star))
            post = np.concatenate([det.xi_o_post, det.xi_obar_post])
            post_sta = np.concatenate([sta.xi_o_post, sta.xi_obar_post])
            diffs.append(np.max(np.abs(post_sta - post)))
            scale = max(scale, np.max(np.abs(post)))
        assert max(diffs) <= 1e-9 * scale

    def test_gains_json_round_trip(self, tmp_path):
        import json

        model = demo_ensemble(n_clocks=3)
        d = decompose(model, np.full(3, 1 / 3))
        g = solve_stationary(d, model.meas.R)
        path = tmp_path / "gains.json"
        _write_json(str(path), _gains_doc(g))
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "P_oo_star",
            "P_bo_star",
            "H_o_star",
            "H_bo_star",
            "residuals",
            "iterations",
            "spectral_radius",
        }
        assert np.allclose(doc["H_o_star"], g.H_o_star)
        assert doc["residuals"]["oo"] == g.residual_oo


def _oracle_weight(model, name):
    if name == "uniform":
        return np.full(model.N, 1.0 / model.N)
    if name == "short":
        return weight_short(model.sigma1_sq)
    if name == "long":
        return weight_long(model.sigma2_sq)
    return np.random.default_rng(21).dirichlet(np.ones(model.N))


@pytest.fixture(scope="module")
def reference_cold_solution():
    """Cold reference solve per ensemble size; the observable fixed point
    does not depend on the weight, so it warm-starts the other weights."""
    cache = {}

    def get(n_clocks):
        if n_clocks not in cache:
            model = demo_ensemble(n_clocks=n_clocks)
            d = decompose(model, np.full(n_clocks, 1.0 / n_clocks))
            cache[n_clocks] = reference_solve_stationary(d, model.meas.R)
        return cache[n_clocks]

    return get


class TestDoublingAgainstReference:
    @pytest.mark.parametrize("weight", ["uniform", "short", "long", "dirichlet"])
    @pytest.mark.parametrize("n_clocks", [4, 10])
    def test_matches_iterate_and_polish(self, n_clocks, weight, reference_cold_solution):
        model = demo_ensemble(n_clocks=n_clocks)
        d = decompose(model, _oracle_weight(model, weight))
        g = solve_stationary(d, model.meas.R)
        cold = reference_cold_solution(n_clocks)
        ref = (
            cold
            if weight == "uniform"
            else reference_solve_stationary(d, model.meas.R, warm_start=cold.P_oo_star)
        )
        scale_ho = np.linalg.norm(ref.H_o_star)
        # The 1e-12 bound has only a 1.7x margin.  The cross fixed point
        # P_bo is ill-conditioned, about 1/(1 - rho) with rho the spectral
        # radius, so a rounding-level change in P_oo moves it by up to
        # 6e-13; two exact solvers (Kronecker and Stein doubling) already
        # differ by 2.6e-13.  The spread is the problem's, not the solver's.
        for field, scale in (
            ("P_oo_star", np.linalg.norm(ref.P_oo_star)),
            ("P_bo_star", np.linalg.norm(ref.P_bo_star)),
            ("H_o_star", scale_ho),
            ("H_bo_star", scale_ho),
        ):
            diff = np.linalg.norm(getattr(g, field) - getattr(ref, field))
            assert diff <= 1e-12 * scale, f"{field}: {diff / scale:.3e} relative"
        # iterations counts doublings: 2^17 covariance steps already exceed
        # the ~3e4 that the plain iteration needs at these spectral radii
        assert g.iterations <= 20

    def test_fifty_clock_ensemble_solves_cold(self):
        # well past the bundled ten clocks: the observable block is 98 x 98,
        # where a Kronecker-product polish would need a 9604^2 dense system
        n = 50
        params = [NoiseParams(DEMO_SIGMA1[i % 10], DEMO_SIGMA2[i % 10]) for i in range(n)]
        R = np.diag(np.resize(DEMO_MEAS_STD, n - 1) ** 2)
        model = build_ensemble(params, star_measurement(n), R, 1.0)
        d = decompose(model, np.full(n, 1.0 / n))
        start = time.perf_counter()
        g = solve_stationary(d, model.meas.R)
        elapsed = time.perf_counter() - start
        assert g.residual_oo <= 1e-10
        assert g.residual_bo <= 1e-10
        assert g.spectral_radius < 1.0
        assert elapsed <= 5.0, f"cold solve took {elapsed:.2f} s"


class TestLongTermWeightShortcuts:
    def test_cross_gain_vanishes_at_long_term_weight(self):
        model = demo_ensemble(n_clocks=4)
        q_inf = weight_long(model.sigma2_sq)
        d = decompose(model, q_inf)
        g = solve_stationary(d, model.meas.R)
        assert np.linalg.norm(g.H_bo_star) <= 1e-10 * np.linalg.norm(g.H_o_star)

    def test_cross_gain_transport_identity(self):
        model = demo_ensemble(n_clocks=4)
        for q in (np.full(4, 0.25), np.array([0.4, 0.3, 0.2, 0.1])):
            d = decompose(model, q)
            g = solve_stationary(d, model.meas.R)
            shortcut = unobservable_gain_from_observable(d, g.H_o_star, model.sigma2_sq)
            assert np.max(np.abs(shortcut - g.H_bo_star)) <= 1e-10 * np.max(
                np.abs(g.H_bo_star)
            )

    def test_cross_covariance_shortcut(self):
        model = demo_ensemble(n_clocks=4)
        q_inf = weight_long(model.sigma2_sq)
        d = decompose(model, q_inf)
        g = solve_stationary(d, model.meas.R)
        shortcut = unobservable_covariance_from_observable(
            d, g.P_oo_star, model.sigma1_sq, model.sigma2_sq
        )
        assert np.max(np.abs(shortcut - g.P_bo_star)) <= 1e-10 * np.max(np.abs(g.P_bo_star))

    def test_generic_weight_keeps_cross_gain_alive(self):
        model = demo_ensemble(n_clocks=4)
        rng = np.random.default_rng(14)
        q = rng.random(4) + 0.1
        q /= q.sum()
        d = decompose(model, q)
        g = solve_stationary(d, model.meas.R)
        assert np.linalg.norm(g.H_bo_star) >= 1e-3 * np.linalg.norm(g.H_o_star)


def transport_case(n_clocks: int, seed: int):
    """The bundled noise levels cycled to n_clocks, a Dirichlet weight, and
    the cold stationary solve of that weight."""
    params = [NoiseParams(DEMO_SIGMA1[i % 10], DEMO_SIGMA2[i % 10]) for i in range(n_clocks)]
    R = np.diag(np.resize(DEMO_MEAS_STD, n_clocks - 1) ** 2)
    model = build_ensemble(params, star_measurement(n_clocks), R, 1.0)
    d = decompose(model, np.random.default_rng(seed).dirichlet(np.ones(n_clocks)))
    return model, d, solve_stationary(d, model.meas.R)


@settings(max_examples=200, deadline=None)
@given(n_clocks=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_property_weight_transport_matches_stationary_solve(n_clocks, seed):
    # the worst relative gaps seen over 2,000 such cases were 2.3e-12
    # (gain) and 1.0e-12 (covariance)
    model, d, g = transport_case(n_clocks, seed)
    gain = unobservable_gain_from_observable(d, g.H_o_star, model.sigma2_sq)
    cov = unobservable_covariance_from_observable(d, g.P_oo_star, model.sigma1_sq, model.sigma2_sq)
    assert np.max(np.abs(gain - g.H_bo_star)) <= 1e-10 * np.max(np.abs(g.H_bo_star))
    assert np.max(np.abs(cov - g.P_bo_star)) <= 1e-10 * np.max(np.abs(g.P_bo_star))


@pytest.mark.parametrize("n_clocks", [2, 5, 12])
def test_weight_transport_rejects_a_general_basis(n_clocks):
    model, d, g = transport_case(n_clocks, seed=n_clocks)
    tilt = 0.01 * np.random.default_rng(n_clocks).normal(size=(2, 2 * n_clocks))
    general = decompose(model, d.T[-2:] + tilt)
    assert general.q is None
    with pytest.raises(ValueError, match="require a weight basis"):
        unobservable_gain_from_observable(general, g.H_o_star, model.sigma2_sq)
    with pytest.raises(ValueError, match="require a weight basis"):
        unobservable_covariance_from_observable(general, g.P_oo_star, model.sigma1_sq, model.sigma2_sq)


class TestInnovationCalibration:
    def test_normalized_innovation_squared_matches_dof(self):
        from scipy.linalg import cho_factor, cho_solve

        model = demo_ensemble(n_clocks=3)
        d = decompose(model, np.full(3, 1 / 3))
        rec = simulate(model, None, 4000, seed=15)
        state = determinate_kf_init(d)
        nis = []
        for k in range(4000):
            state = determinate_kf_step(d, model.meas.R, state, None, rec.y[k])
            if k < 500:
                continue  # let the covariance settle
            innov = rec.y[k] - d.Co @ state.xi_o_hat
            S = d.Co @ state.P_oo_minus @ d.Co.T + model.meas.R
            nis.append(innov @ cho_solve(cho_factor(S), innov))
        mean = float(np.mean(nis))
        assert abs(mean - 2.0) <= 0.2
