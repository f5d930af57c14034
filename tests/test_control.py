"""Controller tests: gain design, scheduling, and the closed loop.

The closed-loop checks lean on structural identities rather than long
statistics: the steering weight leaves its clock untouched bit-for-bit,
the ensemble mean rides the free-running destination no matter what the
synchronization feedback does, and the collective input moves every
relative coordinate by exactly nothing.
"""

from typing import NamedTuple, Optional

import numpy as np
import pytest

from eemsync import (
    ConfigError,
    ControllerConfig,
    Decomposition,
    DeterminateKFState,
    EemPolicy,
    StationaryGains,
    check_collective_gain,
    check_obs_gain,
    closed_loop,
    decompose,
    default_collective_gain,
    default_obs_gain,
    demo_ensemble,
    destination_trajectory,
    expand_input,
    project_state,
    run_scenario,
    simulate,
    solve_stationary,
    sync_error,
    validate_config,
)


# ---------------------------------------------------------------------------
# reference: the fused controller step that EemPolicy replaced, kept
# verbatim as the oracle for the policy's trajectories


class ControllerStep(NamedTuple):
    u: np.ndarray
    state: DeterminateKFState
    omega_o: np.ndarray
    omega_obar: float


def controller_init(d: Decomposition, x0: Optional[np.ndarray] = None) -> DeterminateKFState:
    """Prior estimates the observer starts from (zero unless given)."""
    if x0 is None:
        xi_o = np.zeros(2 * (d.N - 1))
        xi_obar = np.zeros(2)
    else:
        from eemsync.decomp import project_state

        xi_o, xi_obar = project_state(np.asarray(x0, dtype=float), d)
    return DeterminateKFState(xi_o_hat=xi_o, xi_obar_hat=xi_obar)


def eem_controller_step(
    cfg: ControllerConfig,
    d: Decomposition,
    g: StationaryGains,
    state: DeterminateKFState,
    y: np.ndarray,
    k: int,
) -> ControllerStep:
    """One closed-loop step: feedback from the prior estimates, then the
    observer update.

    The collective input fires only in balanced mode and only when k is
    on the configured schedule; otherwise it is exactly zero, so the
    steering weight keeps its designated clock untouched bit-for-bit.
    """
    xo = state.xi_o_hat
    xb = state.xi_obar_hat
    omega_o = -(cfg.F_o @ xo)
    if cfg.mode == "balanced" and (k - cfg.phase) % cfg.m == 0:
        omega_obar = float(-(cfg.K_bo @ xb)[0])
    else:
        omega_obar = 0.0

    innov = np.asarray(y, dtype=float) - d.Co @ xo
    post_o = xo + g.H_o_star @ innov
    post_obar = xb + g.H_bo_star @ innov
    new_state = DeterminateKFState(
        xi_o_hat=d.Ao @ post_o + d.Bo @ omega_o,
        xi_obar_hat=d.A @ post_obar + d.B * omega_obar,
        xi_o_post=post_o,
        xi_obar_post=post_obar,
    )
    u = expand_input(omega_o, omega_obar, d)
    return ControllerStep(u=u, state=new_state, omega_o=omega_o, omega_obar=omega_obar)


class ReferencePolicy:
    """Simulator policy looping over the reference controller step."""

    def __init__(self, cfg, d, g):
        self.cfg, self.d, self.g = cfg, d, g
        self.state = controller_init(d)
        self.omega_o_log, self.omega_obar_log = [], []

    def __call__(self, k, y):
        out = eem_controller_step(self.cfg, self.d, self.g, self.state, y, k)
        self.state = out.state
        self.omega_o_log.append(out.omega_o)
        self.omega_obar_log.append(out.omega_obar)
        return out.u


@pytest.fixture(scope="module")
def model4():
    return demo_ensemble(n_clocks=4)


@pytest.fixture(scope="module")
def uniform4(model4):
    q = np.full(4, 0.25)
    d = decompose(model4, q)
    g = solve_stationary(d, model4.meas.R)
    return q, d, g


@pytest.fixture(scope="module")
def steer4(model4, uniform4):
    q = np.zeros(4)
    q[-1] = 1.0
    d = decompose(model4, q)
    # P_oo* does not depend on the weight, so reuse the uniform solve
    g = solve_stationary(d, model4.meas.R, warm_start=uniform4[2].P_oo_star)
    return q, d, g


class TestGainDesign:
    def test_obs_gain_closed_loop_spectrum(self):
        N, tau = 3, 2.5
        F_o = default_obs_gain(N, tau)
        A = np.array([[1.0, tau], [0.0, 1.0]])
        Ao = np.kron(A, np.eye(N - 1))
        Bo = np.kron(np.array([[tau], [1.0]]), np.eye(N - 1))
        eig = np.sort(np.abs(np.linalg.eigvals(Ao - Bo @ F_o)))
        np.testing.assert_allclose(eig, [0.0, 0.0, 0.9, 0.9], atol=1e-12)
        assert check_obs_gain(F_o, N, tau) == pytest.approx(0.9, abs=1e-12)

    def test_collective_gain_closed_loop_spectrum(self):
        m, tau = 200, 1.0
        K = default_collective_gain(m, tau)
        Am = np.array([[1.0, m * tau], [0.0, 1.0]])
        Bm = np.array([[m * tau], [1.0]])
        eig = np.sort(np.abs(np.linalg.eigvals(Am - Bm @ K)))
        np.testing.assert_allclose(eig, [0.0, 0.99], atol=1e-12)
        assert check_collective_gain(K, m, tau) == pytest.approx(0.99, abs=1e-12)

    def test_gain_scaling_holds_across_tau_and_period(self):
        # coefficients are normalized by tau (and m tau), so the closed
        # loop keeps its spectrum at any step size or period
        assert check_obs_gain(default_obs_gain(5, 900.0), 5, 900.0) == pytest.approx(
            0.9, abs=1e-9
        )
        rho = check_collective_gain(default_collective_gain(7, 0.25), 7, 0.25)
        assert rho == pytest.approx(0.99, abs=1e-9)

    def test_zero_gains_are_marginal(self):
        assert check_obs_gain(np.zeros((3, 6)), 4, 1.0) == 1.0
        assert check_collective_gain(np.zeros((1, 2)), 5, 1.0) == 1.0

    def test_shape_and_period_validation(self):
        with pytest.raises(ValueError, match="shape"):
            check_obs_gain(np.zeros((2, 2)), 4, 1.0)
        with pytest.raises(ValueError, match="period"):
            check_collective_gain(np.zeros((1, 2)), 0, 1.0)


class TestControllerConfig:
    def test_balanced_requires_collective_gain(self):
        with pytest.raises(ConfigError, match="collective gain"):
            ControllerConfig(
                q=np.full(4, 0.25),
                F_o=default_obs_gain(4, 1.0),
                K_bo=None,
                m=200,
                mode="balanced",
            )

    def test_aggregates_all_problems(self):
        with pytest.raises(ConfigError) as excinfo:
            ControllerConfig(
                q=np.full(4, 0.25),
                F_o=np.zeros((2, 2)),
                K_bo=None,
                m=0,
                mode="bogus",
            )
        message = str(excinfo.value)
        assert "mode" in message
        assert "shape" in message
        assert "period" in message

    def test_marginal_gain_rejected(self):
        with pytest.raises(ConfigError, match="not contractive"):
            ControllerConfig(
                q=np.full(4, 0.25),
                F_o=np.zeros((3, 6)),
                K_bo=None,
                m=1,
                mode="sync-only",
            )

    def test_validate_false_skips_spectral_checks(self):
        cfg = ControllerConfig(
            q=np.full(4, 0.25),
            F_o=np.zeros((3, 6)),
            K_bo=None,
            m=1,
            mode="sync-only",
            validate=False,
        )
        assert cfg.mode == "sync-only"
        assert cfg.N == 4

    def test_unstable_collective_gain_rejected(self):
        with pytest.raises(ConfigError, match="collective closed loop"):
            ControllerConfig(
                q=np.full(4, 0.25),
                F_o=default_obs_gain(4, 1.0),
                K_bo=np.array([[-0.01, -1.0]]),
                m=10,
                mode="balanced",
            )

    def test_field_coercion(self):
        cfg = ControllerConfig(
            q=[0.25, 0.25, 0.25, 0.25],
            F_o=default_obs_gain(4, 1.0),
            K_bo=[0.01, 1.0],
            m=3.0,
            mode="balanced",
        )
        assert cfg.m == 3 and isinstance(cfg.m, int)
        assert cfg.K_bo.shape == (1, 2)
        assert isinstance(cfg.q, np.ndarray)
        assert cfg.N == 4


class TestDestinationTrajectory:
    def test_matches_weighted_free_run(self, model4):
        q = np.array([0.4, 0.3, 0.2, 0.1])
        T = 300
        free = simulate(model4, None, T, seed=77)
        dest = destination_trajectory(model4, q, T, seed=77)
        assert dest.shape == (T + 1, 2)
        np.testing.assert_allclose(dest[:, 0], free.h @ q, rtol=1e-9, atol=1e-24)
        np.testing.assert_allclose(dest[:, 1], free.x[:, 4:] @ q, rtol=1e-9, atol=1e-24)

    def test_initial_state_projection(self, model4):
        q = np.full(4, 0.25)
        x0 = np.arange(8.0)
        dest = destination_trajectory(model4, q, 5, seed=3, x0=x0)
        assert dest[0, 0] == x0[:4] @ q
        assert dest[0, 1] == x0[4:] @ q

    def test_recursion_on_recorded_noise(self, model4):
        q = np.full(4, 0.25)
        T = 200
        free = simulate(model4, None, T, seed=21, record_noise=True)
        dest = destination_trajectory(model4, q, T, seed=21)
        A = np.array([[1.0, model4.tau], [0.0, 1.0]])
        kicked = dest[:-1] @ A.T
        driven = np.column_stack([free.v[:, :4] @ q, free.v[:, 4:] @ q])
        np.testing.assert_allclose(dest[1:], kicked + driven, rtol=1e-9, atol=1e-24)

    def test_horizon_validation(self, model4):
        with pytest.raises(ValueError, match="T must be"):
            destination_trajectory(model4, np.full(4, 0.25), 0, seed=1)
        with pytest.raises(ValueError, match="x0"):
            destination_trajectory(model4, np.full(4, 0.25), 5, seed=1, x0=np.zeros(3))


@pytest.fixture(scope="module")
def step_setup():
    model = demo_ensemble(n_clocks=3)
    q = np.full(3, 1.0 / 3)
    d = decompose(model, q)
    g = solve_stationary(d, model.meas.R)
    cfg = ControllerConfig(
        q=q,
        F_o=default_obs_gain(3, model.tau),
        K_bo=default_collective_gain(3, model.tau),
        m=3,
        mode="balanced",
        phase=1,
    )
    return model, d, g, cfg


class TestControllerStep:
    def test_quiescent_loop_stays_quiet(self, step_setup):
        _, d, g, cfg = step_setup
        policy = EemPolicy(cfg, d, gains=g)
        for k in range(4):
            u = policy(k, np.zeros(2))
            assert np.all(u == 0.0)
            assert np.all(policy.omega_o_log[-1] == 0.0)
            assert policy.omega_obar_log[-1] == 0.0
            assert np.all(policy.state.xi_o_hat == 0.0)
            assert np.all(policy.state.xi_obar_hat == 0.0)

    def test_kick_schedule_with_phase(self, step_setup):
        _, d, g, cfg = step_setup
        policy = EemPolicy(cfg, d, gains=g)
        policy.state = DeterminateKFState(
            xi_o_post=np.zeros(4), xi_obar_post=np.array([1.0, 0.5])
        )
        for k in range(9):
            policy(k, np.zeros(2))
            expected = float(-(cfg.K_bo @ policy.state.xi_obar_hat)[0])
            if k % 3 == 1:  # phase = 1, period = 3
                assert expected != 0.0
                assert policy.omega_obar_log[-1] == expected
            else:
                assert policy.omega_obar_log[-1] == 0.0

    def test_feedback_acts_on_prior_estimate(self, step_setup):
        _, d, g, cfg = step_setup
        rng = np.random.default_rng(8)
        policy = EemPolicy(cfg, d, gains=g)
        post_o, post_obar = rng.normal(size=4), rng.normal(size=2)
        policy.state = DeterminateKFState(xi_o_post=post_o, xi_obar_post=post_obar)
        u = policy(1, rng.normal(size=2))
        # the command comes from the prior, before y is folded in
        prior_o = d.Ao @ post_o + d.Bo @ np.zeros(2)
        assert np.array_equal(policy.state.xi_o_hat, prior_o)
        omega_o, omega_obar = policy.omega_o_log[-1], policy.omega_obar_log[-1]
        assert np.array_equal(omega_o, -(cfg.F_o @ prior_o))
        assert omega_obar != 0.0
        assert np.array_equal(u, expand_input(omega_o, omega_obar, d))
        # and the next predict advances past that command
        post_o = policy.state.xi_o_post
        post_obar = policy.state.xi_obar_post
        policy(2, rng.normal(size=2))
        assert np.array_equal(policy.state.xi_o_hat, d.Ao @ post_o + d.Bo @ omega_o)
        assert np.array_equal(
            policy.state.xi_obar_hat,
            d.coupling @ post_o + d.A @ post_obar + d.B * omega_obar,
        )


LOOP_T = 4000
LOOP_SEED = 5


@pytest.fixture(scope="module")
def controlled(model4, uniform4):
    q, d, g = uniform4
    cfg = ControllerConfig(
        q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
    )
    policy = EemPolicy(cfg, d, gains=g)
    traj = simulate(model4, policy, LOOP_T, seed=LOOP_SEED)
    dest = destination_trajectory(model4, q, LOOP_T, seed=LOOP_SEED)
    return traj, dest, policy


class TestClosedLoop:

    def test_steering_weight_never_touches_its_clock(self, model4, steer4):
        q, d, g = steer4
        cfg = ControllerConfig(
            q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
        )
        traj = simulate(model4, EemPolicy(cfg, d, gains=g), 400, seed=101)
        assert np.all(traj.u[:, -1] == 0.0)
        assert np.max(np.abs(traj.u[:, :-1])) > 0.0

    def test_sync_feedback_contains_relative_phases(self, model4, uniform4, controlled):
        q, d, g = uniform4
        traj, _, _ = controlled
        cfg_free = ControllerConfig(
            q=q,
            F_o=np.zeros((3, 6)),
            K_bo=None,
            m=1,
            mode="sync-only",
            validate=False,
        )
        free = simulate(model4, EemPolicy(cfg_free, d, gains=g), LOOP_T, seed=LOOP_SEED)
        rel_ctrl = np.max(np.abs(model4.meas.V @ traj.h.T))
        rel_free = np.max(np.abs(model4.meas.V @ free.h.T))
        # probed at seed 5: ratio 16.1
        assert rel_free > 5.0 * rel_ctrl

    def test_mean_rides_the_destination(self, uniform4, controlled):
        q = uniform4[0]
        traj, dest, _ = controlled
        # q' Vplus = 0, so the feedback never moves the weighted mean:
        # the loop tracks the destination without ever measuring it
        dev = np.max(np.abs(traj.h @ q - dest[:, 0]))
        assert dev <= 1e-12 * np.max(np.abs(dest[:, 0]))
        delta = sync_error(traj, dest)
        assert delta.shape == (LOOP_T + 1, 8)
        np.testing.assert_allclose(delta[:, :4] @ q, 0.0, atol=1e-21)

    def test_collective_input_is_common_mode_only(self, model4, uniform4, controlled):
        q, d, g = uniform4
        traj_sync, _, _ = controlled
        cfg_b = ControllerConfig(
            q=q,
            F_o=default_obs_gain(4, model4.tau),
            K_bo=default_collective_gain(20, model4.tau, (0.5, 1.0)),
            m=20,
            mode="balanced",
        )
        policy = EemPolicy(cfg_b, d, gains=g)
        traj_b = simulate(model4, policy, LOOP_T, seed=LOOP_SEED)
        rel_gap = np.max(np.abs(model4.meas.V @ (traj_b.h - traj_sync.h).T))
        mean_gap = np.max(np.abs((traj_b.h - traj_sync.h) @ q))
        # kicks move the mean by ~1e-8 while every relative coordinate
        # stays at the roundoff floor (probed: 1e-23 vs 1.4e-8)
        assert mean_gap > 1e-9
        assert rel_gap <= 1e-12 * mean_gap
        omega_obar = np.asarray(policy.omega_obar_log)
        off_schedule = [k for k in range(LOOP_T) if k % 20 != 0]
        assert np.all(omega_obar[off_schedule] == 0.0)
        # balanced steering holds the mean near zero while the
        # destination wanders (probed ratio 0.36)
        final = slice(LOOP_T // 2, None)
        dest = destination_trajectory(model4, q, LOOP_T, seed=LOOP_SEED)
        held = np.mean(np.abs((traj_b.h @ q)[final]))
        wandering = np.mean(np.abs(dest[final, 0]))
        assert held < 0.6 * wandering


ORACLE_T = 1500


class TestPolicyMatchesReference:
    """EemPolicy reproduces the reference controller loop bit for bit."""

    def _run_both(self, model, cfg, d, g, seed):
        policy = EemPolicy(cfg, d, gains=g)
        ref = ReferencePolicy(cfg, d, g)
        traj = simulate(model, policy, ORACLE_T, seed=seed)
        traj_ref = simulate(model, ref, ORACLE_T, seed=seed)
        assert np.array_equal(traj.x, traj_ref.x)
        assert np.array_equal(traj.u, traj_ref.u)
        assert np.array_equal(np.asarray(policy.omega_o_log), np.asarray(ref.omega_o_log))
        assert np.array_equal(
            np.asarray(policy.omega_obar_log), np.asarray(ref.omega_obar_log)
        )
        return traj, policy

    def test_sync_only(self, model4, uniform4):
        q, d, g = uniform4
        cfg = ControllerConfig(
            q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
        )
        traj, _ = self._run_both(model4, cfg, d, g, seed=31)
        assert np.max(np.abs(traj.u)) > 0.0

    def test_balanced_with_phase(self, model4, uniform4):
        q, d, g = uniform4
        cfg = ControllerConfig(
            q=q,
            F_o=default_obs_gain(4, model4.tau),
            K_bo=default_collective_gain(20, model4.tau, (0.5, 1.0)),
            m=20,
            mode="balanced",
            phase=7,
        )
        _, policy = self._run_both(model4, cfg, d, g, seed=32)
        kicks = np.flatnonzero(np.asarray(policy.omega_obar_log))
        assert kicks.size > 0 and np.all(kicks % 20 == 7)

    def test_steering_weight(self, model4, steer4):
        q, d, g = steer4
        cfg = ControllerConfig(
            q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
        )
        traj, _ = self._run_both(model4, cfg, d, g, seed=33)
        assert np.all(traj.u[:, -1] == 0.0)


FUSED_T = 5000


@pytest.fixture(scope="module")
def model10():
    return demo_ensemble()


class TestClosedLoopMatchesPolicy:
    """The fused recursion reproduces the policy loop to rounding."""

    @pytest.mark.parametrize("case", ["sync-only", "balanced", "steering"])
    @pytest.mark.parametrize("n_clocks", [10, 4])
    def test_matches_simulated_policy(self, request, n_clocks, case):
        model = request.getfixturevalue("model10" if n_clocks == 10 else "model4")
        N = model.N
        if case == "steering":
            q = np.zeros(N)
            q[-1] = 1.0
        else:
            q = np.full(N, 1.0 / N)
        d = decompose(model, q)
        g = solve_stationary(d, model.meas.R)
        balanced = case == "balanced"
        cfg = ControllerConfig(
            q=q,
            F_o=default_obs_gain(N, model.tau),
            K_bo=default_collective_gain(50, model.tau) if balanced else None,
            m=50 if balanced else 1,
            mode="balanced" if balanced else "sync-only",
            phase=37 if balanced else 0,
        )
        seed = 70 + n_clocks
        policy = EemPolicy(cfg, d, gains=g)
        ref = simulate(model, policy, FUSED_T, seed=seed)
        rec, omega_o, omega_obar = closed_loop(model, cfg, d, g, FUSED_T, seed)
        ref_o, ref_obar = policy.command_log()
        for got, want in (
            (rec.x, ref.x),
            (rec.h, ref.h),
            (rec.y, ref.y),
            (rec.u, ref.u),
            (omega_o, ref_o),
            (omega_obar, ref_obar),
        ):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if balanced:
            kicks = np.flatnonzero(omega_obar)
            assert kicks.size > 0 and np.all(kicks % 50 == 37)
        if case == "steering":
            assert np.all(rec.u[:, -1] == 0.0)

    def test_requires_weight_basis(self, model4, uniform4):
        q, _, g = uniform4
        cfg = ControllerConfig(
            q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
        )
        rng = np.random.default_rng(0)
        Wbar = np.kron(np.eye(2), np.full(4, 0.25)) + 0.01 * rng.normal(size=(2, 8))
        with pytest.raises(ValueError, match="weight-basis"):
            closed_loop(model4, cfg, decompose(model4, Wbar), g, 10, 0)


class TestPolicyAndLogs:
    def test_policy_requires_weight_basis_and_a_filter(self, model4, uniform4):
        q, d, g = uniform4
        cfg = ControllerConfig(
            q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
        )
        rng = np.random.default_rng(0)
        Wbar = np.kron(np.eye(2), np.full(4, 0.25)) + 0.01 * rng.normal(size=(2, 8))
        d_gen = decompose(model4, Wbar)
        with pytest.raises(ValueError, match="weight-basis"):
            EemPolicy(cfg, d_gen, gains=g)
        with pytest.raises(ValueError, match="gains or R"):
            EemPolicy(cfg, d)

    def test_policy_records_estimates_and_commands(self, model4, uniform4):
        q, d, g = uniform4
        cfg = ControllerConfig(
            q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
        )
        T = 50
        policy = EemPolicy(cfg, d, gains=g, record_estimates=True)
        simulate(model4, policy, T, seed=9)
        omega_o, omega_obar = policy.command_log()
        assert omega_o.shape == (T, 3)
        assert omega_obar.shape == (T,)
        assert np.all(omega_obar == 0.0)
        assert policy.estimates.shape == (T, 8)
        assert np.all(np.isfinite(policy.estimates))

        silent = EemPolicy(cfg, d, gains=g)
        assert silent.estimates is None

    @pytest.mark.parametrize("observer", ["gains", "R"])
    def test_estimates_are_the_priors_commands_used(self, model4, uniform4, observer):
        q, d, g = uniform4
        cfg = ControllerConfig(
            q=q, F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1, mode="sync-only"
        )
        if observer == "gains":
            policy = EemPolicy(cfg, d, gains=g, record_estimates=True)
        else:
            policy = EemPolicy(cfg, d, R=model4.meas.R, record_estimates=True)
        T = 200
        simulate(model4, policy, T, seed=14)
        omega_o, _ = policy.command_log()
        recomputed = np.array(
            [-(cfg.F_o @ project_state(policy.estimates[k], d)[0]) for k in range(T)]
        )
        scale = np.max(np.abs(omega_o), axis=1, keepdims=True)
        assert np.all(scale[1:] > 0.0)
        assert np.all(np.abs(recomputed - omega_o) <= 1e-12 * scale)

    def test_time_varying_mode_mechanics(self, model4, uniform4):
        q, d, _ = uniform4
        cfg = ControllerConfig(
            q=q,
            F_o=default_obs_gain(4, model4.tau),
            K_bo=default_collective_gain(5, model4.tau),
            m=5,
            mode="balanced",
        )
        policy = EemPolicy(cfg, d, R=model4.meas.R)
        for k in range(12):
            u = policy(k, np.zeros(3))
            assert np.all(u == 0.0)  # nothing measured, nothing commanded
        omega_o, omega_obar = policy.command_log()
        assert np.all(omega_o == 0.0) and np.all(omega_obar == 0.0)

        noisy = EemPolicy(cfg, d, R=model4.meas.R)
        traj = simulate(model4, noisy, 40, seed=30)
        assert np.all(np.isfinite(traj.u))
        _, omega_obar = noisy.command_log()
        assert np.all(omega_obar[[k for k in range(40) if k % 5 != 0]] == 0.0)

    def test_command_log_round_trip(self, tmp_path):
        raw = {
            "name": "log",
            "kind": "sync-simple-average",
            "model": {
                "n_clocks": 3,
                "sigma1": [1.7e-10, 8.86e-11, 1.221e-10],
                "sigma2": [1.507e-13, 5.32e-14, 1.67e-14],
                "meas_std": [4.353e-15, 7.59e-16],
            },
            "horizon": 6,
            "seed": 12,
            "outputs": ["commands"],
        }
        cfg = validate_config(raw)
        run_scenario(cfg, str(tmp_path))
        d = decompose(cfg.model, cfg.weight)
        gains = solve_stationary(d, cfg.model.meas.R)
        rec, omega_o, omega_obar = closed_loop(cfg.model, cfg.controller, d, gains, 6, 12)
        data = np.load(tmp_path / "log" / "commands.npy")
        assert data.dtype == np.float64 and data.flags.c_contiguous
        # k, omega_o_1, omega_o_2, omega_obar, u_1, u_2, u_3
        assert data.shape == (6, 7)
        assert np.array_equal(data[:, 0], np.arange(6))
        assert np.array_equal(data[:, 1:3], omega_o)
        assert np.array_equal(data[:, 3], omega_obar)
        assert np.array_equal(data[:, 4:], rec.u)


class TestSyncError:
    def test_hand_value(self):
        from types import SimpleNamespace

        traj = SimpleNamespace(x=np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]))
        dest = np.array([[0.5, 1.0], [1.0, 2.0]])
        delta = sync_error(traj, dest)
        np.testing.assert_array_equal(
            delta, [[0.5, 1.5, 2.0, 3.0], [4.0, 5.0, 5.0, 6.0]]
        )

    def test_validation(self):
        from types import SimpleNamespace

        traj = SimpleNamespace(x=np.zeros((3, 4)))
        with pytest.raises(ValueError, match="shape"):
            sync_error(traj, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="destination has"):
            sync_error(traj, np.zeros((2, 2)))
