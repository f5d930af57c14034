"""Controller tests: gain design, scheduling, and the closed loop.

The closed-loop checks lean on structural identities rather than long
statistics: the steering weight leaves its clock untouched bit-for-bit,
the ensemble mean rides the free-running destination no matter what the
synchronization feedback does, and the collective input moves every
relative coordinate by exactly nothing.
"""

import dataclasses
import json
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eemsync import (
    ConfigError,
    ControllerConfig,
    Decomposition,
    DeterminateKFState,
    EemPolicy,
    NoiseParams,
    NoiseSampler,
    StationaryGains,
    build_ensemble,
    closed_loop,
    decompose,
    default_collective_gain,
    default_obs_gain,
    demo_ensemble,
    destination_trajectory,
    discretize,
    expand_input,
    loop_radii,
    run_scenario,
    simulate,
    solve_stationary,
    star_measurement,
    sync_error,
    validate_config,
    weight_long,
)
from eemsync.cli import _bundled_dir
from eemsync.presets import DEMO_MEAS_STD, DEMO_SIGMA1, DEMO_SIGMA2
from eemsync.simkit import TrajectoryRecord, _free_run

from conftest import demo_model


# ---------------------------------------------------------------------------
# reference: the fused controller step that EemPolicy replaced, kept
# verbatim as the oracle for the policy's trajectories


class ControllerStep(NamedTuple):
    u: np.ndarray
    state: DeterminateKFState
    omega_o: np.ndarray
    omega_obar: float


def controller_init(d: Decomposition) -> DeterminateKFState:
    """Zero prior estimates, which the observer starts from."""
    return DeterminateKFState(xi_o_hat=np.zeros(2 * (d.N - 1)), xi_obar_hat=np.zeros(2))


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

    The collective input fires only with a collective gain and only when k is
    on the configured schedule; otherwise it is exactly zero, so the
    steering weight keeps its designated clock untouched bit-for-bit.
    """
    xo = state.xi_o_hat
    xb = state.xi_obar_hat
    omega_o = -(cfg.F_o @ xo)
    if cfg.K_bo is not None and (k - cfg.phase) % cfg.m == 0:
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
def steer4(model4):
    q = np.zeros(4)
    q[-1] = 1.0
    d = decompose(model4, q)
    g = solve_stationary(d, model4.meas.R)
    return q, d, g


def radii(F_o, K_bo=None, m=1, tau=1.0):
    """loop_radii of a config around clocks stepped by tau: building the
    config checks no loop, so marginal and unstable gains have radii too."""
    clock = discretize(NoiseParams(1.0, 0.0), tau)
    return loop_radii(ControllerConfig(F_o=F_o, K_bo=K_bo, m=m), clock.A, clock.B)


class TestGainDesign:
    def test_obs_gain_closed_loop_spectrum(self):
        N, tau = 3, 2.5
        F_o = default_obs_gain(N, tau)
        A = np.array([[1.0, tau], [0.0, 1.0]])
        Ao = np.kron(A, np.eye(N - 1))
        Bo = np.kron(np.array([[tau], [1.0]]), np.eye(N - 1))
        eig = np.sort(np.abs(np.linalg.eigvals(Ao - Bo @ F_o)))
        np.testing.assert_allclose(eig, [0.0, 0.0, 0.9, 0.9], atol=1e-12)
        assert radii(F_o, tau=tau) == {"observable": pytest.approx(0.9, abs=1e-12)}

    def test_collective_gain_closed_loop_spectrum(self):
        m, tau = 200, 1.0
        K = default_collective_gain(m, tau)
        Am = np.array([[1.0, m * tau], [0.0, 1.0]])
        Bm = np.array([[m * tau], [1.0]])
        eig = np.sort(np.abs(np.linalg.eigvals(Am - Bm @ K)))
        np.testing.assert_allclose(eig, [0.0, 0.99], atol=1e-12)
        rho = radii(default_obs_gain(2, tau), K, m, tau)["collective"]
        assert rho == pytest.approx(0.99, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 7, 200, 100_000])
    def test_collective_loop_is_the_m_step_sampled_loop(self, m):
        # A^m - A^(m-1) B K is the loop at interval m tau, [[1, m tau],
        # [0, 1]] - [m tau, 1]^T K, for any gain, not only the default's
        for tau in (0.25, 1.0, 30.0):
            for coeffs in ((0.01, 1.0), (1.5, 1.0), (0.3, 0.2)):
                K = default_collective_gain(m, tau, coeffs)
                sampled = np.array([[1.0, m * tau], [0.0, 1.0]]) - np.array([[m * tau], [1.0]]) @ K
                want = np.max(np.abs(np.linalg.eigvals(sampled)))
                assert radii(default_obs_gain(2, tau), K, m, tau)["collective"] == pytest.approx(want, rel=1e-9)

    def test_gain_scaling_holds_across_tau_and_period(self):
        # coefficients are normalized by tau (and m tau), so the closed
        # loop keeps its spectrum at any step size or period
        assert radii(default_obs_gain(5, 900.0), tau=900.0)["observable"] == pytest.approx(
            0.9, abs=1e-9
        )
        rho = radii(default_obs_gain(2, 0.25), default_collective_gain(7, 0.25), 7, 0.25)["collective"]
        assert rho == pytest.approx(0.99, abs=1e-9)

    def test_zero_gains_are_marginal(self):
        assert radii(np.zeros((3, 6)), np.zeros((1, 2)), 5) == {"observable": 1.0, "collective": 1.0}

    def test_shape_and_period_validation(self):
        # loop_radii takes a config, which checks both when it is built
        with pytest.raises(ValueError, match="shape"):
            radii(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="period"):
            radii(np.zeros((1, 2)), np.zeros((1, 2)), 0)

    def test_non_finite_loops_have_infinite_radius(self):
        F_o = default_obs_gain(3, 1.0)
        F_o[0, 0] = np.nan
        assert radii(F_o)["observable"] == np.inf
        # finite coefficients whose loop overflows
        assert radii(default_obs_gain(3, 1.0), np.array([[1e308, 1e308]]), 200)["collective"] == np.inf


class TestControllerConfig:
    def test_holds_gains_and_schedule_only(self):
        # the sampling interval is the model's alone
        assert [f.name for f in dataclasses.fields(ControllerConfig)] == ["F_o", "K_bo", "m", "phase"]

    def test_loop_check_cannot_be_bypassed(self):
        # no config closes a loop unchecked; the F_o = 0 loop is the free run
        with pytest.raises(TypeError, match="validate"):
            ControllerConfig(F_o=np.zeros((3, 6)), K_bo=None, m=1, validate=False)

    def test_aggregates_all_problems(self):
        with pytest.raises(ConfigError) as excinfo:
            ControllerConfig(
                F_o=np.zeros((2, 2)),
                K_bo=None,
                m=0,
                phase=0.5,
            )
        assert len(excinfo.value.problems) == 3
        message = str(excinfo.value)
        assert "shape" in message
        assert "period" in message
        assert "phase" in message

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", float("nan")),
            ("m", float("inf")),
            ("m", 2.5),
            ("phase", 1.5),
            ("phase", float("nan")),
        ],
    )
    def test_schedule_values_rejected_by_name(self, field, value):
        # each used to pass (phase 1.5, which closed_loop cannot slice by)
        # or raise a bare ValueError or OverflowError (m nan or inf)
        fields = {"F_o": default_obs_gain(4, 1.0), "K_bo": None, "m": 1}
        fields[field] = value
        with pytest.raises(ConfigError) as excinfo:
            ControllerConfig(**fields)
        assert len(excinfo.value.problems) == 1
        assert excinfo.value.problems[0].startswith("period m" if field == "m" else field)

    def test_marginal_gain_rejected(self, uniform4):
        _, d, g = uniform4
        cfg = ControllerConfig(
            F_o=np.zeros((3, 6)),
            K_bo=None,
            m=1,
        )
        with pytest.raises(ConfigError, match="not contractive"):
            EemPolicy(cfg, d, g)

    def test_unstable_collective_gain_rejected(self, uniform4):
        _, d, g = uniform4
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, 1.0),
            K_bo=np.array([[-0.01, -1.0]]),
            m=10,
        )
        with pytest.raises(ConfigError, match="collective closed loop"):
            EemPolicy(cfg, d, g)

    @pytest.mark.parametrize("loop", ["observable", "collective"])
    def test_non_finite_loop_is_not_contractive(self, loop, uniform4):
        _, d, g = uniform4
        F_o = default_obs_gain(4, 1.0)
        K_bo = default_collective_gain(10, 1.0)
        if loop == "observable":
            F_o[0, 0] = np.inf
        else:
            K_bo = np.array([[1e308, 1e308]])
        cfg = ControllerConfig(F_o=F_o, K_bo=K_bo, m=10)
        with pytest.raises(ConfigError, match=f"{loop} closed loop is not contractive"):
            EemPolicy(cfg, d, g)

    @pytest.mark.parametrize("K_bo", [[1.0, 2.0, 3.0], "x", [[0.01], [1.0, 2.0]]])
    def test_malformed_collective_gain_rejected_by_name(self, K_bo):
        # each used to raise a bare ValueError from reshape or float()
        with pytest.raises(ConfigError) as excinfo:
            ControllerConfig(F_o=np.zeros((2, 2)), K_bo=K_bo, m=0)
        assert len(excinfo.value.problems) == 3
        assert any(p.startswith("K_bo") for p in excinfo.value.problems)

    def test_field_coercion(self):
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, 1.0),
            K_bo=[0.01, 1.0],
            m=3.0,
            phase=2.0,
        )
        assert cfg.m == 3 and isinstance(cfg.m, int)
        # closed_loop slices its kick schedule by phase
        assert cfg.phase == 2 and isinstance(cfg.phase, int)
        assert cfg.K_bo.shape == (1, 2)


@pytest.fixture(scope="module")
def uniform30():
    """Ten clocks stepped every 30 s, uniform weight."""
    model = demo_ensemble(tau=30.0)
    d = decompose(model, np.full(10, 0.1))
    return model, d, solve_stationary(d, model.meas.R)


RUNNERS = {
    "closed_loop": lambda model, cfg, d, g: closed_loop(model, cfg, d, g, 200, 5),
    "EemPolicy": lambda model, cfg, d, g: EemPolicy(cfg, d, g),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
class TestLoopCheckedAtTheModelTau:
    """The gains are checked on the loop that runs, at the model's tau:
    gains designed for tau = 1 contract there, but not at tau = 30."""

    def test_sync_only_gain_for_another_tau_refused(self, runner, uniform30):
        model, d, g = uniform30
        cfg = ControllerConfig(F_o=default_obs_gain(10, 1.0), K_bo=None, m=1)
        with pytest.raises(ConfigError) as excinfo:
            RUNNERS[runner](model, cfg, d, g)
        assert excinfo.value.problems == ["observable closed loop is not contractive (rho = 2.000000)"]

    def test_collective_gain_for_another_tau_refused(self, runner, uniform30):
        model, d, g = uniform30
        cfg = ControllerConfig(
            F_o=default_obs_gain(10, model.tau),
            K_bo=default_collective_gain(200, 1.0, (1.5, 1.0)),
            m=200,
        )
        with pytest.raises(ConfigError) as excinfo:
            RUNNERS[runner](model, cfg, d, g)
        assert excinfo.value.problems == ["collective closed loop is not contractive (rho = 44.000000)"]


def reference_destination_trajectory(model, q, T, seed):
    """The destination from one whole draw of the process noise: the
    replay before it streamed, kept as the oracle for the streamed one."""
    v = NoiseSampler(model, seed).process_block(T)
    N = model.N
    v_mean = np.column_stack([v[:, :N] @ q, v[:, N:] @ q])
    return _free_run(model.tau, [v_mean], np.empty((T + 1, 2)))


class TestDestinationTrajectory:
    def test_matches_weighted_free_run(self, model4):
        q = np.array([0.4, 0.3, 0.2, 0.1])
        T = 300
        free = simulate(model4, None, T, seed=77)
        dest = destination_trajectory(model4, q, T, seed=77)
        assert dest.shape == (T + 1, 2)
        np.testing.assert_allclose(dest[:, 0], free.h @ q, rtol=1e-9, atol=1e-24)
        np.testing.assert_allclose(dest[:, 1], free.x[:, 4:] @ q, rtol=1e-9, atol=1e-24)

    def test_recursion_on_recorded_noise(self, model4):
        q = np.full(4, 0.25)
        T = 200
        v = NoiseSampler(model4, seed=21).process_block(T)
        dest = destination_trajectory(model4, q, T, seed=21)
        A = np.array([[1.0, model4.tau], [0.0, 1.0]])
        kicked = dest[:-1] @ A.T
        driven = np.column_stack([v[:, :4] @ q, v[:, 4:] @ q])
        np.testing.assert_allclose(dest[1:], kicked + driven, rtol=1e-9, atol=1e-24)

    def test_horizon_validation(self, model4):
        with pytest.raises(ValueError, match="T must be"):
            destination_trajectory(model4, np.full(4, 0.25), 0, seed=1)

    def test_closed_loop_noise_gives_the_same_destination(self, model4, uniform4):
        q, d, g = uniform4
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1
        )
        weights = (q, np.array([0.4, 0.3, 0.2, 0.1]))
        rec, _, _, dests = closed_loop(model4, cfg, d, g, 300, seed=31, weights=weights)
        assert rec.v is None
        assert len(dests) == 2
        for weight, got in zip(weights, dests):
            assert got.shape == (301, 2)
            assert np.array_equal(got, destination_trajectory(model4, weight, 300, seed=31))
        assert closed_loop(model4, cfg, d, g, 300, seed=31)[3] == []

    @pytest.mark.parametrize("T", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("singular_q", [False, True])
    @pytest.mark.parametrize("n_clocks", [4, 10])
    def test_streamed_replay_matches_whole_draw(self, n_clocks, singular_q, T):
        model = demo_model(n_clocks, 0.7, singular_q)
        q = np.random.default_rng(n_clocks).dirichlet(np.ones(n_clocks))
        got = destination_trajectory(model, q, T, seed=T)
        assert np.array_equal(got, reference_destination_trajectory(model, q, T, T))


@pytest.fixture(scope="module")
def step_setup():
    model = demo_ensemble(n_clocks=3)
    q = np.full(3, 1.0 / 3)
    d = decompose(model, q)
    g = solve_stationary(d, model.meas.R)
    cfg = ControllerConfig(
        F_o=default_obs_gain(3, model.tau),
        K_bo=default_collective_gain(3, model.tau),
        m=3,
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
        F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1
    )
    policy = EemPolicy(cfg, d, gains=g)
    traj = simulate(model4, policy, LOOP_T, seed=LOOP_SEED)
    dest = destination_trajectory(model4, q, LOOP_T, seed=LOOP_SEED)
    return traj, dest, policy


class TestClosedLoop:

    def test_steering_weight_never_touches_its_clock(self, model4, steer4):
        q, d, g = steer4
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1
        )
        traj = simulate(model4, EemPolicy(cfg, d, gains=g), 400, seed=101)
        assert np.all(traj.u[:, -1] == 0.0)
        assert np.max(np.abs(traj.u[:, :-1])) > 0.0

    def test_sync_feedback_contains_relative_phases(self, model4, controlled):
        traj, _, _ = controlled
        free = simulate(model4, None, LOOP_T, seed=LOOP_SEED)
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
        delta = sync_error(traj.x, dest)
        assert delta.shape == (LOOP_T + 1, 8)
        np.testing.assert_allclose(delta[:, :4] @ q, 0.0, atol=1e-21)

    def test_collective_input_is_common_mode_only(self, model4, uniform4, controlled):
        q, d, g = uniform4
        traj_sync, _, _ = controlled
        cfg_b = ControllerConfig(
            F_o=default_obs_gain(4, model4.tau),
            K_bo=default_collective_gain(20, model4.tau, (0.5, 1.0)),
            m=20,
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
            F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1
        )
        traj, _ = self._run_both(model4, cfg, d, g, seed=31)
        assert np.max(np.abs(traj.u)) > 0.0

    def test_balanced_with_phase(self, model4, uniform4):
        q, d, g = uniform4
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, model4.tau),
            K_bo=default_collective_gain(20, model4.tau, (0.5, 1.0)),
            m=20,
            phase=7,
        )
        _, policy = self._run_both(model4, cfg, d, g, seed=32)
        kicks = np.flatnonzero(np.asarray(policy.omega_obar_log))
        assert kicks.size > 0 and np.all(kicks % 20 == 7)

    def test_steering_weight(self, model4, steer4):
        q, d, g = steer4
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1
        )
        traj, _ = self._run_both(model4, cfg, d, g, seed=33)
        assert np.all(traj.u[:, -1] == 0.0)


FUSED_T = 5000


@pytest.fixture(scope="module")
def model10():
    return demo_ensemble()


def reference_closed_loop(model, cfg, d, gains, T, seed):
    """closed_loop as it was when it drew all of v and w before the
    recursion, stepping by ``nxt += prev @ M_T``: returns the record,
    without y, and the command logs."""
    N = model.N
    n2 = 2 * N
    obs_hat, obar_hat = slice(0, n2 - 2), slice(n2 - 2, n2)
    obs, obar = slice(n2, 2 * n2 - 2), slice(2 * n2 - 2, 2 * n2)
    sampler = NoiseSampler(model, seed)
    v = sampler.process_block(T)
    w = sampler.measurement_block(T)

    H_o, H_bo = gains.H_o_star, gains.H_bo_star
    M = np.zeros((2 * n2, 2 * n2))
    M[obs_hat, obs_hat] = d.Ao @ (np.eye(n2 - 2) - H_o @ d.Co) - d.Bo @ cfg.F_o
    M[obs_hat, obs] = d.Ao @ H_o @ d.Co
    M[obar_hat, obs_hat] = -(d.A @ H_bo @ d.Co)
    M[obar_hat, obar_hat] = d.A
    M[obar_hat, obs] = d.A @ H_bo @ d.Co
    M[obs, obs_hat] = -(d.Bo @ cfg.F_o)
    M[obs, obs] = d.Ao
    M[obar, obar] = d.A
    M_kick = M.copy()
    kicks = np.zeros(T, dtype=bool)
    if cfg.K_bo is not None:
        M_kick[obar_hat, obar_hat] -= np.outer(d.B, cfg.K_bo)
        M_kick[obar, obar_hat] = -np.outer(d.B, cfg.K_bo)
        kicks[cfg.phase % cfg.m :: cfg.m] = True
    M_T, M_kick_T = M.T.copy(), M_kick.T.copy()
    w_gain = np.vstack([d.Ao @ H_o, d.A @ H_bo]).T

    block = 4096
    x = np.empty((T + 1, n2))
    x[0] = 0.0
    omega_o = np.empty((T, N - 1))
    omega_obar = np.zeros(T)
    Z = np.empty((min(T, block) + 1, 2 * n2))
    Z[0] = 0.0
    rows = list(Z)
    for k0 in range(0, T, block):
        n = min(block, T - k0)
        Z[1 : n + 1, :n2] = w[k0 : k0 + n] @ w_gain
        Z[1 : n + 1, n2:] = v[k0 : k0 + n] @ d.T.T
        for prev, nxt, kick in zip(rows[:n], rows[1 : n + 1], kicks[k0 : k0 + n].tolist()):
            nxt += prev @ (M_kick_T if kick else M_T)
        x[k0 + 1 : k0 + n + 1] = Z[1 : n + 1, n2:] @ d.Tinv.T
        omega_o[k0 : k0 + n] = -(Z[:n, obs_hat] @ cfg.F_o.T)
        at = np.flatnonzero(kicks[k0 : k0 + n])
        if at.size:
            omega_obar[k0 + at] = -(Z[at, obar_hat] @ cfg.K_bo[0])
        Z[0] = Z[n]

    u = omega_o @ d.Vplus.T + omega_obar[:, None]
    return TrajectoryRecord(x=x, y=None, u=u), omega_o, omega_obar


class TestStreamedClosedLoop:
    @pytest.mark.parametrize("T", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("tau", [1.0, 0.7, 3.0])
    @pytest.mark.parametrize("case", ["sync-only", "balanced", "steering"])
    @pytest.mark.parametrize("n_clocks", [4, 10, 2, 3])
    def test_matches_whole_draws(self, n_clocks, case, tau, T):
        model = demo_ensemble(n_clocks=n_clocks, tau=tau)
        q = np.full(n_clocks, 1.0 / n_clocks)
        if case == "steering":
            q = np.zeros(n_clocks)
            q[-1] = 1.0
        d = decompose(model, q)
        g = solve_stationary(d, model.meas.R)
        balanced = case == "balanced"
        cfg = ControllerConfig(
            F_o=default_obs_gain(n_clocks, tau),
            K_bo=default_collective_gain(50, tau) if balanced else None,
            m=50 if balanced else 1,
            phase=37 if balanced else 0,
        )
        # the loop's own weight and one it does not run on
        weights = (q, np.random.default_rng(T).dirichlet(np.ones(n_clocks)))
        rec, omega_o, omega_obar, dests = closed_loop(model, cfg, d, g, T, seed=T, weights=weights)
        ref, ref_o, ref_obar = reference_closed_loop(model, cfg, d, g, T, seed=T)
        for got, want in (
            (rec.x, ref.x),
            (rec.u, ref.u),
            (omega_o, ref_o),
            (omega_obar, ref_obar),
            *((dest, destination_trajectory(model, w, T, seed=T)) for w, dest in zip(weights, dests)),
        ):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert rec.y is None and rec.v is None

    def test_peak_memory(self):
        # the bundled balanced run, with its short and long destinations
        cfg = validate_config(json.loads((_bundled_dir() / "balanced.json").read_text()))
        model, T = cfg.model, 20_000
        d = decompose(model, cfg.weight)
        g = solve_stationary(d, model.meas.R)
        weights = [cfg.weight, weight_long(model.sigma2_sq)]
        closed_loop(model, cfg.controller, d, g, 2, 3, weights)
        tracemalloc.start()
        try:
            result = closed_loop(model, cfg.controller, d, g, T, 3, weights)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result[0].y is None
        state_array = (T + 1) * 2 * model.N * 8
        # x, u, the command logs and the two destinations are held: 2.20
        # state arrays; one block of the recursion and its noise on top: 3.04
        assert held <= 2.25 * state_array
        assert peak <= 3.2 * state_array


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
            F_o=default_obs_gain(N, model.tau),
            K_bo=default_collective_gain(50, model.tau) if balanced else None,
            m=50 if balanced else 1,
            phase=37 if balanced else 0,
        )
        seed = 70 + n_clocks
        policy = EemPolicy(cfg, d, gains=g)
        ref = simulate(model, policy, FUSED_T, seed=seed)
        rec, omega_o, omega_obar, _ = closed_loop(model, cfg, d, g, FUSED_T, seed)
        ref_o, ref_obar = policy.command_log()
        assert np.shares_memory(rec.h, rec.x) and np.shares_memory(ref.h, ref.x)
        for got, want in (
            (rec.x, ref.x),
            (rec.h, ref.h),
            (rec.u, ref.u),
            (omega_o, ref_o),
            (omega_obar, ref_obar),
        ):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert rec.y is None
        assert np.array_equal(rec.u, expand_input(omega_o, omega_obar, d))
        if balanced:
            kicks = np.flatnonzero(omega_obar)
            assert kicks.size > 0 and np.all(kicks % 50 == 37)
        if case == "steering":
            assert np.all(rec.u[:, -1] == 0.0)

    def test_requires_weight_basis(self, model4, uniform4):
        q, _, g = uniform4
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1
        )
        rng = np.random.default_rng(0)
        Wbar = np.kron(np.eye(2), np.full(4, 0.25)) + 0.01 * rng.normal(size=(2, 8))
        with pytest.raises(ValueError, match="weight-basis"):
            closed_loop(model4, cfg, decompose(model4, Wbar), g, 10, 0)


@settings(max_examples=80, deadline=None)
@given(
    n_clocks=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    period=st.one_of(st.none(), st.integers(2, 120)),
    phase=st.integers(0, 400),
)
def test_property_closed_loop_matches_policy(n_clocks, seed, period, phase):
    # period None is sync-only; a balanced phase past the horizon leaves
    # omega_obar all zero, which the bound below then asks to match exactly
    T = 300
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 10, size=n_clocks)
    params = [NoiseParams(DEMO_SIGMA1[i], DEMO_SIGMA2[i]) for i in levels]
    R = np.diag(DEMO_MEAS_STD[rng.integers(0, 9, size=n_clocks - 1)] ** 2)
    model = build_ensemble(params, star_measurement(n_clocks), R, 1.0)
    q = rng.dirichlet(np.ones(n_clocks))
    d = decompose(model, q)
    g = solve_stationary(d, model.meas.R)
    balanced = period is not None
    cfg = ControllerConfig(
        F_o=default_obs_gain(n_clocks, model.tau),
        K_bo=default_collective_gain(period, model.tau) if balanced else None,
        m=period if balanced else 1,
        phase=phase if balanced else 0,
    )
    policy = EemPolicy(cfg, d, gains=g)
    ref = simulate(model, policy, T, seed=seed)
    rec, omega_o, omega_obar, _ = closed_loop(model, cfg, d, g, T, seed)
    ref_o, ref_obar = policy.command_log()
    for got, want in (
        (rec.x, ref.x),
        (rec.u, ref.u),
        (omega_o, ref_o),
        (omega_obar, ref_obar),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert rec.y is None


class TestPolicyAndLogs:
    def test_policy_requires_weight_basis_and_a_filter(self, model4, uniform4):
        q, d, g = uniform4
        cfg = ControllerConfig(
            F_o=default_obs_gain(4, model4.tau), K_bo=None, m=1
        )
        rng = np.random.default_rng(0)
        Wbar = np.kron(np.eye(2), np.full(4, 0.25)) + 0.01 * rng.normal(size=(2, 8))
        d_gen = decompose(model4, Wbar)
        with pytest.raises(ValueError, match="weight-basis"):
            EemPolicy(cfg, d_gen, gains=g)
        with pytest.raises(TypeError, match="gains"):
            EemPolicy(cfg, d)

    def test_gain_rows_must_match_the_decomposition(self, model4, uniform4):
        # a three-clock gain on a four-clock decomposition: the weight and
        # N come from the decomposition alone, so the mismatch is named
        # before any step runs
        _, d, g = uniform4
        cfg = ControllerConfig(F_o=default_obs_gain(3, model4.tau), K_bo=None, m=1)
        with pytest.raises(ValueError, match=r"F_o has 2 rows; the decomposition's 4 clocks need 3"):
            EemPolicy(cfg, d, gains=g)
        with pytest.raises(ValueError, match=r"F_o has 2 rows; the decomposition's 4 clocks need 3"):
            closed_loop(model4, cfg, d, g, 10, 0)

    @pytest.mark.parametrize("y", [1e-12, [1e-12], [1e-12] * 10, [[1e-12]] * 9], ids=["scalar", "1", "N", "N-1x1"])
    def test_policy_refuses_a_measurement_of_the_wrong_shape(self, model10, y):
        # a scalar or (1,) y was broadcast over all N-1 innovations, and
        # the call returned an input for every clock
        q = np.full(10, 0.1)
        d = decompose(model10, q)
        cfg = ControllerConfig(F_o=default_obs_gain(10, model10.tau), K_bo=None, m=1)
        policy = EemPolicy(cfg, d, gains=solve_stationary(d, model10.meas.R))
        policy(0, np.full(9, 1e-12))
        state, logs = policy.state, policy.command_log()
        with pytest.raises(ValueError, match=re.escape(f"y must have shape (9,), got {np.shape(y)}")):
            policy(1, y)
        assert policy.state is state
        for got, want in zip(policy.command_log(), logs):
            assert np.array_equal(got, want)

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
        rec, omega_o, omega_obar, _ = closed_loop(cfg.model, cfg.controller, d, gains, 6, 12)
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
        x = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        dest = np.array([[0.5, 1.0], [1.0, 2.0]])
        delta = sync_error(x, dest)
        np.testing.assert_array_equal(
            delta, [[0.5, 1.5, 2.0, 3.0], [4.0, 5.0, 5.0, 6.0]]
        )

    def test_validation(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError, match="shape"):
            sync_error(x, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="destination has"):
            sync_error(x, np.zeros((2, 2)))
