"""Simulator checks: reproducibility, noise statistics, digital steering."""

import numpy as np
import pytest

from eemsync import (
    NoiseParams,
    NoiseSampler,
    build_ensemble,
    digital_imitation,
    reference_timescale,
    run_scenario,
    simulate,
    star_measurement,
    step,
    validate_config,
    write_csv,
)
from eemsync.presets import DEMO_MEAS_STD, demo_ensemble, demo_noise_params


def unit_scale_model(n=2, tau=1.0):
    """O(1) noise so relative statistics are easy to read."""
    params = [NoiseParams(1.0, 0.5) for _ in range(n)]
    return build_ensemble(params, star_measurement(n), 0.25 * np.eye(n - 1), tau)


class TestReproducibility:
    def test_same_seed_same_record(self):
        model = demo_ensemble(n_clocks=3)
        a = simulate(model, None, 200, seed=42)
        b = simulate(model, None, 200, seed=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        model = demo_ensemble(n_clocks=3)
        a = simulate(model, None, 50, seed=1)
        b = simulate(model, None, 50, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_measurement_stream_independent_of_process_draws(self):
        # sub-streams must not interleave: drawing extra process noise
        # first cannot shift the measurement noise
        model = unit_scale_model()
        s1 = NoiseSampler(model, seed=7)
        s1.process_block(1000)
        w1 = s1.measurement_block(10)
        s2 = NoiseSampler(model, seed=7)
        w2 = s2.measurement_block(10)
        assert np.array_equal(w1, w2)


class TestNoiseStatistics:
    def test_process_covariance_matches_model(self):
        model = unit_scale_model(tau=2.0)
        v = NoiseSampler(model, seed=3).process_block(200_000)
        emp = v.T @ v / v.shape[0]
        assert np.linalg.norm(emp - model.bigQ) <= 0.05 * np.linalg.norm(model.bigQ)

    def test_measurement_covariance_matches_model(self):
        model = unit_scale_model(n=4)
        w = NoiseSampler(model, seed=5).measurement_block(200_000)
        emp = w.T @ w / w.shape[0]
        assert np.linalg.norm(emp - model.meas.R) <= 0.05 * np.linalg.norm(model.meas.R)

    def test_singular_q_still_sampled(self):
        # a pure white-FM clock makes bigQ singular; sampling must not choke
        params = [NoiseParams(1.0, 0.0), NoiseParams(1.0, 0.5)]
        model = build_ensemble(params, star_measurement(2), np.eye(1), 1.0)
        v = NoiseSampler(model, seed=1).process_block(50_000)
        assert np.all(v[:, 2] == 0.0)  # clock 1 frequency never moves
        emp = v.T @ v / v.shape[0]
        assert np.linalg.norm(emp - model.bigQ) <= 0.05 * np.linalg.norm(model.bigQ)


class TestSimulate:
    def test_free_run_fast_path_matches_stepped_loop(self):
        model = unit_scale_model(n=3)
        free = simulate(model, None, 500, seed=11)
        looped = simulate(model, lambda k, y: np.zeros(3), 500, seed=11)
        scale = np.max(np.abs(looped.x))
        assert np.max(np.abs(free.x - looped.x)) <= 1e-12 * scale
        assert np.max(np.abs(free.y - looped.y)) <= 1e-12 * max(scale, np.max(np.abs(looped.y)))

    def test_recorded_noise_closes_the_recursion(self):
        model = unit_scale_model(n=3)
        rec = simulate(model, lambda k, y: np.full(3, 0.1), 100, seed=13, record_noise=True)
        for k in range(rec.T):
            expected = model.bigA @ rec.x[k] + model.bigB @ rec.u[k] + rec.v[k]
            assert np.array_equal(rec.x[k + 1], expected)

    def test_noiseless_is_pure_drift(self):
        model = demo_ensemble(n_clocks=2, tau=3.0)
        x0 = np.array([1.0, 2.0, 0.5, -0.5])
        rec = simulate(model, None, 10, seed=0, x0=x0, noiseless=True)
        ks = np.arange(11)[:, None]
        assert np.array_equal(rec.x[:, 2:], np.tile(x0[2:], (11, 1)))
        assert np.array_equal(rec.x[:, :2], x0[:2] + 3.0 * ks * x0[2:])
        assert np.array_equal(rec.y[:, 0], rec.x[:10, 0] - rec.x[:10, 1])

    def test_policy_sees_measurement_of_current_state(self):
        model = demo_ensemble(n_clocks=2)
        x0 = np.array([4.0, 1.0, 0.0, 0.0])
        seen = []
        simulate(model, lambda k, y: seen.append(y.copy()) or np.zeros(2),
                 3, seed=0, x0=x0, noiseless=True)
        assert seen[0][0] == 3.0  # y[0] measures x[0], not x[1]

    def test_shape_validation(self):
        model = demo_ensemble(n_clocks=2)
        with pytest.raises(ValueError, match="T must be"):
            simulate(model, None, 0, seed=0)
        with pytest.raises(ValueError, match="x0 must have shape"):
            simulate(model, None, 5, seed=0, x0=np.zeros(3))
        with pytest.raises(ValueError, match="policy returned"):
            simulate(model, lambda k, y: np.zeros(3), 5, seed=0)

    def test_step_matches_manual(self):
        model = unit_scale_model(n=2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        u = np.array([0.5, -0.5])
        v = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(step(model, x, u, v), model.bigA @ x + model.bigB @ u + v)
        with pytest.raises(ValueError):
            step(model, x[:3], u, v)


class TestPaperClock:
    def test_hand_example_unit_kick(self):
        clock = demo_ensemble(n_clocks=2).clock
        out = digital_imitation(clock, np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_hand_example_tau_scaling(self):
        clock = demo_ensemble(n_clocks=2, tau=2.0).clock
        out = digital_imitation(clock, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(out, [0.0, 2.0, 4.0, 6.0])

    def test_adjustment_equals_physical_steering_exactly(self):
        # integer inputs at tau = 1 keep every operation exact in floats,
        # so the digital reading must match the physical one bit for bit
        clock = demo_ensemble(n_clocks=2).clock
        rng = np.random.default_rng(0)
        u = rng.integers(-3, 4, size=50).astype(float)
        eps = np.zeros(2)
        physical = [0.0]
        for uk in u:
            eps = clock.A @ eps + clock.B * uk
            physical.append(eps[0])
        assert np.array_equal(digital_imitation(clock, u), physical)

    def test_adjustment_tracks_physical_steering_generic(self):
        clock = demo_ensemble(n_clocks=2, tau=0.7).clock
        rng = np.random.default_rng(1)
        u = rng.standard_normal(200)
        eps = np.zeros(2)
        physical = [0.0]
        for uk in u:
            eps = clock.A @ eps + clock.B * uk
            physical.append(eps[0])
        physical = np.asarray(physical)
        out = digital_imitation(clock, u)
        assert np.max(np.abs(out - physical)) <= 1e-12 * np.max(np.abs(physical))


class TestRecordHelpers:
    def test_reference_timescale_hand_value(self):
        e = np.array([[3.0, 5.0, 7.0, 1.0, 1.0, 1.0]])
        assert np.array_equal(reference_timescale(e, 3), [5.0])
        with pytest.raises(ValueError):
            reference_timescale(e, 4)

    def test_trajectory_round_trip(self, tmp_path):
        params = demo_noise_params()[:2]
        raw = {
            "name": "traj",
            "kind": "free-run",
            "model": {
                "n_clocks": 2,
                "sigma1": [float(p.sigma1) for p in params],
                "sigma2": [float(p.sigma2) for p in params],
                "meas_std": [float(DEMO_MEAS_STD[0])],
            },
            "horizon": 7,
            "seed": 9,
            "outputs": ["trajectory"],
        }
        cfg = validate_config(raw)
        run_scenario(cfg, str(tmp_path))
        rec = simulate(cfg.model, None, 7, seed=9)
        data = np.load(tmp_path / "traj" / "trajectory.npy")
        assert data.dtype == np.float64 and data.flags.c_contiguous
        # k, h_1, h_2, u_1, u_2 for k = 0..6
        assert data.shape == (7, 5)
        assert np.array_equal(data[:, 0], np.arange(7))
        assert np.array_equal(data[:, 1:3], rec.h[:7])
        assert np.array_equal(data[:, 3:], rec.u)

    def test_csv_writer_matches_savetxt_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        T = 1100  # crosses two formatting blocks
        values = rng.normal(size=(T, 6)) * 10.0 ** rng.integers(-300, 300, size=(T, 6))
        values[0] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
        values[1] = [2.2250738585072014e-308, -1e-310, 1.0, -1.0, 1e308, -1e-320]
        data = np.column_stack([np.arange(T), values])
        header = ["k"] + [f"c_{i + 1}" for i in range(6)]
        write_csv(tmp_path / "ours.csv", header, data)
        np.savetxt(
            tmp_path / "ref.csv",
            data,
            delimiter=",",
            header=",".join(header),
            comments="",
            fmt=["%d"] + ["%.16e"] * 6,
        )
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

        write_csv(tmp_path / "plain.csv", header[1:], values, index=False)
        np.savetxt(
            tmp_path / "plain_ref.csv",
            values,
            delimiter=",",
            header=",".join(header[1:]),
            comments="",
            fmt="%.16e",
        )
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "plain_ref.csv").read_bytes()
        with pytest.raises(ValueError, match="header"):
            write_csv(tmp_path / "bad.csv", header, values)
