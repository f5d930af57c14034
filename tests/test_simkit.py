"""Simulator checks: reproducibility, noise statistics, digital steering."""

import tracemalloc

import numpy as np
import pytest

from eemsync import (
    NoiseParams,
    NoiseSampler,
    build_ensemble,
    destination_trajectory,
    digital_imitation,
    reference_timescale,
    run_scenario,
    simulate,
    star_measurement,
    validate_config,
)
from eemsync.allan import AllanPlot
from eemsync.decomp import weight_vector
from eemsync.presets import DEMO_MEAS_STD, demo_ensemble, demo_noise_params
from eemsync.scenarios import _Artifacts


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


class TestBlockDraws:
    @pytest.mark.parametrize("sizes", [(1, 4095), (4096, 1), (4097, 3)])
    @pytest.mark.parametrize("n_clocks", [3, 10])
    def test_split_draws_equal_one_draw(self, n_clocks, sizes):
        # a one-row draw must round like a row of a longer one, which
        # numpy's one-row product (gemv) did not
        model = demo_ensemble(n_clocks=n_clocks)
        whole, split = NoiseSampler(model, seed=5), NoiseSampler(model, seed=5)
        for draw in ("process_block", "measurement_block"):
            want = getattr(whole, draw)(sum(sizes))
            got = np.concatenate([getattr(split, draw)(n) for n in sizes])
            assert np.array_equal(got, want), draw

    @pytest.mark.parametrize("T", [2, 4097])
    def test_draw_colours_the_philox_sub_streams(self, T):
        # the rows of a draw of two or more are those of one product z @ L.T
        model = demo_ensemble()
        sampler = NoiseSampler(model, seed=9)
        proc, meas = (np.random.Generator(np.random.Philox(s)) for s in np.random.SeedSequence(9).spawn(2))
        z_v = proc.standard_normal((T, 2 * model.N))
        z_w = meas.standard_normal((T, model.N - 1))
        assert np.array_equal(sampler.process_block(T), z_v @ sampler.chol_q.T)
        assert np.array_equal(sampler.measurement_block(T), z_w @ sampler.chol_r.T)


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

    def test_replayed_noise_closes_the_recursion(self):
        model = unit_scale_model(n=3)
        rec = simulate(model, lambda k, y: np.full(3, 0.1), 100, seed=13)
        v = NoiseSampler(model, seed=13).process_block(100)
        assert rec.v is None
        for k in range(rec.T):
            expected = model.bigA @ rec.x[k] + model.bigB @ rec.u[k] + v[k]
            assert np.array_equal(rec.x[k + 1], expected)

    def test_policy_sees_measurement_of_current_state(self):
        model = demo_ensemble(n_clocks=2)
        # the first clock runs 1 s/s fast: x[0] reads 3 s apart, x[1] 4 s
        x0 = np.array([4.0, 1.0, 1.0, 0.0])
        seen = []
        rec = simulate(model, lambda k, y: seen.append(y.copy()) or np.zeros(2), 3, seed=0, x0=x0)
        assert np.array_equal(seen, rec.y)
        assert abs(seen[0][0] - 3.0) <= 1e-9  # y[0] measures x[0], not x[1]

    def test_shape_validation(self):
        model = demo_ensemble(n_clocks=2)
        with pytest.raises(ValueError, match="T must be"):
            simulate(model, None, 0, seed=0)
        with pytest.raises(ValueError, match="x0 must have shape"):
            simulate(model, None, 5, seed=0, x0=np.zeros(3))
        with pytest.raises(ValueError, match="policy returned"):
            simulate(model, lambda k, y: np.zeros(3), 5, seed=0)


def reference_free_run(model, x0, v):
    """The free-run states as separate phase and frequency cumulative sums."""
    T = v.shape[0]
    N = model.N
    tau = model.tau
    freq = np.empty((T + 1, N))
    freq[0] = x0[N:]
    np.cumsum(v[:, N:], axis=0, out=freq[1:])
    freq[1:] += x0[N:]
    phase = np.empty((T + 1, N))
    phase[0] = x0[:N]
    incr = tau * freq[:-1] + v[:, :N]
    np.cumsum(incr, axis=0, out=phase[1:])
    phase[1:] += x0[:N]
    return np.hstack([phase, freq])


def reference_destination_from_noise(model, q, v, x0=None):
    """The weighted-mean free run as two scalar cumulative sums."""
    qv = weight_vector(q, model.N)
    N, T = model.N, len(v)
    v_phase = v[:, :N] @ qv
    v_freq = v[:, N:] @ qv
    if x0 is None:
        r0 = np.zeros(2)
    else:
        r0 = np.array([x0[:N] @ qv, x0[N:] @ qv])
    freq = np.empty(T + 1)
    freq[0] = r0[1]
    np.cumsum(v_freq, out=freq[1:])
    freq[1:] += r0[1]
    phase = np.empty(T + 1)
    phase[0] = r0[0]
    np.cumsum(model.tau * freq[:-1] + v_phase, out=phase[1:])
    phase[1:] += r0[0]
    return np.column_stack([phase, freq])


class TestFreeRunIntegrator:
    @pytest.mark.parametrize("T", [1, 5000])
    @pytest.mark.parametrize("tau", [1.0, 0.7])
    @pytest.mark.parametrize("with_x0", [False, True])
    @pytest.mark.parametrize("n_clocks", [2, 3, 10])
    def test_matches_reference_bit_for_bit(self, n_clocks, with_x0, tau, T):
        model = demo_ensemble(n_clocks=n_clocks, tau=tau)
        x0 = np.random.default_rng(n_clocks).normal(scale=1e-9, size=2 * model.N) if with_x0 else None
        rec = simulate(model, None, T, seed=40 + n_clocks, x0=x0)
        v = NoiseSampler(model, seed=40 + n_clocks).process_block(T)
        start = np.zeros(2 * model.N) if x0 is None else x0
        assert np.array_equal(rec.x, reference_free_run(model, start, v))
        assert np.shares_memory(rec.h, rec.x)
        q = np.random.default_rng(T).dirichlet(np.ones(model.N))
        assert np.array_equal(
            destination_trajectory(model, q, T, seed=40 + n_clocks, x0=x0),
            reference_destination_from_noise(model, q, v, x0),
        )

    def test_free_run_peak_memory(self):
        model = demo_ensemble()
        T = 20_000
        simulate(model, None, 2, seed=3)
        tracemalloc.start()
        try:
            simulate(model, None, T, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # x, y and u, with the phase block h a view of x, and one block of
        # noise: 2.07 state arrays
        assert peak <= 2.27 * (T + 1) * 2 * model.N * 8


def reference_simulate(model, policy, T, seed, x0=None):
    """simulate as it was when it drew all of v and w before the run:
    returns x, y and u."""
    N = model.N
    x0 = np.zeros(2 * N) if x0 is None else x0
    sampler = NoiseSampler(model, seed)
    v = sampler.process_block(T)
    w = sampler.measurement_block(T)
    if policy is None:
        xs = reference_free_run(model, x0, v)
        return xs, xs[:T, :N] @ model.meas.V.T + w, np.zeros((T, N))
    xs = np.empty((T + 1, 2 * N))
    ys = np.empty((T, N - 1))
    us = np.empty((T, N))
    xs[0] = x0
    x = x0
    for k in range(T):
        y = model.bigC @ x + w[k]
        u = np.asarray(policy(k, y), dtype=float)
        ys[k] = y
        us[k] = u
        x = model.bigA @ x + model.bigB @ u + v[k]
        xs[k + 1] = x
    return xs, ys, us


def feedback_policy(k, y):
    """Steers every clock but the last against its relative phase."""
    return np.append(-0.1 * y, 0.0) * (1.0 + (k % 3))


# horizons around the noise block of 4096 rows
STREAM_T = [1, 4095, 4096, 4097, 3 * 4096 + 5]


class TestStreamedSimulate:
    @pytest.mark.parametrize("T", STREAM_T)
    @pytest.mark.parametrize("tau", [1.0, 0.7])
    @pytest.mark.parametrize("with_x0", [False, True])
    @pytest.mark.parametrize("case", ["free-3", "free-10", "policy-3"])
    def test_matches_whole_draws(self, case, with_x0, tau, T):
        kind, n_clocks = case.split("-")
        model = demo_ensemble(n_clocks=int(n_clocks), tau=tau)
        x0 = np.random.default_rng(T).normal(scale=1e-6, size=2 * model.N) if with_x0 else None
        policy = None if kind == "free" else feedback_policy
        rec = simulate(model, policy, T, seed=T, x0=x0)
        assert rec.v is None
        for got, want in zip((rec.x, rec.y, rec.u), reference_simulate(model, policy, T, T, x0)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


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
        # the Allan CSVs of scenario artifacts, on zeros of both signs,
        # NaN, infinities, subnormals and extreme exponents
        rng = np.random.default_rng(3)
        T = 1100
        values = rng.normal(size=(T, 6)) * 10.0 ** rng.integers(-300, 300, size=(T, 6))
        values[0] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
        values[1] = [2.2250738585072014e-308, -1e-310, 1.0, -1.0, 1e308, -1e-320]
        intervals = rng.normal(size=T) * 10.0 ** rng.integers(-300, 300, size=T)
        intervals[:6] = values[0]
        m_set = np.arange(1, T + 1)
        plots = {
            "vector": AllanPlot(m_set=m_set, intervals=intervals, values=values),
            "scalar": AllanPlot(m_set=m_set, intervals=intervals, values=values[:, 2].copy()),
        }
        _Artifacts(str(tmp_path)).write_allan(plots, "allan")
        expected = {f"allan_vector_{i + 1}.csv": values[:, i] for i in range(6)}
        expected["allan_scalar.csv"] = values[:, 2]
        for name, column in expected.items():
            np.savetxt(
                tmp_path / "ref.csv",
                np.column_stack([intervals, column]),
                delimiter=",",
                header="interval_s,allan_variance",
                comments="",
                fmt="%.16e",
            )
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes(), name
