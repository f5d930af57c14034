"""Allan-variance checks: estimator hand values, weights, analytics."""

import importlib.util
import json
import re
import tracemalloc
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eemsync import (
    NoiseParams,
    allan_pi,
    allan_plot,
    analytical_allan_clock,
    build_ensemble,
    gamma_matrix,
    optimal_weight,
    simulate,
    star_measurement,
    validate_config,
    variance_vector,
    weight_long,
    weight_short,
)
from eemsync.allan import AllanPlot, _LEAF, _default_m_grid, _longest_interval, _variance_pair
from eemsync.decomp import weight_vector
from eemsync.models import _check_tau
from eemsync.scenarios import _WEIGHTS, _Artifacts
from eemsync.presets import demo_ensemble, demo_noise_params


# The estimator as it stood before the in-place kernel: one fresh second
# difference per interval, averaged by ``mean(axis=0)``, and one call per
# interval.  The library must reproduce it bit for bit on every column.


def reference_statistical_allan(h: np.ndarray, tau: float, m: int) -> Union[float, np.ndarray]:
    """Overlapping second-difference estimator at averaging interval m tau.

    ``h`` is a reading series of length T+1 (optionally one column per
    series); m must lie in the feasible set 1 <= m <= (T-1)//2.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[0] < 2:
        raise ValueError("series must be 1-D or 2-D with at least 2 samples")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if int(m) != m:
        raise ValueError(f"m must be an integer, got {m!r}")
    m = int(m)
    T = h.shape[0] - 1
    if m < 1 or 2 * m + 1 > T:
        raise ValueError(f"m={m} is outside the feasible set 1..{max((T - 1) // 2, 0)}")
    d = h[2 * m : T] - 2.0 * h[m : T - m] + h[: T - 2 * m]
    est = (d * d).mean(axis=0) / (2.0 * (m * tau) ** 2)
    return float(est) if h.ndim == 1 else est


def reference_allan_plot(
    h: np.ndarray,
    tau: float,
    m_subset: Optional[Sequence[int]] = None,
    full_grid: bool = False,
) -> AllanPlot:
    """Evaluate the estimator over an interval grid.

    Defaults to a logarithmically spaced grid (about 30 points per
    decade); ``full_grid`` evaluates every feasible m, which is
    quadratic in the horizon.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[0] < 4:
        raise ValueError("series must have at least 4 samples")
    m_max = (h.shape[0] - 2) // 2
    if m_subset is not None:
        m_set = np.unique(np.asarray(m_subset, dtype=int))
        if m_set.size == 0:
            raise ValueError("m_subset must be nonempty")
        bad = m_set[(m_set < 1) | (m_set > m_max)]
        if bad.size:
            raise ValueError(f"intervals {bad.tolist()} outside the feasible set 1..{m_max}")
    elif full_grid:
        m_set = np.arange(1, m_max + 1)
    else:
        m_set = _default_m_grid(m_max)
    values = np.stack([np.atleast_1d(reference_statistical_allan(h, tau, int(m))) for m in m_set])
    if h.ndim == 1:
        values = values[:, 0]
    return AllanPlot(m_set=m_set, intervals=m_set * float(tau), values=values)


def random_phases(T: int, N: int, seed: int) -> np.ndarray:
    """A (T+1, N) record of random-walk phases with a white component."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal((T + 1, N)), axis=0) * 1e-9 + rng.standard_normal((T + 1, N)) * 1e-10


def assert_plots_equal(plot: AllanPlot, ref: AllanPlot) -> None:
    assert np.array_equal(plot.m_set, ref.m_set)
    assert np.array_equal(plot.intervals, ref.intervals)
    assert plot.values.shape == ref.values.shape
    assert np.array_equal(plot.values, ref.values)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("T", [3, 4, 5, 1001, 1000])
    def test_series_lengths(self, T):
        # T + 1 = 4 samples is the shortest series a plot accepts
        h = random_phases(T, 1, seed=T)[:, 0]
        assert_plots_equal(allan_plot(h, 1.0), reference_allan_plot(h, 1.0))
        every_m = np.arange(1, (T - 1) // 2 + 1)
        assert_plots_equal(allan_plot(h, 1.0, m_subset=every_m), reference_allan_plot(h, 1.0, full_grid=True))
        for m in range(1, (T - 1) // 2 + 1):
            value = allan_plot(h, 1.0, [m]).values[0]
            assert isinstance(value, float)
            assert value == reference_statistical_allan(h, 1.0, m)

    def test_tau_and_m_subset(self):
        h = random_phases(2000, 1, seed=7)[:, 0]
        for tau in (0.25, 3.0, 86400.0):
            subset = [999, 1, 17, 17, 250]
            assert_plots_equal(
                allan_plot(h, tau, m_subset=subset), reference_allan_plot(h, tau, m_subset=subset)
            )
            assert_plots_equal(allan_plot(h, tau), reference_allan_plot(h, tau))

    def test_full_grid(self):
        h = random_phases(600, 1, seed=8)[:, 0]
        every_m = np.arange(1, 300)
        assert_plots_equal(allan_plot(h, 2.0, m_subset=every_m), reference_allan_plot(h, 2.0, full_grid=True))

    def test_strided_record_column(self):
        rec = simulate(demo_ensemble(n_clocks=4), None, 5000, seed=9)
        for i in range(4):
            column = rec.h[:, i]
            assert not column.flags.c_contiguous
            assert_plots_equal(allan_plot(column, 1.0), reference_allan_plot(column, 1.0))

    def test_record_columns_match_one_dimensional_reference(self):
        rec = simulate(demo_ensemble(n_clocks=4), None, 5000, seed=10)
        plot = allan_plot(rec.h, 1.0)
        assert plot.values.shape == (plot.m_set.size, 4)
        for i in range(4):
            ref = reference_allan_plot(rec.h[:, i], 1.0)
            assert np.array_equal(plot.values[:, i], ref.values)
            for m in (1, 5, 100):
                assert allan_plot(rec.h, 1.0, [m]).values[0][i] == reference_statistical_allan(rec.h[:, i], 1.0, m)

    def test_reference_two_dimensional_path_agrees_to_rounding(self):
        # The reference's 2-D path averages with mean(axis=0), which adds
        # row by row instead of pairwise down each column; the worst
        # relative gap measured on this record is 1.2e-14 (4.1e-14 on the
        # 2e5-step free run).
        rec = simulate(demo_ensemble(n_clocks=10), None, 20_000, seed=301)
        plot = allan_plot(rec.h, 1.0)
        ref = reference_allan_plot(rec.h, 1.0)
        assert np.array_equal(plot.m_set, ref.m_set)
        worst = np.max(np.abs(plot.values - ref.values) / np.abs(ref.values))
        assert worst <= 1e-12

    def test_validation_unchanged(self):
        h = np.zeros(11)
        for bad in ({"m_subset": [5]}, {"m_subset": [0]}, {"m_subset": []}):
            with pytest.raises(ValueError):
                reference_allan_plot(h, 1.0, **bad)
            with pytest.raises(ValueError):
                allan_plot(h, 1.0, **bad)
        for fn in (allan_plot, reference_allan_plot):
            with pytest.raises(ValueError):
                fn(np.zeros(3), 1.0)
            with pytest.raises(ValueError):
                fn(np.zeros((5, 2, 2)), 1.0)
            with pytest.raises(ValueError):
                fn(h, 0.0)
        for fn in (lambda h, tau, m: allan_plot(h, tau, [m]).values[0], reference_statistical_allan):
            with pytest.raises(ValueError):
                fn(h, 1.0, 2.5)
            with pytest.raises(ValueError):
                fn(h, -1.0, 1)


def leaf_tree_sum(a: np.ndarray, leaf: int) -> float:
    """``np.add.reduce(a)`` summed as the kernel sums it: split pairwise,
    the left half rounded down to a multiple of 8, down to leaves of at
    most ``leaf`` samples, each summed by ``np.add.reduce``."""
    n = a.size
    if n > leaf:
        n2 = n // 2 - (n // 2) % 8
        return leaf_tree_sum(a[:n2], leaf) + leaf_tree_sum(a[n2:], leaf)
    return np.add.reduce(a)


# interval sample counts n = T - 2m on both sides of one and two leaves
LEAF_EDGES = [_LEAF - 1, _LEAF, _LEAF + 1, _LEAF + 8, 2 * _LEAF + 7]
LONG_T = 300_007


@pytest.fixture(scope="module")
def long_record():
    return simulate(demo_ensemble(n_clocks=3), None, LONG_T, seed=41)


def assert_subset_matches(h: np.ndarray, tau: float, subset: Sequence[int]) -> None:
    assert_plots_equal(allan_plot(h, tau, m_subset=subset), reference_allan_plot(h, tau, m_subset=subset))


class TestLeafBoundaries:
    def test_leaf_tree_is_numpy_pairwise_sum(self):
        # the split rule the kernel relies on; a numpy that sums a
        # contiguous array another way fails here by name
        rng = np.random.default_rng(5)
        for n in [*rng.integers(4_000, 400_000, size=20), *LEAF_EDGES, 2 * _LEAF]:
            a = rng.standard_normal(int(n)) ** 2
            for leaf in (256, 4096, _LEAF):
                assert leaf_tree_sum(a, leaf) == np.add.reduce(a), (n, leaf)

    @pytest.mark.parametrize("tau", [1.0, 0.7])
    @pytest.mark.parametrize("n", LEAF_EDGES)
    def test_interval_lengths_at_leaf_edges(self, long_record, n, tau):
        # each series holds n = T - 2m samples at m = 1 and at m = 37
        for m in (1, 37):
            T = n + 2 * m
            subset = [1, m, (T - 1) // 2]
            assert_subset_matches(random_phases(T, 1, seed=n + m)[:, 0], tau, subset)
            column = long_record.h[: T + 1, 1]
            assert not column.flags.c_contiguous
            assert_subset_matches(column, tau, subset)

    @pytest.mark.parametrize("tau", [1.0, 0.7])
    def test_long_record(self, long_record, tau):
        subset = [1, 2, 1_000, LONG_T // 2 - _LEAF, 84_000, (LONG_T - 1) // 2]
        plot = allan_plot(long_record.h, tau, m_subset=subset)
        for i in range(long_record.h.shape[1]):
            column = long_record.h[:, i]
            ref = reference_allan_plot(column, tau, m_subset=subset)
            assert np.array_equal(plot.values[:, i], ref.values)
            assert_plots_equal(allan_plot(column, tau, m_subset=subset), ref)
        assert_subset_matches(np.ascontiguousarray(long_record.h[:, 0]), tau, subset)

    def test_work_buffer_is_one_leaf(self):
        # a contiguous series is read in place, so the second-difference
        # buffer, at most one leaf, is the only large work array
        h = random_phases(300_000, 1, seed=42)[:, 0]
        tracemalloc.start()
        try:
            plot = allan_plot(h, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        results = plot.values.nbytes + plot.m_set.nbytes + plot.intervals.nbytes
        assert peak <= 1.1 * _LEAF * 8 + results


@settings(max_examples=150, deadline=None)
@given(
    T=st.integers(min_value=4, max_value=3000),
    N=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    grid=st.data(),
    tau=st.sampled_from([1.0, 0.5, 7.0, 1e3]),
)
def test_property_kernel_matches_reference(T, N, seed, grid, tau):
    h = random_phases(T, N, seed)
    m_max = (T - 1) // 2
    subset = grid.draw(st.lists(st.integers(min_value=1, max_value=m_max), min_size=1, max_size=12))
    plot = allan_plot(h, tau, m_subset=subset)
    default = allan_plot(h, tau)
    for i in range(N):
        assert_plots_equal(
            AllanPlot(plot.m_set, plot.intervals, plot.values[:, i]),
            reference_allan_plot(h[:, i], tau, m_subset=subset),
        )
        assert np.array_equal(default.values[:, i], reference_allan_plot(h[:, i], tau).values)


class TestEstimatorHandValues:
    def test_alternating_phase(self):
        h = np.array([0.0, 1.0] * 6)
        assert allan_plot(h, 1.0, [1]).values[0] == 2.0

    def test_constant_and_ramp_are_silent(self):
        k = np.arange(40, dtype=float)
        assert allan_plot(np.full(40, 3.7), 1.0, [3]).values[0] == 0.0
        assert allan_plot(2.0 + 0.5 * k, 1.0, [3]).values[0] == 0.0

    def test_quadratic_ramp_m_scaling(self):
        # second difference of k^2 at lag m is exactly 2 m^2
        h = np.arange(101, dtype=float) ** 2
        for m in (1, 2, 7):
            assert allan_plot(h, 1.0, [m]).values[0] == pytest.approx(2.0 * m**2)

    def test_tau_scaling(self):
        h = np.array([0.0, 1.0] * 6)
        assert allan_plot(h, 10.0, [1]).values[0] == pytest.approx(0.02)

    def test_columnwise_series(self):
        h = np.stack([np.array([0.0, 1.0] * 6), np.zeros(12)], axis=1)
        out = allan_plot(h, 1.0, [1]).values[0]
        assert np.array_equal(out, [2.0, 0.0])

    def test_interval_validation(self):
        h = np.zeros(11)  # T = 10, so m may reach (T-1)//2 = 4
        allan_plot(h, 1.0, [4]).values[0]
        with pytest.raises(ValueError):
            allan_plot(h, 1.0, [5]).values[0]
        with pytest.raises(ValueError):
            allan_plot(h, 1.0, [0]).values[0]


class TestAnalytical:
    def test_clock_line_hand_value(self):
        assert analytical_allan_clock([4.0], [9.0], 4.0) == pytest.approx(
            [4.0 / 4.0 + 4.0 / 3.0 * 9.0]
        )

    def test_gamma_matrix_hand_value(self):
        g = gamma_matrix(np.array([1.0, 4.0]), np.array([3.0, 0.0]), 2.0)
        assert np.allclose(g, [2.0 + 8.0, 8.0])

    def test_gamma_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            gamma_matrix(np.ones(2), np.ones(2), 0.0)

    def test_variance_vector_forms(self):
        assert np.array_equal(variance_vector(np.array([1.0, 2.0])), [1.0, 2.0])
        # one form only: a diagonal matrix is rejected, not read as its diagonal
        for matrix in (np.diag([1.0, 2.0]), np.array([[1.0, 0.5], [0.5, 2.0]])):
            with pytest.raises(ValueError, match="1-D variance vector"):
                variance_vector(matrix)

    def test_pi_reduces_to_single_clock_line(self):
        s1 = np.array([v**2 for v in (2.0, 5.0)])
        s2 = np.array([v**2 for v in (3.0, 0.5)])
        for i in range(2):
            q = np.zeros(2)
            q[i] = 1.0
            assert allan_pi(q, s1, s2, 7.0) == pytest.approx(
                analytical_allan_clock(s1, s2, 7.0)[i]
            )

    def test_pi_quadratic_form(self):
        s1, s2 = np.array([1.0, 2.0]), np.array([0.5, 0.1])
        q = np.array([0.6, 0.4])
        g = np.diag(gamma_matrix(s1, s2, 3.0))
        assert allan_pi(q, s1, s2, 3.0) == pytest.approx(q @ g @ q / 9.0)


def _list_weight() -> np.ndarray:
    """``tools/same_artifacts.py``'s list weight, which has a negative entry."""
    path = Path(__file__).resolve().parents[1] / "tools" / "same_artifacts.py"
    spec = importlib.util.spec_from_file_location("same_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return np.array(module.LIST_WEIGHT)


# The two analytical lines as they stood when each call took one interval:
# the oracles that the array calls must match bit for bit.
def reference_allan_pi(q, sigma1_sq, sigma2_sq, tau) -> float:
    qv = weight_vector(q)
    g = gamma_matrix(sigma1_sq, sigma2_sq, tau)
    if g.size != qv.size:
        raise ValueError(f"weight has {qv.size} entries, noise has {g.size}")
    return float(qv @ (g * qv) / tau**2)


def reference_allan_clock(sigma1_sq, sigma2_sq, tau) -> np.ndarray:
    _check_tau(tau)
    s1, s2 = _variance_pair(sigma1_sq, sigma2_sq)
    return s1 / tau + (tau / 3.0) * s2


class TestIntervalArrays:
    """An array of intervals gives, value for value, the one-interval
    oracles' bits, and so does a single interval."""

    @pytest.mark.parametrize("tau", [0.7, 1.0, 3.0])
    @pytest.mark.parametrize("T", [20_000, 100_000])
    def test_default_grid_matches_scalar_calls(self, T, tau):
        model = demo_ensemble(tau=tau)
        s1, s2 = model.sigma1_sq, model.sigma2_sq
        intervals = _default_m_grid(_longest_interval(T)) * tau
        lines = analytical_allan_clock(s1, s2, intervals)
        assert lines.shape == (len(intervals), model.N)
        expected = np.array([reference_allan_clock(s1, s2, t) for t in intervals])
        assert np.array_equal(lines, expected)
        assert all(np.array_equal(analytical_allan_clock(s1, s2, t), row) for t, row in zip(intervals, expected))
        weights = [build(model) for build, _ in _WEIGHTS.values()] + [_list_weight()]
        for q in weights:
            got = allan_pi(q, s1, s2, intervals)
            assert got.shape == intervals.shape
            expected = [reference_allan_pi(q, s1, s2, t) for t in intervals]
            assert np.array_equal(got, expected)
            assert [allan_pi(q, s1, s2, t) for t in intervals] == expected
            assert [allan_pi(q, s1, s2, float(t)) for t in intervals] == expected

    def test_scalar_keeps_its_return_type(self):
        q = np.array([0.5, 0.5])
        assert type(allan_pi(q, S1, S2, 2.0)) is float
        assert analytical_allan_clock(S1, S2, 2.0).shape == (2,)
        assert allan_pi(q, S1, S2, np.array([2.0])).shape == (1,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0, 1e200, 1e-200])
    def test_infeasible_interval_raises_the_scalar_error(self, bad):
        q = np.array([0.5, 0.5])
        for call, reference in (
            (lambda tau: allan_pi(q, S1, S2, tau), lambda tau: reference_allan_pi(q, S1, S2, tau)),
            (lambda tau: analytical_allan_clock(S1, S2, tau), lambda tau: reference_allan_clock(S1, S2, tau)),
        ):
            with pytest.raises(ValueError) as expected:
                reference(bad)
            for tau in (bad, np.array([1.0, bad, 2.0])):
                with pytest.raises(ValueError) as got:
                    call(tau)
                assert str(got.value) == str(expected.value)

    def test_two_dimensional_intervals_refused(self):
        with pytest.raises(ValueError, match=r"1-D array of intervals, got shape \(1, 2\)"):
            allan_pi(np.array([0.5, 0.5]), S1, S2, [[1.0, 2.0]])


S1, S2 = np.array([1.0, 4.0]), np.array([3.0, 0.5])
TAU_ENTRY_POINTS = {
    "allan_plot": lambda tau: allan_plot(np.arange(12.0) ** 2, tau),
    # the statistical Allan variance at one interval, through m_subset
    "statistical_allan": lambda tau: allan_plot(np.arange(12.0) ** 2, tau, [2]).values[0],
    "gamma_matrix": lambda tau: gamma_matrix(S1, S2, tau),
    "analytical_allan_clock": lambda tau: analytical_allan_clock(S1, S2, tau),
    "allan_pi": lambda tau: allan_pi(np.array([0.5, 0.5]), S1, S2, tau),
    "optimal_weight": lambda tau: optimal_weight(S1, S2, tau),
    # every other owner of tau applies the same rule
    "build_ensemble": lambda tau: build_ensemble(
        [NoiseParams(1e-10, 1e-13)] * 2, star_measurement(2), np.eye(1), tau
    ),
    "validate_config": lambda tau: validate_config(
        {
            "name": "tau",
            "kind": "free-run",
            "model": {"n_clocks": 2, "tau": tau, "sigma1": [1e-10] * 2, "sigma2": [1e-13] * 2, "meas_std": [1e-11]},
            "horizon": 10,
            "seed": 0,
        }
    ),
}


@pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -1.0, 1e200, 1e-200])
@pytest.mark.parametrize("entry", sorted(TAU_ENTRY_POINTS))
def test_entry_points_refuse_bad_tau(entry, tau):
    # unchecked, a non-finite interval gives NaN, inf or zero values, and
    # one whose cube overflows or underflows gives inf or NaN statistics;
    # the validator refuses a NaN or inf as no number before the rule
    with pytest.raises(
        ValueError, match=r"tau(: number required| must be finite and > 0|\*\*3 (overflows|underflows))"
    ):
        TAU_ENTRY_POINTS[entry](tau)


@pytest.mark.parametrize("tau", [1e200, np.float64(1e200)], ids=["float", "float64"])
@pytest.mark.parametrize("entry", ["gamma_matrix", "allan_pi", "optimal_weight"])
def test_tau_cubed_overflow_is_named(entry, tau):
    # unchecked, a Python float raised OverflowError and a float64 gave inf,
    # which optimal_weight reported only as non-finite weight entries
    s1, s2 = np.array([1.0, 4.0]), np.array([3.0, 0.5])
    call = {
        "gamma_matrix": lambda: gamma_matrix(s1, s2, tau),
        "allan_pi": lambda: allan_pi(np.array([0.5, 0.5]), s1, s2, tau),
        "optimal_weight": lambda: optimal_weight(s1, s2, tau),
    }[entry]
    with pytest.raises(ValueError, match=r"tau\*\*3 overflows"):
        call()


class TestWeights:
    def test_short_term_inverse_variance(self):
        q = weight_short(np.array([1.0, 4.0]))
        assert np.allclose(q, [0.8, 0.2])

    def test_long_term_inverse_variance(self):
        q = weight_long(np.array([2.0, 2.0, 1.0]))
        assert np.allclose(q, [0.25, 0.25, 0.5])

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            weight_short(np.array([1.0, 0.0]))

    def test_optimal_weight_interpolates_limits(self):
        s1 = np.array([p.sigma1**2 for p in demo_noise_params()])
        s2 = np.array([p.sigma2**2 for p in demo_noise_params()])
        q_short = optimal_weight(s1, s2, 1e-6)
        q_long = optimal_weight(s1, s2, 1e9)
        assert np.max(np.abs(q_short - weight_short(s1))) <= 1e-4
        assert np.max(np.abs(q_long - weight_long(s2))) <= 1e-4

    def test_optimal_weight_beats_members(self):
        s1 = np.array([p.sigma1**2 for p in demo_noise_params()])
        s2 = np.array([p.sigma2**2 for p in demo_noise_params()])
        for tau in (1.0, 1e3):
            qa = optimal_weight(s1, s2, tau)
            best = allan_pi(qa, s1, s2, tau)
            for i in range(10):
                e = np.zeros(10)
                e[i] = 1.0
                assert best <= allan_pi(e, s1, s2, tau) * (1 + 1e-12)


def single_noise_model(sigma1, sigma2):
    params = [NoiseParams(sigma1, sigma2), NoiseParams(sigma1, sigma2)]
    return build_ensemble(params, star_measurement(2), np.eye(1) * 1e-30, 1.0)


def fit_slope(intervals, values):
    return np.polyfit(np.log(intervals), np.log(values), 1)[0]


class TestAgainstSimulation:
    def test_white_fm_slope(self):
        rec = simulate(single_noise_model(1e-10, 0.0), None, 200_000, seed=31)
        plot = allan_plot(rec.h[:, 0], 1.0, m_subset=[1, 3, 10, 30, 100])
        assert fit_slope(plot.intervals, plot.values) == pytest.approx(-1.0, abs=0.1)

    def test_rwfm_slope(self):
        rec = simulate(single_noise_model(0.0, 1e-13), None, 200_000, seed=32)
        plot = allan_plot(rec.h[:, 0], 1.0, m_subset=[1, 3, 10, 30, 100])
        assert fit_slope(plot.intervals, plot.values) == pytest.approx(1.0, abs=0.1)

    def test_demo_clock_matches_analytical_band(self):
        noise = demo_noise_params()[0]
        model = single_noise_model(noise.sigma1, noise.sigma2)
        rec = simulate(model, None, 100_000, seed=33)
        for m in (1, 10):
            est = allan_plot(rec.h[:, 0], 1.0, [m]).values[0]
            ref = analytical_allan_clock([noise.sigma1**2], [noise.sigma2**2], float(m))[0]
            assert abs(est - ref) <= 0.2 * ref


class TestPlots:
    def test_default_grid_is_log_spaced(self):
        plot = allan_plot(np.zeros(20_001), 1.0)
        assert plot.m_set[0] == 1
        assert plot.m_set[-1] <= (20_001 - 2) // 2
        assert np.all(np.diff(plot.m_set) > 0)
        # about 30 points per decade on the default grid
        decade = plot.m_set[(plot.m_set >= 10) & (plot.m_set < 100)]
        assert 25 <= decade.size <= 35

    def test_default_grid_matches_unique_reference(self):
        def reference(m_max):
            # the grid as np.unique built it
            if m_max <= 1:
                return np.array([1])
            count = int(np.ceil(30 * np.log10(m_max))) + 1
            grid = np.unique(np.round(np.logspace(0.0, np.log10(m_max), count)).astype(int))
            return grid[(grid >= 1) & (grid <= m_max)]

        for m_max in [*range(1, 3001), 50_000, 99_999, 100_000, 1_000_000]:
            grid, ref = _default_m_grid(m_max), reference(m_max)
            assert grid.dtype == ref.dtype and np.array_equal(grid, ref), m_max

    def test_m_subset_must_be_feasible(self):
        with pytest.raises(ValueError):
            allan_plot(np.zeros(11), 1.0, m_subset=[5])

    @pytest.mark.parametrize(
        "subset, named",
        [([1.5, 2.9], [1.5, 2.9]), ([2, 2.5], [2.5]), ([np.nan], [np.nan]), ([np.inf], [np.inf])],
    )
    def test_m_subset_rejects_non_integers(self, subset, named):
        # each is refused and named, not truncated to an integer interval
        with pytest.raises(ValueError, match=re.escape(f"intervals {named} are not integers")):
            allan_plot(np.zeros(11), 1.0, m_subset=subset)
        with pytest.raises(ValueError, match="not integers"):
            allan_plot(np.zeros(11), 1.0, [subset[-1]]).values[0]

    def test_write_plots_round_trip(self, tmp_path):
        h = np.array([0.0, 1.0] * 8)
        plots = {"demo": allan_plot(h, 1.0, m_subset=[1, 2, 3])}
        art = _Artifacts(str(tmp_path))
        art.write_allan(plots, "allan")
        assert (tmp_path / "allan_index.json").is_file()
        index = json.loads((tmp_path / "allan_index.json").read_text())
        path = tmp_path / index["demo"]
        lines = path.read_text().splitlines()
        assert lines[0] == "interval_s,allan_variance"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (3, 2)
        assert np.array_equal(data, np.column_stack([plots["demo"].intervals, plots["demo"].values]))
        assert sorted(art.names) == ["allan_demo.csv", "allan_index.json"]
