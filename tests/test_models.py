"""Model-layer checks: discretization against a quadrature oracle."""

import numpy as np
import pytest
from scipy.linalg import expm

from eemsync import (
    MeasurementStructure,
    NoiseParams,
    build_ensemble,
    discretize,
    star_measurement,
)
from eemsync.presets import demo_ensemble, demo_noise_params


def quadrature_covariance(sigma1: float, sigma2: float, tau: float) -> np.ndarray:
    """Oracle: integrate the continuous covariance with Gauss-Legendre.

    Q(tau) = int_0^tau e^{Fs} diag(s1^2, s2^2) e^{F's} ds with the
    continuous generator F = [[0, 1], [0, 0]].  The integrand entries are
    polynomials of degree <= 2, so 8 nodes are exact to roundoff, and the
    route (matrix exponential + quadrature) shares nothing with the
    closed form under test.
    """
    F = np.array([[0.0, 1.0], [0.0, 0.0]])
    Qc = np.diag([sigma1**2, sigma2**2])
    nodes, weights = np.polynomial.legendre.leggauss(8)
    s = 0.5 * tau * (nodes + 1.0)
    total = np.zeros((2, 2))
    for si, wi in zip(s, weights):
        E = expm(F * si)
        total += wi * (E @ Qc @ E.T)
    return 0.5 * tau * total


class TestDiscretize:
    def test_step_matrices(self):
        m = discretize(NoiseParams(1e-10, 1e-13), 2.5)
        assert np.array_equal(m.A, [[1.0, 2.5], [0.0, 1.0]])
        assert np.array_equal(m.B, [2.5, 1.0])
        assert np.array_equal(m.C, [1.0, 0.0])
        assert m.tau == 2.5

    def test_q_against_quadrature_oracle(self):
        for s1 in (0.0, 1.7e-10, 0.3):
            for s2 in (0.0, 5.7e-14, 1.0):
                if s1 == 0.0 and s2 == 0.0:
                    continue
                for tau in (0.01, 1.0, 900.0):
                    Q = discretize(NoiseParams(s1, s2), tau).Q
                    oracle = quadrature_covariance(s1, s2, tau)
                    assert np.linalg.norm(Q - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_q_hand_value_demo_clock_one(self):
        # tau = 1: Q[0,0] = sigma1^2 + sigma2^2/3, dominated by white FM
        q = discretize(demo_noise_params()[0], 1.0).Q
        assert q[0, 0] == pytest.approx(0.1700e-9**2 + 0.1507e-12**2 / 3.0, rel=1e-15)
        assert q[0, 1] == pytest.approx(0.5 * 0.1507e-12**2, rel=1e-15)
        assert q[1, 1] == pytest.approx(0.1507e-12**2, rel=1e-15)

    def test_white_fm_only_has_no_frequency_noise(self):
        q = discretize(NoiseParams(1e-10, 0.0), 7.0).Q
        assert q[0, 0] == pytest.approx(7.0 * 1e-20)
        assert q[0, 1] == 0.0
        assert q[1, 1] == 0.0

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            discretize(NoiseParams(1e-10, 0.0), 0.0)
        with pytest.raises(ValueError):
            discretize(NoiseParams(1e-10, 0.0), -1.0)


class TestNoiseParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseParams(-1e-10, 1e-13)
        with pytest.raises(ValueError):
            NoiseParams(1e-10, -1e-13)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            NoiseParams(0.0, 0.0)


def _r_with(value):
    R = np.eye(2)
    R[1, 1] = value
    return R


NON_FINITE_CASES = {
    # variance or tau**3 overflow: Python floats raised OverflowError, and a
    # numpy float gave an inf variance without complaint
    "sigma1-float": (lambda: NoiseParams(1e200, 1e-13), "sigma1"),
    "sigma1-float64": (lambda: NoiseParams(np.float64(1e200), 1e-13), "sigma1"),
    "sigma2-float64": (lambda: NoiseParams(1e-10, np.float64(1e200)), "sigma2"),
    "discretize-tau-cubed": (lambda: discretize(NoiseParams(1e-10, 1e-13), 1e200), "tau"),
    "discretize-Q": (lambda: discretize(NoiseParams(1e150, 0.0), 1e10), "Q not finite"),
    "build-tau-cubed": (
        lambda: build_ensemble([NoiseParams(1e-10, 1e-13)] * 3, star_measurement(3), np.eye(2), 1e200),
        "tau",
    ),
    "build-bigQ": (
        lambda: build_ensemble(
            [NoiseParams(1e-10, 1e-13)] * 2 + [NoiseParams(1e150, 0.0)], star_measurement(3), np.eye(2), 1e10
        ),
        "bigQ not finite",
    ),
    # inf - inf is NaN, so the symmetry test used to let these through
    "R-inf": (lambda: MeasurementStructure(V=star_measurement(3), R=_r_with(np.inf)), "R must be finite"),
    "build-R-nan": (
        lambda: build_ensemble([NoiseParams(1e-10, 1e-13)] * 3, star_measurement(3), _r_with(np.nan), 1.0),
        "R must be finite",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_model_raises_value_error(case):
    build, field = NON_FINITE_CASES[case]
    with pytest.raises(ValueError, match=field):
        build()


class TestMeasurement:
    def test_star_shapes(self):
        assert np.array_equal(star_measurement(2), [[1.0, -1.0]])
        V = star_measurement(4)
        assert V.shape == (3, 4)
        assert np.array_equal(V[:, :3], np.eye(3))
        assert np.all(V[:, 3] == -1.0)

    def test_star_rejects_single_clock(self):
        with pytest.raises(ValueError):
            star_measurement(1)

    def test_structure_requires_ones_in_kernel(self):
        bad = np.array([[1.0, 0.0, -0.5], [0.0, 1.0, -1.0]])
        with pytest.raises(ValueError, match="ker V"):
            MeasurementStructure(V=bad, R=np.eye(2))

    def test_structure_requires_full_row_rank(self):
        V = np.array([[1.0, 0.0, -1.0], [2.0, 0.0, -2.0]])
        with pytest.raises(ValueError, match="row rank"):
            MeasurementStructure(V=V, R=np.eye(2))

    def test_structure_requires_spd_noise(self):
        V = star_measurement(3)
        with pytest.raises(ValueError, match="positive definite"):
            MeasurementStructure(V=V, R=np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="symmetric"):
            MeasurementStructure(V=V, R=np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestEnsemble:
    def test_block_layout_matches_per_clock_discretization(self):
        model = demo_ensemble(tau=3.0, n_clocks=4)
        N = model.N
        for i, p in enumerate(demo_noise_params()[:4]):
            single = discretize(p, 3.0).Q
            idx = np.array([i, N + i])
            assert np.allclose(model.bigQ[np.ix_(idx, idx)], single, rtol=0, atol=0)

    def test_kron_ordering_phase_block_first(self):
        model = demo_ensemble(tau=2.0, n_clocks=3)
        x = np.arange(6, dtype=float)  # phases 0,1,2 then frequencies 3,4,5
        advanced = model.bigA @ x
        assert np.array_equal(advanced[:3], x[:3] + 2.0 * x[3:])
        assert np.array_equal(advanced[3:], x[3:])

    def test_input_enters_phase_and_frequency(self):
        model = demo_ensemble(tau=2.0, n_clocks=3)
        u = np.array([1.0, 0.0, -1.0])
        pushed = model.bigB @ u
        assert np.array_equal(pushed[:3], 2.0 * u)
        assert np.array_equal(pushed[3:], u)

    def test_measurement_reads_phase_differences(self):
        model = demo_ensemble(n_clocks=3)
        x = np.array([5.0, 7.0, 11.0, 0.1, 0.2, 0.3])
        assert np.array_equal(model.bigC @ x, [5.0 - 11.0, 7.0 - 11.0])

    def test_param_count_must_match_measurement(self):
        with pytest.raises(ValueError, match="NoiseParams"):
            build_ensemble(demo_noise_params()[:3], star_measurement(4), np.eye(3), 1.0)

    def test_bigq_against_quadrature_oracle(self):
        model = demo_ensemble(tau=5.0, n_clocks=3)
        params = demo_noise_params()[:3]
        N = model.N
        for i, p in enumerate(params):
            oracle = quadrature_covariance(p.sigma1, p.sigma2, 5.0)
            idx = np.array([i, N + i])
            assert np.linalg.norm(model.bigQ[np.ix_(idx, idx)] - oracle) <= 1e-12 * np.linalg.norm(oracle)
        # cross-clock blocks are zero: independent noise sources
        off = model.bigQ.copy()
        for i in range(N):
            idx = np.array([i, N + i])
            off[np.ix_(idx, idx)] = 0.0
        assert np.all(off == 0.0)

    def test_clock_is_discretized_once(self):
        model = demo_ensemble(tau=3.0, n_clocks=3)
        assert model.clock is model.clock
        fresh = discretize(NoiseParams(1.0, 0.0), 3.0)
        for name in ("A", "B", "C", "Q"):
            assert np.array_equal(getattr(model.clock, name), getattr(fresh, name))
