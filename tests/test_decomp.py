"""Decomposition checks: generalized inverse, transforms, couplings."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eemsync import (
    Decomposition,
    NoiseParams,
    NumericalError,
    build_ensemble,
    decompose,
    expand_input,
    generalized_inverse,
    reconstruct_state,
    simulate,
    star_measurement,
)
from eemsync.decomp import weight_vector
from eemsync.presets import demo_ensemble, demo_noise_params
from eemsync.scenarios import _WEIGHTS
from oracles import project


def ring_measurement(n):
    """Cycle-difference topology: clock i against clock i+1."""
    V = np.zeros((n - 1, n))
    for i in range(n - 1):
        V[i, i] = 1.0
        V[i, i + 1] = -1.0
    return V


def random_weight(rng, n):
    q = rng.random(n) + 0.05
    return q / q.sum()


class TestEnsembleWeight:
    def test_accepts_convex_weights(self):
        w = weight_vector(np.array([0.2, 0.3, 0.5]))
        assert w.shape == (3,)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            weight_vector(np.array([0.5, 0.4]))

    def test_weight_vector_coercion(self):
        assert np.array_equal(weight_vector([0.5, 0.5]), [0.5, 0.5])
        with pytest.raises(ValueError):
            weight_vector([0.5, 0.5], n=3)


class TestGeneralizedInverse:
    def test_uniform_three_clock_hand_value(self):
        Vp = generalized_inverse(star_measurement(3), np.full(3, 1 / 3))
        expected = np.array([[2, -1], [-1, 2], [-1, -1]]) / 3.0
        assert np.max(np.abs(Vp - expected)) <= 1e-15

    def test_single_clock_weight_hand_value(self):
        Vp = generalized_inverse(star_measurement(2), np.array([0.0, 1.0]))
        assert np.array_equal(Vp, [[1.0], [0.0]])

    def test_steering_weight_zeroes_last_row_exactly(self):
        n = 10
        q = np.zeros(n)
        q[-1] = 1.0
        Vp = generalized_inverse(star_measurement(n), q)
        assert np.all(Vp[-1] == 0.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_star_closed_form_matches_stacked_solve(self, n):
        # oracle for the closed star form: the stacked system
        # [V; q^T] Vplus = [I; 0] that any other V is solved by
        rng = np.random.default_rng(n)
        V = star_measurement(n)
        rhs = np.vstack([np.eye(n - 1), np.zeros((1, n - 1))])
        for q in [*rng.dirichlet(np.ones(n), size=20), np.eye(n)[-1]]:
            Vp = generalized_inverse(V, q)
            solved = np.linalg.solve(np.vstack([V, q]), rhs)
            assert np.max(np.abs(Vp - solved)) <= 1e-12 * np.max(np.abs(Vp))
        assert np.all(Vp[-1] == 0.0)  # q = e_N, the steering weight

    def test_star_form_runs_no_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the star form solved a linear system")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        Vp = generalized_inverse(star_measurement(4), np.full(4, 0.25))
        assert np.array_equal(Vp, np.vstack([np.eye(3), np.zeros((1, 3))]) - 0.25)
        with pytest.raises(AssertionError, match="solved a linear system"):
            generalized_inverse(ring_measurement(4), np.full(4, 0.25))

    def test_star_weight_past_double_precision_fails_its_identities(self):
        # [V; q^T] is singular in floating point here, and the closed form
        # misses q^T Vplus = 0 by 3.6e16, past 1e-10 max|Vplus|: a
        # NumericalError, not the solve's ValueError
        q = np.zeros(10)
        q[[0, 1, 9]] = 3e16, -3e16, 1.0
        with pytest.raises(NumericalError, match="failed its defining identities"):
            generalized_inverse(star_measurement(10), q)

    def test_large_star_weight_meets_its_identities(self):
        q = np.zeros(10)
        q[[0, 1, 9]] = 1e9, -1e9, 1.0
        Vp = generalized_inverse(star_measurement(10), q)
        assert np.array_equal(Vp, np.vstack([np.eye(9), np.zeros((1, 9))]) - q[:-1])

    def test_defining_identities(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 10):
            for V in (star_measurement(n), ring_measurement(n)):
                q = random_weight(rng, n)
                Vp = generalized_inverse(V, q)
                assert np.max(np.abs(V @ Vp - np.eye(n - 1))) <= 1e-12
                assert np.max(np.abs(q @ Vp)) <= 1e-12
                proj = np.eye(n) - np.outer(np.ones(n), q)
                assert np.max(np.abs(Vp @ V - proj)) <= 1e-12


def model_for(n, tau=1.0):
    params = demo_noise_params()[:n]
    R = np.diag(np.full(n - 1, 1e-29))
    return build_ensemble(params, star_measurement(n), R, tau)


class TestDecompose:
    def test_weight_basis_fields(self):
        model = model_for(4, tau=2.0)
        d = decompose(model, np.full(4, 0.25))
        assert d.q is not None
        assert d.N == 4
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(d.A, A)
        assert np.array_equal(d.B, [2.0, 1.0])
        assert np.max(np.abs(d.Ao - np.kron(A, np.eye(3)))) <= 1e-15
        assert np.max(np.abs(d.Bo - np.kron([[2.0], [1.0]], np.eye(3)))) <= 1e-15
        assert np.array_equal(d.Co, np.hstack([np.eye(3), np.zeros((3, 3))]))
        assert np.all(d.coupling == 0.0)

    def test_transform_is_inverse_pair(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 10):
            model = model_for(n)
            d = decompose(model, random_weight(rng, n))
            assert np.max(np.abs(d.T @ d.Tinv - np.eye(2 * n))) <= 1e-10

    def test_transformed_dynamics_block_triangular(self):
        # T bigA Tinv must have a zero block: the observable part never
        # hears the unobservable one
        model = model_for(5)
        d = decompose(model, np.full(5, 0.2))
        At = d.T @ model.bigA @ d.Tinv
        n_obs = 2 * 4
        assert np.max(np.abs(At[:n_obs, n_obs:])) <= 1e-12
        assert np.max(np.abs(At[:n_obs, :n_obs] - d.Ao)) <= 1e-12
        assert np.max(np.abs(At[n_obs:, :n_obs] - d.coupling)) <= 1e-12
        assert np.max(np.abs(At[n_obs:, n_obs:] - d.A)) <= 1e-12

    def test_output_only_sees_observable_part(self):
        model = model_for(3)
        d = decompose(model, np.full(3, 1 / 3))
        Ct = model.bigC @ d.Tinv
        assert np.max(np.abs(Ct[:, :4] - d.Co)) <= 1e-12
        assert np.max(np.abs(Ct[:, 4:])) <= 1e-14

    def test_covariance_blocks_match_projected_bigq(self):
        model = model_for(4)
        d = decompose(model, np.array([0.1, 0.2, 0.3, 0.4]))
        kIV = np.kron(np.eye(2), model.meas.V)
        assert np.max(np.abs(d.Qo - kIV @ model.bigQ @ kIV.T)) <= 1e-25
        assert np.max(np.abs(d.Qbo - d.T[-2:] @ model.bigQ @ kIV.T)) <= 1e-25

    def test_general_basis_round_trip(self):
        model = model_for(3)
        rng = np.random.default_rng(2)
        wbar = rng.standard_normal((2, 6))
        d = decompose(model, wbar)
        assert d.q is None and d.Vplus is None
        assert np.max(np.abs(d.T @ d.Tinv - np.eye(6))) <= 1e-10
        At = d.T @ model.bigA @ d.Tinv
        assert np.max(np.abs(At[:4, 4:])) <= 1e-10

    def test_general_basis_must_see_unobservable_subspace(self):
        model = model_for(3)
        # rows orthogonal to (I2 kron 1): Wbar (I2 kron 1) singular
        wbar = np.zeros((2, 6))
        wbar[0, :3] = [1.0, -1.0, 0.0]
        wbar[1, 3:] = [0.0, 1.0, -1.0]
        with pytest.raises(ValueError, match="singular"):
            decompose(model, wbar)

    @pytest.mark.parametrize("n_clocks", [2, 3, 6])
    def test_general_basis_kernel_matches_scipy_null_space(self, n_clocks):
        from scipy.linalg import null_space

        model = model_for(n_clocks)
        wbar = np.random.default_rng(n_clocks).standard_normal((2, 2 * n_clocks))
        d = decompose(model, wbar)
        kernel = null_space(wbar)
        assert kernel.shape == (2 * n_clocks, 2 * (n_clocks - 1))
        # U spans ker Wbar: compare orthogonal projectors, which do not
        # depend on the basis either kernel is given in
        span = np.linalg.qr(d.Tinv[:, :-2])[0]
        assert np.max(np.abs(span @ span.T - kernel @ kernel.T)) <= 1e-12
        # U is the right inverse of I2 kron V with that range
        kIV = np.kron(np.eye(2), model.meas.V)
        u_ref = np.linalg.solve((kIV @ kernel).T, kernel.T).T
        assert np.max(np.abs(d.Tinv[:, :-2] - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))

    def test_general_basis_must_have_full_row_rank(self):
        model = model_for(3)
        # rows parallel up to 1e-17: Wbar (I2 kron 1) = [[1, 0], [1, 1e-17]]
        # stays invertible, but the rank rule counts one row
        wbar = np.zeros((2, 6))
        wbar[:, :3] = 1 / 3
        wbar[1, 3] = 1e-17
        with pytest.raises(ValueError, match="full row rank 2"):
            decompose(model, wbar)

    def test_general_basis_must_be_finite(self):
        wbar = np.random.default_rng(4).standard_normal((2, 6))
        wbar[1, 2] = np.nan
        with pytest.raises(ValueError):
            decompose(model_for(3), wbar)

    def test_ill_conditioned_general_basis_raises_numerical_error(self):
        # a valid but ill-conditioned Gaussian basis: the transform pair
        # misses T Tinv = I by 9e-10, past the 1e-10 identity tolerance
        wbar = np.random.default_rng(244).standard_normal((2, 18))
        with pytest.raises(NumericalError, match="T Tinv = I"):
            decompose(model_for(9), wbar)

    def test_weight_basis_is_special_case_of_general(self):
        model = model_for(4)
        q = np.array([0.4, 0.3, 0.2, 0.1])
        d_weight = decompose(model, q)
        d_general = decompose(model, np.kron(np.eye(2), q[None, :]))
        x = np.random.default_rng(3).standard_normal(8)
        xo_w, xb_w = project(x, d_weight)
        xo_g, xb_g = project(x, d_general)
        assert np.max(np.abs(xo_w - xo_g)) <= 1e-12
        assert np.max(np.abs(xb_w - xb_g)) <= 1e-12


class TestProjection:
    def test_common_mode_state_is_purely_unobservable(self):
        model = model_for(3)
        d = decompose(model, np.full(3, 1 / 3))
        r = np.array([4.2, -0.7])
        x = np.concatenate([np.full(3, r[0]), np.full(3, r[1])])
        xi_o, xi_obar = project(x, d)
        assert np.max(np.abs(xi_o)) <= 1e-15
        assert np.max(np.abs(xi_obar - r)) <= 1e-15

    def test_unobservable_part_is_weighted_mean(self):
        model = model_for(3)
        d = decompose(model, np.array([0.5, 0.25, 0.25]))
        x = np.array([1.0, 2.0, 4.0, 0.0, 0.0, 0.0])
        _, xi_obar = project(x, d)
        assert xi_obar[0] == pytest.approx(2.0)
        assert xi_obar[1] == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        model = model_for(5)
        d = decompose(model, random_weight(rng, 5))
        x = rng.standard_normal((7, 10))
        xi_o, xi_obar = project(x, d)
        back = reconstruct_state(xi_o, xi_obar, d)
        assert np.max(np.abs(back - x)) <= 1e-12

    def test_observable_part_is_basis_independent(self):
        # xi_o = (I2 kron V) x does not depend on the chosen weight
        rng = np.random.default_rng(5)
        model = model_for(4)
        x = rng.standard_normal(8)
        d1 = decompose(model, np.full(4, 0.25))
        d2 = decompose(model, random_weight(rng, 4))
        xo1, _ = project(x, d1)
        xo2, _ = project(x, d2)
        assert np.array_equal(xo1, xo2)


class TestExpandInput:
    def test_uniform_hand_value(self):
        model = model_for(3)
        d = decompose(model, np.full(3, 1 / 3))
        u = expand_input(np.array([1.0, 0.0]), 0.0, d)
        assert np.max(np.abs(u - [2 / 3, -1 / 3, -1 / 3])) <= 1e-15

    def test_collective_component_is_common(self):
        model = model_for(3)
        d = decompose(model, np.full(3, 1 / 3))
        u = expand_input(np.zeros(2), 2.5, d)
        assert np.array_equal(u, [2.5, 2.5, 2.5])

    @pytest.mark.parametrize("shape", [(3,), (50, 3)], ids=["step", "rows"])
    def test_steering_weight_leaves_its_clock_at_exactly_zero(self, shape):
        # q = e_N: the last row of Vplus is exact zeros, so with no
        # collective input u_N is exactly 0.0, one step or every row
        rng = np.random.default_rng(8)
        d = decompose(model_for(4), np.eye(4)[-1])
        omega_o = rng.standard_normal(shape)
        u = expand_input(omega_o, np.zeros(shape[:-1]), d)
        assert u.shape == shape[:-1] + (4,)
        assert np.all(u[..., -1] == 0.0)
        assert np.any(u[..., :-1] != 0.0)

    @pytest.mark.parametrize("omega_o, omega_obar", [(np.zeros(2), 0.0), (np.zeros((5, 3)), np.zeros(4))])
    def test_mismatched_shapes_are_refused(self, omega_o, omega_obar):
        d = decompose(model_for(4), np.full(4, 0.25))
        with pytest.raises(ValueError, match="omega_o must have shape"):
            expand_input(omega_o, omega_obar, d)

    def test_general_basis_refuses_expansion(self):
        model = model_for(3)
        d = decompose(model, np.random.default_rng(6).standard_normal((2, 6)))
        with pytest.raises(ValueError, match="weight basis"):
            expand_input(np.zeros(2), 0.0, d)

    def test_expansion_inverts_decomposed_input_maps(self):
        # pushing u = Vplus w_o + 1 w_obar through the physical input
        # matrices must reproduce (Bo w_o, B w_obar)
        rng = np.random.default_rng(7)
        model = model_for(4)
        d = decompose(model, random_weight(rng, 4))
        w_o = rng.standard_normal(3)
        w_obar = float(rng.standard_normal())
        u = expand_input(w_o, w_obar, d)
        # the physical input matrix seen in each part: T bigB
        Bu = d.T @ model.bigB
        assert np.max(np.abs(Bu[:-2] @ u - d.Bo @ w_o)) <= 1e-12
        assert np.max(np.abs(Bu[-2:] @ u - d.B * w_obar)) <= 1e-12


class TestStructuralProperties:
    def test_pair_observable_part_is_observable(self):
        model = model_for(4)
        d = decompose(model, np.full(4, 0.25))
        n = d.Ao.shape[0]
        rows = [d.Co @ np.linalg.matrix_power(d.Ao, k) for k in range(n)]
        assert np.linalg.matrix_rank(np.vstack(rows)) == n

    def test_full_system_misses_exactly_two_directions(self):
        model = model_for(4)
        n = 8
        rows = [model.bigC @ np.linalg.matrix_power(model.bigA, k) for k in range(n)]
        assert np.linalg.matrix_rank(np.vstack(rows)) == n - 2

    def test_unobservable_coordinate_free_runs_like_one_clock(self):
        # with zero input, xi_obar evolves by the single-clock A alone
        model = model_for(3)
        d = decompose(model, np.array([0.2, 0.3, 0.5]))
        rec = simulate(model, None, 50, seed=21)
        _, xi_obar = project(rec.x, d)
        v_obar = rec.x[1:] - rec.x[:-1] @ model.bigA.T  # realized process noise
        for k in range(50):
            pred = d.A @ xi_obar[k] + d.T[-2:] @ v_obar[k]
            assert np.max(np.abs(xi_obar[k + 1] - pred)) <= 1e-12 * max(
                1.0, np.max(np.abs(xi_obar[: k + 2]))
            )


# ---------------------------------------------------------------------------
# properties over ensemble sizes and weights


IDENTITY_TOL = 1e-10  # the identity tolerance decompose itself enforces


def property_model(n):
    """n clocks with the bundled noise repeated every ten clocks."""
    params = [demo_noise_params()[i % 10] for i in range(n)]
    return build_ensemble(params, star_measurement(n), np.diag(np.full(n - 1, 1e-29)), 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_property_weight_basis_identities(n, seed):
    model = property_model(n)
    q = np.random.default_rng(seed).dirichlet(np.ones(n))
    d = decompose(model, q)
    assert np.max(np.abs(d.T @ d.Tinv - np.eye(2 * n))) <= IDENTITY_TOL
    assert np.max(np.abs(d.V @ d.Vplus - np.eye(n - 1))) <= IDENTITY_TOL
    assert np.max(np.abs(q @ d.Vplus)) <= IDENTITY_TOL
    assert np.all(d.coupling == 0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_property_general_basis_round_trip(n, seed):
    model = property_model(n)
    rng = np.random.default_rng(seed)
    try:
        d = decompose(model, rng.standard_normal((2, 2 * n)))
    except (ValueError, NumericalError):
        assume(False)
    x = rng.standard_normal((3, 2 * n))
    back = reconstruct_state(*project(x, d), d)
    assert np.max(np.abs(back - x)) <= IDENTITY_TOL * np.max(np.abs(x))


class TestRoundTripRule:
    """``decompose`` refuses a basis whose round trip
    ``reconstruct_state(*project(x, d), d)`` it cannot keep within
    1e-10 max|x|, and accepts every named weight and criterion 2's bases."""

    def test_refuses_a_drawn_basis_whose_round_trip_missed(self):
        # drawn by test_property_general_basis_round_trip: max|T Tinv - I| is
        # 9.8e-11, but max|Tinv T - I| is 1.1e-10 and cond(T) 4.2e6, and the
        # round trip missed x by 1.39e-10 max|x|
        rng = np.random.default_rng(297662)
        wbar = rng.standard_normal((2, 16))
        with pytest.raises(NumericalError, match=r"^transform pair cannot keep the round trip"):
            decompose(property_model(8), wbar)

    @staticmethod
    def _assert_round_trip(model, basis, seed):
        d = decompose(model, basis)
        x = np.random.default_rng(seed).standard_normal((5, 2 * model.N))
        back = reconstruct_state(*project(x, d), d)
        assert np.max(np.abs(back - x)) <= IDENTITY_TOL * np.max(np.abs(x))

    @pytest.mark.parametrize("n_clocks", [2, 3, 10])
    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    def test_named_weights_pass(self, name, n_clocks):
        model = demo_ensemble(n_clocks=n_clocks)
        self._assert_round_trip(model, _WEIGHTS[name][0](model), n_clocks)

    def test_criterion_2_bases_pass(self):
        # the bases of test_acceptance.TestCriterion02, drawn the same way
        model = demo_ensemble(n_clocks=3)
        bases = [np.full(3, 1.0 / 3), np.array([0.5, 0.3, 0.2]), np.array([0.0, 0.0, 1.0])]
        rng = np.random.default_rng(99)
        ones_col = np.kron(np.eye(2), np.ones((3, 1)))
        while len(bases) < 5:
            Wq, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            if abs(np.linalg.det(Wq.T @ ones_col)) >= 0.5:
                bases.append(Wq.T.copy())
        for seed, basis in enumerate(bases):
            self._assert_round_trip(model, basis, seed)
