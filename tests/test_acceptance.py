"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the
measured numbers before asserting, so the run log reads as a ten-line
scorecard.  Two criteria are expected to fail as stated; the analysis
lives with the criterion message and in the project notes:

* criterion 3 pins gain convergence at T = 1e4, but the slowest
  observable mode needs ~1.5e5 steps, and the full-state filter's gain
  increment then floors near 1e-9 (growing with k) instead of 1e-12
  because the diverging unobservable covariance block contaminates the
  gain solve through catastrophic cancellation;
* criterion 9 asks every steered clock to sit within 2x of the
  destination's Allan variance at intervals {1, 10}, but a causal
  controller cannot remove a clock's own fresh white-FM noise, so each
  clock floors at its free-run level, 4.7x to 29x above the line for
  the bundled ensemble.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm

from eemsync import (
    ControllerConfig,
    NoiseParams,
    allan_pi,
    allan_plot,
    analytical_allan_clock,
    build_ensemble,
    closed_loop,
    decompose,
    default_collective_gain,
    default_obs_gain,
    demo_ensemble,
    discretize,
    optimal_weight,
    simulate,
    solve_stationary,
    star_measurement,
    sync_error,
    weight_long,
    weight_short,
)
from eemsync.filters import _gain_solve, _sym, filter_pass
from eemsync.scenarios import _averaged_model, _trend_statistics
from oracles import unobservable_gain_from_observable

pytestmark = pytest.mark.acceptance


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def model():
    return demo_ensemble()


@pytest.fixture(scope="module")
def uniform_solution(model):
    d = decompose(model, np.full(10, 0.1))
    return d, solve_stationary(d, model.meas.R)


@pytest.fixture(scope="module")
def free_run_million(model):
    return simulate(model, None, 1_000_000, seed=701)


def quadrature_nodes(tau: float) -> list:
    """The 8-node Gauss-Legendre weights on [0, tau], each with e^{F s} at
    its node: they depend on tau alone."""
    F = np.array([[0.0, 1.0], [0.0, 0.0]])
    nodes, weights = leggauss(8)
    return [(w, expm(F * (0.5 * tau * (x + 1.0)))) for x, w in zip(nodes, weights)]


def quadrature_covariance(sigma1: float, sigma2: float, tau: float, nodes: list) -> np.ndarray:
    """Independent oracle: integrate e^{Fs} diag(s1^2, s2^2) e^{F's} ds
    over [0, tau] on :func:`quadrature_nodes` of tau.

    The integrand is polynomial of degree 2 in s, so 8-node
    Gauss-Legendre is exact up to roundoff.
    """
    D = np.diag([sigma1**2, sigma2**2])
    total = np.zeros((2, 2))
    for w, E in nodes:
        total += w * (E @ D @ E.T)
    return 0.5 * tau * total


class TestCriterion01:
    def test_discretization_matches_quadrature(self):
        started = time.perf_counter()
        sigma1_grid = np.logspace(-12, 0, 5)
        sigma2_grid = np.logspace(-15, -1, 5)
        tau_grid = np.logspace(-2, 3, 5)
        # 40 matrix exponentials, not one per node of each of the 125 triples
        nodes = [quadrature_nodes(tau) for tau in tau_grid]
        worst = 0.0
        for a in sigma1_grid:
            for b in sigma2_grid:
                for tau, tau_nodes in zip(tau_grid, nodes):
                    step = discretize(NoiseParams(a, b), tau)
                    ref = quadrature_covariance(a, b, tau, tau_nodes)
                    worst = max(
                        worst,
                        np.linalg.norm(step.Q - ref) / np.linalg.norm(ref),
                    )
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-9 and elapsed < 1.0
        report(1, ok, f"5x5x5 grid worst rel error {worst:.2e}, {elapsed:.2f} s")
        assert worst <= 1e-9
        assert elapsed < 1.0


class TestCriterion02:
    def test_decomposed_filter_reproduces_standard_estimates(self):
        started = time.perf_counter()
        model3 = demo_ensemble(n_clocks=3)
        T = 10_000
        rec = simulate(model3, None, T, seed=303)

        bases = [
            np.full(3, 1.0 / 3),
            np.array([0.5, 0.3, 0.2]),
            np.array([0.0, 0.0, 1.0]),
        ]
        # general bases: orthonormal rows, rejection-sampled so that
        # Wbar (I2 kron 1) stays well conditioned
        rng = np.random.default_rng(99)
        ones_col = np.kron(np.eye(2), np.ones((3, 1)))
        while len(bases) < 5:
            Wq, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            Wbar = Wq.T.copy()
            if abs(np.linalg.det(Wbar @ ones_col)) >= 0.5:
                bases.append(Wbar)

        # the shipped pass: its deviation row k is |reconstructed
        # determinate posterior - standard posterior| / |standard posterior|
        worst = 0.0
        for basis in bases:
            deviation = filter_pass(model3, rec.y, d=decompose(model3, basis)).deviation
            worst = max(worst, float(deviation.max()))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-8 and elapsed < 10.0
        report(
            2,
            ok,
            f"5 bases, max rel deviation {worst:.2e} over T=1e4, {elapsed:.1f} s",
        )
        assert worst <= 1e-8
        assert elapsed < 10.0


class TestCriterion03:
    def test_gain_covariance_dichotomy_at_stated_horizon(self, model):
        started = time.perf_counter()
        bigA, bigC, bigQ, R = model.bigA, model.bigC, model.bigQ, model.meas.R
        d = decompose(model, np.full(10, 0.1))

        P = bigQ.copy()
        Poo = d.Qo.copy()
        Pbo = d.Qbo.copy()
        prev = {}
        at_stated = {}
        at_converged = {}
        for k in range(1, 150_001):
            CP = bigC @ P
            S = CP @ bigC.T + R
            H = _gain_solve(np.hstack([CP, S]), CP, S).T
            P_new = _sym(bigA @ _sym(P - H @ CP) @ bigA.T + bigQ)

            CPo = d.Co @ Poo
            So = CPo @ d.Co.T + R
            CPbo = d.Co @ Pbo.T
            Ho = _gain_solve(np.hstack([CPo, So]), CPo, So).T
            Hbo = _gain_solve(np.hstack([CPbo, So]), CPbo, So).T
            Poo_new = _sym(d.Ao @ _sym(Poo - Ho @ CPo) @ d.Ao.T + d.Qo)
            Pbo_new = d.A @ (Pbo - Hbo @ CPo) @ d.Ao.T + d.Qbo

            if k in (10_000, 150_000):
                snap = {
                    "std_gain": np.linalg.norm(H - prev["H"]) / np.linalg.norm(H),
                    "std_prior": np.linalg.norm(P - prev["P"]) / np.linalg.norm(P),
                    "det_obs": np.linalg.norm(Ho - prev["Ho"]) / np.linalg.norm(Ho),
                    "det_cross": np.linalg.norm(Hbo - prev["Hbo"])
                    / np.linalg.norm(Hbo),
                }
                (at_stated if k == 10_000 else at_converged).update(snap)
            prev = {"H": H, "P": P, "Ho": Ho, "Hbo": Hbo}
            P, Poo, Pbo = P_new, Poo_new, Pbo_new
        elapsed = time.perf_counter() - started

        # the prior-covariance increment must stay large relative to the
        # 1e-12 gain scale; that half of the dichotomy holds at T=1e4
        ok_prior = at_stated["std_prior"] >= 1e3 * 1e-12
        ok_std_gain = at_stated["std_gain"] <= 1e-12
        ok_det = max(at_stated["det_obs"], at_stated["det_cross"]) <= 1e-12
        ok = ok_prior and ok_std_gain and ok_det and elapsed < 30.0
        report(
            3,
            ok,
            "at T=1e4: std gain rel inc "
            f"{at_stated['std_gain']:.2e} (need <=1e-12), std prior rel inc "
            f"{at_stated['std_prior']:.2e} (need >=1e-9), det obs/cross "
            f"{at_stated['det_obs']:.2e}/{at_stated['det_cross']:.2e} "
            f"(need <=1e-12); context at T=1.5e5: det "
            f"{at_converged['det_obs']:.2e}/{at_converged['det_cross']:.2e}, "
            f"std gain floors at {at_converged['std_gain']:.2e}; {elapsed:.1f} s",
        )
        assert elapsed < 30.0
        assert ok_prior, "prior covariance increment fell below the gain scale"
        # expected failure: the slowest observable mode of this ensemble
        # needs ~1.5e5 steps to push gain increments to 1e-12, and the
        # full-state gain then sits on a roundoff floor that grows with
        # k instead of converging (see the module docstring)
        assert ok_std_gain, (
            f"standard gain rel increment {at_stated['std_gain']:.2e} > 1e-12 "
            f"at T=1e4 (floor {at_converged['std_gain']:.2e} even at T=1.5e5)"
        )
        assert ok_det, (
            f"determinate increments {at_stated['det_obs']:.2e}/"
            f"{at_stated['det_cross']:.2e} > 1e-12 at T=1e4 (they reach "
            f"{at_converged['det_cross']:.2e} by T=1.5e5)"
        )


class TestCriterion04:
    def test_stationary_fixed_point_residuals(self, model, uniform_solution):
        d, g = uniform_solution
        P, Pbo = g.P_oo_star, g.P_bo_star
        S = d.Co @ P @ d.Co.T + model.meas.R
        H = np.linalg.solve(S, d.Co @ P).T
        Z = d.Ao @ (np.eye(18) - H @ d.Co)
        dare = d.Ao @ (P - H @ d.Co @ P) @ d.Ao.T + d.Qo
        res_oo = np.linalg.norm(P - dare) / np.linalg.norm(P)
        cross = d.A @ Pbo @ Z.T + d.Qbo
        res_bo = np.linalg.norm(Pbo - cross) / np.linalg.norm(Pbo)
        rho = float(np.max(np.abs(np.linalg.eigvals(Z))))
        ok = res_oo <= 1e-10 and res_bo <= 1e-10 and rho < 1.0
        report(
            4,
            ok,
            f"residuals {res_oo:.2e} / {res_bo:.2e}, closed-loop rho {rho:.6f}",
        )
        assert res_oo <= 1e-10
        assert res_bo <= 1e-10
        assert rho < 1.0


class TestCriterion05:
    def test_long_term_weight_kills_cross_gain(self, model):
        s1 = model.sigma1_sq
        s2 = model.sigma2_sq
        q_inf = weight_long(s2)
        d_inf = decompose(model, q_inf)
        g_inf = solve_stationary(d_inf, model.meas.R)
        ratio_inf = np.linalg.norm(g_inf.H_bo_star) / np.linalg.norm(g_inf.H_o_star)

        # covariance offset: phase row, frequency columns only
        p = q_inf @ np.diag(s1) @ d_inf.V.T
        formula = np.zeros((2, 18))
        formula[0, 9:] = -p
        scale = np.max(np.abs(p))
        mask = formula != 0.0
        dev_nonzero = np.max(
            np.abs(g_inf.P_bo_star[mask] - formula[mask]) / np.abs(formula[mask])
        )
        dev_zero = np.max(np.abs(g_inf.P_bo_star[~mask])) / scale

        rng = np.random.default_rng(505)
        min_ratio = np.inf
        worst_transport = 0.0
        for _ in range(10):
            q = rng.dirichlet(np.ones(10))
            d_q = decompose(model, q)
            g_q = solve_stationary(d_q, model.meas.R)
            min_ratio = min(
                min_ratio,
                np.linalg.norm(g_q.H_bo_star) / np.linalg.norm(g_q.H_o_star),
            )
            transported = unobservable_gain_from_observable(d_q, g_q.H_o_star, s2)
            worst_transport = max(
                worst_transport,
                np.linalg.norm(g_q.H_bo_star - transported)
                / np.linalg.norm(g_q.H_bo_star),
            )
        ok = (
            ratio_inf <= 1e-10
            and dev_nonzero <= 1e-10
            and dev_zero <= 1e-10
            and min_ratio >= 1e-3
            and worst_transport <= 1e-10
        )
        report(
            5,
            ok,
            f"q_inf gain ratio {ratio_inf:.2e}, covariance dev "
            f"{dev_nonzero:.2e}/{dev_zero:.2e}, 10 random q: min gain ratio "
            f"{min_ratio:.2e}, worst transport dev {worst_transport:.2e}",
        )
        assert ratio_inf <= 1e-10
        assert dev_nonzero <= 1e-10
        assert dev_zero <= 1e-10
        assert min_ratio >= 1e-3
        assert worst_transport <= 1e-10


class TestCriterion06:
    def test_optimal_weight_minimizes_allan(self, model):
        s1 = model.sigma1_sq
        s2 = model.sigma2_sq
        rng = np.random.default_rng(606)
        center = np.eye(10) - np.full((10, 10), 0.1)
        worst_excess = -np.inf
        for tau in (1.0, 1e3, 1e6):
            q_a = optimal_weight(s1, s2, tau)
            pi_a = allan_pi(q_a, s1, s2, tau)
            for _ in range(1000):
                q_prime = q_a + center @ rng.normal(scale=0.1, size=10)
                excess = pi_a / allan_pi(q_prime, s1, s2, tau) - 1.0
                worst_excess = max(worst_excess, excess)
        dev_short = np.linalg.norm(optimal_weight(s1, s2, 1e-6) - weight_short(s1))
        dev_long = np.linalg.norm(optimal_weight(s1, s2, 1e9) - weight_long(s2))
        ok = worst_excess <= 1e-12 and dev_short <= 1e-4 and dev_long <= 1e-4
        report(
            6,
            ok,
            f"3000 perturbations, worst ratio excess {worst_excess:.2e}; "
            f"limit deviations {dev_short:.2e} / {dev_long:.2e}",
        )
        assert worst_excess <= 1e-12
        assert dev_short <= 1e-4
        assert dev_long <= 1e-4


class TestCriterion07:
    def test_allan_estimator_fidelity(self, model, free_run_million):
        started = time.perf_counter()
        rec = free_run_million
        worst = 0.0
        for i in range(10):
            for m in (1, 10, 100):
                est = allan_plot(rec.h[:, i], 1.0, [m]).values[0]
                ref = analytical_allan_clock(model.sigma1_sq, model.sigma2_sq, float(m))[i]
                worst = max(worst, abs(est / ref - 1.0))

        slopes = {}
        for name, (a, b) in {"white": (1e-10, 0.0), "rwfm": (0.0, 1e-13)}.items():
            params = [NoiseParams(a, b)] * 2
            mdl = build_ensemble(params, star_measurement(2), np.eye(1) * 1e-30, 1.0)
            h = simulate(mdl, None, 1_000_000, seed=702).h[:, 0]
            ms = np.array([1, 3, 10, 30, 100])
            vals = [allan_plot(h, 1.0, [int(m)]).values[0] for m in ms]
            slopes[name] = np.polyfit(np.log10(ms), np.log10(vals), 1)[0]
        elapsed = time.perf_counter() - started
        ok = (
            worst <= 0.2
            and abs(slopes["white"] + 1.0) <= 0.1
            and abs(slopes["rwfm"] - 1.0) <= 0.1
            and elapsed < 120.0
        )
        report(
            7,
            ok,
            f"10 clocks x {{1,10,100}} worst band error {worst:.1%}; slopes "
            f"{slopes['white']:+.3f} / {slopes['rwfm']:+.3f}; {elapsed:.1f} s",
        )
        assert worst <= 0.2
        assert abs(slopes["white"] + 1.0) <= 0.1
        assert abs(slopes["rwfm"] - 1.0) <= 0.1
        assert elapsed < 120.0


class TestCriterion08:
    def test_synchronization_and_bit_exact_steering(self, model, uniform_solution):
        d, g = uniform_solution
        q = np.full(10, 0.1)
        T = 100_000
        cfg = ControllerConfig(
            F_o=default_obs_gain(10, 1.0), K_bo=None, m=1
        )
        traj, _, _, (dest,) = closed_loop(model, cfg, d, g, T, 808, weights=[q])
        # one scalar series for the whole measured sync error: the squared
        # norm of the relative phase deviations, so the 95% trend test is
        # a single comparison rather than nine
        sq = np.sum((sync_error(traj.x, dest)[:, :10] @ model.meas.V.T) ** 2, axis=1)
        stats = _trend_statistics(sq)

        # F_o = 0 feeds nothing back: the loop is the free run
        traj0 = simulate(model, None, T, 808)
        sq0 = np.sum((sync_error(traj0.x, dest)[:, :10] @ model.meas.V.T) ** 2, axis=1)
        stats0 = _trend_statistics(sq0)
        mag_ctrl = float(np.mean(sq[T // 2 :]))
        mag_free_first = float(np.mean(sq0[: T // 2]))
        mag_free_final = float(np.mean(sq0[T // 2 :]))
        grows = (
            not stats0["trend_free"]
            and stats0["slope"] > 0.0
            and mag_free_final > 10.0 * mag_free_first
        )
        separated = mag_free_final > 1e3 * mag_ctrl

        q_steer = np.zeros(10)
        q_steer[-1] = 1.0
        d_s = decompose(model, q_steer)
        g_s = solve_stationary(d_s, model.meas.R)
        cfg_s = ControllerConfig(
            F_o=default_obs_gain(10, 1.0), K_bo=None, m=1
        )
        traj_s, *_ = closed_loop(model, cfg_s, d_s, g_s, T, 809)
        untouched = bool(np.all(traj_s.u[:, -1] == 0.0))

        ok = stats["trend_free"] and grows and separated and untouched
        report(
            8,
            ok,
            f"sync slope {stats['slope']:.1e} (CI {stats['slope_ci_half_width']:.1e}), "
            f"F_o=0 error power x{mag_free_final / mag_free_first:.0f} first-to-final "
            f"half, x{mag_free_final / mag_ctrl:.0f} over controlled; steering input "
            f"bit-exact zero: {untouched}",
        )
        assert stats["trend_free"]
        assert grows
        assert separated
        assert untouched


BALANCED_PERIOD = 200


@pytest.fixture(scope="module")
def balanced_run(model):
    """Balanced-mode closed loop at T = 1e6, shared by both criterion-9 tests,
    with its long-term destination taken from the loop's own noise.

    It runs ``closed_loop``, the path every controller scenario ships;
    test_control checks it against ``simulate`` + ``EemPolicy``.
    """
    started = time.perf_counter()
    q0 = weight_short(model.sigma1_sq)
    q_inf = weight_long(model.sigma2_sq)
    d = decompose(model, q0)
    g = solve_stationary(d, model.meas.R)
    cfg = ControllerConfig(
        F_o=default_obs_gain(10, 1.0),
        K_bo=default_collective_gain(BALANCED_PERIOD, 1.0),
        m=BALANCED_PERIOD,
    )
    traj, _, _, (dest_inf,) = closed_loop(model, cfg, d, g, 1_000_000, 901, weights=[q_inf])
    return traj, dest_inf, time.perf_counter() - started


class TestCriterion09:
    def test_balanced_controller_at_desk_scale(self, model, balanced_run):
        traj, dest_inf, sim_elapsed = balanced_run
        started = time.perf_counter()
        N, m_period = 10, BALANCED_PERIOD
        s1 = model.sigma1_sq
        s2 = model.sigma2_sq
        q0 = weight_short(s1)
        q_inf = weight_long(s2)

        short_ratios = {}
        for m in (1, 10):
            ref = allan_pi(q0, s1, s2, float(m))
            short_ratios[m] = max(
                allan_plot(traj.h[:, i], 1.0, [m]).values[0] / ref for i in range(N)
            )
        ref_inf = allan_pi(q_inf, s1, s2, 1e4)
        long_ratio = max(
            allan_plot(traj.h[:, i], 1.0, [10_000]).values[0] / ref_inf for i in range(N)
        )
        sampled = sync_error(traj.x, dest_inf)[::m_period, :N] @ q_inf
        stats = _trend_statistics(sampled)
        elapsed = sim_elapsed + time.perf_counter() - started

        ok_short = max(short_ratios.values()) <= 2.0
        ok_long = long_ratio <= 2.0
        ok = ok_short and ok_long and stats["trend_free"] and elapsed < 600.0
        floor = s1 * np.sum(1.0 / s1)
        report(
            9,
            ok,
            f"worst clock/destination Allan ratio {short_ratios[1]:.1f} at 1 s and "
            f"{short_ratios[10]:.1f} at 10 s (need <=2); {long_ratio:.2f} vs "
            f"long-term destination at 1e4 s; sampled-mean trend-free: "
            f"{stats['trend_free']}; {elapsed:.0f} s. White-FM floor predicts "
            f"ratios {floor.min():.1f}-{floor.max():.1f} at 1 s",
        )
        assert ok_long
        assert stats["trend_free"]
        assert elapsed < 600.0
        # expected failure: a causal controller cannot cancel the fresh
        # white-FM phase noise a clock accrues within one step, so each
        # steered clock floors at its own free-run Allan level at short
        # intervals (see the module docstring)
        assert ok_short, (
            f"controlled-clock Allan sits {short_ratios[1]:.1f}x / "
            f"{short_ratios[10]:.1f}x above the destination at intervals "
            f"{{1, 10}}; the information floor alone predicts "
            f"{floor.min():.1f}x-{floor.max():.1f}x"
        )

    def test_ensemble_mean_meets_destination_bands(self, model, balanced_run):
        # context for the expected failure above: the weighted ensemble
        # mean, which is what the balanced loop actually shapes, does sit
        # within 2x of both destination lines
        traj, _, _ = balanced_run
        s1 = model.sigma1_sq
        s2 = model.sigma2_sq
        q0 = weight_short(s1)
        q_inf = weight_long(s2)
        mean_series = traj.h @ q0
        ratios = {
            m: allan_plot(mean_series, 1.0, [m]).values[0] / allan_pi(q0, s1, s2, float(m))
            for m in (1, 10)
        }
        ratios[10_000] = allan_plot(mean_series, 1.0, [10_000]).values[0] / allan_pi(
            q_inf, s1, s2, 1e4
        )
        ok = max(ratios.values()) <= 2.0
        print(
            f"[criterion 9 context] {'PASS' if ok else 'FAIL'} — weighted-mean "
            f"Allan ratios: {ratios[1]:.2f} / {ratios[10]:.2f} vs short-term "
            f"destination at {{1, 10}} s, {ratios[10_000]:.2f} vs long-term "
            f"destination at 1e4 s (all need <=2)"
        )
        assert max(ratios.values()) <= 2.0


class TestCriterion10:
    def test_reference_timescale_ordering(self, model, free_run_million):
        started = time.perf_counter()
        rec = free_run_million

        eps_opt = filter_pass(model, rec.y, x=rec.x).eps
        eps_sub = filter_pass(_averaged_model(model), rec.y, x=rec.x).eps

        ms = np.unique(np.round(np.logspace(0, 3, 25)).astype(int))
        worst = 0.0
        for m in ms:
            est = allan_plot(eps_opt, 1.0, [int(m)]).values[0]
            best_clock = analytical_allan_clock(model.sigma1_sq, model.sigma2_sq, float(m)).min()
            worst = max(worst, est / best_clock)
        at1_opt = allan_plot(eps_opt, 1.0, [1]).values[0]
        at1_sub = allan_plot(eps_sub, 1.0, [1]).values[0]
        elapsed = time.perf_counter() - started
        ok = worst < 1.0 and at1_sub < at1_opt
        report(
            10,
            ok,
            f"time-scale Allan <= {worst:.2f}x the best clock line over [1, 1e3]; "
            f"averaged-Q run at 1 s: {at1_sub / at1_opt:.2f}x the optimal run; "
            f"{elapsed:.0f} s",
        )
        assert worst < 1.0
        assert at1_sub < at1_opt
