"""Scenario validation and pipeline tests at desk scale.

Horizons here are deliberately tiny; the statistical claims behind each
scenario kind get their full-length treatment in the acceptance suite.
"""

import copy
import dataclasses
import hashlib
import inspect
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eemsync import (
    ConfigError,
    ConvergenceError,
    KINDS,
    NoiseParams,
    NumericalError,
    build_ensemble,
    check_collective_gain,
    check_obs_gain,
    closed_loop,
    decompose,
    destination_trajectory,
    filter_pass,
    run_scenario,
    simulate,
    solve_stationary,
    star_measurement,
    sync_error,
    validate_config,
    weight_long,
    weight_short,
)
from eemsync import scenarios as scen
from eemsync.cli import _bundled_dir, _bundled_names
from test_allan import reference_statistical_allan


def raw_config(kind="free-run", **over):
    cfg = {
        "name": over.pop("name", "case"),
        "kind": kind,
        "model": {
            "n_clocks": 3,
            "tau": 1.0,
            "sigma1": [1.700e-10, 0.886e-10, 1.221e-10],
            "sigma2": [1.507e-13, 0.532e-13, 0.167e-13],
            "meas_std": [0.4353e-14, 0.0759e-14],
        },
        # the balanced kind's shortest horizon at its default period 200
        "horizon": 800 if kind == "balanced" else 400,
        "seed": 42,
    }
    cfg.update(over)
    return cfg


# kind: (default weight name, controller mode, default outputs,
#        opt-in outputs, a selector that only other kinds write)
KIND_DEFAULTS = {
    "free-run": (None, None, ("allan", "analytical", "summary"), ("trajectory",), "gains"),
    "standard-kf": (
        None, None, ("allan", "increments", "gains", "summary"), ("trajectory",), "commands",
    ),
    "standard-kf-suboptimal": (None, None, ("allan", "summary"), (), "increments"),
    "determinate-kf": ("uniform", None, ("equivalence", "increments", "summary"), (), "allan"),
    **{
        kind: (
            weight,
            mode,
            ("allan", "commands", "delta", "gains", "summary"),
            ("trajectory",),
            "equivalence",
        )
        for kind, weight, mode in (
            ("steer-to-clock", "last-clock", "sync-only"),
            ("sync-simple-average", "uniform", "sync-only"),
            ("sync-best-short", "short", "sync-only"),
            ("sync-best-long", "long", "sync-only"),
            ("balanced", "short", "balanced"),
        )
    },
}


def named_weight(name, model):
    if name == "uniform":
        return np.full(model.N, 1.0 / model.N)
    if name == "short":
        return weight_short(model.sigma1_sq)
    if name == "long":
        return weight_long(model.sigma2_sq)
    assert name == "last-clock"
    return np.eye(model.N)[-1]


class TestValidateConfig:
    def test_bundled_configs_cover_every_kind(self):
        kinds = set()
        for path in sorted(_bundled_dir().iterdir()):
            if path.name.endswith(".json"):
                cfg = validate_config(json.loads(path.read_text()))
                assert cfg.name == path.name[: -len(".json")]
                kinds.add(cfg.kind)
        assert kinds == set(KINDS)

    def test_missing_sigma_list_is_named(self):
        raw = raw_config()
        del raw["model"]["sigma2"]
        with pytest.raises(ConfigError, match="sigma2"):
            validate_config(raw)

    def test_weight_normalization_enforced(self):
        raw = raw_config("determinate-kf")
        raw["controller"] = {"weight": [0.5, 0.3, 0.1]}
        with pytest.raises(ConfigError, match="sum to 1"):
            validate_config(raw)

    def test_problems_are_aggregated(self):
        raw = raw_config(horizon=3, seed=-1)
        raw["model"]["meas_std"] = [1e-15]
        with pytest.raises(ConfigError) as excinfo:
            validate_config(raw)
        message = str(excinfo.value)
        assert len(excinfo.value.problems) >= 3
        assert "horizon" in message
        assert "seed" in message
        assert "meas_std" in message

    def test_pinned_weight_rejected(self):
        raw = raw_config("steer-to-clock")
        raw["controller"] = {"weight": "uniform"}
        with pytest.raises(ConfigError, match="pins the weight"):
            validate_config(raw)

    def test_unknown_fields_rejected(self):
        raw = raw_config("balanced", commentary="hello")
        raw["controller"] = {"bogus": 1}
        with pytest.raises(ConfigError) as excinfo:
            validate_config(raw)
        message = str(excinfo.value)
        assert "commentary" in message
        assert "controller.bogus" in message

    def test_outputs_selectors_checked(self):
        raw = raw_config(outputs=["allan", "gains"])
        with pytest.raises(ConfigError, match="'gains' is not available"):
            validate_config(raw)

    def test_unknown_kind_fails_fast(self):
        with pytest.raises(ConfigError, match="free-run"):
            validate_config(raw_config("bogus"))

    def test_kind_defaults_fill_controller(self):
        cfg = validate_config(raw_config("balanced"))
        assert cfg.controller is not None
        assert cfg.controller.K_bo is not None
        assert cfg.controller.m == 200
        assert check_obs_gain(cfg.controller.F_o, 3, 1.0) < 1.0
        assert check_collective_gain(cfg.controller.K_bo, 200, 1.0) < 1.0
        s1 = np.asarray(raw_config()["model"]["sigma1"]) ** 2
        np.testing.assert_allclose(cfg.weight, weight_short(s1), rtol=1e-12)

        cfg_long = validate_config(raw_config("sync-best-long"))
        s2 = np.asarray(raw_config()["model"]["sigma2"]) ** 2
        np.testing.assert_allclose(cfg_long.weight, weight_long(s2), rtol=1e-12)
        assert cfg_long.controller.K_bo is None

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("model", "n_clocks", True),
            ("model", "tau", True),
            ("model", "sigma1", [True, 0.886e-10, 1.221e-10]),
            ("model", "sigma2", [1.507e-13, True, 0.167e-13]),
            ("model", "meas_std", [True, 0.0759e-14]),
            (None, "horizon", True),
            (None, "seed", True),
            ("controller", "weight", [True, False, False]),
            ("controller", "obs_gain_coeffs", [True, 1.0]),
            ("controller", "collective_gain_coeffs", [0.01, True]),
            ("controller", "period", True),
            ("controller", "phase", False),
        ],
    )
    def test_boolean_rejected_where_number_expected(self, section, field, value):
        raw = raw_config("balanced")
        if section is None:
            raw[field] = value
        else:
            raw.setdefault(section, {})[field] = value
        with pytest.raises(ConfigError, match=field):
            validate_config(raw)

    def test_balanced_horizon_needs_three_kicks(self):
        raw = raw_config("balanced", horizon=300)
        raw["controller"] = {"period": 200}
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        message = "; ".join(info.value.problems)
        assert "horizon" in message and "controller.period" in message
        # phase 150 puts the kicks at 150, 350, ..., 950: five samples, the
        # last three in the fitted final half
        raw = raw_config("balanced", horizon=949)
        raw["controller"] = {"period": 200, "phase": 150}
        with pytest.raises(ConfigError, match="horizon"):
            validate_config(raw)
        raw["horizon"] = 950
        assert validate_config(raw).horizon == 950
        assert validate_config(raw_config("balanced")).horizon == 800

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("free-run", "weight", "uniform"),
            ("standard-kf", "obs_gain_coeffs", [0.1, 1.0]),
            ("determinate-kf", "period", 200),
            ("determinate-kf", "obs_gain_coeffs", [0.1, 1.0]),
            ("steer-to-clock", "collective_gain_coeffs", [0.01, 1.0]),
            ("sync-simple-average", "period", 200),
            ("sync-best-short", "phase", 0),
            ("sync-best-long", "period", 100),
        ],
    )
    def test_setting_the_kind_ignores_rejected(self, kind, key, value):
        with pytest.raises(ConfigError) as info:
            validate_config(raw_config(kind, controller={key: value}))
        assert len(info.value.problems) == 1
        assert info.value.problems[0].startswith(f"controller.{key}: not used by kind {kind!r}")

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("free-run", "sigma1"),
            ("determinate-kf", "sigma2"),
            ("sync-simple-average", "sigma1"),
            ("sync-best-short", "sigma2"),
            ("sync-best-long", "sigma1"),
        ],
    )
    def test_zero_variance_no_weight_needs_is_valid(self, kind, field):
        raw = raw_config(kind)
        raw["model"][field][1] = 0.0
        assert validate_config(raw).kind == kind

    def test_kinds_keep_their_order(self):
        assert list(KINDS) == list(KIND_DEFAULTS)

    @pytest.mark.parametrize("kind", list(KIND_DEFAULTS))
    def test_kind_defaults_and_selectors(self, kind):
        weight_name, mode, outputs, opt_in, foreign = KIND_DEFAULTS[kind]
        cfg = validate_config(raw_config(kind))
        if weight_name is None:
            assert cfg.weight is None
        else:
            assert np.array_equal(cfg.weight, named_weight(weight_name, cfg.model))
        assert KINDS[kind].mode == mode
        if cfg.controller is not None:
            assert (cfg.controller.K_bo is not None) == (mode == "balanced")
        assert cfg.outputs == outputs
        for sel in outputs + opt_in:
            assert validate_config(raw_config(kind, outputs=[sel])).outputs == (sel,)
        with pytest.raises(ConfigError, match=f"{foreign!r} is not available for kind {kind!r}"):
            validate_config(raw_config(kind, outputs=[foreign]))

    def test_json_string_rejected(self):
        # JSON is decoded once, by the CLI; a string root is not a config
        for raw in (json.dumps(raw_config()), json.dumps(raw_config()).encode(), [raw_config()]):
            with pytest.raises(ConfigError, match="config root must be an object"):
                validate_config(raw)


def test_layer_entry_points_stay_module_attributes():
    # every name perfbench/child.py wraps, calls or reads: a traced run
    # replaces these attributes, so deleting one breaks the benchmark
    from eemsync import control, simkit

    wrapped = {
        scen: (
            "simulate",
            "solve_stationary",
            "destination_trajectory",
            "allan_plot",
            "standard_kf_step",
            "determinate_kf_step",
            "reconstruct_state",
            "validate_config",
            "run_scenario",
        ),
        control: ("determinate_kf_step", "reconstruct_state"),
        control.EemPolicy: ("__call__",),
        simkit.NoiseSampler: ("process_block", "measurement_block"),
    }
    missing = [
        f"{owner.__name__}.{n}"
        for owner, names in wrapped.items()
        for n in names
        if not callable(getattr(owner, n, None))
    ]
    assert missing == []
    assert "jobs" in inspect.signature(scen.run_scenario).parameters
    model = build_ensemble([NoiseParams(1.0, 0.5)] * 2, star_measurement(2), np.eye(1), 1.0)
    rec = simulate(model, None, 4, seed=0)
    assert [a for a in ("T", "x", "h", "y", "u", "v", "xhat") if not hasattr(rec, a)] == []


class TestTrendStatistics:
    def test_flat_noise_is_trend_free(self):
        rng = np.random.default_rng(1)
        stats = scen._trend_statistics(rng.normal(size=4000))
        assert stats["trend_free"]
        assert stats["blocks"] == 50

    def test_ramp_is_detected(self):
        rng = np.random.default_rng(2)
        series = 0.05 * np.arange(4000.0) + rng.normal(size=4000)
        stats = scen._trend_statistics(series)
        assert not stats["trend_free"]
        assert stats["slope"] == pytest.approx(0.05, rel=0.05)


def expected_arrays(cfg):
    """Each ``.npy`` artifact of a scenario, rebuilt from the library calls."""
    model, T = cfg.model, cfg.horizon
    k = np.arange(T)
    arrays = {}
    if cfg.controller is not None:
        d = decompose(model, cfg.weight)
        gains = solve_stationary(d, model.meas.R)
        rec, omega_o, omega_obar, _ = closed_loop(model, cfg.controller, d, gains, T, cfg.seed)
        delta = sync_error(rec, destination_trajectory(model, cfg.weight, T, cfg.seed))
        rows = np.arange(0, T + 1, max(1, T // 10_000))
        arrays["commands.npy"] = np.column_stack([k, omega_o, omega_obar, rec.u])
        arrays["delta.npy"] = np.column_stack([rows, delta[rows]])
    else:
        rec = simulate(model, None, T, cfg.seed)
    if cfg.kind == "standard-kf":
        run = filter_pass(model, rec.y, x=rec.x, increments=True)
        arrays["increments.npy"] = np.column_stack([k, run.increments])
    if cfg.kind == "determinate-kf":
        run = filter_pass(model, rec.y, d=decompose(model, cfg.weight))
        increments = run.det_increments.copy()
        increments[0] = np.nan
        arrays["equivalence.npy"] = np.column_stack([k, run.deviation])
        arrays["increments.npy"] = np.column_stack([k, increments])
    if "trajectory" in cfg.outputs:
        arrays["trajectory.npy"] = np.column_stack([k, rec.h[:T], rec.u])
    return arrays


class TestRunScenario:
    def test_manifest_hashes_reproducible(self, tmp_path):
        raw = raw_config()
        m1 = run_scenario(validate_config(raw), str(tmp_path / "a"))
        m2 = run_scenario(validate_config(copy.deepcopy(raw)), str(tmp_path / "b"))
        assert m1["status"] == "ok"
        assert m1["files"] == m2["files"]
        assert {f["name"] for f in m1["files"]} >= {"allan_index.json", "summary.json"}
        assert set(m1["versions"]) == {"eemsync", "numpy", "scipy"}

        on_disk = json.loads((tmp_path / "a" / "case" / "manifest.json").read_text())
        assert on_disk == m1
        assert isinstance(m1["peak_rss_mb"], float) and m1["peak_rss_mb"] > 0.0

    def test_free_run_statistics_near_analytical(self, tmp_path):
        cfg = validate_config(raw_config(horizon=20_000))
        manifest = run_scenario(cfg, str(tmp_path))
        for entry in manifest["summary"]["clocks"].values():
            assert entry["allan_at_1s"] == pytest.approx(
                entry["analytical_at_1s"], rel=0.2
            )

    def test_free_run_allan_matches_reference_per_clock(self, tmp_path):
        # one allan_plot call on the whole record gives each clock exactly
        # the one-clock estimate, under the per-clock artifact names
        cfg = validate_config(raw_config(horizon=2_000))
        manifest = run_scenario(cfg, str(tmp_path))
        rec = simulate(cfg.model, None, cfg.horizon, cfg.seed)
        names = [f"clock_{i + 1}" for i in range(cfg.model.N)]
        for i, name in enumerate(names):
            expected = reference_statistical_allan(rec.h[:, i], cfg.model.tau, 1)
            assert manifest["summary"]["clocks"][name]["allan_at_1s"] == expected
        index = json.loads((tmp_path / "case" / "allan_index.json").read_text())
        assert index == {name: f"allan_{name}.csv" for name in names}
        reference = json.loads((tmp_path / "case" / "reference_index.json").read_text())
        assert sorted(reference) == [f"{name}_analytical" for name in names]

    def test_determinate_runner_equivalence(self, tmp_path):
        cfg = validate_config(raw_config("determinate-kf", horizon=300))
        manifest = run_scenario(cfg, str(tmp_path))
        assert manifest["summary"]["max_rel_deviation"] <= 1e-8

    def test_steered_clock_untouched(self, tmp_path):
        cfg = validate_config(raw_config("steer-to-clock", horizon=300))
        manifest = run_scenario(cfg, str(tmp_path))
        assert manifest["summary"]["steered_clock_max_abs_input"] == 0.0
        assert "trend_free" in manifest["summary"]["relative_phase_trend"]

    def test_balanced_counts_kicks(self, tmp_path):
        raw = raw_config("balanced", horizon=1000)
        raw["controller"] = {"period": 200}
        manifest = run_scenario(validate_config(raw), str(tmp_path))
        # kicks land on k = 0, 200, ..., 800; the k = 0 command is zero
        # because the observer starts from a zero estimate
        assert manifest["summary"]["collective_kicks"] == 4
        assert "sampled_mean_phase_trend" in manifest["summary"]

    def test_balanced_at_shortest_horizon_writes_strict_json(self, tmp_path):
        # horizon 800 with period 200 leaves the five kick samples 0, ..., 800
        run_scenario(validate_config(raw_config("balanced")), str(tmp_path))

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}")

        text = (tmp_path / "case" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert np.isfinite(summary["sampled_mean_phase_trend"]["slope"])

    @pytest.mark.parametrize("period, phase", [(200, 0), (200, 150), (50, 37)])
    def test_balanced_trend_has_three_blocks_at_shortest_horizon(self, tmp_path, period, phase):
        # the trend is fitted to the final half of the kick samples, so the
        # shortest horizon leaves three of them (one residual degree of
        # freedom); one step less leaves two and an exact fit
        need = phase % period + 4 * period
        raw = raw_config("balanced", horizon=need - 1)
        raw["controller"] = {"period": period, "phase": phase}
        with pytest.raises(ConfigError, match="horizon"):
            validate_config(raw)
        raw["horizon"] = need
        manifest = run_scenario(validate_config(raw), str(tmp_path))
        assert manifest["summary"]["sampled_mean_phase_trend"]["blocks"] >= 3

    def test_balanced_samples_the_mean_at_the_kicks(self, tmp_path):
        raw = raw_config("balanced", horizon=4000)
        raw["controller"] = {"period": 50, "phase": 37}
        cfg = validate_config(raw)
        manifest = run_scenario(cfg, str(tmp_path))
        model = cfg.model
        d = decompose(model, cfg.weight)
        gains = solve_stationary(d, model.meas.R)
        rec, *_ = closed_loop(model, cfg.controller, d, gains, cfg.horizon, cfg.seed)
        q_inf = weight_long(model.sigma2_sq)
        delta = sync_error(rec, destination_trajectory(model, q_inf, cfg.horizon, cfg.seed))
        kicks = [k for k in range(cfg.horizon + 1) if (k - 37) % 50 == 0]
        expected = scen._trend_statistics(delta[kicks, : model.N] @ q_inf)
        assert manifest["summary"]["sampled_mean_phase_trend"] == expected

    @pytest.mark.parametrize("kind", ["balanced", "sync-simple-average"])
    def test_controller_draws_process_noise_once(self, tmp_path, monkeypatch, kind):
        # the destinations reuse the closed loop's process noise
        from eemsync import simkit

        calls = []
        draw = simkit.NoiseSampler.process_block

        def counted(sampler, T):
            calls.append(T)
            return draw(sampler, T)

        monkeypatch.setattr(simkit.NoiseSampler, "process_block", counted)
        manifest = run_scenario(validate_config(raw_config(kind, horizon=800)), str(tmp_path))
        assert manifest["status"] == "ok"
        assert calls == [800]

    def test_controller_without_allan_output_skips_allan(self, tmp_path, monkeypatch):
        # the clock curves and their interval grid serve only the Allan files
        raw = json.loads((_bundled_dir() / "sync_simple_average.json").read_text())
        raw["horizon"] = 2_000
        calls = []
        plot = scen.allan_plot

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return plot(*args, **kwargs)

        monkeypatch.setattr(scen, "allan_plot", counted)
        run_scenario(validate_config(raw), str(tmp_path / "default"))
        assert len(calls) == 1
        calls.clear()
        raw["outputs"] = ["summary"]
        manifest = run_scenario(validate_config(raw), str(tmp_path / "summary"))
        assert calls == []
        out = tmp_path / "summary" / raw["name"]
        assert [f["name"] for f in manifest["files"]] == ["summary.json"]
        assert not [p.name for p in out.iterdir() if p.name.startswith(("allan_", "reference_"))]
        default_summary = tmp_path / "default" / raw["name"] / "summary.json"
        assert (out / "summary.json").read_bytes() == default_summary.read_bytes()

    @pytest.mark.parametrize("kind, selector", [("free-run", "analytical"), ("balanced", "allan")])
    def test_reference_plots_carry_the_measured_grid(self, tmp_path, monkeypatch, kind, selector):
        references = {}
        write = scen._Artifacts.write_allan

        def spy(art, plots, prefix):
            if prefix == "reference":
                references.update(plots)
            return write(art, plots, prefix)

        monkeypatch.setattr(scen._Artifacts, "write_allan", spy)
        raw = raw_config(kind, horizon=2_000, outputs=[selector])
        raw["model"]["tau"] = 0.5
        run_scenario(validate_config(raw), str(tmp_path))
        assert len(references) == (3 if kind == "free-run" else 2)
        for name, plot in references.items():
            assert plot.m_set.size > 13, name
            assert np.array_equal(plot.m_set * 0.5, plot.intervals), name

    def test_suboptimal_kind_runs(self, tmp_path):
        cfg = validate_config(raw_config("standard-kf-suboptimal", horizon=300))
        manifest = run_scenario(cfg, str(tmp_path))
        assert manifest["summary"]["optimal_allan_at_1s"] > 0.0
        assert manifest["summary"]["suboptimal_allan_at_1s"] > 0.0

    def test_trajectory_output_toggle(self, tmp_path):
        with_traj = raw_config(outputs=["summary", "trajectory"], name="with")
        without = raw_config(outputs=["summary"], name="without")
        m_with = run_scenario(validate_config(with_traj), str(tmp_path))
        m_without = run_scenario(validate_config(without), str(tmp_path))
        assert any(f["name"] == "trajectory.npy" for f in m_with["files"])
        assert not any(f["name"] == "trajectory.npy" for f in m_without["files"])

    @pytest.mark.parametrize("name", _bundled_names())
    def test_bundled_config_runs_at_short_horizon(self, tmp_path, name):
        raw = json.loads((_bundled_dir() / f"{name}.json").read_text())
        raw["horizon"] = 2_000
        manifest = run_scenario(validate_config(raw), str(tmp_path))
        assert manifest["status"] == "ok"

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}")

        json.loads((tmp_path / name / "summary.json").read_text(), parse_constant=reject)
        # trajectories are opt-in
        assert not (tmp_path / name / "trajectory.npy").exists()
        assert "trajectory.npy" not in {f["name"] for f in manifest["files"]}

    @pytest.mark.parametrize(
        "name, horizon",
        [(name, 2_000) for name in _bundled_names()] + [("steer_to_clock", 25_000)],
    )
    def test_array_artifacts_match_in_memory(self, tmp_path, name, horizon):
        # every selector on, trajectory included; at 25,000 steps delta.npy
        # keeps every second row
        raw = json.loads((_bundled_dir() / f"{name}.json").read_text())
        raw["horizon"] = horizon
        raw["outputs"] = list(KINDS[raw["kind"]].outputs)
        cfg = validate_config(raw)
        first = run_scenario(cfg, str(tmp_path / "a"))
        second = run_scenario(validate_config(copy.deepcopy(raw)), str(tmp_path / "b"))
        assert first["files"] == second["files"]

        out = tmp_path / "a" / cfg.name
        expected = expected_arrays(cfg)
        assert {p.name for p in out.glob("*.npy")} == set(expected)
        for fname, want in expected.items():
            got = np.load(out / fname)
            assert got.dtype == np.float64
            assert np.array_equal(got, want, equal_nan=fname == "increments.npy")
        for stem in ("commands", "delta", "trajectory", "increments", "equivalence"):
            assert not (out / f"{stem}.csv").exists()

    @pytest.mark.parametrize("horizon", [4, 4095, 4096, 4097, 25_000])
    def test_block_writer_matches_np_save(self, tmp_path, horizon):
        # each long artifact is, byte for byte, np.save of its columns
        # stacked whole; at 25,000 steps delta.npy keeps every second row
        written = set()
        for kind in ("sync-simple-average", "standard-kf", "determinate-kf"):
            raw = raw_config(kind, horizon=horizon, name=kind, outputs=list(KINDS[kind].outputs))
            cfg = validate_config(raw)
            run_scenario(cfg, str(tmp_path))
            for fname, want in expected_arrays(cfg).items():
                reference = io.BytesIO()
                np.save(reference, want)
                assert (tmp_path / kind / fname).read_bytes() == reference.getvalue(), fname
                written.add(fname)
        assert written == {
            "commands.npy", "delta.npy", "trajectory.npy", "increments.npy", "equivalence.npy"
        }

    def test_balanced_run_heap_peak(self, tmp_path):
        raw = json.loads((_bundled_dir() / "balanced.json").read_text())
        raw["horizon"] = 20_000
        warm = dict(raw, horizon=800)
        run_scenario(validate_config(warm), str(tmp_path / "warm"))
        cfg = validate_config(raw)
        tracemalloc.start()
        try:
            run_scenario(cfg, str(tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the record (x, y, u), omega_o and the two destinations once, and
        # one block of the loop: 3.50 state arrays at ten clocks
        state = (cfg.horizon + 1) * 2 * cfg.model.N * 8
        assert cfg.model.N == 10
        assert peak <= 3.68 * state

    def test_numerical_failure_partial_manifest(self, tmp_path, free_run_raises):
        cfg = validate_config(raw_config())
        with pytest.raises(NumericalError, match="synthetic breakdown"):
            run_scenario(cfg, str(tmp_path))
        manifest = json.loads((tmp_path / "case" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["partial"] is True
        assert "NumericalError" in manifest["error"]
        assert manifest["files"] == []
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0

    @pytest.mark.parametrize("kind", ["standard-kf", "determinate-kf"])
    def test_non_finite_covariance_fails_with_partial_manifest(self, tmp_path, kind):
        # clock 1's white-FM variance is inf, which build_ensemble and the
        # validator reject; patched in, the model reaches the filter, whose
        # innovation covariance is not finite
        n = 3
        model = build_ensemble([NoiseParams(1e-10, 1e-13)] * n, star_measurement(n), np.eye(n - 1) * 1e-28, 1.0)
        sigma1_sq, bigQ = model.sigma1_sq.copy(), model.bigQ.copy()
        sigma1_sq[0] = bigQ[0, 0] = np.inf
        model = dataclasses.replace(model, sigma1_sq=sigma1_sq, bigQ=bigQ)
        cfg = scen.ScenarioConfig(
            name="overflow",
            kind=kind,
            model=model,
            horizon=50,
            seed=3,
            weight=np.full(n, 1.0 / n) if kind == "determinate-kf" else None,
            controller=None,
            outputs=KINDS[kind].default_outputs,
            raw={"name": "overflow", "kind": kind},
        )
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="not finite"):
            run_scenario(cfg, str(tmp_path))
        manifest = json.loads((tmp_path / "overflow" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["partial"] is True
        assert manifest["error"].startswith("NumericalError")
        assert manifest["files"] == []


# summaries of the bundled configs, keyed by horizon, from a reference
# build: 2,000 steps fit in one noise block, 10,000 span three; a change
# that moves one on purpose regenerates the file and says why
GOLDEN_SUMMARIES = Path(__file__).parent / "data" / "bundled_summaries.json"
# summary values at rounding level, held to their bound instead
ROUNDING_BOUNDS = {"max_rel_deviation": 1e-10}


def assert_summary_matches(got, want, where):
    """ints, bools and strings exactly, floats within 1e-9 relative."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key, value in want.items():
            if key in ROUNDING_BOUNDS:
                assert 0.0 <= got[key] <= ROUNDING_BOUNDS[key], f"{where}.{key}"
            else:
                assert_summary_matches(got[key], value, f"{where}.{key}")
    elif isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-9, abs=0.0), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize(
    "name, horizon",
    [pytest.param(name, 2_000, id=name) for name in _bundled_names()]
    + [pytest.param(name, 10_000, id=f"{name}-10000") for name in _bundled_names()],
)
def test_bundled_summary_matches_golden(tmp_path, name, horizon):
    raw = json.loads((_bundled_dir() / f"{name}.json").read_text())
    raw["horizon"] = horizon
    run_scenario(validate_config(raw), str(tmp_path))
    got = json.loads((tmp_path / name / "summary.json").read_text())
    want = json.loads(GOLDEN_SUMMARIES.read_text())[str(horizon)][name]
    assert_summary_matches(got, want, name)


NAN, INF = float("nan"), float("inf")

# edge edits of a bundled (ten-clock) config, as {dotted key: value}; a
# callable value maps the old value to the new one
EDGE_EDITS = {
    "none": {},
    "horizon-4": {"horizon": 4},
    "horizon-5": {"horizon": 5},
    "tau-1e-300": {"model.tau": 1e-300},
    "tau-1e-12": {"model.tau": 1e-12},
    "tau-1e90": {"model.tau": 1e90},
    "tau-nan": {"model.tau": NAN},
    "sigma1-zero": {"model.sigma1": [0.0] * 10},
    "sigma2-zero": {"model.sigma2": [0.0] * 10},
    "sigma1-first-zero": {"model.sigma1": lambda old: [0.0] + old[1:]},
    "meas_std-1e100": {"model.meas_std": [1e100] * 9},
    "meas_std-1e-150": {"model.meas_std": [1e-150] * 9},
    "sigma1-1e150": {"model.sigma1": [1e150] * 10},
    "sigmas-1e-300": {"model.sigma1": [1e-300] * 10, "model.sigma2": [1e-300] * 10},
    # the offline kinds' standard filter overflows at step 48, inside the
    # filter pass's second sub-block
    "sigma2-1.5e152": {"model.sigma2": [1.5e152] * 10},
    "weight-2-minus-1": {"controller.weight": [2.0, -1.0] + [0.0] * 8},
    "weight-half-half": {"controller.weight": [0.5, 0.5] + [0.0] * 8},
    "weight-nan": {"controller.weight": [NAN] + [0.1] * 9},
    "weight-inf": {"controller.weight": [INF, -INF] + [0.125] * 8},
    "period-1": {"controller.period": 1},
    "phase-1e6": {"controller.phase": 10**6},
    "obs-1.9": {"controller.obs_gain_coeffs": [1.9, 1.0]},
    "obs-nan": {"controller.obs_gain_coeffs": [NAN, 1.0]},
    "obs-inf": {"controller.obs_gain_coeffs": [INF, 1.0]},
    "collective-1.9": {"controller.collective_gain_coeffs": [1.0, 1.9]},
    "collective-1e308": {"controller.collective_gain_coeffs": [1e308, 1e308]},
}


@pytest.mark.parametrize("edit", list(EDGE_EDITS))
@pytest.mark.parametrize("name", _bundled_names())
def test_every_accepted_config_runs_to_a_manifest(tmp_path, name, edit):
    # the validator rejects the config, or it runs (or fails numerically)
    # to a manifest whose every file exists with its recorded hash
    raw = json.loads((_bundled_dir() / f"{name}.json").read_text())
    assert raw["model"]["n_clocks"] == 10
    raw["horizon"] = 60
    if raw["kind"] == "balanced":
        # three kicks fit in 60 steps, so the controller checks are reached
        raw["controller"]["period"] = 10
    for dotted, value in EDGE_EDITS[edit].items():
        *parents, key = dotted.split(".")
        node = raw
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value(node[key]) if callable(value) else value
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    with np.errstate(all="ignore"):
        try:
            run_scenario(cfg, str(tmp_path))
        except (NumericalError, ConvergenceError):
            pass
    out = tmp_path / name
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"], entry["name"]
