"""Command-line interface tests: spec resolution, exit codes, artifacts."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import eemsync
from eemsync.cli import _bundled_dir, main
from test_scenarios import CONTRACT_EDGES


def write_config(tmp_path, name="tiny", **over):
    cfg = {
        "name": name,
        "kind": over.pop("kind", "free-run"),
        "model": {
            "n_clocks": 3,
            "tau": 1.0,
            "sigma1": [1.700e-10, 0.886e-10, 1.221e-10],
            "sigma2": [1.507e-13, 0.532e-13, 0.167e-13],
            "meas_std": [0.4353e-14, 0.0759e-14],
        },
        "horizon": 200,
        "seed": 7,
    }
    cfg.update(over)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_list_scenarios_names_every_kind(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for kind, summary in {
        "free-run": "uncontrolled ensemble, per-clock Allan statistics",
        "standard-kf": "full-state filter, reference time scale and increment series",
        "standard-kf-suboptimal": "optimal vs averaged-covariance filter on shared noise",
        "determinate-kf": "decomposed filter equivalence against the full-state filter",
        "steer-to-clock": "synchronize every clock to the last clock (its input stays zero)",
        "sync-simple-average": "synchronize to the plain average of all clocks",
        "sync-best-short": "synchronize to the short-term optimal weighted mean",
        "sync-best-long": "synchronize to the long-term optimal weighted mean",
        "balanced": "synchronization plus periodic collective control of the mean",
    }.items():
        assert f"{kind:24s} {summary}  [bundled: " in out


def test_validate_accepts_bundled_config(capsys):
    assert main(["validate", "free_run"]) == 0
    out = capsys.readouterr().out
    assert "free_run: valid" in out
    assert "free-run" in out


def test_validate_reports_problems(tmp_path, capsys):
    path = write_config(tmp_path, kind="determinate-kf")
    cfg = json.loads(path.read_text())
    cfg["controller"] = {"weight": [0.5, 0.3, 0.1]}
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 2
    assert "sum to 1" in capsys.readouterr().err


def test_unknown_spec_lists_bundled_names(capsys):
    assert main(["validate", "no_such_scenario"]) == 2
    err = capsys.readouterr().err
    assert "free_run" in err
    assert "balanced" in err


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_run_with_overrides(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(
        [
            "run",
            "free_run",
            "--out",
            str(out_dir),
            "--horizon",
            "300",
            "--seed",
            "9",
        ]
    )
    assert code == 0
    assert "free_run: ok" in capsys.readouterr().out
    manifest = json.loads((out_dir / "free_run" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["horizon"] == 300
    assert manifest["config"]["seed"] == 9
    names = {f["name"] for f in manifest["files"]}
    assert "summary.json" in names


def test_run_several_configs_in_sequence(tmp_path, capsys):
    a = write_config(tmp_path, name="run_a", seed=1)
    b = write_config(tmp_path, name="run_b", seed=2)
    out_dir = tmp_path / "artifacts"
    assert main(["run", str(a), str(b), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "run_a: ok" in out and "run_b: ok" in out
    first, second = (
        json.loads((out_dir / name / "manifest.json").read_text()) for name in ("run_a", "run_b")
    )
    # ru_maxrss is the process's peak so far: the second run inherits the first's
    for manifest in (first, second):
        assert manifest["peak_rss_mb_at_start"] <= manifest["peak_rss_mb"]
    assert second["peak_rss_mb_at_start"] >= first["peak_rss_mb"]


def test_run_rejects_shared_scenario_name(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    a = write_config(first, name="same", seed=1)
    b = write_config(second, name="same", seed=2)
    out_dir = tmp_path / "artifacts"
    assert main(["run", str(a), str(b), "--out", str(out_dir)]) == 2
    assert "'same'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_validate_rejects_boolean_seed(tmp_path, capsys):
    path = write_config(tmp_path, seed=True)
    assert main(["validate", str(path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_run_propagates_validation_failure(tmp_path, capsys):
    path = write_config(tmp_path, horizon=3)
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 2
    assert "horizon" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_run_rejects_balanced_horizon_short_of_three_kicks(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    # the bundled period 200 and phase 0 need horizon >= 800
    assert main(["run", "balanced", "--horizon", "799", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "horizon" in err and "controller.period" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma1", 1e200),
        ("sigma2", 1e200),
        ("meas_std", 1e200),
        ("meas_std", 1e-200),
        ("tau", 1e200),
    ],
)
def test_run_rejects_variances_that_overflow_or_underflow(tmp_path, capsys, field, value):
    # finite inputs whose squares (or tau**3) leave the model's variances
    # infinite, or R singular
    path = write_config(tmp_path, kind="standard-kf")
    cfg = json.loads(path.read_text())
    if field == "tau":
        cfg["model"]["tau"] = value
    else:
        cfg["model"][field][0] = value
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 2
    assert f"model.{field}" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize(
    "kind, field, value, weight",
    [
        ("balanced", "sigma1", 0.0, None),
        ("balanced", "sigma2", 0.0, None),
        ("sync-best-short", "sigma1", 0.0, None),
        ("sync-best-long", "sigma2", 0.0, None),
        ("sync-best-long", "sigma2", 1e-160, None),
        ("determinate-kf", "sigma2", 0.0, "long"),
    ],
)
def test_run_rejects_variance_the_weight_divides_by(tmp_path, capsys, kind, field, value, weight):
    # the short-term weight divides by sigma1**2, the long-term one by
    # sigma2**2 (1e-160**2 is subnormal, so its inverse overflows), and
    # balanced runs always check their mean against the latter
    path = write_config(tmp_path, kind=kind, horizon=400)
    cfg = json.loads(path.read_text())
    cfg["model"][field][1] = value
    if weight is not None:
        cfg["controller"] = {"weight": weight}
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 2
    assert f"model.{field}" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_run_reports_numerical_failure(tmp_path, capsys, free_run_raises):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_run_names_tau_and_sigma_together(tmp_path, capsys):
    # tau is checked by its owner even when a clock's noise fails
    path = write_config(tmp_path, kind="standard-kf")
    cfg = json.loads(path.read_text())
    cfg["model"]["tau"] = 1e200
    cfg["model"]["sigma1"][0] = 1e200
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 2
    err = capsys.readouterr().err
    assert "model.tau" in err and "model.sigma1" in err
    assert not (tmp_path / "artifacts").exists()


def test_run_rejects_literal_nan_weight(tmp_path, capsys):
    # Python's json parses NaN, Infinity and -Infinity
    path = write_config(tmp_path, kind="determinate-kf")
    cfg = json.loads(path.read_text())
    cfg["controller"] = {"weight": [float("nan"), 0.5, 0.5]}
    path.write_text(json.dumps(cfg))
    assert "NaN" in path.read_text()
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 2
    assert "controller.weight" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_failed_gains_solve_leaves_a_partial_manifest(tmp_path, capsys):
    # with no random-walk noise the stationary cross-covariance system is
    # singular; gains.json is never written, so the manifest must not list it
    path = write_config(tmp_path, kind="standard-kf")
    cfg = json.loads(path.read_text())
    cfg["model"]["sigma2"] = [0.0, 0.0, 0.0]
    path.write_text(json.dumps(cfg))
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "tiny" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["partial"] is True
    names = [entry["name"] for entry in manifest["files"]]
    assert "gains.json" not in names and not (out / "tiny" / "gains.json").exists()
    assert "increments.npy" in names
    for entry in manifest["files"]:
        data = (out / "tiny" / entry["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("name", ["standard_kf", "standard_kf_suboptimal", "determinate_kf"])
def test_filter_overflow_inside_the_pass_leaves_a_partial_manifest(tmp_path, capsys, name):
    # random-walk FM of 1.5e152 passes the validator; the standard filter's
    # innovation covariance overflows at step 48, inside the pass's second
    # 32-step sub-block, and is reported without a numpy RuntimeWarning
    cfg = json.loads((_bundled_dir() / f"{name}.json").read_text())
    cfg["model"]["sigma2"] = [1.5e152] * cfg["model"]["n_clocks"]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "artifacts"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--out", str(out), "--horizon", "60"]) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / cfg["name"] / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["partial"] is True
    assert manifest["error"] == "NumericalError: innovation covariance is not finite"
    assert manifest["files"] == []


def bundled_with(tmp_path, name, horizon, outputs=None, **model):
    cfg = json.loads((_bundled_dir() / f"{name}.json").read_text())
    cfg["horizon"] = horizon
    cfg["model"].update(model)
    if outputs is not None:
        cfg["outputs"] = outputs
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "name, tau, horizon, outputs",
    [
        # tau passes the tau rule, but m tau at the Allan grid's last
        # interval does not (m = 19 at horizon 40)
        ("free_run", 5.6e102, 40, None),
        ("free_run", 5.6e102, 40, ["trajectory"]),
        ("steer_to_clock", 6.1e100, 900, None),
        ("balanced", 1e101, 800, ["summary", "allan"]),
    ],
)
def test_run_rejects_tau_whose_allan_grid_breaks_the_tau_rule(tmp_path, capsys, name, tau, horizon, outputs):
    path = bundled_with(tmp_path, name, horizon, outputs, tau=tau)
    assert main(["run", str(path), "--out", str(tmp_path / "artifacts")]) == 2
    err = capsys.readouterr().err
    assert "model.tau" in err and "horizon" in err and "Allan grid" in err
    assert not (tmp_path / "artifacts").exists()


def test_controller_without_allan_output_keeps_a_large_tau(tmp_path):
    # no destination curve is formed, so the Allan grid rule does not apply
    path = bundled_with(tmp_path, "steer_to_clock", 900, ["summary", "gains"], tau=6.1e100)
    assert main(["validate", str(path)]) == 0


def _scaled(name, key, scale, entry=None):
    values = json.loads((_bundled_dir() / f"{name}.json").read_text())["model"][key]
    return [x * scale if entry in (None, i) else x for i, x in enumerate(values)]


@pytest.mark.parametrize(
    "name, horizon, model",
    [
        # the doubling iterates and the residual norms overflow
        ("balanced", 800, {"tau": 1e90}),
        # the doubling converges, and the cross-covariance solve gives NaN
        (
            "standard_kf",
            100,
            {"sigma2": _scaled("standard_kf", "sigma2", 5.075e144, 6), "meas_std": _scaled("standard_kf", "meas_std", 1.1357e59)},
        ),
    ],
    ids=["balanced-tau-1e90", "standard_kf-sigma2-meas_std"],
)
def test_stationary_overflow_exits_3_without_runtime_warnings(tmp_path, name, horizon, model):
    # the stationary solve fails closed with no numpy warning, so warnings
    # as errors leave the exit code and the partial manifest unchanged
    path = bundled_with(tmp_path, name, horizon, **model)
    manifest = run_with_warnings_as_errors(path, tmp_path / "artifacts")[name]
    assert manifest["error"].startswith("ConvergenceError: stationary solution failed")


def run_with_warnings_as_errors(path, out) -> dict:
    """Run the config at ``path`` in a fresh interpreter that turns every
    RuntimeWarning into an error; check exit 3 without a traceback or a
    warning, and return the failed, partial manifests by config name."""
    env = dict(os.environ)
    src = str(Path(eemsync.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "eemsync.cli", "run", str(path), "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    assert "numerical failure" in done.stderr
    manifests = {p.parent.name: json.loads(p.read_text()) for p in Path(out).glob("*/manifest.json")}
    for manifest in manifests.values():
        assert manifest["status"] == "failed" and manifest["partial"] is True
    return manifests


@pytest.mark.parametrize("edge", list(CONTRACT_EDGES))
def test_overflowing_outputs_exit_3_without_runtime_warnings(tmp_path, edge):
    # Allan values that overflow are refused before their CSV is written,
    # and relative increments of a zero gain fail the strict summary, with
    # no numpy warning on the way
    raw, error = CONTRACT_EDGES[edge]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    manifest = run_with_warnings_as_errors(path, tmp_path / "artifacts")[raw["name"]]
    assert manifest["error"].startswith(error)
    assert not [f for f in manifest["files"] if f["name"].endswith("_index.json")]


@pytest.mark.parametrize(
    "command",
    [["run", "--out", "OUT"], ["run", "--out", "OUT", "--seed", "3", "--horizon", "50"], ["validate"]],
    ids=["run", "run-with-overrides", "validate"],
)
def test_config_root_must_be_an_object(tmp_path, capsys, command):
    # a list root, and a JSON string that holds a whole config: the CLI
    # decodes a file once and applies no override to a non-object root
    inner = json.loads(write_config(tmp_path).read_text())
    out_dir = tmp_path / "artifacts"
    for root in ([1, 2], json.dumps(inner)):
        path = tmp_path / "root.json"
        path.write_text(json.dumps(root))
        argv = [command[0], str(path)] + [str(out_dir) if a == "OUT" else a for a in command[1:]]
        assert main(argv) == 2
        assert "config root must be an object" in capsys.readouterr().err
        assert not out_dir.exists()
