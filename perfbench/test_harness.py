"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py

The last two tests start real child processes on short horizons (about
fifteen seconds in all, most of it the stationary solve).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from run import ROOT, Sample, mark_nondeterministic, run_child
from tracer import Tracer
from workloads import WORKLOADS, allan_tolerance, check_artifacts, write_config

SHORT_HORIZON = {"balanced_loop": 400, "offline_kf": 300, "freerun_allan": 2_000}


def _write_artifacts(directory, files: dict, status: str = "ok") -> None:
    """Write ``files`` (name -> JSON document or bytes) plus a manifest hashing them."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for name, content in files.items():
        data = content if isinstance(content, bytes) else json.dumps(content).encode()
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
        entries.append({"name": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"status": status, "error": None, "files": entries}, fh)


def _sound_files(name: str) -> dict:
    horizon = WORKLOADS[name].horizon
    if name == "balanced_loop":
        return {
            "gains.json": {"residuals": {"oo": 3e-16, "bo": 2e-15}, "spectral_radius": 0.9998},
            "summary.json": {"max_abs_input": 1.2e-12},
        }
    if name == "offline_kf":
        return {"summary.json": {"max_rel_deviation": 1.5e-13}, "equivalence.csv": b"k,rel\n0,0\n"}
    near = 1.0 + 0.5 * allan_tolerance(horizon)
    return {"summary.json": {"clocks": {"clock_1": {"allan_at_1s": 2.0e-20 * near,
                                                    "analytical_at_1s": 2.0e-20}}}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sound_artifacts_pass(tmp_path, name):
    _write_artifacts(tmp_path, _sound_files(name))
    assert check_artifacts(WORKLOADS[name], str(tmp_path)) == []


def test_corrupted_artifact_fails(tmp_path):
    _write_artifacts(tmp_path, _sound_files("offline_kf"))
    with open(tmp_path / "equivalence.csv", "r+b") as fh:
        fh.write(b"K")
    problems = check_artifacts(WORKLOADS["offline_kf"], str(tmp_path))
    assert problems and "equivalence.csv: sha256" in problems[0]


def test_missing_artifact_and_failed_status_fail(tmp_path):
    _write_artifacts(tmp_path / "a", _sound_files("offline_kf"))
    os.remove(tmp_path / "a" / "equivalence.csv")
    assert check_artifacts(WORKLOADS["offline_kf"], str(tmp_path / "a"))
    _write_artifacts(tmp_path / "b", _sound_files("offline_kf"), status="failed")
    assert check_artifacts(WORKLOADS["offline_kf"], str(tmp_path / "b"))


@pytest.mark.parametrize(
    "name, file, path, bad",
    [
        ("balanced_loop", "gains.json", ("residuals", "oo"), 1e-8),
        ("balanced_loop", "gains.json", ("spectral_radius",), 1.0),
        ("balanced_loop", "summary.json", ("max_abs_input",), float("nan")),
        ("offline_kf", "summary.json", ("max_rel_deviation",), 1e-6),
        ("freerun_allan", "summary.json", ("clocks", "clock_1", "allan_at_1s"), 2.4e-20),
    ],
)
def test_out_of_bound_summary_value_fails(tmp_path, name, file, path, bad):
    files = _sound_files(name)
    node = files[file]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    _write_artifacts(tmp_path, files)
    assert check_artifacts(WORKLOADS[name], str(tmp_path))


def test_differing_summary_fails_the_later_sample():
    samples = [Sample(False, 1.0, summary_sha256=h) for h in ("a", "a", "b")]
    mark_nondeterministic(samples)
    assert [s.ok for s in samples] == [True, True, False]


def _self_sum_by_root(tracer: Tracer) -> dict:
    sums: dict = {}
    for s in tracer.spans:
        root = tracer.root_of(s["id"])
        sums[root] = sums.get(root, 0.0) + s["self_s"]
    for (_, owner), agg in tracer.calls.items():
        root = tracer.root_of(owner)
        sums[root] = sums.get(root, 0.0) + agg[2]
    return sums


def test_span_self_times_add_up_to_root():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    step = tracer.wrap(lambda: None, "layer.step", per_step=True)
    inner = tracer.wrap(lambda: [step() for _ in range(3)], "layer.inner")
    with tracer.span("root"):
        step()
        inner()
        with tracer.span("child"):
            inner()
    root = next(s for s in tracer.spans if s["name"] == "root")
    assert _self_sum_by_root(tracer) == {root["id"]: root["end"] - root["start"]}
    assert tracer.count("layer.step") == 7
    assert tracer.total("layer.step") == 7.0


def _traced_run(tmp_path, name: str, tag: str) -> Sample:
    workload = dataclasses.replace(WORKLOADS[name], horizon=SHORT_HORIZON[name])
    config_dir = tmp_path / tag
    config_dir.mkdir()
    config = write_config(ROOT, workload, 7, str(config_dir))
    sample = run_child(workload, config, traced=True)
    assert sample.ok, sample.problems
    return sample


def test_real_spans_add_up_to_their_roots(tmp_path):
    sample = _traced_run(tmp_path, "offline_kf", "a")
    trace = sample.trace
    tracer = Tracer()
    tracer.spans = trace["spans"]
    tracer.calls = {(c["name"], c["parent"]): [c["count"], c["total_s"], c["self_s"]]
                    for c in trace["calls"]}
    sums = _self_sum_by_root(tracer)
    for s in tracer.spans:
        if s["parent"] is None:
            assert sums[s["id"]] == pytest.approx(s["end"] - s["start"], rel=1e-9)


COUNTS = (
    "filters.solve_iterations",
    "allan.grid_points",
    "control.policy_calls",
    "simkit.noise_draw_calls",
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(tmp_path, name):
    first = _traced_run(tmp_path, name, "first").layers
    second = _traced_run(tmp_path, name, "second").layers
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["simkit.noise_draw_calls"] == (4 if name == "balanced_loop" else 2)
    assert (first["filters.solve_iterations"] > 0) == (name == "balanced_loop")
    assert (first["control.policy_calls"] > 0) == (name == "balanced_loop")
    assert (first["allan.grid_points"] > 0) == (name != "offline_kf")
