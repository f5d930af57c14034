"""Scenario benchmark for eemsync: end-to-end run metrics and per-layer spans.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each sample is a fresh child process (``perfbench/child.py``) that imports
``eemsync`` from this checkout's ``src/``, validates a config written by the
benchmark (bundled ten-clock model, the workload's horizon, the seed) and runs
it with ``run_scenario(cfg, out, jobs=1)``.  Samples repeat, one after the
other (a closed loop with one client), until ``--seconds`` is used up.  Every
sample's artifacts are checked (manifest hashes, the workload's bounds, the
same ``summary.json`` on every repeat of the seed) and then removed.

End-to-end metrics (``--trace 0``), each the median over the untraced
samples of one run, printed with quartiles and the sample count:

* ``run_s`` -- wall time of ``run_scenario``, writing and hashing included;
* ``setup_s`` -- child start through ``import eemsync``, config load and
  ``validate_config``;
* ``peak_rss_mb`` -- the child's own max RSS, from ``os.wait4`` (MiB).

The two times are given at a reference speed.  On a shared two-core
machine the speed of a core swings by up to 1.8x for seconds to minutes at
a time (other tenants on the same hardware), which moves raw wall times by
15-20% between runs.  So the benchmark and its children are pinned to one
core, a probe thread times a short fixed kernel on it every 100 ms while a
child runs, and each wall time is scaled by ``PROBE_REF_S / mean probe
time`` over the same interval: the seconds it takes when the kernel takes
1 ms.  The raw wall times are printed and recorded as ``run_wall_s`` and
``setup_wall_s``.

The error rate is ``failed / attempted`` in the result line.  A sample fails
if the child exits non-zero, the manifest status is not ``ok``, an output
check fails, or its ``summary.json`` differs from the seed's first sample.

``--trace 1`` alternates untraced samples with traced ones, in which the
library's layer entry points are wrapped from outside (see ``child.py``).
It reports the per-layer metrics (median over the traced samples, raw wall
times) and ``trace.overhead_s``: the median traced minus the median
untraced ``run_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (machine, every
sample, the spans of the first traced sample) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.  The exit code is
1 if any sample failed and 2 if the checkout holds no ``src/eemsync``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from workloads import WORKLOADS, Workload, bundled_config, check_artifacts, summary_sha256, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

CHILD_TIMEOUT_S = 150.0
PROBE_PERIOD_S = 0.1
# Times are reported as if the probe kernel took this long (it takes 0.9 ms
# on an uncontended core of the reference machine: Xeon, 2 MiB L2 per core).
PROBE_REF_S = 0.001
# BLAS and OpenMP pools would only contend for the two cores: the largest
# matrix in these scenarios is 20 x 20.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "filters.solve_s": "s",
    "filters.solve_iterations": "count",
    "control.policy_us_per_step": "us",
    "control.policy_calls": "count",
    "simkit.plant_us_per_step": "us",
    "control.destination_s": "s",
    "simkit.noise_draw_s": "s",
    "simkit.noise_draw_calls": "count",
    "filters.standard_step_us": "us",
    "filters.determinate_step_us": "us",
    "decomp.reconstruct_us_per_step": "us",
    "allan.plot_s": "s",
    "allan.columns": "count",
    "allan.grid_points": "count",
    "allan.s_per_column_per_1e6": "s",
    "simkit.trajectory_mb": "MB",
    "simkit.simulate_rss_rise_mb": "MB",
    "allan.rss_rise_mb": "MB",
    "scenarios.run_self_s": "s",
    "scenarios.bytes_written": "bytes",
    "scenarios.validate_s": "s",
    "filters.numerical_errors": "count",
    "trace.overhead_s": "s",
}


class SpeedProbe(threading.Thread):
    """Times a short kernel every ``PROBE_PERIOD_S`` while a child runs.

    The benchmark and its children share one pinned core, so each timing
    reads that core's current speed.  The kernel is interpreter work and
    small matrix-vector products, the work of the per-step loops; it takes
    about 1.3% of the child's time, on every commit alike.
    """

    def __init__(self):
        import numpy as np

        super().__init__(daemon=True)
        self.matrix = np.full((18, 18), 0.05)
        self.vector = np.ones(18)
        self.readings: List[tuple] = []  # (time.monotonic() at the end, kernel seconds)
        self._done = threading.Event()

    def kernel_s(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i & 7
        y = self.vector
        for _ in range(200):
            y = self.matrix @ y + self.vector
        return time.perf_counter() - started

    def run(self) -> None:
        while not self._done.wait(PROBE_PERIOD_S):
            took = self.kernel_s()
            self.readings.append((time.monotonic(), took))

    def stop(self) -> None:
        self._done.set()
        self.join()

    def mean_between(self, start: float, end: float) -> Optional[float]:
        """Mean kernel time over the readings in (start, end], or the nearest
        reading when the interval is shorter than the probe period."""
        taken = [k for t, k in self.readings if start < t <= end]
        if not taken and self.readings:
            middle = (start + end) / 2
            taken = [min(self.readings, key=lambda r: abs(r[0] - middle))[1]]
        return statistics.fmean(taken) if taken else None


@dataclass
class Sample:
    traced: bool
    wall_s: float
    problems: List[str] = field(default_factory=list)
    setup_wall_s: Optional[float] = None
    run_wall_s: Optional[float] = None
    setup_probe_s: Optional[float] = None  # mean probe kernel time during set-up
    run_probe_s: Optional[float] = None  # and during the run
    peak_rss_mb: Optional[float] = None
    summary_sha256: str = ""
    versions: Optional[dict] = None
    layers: Optional[dict] = None
    trace: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def timed(self) -> bool:
        return None not in (self.run_wall_s, self.setup_probe_s, self.run_probe_s)

    @property
    def setup_s(self) -> float:
        return self.setup_wall_s * PROBE_REF_S / self.setup_probe_s

    @property
    def run_s(self) -> float:
        return self.run_wall_s * PROBE_REF_S / self.run_probe_s


def _wait_with_rusage(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` and return (exit code, its own rusage); kill it on timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted (SIGINT, or SIGTERM via main's handler): take the child along
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def run_child(workload: Workload, config_path: str, traced: bool) -> Sample:
    """One fresh-process run of ``config_path``, timed, checked and cleaned up."""
    os.makedirs(WORK, exist_ok=True)
    out = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    probe = SpeedProbe()
    try:
        result_path = os.path.join(out, "result.json")
        log_path = os.path.join(out, "child.log")
        cmd = [sys.executable, CHILD, config_path, out, result_path] + (["--trace"] if traced else [])
        env = dict(os.environ, **CHILD_THREADS)
        with open(log_path, "wb") as log:
            probe.start()
            try:
                spawned = time.monotonic()
                proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
                code, rusage = _wait_with_rusage(proc, CHILD_TIMEOUT_S)
            finally:
                probe.stop()
        sample = Sample(traced=traced, wall_s=time.monotonic() - spawned)
        if code != 0 or not os.path.isfile(result_path):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            sample.problems.append(f"child exited with code {code}: {tail}")
            return sample
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        ready = result["ready"]
        sample.setup_wall_s = ready - spawned
        sample.run_wall_s = result["run_s"]
        sample.setup_probe_s = probe.mean_between(spawned, ready)
        sample.run_probe_s = probe.mean_between(ready, ready + sample.run_wall_s)
        sample.peak_rss_mb = rusage.ru_maxrss / 1024.0
        sample.versions = result["versions"]
        sample.layers = result.get("layers")
        sample.trace = result.get("trace")
        directory = os.path.join(out, workload.name)
        sample.problems.extend(check_artifacts(workload, directory))
        if sample.ok:
            sample.summary_sha256 = summary_sha256(directory)
        return sample
    finally:
        shutil.rmtree(out, ignore_errors=True)


def mark_nondeterministic(samples: List[Sample]) -> None:
    """Fail every sample whose summary differs from the first sound one."""
    reference = next((s.summary_sha256 for s in samples if s.ok), None)
    for s in samples:
        if s.ok and s.summary_sha256 != reference:
            s.problems.append("summary.json differs from the first run at this seed")


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> List[Sample]:
    """Samples until ``seconds`` would be exceeded; with ``trace``, every
    second sample is traced, and at least one of each kind runs."""
    os.makedirs(WORK, exist_ok=True)
    config_dir = tempfile.mkdtemp(prefix="config-", dir=WORK)
    try:
        config_path = write_config(ROOT, workload, seed, config_dir)
        started = time.monotonic()
        samples: List[Sample] = []
        minimum = 2 if trace else 1
        while True:
            samples.append(run_child(workload, config_path, traced=trace and len(samples) % 2 == 1))
            elapsed = time.monotonic() - started
            longest = max(s.wall_s for s in samples)
            if len(samples) >= minimum and elapsed + longest > seconds:
                break
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)
    mark_nondeterministic(samples)
    return samples


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _timed(samples: List[Sample], traced: bool) -> List[Sample]:
    return [s for s in samples if s.timed and s.traced == traced]


def end_to_end(samples: List[Sample]) -> Dict[str, dict]:
    """Quartiles over the untraced samples: the end-to-end metrics, then the
    raw wall times they were scaled from."""
    timed = _timed(samples, traced=False)
    if not timed:
        return {}
    return {
        name: quartiles([getattr(s, name) for s in timed])
        for name in ("run_s", "setup_s", "peak_rss_mb", "run_wall_s", "setup_wall_s")
    }


def per_layer(samples: List[Sample]) -> Dict[str, float]:
    traced = [s for s in _timed(samples, traced=True) if s.layers is not None]
    untraced = _timed(samples, traced=False)
    if not traced or not untraced:
        return {}
    layers = {name: statistics.median(s.layers[name] for s in traced) for name in traced[0].layers}
    layers["trace.overhead_s"] = statistics.median(s.run_s for s in traced) - statistics.median(
        s.run_s for s in untraced
    )
    return layers


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    """CPU, caches and load of this machine (the library versions come from
    the child, which imports them)."""
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, index)
            if index.startswith("index"):
                caches.append(
                    f"L{_read(base + '/level')} {_read(base + '/type')} {_read(base + '/size')}"
                )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model or platform.processor(),
        "caches_per_core": caches,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, samples: List[Sample], trace: bool) -> Dict[str, dict]:
    """Print one workload's metrics by name and unit; return the result metrics."""
    failed = sum(not s.ok for s in samples)
    print(f"== {name}: {len(samples)} samples, error_rate {failed}/{len(samples)} = "
          f"{failed / len(samples):.3g}")
    for s in samples:
        for problem in s.problems:
            print(f"   FAILED: {problem}")
    versions = next((s.versions for s in samples if s.versions), None)
    if versions:
        print("   versions: " + json.dumps(versions, sort_keys=True))
    metrics: Dict[str, dict] = {}
    for metric, q in end_to_end(samples).items():
        unit = END_TO_END_UNITS.get(metric, "s")
        print(f"   {metric:32s} median {_fmt(q['median'])} {unit}  "
              f"(q1 {_fmt(q['q1'])}, q3 {_fmt(q['q3'])}, n={q['n']})")
        if metric in END_TO_END_UNITS and not trace:
            metrics[metric] = {"value": q["median"], "unit": unit}
    if trace:
        for metric, value in per_layer(samples).items():
            unit = LAYER_UNITS[metric]
            print(f"   {metric:32s} {_fmt(value):>12s} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
    return metrics


def save(name: str, seed: int, seconds: float, trace: bool, machine: dict, samples: List[Sample]) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    versions = next((s.versions for s in samples if s.versions), {})
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": dict(machine, **versions),
        "end_to_end": end_to_end(samples),
        "per_layer": per_layer(samples) if trace else None,
        "samples": [
            dict(
                {k: v for k, v in vars(s).items() if k not in ("trace", "versions")},
                **({"setup_s": s.setup_s, "run_s": s.run_s} if s.timed else {}),
            )
            for s in samples
        ],
        "spans": next((s.trace for s in samples if s.trace is not None), None),
    }
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="noise seed (default: the bundled config's seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "eemsync", "__init__.py")):
        print(f"no eemsync sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    machine = machine_record()
    # the speed probe must share its core with the children it times
    machine["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["pinned_cpu"]})
    print("machine: " + json.dumps(machine, sort_keys=True))
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = args.seed if args.seed is not None else bundled_config(ROOT, workload)["seed"]
        samples = measure(workload, seed, args.seconds, trace)
        attempted += len(samples)
        failed += sum(not s.ok for s in samples)
        found = report(name, samples, trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        record = save(name, seed, args.seconds, trace, machine, samples)
        print(f"   record: {os.path.relpath(record, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
