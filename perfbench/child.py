"""One scenario run in a fresh process, timed from outside the library.

    python3 perfbench/child.py CONFIG OUT_DIR RESULT [--trace]

Imports ``eemsync`` from the ``src/`` directory next to this benchmark,
validates CONFIG with ``scenarios.validate_config`` and runs it with
``scenarios.run_scenario(cfg, OUT_DIR, jobs=1)``.  RESULT receives a JSON
document with the moment set-up ended (``time.monotonic``, which the parent
shares), the wall time of the run and the library versions.  With ``--trace`` the public functions that ``eemsync.scenarios``,
``eemsync.simkit`` and ``eemsync.control`` call into are wrapped before the
run, and RESULT also carries the spans and the per-layer metrics.

Exit codes: 0 run ok, 3 numerical failure (the manifest says ``failed``),
2 the library could not be found in this checkout.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MB = float(1 << 20)


def _current_rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def instrument(tracer) -> None:
    """Wrap the layer entry points, in the modules that call them."""
    import tracemalloc

    from eemsync import control, scenarios, simkit
    from eemsync.errors import ConvergenceError, NumericalError

    numerical = (NumericalError, ConvergenceError)

    def simulate_with_rss(fn):
        # first large allocation of every scenario: the process peak before it
        # is the import baseline, so the peak rise is simulate's own
        def call(*args, **kwargs):
            before = _current_rss_bytes()
            result = fn(*args, **kwargs)
            tracer.maximum("simkit.simulate_rss_rise_mb", max(_peak_rss_bytes() - before, 0) / MB)
            return result

        return call

    def observe_simulate(t, args, kwargs, rec):
        t.add("simkit.steps", rec.T)
        arrays = (rec.x, rec.h, rec.y, rec.u, rec.v, rec.xhat)
        t.add("simkit.trajectory_mb", sum(a.nbytes for a in arrays if a is not None) / MB)

    def allan_with_heap_peak(fn):
        # the process peak is set earlier by simulate's temporaries, so the
        # Allan working set is read as the peak of the allocations it makes
        def call(*args, **kwargs):
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tracer.maximum("allan.rss_rise_mb", peak / MB)
            return result

        return call

    def observe_allan(t, args, kwargs, plot):
        h = args[0]
        columns = 1 if h.ndim == 1 else h.shape[1]
        t.add("allan.columns", columns)
        t.add("allan.grid_points", plot.m_set.size)
        t.add("allan.column_samples", columns * h.shape[0])

    def observe_solve(t, args, kwargs, gains):
        t.add("filters.solve_iterations", gains.iterations)

    wrap = tracer.wrap
    for module in (scenarios, control):
        for attr, name in (
            ("determinate_kf_step", "filters.determinate_kf_step"),
            ("reconstruct_state", "decomp.reconstruct_state"),
        ):
            setattr(module, attr, wrap(getattr(module, attr), name, per_step=True, errors=numerical))
    scenarios.standard_kf_step = wrap(
        scenarios.standard_kf_step, "filters.standard_kf_step", per_step=True, errors=numerical
    )
    scenarios.solve_stationary = wrap(
        scenarios.solve_stationary, "filters.solve_stationary", observe=observe_solve, errors=numerical
    )
    scenarios.simulate = wrap(
        simulate_with_rss(scenarios.simulate), "simkit.simulate", observe=observe_simulate
    )
    scenarios.destination_trajectory = wrap(
        scenarios.destination_trajectory, "control.destination_trajectory"
    )
    scenarios.allan_plot = wrap(
        allan_with_heap_peak(scenarios.allan_plot), "allan.allan_plot", observe=observe_allan
    )
    control.EemPolicy.__call__ = wrap(
        control.EemPolicy.__call__, "control.EemPolicy.__call__", per_step=True
    )
    for method in ("process_block", "measurement_block"):
        setattr(
            simkit.NoiseSampler,
            method,
            wrap(getattr(simkit.NoiseSampler, method), f"simkit.NoiseSampler.{method}"),
        )


def layer_metrics(t, manifest: dict) -> dict:
    """Per-layer metrics from one traced run; layers that never ran read 0."""

    def per_call_us(name: str) -> float:
        calls = t.count(name)
        return 1e6 * t.total(name) / calls if calls else 0.0

    counters = t.counters
    steps = counters.get("simkit.steps", 0)
    column_samples = counters.get("allan.column_samples", 0)
    draws = ("simkit.NoiseSampler.process_block", "simkit.NoiseSampler.measurement_block")
    plot_s = t.total("allan.allan_plot")
    return {
        "filters.solve_s": t.total("filters.solve_stationary"),
        "filters.solve_iterations": counters.get("filters.solve_iterations", 0),
        "control.policy_us_per_step": per_call_us("control.EemPolicy.__call__"),
        "control.policy_calls": t.count("control.EemPolicy.__call__"),
        "simkit.plant_us_per_step": 1e6 * t.self_total("simkit.simulate") / steps if steps else 0.0,
        "control.destination_s": t.total("control.destination_trajectory"),
        "simkit.noise_draw_s": sum(t.total(n) for n in draws),
        "simkit.noise_draw_calls": sum(t.count(n) for n in draws),
        "filters.standard_step_us": per_call_us("filters.standard_kf_step"),
        "filters.determinate_step_us": per_call_us("filters.determinate_kf_step"),
        "decomp.reconstruct_us_per_step": per_call_us("decomp.reconstruct_state"),
        "allan.plot_s": plot_s,
        "allan.columns": counters.get("allan.columns", 0),
        "allan.grid_points": counters.get("allan.grid_points", 0),
        "allan.s_per_column_per_1e6": plot_s / (column_samples / 1e6) if column_samples else 0.0,
        "simkit.trajectory_mb": counters.get("simkit.trajectory_mb", 0.0),
        "simkit.simulate_rss_rise_mb": counters.get("simkit.simulate_rss_rise_mb", 0.0),
        "allan.rss_rise_mb": counters.get("allan.rss_rise_mb", 0.0),
        "scenarios.run_self_s": t.self_total("scenarios.run_scenario"),
        "scenarios.bytes_written": sum(f["bytes"] for f in manifest["files"]),
        "scenarios.validate_s": t.total("scenarios.validate_config"),
        "filters.numerical_errors": counters.get("filters.numerical_errors", 0),
    }


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv) -> int:
    config_path, out_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    sys.path.insert(0, str(SRC))
    import eemsync
    from eemsync import scenarios
    from eemsync.errors import ConvergenceError, NumericalError

    if not Path(eemsync.__file__).resolve().is_relative_to(SRC):
        print(f"eemsync imported from {eemsync.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        instrument(tracer)

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with open(config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    with span("scenarios.validate_config"):
        cfg = scenarios.validate_config(raw)
    ready = time.monotonic()

    started = time.perf_counter()
    try:
        with span("scenarios.run_scenario"):
            manifest = scenarios.run_scenario(cfg, out_dir, jobs=1)
    except (NumericalError, ConvergenceError):
        # run_scenario wrote a manifest with status "failed" before raising
        with open(os.path.join(out_dir, cfg.name, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    run_s = time.perf_counter() - started

    result = {"ready": ready, "run_s": run_s, "versions": _versions()}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, manifest)
        result["trace"] = tracer.export()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if manifest["status"] == "ok" else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
