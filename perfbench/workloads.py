"""The benchmark's workloads, the configs they hand the program, and the
checks every run's artifacts must pass.

All three workloads use the bundled ten-clock model.  Each stresses a
different layer, so a change to one layer shows on one workload and leaves
the others unchanged:

* ``balanced_loop`` -- the per-step Python closed loop (``simkit.simulate``
  with ``control.EemPolicy``), the cold ``filters.solve_stationary`` (whose
  cost does not depend on the horizon) and three process-noise draws.
* ``offline_kf`` -- the per-step ``filters.standard_kf_step`` and
  ``filters.determinate_kf_step`` recursions and two T-row CSVs; no solve,
  no controller, no Allan analysis.
* ``freerun_allan`` -- ``allan.allan_plot`` over ten strided columns of the
  vectorised free-run trajectory; no filter, no controller.  At this horizon
  one clock's strided column spans 16 MB, far past the 2 MiB per-core L2 of
  the reference machine, and the trajectory arrays set the peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

# Gaussian quantile for the Allan check: with 10 clocks a run has a false
# alarm probability of about 6e-6.
ALLAN_Z = 5.0
# Lemma-1 equivalence of the standard and determinate filters measures 1.5e-13.
MAX_REL_DEVIATION = 1e-10
MAX_STATIONARY_RESIDUAL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # bundled config under src/eemsync/configs/
    horizon: int
    why: str
    check: Callable[["Workload", str], List[str]]


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_balanced(workload: Workload, directory: str) -> List[str]:
    problems = []
    gains = _load_json(os.path.join(directory, "gains.json"))
    for key, value in gains["residuals"].items():
        if not value <= MAX_STATIONARY_RESIDUAL:
            problems.append(f"gains.json residual {key} = {value!r} > {MAX_STATIONARY_RESIDUAL}")
    if not gains["spectral_radius"] < 1.0:
        problems.append(f"gains.json spectral_radius = {gains['spectral_radius']!r} is not < 1")
    summary = _load_json(os.path.join(directory, "summary.json"))
    if not math.isfinite(summary["max_abs_input"]):
        problems.append(f"summary max_abs_input = {summary['max_abs_input']!r} is not finite")
    return problems


def _check_offline_kf(workload: Workload, directory: str) -> List[str]:
    deviation = _load_json(os.path.join(directory, "summary.json"))["max_rel_deviation"]
    if not deviation < MAX_REL_DEVIATION:
        return [f"summary max_rel_deviation = {deviation!r} is not < {MAX_REL_DEVIATION}"]
    return []


def allan_tolerance(horizon: int) -> float:
    """Relative bound on the 1 s Allan estimate of one clock.

    At m = 1 the estimator averages n = horizon - 2 squared second
    differences.  Under the dominant white frequency noise each difference
    d_k has variance 2 s^2 and lag-1 covariance -s^2 (no other lag), so
    Var(mean d^2) = (8 + 2 * 2) s^4 / n and the estimate has relative
    variance 3/n: 2n/3 equivalent degrees of freedom.  Random-walk frequency
    noise adds about 1e-6 of the variance at 1 s and is ignored.
    """
    n = horizon - 2
    return ALLAN_Z * math.sqrt(3.0 / n)


def _check_freerun(workload: Workload, directory: str) -> List[str]:
    problems = []
    tolerance = allan_tolerance(workload.horizon)
    clocks = _load_json(os.path.join(directory, "summary.json"))["clocks"]
    for name, entry in sorted(clocks.items()):
        measured, expected = entry["allan_at_1s"], entry["analytical_at_1s"]
        if measured is None or not abs(measured / expected - 1.0) <= tolerance:
            problems.append(
                f"{name}: allan_at_1s {measured!r} is not within {tolerance:.4f} "
                f"(relative) of analytical_at_1s {expected!r}"
            )
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "balanced_loop",
            "balanced.json",
            20_000,
            "per-step closed loop (simulate + EemPolicy), the cold stationary solve and three noise draws",
            _check_balanced,
        ),
        Workload(
            "offline_kf",
            "determinate_kf.json",
            10_000,
            "per-step standard and determinate filter recursions and two T-row CSVs; no solve, controller or Allan",
            _check_offline_kf,
        ),
        Workload(
            "freerun_allan",
            "free_run.json",
            200_000,
            "Allan analysis of ten strided columns larger than L2, vectorised free run; no filter or controller",
            _check_freerun,
        ),
    )
}


def bundled_config(root: str, workload: Workload) -> dict:
    return _load_json(os.path.join(root, "src", "eemsync", "configs", workload.config))


def write_config(root: str, workload: Workload, seed: int, directory: str) -> str:
    """Bundled model and settings, with this workload's name, horizon and seed."""
    raw = bundled_config(root, workload)
    raw.update(name=workload.name, horizon=workload.horizon, seed=seed)
    path = os.path.join(directory, f"{workload.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
    return path


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_artifacts(workload: Workload, directory: str) -> List[str]:
    """Every problem found in one run's artifact directory (empty when sound)."""
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        return ["manifest.json is missing"]
    manifest = _load_json(manifest_path)
    if manifest.get("status") != "ok":
        return [f"manifest status {manifest.get('status')!r}: {manifest.get('error')}"]
    problems = []
    for entry in manifest["files"]:
        path = os.path.join(directory, entry["name"])
        if not os.path.isfile(path):
            problems.append(f"{entry['name']}: listed in the manifest but missing")
        elif sha256_file(path) != entry["sha256"]:
            problems.append(f"{entry['name']}: sha256 differs from the manifest")
    if problems:
        return problems
    try:
        return workload.check(workload, directory)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"output check could not read the artifacts: {type(exc).__name__}: {exc}"]


def summary_sha256(directory: str) -> str:
    """The manifest's hash of summary.json, which same-seed repeats must share."""
    for entry in _load_json(os.path.join(directory, "manifest.json"))["files"]:
        if entry["name"] == "summary.json":
            return entry["sha256"]
    return ""
