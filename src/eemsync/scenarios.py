"""Config-driven experiment scenarios and their artifact pipelines."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .allan import (
    AllanPlot,
    allan_pi,
    allan_plot,
    analytical_allan_clock,
    weight_long,
    weight_short,
    write_allan_plots,
)
from .control import (
    ControllerConfig,
    closed_loop,
    destination_trajectory,
    default_collective_gain,
    default_obs_gain,
    sync_error,
)
from .decomp import decompose, reconstruct_state  # noqa: F401
from .errors import ConfigError, ConvergenceError, NumericalError
# perfbench/child.py wraps determinate_kf_step, standard_kf_step and
# reconstruct_state as attributes of this module
from .filters import (  # noqa: F401
    determinate_kf_step,
    filter_pass,
    solve_stationary,
    standard_kf_step,
    write_gains_json,
)
from .models import EnsembleModel, NoiseParams, build_ensemble, star_measurement
from .presets import (
    DEFAULT_COLLECTIVE_GAIN_COEFFS,
    DEFAULT_COLLECTIVE_PERIOD,
    DEFAULT_OBS_GAIN_COEFFS,
)
from .simkit import simulate

__all__ = ["ScenarioConfig", "KINDS", "validate_config", "run_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, fully resolved scenario."""

    name: str
    kind: str
    model: EnsembleModel
    horizon: int
    seed: int
    weight: Optional[np.ndarray]
    controller: Optional[ControllerConfig]
    outputs: Tuple[str, ...]
    raw: dict


@dataclass(frozen=True)
class KindSpec:
    """What one scenario kind runs, writes and lets a config set."""

    summary: str
    run: Callable[[ScenarioConfig, "_Artifacts"], dict]
    # selectors the kind can write; every one but "trajectory" is on by default
    outputs: Tuple[str, ...]
    # default weight name; pinned exactly when "weight" is not in settings
    weight: Optional[str] = None
    # controller keys a config may set
    settings: Tuple[str, ...] = ()
    # controller mode; None for the offline kinds
    mode: Optional[str] = None

    @property
    def default_outputs(self) -> Tuple[str, ...]:
        return tuple(sel for sel in self.outputs if sel != "trajectory")


def _is_number(value, integer: bool = False) -> bool:
    """An int, or unless ``integer`` a float; JSON true/false parse to bool,
    which Python would otherwise accept as the int 1 or 0."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


def _resolve_weight(given, model: EnsembleModel, problems: List[str]) -> Optional[np.ndarray]:
    if isinstance(given, str):
        if given == "uniform":
            return np.full(model.N, 1.0 / model.N)
        if given in ("short", "long"):
            # the optimal weights divide by the white-FM or random-walk
            # variances, so a zero or subnormal one leaves them undefined
            field = "sigma1" if given == "short" else "sigma2"
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    if given == "short":
                        return weight_short(np.diag(model.Sigma1)).q
                    return weight_long(np.diag(model.Sigma2)).q
            except ValueError as exc:
                problems.append(f"model.{field}: no {given}-term weight for these variances ({exc})")
                return None
        if given == "last-clock":
            q = np.zeros(model.N)
            q[-1] = 1.0
            return q
        problems.append(
            f"controller.weight: unknown name {given!r} "
            "(use 'uniform', 'short', 'long', 'last-clock', or a list)"
        )
        return None
    if not isinstance(given, (list, tuple)) or not all(_is_number(x) for x in given):
        problems.append(f"controller.weight: not a number list: {given!r}")
        return None
    q = np.asarray(given, dtype=float)
    if q.shape != (model.N,):
        problems.append(
            f"controller.weight: expected {model.N} entries, got shape {q.shape}"
        )
        return None
    if abs(q.sum() - 1.0) > 1e-9:
        problems.append(
            f"controller.weight: entries must sum to 1 (normalization), got {q.sum()!r}"
        )
        return None
    return q


def _build_model(raw_model, problems: List[str]) -> Optional[EnsembleModel]:
    if not isinstance(raw_model, dict):
        problems.append("model: must be an object")
        return None
    n = raw_model.get("n_clocks")
    tau = raw_model.get("tau", 1.0)
    if not _is_number(n, integer=True) or n < 2:
        problems.append(f"model.n_clocks: integer >= 2 required, got {n!r}")
        return None
    if not _is_number(tau) or tau <= 0:
        problems.append(f"model.tau: positive number required, got {tau!r}")
        return None

    def float_list(key: str, length: int) -> Optional[np.ndarray]:
        val = raw_model.get(key)
        if val is None:
            problems.append(f"model.{key}: missing (need {length} values)")
            return None
        if not isinstance(val, (list, tuple)) or not all(_is_number(x) for x in val):
            problems.append(f"model.{key}: not a number list")
            return None
        arr = np.asarray(val, dtype=float)
        if arr.shape != (length,):
            problems.append(f"model.{key}: expected {length} values, got shape {arr.shape}")
            return None
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            problems.append(f"model.{key}: values must be finite and >= 0")
            return None
        return arr

    sigma1 = float_list("sigma1", n)
    sigma2 = float_list("sigma2", n)
    meas_std = float_list("meas_std", n - 1)
    if sigma1 is None or sigma2 is None or meas_std is None:
        return None
    if np.any(meas_std <= 0):
        problems.append("model.meas_std: entries must be positive")
        return None
    # squares of finite inputs can still overflow to inf or underflow to 0;
    # the model rejects those too, but here each problem names its field
    with np.errstate(over="ignore", under="ignore"):
        squares = {"sigma1": sigma1**2, "sigma2": sigma2**2, "meas_std": meas_std**2}
        tau_cubed = np.float64(tau) ** 3
    bad = [
        f"model.{key}: squares overflow, so the variances are not finite"
        for key, var in squares.items()
        if not np.isfinite(var).all()
    ]
    if np.any(squares["meas_std"] == 0.0):
        bad.append("model.meas_std: squares underflow to 0, so R is not positive definite")
    if not np.isfinite(tau_cubed):
        bad.append(f"model.tau: tau**3 overflows, got {tau!r}")
    if bad:
        problems.extend(bad)
        return None
    try:
        params = [NoiseParams(a, b) for a, b in zip(sigma1, sigma2)]
        return build_ensemble(params, star_measurement(n), np.diag(squares["meas_std"]), float(tau))
    except ValueError as exc:
        problems.append(f"model: {exc}")
        return None


def validate_config(raw) -> ScenarioConfig:
    """Parse and eagerly validate one scenario document.

    Accepts a dict or a JSON string.  Applies kind defaults (weights,
    gains, schedule) and runs every cheap structural check up front;
    all violations are reported together.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be an object"])

    problems: List[str] = []
    name = raw.get("name")
    if not isinstance(name, str) or not name or any(c in name for c in "/\\"):
        problems.append(f"name: nonempty string without path separators required, got {name!r}")
        name = "invalid"
    kind = raw.get("kind")
    if kind not in KINDS:
        problems.append(f"kind: must be one of {', '.join(KINDS)}; got {kind!r}")
        raise ConfigError(problems)
    spec = KINDS[kind]

    model = _build_model(raw.get("model"), problems)

    horizon = raw.get("horizon")
    horizon_ok = _is_number(horizon, integer=True) and horizon >= 4
    if not horizon_ok:
        problems.append(f"horizon: integer >= 4 required, got {horizon!r}")
        horizon = 4
    seed = raw.get("seed")
    if not _is_number(seed, integer=True) or seed < 0:
        problems.append(f"seed: nonnegative integer required, got {seed!r}")
        seed = 0

    ctrl_raw = raw.get("controller", {})
    if not isinstance(ctrl_raw, dict):
        problems.append("controller: must be an object")
        ctrl_raw = {}
    for key in ctrl_raw:
        if key in spec.settings:
            continue
        if not any(key in other.settings for other in KINDS.values()):
            problems.append(f"controller.{key}: unknown setting")
        elif key == "weight" and spec.weight is not None:
            problems.append(
                f"controller.weight: kind {kind!r} pins the weight ({spec.weight}); remove it"
            )
        else:
            problems.append(
                f"controller.{key}: not used by kind {kind!r} "
                f"(it accepts {', '.join(spec.settings) or 'no settings'})"
            )
    settings = {key: value for key, value in ctrl_raw.items() if key in spec.settings}

    weight: Optional[np.ndarray] = None
    controller: Optional[ControllerConfig] = None
    if model is not None and spec.weight is not None:
        weight = _resolve_weight(settings.get("weight", spec.weight), model, problems)

    mode = spec.mode
    if model is not None and weight is not None and mode is not None:
        tau = model.tau
        obs_coeffs = settings.get("obs_gain_coeffs", list(DEFAULT_OBS_GAIN_COEFFS))
        coll_coeffs = settings.get(
            "collective_gain_coeffs", list(DEFAULT_COLLECTIVE_GAIN_COEFFS)
        )
        period = settings.get("period", DEFAULT_COLLECTIVE_PERIOD)
        phase = settings.get("phase", 0)
        if mode == "balanced":
            # the summary samples the mean against the long-term weight
            _resolve_weight("long", model, problems)
        ok_pair = (
            lambda v: isinstance(v, (list, tuple))
            and len(v) == 2
            and all(_is_number(x) for x in v)
        )
        if not ok_pair(obs_coeffs):
            problems.append(f"controller.obs_gain_coeffs: pair of numbers required, got {obs_coeffs!r}")
        if not ok_pair(coll_coeffs):
            problems.append(
                f"controller.collective_gain_coeffs: pair of numbers required, got {coll_coeffs!r}"
            )
        period_ok = _is_number(period, integer=True) and period >= 1
        phase_ok = _is_number(phase, integer=True) and phase >= 0
        if not period_ok:
            problems.append(f"controller.period: integer >= 1 required, got {period!r}")
        if not phase_ok:
            problems.append(f"controller.phase: nonnegative integer required, got {phase!r}")
        if mode == "balanced" and horizon_ok and period_ok and phase_ok:
            # the summary fits a trend to the mean sampled at the kicks
            # k = phase % period (mod period); it needs three samples
            need = phase % period + 2 * period
            if horizon < need:
                problems.append(
                    f"horizon: kind 'balanced' needs horizon >= phase % period + 2 * period "
                    f"= {need} (three collective kicks) with controller.period = {period} "
                    f"and controller.phase = {phase}, got {horizon}"
                )
        if not problems:
            try:
                controller = ControllerConfig(
                    q=weight,
                    F_o=default_obs_gain(model.N, tau, tuple(obs_coeffs)),
                    K_bo=default_collective_gain(period, tau, tuple(coll_coeffs))
                    if mode == "balanced"
                    else None,
                    m=period,
                    mode=mode,
                    tau=tau,
                    phase=phase,
                )
            except ConfigError as exc:
                problems.extend(f"controller: {p}" for p in exc.problems)

    outputs = raw.get("outputs")
    if outputs is None:
        outputs = list(spec.default_outputs)
    if not isinstance(outputs, list) or not all(isinstance(s, str) for s in outputs):
        problems.append(f"outputs: list of selector strings required, got {outputs!r}")
        outputs = []
    else:
        allowed = set(spec.outputs)
        for sel in outputs:
            if sel not in allowed:
                problems.append(
                    f"outputs: {sel!r} is not available for kind {kind!r} "
                    f"(choose from {', '.join(sorted(allowed))})"
                )

    known_top = {"name", "kind", "model", "horizon", "seed", "controller", "outputs"}
    for key in raw:
        if key not in known_top:
            problems.append(f"{key}: unknown top-level field")

    if problems or model is None:
        raise ConfigError(problems or ["model: missing"])
    return ScenarioConfig(
        name=name,
        kind=kind,
        model=model,
        horizon=horizon,
        seed=seed,
        weight=weight,
        controller=controller,
        outputs=tuple(outputs),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# artifact helpers


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _analytical_plot(intervals: np.ndarray, values: np.ndarray) -> AllanPlot:
    intervals = np.asarray(intervals, dtype=float)
    return AllanPlot(
        m_set=np.arange(1, intervals.size + 1),
        intervals=intervals,
        values=np.asarray(values, dtype=float),
    )


def _trend_statistics(series: np.ndarray, n_blocks: int = 50) -> dict:
    """Slope of the final-half trend, fitted on block means.

    Blocking pushes the samples past the loop's correlation time, so the
    ordinary least-squares confidence band is honest.
    """
    arr = np.asarray(series, dtype=float)
    tail = arr[arr.shape[0] // 2 :]
    n_blocks = min(n_blocks, tail.size)
    usable = (tail.size // n_blocks) * n_blocks
    blocks = tail[:usable].reshape(n_blocks, -1).mean(axis=1)
    centers = np.arange(n_blocks, dtype=float) * (usable / n_blocks)
    x = centers - centers.mean()
    slope = float(x @ blocks / (x @ x))
    fit = blocks.mean() + slope * x
    dof = max(n_blocks - 2, 1)
    se = float(np.sqrt(((blocks - fit) ** 2).sum() / dof / (x @ x)))
    half_width = 1.96 * se
    return {
        "slope": slope,
        "slope_ci_half_width": half_width,
        "trend_free": bool(abs(slope) <= half_width),
        "blocks": n_blocks,
    }


class _Artifacts:
    def __init__(self, directory: str):
        self.directory = directory
        self.names: List[str] = []
        os.makedirs(directory, exist_ok=True)

    def path(self, name: str) -> str:
        self.names.append(name)
        return os.path.join(self.directory, name)

    def save(self, name: str, array: np.ndarray) -> None:
        """One long series as a C-contiguous float64 ``.npy``; ``np.save``
        writes no timestamp, so same-seed runs hash the same."""
        np.save(self.path(name), np.ascontiguousarray(array, dtype=np.float64))

    def write_allan(self, plots: Dict[str, AllanPlot], prefix: str) -> None:
        """Allan CSVs and their ``<prefix>_index.json``, listed in the manifest."""
        index = write_allan_plots(plots, self.directory, prefix=prefix)
        self.names.extend(index.values())
        self.names.append(f"{prefix}_index.json")

    def manifest_files(self) -> List[dict]:
        entries = []
        for name in sorted(set(self.names)):
            full = os.path.join(self.directory, name)
            digest = hashlib.sha256()
            with open(full, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            entries.append(
                {"name": name, "sha256": digest.hexdigest(), "bytes": os.path.getsize(full)}
            )
        return entries


def _indexed(*columns: np.ndarray) -> np.ndarray:
    """The columns side by side after a step index k = 0, 1, ..."""
    return np.column_stack([np.arange(len(columns[0])), *columns])


def _clock_allan_artifacts(cfg: ScenarioConfig, h: np.ndarray, art: _Artifacts) -> AllanPlot:
    """Statistical Allan plot of every clock (one column each), one CSV per clock."""
    plot = allan_plot(h, cfg.model.tau)
    if "allan" in cfg.outputs:
        art.write_allan({"clock": plot}, "allan")
    return plot


# ---------------------------------------------------------------------------
# scenario pipelines


def _run_free_run(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    rec = simulate(cfg.model, None, cfg.horizon, cfg.seed)
    plot = _clock_allan_artifacts(cfg, rec.h, art)
    s1 = np.diag(cfg.model.Sigma1)
    s2 = np.diag(cfg.model.Sigma2)
    at_one = plot.values[plot.m_set == 1]
    summary = {"clocks": {}}
    analytical = {}
    for i in range(cfg.model.N):
        name = f"clock_{i + 1}"
        noise = NoiseParams(np.sqrt(s1[i]), np.sqrt(s2[i]))
        line = np.array([analytical_allan_clock(noise, t) for t in plot.intervals])
        analytical[f"{name}_analytical"] = _analytical_plot(plot.intervals, line)
        summary["clocks"][name] = {
            "allan_at_1s": float(at_one[0, i]) if at_one.size else None,
            "analytical_at_1s": analytical_allan_clock(noise, cfg.model.tau),
        }
    if "analytical" in cfg.outputs:
        art.write_allan(analytical, "reference")
    if "trajectory" in cfg.outputs:
        art.save("trajectory.npy", _indexed(rec.h[: rec.T], rec.u))
    return summary


def _run_standard_kf(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    rec = simulate(cfg.model, None, cfg.horizon, cfg.seed)
    run = filter_pass(cfg.model, rec.y, x=rec.x, increments=True)
    eps, increments = run.eps, run.increments
    if "increments" in cfg.outputs:
        # k, gain and prior covariance: increment and norm (Frobenius)
        art.save("increments.npy", _indexed(increments))
    plot = allan_plot(eps, cfg.model.tau)
    if "allan" in cfg.outputs:
        art.write_allan({"timescale": plot}, "allan")
    if "gains" in cfg.outputs:
        d = decompose(cfg.model, np.full(cfg.model.N, 1.0 / cfg.model.N))
        write_gains_json(solve_stationary(d, cfg.model.meas.R), art.path("gains.json"))
    if "trajectory" in cfg.outputs:
        art.save("trajectory.npy", _indexed(rec.h[: rec.T], rec.u))
    final = increments[-1]
    return {
        "final_gain_rel_increment": float(final[0] / final[1]),
        "final_prior_cov_increment_fro": float(final[2]),
        "timescale_allan_at_1s": float(plot.values[plot.m_set == 1][0]),
    }


def _averaged_model(model: EnsembleModel) -> EnsembleModel:
    """Same ensemble with every clock assigned the average noise variances."""
    s1 = float(np.diag(model.Sigma1).mean())
    s2 = float(np.diag(model.Sigma2).mean())
    params = [NoiseParams(np.sqrt(s1), np.sqrt(s2)) for _ in range(model.N)]
    return build_ensemble(params, model.meas.V, model.meas.R, model.tau)


def _run_standard_kf_suboptimal(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    rec = simulate(cfg.model, None, cfg.horizon, cfg.seed)
    eps_opt = filter_pass(cfg.model, rec.y, x=rec.x).eps
    eps_sub = filter_pass(_averaged_model(cfg.model), rec.y, x=rec.x).eps
    plot_opt = allan_plot(eps_opt, cfg.model.tau)
    plot_sub = allan_plot(eps_sub, cfg.model.tau)
    if "allan" in cfg.outputs:
        art.write_allan({"timescale_optimal": plot_opt, "timescale_suboptimal": plot_sub}, "allan")
    at1_opt = float(plot_opt.values[plot_opt.m_set == 1][0])
    at1_sub = float(plot_sub.values[plot_sub.m_set == 1][0])
    return {
        "optimal_allan_at_1s": at1_opt,
        "suboptimal_allan_at_1s": at1_sub,
        "suboptimal_below_optimal_at_1s": bool(at1_sub < at1_opt),
    }


def _run_determinate_kf(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    model = cfg.model
    rec = simulate(model, None, cfg.horizon, cfg.seed)
    run = filter_pass(model, rec.y, d=decompose(model, cfg.weight))
    deviation, increments = run.deviation, run.det_increments
    increments[0] = np.nan  # no increment into k = 0
    if "equivalence" in cfg.outputs:
        art.save("equivalence.npy", _indexed(deviation))
    if "increments" in cfg.outputs:
        # k, observable and cross gain: increment and norm (Frobenius)
        art.save("increments.npy", _indexed(increments))
    return {
        "max_rel_deviation": float(np.nanmax(deviation)),
        "final_obs_gain_rel_increment": float(increments[-1, 0] / increments[-1, 1]),
        "final_cross_gain_rel_increment": float(increments[-1, 2] / increments[-1, 3]),
    }


def _run_controller(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    model = cfg.model
    d = decompose(model, cfg.weight)
    gains = solve_stationary(d, model.meas.R)
    rec, omega_o, omega_obar = closed_loop(model, cfg.controller, d, gains, cfg.horizon, cfg.seed)
    dest = destination_trajectory(model, cfg.weight, cfg.horizon, cfg.seed)
    delta = sync_error(rec, dest)
    rel_phase = delta[:, : model.N] @ d.V.T  # common mode removed
    balanced = cfg.controller.mode == "balanced"

    if "gains" in cfg.outputs:
        write_gains_json(gains, art.path("gains.json"))
    if "commands" in cfg.outputs:
        art.save("commands.npy", _indexed(omega_o, omega_obar, rec.u))
    if "delta" in cfg.outputs:
        rows = np.arange(0, delta.shape[0], max(1, cfg.horizon // 10_000))
        art.save("delta.npy", np.column_stack([rows, delta[rows]]))
    if "trajectory" in cfg.outputs:
        art.save("trajectory.npy", _indexed(rec.h[: rec.T], rec.u))

    intervals = _clock_allan_artifacts(cfg, rec.h, art).intervals
    s1 = np.diag(model.Sigma1)
    s2 = np.diag(model.Sigma2)
    references = {
        "destination": _analytical_plot(
            intervals,
            [allan_pi(cfg.weight, s1, s2, t) for t in intervals],
        )
    }
    if balanced:
        q_inf = weight_long(s2).q
        references["destination_long"] = _analytical_plot(
            intervals,
            [allan_pi(q_inf, s1, s2, t) for t in intervals],
        )
    if "allan" in cfg.outputs:
        art.write_allan(references, "reference")

    summary = {
        "relative_phase_trend": _trend_statistics(rel_phase[:, 0]),
        "max_abs_input": float(np.max(np.abs(rec.u))),
        "stationary_iterations": gains.iterations,
        "spectral_radius": gains.spectral_radius,
    }
    if cfg.kind == "steer-to-clock":
        summary["steered_clock_max_abs_input"] = float(np.max(np.abs(rec.u[:, -1])))
    if balanced:
        # at the kick instants, k = phase (mod m), the mean should ride
        # the long-term destination
        m = cfg.controller.m
        delta_long = sync_error(rec, destination_trajectory(model, q_inf, cfg.horizon, cfg.seed))
        sampled_mean = delta_long[cfg.controller.phase % m :: m, : model.N] @ q_inf
        summary["collective_kicks"] = int(np.count_nonzero(omega_obar))
        summary["sampled_mean_phase_trend"] = _trend_statistics(sampled_mean)
    return summary


_CONTROLLER_SELECTORS = ("allan", "commands", "delta", "gains", "summary", "trajectory")

# every scenario kind, in the order the CLI lists them
KINDS: Dict[str, KindSpec] = {
    "free-run": KindSpec(
        "uncontrolled ensemble, per-clock Allan statistics",
        _run_free_run,
        ("allan", "analytical", "summary", "trajectory"),
    ),
    "standard-kf": KindSpec(
        "full-state filter, reference time scale and increment series",
        _run_standard_kf,
        ("allan", "increments", "gains", "summary", "trajectory"),
    ),
    "standard-kf-suboptimal": KindSpec(
        "optimal vs averaged-covariance filter on shared noise",
        _run_standard_kf_suboptimal,
        ("allan", "summary"),
    ),
    "determinate-kf": KindSpec(
        "decomposed filter equivalence against the full-state filter",
        _run_determinate_kf,
        ("equivalence", "increments", "summary"),
        "uniform",
        ("weight",),
    ),
    "steer-to-clock": KindSpec(
        "synchronize every clock to the last clock (its input stays zero)",
        _run_controller, _CONTROLLER_SELECTORS, "last-clock", ("obs_gain_coeffs",), "sync-only",
    ),
    "sync-simple-average": KindSpec(
        "synchronize to the plain average of all clocks",
        _run_controller, _CONTROLLER_SELECTORS, "uniform", ("obs_gain_coeffs",), "sync-only",
    ),
    "sync-best-short": KindSpec(
        "synchronize to the short-term optimal weighted mean",
        _run_controller, _CONTROLLER_SELECTORS, "short", ("obs_gain_coeffs",), "sync-only",
    ),
    "sync-best-long": KindSpec(
        "synchronize to the long-term optimal weighted mean",
        _run_controller, _CONTROLLER_SELECTORS, "long", ("obs_gain_coeffs",), "sync-only",
    ),
    "balanced": KindSpec(
        "synchronization plus periodic collective control of the mean",
        _run_controller,
        _CONTROLLER_SELECTORS,
        "short",
        ("weight", "obs_gain_coeffs", "collective_gain_coeffs", "period", "phase"),
        "balanced",
    ),
}


def run_scenario(cfg: ScenarioConfig, out_dir: str, jobs: int = 1) -> dict:
    """Execute one scenario and write its artifact bundle.

    Returns the manifest (also written as ``manifest.json``): file list
    with content hashes, the config echo, and library versions.  On a
    numerical failure the manifest is still written, with the error
    recorded and whatever artifacts exist flagged as partial.  ``jobs`` is
    unused: a scenario runs in one thread, and ``eemsync run --jobs`` runs
    scenarios side by side.
    """
    import scipy

    directory = os.path.join(out_dir, cfg.name)
    art = _Artifacts(directory)
    started = time.perf_counter()
    caught: Optional[Exception] = None
    summary: dict = {}
    try:
        summary = KINDS[cfg.kind].run(cfg, art)
        if "summary" in cfg.outputs:
            _write_json(art.path("summary.json"), summary)
    except (NumericalError, ConvergenceError) as exc:
        caught = exc
    manifest = {
        "name": cfg.name,
        "kind": cfg.kind,
        "status": "ok" if caught is None else "failed",
        "error": None if caught is None else f"{type(caught).__name__}: {caught}",
        "partial": caught is not None,
        "files": art.manifest_files(),
        "summary": summary,
        "config": cfg.raw,
        "versions": {
            "eemsync": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "elapsed_s": round(time.perf_counter() - started, 3),
        # the whole process's peak so far; Linux reports ru_maxrss in KiB
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 3),
    }
    _write_json(os.path.join(directory, "manifest.json"), manifest)
    if caught is not None:
        raise caught
    return manifest
