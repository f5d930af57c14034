"""Config-driven experiment scenarios and their artifact pipelines."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, replace
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
)
# perfbench/child.py wraps destination_trajectory, determinate_kf_step,
# standard_kf_step and reconstruct_state as attributes of this module
from .control import (  # noqa: F401
    ControllerConfig,
    closed_loop,
    default_collective_gain,
    default_obs_gain,
    destination_trajectory,
    sync_error,
)
from .decomp import decompose, reconstruct_state, weight_vector  # noqa: F401
from .errors import ConfigError, ConvergenceError, NumericalError
from .filters import (  # noqa: F401
    StationaryGains,
    determinate_kf_step,
    filter_pass,
    lapack_cholesky,
    solve_stationary,
    standard_kf_step,
)
from .models import EnsembleModel, MeasurementStructure, NoiseParams, build_ensemble, discretize
from .models import star_measurement
from .presets import (
    DEFAULT_COLLECTIVE_GAIN_COEFFS,
    DEFAULT_COLLECTIVE_PERIOD,
    DEFAULT_OBS_GAIN_COEFFS,
)
from .simkit import BLOCK, _spans, simulate

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
    # controller mode ("balanced" sets a collective gain); None for the offline kinds
    mode: Optional[str] = None
    # steps a time-varying Kalman filter, so it needs SciPy's LAPACK
    riccati: bool = False

    @property
    def default_outputs(self) -> Tuple[str, ...]:
        return tuple(sel for sel in self.outputs if sel != "trajectory")


def _is_number(value, integer: bool = False) -> bool:
    """An int, or unless ``integer`` a float, finite as a float; JSON true/false
    parse to bool (else the int 1 or 0) and Python's json parses NaN and Infinity."""
    number = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= np.finfo(float).max


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(_is_number(x) for x in value)


def _is_count(least: int) -> Callable[[object], bool]:
    return lambda value: _is_number(value, integer=True) and value >= least


# every controller setting: default, test, and the requirement its message names
_SETTINGS = {
    "obs_gain_coeffs": (DEFAULT_OBS_GAIN_COEFFS, _is_pair, "pair of numbers"),
    "collective_gain_coeffs": (DEFAULT_COLLECTIVE_GAIN_COEFFS, _is_pair, "pair of numbers"),
    "period": (DEFAULT_COLLECTIVE_PERIOD, _is_count(1), "integer >= 1"),
    "phase": (0, _is_count(0), "nonnegative integer"),
}


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
                        return weight_short(model.sigma1_sq)
                    return weight_long(model.sigma2_sq)
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
    try:
        return weight_vector(given, model.N)
    except ValueError as exc:
        problems.append(f"controller.weight: {exc}")
        return None


def _build_model(raw_model, problems: List[str]) -> Optional[EnsembleModel]:
    if not isinstance(raw_model, dict):
        problems.append("model: must be an object")
        return None
    n = raw_model.get("n_clocks")
    if not _is_number(n, integer=True) or n < 2:
        problems.append(f"model.n_clocks: integer >= 2 required, got {n!r}")
        return None
    found = len(problems)

    def float_list(key: str, length: int) -> Optional[list]:
        val = raw_model.get(key)
        if val is None:
            problems.append(f"model.{key}: missing (need {length} values)")
            return None
        if not isinstance(val, (list, tuple)) or not all(_is_number(x) and x >= 0 for x in val):
            problems.append(f"model.{key}: not a list of numbers >= 0")
            return None
        if len(val) != length:
            problems.append(f"model.{key}: expected {length} values, got {len(val)}")
            return None
        return [float(x) for x in val]

    tau = raw_model.get("tau", 1.0)
    sigma1 = float_list("sigma1", n)
    sigma2 = float_list("sigma2", n)
    meas_std = float_list("meas_std", n - 1)
    # the model types check every value; their messages start with the field
    tau_ok = _is_number(tau)
    if not tau_ok:
        problems.append(f"model.tau: number required, got {tau!r}")
    else:
        tau = float(tau)
        try:
            discretize(NoiseParams(1.0, 0.0), tau)
        except ValueError as exc:
            problems.append(f"model.{exc}")
            tau_ok = False
    params = []
    for i, pair in enumerate(zip(sigma1 or [], sigma2 or []), 1):
        try:
            params.append(NoiseParams(*pair))
            if tau_ok:
                discretize(params[-1], tau)
        except ValueError as exc:
            problems.append(f"model.{exc} (clock {i})")
    if meas_std is not None:
        try:
            meas = MeasurementStructure(star_measurement(n), np.diag([x * x for x in meas_std]))
        except ValueError as exc:
            problems.append(f"model.meas_std: {exc}")
    if len(problems) > found:
        return None
    return build_ensemble(params, meas.V, meas.R, tau)


def validate_config(raw: dict) -> ScenarioConfig:
    """Eagerly validate one parsed scenario document.

    ``raw`` is the decoded JSON; any root but an object is a config
    error.  Applies kind defaults (weights, gains, schedule) and checks
    the document's shape; the model, weight and controller types check
    its values, and every violation is reported together under its
    config field.  For the kinds that step a time-varying Kalman filter
    it also loads SciPy's LAPACK, so a missing SciPy is a config error
    before anything is written.
    """
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
    if spec.riccati:
        try:
            lapack_cholesky()
        except ImportError as exc:
            problems.append(
                f"kind: {kind!r} steps a time-varying Kalman filter, which needs SciPy ({exc})"
            )

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
        if mode == "balanced":
            # the summary samples the mean against the long-term weight
            _resolve_weight("long", model, problems)
        value = {key: settings.get(key, default) for key, (default, _, _) in _SETTINGS.items()}
        bad = [key for key, (_, ok, _) in _SETTINGS.items() if not ok(value[key])]
        problems.extend(f"controller.{k}: {_SETTINGS[k][2]} required, got {value[k]!r}" for k in bad)
        period, phase = value["period"], value["phase"]
        if mode == "balanced" and horizon_ok and "period" not in bad and "phase" not in bad:
            # the summary fits a trend to the final half of the mean sampled
            # at the (horizon - phase % period) // period + 1 kick steps
            # k = phase % period (mod period); that half needs three samples
            need = phase % period + 4 * period
            if horizon < need:
                problems.append(
                    f"horizon: kind 'balanced' needs horizon >= phase % period + 4 * period "
                    f"= {need} (five kick samples, three in the fitted final half) with "
                    f"controller.period = {period} and controller.phase = {phase}, got {horizon}"
                )
        if not problems:
            try:
                controller = ControllerConfig(
                    q=weight,
                    F_o=default_obs_gain(model.N, model.tau, value["obs_gain_coeffs"]),
                    K_bo=default_collective_gain(period, model.tau, value["collective_gain_coeffs"])
                    if mode == "balanced"
                    else None,
                    m=period,
                    tau=model.tau,
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


def _gains_doc(g: StationaryGains) -> dict:
    """A stationary solution for ``gains.json``; matrices as row-major nested lists."""
    return {
        "P_oo_star": g.P_oo_star.tolist(),
        "P_bo_star": g.P_bo_star.tolist(),
        "H_o_star": g.H_o_star.tolist(),
        "H_bo_star": g.H_bo_star.tolist(),
        "residuals": {"oo": g.residual_oo, "bo": g.residual_bo},
        "iterations": g.iterations,
        "spectral_radius": g.spectral_radius,
    }


def _max_abs(a: np.ndarray) -> float:
    """max |a| without an |a| array; 0.0, not -0.0, for an all-zero a."""
    return abs(float(max(a.max(), -a.min())))


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
    """The files of one run; a name is recorded once its file is written."""

    def __init__(self, directory: str):
        self.directory = directory
        self.names: List[str] = []
        os.makedirs(directory, exist_ok=True)

    def write_json(self, name: str, doc: dict) -> None:
        _write_json(os.path.join(self.directory, name), doc)
        self.names.append(name)

    def save(self, name: str, rows: range, *columns: np.ndarray) -> None:
        """One long series as a float64 ``.npy`` whose row i is rows[i]
        followed by row i of each of ``columns`` (1-D or 2-D).

        Writes the ``np.lib.format`` 1.0 header, then the rows through one
        buffer of ``BLOCK`` rows, so no stacked copy of the columns is
        made; the bytes are those of
        ``np.save(np.column_stack([rows, *columns]))``, which hold no
        timestamp, so same-seed runs hash the same.
        """
        n = len(rows)
        width = 1 + sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
        header = {"descr": "<f8", "fortran_order": False, "shape": (n, width)}
        buf = np.empty((min(n, BLOCK), width))
        with open(os.path.join(self.directory, name), "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for k0, k1 in _spans(n):
                parts = [np.asarray(rows[k0:k1])[:, None]]
                parts += [c[k0:k1].reshape(k1 - k0, -1) for c in columns]
                np.concatenate(parts, axis=1, out=buf[: k1 - k0]).tofile(fh)
        self.names.append(name)

    def write_allan(self, plots: Dict[str, AllanPlot], prefix: str) -> None:
        """One ``<prefix>_<series>.csv`` per series and a ``<prefix>_index.json``
        mapping series names to files; a vector plot splits into numbered
        per-column series.

        Each CSV has an ``interval_s,allan_variance`` header, then one row
        per interval with 17 significant digits: the bytes of ``np.savetxt``
        with ``fmt="%.16e"``, ``delimiter=","`` and ``comments=""``, but
        formatted by one ``%`` over the ``tolist()`` values.
        """
        index: Dict[str, str] = {}
        for name, plot in plots.items():
            intervals = plot.intervals.tolist()
            columns = plot.values.reshape(len(intervals), -1).T.tolist()
            for col, values in enumerate(columns):
                series = f"{name}_{col + 1}" if len(columns) > 1 else name
                index[series] = f"{prefix}_{series}.csv"
                rows = [v for pair in zip(intervals, values) for v in pair]
                with open(os.path.join(self.directory, index[series]), "w", encoding="utf-8") as fh:
                    fh.write("interval_s,allan_variance\n")
                    fh.write("%.16e,%.16e\n" * len(intervals) % tuple(rows))
                self.names.append(index[series])
        self.write_json(f"{prefix}_index.json", index)

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


# ---------------------------------------------------------------------------
# scenario pipelines


def _run_free_run(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    rec = simulate(cfg.model, None, cfg.horizon, cfg.seed)
    plot = allan_plot(rec.h, cfg.model.tau)
    if "allan" in cfg.outputs:
        art.write_allan({"clock": plot}, "allan")
    s1, s2 = cfg.model.sigma1_sq, cfg.model.sigma2_sq
    # m = 1 leads the default grid, which holds it from horizon 4 on
    at_one = plot.values[0]
    summary = {"clocks": {}}
    analytical = {}
    for i in range(cfg.model.N):
        name = f"clock_{i + 1}"
        noise = NoiseParams(np.sqrt(s1[i]), np.sqrt(s2[i]))
        line = np.array([analytical_allan_clock(noise, t) for t in plot.intervals])
        analytical[f"{name}_analytical"] = replace(plot, values=line)
        summary["clocks"][name] = {
            "allan_at_1s": float(at_one[i]),
            "analytical_at_1s": analytical_allan_clock(noise, cfg.model.tau),
        }
    if "analytical" in cfg.outputs:
        art.write_allan(analytical, "reference")
    if "trajectory" in cfg.outputs:
        art.save("trajectory.npy", range(rec.T), rec.h[: rec.T], rec.u)
    return summary


def _run_standard_kf(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    rec = simulate(cfg.model, None, cfg.horizon, cfg.seed)
    run = filter_pass(cfg.model, rec.y, x=rec.x, increments=True)
    eps, increments = run.eps, run.increments
    if "increments" in cfg.outputs:
        # k, gain and prior covariance: increment and norm (Frobenius)
        art.save("increments.npy", range(len(increments)), increments)
    plot = allan_plot(eps, cfg.model.tau)
    if "allan" in cfg.outputs:
        art.write_allan({"timescale": plot}, "allan")
    if "gains" in cfg.outputs:
        d = decompose(cfg.model, np.full(cfg.model.N, 1.0 / cfg.model.N))
        art.write_json("gains.json", _gains_doc(solve_stationary(d, cfg.model.meas.R)))
    if "trajectory" in cfg.outputs:
        art.save("trajectory.npy", range(rec.T), rec.h[: rec.T], rec.u)
    final = increments[-1]
    return {
        "final_gain_rel_increment": float(final[0] / final[1]),
        "final_prior_cov_increment_fro": float(final[2]),
        "timescale_allan_at_1s": float(plot.values[plot.m_set == 1][0]),
    }


def _averaged_model(model: EnsembleModel) -> EnsembleModel:
    """Same ensemble with every clock assigned the average noise variances."""
    s1 = float(model.sigma1_sq.mean())
    s2 = float(model.sigma2_sq.mean())
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
        art.save("equivalence.npy", range(len(deviation)), deviation)
    if "increments" in cfg.outputs:
        # k, observable and cross gain: increment and norm (Frobenius)
        art.save("increments.npy", range(len(increments)), increments)
    return {
        "max_rel_deviation": float(np.nanmax(deviation)),
        "final_obs_gain_rel_increment": float(increments[-1, 0] / increments[-1, 1]),
        "final_cross_gain_rel_increment": float(increments[-1, 2] / increments[-1, 3]),
    }


def _run_controller(cfg: ScenarioConfig, art: _Artifacts) -> dict:
    model = cfg.model
    d = decompose(model, cfg.weight)
    gains = solve_stationary(d, model.meas.R)
    balanced = cfg.controller.K_bo is not None
    q_inf = weight_long(model.sigma2_sq) if balanced else None
    weights = [cfg.weight, q_inf] if balanced else [cfg.weight]
    rec, omega_o, omega_obar, dests = closed_loop(
        model, cfg.controller, d, gains, cfg.horizon, cfg.seed, weights
    )
    dest = dests[0]

    if "gains" in cfg.outputs:
        art.write_json("gains.json", _gains_doc(gains))
    if "commands" in cfg.outputs:
        art.save("commands.npy", range(cfg.horizon), omega_o, omega_obar, rec.u)
    if "delta" in cfg.outputs:
        # the synchronization error at every step-th state only
        step = max(1, cfg.horizon // 10_000)
        rows = range(0, cfg.horizon + 1, step)
        art.save("delta.npy", rows, sync_error(replace(rec, x=rec.x[::step]), dest[::step]))
    if "trajectory" in cfg.outputs:
        art.save("trajectory.npy", range(rec.T), rec.h[: rec.T], rec.u)

    if "allan" in cfg.outputs:
        # every clock's Allan curve, and the analytical curve of each
        # destination on the same grid
        plot = allan_plot(rec.h, model.tau)
        art.write_allan({"clock": plot}, "allan")
        s1, s2 = model.sigma1_sq, model.sigma2_sq
        references = {
            name: replace(plot, values=np.array([allan_pi(q, s1, s2, t) for t in plot.intervals]))
            for name, q in zip(("destination", "destination_long"), weights)
        }
        art.write_allan(references, "reference")

    # (V delta_phase)[0], the first measured relative phase of the
    # synchronization error; V[0]'s zero entries add nothing, so only the
    # clocks it measures are read
    V0 = d.V[0]
    measured = np.flatnonzero(V0)
    rel_phase = (rec.x[:, measured] - dest[:, [0]]) @ V0[measured]
    summary = {
        "relative_phase_trend": _trend_statistics(rel_phase),
        "max_abs_input": _max_abs(rec.u),
        "stationary_iterations": gains.iterations,
        "spectral_radius": gains.spectral_radius,
    }
    if cfg.kind == "steer-to-clock":
        summary["steered_clock_max_abs_input"] = _max_abs(rec.u[:, -1])
    if balanced:
        # at the kick instants, k = phase (mod m), the mean should ride
        # the long-term destination
        m = cfg.controller.m
        kicks = slice(cfg.controller.phase % m, None, m)
        sampled = sync_error(replace(rec, x=rec.x[kicks]), dests[1][kicks])
        sampled_mean = sampled[:, : model.N] @ q_inf
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
        riccati=True,
    ),
    "standard-kf-suboptimal": KindSpec(
        "optimal vs averaged-covariance filter on shared noise",
        _run_standard_kf_suboptimal,
        ("allan", "summary"),
        riccati=True,
    ),
    "determinate-kf": KindSpec(
        "decomposed filter equivalence against the full-state filter",
        _run_determinate_kf,
        ("equivalence", "increments", "summary"),
        "uniform",
        ("weight",),
        riccati=True,
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
    unused; it stays only because ``perfbench/child.py`` passes
    ``jobs=1``.  ``versions.scipy`` is ``None`` for the kinds that never
    load SciPy.
    """
    scipy_version = None
    if KINDS[cfg.kind].riccati:
        import scipy  # validate_config has loaded it for this kind

        scipy_version = scipy.__version__
    directory = os.path.join(out_dir, cfg.name)
    art = _Artifacts(directory)
    rss_at_start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    caught: Optional[Exception] = None
    summary: dict = {}
    try:
        summary = KINDS[cfg.kind].run(cfg, art)
        if "summary" in cfg.outputs:
            art.write_json("summary.json", summary)
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
            "scipy": scipy_version,
        },
        "elapsed_s": round(time.perf_counter() - started, 3),
        # the whole process's peak so far, before and after this scenario;
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb_at_start": round(rss_at_start / 1024, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 3),
    }
    _write_json(os.path.join(directory, "manifest.json"), manifest)
    if caught is not None:
        raise caught
    return manifest
