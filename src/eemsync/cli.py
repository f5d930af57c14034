"""Command-line front end: run, validate, and list scenarios."""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path
from typing import List, Optional

from .errors import ConfigError, ConvergenceError, NumericalError
from .scenarios import KINDS, run_scenario, validate_config

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _bundled_dir():
    return resources.files("eemsync") / "configs"


def _bundled_names() -> List[str]:
    return sorted(p.name[: -len(".json")] for p in _bundled_dir().iterdir() if p.name.endswith(".json"))


def _load_raw(spec: str):
    """Decode a config from a path, or from the bundled set by bare name.

    Any JSON root comes back as decoded; ``validate_config`` rejects all
    but an object."""
    path = Path(spec)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    else:
        candidate = _bundled_dir() / f"{spec}.json"
        if path.suffix == ".json" or not candidate.is_file():
            raise ConfigError(
                [
                    f"config {spec!r} is neither a file nor a bundled scenario "
                    f"(bundled: {', '.join(_bundled_names())})"
                ]
            )
        text = candidate.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{spec}: not valid JSON: {exc}"]) from exc


def _cmd_run(args) -> int:
    configs = []
    for spec in args.configs:
        raw = _load_raw(spec)
        if isinstance(raw, dict):  # validate_config rejects any other root
            for key in ("seed", "horizon"):
                if getattr(args, key) is not None:
                    raw[key] = getattr(args, key)
        configs.append(validate_config(raw))
    names = [cfg.name for cfg in configs]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ConfigError(
            [f"name: {n!r} is used by more than one config; both would write <out>/{n}/" for n in shared]
        )

    for cfg in configs:
        manifest = run_scenario(cfg, args.out)
        print(f"{cfg.name}: {manifest['status']} ({manifest['elapsed_s']} s, "
              f"{len(manifest['files'])} files) -> {args.out}/{cfg.name}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = validate_config(_load_raw(args.config))
    print(f"{cfg.name}: valid ({cfg.kind}, N={cfg.model.N}, T={cfg.horizon}, seed={cfg.seed})")
    return EXIT_OK


def _cmd_list(_args) -> int:
    bundled = {}
    for name in _bundled_names():
        try:
            raw = json.loads((_bundled_dir() / f"{name}.json").read_text(encoding="utf-8"))
            bundled.setdefault(raw.get("kind"), []).append(name)
        except (OSError, json.JSONDecodeError):
            continue
    for kind, spec in KINDS.items():
        names = ", ".join(bundled.get(kind, [])) or "-"
        print(f"{kind:24s} {spec.summary}  [bundled: {names}]")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eemsync",
        description="Run clock-ensemble time-scale scenarios from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one or more scenario configs")
    run_p.add_argument("configs", nargs="+", help="config path or bundled scenario name")
    run_p.add_argument("--out", default="artifacts", help="output directory (default: artifacts)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--horizon", type=int, default=None, help="override the config horizon")
    run_p.set_defaults(handler=_cmd_run)

    val_p = sub.add_parser("validate", help="check a config and report every violation")
    val_p.add_argument("config", help="config path or bundled scenario name")
    val_p.set_defaults(handler=_cmd_validate)

    list_p = sub.add_parser("list-scenarios", help="list scenario kinds and bundled configs")
    list_p.set_defaults(handler=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
