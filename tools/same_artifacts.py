"""Compare the artifacts of the bundled configs with those of a parent revision.

    python3 tools/same_artifacts.py --parent REV

REV's files are exported with ``git archive`` into a temporary directory,
which leaves the repository itself untouched.  This checkout and REV then
run every bundled config twice, each run in its own process: at horizon
20,000 with every output selector of its kind, and at its bundled horizon
with its default outputs.  A kind in ``SETTINGS`` also runs at horizon
20,000 once with each set of ``controller`` settings listed there, laid
over its bundled ones: the determinate filter on bases that its bundled
uniform weight never reaches (a list weight among them), and the
controllers at gains, a period, a phase and a list weight that the
bundled configs never set.  Every variant is meant to run, so the
script prints each one that does not exit 0 on this side, or whose exit
code differs between the sides.  Of the runs that exit 0 on both sides
it prints every file whose sha256 differs (``manifest.json`` is
compared without its timings and peak RSS) and the worst relative
difference of each summary float, then the number of runs and files
really compared.  It exits 1 on any failed run, exit code difference or
file difference.  The temporary directory is removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHORT_HORIZON = 20_000
# manifest fields that measure the run, not what it computed
VOLATILE = ("elapsed_s", "peak_rss_mb", "peak_rss_mb_at_start")
# a ten-clock weight with a negative entry, summing to 1: no named weight reaches it
LIST_WEIGHT = [0.25, -0.05, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
# extra short-horizon runs: kind -> {variant suffix: controller settings}
SETTINGS = {
    "determinate-kf": {
        "weight-short": {"weight": "short"},
        "weight-last-clock": {"weight": "last-clock"},
        "weight-list": {"weight": LIST_WEIGHT},
    },
    "balanced": {
        "period-150-phase-37": {"period": 150, "phase": 37, "obs_gain_coeffs": [0.2, 1.0]},
        "weight-list": {"weight": LIST_WEIGHT},
    },
    "steer-to-clock": {"obs-gain-0.05-0.8": {"obs_gain_coeffs": [0.05, 0.8]}},
}


def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_side(src: Path, work: Path, selectors: dict) -> dict:
    """Run every bundled config of ``src`` in both variants under ``work``;
    returns {(variant, name): exit code}."""
    codes = {}
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    for path in sorted((src / "src" / "eemsync" / "configs").glob("*.json")):
        raw = json.loads(path.read_text())
        short = dict(raw, horizon=SHORT_HORIZON, outputs=list(selectors[raw["kind"]]))
        variants = [(f"horizon-{SHORT_HORIZON}", short), ("bundled", raw)]
        for suffix, settings in SETTINGS.get(raw["kind"], {}).items():
            controller = {**raw.get("controller", {}), **settings}
            variants.append((f"horizon-{SHORT_HORIZON}-{suffix}", dict(short, controller=controller)))
        for variant, cfg in variants:
            cfg_path = work / "configs" / variant / path.name
            cfg_path.parent.mkdir(parents=True, exist_ok=True)
            cfg_path.write_text(json.dumps(cfg))
            argv = [sys.executable, "-m", "eemsync.cli", "run", str(cfg_path), "--out", str(work / variant)]
            codes[variant, raw["name"]] = subprocess.run(argv, env=env, capture_output=True).returncode
    return codes


def fingerprint(path: Path) -> str:
    if path.name == "manifest.json":
        doc = json.loads(path.read_text())
        for key in VOLATILE:
            doc.pop(key, None)
        return json.dumps(doc, sort_keys=True)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def floats(doc, prefix: str = ""):
    """(dotted key, value) for every float in a parsed summary."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from floats(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(doc, float):
        yield prefix, doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from eemsync.scenarios import KINDS

    selectors = {kind: spec.outputs for kind, spec in KINDS.items()}
    tmp = Path(tempfile.mkdtemp(prefix="same-artifacts-"))
    try:
        (tmp / "parent").mkdir()
        export(args.parent, tmp / "parent")
        codes = {
            side: run_side(src, tmp / "runs" / side, selectors)
            for side, src in (("parent", tmp / "parent"), ("this", ROOT))
        }
        failed, differ, runs_compared, compared, worst = [], [], 0, 0, {}
        for variant, name in sorted(codes["parent"].keys() | codes["this"].keys()):
            code = {side: codes[side].get((variant, name)) for side in codes}
            if code["this"] != 0:
                failed.append(f"{variant}/{name}: exit {code['this']}")
            if code["parent"] != code["this"]:
                differ.append(f"{variant}/{name}: exit {code['parent']} -> {code['this']}")
            if set(code.values()) != {0}:
                continue
            runs_compared += 1
            dirs = [tmp / "runs" / side / variant / name for side in ("parent", "this")]
            files = sorted({p.name for d in dirs if d.is_dir() for p in d.iterdir()})
            for file in files:
                compared += 1
                a, b = (d / file for d in dirs)
                if not (a.is_file() and b.is_file()) or fingerprint(a) != fingerprint(b):
                    differ.append(f"{variant}/{name}/{file}")
            if all((d / "summary.json").is_file() for d in dirs):
                old, new = (dict(floats(json.loads((d / "summary.json").read_text()))) for d in dirs)
                for key in old.keys() & new.keys():
                    x, y = old[key], new[key]
                    rel = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
                    worst[f"{name}.{key}"] = max(worst.get(f"{name}.{key}", 0.0), rel)
        for line in failed:
            print(f"fails: {line}")
        for line in differ:
            print(f"differs: {line}")
        print("worst relative difference of each summary float:")
        for key, rel in sorted(worst.items()):
            print(f"  {key}: {rel:.3g}")
        runs = len(codes["this"])
        print(
            f"{runs} runs a side, {len(failed)} fail; "
            f"{runs_compared} runs and {compared} files compared, {len(differ)} differ"
        )
        return 1 if failed or differ else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
