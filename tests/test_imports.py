"""Import boundary: SciPy loads only for the kinds that step a time-varying
Kalman filter, and then only the bare package and its LAPACK extension,
not ``scipy.linalg``.

Each test runs a script in a fresh interpreter, because the test session
itself has SciPy loaded already.  The script prints one JSON document.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import eemsync

SRC = str(Path(eemsync.__file__).resolve().parents[1])

PRELUDE = """
import json, sys, tempfile
from importlib import resources

import eemsync
from eemsync import ConfigError, run_scenario, validate_config
from eemsync.cli import main

out = tempfile.mkdtemp()
report = {}


def config(name, horizon=200):
    raw = json.loads((resources.files("eemsync") / "configs" / f"{name}.json").read_text())
    raw["horizon"] = horizon
    return raw


def loaded():
    watched = ("scipy", "scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma")
    return sorted(m for m in watched if m in sys.modules)
"""


def run_script(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    script = PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(report))\n"
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_only_the_offline_filter_kinds_load_scipy():
    report = run_script(
        """
        report["import"] = loaded()
        report["list"] = main(["list-scenarios"])
        report["validate"] = main(["validate", "free_run"])
        report["cli"] = loaded()
        scipy_versions = []
        for name in ("free_run", "sync_simple_average"):
            manifest = run_scenario(validate_config(config(name)), out)
            scipy_versions.append(manifest["versions"]["scipy"])
        report["runs"] = loaded()
        validate_config(config("determinate_kf"))
        report["offline_validated"] = loaded()
        for name in ("determinate_kf", "free_run"):
            manifest = run_scenario(validate_config(config(name)), out)
            scipy_versions.append(manifest["versions"]["scipy"])
        report["scipy_versions"] = scipy_versions
        report["offline_runs"] = loaded()
        # loaded before scipy.linalg, the routine is still its dposv
        from eemsync.filters import lapack_cholesky
        import scipy.linalg.lapack

        report["same_dposv"] = lapack_cholesky() is scipy.linalg.lapack.dposv
        """
    )
    assert report["import"] == []
    assert report["list"] == 0 and report["validate"] == 0
    assert report["cli"] == []
    assert report["runs"] == []
    assert report["offline_validated"] == ["scipy"]
    assert report["offline_runs"] == ["scipy"]
    assert report["same_dposv"] is True
    first, second, offline, free_after = report["scipy_versions"]
    assert first is None and second is None
    assert isinstance(offline, str) and offline
    assert free_after is None


def test_missing_scipy_is_a_config_error_for_the_offline_kinds():
    report = run_script(
        """
        sys.modules["scipy"] = None
        problems = {}
        for name in ("standard_kf", "standard_kf_suboptimal", "determinate_kf"):
            try:
                validate_config(config(name))
            except ConfigError as exc:
                problems[name] = exc.problems
        report["problems"] = problems
        report["cli_validate"] = main(["validate", "determinate_kf"])
        manifest = run_scenario(validate_config(config("free_run")), out)
        report["free_run"] = [manifest["status"], manifest["versions"]["scipy"]]
        """
    )
    assert sorted(report["problems"]) == ["determinate_kf", "standard_kf", "standard_kf_suboptimal"]
    for problems in report["problems"].values():
        assert len(problems) == 1 and "needs SciPy" in problems[0]
    assert report["cli_validate"] == 2
    assert report["free_run"] == ["ok", None]


def test_lapack_cholesky_is_scipy_dposv():
    # the same routine object that scipy.linalg.lapack exports, so every
    # gain solve is the one SciPy's own wrapper would make, bit for bit
    import scipy.linalg.lapack

    from eemsync.filters import lapack_cholesky

    assert lapack_cholesky() is scipy.linalg.lapack.dposv


def test_missing_lapack_extension_is_a_config_error():
    # SciPy imports, but its LAPACK extension is not where the package says
    report = run_script(
        """
        import contextlib, io
        import scipy

        scipy.__path__ = [out]  # an empty directory
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            report["code"] = main(["validate", "determinate_kf"])
        report["problems"] = [line for line in err.getvalue().splitlines() if line.startswith("  - ")]
        """
    )
    assert report["code"] == 2
    assert len(report["problems"]) == 1
    assert "needs SciPy" in report["problems"][0] and "scipy.linalg._flapack" in report["problems"][0]
