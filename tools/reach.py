"""Print the lines of ``src/eemsync`` that no bundled run reaches.

    python3 tools/reach.py

Runs the nine bundled configs at horizon 2,000, each with every output
selector of its kind, one after another in this process under the
standard library's ``trace``; the package is imported under it, so its
module-level lines count too.  For each module of ``src/eemsync`` it
then prints the executable lines that no run reached: those inside a
``raise`` statement are marked ``raise``, those inside an ``except``
handler ``except``.  The runs write their artifacts into a temporary
directory, removed on exit.  It exits 1 if a run does not exit 0.  Takes
about 3 s on a two-core Xeon.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import json
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eemsync"
HORIZON = 2_000


def run_bundled() -> dict:
    """Run every bundled config at HORIZON with all its kind's outputs;
    returns {config name: exit code}."""
    from eemsync.cli import main
    from eemsync.scenarios import KINDS

    codes = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for path in sorted((PACKAGE / "configs").glob("*.json")):
            raw = json.loads(path.read_text())
            raw.update(horizon=HORIZON, outputs=list(KINDS[raw["kind"]].outputs))
            cfg = Path(tmp) / path.name
            cfg.write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes[raw["name"]] = main(["run", str(cfg), "--out", tmp])
    return codes


def executable_lines(code) -> set:
    """The lines on which ``code`` and the code objects nested in it start
    an instruction."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= executable_lines(const)
    return lines


def marks(tree: ast.AST) -> dict:
    """{line: "raise" or "except"} for the lines of every raise statement
    and every except handler; a raise inside a handler is marked raise."""
    found = {}
    for kind, node_type in (("except", ast.ExceptHandler), ("raise", ast.Raise)):
        for node in ast.walk(tree):
            if isinstance(node, node_type):
                found.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), kind))
    return found


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # every module is traced: trace's ignoredirs would be looked up by the
    # module's bare name, so numpy's __init__ would hide eemsync's
    tracer = trace.Trace(count=1, trace=0)
    codes = tracer.runfunc(run_bundled)
    reached = {}
    for (filename, line), _ in tracer.results().counts.items():
        reached.setdefault(Path(filename).resolve(), set()).add(line)
    for name, code in codes.items():
        print(f"{name}: exit {code}")
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        unreached = sorted(lines - reached.get(path, set()))
        total, missed = total + len(lines), missed + len(unreached)
        print(f"{path.relative_to(ROOT)}: {len(unreached)} of {len(lines)} executable lines unreached")
        text, kinds = source.splitlines(), marks(ast.parse(source))
        for line in unreached:
            print(f"  {line:4d}  {kinds.get(line, ''):6s}  {text[line - 1].strip()}")
    print(f"{missed} of {total} executable lines unreached")
    return 0 if set(codes.values()) == {0} else 1


if __name__ == "__main__":
    sys.exit(main())
