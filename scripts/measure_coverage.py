"""Measure line coverage of ``src/repro`` under the test suite, stdlib-only.

The CI coverage ratchet (``--cov-fail-under`` in ``.github/workflows/ci.yml``)
needs a measured baseline, but the development container does not ship
``coverage``/``pytest-cov``.  This script approximates the same line metric
with ``sys.settrace``: executable lines come from walking each module's
compiled code objects (``co_lines``), executed lines from a trace function
that only pays per-line cost inside ``src/repro``.

It underestimates slightly relative to ``coverage.py`` (subprocess workers
spawned by the parallel-executor tests are not traced here, and no pragma
exclusions apply), which is the safe direction for a ratchet.

Usage::

    python scripts/measure_coverage.py [pytest args...]
    python scripts/measure_coverage.py --dump part1.json tests/core tests/workload
    python scripts/measure_coverage.py --merge part1.json part2.json
    python scripts/measure_coverage.py --traffic

Defaults to the whole suite with benchmarks disabled — mirror of the CI
coverage job's invocation.  ``--dump`` writes the executed-line sets to a
JSON file instead of reporting (so long suites can be measured in chunks
within one interpreter lifetime each); ``--merge`` unions previously
dumped chunks into one report without running anything.

``--traffic`` runs what the program is run for instead of the tests —
``simulate`` for the six mappers per-event and batched on both PETs,
traced and untraced; ``figure 4 5 6 7 8 9`` cold, warm and with
``--batch-window``; ``cache stats``/``gc``; ``trace record``/``inspect``/
``replay``; ``serve bench``; the perf ledger's three trial shapes and the
serving core in process — and lists every function of ``src/repro``
whose body never ran, ``[bench]`` beside those that ``bench/`` imports
(code that only tests call is a second copy of what runs).  Everything
runs in this process at smoke sizes, in a temporary directory, in about
a minute; what a forked service does is not seen.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

sys.path.insert(0, str(SRC))

_executed: dict[str, set[int]] = {}
#: ``(filename, first line, name)`` of every code object that was called.
_called: set[tuple[str, int, str]] = set()
_prefix = str(PACKAGE) + "/"


def _trace(frame, event, arg):
    code = frame.f_code
    filename = code.co_filename
    if not filename.startswith(_prefix):
        return None
    lines = _executed.setdefault(filename, set())
    _called.add((filename, code.co_firstlineno, code.co_name))

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    if event == "call":
        lines.add(frame.f_lineno)
        return local
    return None


def executable_lines(path: Path) -> set[int]:
    """Line numbers with bytecode, from the compiled module's code objects."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, _, line in obj.co_lines():
            if line is not None:
                lines.add(line)
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # Module docstrings/constants land on line events rarely; keep them —
    # they execute at import and the tracer sees them.
    return lines


def _report() -> None:
    total_executable = 0
    total_hit = 0
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        possible = executable_lines(path)
        hit = _executed.get(str(path), set()) & possible
        total_executable += len(possible)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(possible) if possible else 100.0
        rows.append((path.relative_to(SRC), len(possible), len(hit), pct))

    print()
    print(f"{'module':<48} {'lines':>6} {'hit':>6} {'cover':>7}")
    for rel, possible, hit, pct in rows:
        print(f"{str(rel):<48} {possible:>6} {hit:>6} {pct:>6.1f}%")
    overall = 100.0 * total_hit / total_executable if total_executable else 100.0
    print(f"{'TOTAL':<48} {total_executable:>6} {total_hit:>6} {overall:>6.1f}%")
    print(f"\nmeasured line coverage: {overall:.2f}%")


def _traffic(workdir: Path) -> None:
    """The command set of ``--traffic``, run in this process."""
    from repro.cli import main as cli

    reference = str(ROOT / "examples" / "transcoding_660.trace.json")
    trace, cache = str(workdir / "t.json"), str(workdir / "cache")
    commands = []
    for workload in ("spec", "transcoding"):
        for heuristic in ("MM", "MSD", "MMU", "MOC", "PAM", "PAMF"):
            for window in ("0", "120"):
                commands.append(
                    ["simulate", "--heuristic", heuristic, "--workload", workload, "--tasks", "80",
                     "--span", "400", "--warmup", "5", "--cooldown", "5", "--batch-window", window]
                )
        commands.append(commands[-1] + ["--obs-trace", str(workdir / "o.json"),
                                        "--obs-snapshot", str(workdir / "s.json")])
    figures = ["figure", "4", "5", "6", "7", "8", "9", "--trials", "1", "--task-scale", "0.2",
               "--cache-dir", cache, "--quiet"]
    commands += [figures, figures, figures + ["--batch-window", "120"]]
    commands += [
        ["cache", "stats", "--cache-dir", cache],
        ["cache", "gc", "--cache-dir", cache, "--dry-run"],
        ["trace", "record", "--builder", "transcoding-660", "--tasks", "80", "--out", trace],
        ["trace", "inspect", trace],
        ["trace", "replay", trace, "--heuristics", "PAMF", "MM", "--trials", "2",
         "--cache-dir", cache, "--quiet"],
        ["serve", "bench", "--trace", reference, "--tasks", "24", "--rates", "2000",
         "--out", str(workdir / "b.json")],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli(argv)
        if code:
            print(f"exit {code}: repro {' '.join(argv)}", file=sys.stderr)

    sys.path.insert(0, str(ROOT))
    from bench import serve, trial
    from bench.common import Options

    from repro.heuristics.registry import make_heuristic
    from repro.serve.service import SchedulerCore

    options = Options(smoke=True)
    for shape in trial.SHAPES.values():
        pet, specs, _ = trial.build_inputs(shape, options)
        trial.run_repetition(pet, specs, shape, options)
    pet, specs, _ = serve.build_inputs(options)
    core = SchedulerCore(pet, make_heuristic("PAMF", num_task_types=pet.num_task_types), rng=5)
    for spec in specs:
        core.submit(spec)
    core.close()


def _bench_uses() -> tuple[set[str], set[str]]:
    """Names ``bench/`` imports from ``repro``, and attribute names it reads."""
    imported: set[str] = set()
    attributes: set[str] = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return imported, attributes


def _report_unrun() -> None:
    """Every named function of ``src/repro`` that no call entered."""
    imported, attributes = _bench_uses()
    unrun, total = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_lines"):
                    stack.append(const)
            if code.co_name.startswith("<"):
                continue
            total += 1
            if (str(path), code.co_firstlineno, code.co_name) not in _called:
                owner = code.co_qualname.split(".")[0]
                used = code.co_name in imported or (
                    owner in imported and code.co_name in attributes
                )
                where = f"{path.relative_to(SRC)}:{code.co_firstlineno}"
                unrun.append(f"{where} {code.co_qualname}{' [bench]' if used else ''}")
    print(f"functions of src/repro whose body never ran: {len(unrun)} of {total}")
    for line in sorted(unrun):
        print(f"  {line}")


def main() -> int:
    argv = sys.argv[1:]

    if argv and argv[0] == "--traffic":
        threading.settrace(_trace)
        sys.settrace(_trace)
        try:
            with tempfile.TemporaryDirectory() as workdir:
                _traffic(Path(workdir))
        finally:
            sys.settrace(None)
            threading.settrace(None)
        _report_unrun()
        return 0

    if argv and argv[0] == "--merge":
        for dump in argv[1:]:
            for filename, lines in json.loads(Path(dump).read_text()).items():
                _executed.setdefault(filename, set()).update(lines)
        _report()
        return 0

    dump_path: Path | None = None
    if argv and argv[0] == "--dump":
        dump_path = Path(argv[1])
        argv = argv[2:]

    import pytest

    args = argv or ["-q", "--benchmark-disable", "-p", "no:cacheprovider"]
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        exit_code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    if dump_path is not None:
        dump_path.write_text(
            json.dumps({k: sorted(v) for k, v in _executed.items()})
        )
        print(f"\ndumped executed lines for {len(_executed)} files -> {dump_path}")
    else:
        _report()
    print(f"(pytest exit {exit_code})")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
