"""The ``[bench]`` marker of ``scripts/measure_coverage.py --traffic``.

``bench/`` reaches some of ``src/`` without importing it: ``bench/tracing.py``
wraps ``SystemState``'s and ``Pruner``'s methods by name through ``getattr``.
Such a method must be marked, or the report lists it as code nothing needs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "measure_coverage.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("measure_coverage", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reached(script):
    return script.bench_marker()


@pytest.mark.parametrize(
    "qualname",
    ["SystemState.chain", "SystemState.availability_excluding", "Pruner.should_defer"],
)
def test_methods_bench_wraps_by_name_are_marked(reached, qualname):
    assert reached(qualname)


def test_imported_names_and_their_attributes_are_marked(reached):
    assert reached("queue_completion_pmfs")  # imported by bench/micro.py
    assert reached("SweepSpec.total_trials")  # imported class, attribute read


def test_names_bench_never_mentions_are_not_marked(reached):
    assert not reached("SufferageTracker.record_failure")
    assert not reached("Pruner._prune_machine_queue_rebuilding")


def _functions_of(path: Path) -> set[str]:
    stack, names = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        names.add(code.co_qualname)
    return names


def test_allow_list_names_existing_functions(script):
    for key in script.ALLOWED:
        module, qualname = key.split(" ")
        assert qualname in _functions_of(script.PACKAGE / module), key


def test_allow_list_reasons_are_single_lines(script):
    for key, reason in script.ALLOWED.items():
        assert reason.strip() and "\n" not in reason, key


def test_check_fails_only_above_the_ratchet(script, capsys):
    # Nothing traced: every function counts as unrun, so the count is fixed.
    assert script._report_unrun() == 0
    unexplained = int(capsys.readouterr().out.rsplit("unexplained: ", 1)[1])
    assert unexplained > 0
    assert script._report_unrun(check=unexplained) == 0
    assert script._report_unrun(check=unexplained - 1) == 1
    assert "above the ratchet" in capsys.readouterr().err
