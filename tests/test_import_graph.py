"""What a ``repro`` process imports before it does anything.

scipy costs about a second and ~60 MiB to import and the package uses it
for one thing — the Student-t quantile behind figure confidence intervals
(``repro.utils.stats.confidence_interval_95``).  A process that parses a
command line, runs a trial or serves submissions must never load it; nor
should ``import repro`` load the sweep fabric or the figure drivers before
something asks for them, nor a process that only compares decisions load
the asyncio server, nor a wire client or a trace slice load asyncio.  Each
check runs in a fresh interpreter because this test process has long since
imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prepended to every child's code: the loaded modules under the given packages.
LOADED = (
    "def loaded(*packages):\n"
    "    import sys\n"
    "    return sorted(m for m in sys.modules\n"
    "                  if any(m == p or m.startswith(p + '.') for p in packages))\n"
)


def _python(code: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))  # fmt: skip
    return subprocess.Popen(
        [sys.executable, "-c", LOADED + code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _run(code: str) -> str:
    child = _python(code)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    return out


def test_cli_import_and_a_trial_load_neither_scipy_nor_the_sweep_fabric():
    out = _run(
        "import repro.cli\n"
        "print(loaded('scipy', 'repro.sweep', 'repro.experiments'))\n"
        "import repro\n"
        "pet = repro.build_spec_pet(rng=1)\n"
        "trace = repro.generate_workload(\n"
        "    repro.WorkloadConfig(num_tasks=50, time_span=500), pet, rng=2)\n"
        "result = repro.simulate(pet, repro.make_heuristic('PAMF', num_task_types=12), trace, rng=3)\n"
        "assert len(result.tasks) == 50\n"
        "print(loaded('scipy', 'repro.sweep', 'repro.experiments'))\n"
    )
    assert out.splitlines() == ["[]", "[]"]


def test_lazy_exports_keep_the_public_names():
    """Every ``__all__`` name resolves (so ``import *`` works) in the
    package and the subpackages whose exports get trimmed."""
    out = _run(
        "import repro\n"
        "from repro import run_fig7\n"
        "assert callable(repro.run_sweep) and callable(run_fig7)\n"
        "assert repro.SweepSpec is repro.sweep.SweepSpec\n"
        "assert repro.ExperimentConfig is repro.experiments.ExperimentConfig\n"
        "import importlib\n"
        "for package in ('repro', 'repro.core', 'repro.simulator', 'repro.heuristics',\n"
        "                'repro.serve'):\n"
        "    module = importlib.import_module(package)\n"
        "    missing = [name for name in module.__all__ if not hasattr(module, name)]\n"
        "    assert not missing, (package, missing)\n"
        "    assert len(set(module.__all__)) == len(module.__all__), package\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
        "print(loaded('scipy'))\n"
    )
    assert out.splitlines() == ["[]"]


def test_offline_decision_view_loads_no_network_stack():
    """The decision digests and the perf ledger read ``offline_decision_map``
    of a finished trial; that must not import the asyncio server half."""
    out = _run(
        "from repro.serve.service import offline_decision_map\n"
        "import repro\n"
        "pet = repro.build_spec_pet(rng=1)\n"
        "trace = repro.generate_workload(\n"
        "    repro.WorkloadConfig(num_tasks=30, time_span=300), pet, rng=2)\n"
        "result = repro.simulate(pet, repro.make_heuristic('PAMF', num_task_types=12), trace, rng=3)\n"
        "assert len(offline_decision_map(result)) == 30\n"
        "print(loaded('asyncio', 'repro.serve.protocol', 'repro.serve.loadgen',\n"
        "             'repro.serve.server'))\n"
    )
    assert out.splitlines() == ["[]"]


def test_wire_codec_loads_no_network_stack():
    """A client that only encodes and decodes JSON lines (the serve bench's
    socket client) must not load asyncio or ssl for ``open_endpoint``."""
    out = _run(
        "from repro.serve.protocol import (\n"
        "    decode_line, encode_line, spec_from_payload, spec_to_payload)\n"
        "from repro.workload.spec import TaskSpec\n"
        "spec = TaskSpec(task_id=3, task_type=1, arrival=5, deadline=400)\n"
        "line = encode_line({'op': 'submit', 'task': spec_to_payload(spec)})\n"
        "assert spec_from_payload(decode_line(line)['task']) == spec\n"
        "print(loaded('asyncio', 'ssl', 'repro.serve.server'))\n"
    )
    assert out.splitlines() == ["[]"]


def test_trace_slice_loads_no_network_stack():
    """``slice_trace`` (a trial's batching check) must not import the
    asyncio server the rest of the load generator drives."""
    out = _run(
        "from repro.serve.loadgen import slice_trace\n"
        "import repro\n"
        "pet = repro.build_spec_pet(rng=1)\n"
        "trace = repro.generate_workload(\n"
        "    repro.WorkloadConfig(num_tasks=30, time_span=300), pet, rng=2)\n"
        "assert len(slice_trace(trace, 10)) == 10\n"
        "print(loaded('asyncio', 'ssl', 'repro.serve.server'))\n"
    )
    assert out.splitlines() == ["[]"]


def test_serve_package_loads_no_submodule_until_a_name_is_read():
    out = _run(
        "import repro.serve\n"
        "print(loaded('repro.serve'))\n"
        "repro.serve.SchedulerCore\n"
        "print(loaded('repro.serve'))\n"
    )
    assert out.splitlines() == [
        "['repro.serve']",
        "['repro.serve', 'repro.serve.metrics', 'repro.serve.service']",
    ]


def test_serve_run_child_serves_a_submission_without_scipy(tmp_path, capsys):
    from repro.cli import main

    sock = tmp_path / "serve.sock"
    child = _python(
        "import sys\n"
        "from repro.cli import main\n"
        f"code = main(['serve', 'run', '--listen', {str(sock)!r}, '--heuristic', 'PAMF', '--seed', '5'])\n"
        "print('loaded:', loaded('scipy', 'repro.sweep', 'repro.experiments', 'multiprocessing',\n"
        "                        'repro.serve.loadgen'))\n"
        "sys.exit(code)\n"
    )
    try:
        deadline = time.monotonic() + 60.0
        while not sock.exists():
            assert child.poll() is None, child.stderr.read()
            assert time.monotonic() < deadline, "serve run did not start listening"
            time.sleep(0.01)
        # A task type outside the PET is the service's per-task error: the
        # client says so and exits 1, and the service serves on.
        assert main(["serve", "submit", "--connect", str(sock), "--task", "0", "99", "5", "400"]) == 1
        assert "task 0 has type 99, but the PET has" in capsys.readouterr().err
        # One accepted submission, then ``--close`` drains the service and
        # the child's ``main`` returns.
        assert main(["serve", "submit", "--connect", str(sock), "--task", "0", "0", "5", "400", "--close"]) == 0
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 0, err
    assert '"submitted": 1,' in out and '"completed": 1,' in out and '"rejected": 1,' in out
    assert "loaded: []" in out.splitlines()
