"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.simulator.engine import SimulatorConfig

#: Kernel backends earlier releases accepted (and tagged cache artefacts
#: with); the second is the retired portable one built on an array-namespace
#: standard.
RETIRED_BACKENDS = ("numba", "-".join(("array", "api")))


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.heuristic == "PAM"
        assert args.workload == "spec"

    def test_figure_arguments(self):
        args = build_parser().parse_args(["figure", "7", "--trials", "3"])
        assert args.command == "figure"
        assert args.numbers == [7]
        assert args.trials == 3

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "3"])

    def test_figure_takes_several_numbers(self):
        args = build_parser().parse_args(
            ["figure", "4", "7", "--jobs", "4", "--cache-dir", "cache/"]
        )
        assert args.command == "figure"
        assert args.numbers == [4, 7]
        assert args.jobs == 4
        assert args.cache_dir == "cache/"

    def test_figure_accepts_jobs_and_cache_dir(self):
        args = build_parser().parse_args(
            ["figure", "9", "--jobs", "2", "--cache-dir", "cache/"]
        )
        assert args.jobs == 2
        assert args.cache_dir == "cache/"

    def test_figure_rejects_an_unknown_number_among_several(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "4", "3"])

    def test_figure_is_the_only_figure_command(self):
        """``sweep`` was ``figure`` with several numbers; it is gone."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "4"])

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--heuristic", "WHAT"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["figure", "9"],
            ["figure", "4", "7"],
            ["trace", "replay", "t.json"],
            ["serve", "run", "--listen", "/tmp/s.sock"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_kernel_backend_rejected_everywhere(self, argv):
        """NumPy is the kernel: no command selects another."""
        parser = build_parser()
        assert "kernel_backend" not in vars(parser.parse_args(argv))
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--kernel-backend", "numpy"])

    @pytest.mark.parametrize("config_class", [SimulatorConfig, ExperimentConfig])
    def test_configs_accept_only_the_numpy_kernels(self, config_class):
        assert config_class(kernel_backend=None).kernel_backend is None
        assert config_class(kernel_backend="numpy").kernel_backend == "numpy"

    @pytest.mark.parametrize("retired", RETIRED_BACKENDS)
    @pytest.mark.parametrize("config_class", [SimulatorConfig, ExperimentConfig])
    def test_configs_reject_retired_backends(self, config_class, retired):
        with pytest.raises(ValueError, match=f"must be None or 'numpy', not '{retired}'"):
            config_class(kernel_backend=retired)

    def test_batch_window_argument(self):
        parser = build_parser()
        assert parser.parse_args(["figure", "9"]).batch_window == 0
        assert (
            parser.parse_args(["figure", "4", "7", "--batch-window", "8"]).batch_window == 8
        )
        assert (
            parser.parse_args(
                ["trace", "replay", "t.json", "--batch-window", "4"]
            ).batch_window
            == 4
        )
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "9", "--batch-window", "-1"])


#: Counts and trace paths from outside the program, and the error each gets.
BAD_INPUTS = [
    (["simulate", "--tasks", "0"], "argument --tasks: must be at least 1"),
    (["simulate", "--span", "0"], "argument --span: must be at least 1"),
    (
        ["trace", "record", "--workload", "spec", "--tasks", "-3"],
        "argument --tasks: must be at least 1",
    ),
    (["figure", "7", "--trials", "0"], "argument --trials: must be at least 1"),
    (["figure", "4", "7", "--trials", "0"], "argument --trials: must be at least 1"),
    (
        ["trace", "replay", "t.json", "--trials", "0"],
        "argument --trials: must be at least 1",
    ),
    (["figure", "7", "--task-scale", "0"], "argument --task-scale: must be positive"),
    (["trace", "inspect", "missing.json"], "trace file not found: missing.json"),
    (
        ["serve", "submit", "--connect", "unix:none.sock", "--trace", "missing.json"],
        "trace file not found: missing.json",
    ),
    (["serve", "bench", "--trace", "missing.json"], "trace file not found: missing.json"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS]
)
def test_bad_input_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    """Counts and trace paths come from outside: no traceback, one error line."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    code = exc.value.code
    error = code if isinstance(code, str) else captured.err.strip().splitlines()[-1]
    assert message in error and "\n" not in error
    assert "Traceback" not in captured.out + captured.err


#: Floats that reach the workload builders; ``nan <= 0`` is false, so a bare
#: sign check lets NaN through, and an infinite slack or scale overflows.
NON_FINITE_INPUTS = [
    (["simulate", "--tasks", "50", "--beta", "nan"], "argument --beta: must be a finite number"),
    (["simulate", "--tasks", "50", "--beta", "inf"], "argument --beta: must be a finite number"),
    (["simulate", "--tasks", "50", "--beta", "-1"], "argument --beta: must be non-negative"),
    (
        ["trace", "record", "--workload", "spec", "--beta", "nan", "--out", "t.json"],
        "argument --beta: must be a finite number",
    ),
    (
        ["trace", "record", "--workload", "spec", "--beta=-inf", "--out", "t.json"],
        "argument --beta: must be a finite number",
    ),
    (
        ["figure", "7", "--trials", "1", "--task-scale", "inf"],
        "argument --task-scale: must be a finite number",
    ),
    (
        ["figure", "7", "--trials", "1", "--task-scale", "nan"],
        "argument --task-scale: must be a finite number",
    ),
    (
        ["serve", "submit", "--connect", "x.sock", "--task", "0", "0", "5", "9", "--rate", "nan"],
        "argument --rate: must be a finite number",
    ),
]


@pytest.mark.parametrize(
    "argv, message", NON_FINITE_INPUTS, ids=[" ".join(argv) for argv, _ in NON_FINITE_INPUTS]
)
def test_non_finite_float_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    """Exit code 2 and one error line before any workload is built."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    error = captured.err.strip().splitlines()[-1]
    assert message in error
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "t.json").exists()


class TestSimulateCommand:
    def test_runs_small_simulation(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--heuristic",
                "MM",
                "--tasks",
                "60",
                "--span",
                "500",
                "--workload",
                "transcoding",
                "--warmup",
                "5",
                "--cooldown",
                "5",
                "--seed",
                "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "robustness" in captured
        assert "outcomes:" in captured

    def test_simulate_ignores_the_retired_backend_variable(self, capsys, monkeypatch):
        """``REPRO_KERNEL_BACKEND`` selected a backend once; now nothing reads it."""
        argv = ["simulate", "--heuristic", "MM", "--tasks", "40", "--span", "400",
                "--workload", "transcoding", "--seed", "3"]
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        assert "kernel backend" not in plain

    def test_pruning_heuristic_runs(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--heuristic",
                "PAMF",
                "--tasks",
                "50",
                "--span",
                "400",
                "--workload",
                "transcoding",
                "--seed",
                "4",
                "--warmup",
                "5",
                "--cooldown",
                "5",
            ]
        )
        assert exit_code == 0
        assert "cost / percent" in capsys.readouterr().out


class TestFigureCommand:
    def test_figure9_with_artifacts(self, tmp_path, capsys):
        exit_code = main(
            [
                "figure",
                "9",
                "--trials",
                "1",
                "--task-scale",
                "0.4",
                "--output-dir",
                str(tmp_path),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 9" in captured
        records = json.loads((tmp_path / "figure9.json").read_text())
        assert records and "heuristic" in records[0]
        assert (tmp_path / "figure9.csv").exists()
        assert (tmp_path / "figure9.txt").exists()

    def test_figure_streams_progress_and_hits_cache(self, tmp_path, capsys):
        argv = [
            "figure",
            "9",
            "--trials",
            "1",
            "--task-scale",
            "0.4",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        assert "robustness" in captured.err  # per-point progress on stderr

        # Warm rerun: every point reported as a cache hit.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        assert "cache" in captured.err

    def test_figure_quiet_suppresses_progress(self, tmp_path, capsys):
        assert (
            main(
                [
                    "figure",
                    "9",
                    "--trials",
                    "1",
                    "--task-scale",
                    "0.4",
                    "--cache-dir",
                    str(tmp_path),
                    "--quiet",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("quiet", [False, True], ids=["progress", "quiet"])
    def test_jobs_2_prints_the_jobs_1_tables(self, quiet, capsys):
        argv = ["figure", "9", "--trials", "2", "--task-scale", "0.3"]
        if quiet:
            argv.append("--quiet")
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "4", "7", "--queue-dir", "q"],
            ["figure", "4", "--queue-workers", "2"],
            ["trace", "replay", "t.json", "--queue-dir", "q"],
            ["worker", "--queue-dir", "q"],
            ["queue", "status", "--queue-dir", "q"],
        ],
        ids=["queue-dir", "queue-workers", "replay-queue-dir", "worker", "queue"],
    )
    def test_only_jobs_and_cache_dir_choose_how_trials_run(self, argv):
        """Trials run in-process or in a pool, chosen by ``--jobs``; there is
        no work-queue option or worker command to select."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestTraceCommand:
    def test_record_inspect_replay_round_trip(self, tmp_path, capsys):
        trace_file = tmp_path / "recorded.trace.json"
        assert (
            main(
                [
                    "trace",
                    "record",
                    "--builder",
                    "transcoding-660",
                    "--tasks",
                    "40",
                    "--seed",
                    "7",
                    "--out",
                    str(trace_file),
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert trace_file.exists()
        assert "tasks              : 40" in captured
        assert "content sha256" in captured

        assert main(["trace", "inspect", str(trace_file)]) == 0
        captured = capsys.readouterr().out
        assert "tasks              : 40" in captured

        cache_dir = tmp_path / "cache"
        argv = [
            "trace",
            "replay",
            str(trace_file),
            "--heuristics",
            "PAMF",
            "MM",
            "--trials",
            "1",
            "--cache-dir",
            str(cache_dir),
            "--quiet",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr().out
        assert "replay,PAMF" in captured
        assert "replay,MM" in captured

        # Warm rerun executes nothing.
        assert main(argv) == 0
        captured = capsys.readouterr().out
        assert "0 trials executed" in captured

    def test_replay_jobs_2_matches_jobs_1(self, capsys):
        argv = [
            "trace",
            "replay",
            "examples/transcoding_660.trace.json",
            "--heuristics",
            "PAMF",
            "MM",
            "--trials",
            "2",
            "--quiet",
        ]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_record_synthetic_workload(self, tmp_path, capsys):
        trace_file = tmp_path / "synthetic.trace.json"
        argv = [
            "trace",
            "record",
            "--workload",
            "transcoding",
            "--tasks",
            "30",
            "--span",
            "400",
            "--out",
            str(trace_file),
        ]
        assert main(argv) == 0
        assert trace_file.exists()
        assert "synthetic" in capsys.readouterr().out

    def test_figure9_accepts_trace_file(self, tmp_path, capsys):
        trace_file = tmp_path / "small.trace.json"
        main(
            [
                "trace",
                "record",
                "--builder",
                "transcoding-660",
                "--tasks",
                "40",
                "--out",
                str(trace_file),
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "figure",
                    "9",
                    "--trials",
                    "1",
                    "--trace",
                    str(trace_file),
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--quiet",
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "replay" in captured

    def test_trace_rejected_for_other_figures(self, tmp_path):
        with pytest.raises(SystemExit, match="only applies to figure 9"):
            main(["figure", "4", "--trace", "whatever.json", "--trials", "1"])

    def test_trace_rejected_before_any_figure_runs(self, tmp_path, capsys):
        """A figure the trace does not apply to fails the whole command up
        front, even after figure 9 in the list: nothing runs or prints."""
        cache_dir = tmp_path / "cache"
        argv = ["figure", "9", "4", "--trace", "examples/transcoding_660.trace.json",
                "--trials", "1", "--cache-dir", str(cache_dir)]
        with pytest.raises(SystemExit, match="only applies to figure 9.*not figure 4"):
            main(argv)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    def test_replay_missing_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="trace file not found"):
            main(["trace", "replay", str(tmp_path / "nope.json"), "--trials", "1"])

    def test_figure9_missing_trace_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="trace file not found"):
            main(["figure", "9", "--trace", str(tmp_path / "nope.json"), "--trials", "1"])

    @pytest.mark.parametrize("command", ["trace replay", "figure 9 --trace"])
    def test_trace_with_more_task_types_than_the_pet_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        """One check, shared by both replay paths, before any trial runs."""
        trace_file = tmp_path / "spec.trace.json"
        main(["trace", "record", "--workload", "spec", "--tasks", "30", "--out", str(trace_file)])
        capsys.readouterr()
        cache_dir = tmp_path / "cache"
        argv = [*command.split(), str(trace_file), "--trials", "1", "--cache-dir", str(cache_dir)]
        with pytest.raises(SystemExit, match="task types but the 'transcoding' PET only has 4") as exc:
            main(argv)
        assert "repro trace record --builder transcoding-660" in str(exc.value)
        assert capsys.readouterr().out == ""
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    def test_record_builder_rejects_span_and_beta(self, tmp_path):
        with pytest.raises(SystemExit, match="only apply to synthetic"):
            main(
                [
                    "trace",
                    "record",
                    "--builder",
                    "transcoding-660",
                    "--span",
                    "500",
                    "--out",
                    str(tmp_path / "t.json"),
                ]
            )

    def test_inspect_corrupt_file_names_task(self, tmp_path):
        trace_file = tmp_path / "bad.trace.json"
        main(
            [
                "trace",
                "record",
                "--builder",
                "transcoding-660",
                "--tasks",
                "5",
                "--out",
                str(trace_file),
            ]
        )
        payload = json.loads(trace_file.read_text())
        del payload["tasks"][2]["deadline"]
        trace_file.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="task 2: missing field 'deadline'"):
            main(["trace", "inspect", str(trace_file)])


class TestCacheCommands:
    @staticmethod
    def _store_artefact(cache_dir, seed=5):
        from repro.experiments.config import ExperimentConfig
        from repro.sweep import HeuristicSpec, PETSpec, ResultCache, SweepPoint, TrialMetrics
        from repro.workload.generator import WorkloadConfig

        point = SweepPoint(
            label="demo",
            pet=PETSpec(kind="spec", seed=seed),
            heuristic=HeuristicSpec(name="MM"),
            workload=WorkloadConfig(num_tasks=40, time_span=300, beta=1.5),
            config=ExperimentConfig(trials=1, seed=seed),
        )
        trials = [
            TrialMetrics(
                robustness_percent=50.0,
                fairness_variance=1.0,
                total_cost=2.0,
                cost_per_percent_on_time=0.04,
                completed_on_time=10,
                total_tasks=40,
                per_type_completion_percent=(50.0,),
            )
        ]
        return ResultCache(cache_dir).store(point, trials)

    def test_cache_stats_reports_kernel_versions(self, tmp_path, capsys):
        from repro.core.batch import KERNEL_VERSION

        self._store_artefact(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries            : 1" in out
        assert str(KERNEL_VERSION) in out
        assert "current" in out

    def test_cache_gc_drops_stale_kernel_versions(self, tmp_path, capsys):
        path = self._store_artefact(tmp_path)
        # Current-version artefacts survive a default gc...
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0 artefact(s)" in capsys.readouterr().out
        assert path.exists()
        # ...a dry run against another version reports but keeps them...
        assert (
            main(
                [
                    "cache", "gc", "--cache-dir", str(tmp_path),
                    "--kernel-version", "v-next", "--dry-run",
                ]
            )
            == 0
        )
        assert "would remove 1 artefact(s)" in capsys.readouterr().out
        assert path.exists()
        # ...and a real gc against another version drops them.
        assert (
            main(
                ["cache", "gc", "--cache-dir", str(tmp_path), "--kernel-version", "v-next"]
            )
            == 0
        )
        assert "removed 1 artefact(s)" in capsys.readouterr().out
        assert not path.exists()

    def test_cache_stats_and_gc_on_legacy_backend_tags(self, tmp_path, capsys):
        """Composite ``"<version>+<backend>"`` tags from earlier releases are
        listed under their own tag as stale, and gc removes them."""
        import json

        from repro.core.batch import KERNEL_VERSION

        current = self._store_artefact(tmp_path)
        payload = json.loads(current.read_text())
        legacy_tags = [f"{KERNEL_VERSION}+{name}" for name in RETIRED_BACKENDS]
        legacy_paths = []
        for index, tag in enumerate(legacy_tags):
            payload["point"]["engine"] = tag
            path = tmp_path / "ff" / f"{index:064x}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(payload))
            legacy_paths.append(path)

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries            : 3" in out
        assert "corrupt            : 0" in out
        for tag in legacy_tags:
            [row] = [line for line in out.splitlines() if tag in line]
            assert "stale" in row

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 artefact(s)" in capsys.readouterr().out
        assert current.exists()
        assert not any(path.exists() for path in legacy_paths)

    @pytest.mark.parametrize("body", ["[]", '"x"', "null"])
    def test_cache_stats_and_gc_count_malformed_artefacts_as_corrupt(
        self, tmp_path, capsys, body
    ):
        good = self._store_artefact(tmp_path)
        bad = tmp_path / "ab" / f"{0:064x}.json"
        bad.parent.mkdir()
        bad.write_text(body)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries            : 2" in out
        assert "corrupt            : 1" in out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 artefact(s)" in capsys.readouterr().out
        assert good.exists() and not bad.exists()

    def test_cache_gc_has_no_backend_filter(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cache", "gc", "--cache-dir", str(tmp_path), "--kernel-backend", "numpy"]
            )


class TestServeCommands:
    def test_run_requires_socket(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "run"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["serve", "run", "--listen", "/tmp/s.sock"])
        assert args.serve_command == "run"
        assert args.pet == "transcoding"
        assert args.heuristic == "PAMF"
        assert args.drain_grace == 5.0
        assert args.inbox_limit == 1024
        assert args.listen == "/tmp/s.sock"

    def test_run_accepts_tcp_listen_and_inbox_limit(self):
        args = build_parser().parse_args(
            ["serve", "run", "--listen", "tcp:127.0.0.1:0", "--inbox-limit", "64"]
        )
        assert args.listen == "tcp:127.0.0.1:0"
        assert args.inbox_limit == 64

    def test_workers_flag_is_gone(self):
        """One service schedules the one system: no parser shards it."""
        for argv in (
            ["serve", "run", "--listen", "/tmp/s.sock", "--workers", "2"],
            ["serve", "bench", "--workers", "2"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_one_endpoint_flag_per_command(self):
        """A bare path is an endpoint: ``--listen``/``--connect`` take it, and
        the old ``--socket`` alias is gone from both commands."""
        for argv in (
            ["serve", "run", "--socket", "/tmp/s.sock"],
            ["serve", "submit", "--socket", "/tmp/s.sock", "--trace", "t.json"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    def test_submit_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "submit", "--trace", "t.json"])
        args = build_parser().parse_args(
            ["serve", "submit", "--connect", "tcp:127.0.0.1:7077", "--trace", "t.json"]
        )
        assert args.connect == "tcp:127.0.0.1:7077"

    def test_submit_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "submit", "--connect", "/tmp/s.sock"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "serve", "submit", "--connect", "/tmp/s.sock",
                    "--trace", "t.json", "--task", "1", "0", "0", "50",
                ]
            )

    def test_bench_defaults(self):
        args = build_parser().parse_args(["serve", "bench"])
        assert args.serve_command == "bench"
        assert args.trace == "examples/transcoding_660.trace.json"
        assert args.rates == [10.0, 100.0, 1000.0]
        assert args.out == "BENCH_serve.json"
        assert not args.no_check
        assert args.transport == "unix"
        assert args.inbox_limit == 1024

    def test_bench_transport_and_inbox_flags(self):
        args = build_parser().parse_args(
            ["serve", "bench", "--transport", "tcp", "--inbox-limit", "8"]
        )
        assert args.transport == "tcp"
        assert args.inbox_limit == 8
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "bench", "--transport", "udp"])

    def test_bench_rejects_nonpositive_rate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "bench", "--rates", "0"])

    def test_bench_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        exit_code = main(
            [
                "serve", "bench",
                "--trace", "examples/transcoding_660.trace.json",
                "--tasks", "12",
                "--rates", "500", "5000",
                "--out", str(out),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "replay-equivalent to offline run: True" in captured.out
        assert f"wrote {out}" in captured.out
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "repro.serve"
        assert payload["trace_tasks"] == 12
        assert [row["multiplier"] for row in payload["rates"]] == [500.0, 5000.0]
        assert payload["transport"] == "unix"
        assert "workers" not in payload

    def test_bench_tcp_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve_tcp.json"
        exit_code = main(
            [
                "serve", "bench",
                "--trace", "examples/transcoding_660.trace.json",
                "--tasks", "12",
                "--rates", "2000",
                "--transport", "tcp",
                "--out", str(out),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "replay-equivalent to offline run: True" in captured.out
        payload = json.loads(out.read_text())
        assert payload["transport"] == "tcp"
        assert payload["equivalent_to_offline"] is True
