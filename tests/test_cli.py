"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.results import ExperimentResult


@pytest.fixture
def tiny_registry():
    """Swap the experiment registry for a tiny, fast, test-owned one."""
    saved = dict(EXPERIMENTS)
    EXPERIMENTS.clear()
    yield EXPERIMENTS
    EXPERIMENTS.clear()
    EXPERIMENTS.update(saved)


def _ok_runner(experiment_id):
    def run(scale=None, **kwargs):
        result = ExperimentResult(experiment_id=experiment_id, title="stub")
        result.add_row(value=1.0)
        return result

    return run


def _boom_runner(scale=None, **kwargs):
    raise RuntimeError("injected experiment failure")


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig6"])
        assert args.experiment == "fig6"
        assert args.scale == "ci"
        assert args.seed is None

    def test_run_with_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig4", "--scale", "quick", "--seed", "5", "--out", str(tmp_path)]
        )
        assert args.scale == "quick" and args.seed == 5

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--scale", "galactic"])

    def test_shard_supervision_flags(self):
        args = build_parser().parse_args(
            [
                "run", "fig4", "--sharded", "--shard-timeout", "1800",
                "--shard-retries", "2", "--serial-fallback",
            ]
        )
        assert args.sharded is True
        assert args.shard_timeout == 1800.0
        assert args.shard_retries == 2
        assert args.serial_fallback is True

    def test_shard_supervision_defaults(self):
        args = build_parser().parse_args(["run", "fig4"])
        assert args.sharded is False
        assert args.shard_timeout is None
        assert args.shard_retries == 1
        assert args.serial_fallback is False


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "ci" in out

    def test_run_datasets_and_save(self, capsys, tmp_path):
        assert main(["run", "datasets", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "beijing POIs" in out
        saved = json.loads((tmp_path / "datasets_ci.json").read_text())
        assert saved["experiment_id"] == "datasets"

    def test_run_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_resume_without_out_exits_2(self, capsys):
        assert main(["run", "datasets", "--resume"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_nonpositive_shard_timeout_exits_2(self, capsys):
        assert main(["run", "datasets", "--shard-timeout", "0"]) == 2
        assert "--shard-timeout" in capsys.readouterr().err

    def test_negative_shard_retries_exits_2(self, capsys):
        assert main(["run", "datasets", "--shard-retries", "-1"]) == 2
        assert "--shard-retries" in capsys.readouterr().err

    def test_nonpositive_jobs_exits_2(self, capsys):
        assert main(["run", "datasets", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sharded_flag_is_harmless_without_a_shard_axis(self, capsys):
        # 'datasets' has no shard axis: --sharded must fall back to the
        # serial runner without changing behaviour or exit code.
        assert main(["run", "datasets", "--sharded", "--shard-timeout", "60"]) == 0
        assert "beijing POIs" in capsys.readouterr().out

    def test_run_with_chart_flag(self, capsys):
        # 'datasets' has no chart: the flag must not crash or change exit.
        assert main(["run", "datasets", "--chart"]) == 0
        assert "beijing POIs" in capsys.readouterr().out


class TestBatchSemantics:
    """Exit codes and crash-safety of `run all` (tiny stub registry)."""

    def test_all_ok_exits_0(self, tiny_registry, capsys, tmp_path):
        tiny_registry["alpha"] = _ok_runner("alpha")
        tiny_registry["beta"] = _ok_runner("beta")
        assert main(["run", "all", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ran 2 ok, 0 skipped" in out
        assert (tmp_path / "alpha_ci.json").exists()
        assert (tmp_path / "beta_ci.json").exists()

    def test_failure_without_keep_going_stops_batch(self, tiny_registry, tmp_path):
        tiny_registry["boom"] = _boom_runner
        tiny_registry["after"] = _ok_runner("after")
        assert main(["run", "all", "--out", str(tmp_path)]) == 1
        # the batch stopped at the failure: 'after' never ran
        assert not (tmp_path / "after_ci.json").exists()

    def test_keep_going_runs_past_failure_and_exits_1(
        self, tiny_registry, capsys, tmp_path
    ):
        tiny_registry["boom"] = _boom_runner
        tiny_registry["after"] = _ok_runner("after")
        assert main(["run", "all", "--keep-going", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAILED boom" in out
        assert "injected experiment failure" in out
        # --keep-going carried the batch past the failure
        assert (tmp_path / "after_ci.json").exists()

    def test_resume_skips_checkpointed_experiments(
        self, tiny_registry, capsys, tmp_path
    ):
        calls = []
        ok = _ok_runner("alpha")

        def counting(scale=None, **kwargs):
            calls.append(1)
            return ok(scale=scale, **kwargs)

        tiny_registry["alpha"] = counting
        assert main(["run", "alpha", "--out", str(tmp_path)]) == 0
        assert main(["run", "alpha", "--out", str(tmp_path), "--resume"]) == 0
        assert len(calls) == 1  # the second invocation skipped the checkpoint
        assert "skipped" in capsys.readouterr().out

    def test_resume_reruns_after_failure(self, tiny_registry, tmp_path):
        attempts = []

        def flaky(scale=None, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first run crashes")
            return _ok_runner("flaky")(scale=scale, **kwargs)

        tiny_registry["flaky"] = flaky
        assert main(["run", "flaky", "--out", str(tmp_path), "--resume"]) == 1
        # no checkpoint was written for the failure, so resume retries it
        assert main(["run", "flaky", "--out", str(tmp_path), "--resume"]) == 0
        assert len(attempts) == 2


class TestServeAndLoadgenCommands:
    def test_serve_parse_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.city == "small"
        assert args.port == 8377
        assert args.budget_epsilon == 5.0
        assert args.budget_delta == 0.0
        assert args.epsilon == 1.0
        assert args.queue_capacity == 256
        assert args.workers == 1
        assert args.batch_max == 64
        assert args.ledger_dir is None
        assert args.attack_audit is False

    def test_loadgen_parse_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.url == "http://127.0.0.1:8377"
        assert args.profile == "smoke"
        assert args.seed == 0
        assert str(args.out) == "BENCH_serve.json"

    def test_loadgen_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen", "--profile", "galactic"])

    def test_serve_nonpositive_budget_exits_2(self, capsys):
        assert main(["serve", "--budget-epsilon", "0"]) == 2
        assert "budget-epsilon" in capsys.readouterr().err

    def test_serve_nonpositive_queue_exits_2(self, capsys):
        assert main(["serve", "--queue-capacity", "0"]) == 2
        assert "queue-capacity" in capsys.readouterr().err

    def test_serve_then_loadgen_end_to_end(self, capsys, tmp_path, monkeypatch):
        """The CI smoke path in miniature: serve + loadgen over HTTP."""
        import re
        import threading

        from repro.serve import httpapi

        started = threading.Event()
        servers: list[object] = []
        real_make_server = httpapi.make_server

        def spy_make_server(service, host="127.0.0.1", port=0):
            server = real_make_server(service, host=host, port=port)
            servers.append(server)
            started.set()
            return server

        monkeypatch.setattr(httpapi, "make_server", spy_make_server)
        rc: list[int] = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main(["serve", "--port", "0", "--seed", "1",
                      "--ledger-dir", str(tmp_path / "ledger")])
            ),
            daemon=True,
        )
        thread.start()
        try:
            assert started.wait(timeout=30), "server never came up"
            port = servers[0].server_address[1]
            out = tmp_path / "report.json"
            code = main([
                "loadgen",
                "--url", f"http://127.0.0.1:{port}",
                "--profile", "smoke",
                "--seed", "2",
                "--out", str(out),
            ])
            assert code == 0
            report = json.loads(out.read_text())
            assert report["fates_accounted"] is True
            assert report["n_submitted"] == 100
            printed = capsys.readouterr().out
            assert re.search(r"p50=\S+ p95=\S+ p99=\S+", printed)
        finally:
            if servers:
                servers[0].shutdown()
        thread.join(timeout=30)
        assert rc == [0]  # the serve command shut down cleanly

    def test_serve_starts_with_a_refused_journal_and_says_why(
        self, capsys, tmp_path, monkeypatch
    ):
        import threading

        from repro.serve import httpapi

        started = threading.Event()
        servers: list[object] = []
        real_make_server = httpapi.make_server

        def spy_make_server(service, host="127.0.0.1", port=0):
            server = real_make_server(service, host=host, port=port)
            servers.append(server)
            started.set()
            return server

        monkeypatch.setattr(httpapi, "make_server", spy_make_server)
        (tmp_path / "taken").write_text("a file where the journal's directory should be")
        journal = tmp_path / "taken" / "serve.jsonl"
        rc: list[int] = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main(["serve", "--port", "0", "--journal", str(journal)])
            ),
            daemon=True,
        )
        thread.start()
        try:
            assert started.wait(timeout=30), "server never came up"
        finally:
            if servers:
                servers[0].shutdown()
        thread.join(timeout=30)
        assert rc == [0]
        assert "journal disabled: journal open refused" in capsys.readouterr().err


class TestCrashsweepCommand:
    def test_parse_defaults(self):
        args = build_parser().parse_args(["crashsweep"])
        assert args.seed == 0
        assert args.scenario is None
        assert args.json is None

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["crashsweep", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_single_scenario_sweep_with_report(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "crashsweep", "--scenario", "checkpoint-overwrite",
            "--json", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed and "checkpoint-overwrite" in printed
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["sweeps"][0]["scenario"] == "checkpoint-overwrite"


class TestFederateRetentionFlags:
    def test_parse_default_keeps_everything(self):
        args = build_parser().parse_args(["federate"])
        assert args.keep_checkpoints is None

    def test_nonpositive_keep_checkpoints_exits_2(self, capsys):
        assert main(["federate", "--keep-checkpoints", "0"]) == 2
        assert "keep-checkpoints" in capsys.readouterr().err
