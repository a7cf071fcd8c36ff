"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import WORKLOADS, build_parser, main


class TestParser:
    def test_all_workloads_registered(self):
        assert set(WORKLOADS) == {
            "lulesh", "amg", "blackscholes", "umt", "sweep", "hotspot"
        }

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.machine is None
        assert not args.optimize

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_mechanism_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--mechanism", "XYZ"])


class TestMain:
    def test_sweep_end_to_end(self, capsys):
        rc = main(["sweep", "--threads", "8", "--machine", "generic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lpi_NUMA" in out
        assert "address-centric view" in out
        assert "advisor:" in out

    def test_optimize_flag(self, capsys):
        rc = main(["sweep", "--threads", "8", "--optimize"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimized run" in out

    def test_scatter_binding_and_mrk(self, capsys):
        rc = main([
            "sweep", "--threads", "8", "--mechanism", "MRK",
            "--binding", "scatter",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # MRK path: no latency metric.
        assert "lpi_NUMA unavailable" in out

    def test_var_override(self, capsys):
        rc = main(["sweep", "--threads", "4", "--var", "data"])
        assert rc == 0
        assert "address-centric view — data" in capsys.readouterr().out

    def test_scale_flag(self, capsys):
        rc = main(["sweep", "--threads", "4", "--scale", "0.05"])
        assert rc == 0
        assert "scale 0.05" in capsys.readouterr().out

    def test_extrapolate_flag_prints_phase_summary(self, capsys):
        rc = main(["sweep", "--threads", "8", "--scale", "0.1",
                   "--extrapolate"])
        assert rc == 0
        assert "phase extrapolation:" in capsys.readouterr().out

    def test_exact_flag_excludes_extrapolate(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--extrapolate", "--exact"])

    def test_exact_run_prints_no_phase_summary(self, capsys):
        rc = main(["sweep", "--threads", "8", "--scale", "0.1", "--exact"])
        assert rc == 0
        assert "phase extrapolation:" not in capsys.readouterr().out


class TestErrors:
    def test_unknown_machine_is_one_clean_line(self, capsys):
        rc = main(["sweep", "--machine", "nope"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown machine preset")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "bad", ["0", "-1", "nan", "-inf", "inf", "1e18"]
    )
    def test_bad_scale_is_one_clean_line(self, capsys, bad):
        """Non-positive, NaN, and absurd --scale values die with a
        one-line usage error (exit 2) instead of a deep traceback from
        workload setup."""
        rc = main(["sweep", f"--scale={bad}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --scale")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["autotune", "sweep", "--scale", "nan"], "--scale"),
            (["autotune", "sweep", "--scale", "0"], "--scale"),
            (["autotune", "sweep", "--scale", "1e18"], "--scale"),
            (["bench-perf", "--scale", "nan"], "--scale"),
            (["bench-perf", "--scale", "-1"], "--scale"),
            (["bench-perf", "--scale", "inf"], "--scale"),
            (["bench-perf", "--threshold", "nan"], "--threshold"),
            (["bench-perf", "--threshold", "inf"], "--threshold"),
            (["bench-perf", "--threshold", "-1"], "--threshold"),
            (["bench-perf", "--threshold", "1"], "--threshold"),
            (["bench-perf", "--mechanism", "FOO"], "--mechanism"),
        ],
    )
    def test_bad_subcommand_value_is_one_clean_line(
        self, capsys, tmp_path, argv, flag
    ):
        """Subcommands reject non-finite and out-of-range --scale and
        --threshold values and unknown --mechanism names before running
        anything or writing a reference file."""
        out = tmp_path / "bench.json"
        if argv[0] == "bench-perf":
            argv = argv + ["--output", str(out)]
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["0", "100000000000000000000"])
    def test_bad_extrap_warmup_is_one_clean_line(self, capsys, bad):
        rc = main(["sweep", "--extrapolate", "--extrap-warmup", bad])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --extrap-warmup")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--threads", "0"], "--threads"),
            (["sweep", "--period", "0"], "--period"),
            (["sweep", "--workers", "0"], "--workers"),
            (["sweep", "--workers", "-1"], "--workers"),
            (["sweep", "--top", "-1"], "--top"),
            (["autotune", "sweep", "--threads", "0"], "--threads"),
            (["autotune", "sweep", "--period", "0"], "--period"),
            (["autotune", "sweep", "--workers", "-1"], "--workers"),
            (["bench-perf", "--threads", "0"], "--threads"),
            (["bench-perf", "--period", "0"], "--period"),
            (["runs", "timeline", "any", "--width", "0"], "--width"),
            (["runs", "timeline", "any", "--width", "-1"], "--width"),
        ],
    )
    def test_bad_count_is_one_clean_line(self, capsys, argv, flag):
        """Zero or negative counts are rejected, not silently replaced
        by defaults or written into run manifests."""
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be >=")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [[], ["bench-perf"], ["autotune"], ["runs"], ["runs", "list"],
     ["runs", "show"], ["runs", "diff"], ["runs", "timeline"]],
)
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


class TestTelemetryFlags:
    def test_trace_stats_jsonl(self, tmp_path, capsys):
        from repro import obs
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "out.trace.json"
        jsonl = tmp_path / "out.jsonl"
        rc = main([
            "sweep", "--threads", "8", "--scale", "0.1",
            "--trace", str(trace), "--trace-jsonl", str(jsonl), "--stats",
        ])
        assert rc == 0
        assert validate_chrome_trace(trace) == []
        assert jsonl.stat().st_size > 0
        out = capsys.readouterr().out
        assert "telemetry summary — spans" in out
        assert "engine.run" in out
        assert "sampling.samples.selected" in out
        # The CLI must leave the global tracer off for the next caller.
        assert not obs.TRACER.enabled

    def test_stats_without_trace_file(self, tmp_path, capsys):
        rc = main(["sweep", "--threads", "4", "--scale", "0.05", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry summary — counters" in out

    def test_run_without_telemetry_collects_nothing(self, capsys):
        from repro import obs

        obs.TRACER.clear()  # drop data a prior --stats run left readable
        rc = main(["sweep", "--threads", "4", "--scale", "0.05"])
        assert rc == 0
        assert obs.TRACER.events == []
        assert "telemetry summary" not in capsys.readouterr().out

    def test_verbose_and_quiet_set_log_levels(self):
        import logging

        from repro import obs

        rc = main(["sweep", "--threads", "4", "--scale", "0.05", "-vv"])
        assert rc == 0
        assert obs.logger.level == logging.DEBUG
        rc = main(["sweep", "--threads", "4", "--scale", "0.05", "-q"])
        assert rc == 0
        assert obs.logger.level == logging.ERROR
