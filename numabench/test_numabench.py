"""The benchmark's own tests: checks catch tampering, metrics carry units.

    python3 -m pytest numabench -q

Workloads run here at toy sizes, so a run takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from repro import MetricNames  # noqa: E402
from repro.workloads import AMG2006, Blackscholes, Lulesh  # noqa: E402

TOY = {
    "lulesh-large": lambda: Lulesh(n_nodes=8_000, steps=4),
    "blackscholes-sampled": lambda: Blackscholes(n_options=500, steps=8),
    "amg-autotune": lambda: AMG2006(n_rows=4_000),
    "lulesh-sharded": lambda: Lulesh(n_nodes=8_000, steps=4),
}

#: The metrics the benchmark is specified to emit, end to end and per layer.
NAMED_END_TO_END = {
    "setup_s", "profile_s", "extrap_profile_s", "extrap_rel_err",
    "autotune_s", "peak_rss_mib",
}
NAMED_PER_LAYER = {
    "workloads.generate_s", "workloads.chunks", "workloads.accesses",
    "runtime.driver_s", "runtime.steps",
    "runtime.memo.hits", "runtime.memo.misses", "runtime.memo.evictions",
    "runtime.memo.hit_ratio", "runtime.memo.record_bytes",
    "runtime.phase.extrapolate_s", "runtime.phase.coverage_pct",
    "runtime.phase.epsilon_declared", "runtime.phase.breaks",
    "machine.pagetable.trap_s", "machine.pagetable.migrate_s",
    "machine.cache.classify_s", "machine.cache.classify_ns_per_access",
    "machine.latency.latency_s", "machine.latency.ns_per_access",
    "sampling.select_step_s", "sampling.samples_selected",
    "profiler.on_step_s", "profiler.attribute_s", "profiler.flush_s",
    "analysis.merge_s", "analysis.advise_s", "analysis.diff_s",
    "optim.window_run_s", "optim.tuned_run_s", "optim.migrations_applied",
    "parallel.parent_s", "parallel.gen_round_s",
    "parallel.classify_round_s", "parallel.finish_round_s",
    "parallel.shm_used",
    "machine.sim_wall_s", "machine.dram_accesses",
    "machine.remote_dram_fraction", "analysis.lpi_numa",
    "trace.coverage", "trace.overhead_pct", "host.calib_s",
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Toy-sized workloads and a scratch reference file."""
    for name, make in TOY.items():
        monkeypatch.setitem(
            cases.CASES, name,
            dataclasses.replace(cases.CASES[name], make_program=make),
        )
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    monkeypatch.setattr(run, "setup_seconds", lambda workload, clock: 0.5)
    return tmp_path


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def profiled():
    case = dataclasses.replace(
        cases.CASES["blackscholes-sampled"],
        make_program=TOY["blackscholes-sampled"],
    )
    live = cases.profile(cases.build_engine(case, 0, extrapolate=False))
    extrap = cases.profile(cases.build_engine(case, 0, extrapolate=True))
    return live, extrap


def test_untampered_runs_pass(profiled):
    live, extrap = profiled
    assert checks.conservation(live.result) == []
    assert checks.profile_sane(live.merged) == []
    assert checks.same_totals(live.result, extrap.result) == []
    assert checks.same_result(live.result, live.result, "self") == []


@pytest.mark.parametrize("field, tamper", [
    ("remote_dram_accesses", lambda r: r.dram_accesses + 1),
    ("dram_accesses", lambda r: r.total_accesses + 1),
    ("domain_traffic", lambda r: r.domain_traffic + np.eye(
        len(r.domain_dram_requests), dtype=np.int64)),
    ("domain_dram_requests", lambda r: r.domain_dram_requests * 2),
])
def test_tampered_result_breaks_conservation(profiled, field, tamper):
    live, _ = profiled
    bad = dataclasses.replace(live.result, **{field: tamper(live.result)})
    assert checks.conservation(bad)


def test_tampered_result_breaks_equalities(profiled):
    live, extrap = profiled
    bad = dataclasses.replace(
        extrap.result, total_accesses=extrap.result.total_accesses - 1
    )
    assert checks.same_totals(live.result, bad)
    assert checks.same_result(live.result, bad, "sharded vs serial")
    assert checks.digest(bad, live.lpi, live.remote) != checks.digest(
        live.result, live.lpi, live.remote
    )


def test_tampered_profile_fails(profiled):
    live, _ = profiled
    merged = live.merged
    node = next(iter(merged.cct.root.walk()))
    saved = dict(node.metrics)
    try:
        node.metrics[MetricNames.LAT_REMOTE] = (
            merged.totals().get(MetricNames.LAT_TOTAL, 0.0) + 1.0
        )
        assert checks.profile_sane(merged)
        node.metrics[MetricNames.LAT_REMOTE] = float("nan")
        assert checks.profile_sane(merged)
    finally:
        node.metrics.clear()
        node.metrics.update(saved)
    assert checks.profile_sane(merged) == []


def test_tampered_operation_counts_failed(toy, monkeypatch, capsys):
    """A RunResult tampered on its way out of an operation is a failed
    operation, and the run reports itself incorrect."""
    real = cases.profile

    def tampered(engine):
        out = real(engine)
        out.result = dataclasses.replace(
            out.result, remote_dram_accesses=out.result.dram_accesses + 1
        )
        return out

    monkeypatch.setattr(cases, "profile", tampered)
    run.main(["--workload", "blackscholes-sampled", "--seconds", "0.1",
              "--record-reference"])
    res = _result(capsys.readouterr().out)
    assert res["failed"] >= 2 * (1 + cases.PANEL)
    assert res["correct"] is False


def test_reference_digests_pin_simulated_outputs(toy, capsys):
    args = ["--workload", "amg-autotune", "--seconds", "0.1"]
    run.main(args + ["--record-reference"])
    assert _result(capsys.readouterr().out)["failed"] == 0
    run.main(args)
    assert _result(capsys.readouterr().out)["failed"] == 0
    ref = json.loads(run.REFERENCE.read_text())
    key = "0/profile"
    ref["amg-autotune"][key] = "0" * 64
    run.REFERENCE.write_text(json.dumps(ref))
    run.main(args)
    res = _result(capsys.readouterr().out)
    assert res["failed"] == 1 and not res["correct"]


def test_benchmark_json_matches_emitted_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        table = run.END_TO_END if m in spec["end_to_end"] else run.PER_LAYER
        assert m["unit"] == table[m["name"]]
    assert NAMED_END_TO_END == set(run.END_TO_END)
    assert NAMED_PER_LAYER <= set(run.PER_LAYER)


@pytest.mark.parametrize("workload, trace", [
    ("lulesh-large", 0),
    ("lulesh-large", 1),
    ("lulesh-sharded", 1),
])
def test_every_metric_emitted_with_unit(toy, capsys, workload, trace):
    from multiprocessing import resource_tracker

    args = ["--workload", workload, "--seconds", "0.1",
            "--trace", str(trace)]
    run.main(args + ["--record-reference"])
    # The shared-memory arena starts multiprocessing's resource tracker
    # as a child of the benchmark; a run must end it, not leave it behind.
    assert resource_tracker._resource_tracker._pid is None
    res = _result(capsys.readouterr().out)
    assert res["failed"] == 0 and res["correct"] is True
    assert res["attempted"] >= 3
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(res["metrics"]) == set(table)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == table[name]
        assert isinstance(metric["value"], float)
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["trace.coverage"] > 0.9
        if workload == "lulesh-sharded":
            assert m["parallel.gen_round_s"] > 0
            assert m["parallel.shm_used"] in (0.0, 1.0)


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "lulesh-large"]) != 0
    assert capsys.readouterr().out == ""

