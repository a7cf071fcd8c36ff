"""Correctness checks the benchmark runs on every operation.

Each check returns a list of problems; an operation with any problem
counts as failed. None of them consults the engine's own parity
machinery: they are conservation laws of a run, equalities between
runs that must agree, the paper's Section-8 shape, and digests of the
simulated outputs recorded with the benchmark.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro import MetricNames

#: Integer totals an extrapolated run must reproduce exactly: skipped
#: iterations replay recorded integer deltas, never estimates.
INTEGER_TOTALS = (
    "total_instructions",
    "total_accesses",
    "total_chunks",
    "dram_accesses",
    "remote_dram_accesses",
)

#: Every field of a RunResult, for run-to-run equality.
RESULT_FIELDS = INTEGER_TOTALS + (
    "program",
    "n_threads",
    "wall_cycles",
    "thread_busy_cycles",
    "monitor_overhead_cycles",
    "region_wall_cycles",
    "domain_dram_requests",
    "domain_traffic",
    "ghz",
)


def conservation(result) -> list[str]:
    """Remote DRAM <= DRAM <= accesses; per-domain counts sum to DRAM."""
    problems = []
    if not 0 <= result.remote_dram_accesses <= result.dram_accesses:
        problems.append(
            f"remote DRAM {result.remote_dram_accesses} outside "
            f"[0, DRAM {result.dram_accesses}]"
        )
    if result.dram_accesses > result.total_accesses:
        problems.append(
            f"DRAM {result.dram_accesses} exceeds accesses "
            f"{result.total_accesses}"
        )
    for name in ("domain_dram_requests", "domain_traffic"):
        total = int(np.asarray(getattr(result, name)).sum())
        if total != result.dram_accesses:
            problems.append(
                f"{name} sums to {total}, not DRAM {result.dram_accesses}"
            )
    if not (math.isfinite(result.wall_cycles) and result.wall_cycles > 0):
        problems.append(f"wall_cycles {result.wall_cycles!r} not positive")
    return problems


def profile_sane(merged) -> list[str]:
    """Sampled totals are finite and nest: remote within all, per variable
    within the program."""
    totals = merged.totals()
    problems = [
        f"profile metric {k} = {v!r}"
        for k, v in totals.items()
        if not (math.isfinite(v) and v >= 0)
    ]
    get = totals.get
    if get(MetricNames.LAT_REMOTE, 0.0) > get(MetricNames.LAT_TOTAL, 0.0):
        problems.append("remote latency exceeds total latency")
    sampled = get(MetricNames.NUMA_MATCH, 0.0) + get(
        MetricNames.NUMA_MISMATCH, 0.0
    )
    if sampled > get(MetricNames.SAMPLES, 0.0):
        problems.append(
            f"matched + mismatched samples {sampled} exceed samples "
            f"{get(MetricNames.SAMPLES, 0.0)}"
        )
    per_var = sum(
        v.metrics.get(MetricNames.NUMA_MISMATCH, 0.0)
        for v in merged.vars.values()
    )
    if per_var > get(MetricNames.NUMA_MISMATCH, 0.0) * (1 + 1e-9):
        problems.append(
            f"per-variable remote samples {per_var} exceed the program's "
            f"{get(MetricNames.NUMA_MISMATCH, 0.0)}"
        )
    return problems


def _differs(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return not np.array_equal(a, b)
    return a != b


def same_totals(live, extrap) -> list[str]:
    """The extrapolated run's integer totals equal the live run's."""
    names = INTEGER_TOTALS + ("domain_dram_requests", "domain_traffic")
    return [
        f"extrapolated {n} differs from live"
        for n in names
        if _differs(getattr(live, n), getattr(extrap, n))
    ]


def same_result(a, b, label: str) -> list[str]:
    """Every RunResult field equal between two runs of one input."""
    return [
        f"{label}: {n} differs"
        for n in RESULT_FIELDS
        if _differs(getattr(a, n), getattr(b, n))
    ]


def autotune_shape(report) -> list[str]:
    """Section 8's shape: migrations apply and lpi and remote fraction fall."""
    problems = []
    if not report.applied or not all(a["ok"] for a in report.applied):
        problems.append(f"migrations not all applied: {report.applied}")
    if report.lpi_before is None or report.lpi_after is None:
        problems.append("lpi unavailable")
    elif not report.lpi_after < report.lpi_before:
        problems.append(
            f"lpi did not fall: {report.lpi_before} -> {report.lpi_after}"
        )
    if not report.remote_after < report.remote_before:
        problems.append(
            f"remote fraction did not fall: {report.remote_before} -> "
            f"{report.remote_after}"
        )
    return problems


def digest(result, lpi, remote) -> str:
    """SHA-256 of a run's simulated outputs, exact to the last bit."""
    h = hashlib.sha256()
    for name in RESULT_FIELDS:
        value = getattr(result, name)
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            h.update(repr(sorted(value.items())).encode())
        else:
            h.update(repr(value).encode())
    h.update(repr((lpi, remote)).encode())
    return h.hexdigest()


def digest_report(report) -> str:
    """SHA-256 of an autotune loop's simulated outcome."""
    fields = (
        report.lpi_before, report.lpi_after,
        report.remote_before, report.remote_after,
        report.wall_seconds_before, report.wall_seconds_after,
        report.boundary, report.planned,
        [sorted(a.items()) for a in report.applied],
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()
