"""Step-wide attribution against per-chunk references, and whole-run
conservation of the deferred profiler's sample accounting.

The profiler turns one step's concatenated samples into one metric row
per sampled chunk (:func:`~repro.profiler.profiler.sample_metric_rows`),
with latency sums from :func:`~repro.profiler.accum.segment_sums`. Both
must equal what per-chunk ``count_nonzero`` / ``bincount`` /
``ndarray.sum`` calls produce, compared with ``==``. The whole-run tests
check invariants no parity suite can: sample counts and latencies are
conserved from the mechanism down to variables and bins, and the
engine's DRAM accounting is conserved across its totals, per-domain
requests and traffic matrix, with phase extrapolation on and off.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import presets
from repro.profiler import NumaProfiler
from repro.profiler.accum import PAIRWISE_BLOCK, segment_sums
from repro.profiler.metrics import MetricNames
from repro.profiler.profiler import sample_metric_rows
from repro.runtime import ExecutionEngine
from repro.runtime.phase import validate_phase_report
from repro.sampling import IBS, MRK, PEBS
from repro.workloads import CentralHotspot, PartitionedSweep

N_DOMAINS = 4
N_COLS = 8 + N_DOMAINS


def latencies(rng, n):
    """Latency-like floats spanning many magnitudes (rounding matters)."""
    return rng.uniform(1.0, 500.0, n) * 10.0 ** rng.integers(-3, 7, n)


def loop_rows(counts, targets, remote, lat):
    """The per-chunk reference: one row per chunk, as a loop builds it."""
    rows = []
    start = 0
    for c in counts.tolist():
        t = targets[start:start + c]
        r = remote[start:start + c]
        m = np.zeros(N_COLS)
        n_rem = int(np.count_nonzero(r))
        m[2] = c
        m[3] = c - n_rem
        m[4] = n_rem
        m[8:] = np.bincount(t, minlength=N_DOMAINS)
        if lat is not None:
            s_lat = lat[start:start + c]
            m[5] = s_lat.sum()
            m[6] = s_lat[r].sum()
        rows.append(m)
        start += c
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=24),
    with_lat=st.booleans(),
)
def test_metric_rows_equal_per_chunk_loop(seed, counts, with_lat):
    rng = np.random.default_rng(seed)
    counts = np.array(counts, dtype=np.int64)
    n = int(counts.sum())
    targets = rng.integers(0, N_DOMAINS, n)
    remote = rng.random(n) < rng.random()
    lat = latencies(rng, n) if with_lat else None
    got = sample_metric_rows(N_COLS, counts, targets, remote, lat)
    expect = loop_rows(counts, targets, remote, lat)
    assert np.array_equal(got, expect)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(
        st.one_of(
            st.integers(0, 16),
            st.integers(0, PAIRWISE_BLOCK + 8),
            st.integers(0, 4 * PAIRWISE_BLOCK),
        ),
        min_size=0, max_size=16,
    ),
)
def test_segment_sums_equal_ndarray_sum(seed, counts):
    """Every regime of numpy's pairwise sum: < 8 values, the 8-way
    blocked form with a remainder, and the recursive split."""
    rng = np.random.default_rng(seed)
    counts = np.array(counts, dtype=np.int64)
    values = latencies(rng, int(counts.sum()))
    got = segment_sums(values, counts)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    expect = [values[bounds[k]:bounds[k + 1]].sum() for k in range(counts.size)]
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array(expect, dtype=np.float64))


# --------------------------------------------------------------------- #
# Whole-run conservation
# --------------------------------------------------------------------- #

MECHANISMS = {
    "IBS": lambda p: IBS(period=p),
    "PEBS": lambda p: PEBS(period=p),
    # A raised rate cap so short runs still take samples.
    "MRK": lambda p: MRK(period=p, max_rate=2e6),
}
WORKLOADS = {
    "sweep": lambda n, steps: PartitionedSweep(n_elems=n, steps=steps),
    "hotspot": lambda n, steps: CentralHotspot(n_elems=n, steps=steps),
}


def profiled_run(workload, n_elems, steps, mech, period, n_threads, domains):
    machine = presets.generic(n_domains=domains, cores_per_domain=4)
    mechanism = MECHANISMS[mech](period)
    profiler = NumaProfiler(mechanism)
    engine = ExecutionEngine(
        machine, WORKLOADS[workload](n_elems, steps), n_threads,
        monitor=profiler,
    )
    engine.run()
    return mechanism, profiler.archive


@settings(max_examples=60, deadline=None)
@given(
    workload=st.sampled_from(sorted(WORKLOADS)),
    n_elems=st.integers(2_000, 40_000),
    steps=st.integers(1, 3),
    mech=st.sampled_from(sorted(MECHANISMS)),
    period=st.one_of(st.integers(1, 64), st.integers(1, 4096)),
    n_threads=st.integers(1, 8),
    domains=st.sampled_from([2, 4]),
)
def test_whole_run_sample_conservation(
    workload, n_elems, steps, mech, period, n_threads, domains
):
    mechanism, archive = profiled_run(
        workload, n_elems, steps, mech, period, n_threads, domains
    )
    var_samples = 0.0
    thread_samples = 0.0
    for profile in archive.profiles.values():
        thread_samples += profile.counters["samples"]
        for rec in profile.vars.values():
            m = rec.metrics
            samples = m.get(MetricNames.SAMPLES, 0.0)
            var_samples += samples
            # Matched + mismatched == samples, and the per-domain counts
            # split the same samples by target domain.
            assert (
                m.get(MetricNames.NUMA_MATCH, 0.0)
                + m.get(MetricNames.NUMA_MISMATCH, 0.0)
            ) == samples
            assert sum(
                m.get(MetricNames.numa_node(d), 0.0) for d in range(domains)
            ) == samples
            # Bins partition the variable's samples and latencies.
            for name in (
                MetricNames.SAMPLES, MetricNames.NUMA_MATCH,
                MetricNames.NUMA_MISMATCH,
            ):
                assert sum(
                    b.metrics.get(name, 0.0) for b in rec.bins
                ) == m.get(name, 0.0)
            for name in (MetricNames.LAT_TOTAL, MetricNames.LAT_REMOTE):
                assert sum(
                    b.metrics.get(name, 0.0) for b in rec.bins
                ) == pytest.approx(m.get(name, 0.0), rel=1e-12)
            assert m.get(MetricNames.LAT_REMOTE, 0.0) <= m.get(
                MetricNames.LAT_TOTAL, 0.0
            ) * (1 + 1e-12)
    assert var_samples == mechanism.total_samples
    assert thread_samples == mechanism.total_samples


#: Engine-pure integer totals: extrapolation multiplies them exactly.
INT_FIELDS = (
    "total_instructions", "total_accesses", "total_chunks",
    "dram_accesses", "remote_dram_accesses",
)


def engine_run(workload, n_elems, steps, mech, period, n_threads, domains,
               *, extrapolate):
    machine = presets.generic(n_domains=domains, cores_per_domain=4)
    engine = ExecutionEngine(
        machine, WORKLOADS[workload](n_elems, steps), n_threads,
        monitor=NumaProfiler(MECHANISMS[mech](period)),
        extrapolate=extrapolate,
    )
    return engine.run(), engine


@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(sorted(WORKLOADS)),
    n_elems=st.integers(2_000, 40_000),
    # At least warmup + 1 iterations, so extrapolation can arm.
    steps=st.integers(3, 8),
    mech=st.sampled_from(sorted(MECHANISMS)),
    period=st.one_of(st.integers(1, 64), st.integers(1, 4096)),
    n_threads=st.integers(1, 8),
    domains=st.sampled_from([2, 4]),
)
def test_whole_run_engine_conservation(
    workload, n_elems, steps, mech, period, n_threads, domains
):
    args = (workload, n_elems, steps, mech, period, n_threads, domains)
    live, _ = engine_run(*args, extrapolate=False)
    extrap, engine = engine_run(*args, extrapolate=True)
    assert validate_phase_report(engine.phase_report) == []
    for r in (live, extrap):
        assert 0 <= r.remote_dram_accesses <= r.dram_accesses
        assert r.dram_accesses <= r.total_accesses
        traffic = r.domain_traffic
        # Rows are accessor domains, columns target domains: every DRAM
        # access lands in exactly one cell, off the diagonal iff remote.
        assert traffic.sum() == r.dram_accesses
        assert np.array_equal(traffic.sum(axis=0), r.domain_dram_requests)
        assert traffic.sum() - np.trace(traffic) == r.remote_dram_accesses
    # Skipped iterations are reconstructed, never approximated, for the
    # engine-pure integers — in exact and in ε mode alike.
    for name in INT_FIELDS:
        assert getattr(extrap, name) == getattr(live, name), name
    assert np.array_equal(extrap.domain_dram_requests, live.domain_dram_requests)
    assert np.array_equal(extrap.domain_traffic, live.domain_traffic)
