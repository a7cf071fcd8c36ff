"""Oracle tests for the fused per-chunk classify kernel and the latency tables.

The references below are the straightforward per-access formulations the
kernels replace: line numbers by floor division plus an ``np.unique``
first-occurrence mask, a two-sided stride test for sequentiality, and the
elementwise DRAM demand/exposure expressions evaluated per fetch. Every
comparison is exact (``array_equal`` / ``==``): the kernels must be
bit-identical.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import (
    LEVEL_DRAM,
    SEQUENTIAL_FRACTION,
    SEQUENTIAL_STRIDE_LIMIT,
    CacheConfig,
    CacheHierarchy,
)
from repro.machine.latency import LatencyModel
from repro.machine.topology import NumaTopology
from repro.units import DENSE_SPAN_FACTOR, first_occurrence_mask
from repro.workloads import AMG2006, WorkloadBase

# ---------------------------------------------------------------- references


def ref_first_occurrence_mask(values):
    mask = np.zeros(values.shape, dtype=bool)
    _, first_idx = np.unique(values, return_index=True)
    mask[first_idx] = True
    return mask


def ref_is_sequential(addrs):
    if addrs.size < 2:
        return True
    deltas = np.diff(addrs)
    ok = (deltas >= 0) & (deltas <= SEQUENTIAL_STRIDE_LIMIT)
    return bool(np.count_nonzero(ok) >= SEQUENTIAL_FRACTION * deltas.size)


def ref_demand(model, tgt, acc, topo, infl):
    local = tgt == acc
    base = np.where(local, model.dram_local, model.dram_remote)
    dist = topo.distances[acc][tgt]
    hops = np.maximum(dist - 10, 0) / 10.0
    base = base + hops * model.hop_cost * 10.0
    return base * np.asarray(infl)[tgt]


def ref_exposure(model, tgt, acc, infl, interleaved):
    remote_scale = np.where(tgt == acc, 1.0, model.remote_exposure_factor)
    stream_scale = model.interleave_stream_penalty if interleaved else 1.0
    return np.minimum(
        1.0,
        model.seq_exposure * np.asarray(infl)[tgt] * remote_scale * stream_scale,
    )


def ref_fetch_latencies(model, tgt, acc, topo, infl, sequential, interleaved):
    demand = ref_demand(model, tgt, acc, topo, infl)
    if not sequential:
        return demand
    exposure = ref_exposure(model, tgt, acc, infl, interleaved)
    idx = np.arange(tgt.size, dtype=np.float64)
    exposed = np.floor((idx + 1) * exposure) > np.floor(idx * exposure)
    return np.where(exposed, demand, model.prefetched_latency)


# ---------------------------------------------------------------- chunks


def _chunk(kind, base, steps, line):
    steps = np.asarray(steps, dtype=np.int64)
    if kind == "sorted":
        return base + np.concatenate(([0], np.cumsum(steps[1:])))
    if kind == "unsorted":
        return base + steps * 37 - 5000
    # Lines never move backward but addresses may, inside one line.
    lines = base // line + np.concatenate(([0], np.cumsum(steps[1:] % 3)))
    return lines * line + steps % line


chunks = st.builds(
    lambda kind, base, steps, line: (_chunk(kind, base, steps, line), line),
    st.sampled_from(["sorted", "unsorted", "within_line_backward"]),
    st.integers(-(2**40), 2**40),
    st.lists(st.integers(0, 400), min_size=1, max_size=300),
    st.sampled_from([64, 32, 128, 1, 48, 24, 100]),
)


def _check_products(addrs, line):
    cache = CacheHierarchy(CacheConfig(line_size=line))
    fetch, fidx, seq = cache.chunk_fetch_products(addrs)
    ref = ref_first_occurrence_mask(addrs // line)
    assert np.array_equal(fetch, ref)
    assert np.array_equal(fidx, np.flatnonzero(ref))
    assert seq == ref_is_sequential(addrs)
    cls = cache.classify(addrs, cpu=0, seg_id=0)
    assert cls.footprint_bytes == int(np.count_nonzero(ref)) * line
    assert cls.sequential == seq
    assert np.array_equal(cls.levels != 0, ref)


@settings(max_examples=300, deadline=None)
@given(chunks)
def test_chunk_fetch_products_match_reference(chunk):
    _check_products(*chunk)


@pytest.mark.parametrize("line", [64, 48])
@pytest.mark.parametrize(
    "addrs",
    [
        [5],
        [-7],
        [0, 63],
        [0, 64],
        [63, 0],
        [-1, 0],
        [-65, -64],
        [130, 129],
        [10, 10 + SEQUENTIAL_STRIDE_LIMIT + 1],
    ],
)
def test_short_chunks_match_reference(addrs, line):
    _check_products(np.array(addrs, dtype=np.int64), line)


# ------------------------------------------------------- first occurrence


@st.composite
def integer_arrays(draw):
    """Integer arrays around the dense-table bound, in narrow and wide
    dtypes, with negative values and values at the dtype's extremes."""
    dtype = np.dtype(draw(st.sampled_from(
        [np.int8, np.int32, np.int64, np.uint64]
    )))
    info = np.iinfo(dtype)
    full = int(info.max) - int(info.min)
    n = draw(st.integers(0, 120))
    bound = DENSE_SPAN_FACTOR * max(n, 1)
    span = min(full, draw(
        st.sampled_from([0, 1, bound - 1, bound, bound + 1, full])
        | st.integers(0, 2 * bound)
    ))
    lo = draw(
        st.sampled_from([int(info.min), int(info.max) - span, 0])
        | st.integers(int(info.min), int(info.max) - span)
    )
    lo = min(max(lo, int(info.min)), int(info.max) - span)
    vals = draw(st.lists(st.integers(lo, lo + span), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # Pin both ends so the array spans exactly ``span``.
        i, j = draw(st.permutations(range(n)))[:2]
        vals[i], vals[j] = lo, lo + span
    if draw(st.booleans()):
        vals.sort()
    return np.array(vals, dtype=dtype)


@settings(max_examples=500, deadline=None)
@given(integer_arrays())
def test_first_occurrence_mask_matches_unique(values):
    got = first_occurrence_mask(values)
    assert got.dtype == bool
    assert np.array_equal(got, ref_first_occurrence_mask(values))


def _takes_unique(values):
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        got = first_occurrence_mask(values)
    assert np.array_equal(got, ref_first_occurrence_mask(values))
    return spy.called


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint64])
@pytest.mark.parametrize("past_bound", [False, True])
def test_dense_table_bound(dtype, past_bound):
    """Unsorted integers spanning up to ``DENSE_SPAN_FACTOR * n - 1``
    use the first-position table; one more and they fall back to a sort."""
    n = 20
    span = DENSE_SPAN_FACTOR * n - 1 + past_bound
    lo = -40 if np.dtype(dtype).kind == "i" else 7
    rng = np.random.default_rng(span)
    vals = rng.integers(lo, lo + span + 1, size=n)
    vals[:3] = [lo + span, lo, lo + span]
    assert _takes_unique(vals.astype(dtype)) == past_bound


@pytest.mark.parametrize(
    "values, sorts",
    [
        # int64 extremes: a wrapped span would look tiny or negative.
        (np.array([2**63 - 1, -(2**63), 2**63 - 1], dtype=np.int64), True),
        (np.array([2**63 - 1, -(2**63), 0, -(2**63)], dtype=np.int64), True),
        (np.array([2**63 - 1, 2**63 - 3, 2**63 - 1], dtype=np.int64), False),
        (np.array([2 - 2**63, -(2**63), 2 - 2**63], dtype=np.int64), False),
        (np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64), True),
        (np.array([2**64 - 1, 2**64 - 3, 2**64 - 1], dtype=np.uint64), False),
        (np.tile(np.array([127, -128, 0], dtype=np.int8), 30), False),
        # Lengths 0-2 and all-equal arrays never need a sort.
        (np.array([], dtype=np.int64), False),
        (np.array([5], dtype=np.uint64), False),
        (np.array([3, 1], dtype=np.int32), False),
        (np.full(9, -4, dtype=np.int8), False),
        # Floats keep np.unique, even when range-dense.
        (np.array([3.0, 1.0, 3.0, 2.0]), True),
        (np.array([np.nan, 1.0, np.nan]), True),
    ],
)
def test_first_occurrence_mask_regimes(values, sorts):
    assert _takes_unique(values) == sorts


def test_amg_shaped_chunk_takes_dense_table():
    """An AMG ``RAP_diag_data[A_diag_i[i]]`` chunk: unsorted, its lines
    span about n/8, and its fetch mask comes from the first-position
    table, identical to the ``np.unique`` reference, per chunk and per
    step."""
    rng = np.random.default_rng(7)
    jitter = AMG2006().index_jitter
    base = 1 << 30
    cache = CacheHierarchy(CacheConfig())
    line = cache.config.line_size
    chunks = []
    for lo, hi in [(0, 20_833), (20_833, 72_833), (72_833, 156_167)]:
        idx = WorkloadBase.jittered_block_indices(rng, lo, hi, 156_167, jitter)
        addrs = base + idx * 8
        assert np.any(np.diff(addrs) < 0)
        lines = addrs // line
        assert int(lines.max() - lines.min()) < addrs.size / 7
        with mock.patch.object(np, "unique", wraps=np.unique) as spy:
            fetch, fidx, _ = cache.chunk_fetch_products(addrs)
        assert not spy.called
        ref = ref_first_occurrence_mask(lines)
        assert np.array_equal(fetch, ref)
        assert np.array_equal(fidx, np.flatnonzero(ref))
        chunks.append(addrs)
    starts = np.concatenate(([0], np.cumsum([c.size for c in chunks])))
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        step = cache.step_fetch_products(np.concatenate(chunks), starts)
    assert not spy.called
    assert np.array_equal(
        step.fetch,
        np.concatenate([ref_first_occurrence_mask(c // line) for c in chunks]),
    )


# ---------------------------------------------------------------- latency


@st.composite
def latency_cases(draw):
    n = draw(st.integers(1, 6))
    off = draw(st.lists(st.integers(10, 40), min_size=n * n, max_size=n * n))
    dist = np.array(off, dtype=np.int64).reshape(n, n)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 10)
    topo = NumaTopology(n_domains=n, cores_per_domain=1, distances=dist)
    if draw(st.booleans()):
        # Int-valued parameters.
        l1 = draw(st.integers(1, 10))
        l2 = l1 + draw(st.integers(0, 20))
        l3 = l2 + draw(st.integers(0, 50))
        local = l3 + draw(st.integers(0, 300))
        model = LatencyModel(
            l1=l1, l2=l2, l3=l3, dram_local=local,
            dram_remote=local + draw(st.integers(0, 300)),
            hop_cost=draw(st.integers(0, 10)),
            prefetched_latency=draw(st.integers(1, 100)),
            seq_exposure=1,
            remote_exposure_factor=draw(st.integers(1, 3)),
            interleave_stream_penalty=draw(st.integers(1, 3)),
        )
    else:
        fl = st.floats(0.5, 3.0)
        l1 = draw(st.floats(1.0, 10.0))
        l2 = l1 * draw(st.floats(1.0, 4.0))
        l3 = l2 * draw(st.floats(1.0, 4.0))
        local = l3 * draw(st.floats(1.0, 8.0))
        model = LatencyModel(
            l1=l1, l2=l2, l3=l3, dram_local=local,
            dram_remote=local * draw(st.floats(1.0, 2.0)),
            hop_cost=draw(st.floats(0.0, 10.0)),
            prefetched_latency=draw(st.floats(1.0, 100.0)),
            seq_exposure=draw(st.floats(0.01, 1.0)),
            remote_exposure_factor=draw(fl),
            interleave_stream_penalty=draw(fl),
        )
    infl = np.array(draw(st.lists(st.floats(1.0, 5.0), min_size=n, max_size=n)))
    return model, topo, infl


@settings(max_examples=200, deadline=None)
@given(
    latency_cases(),
    st.lists(st.integers(0, 5), min_size=0, max_size=200),
    st.integers(0, 5),
    st.booleans(),
    st.booleans(),
)
def test_dram_fetch_latencies_match_reference(case, tgt, acc, seq, inter):
    model, topo, infl = case
    n = topo.n_domains
    tgt = np.array(tgt, dtype=np.int64) % n
    acc %= n
    tables = model.dram_tables(topo, infl)
    got = model.dram_fetch_latencies(
        tgt, acc, tables, sequential=seq, interleaved=inter
    )
    ref = ref_fetch_latencies(model, tgt, acc, topo, infl, seq, inter)
    assert got.dtype == np.float64
    assert np.array_equal(got, ref)

    demand, exposure = tables
    for a in range(n):
        all_t = np.arange(n)
        assert np.array_equal(demand[a], ref_demand(model, all_t, a, topo, infl))
        for flag in (False, True):
            assert np.array_equal(
                exposure[int(flag), a], ref_exposure(model, all_t, a, infl, flag)
            )


@settings(max_examples=100, deadline=None)
@given(
    latency_cases(),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=1, max_size=40),
            st.integers(0, 5),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_access_and_step_latency_match_reference(case, chunk_specs, rnd):
    model, topo, infl = case
    n = topo.n_domains
    levels, targets, accs, seqs, inters, starts = [], [], [], [], [], [0]
    expected = []
    for lv, acc, seq, inter in chunk_specs:
        lv = np.array(lv, dtype=np.uint8)
        tgt = np.array([rnd.randrange(n) for _ in lv], dtype=np.int64)
        acc %= n
        ref = np.array([model.l1, model.l2, model.l3, 0.0])[lv]
        dram = lv == LEVEL_DRAM
        ref[dram] = ref_fetch_latencies(
            model, tgt[dram], acc, topo, infl, seq, inter
        )
        got = model.access_latency(
            lv, tgt, acc, topo, infl, sequential=seq, interleaved=inter
        )
        assert np.array_equal(got, ref)
        levels.append(lv)
        targets.append(tgt)
        accs.append(acc)
        seqs.append(seq)
        inters.append(inter)
        starts.append(starts[-1] + lv.size)
        expected.append(ref)
    got = model.step_latency(
        np.concatenate(levels), np.concatenate(targets), np.array(accs),
        np.array(starts), topo, infl, np.array(seqs), np.array(inters),
    )
    assert np.array_equal(got, np.concatenate(expected))
