"""Sampling base: periodic selection with carry, capabilities, costs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MechanismError
from repro.machine import presets
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk
from repro.runtime.heap import HeapAllocator
from repro.sampling import IBS
from repro.sampling.base import (
    SampleBatch,
    periodic_positions,
    periodic_positions_step,
)


class TestPeriodicPositions:
    def test_period_one_selects_all(self):
        pos, carry = periodic_positions(0, 10, 1)
        np.testing.assert_array_equal(pos, np.arange(10))
        assert carry == 0

    def test_basic_period(self):
        pos, carry = periodic_positions(0, 10, 3)
        np.testing.assert_array_equal(pos, [2, 5, 8])
        assert carry == 1

    def test_carry_continues_across_chunks(self):
        """Sampling every 3rd event across two chunks of 5 equals sampling
        one chunk of 10."""
        p1, c1 = periodic_positions(0, 5, 3)
        p2, c2 = periodic_positions(c1, 5, 3)
        combined = sorted(p1.tolist() + (p2 + 5).tolist())
        whole, cw = periodic_positions(0, 10, 3)
        assert combined == whole.tolist()
        assert c2 == cw

    def test_no_events(self):
        pos, carry = periodic_positions(2, 0, 5)
        assert pos.size == 0
        assert carry == 2

    def test_period_larger_than_chunk(self):
        pos, carry = periodic_positions(0, 3, 10)
        assert pos.size == 0
        assert carry == 3

    def test_invalid_period(self):
        with pytest.raises(MechanismError):
            periodic_positions(0, 10, 0)


@given(
    chunks=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=20),
    period=st.integers(min_value=1, max_value=97),
)
@settings(max_examples=60, deadline=None)
def test_periodic_positions_exact_rate(chunks, period):
    """Invariant: across any chunking, exactly every period-th event is
    selected — total samples == total_events // period."""
    carry = 0
    total = 0
    for n in chunks:
        pos, carry = periodic_positions(carry, n, period)
        total += pos.size
    assert total == sum(chunks) // period


@given(
    n=st.integers(min_value=1, max_value=1000),
    period=st.integers(min_value=1, max_value=50),
    carry=st.integers(min_value=0, max_value=49),
)
@settings(max_examples=60, deadline=None)
def test_periodic_positions_spacing(n, period, carry):
    """Selected positions are exactly ``period`` apart."""
    pos, new_carry = periodic_positions(min(carry, period - 1), n, period)
    if pos.size >= 2:
        assert np.all(np.diff(pos) == period)
    assert 0 <= new_carry < period
    if pos.size:
        assert pos[0] < n and pos[-1] < n


@given(
    period=st.integers(min_value=1, max_value=64),
    chunks=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 300)), max_size=12
    ),
)
@settings(max_examples=100, deadline=None)
def test_periodic_positions_step_matches_scalar(period, chunks):
    """The vectorized form equals one scalar call per (carry, events)."""
    carries = np.array([min(c, period - 1) for c, _ in chunks], np.int64)
    n_events = np.array([n for _, n in chunks], np.int64)
    positions, rows, counts, new_carries = periodic_positions_step(
        carries, n_events, period
    )
    for k, (carry, n) in enumerate(zip(carries.tolist(), n_events.tolist())):
        pos, new_carry = periodic_positions(carry, n, period)
        np.testing.assert_array_equal(positions[rows == k], pos)
        assert counts[k] == pos.size
        assert new_carries[k] == new_carry


class TestMechanismLifecycle:
    def test_configure_resets_state(self):
        machine = presets.generic()
        mech = IBS(period=100)
        mech.configure(machine)
        heap = HeapAllocator(machine)
        var = heap.malloc(8 * 1000, "v", (SourceLoc("main"),))
        chunk = AccessChunk(var, var.base + np.arange(500) * 8, 2000, SourceLoc("k"))
        mech.select(0, chunk, np.zeros(500, np.uint8), np.zeros(500), np.zeros(500))
        assert mech.total_samples > 0
        mech.configure(machine)
        assert mech.total_samples == 0

    def test_invalid_period(self):
        with pytest.raises(MechanismError):
            IBS(period=0)

    def test_cost_components(self):
        mech = IBS(period=100, per_sample_cycles=10.0, per_access_cycles=2.0,
                   instr_tax_cycles=0.5)
        machine = presets.generic()
        heap = HeapAllocator(machine)
        var = heap.malloc(8 * 100, "v", (SourceLoc("main"),))
        chunk = AccessChunk(var, var.base + np.arange(100) * 8, 1000, SourceLoc("k"))
        batch = SampleBatch(
            indices=np.arange(3), n_sampled_instructions=5,
            n_events_total=100, latency_captured=True,
        )
        cost = mech.cost_cycles(batch, chunk)
        # Per-sample cost applies to every sample interrupt (all 5
        # instruction samples), not just the 3 memory samples.
        assert cost == pytest.approx(5 * 10 + 100 * 2 + 1000 * 0.5)

    def test_describe(self):
        assert "IBS" in IBS().describe()


class TestThreadOrderInvariance:
    """Per-thread jitter streams: samples depend only on (seed, tid).

    Regression for the shared-RNG bug where the jitter a thread saw
    depended on how many draws *other* threads had consumed first — any
    change in thread interleaving (or sharding threads across worker
    processes) silently moved every sample position.
    """

    @staticmethod
    def _chunks(machine, n_threads=3, n=400):
        heap = HeapAllocator(machine)
        out = []
        for tid in range(n_threads):
            var = heap.malloc(8 * n, f"v{tid}", (SourceLoc("main"),))
            out.append(AccessChunk(
                var, var.base + np.arange(n) * 8, 4 * n, SourceLoc("k")
            ))
        return out

    def _samples_in_order(self, order, chunks, machine):
        mech = IBS(period=32)
        mech.configure(machine, seed=77)
        zeros = np.zeros(chunks[0].n_accesses)
        lv = np.zeros(chunks[0].n_accesses, np.uint8)
        return {
            tid: mech.select(tid, chunks[tid], lv, zeros, zeros).indices
            for tid in order
        }

    def test_select_invariant_to_thread_order(self):
        machine = presets.generic()
        chunks = self._chunks(machine)
        fwd = self._samples_in_order([0, 1, 2], chunks, machine)
        rev = self._samples_in_order([2, 1, 0], chunks, machine)
        for tid in range(3):
            np.testing.assert_array_equal(fwd[tid], rev[tid])

    def test_streams_differ_across_threads(self):
        machine = presets.generic()
        chunks = self._chunks(machine)
        got = self._samples_in_order([0, 1, 2], chunks, machine)
        assert not np.array_equal(got[0], got[1])

    def test_subset_of_threads_sees_same_stream(self):
        """A worker running only tid 2 draws exactly what a full run
        gives tid 2 — the property the sharded engine is built on."""
        machine = presets.generic()
        chunks = self._chunks(machine)
        full = self._samples_in_order([0, 1, 2], chunks, machine)
        alone = self._samples_in_order([2], chunks, machine)
        np.testing.assert_array_equal(full[2], alone[2])
