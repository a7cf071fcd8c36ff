"""Buffered jitter streams against numpy's own sequential draws.

:class:`~repro.sampling.base.JitterStreams` serves instruction-sampling
jitter from per-thread pre-drawn buffers. Its contract is that thread
``tid``'s values are exactly those of sequential
``default_rng(SeedSequence(seed, spawn_key=(tid,))).integers(0, w,
size=c)`` calls, whatever the call sizes, the interleaving of threads
and the buffer's refill/growth history; and that its digest is sound
for the phase detector.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import presets
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import AccessChunk, compute_chunk
from repro.runtime.heap import HeapAllocator
from repro.sampling import IBS
from repro.sampling.base import JITTER_BUFFER, JitterStreams

N_TIDS = 6

#: A step: (tid, sample count) pairs with distinct tids, in view order.
step_strategy = st.lists(
    st.tuples(
        st.integers(0, N_TIDS - 1),
        # Mostly small counts, sometimes past the buffer capacity.
        st.one_of(st.integers(0, 40), st.integers(0, 3 * JITTER_BUFFER)),
    ),
    min_size=1, max_size=N_TIDS, unique_by=lambda p: p[0],
)


def take_step(streams: JitterStreams, step) -> np.ndarray:
    tids = np.array([t for t, _ in step], dtype=np.int64)
    counts = np.array([c for _, c in step], dtype=np.int64)
    rows = np.repeat(np.arange(counts.size), counts)
    return streams.take(tids, rows)


def reference(seed: int, width: int):
    rngs = {}

    def draw(tid: int, c: int) -> np.ndarray:
        if tid not in rngs:
            rngs[tid] = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(tid,))
            )
        return rngs[tid].integers(0, width, size=c)

    return draw


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(step_strategy, min_size=1, max_size=12),
)
def test_take_equals_sequential_integers(width, seed, steps):
    streams = JitterStreams(seed, width)
    draw = reference(seed, width)
    for step in steps:
        got = take_step(streams, step)
        assert got.dtype == np.uint8
        expect = [draw(t, c) for t, c in step if c]
        np.testing.assert_array_equal(
            got,
            np.concatenate(expect) if expect else np.empty(0, np.int64),
        )


def test_every_width_on_a_fixed_call_sequence():
    """Exhaustive over the jitter widths a mechanism can have (2..64)."""
    plan = np.random.default_rng(2024)
    for width in range(2, 65):
        streams = JitterStreams(width, width)
        draw = reference(width, width)
        for _ in range(8):
            tids = plan.permutation(N_TIDS)[: plan.integers(1, N_TIDS + 1)]
            step = [(int(t), int(plan.integers(0, 700))) for t in tids]
            expect = [draw(t, c) for t, c in step if c]
            np.testing.assert_array_equal(
                take_step(streams, step),
                np.concatenate(expect) if expect else np.empty(0, np.int64),
            )


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(2, 64),
    seed=st.integers(0, 2**16),
    sizes_a=st.lists(st.integers(1, 2 * JITTER_BUFFER), min_size=1, max_size=6),
    split=st.integers(1, 5),
)
def test_digest_is_consumption_not_refill_history(width, seed, sizes_a, split):
    """Same values consumed through different call sizes (so different
    refill and growth histories): equal digests, identical futures."""
    total = sum(sizes_a)
    sizes_b = [total // split] * split
    sizes_b[-1] += total - sum(sizes_b)
    a, b = JitterStreams(seed, width), JitterStreams(seed, width)
    for c in sizes_a:
        take_step(a, [(3, c)])
    for c in sizes_b:
        take_step(b, [(3, c)])
    assert a.digest() == b.digest()
    np.testing.assert_array_equal(
        take_step(a, [(3, 300), (1, 5)]), take_step(b, [(3, 300), (1, 5)])
    )


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(2, 64),
    steps=st.lists(step_strategy, min_size=1, max_size=6),
)
def test_digest_changes_exactly_when_a_draw_happens(width, steps):
    streams = JitterStreams(7, width)
    for step in steps:
        before = streams.digest()
        take_step(streams, step)
        drew = any(c for _, c in step)
        assert (streams.digest() != before) == drew


def _views(heap, n_accesses):
    """One stub view per thread: ``n_accesses`` accesses (0: compute)."""
    views = []
    for tid, n in enumerate(n_accesses):
        if n:
            var = heap.malloc(8 * n, f"v{tid}", (SourceLoc("main"),))
            chunk = AccessChunk(
                var, var.base + np.arange(n) * 8, 4 * n, SourceLoc("k")
            )
        else:
            chunk = compute_chunk(4096, SourceLoc("c"))
        views.append(_StubView(tid, chunk))
    return views


class _StubView:
    def __init__(self, tid, chunk):
        self.tid = tid
        self.chunk = chunk
        n = chunk.n_accesses
        self.levels = np.zeros(n, np.uint8)
        self.target_domains = np.zeros(n, np.int64)
        self.latencies = np.full(n, 4.0)


def test_mechanism_digest_tracks_draws():
    """Through a mechanism: compute-only steps advance the carries once
    and then stay put with no jitter drawn; a step with memory samples
    draws and changes the digest."""
    machine = presets.generic()
    mech = IBS(period=64)
    mech.configure(machine, seed=3)
    heap = HeapAllocator(machine)
    compute = _views(heap, [0, 0])
    mech.select_step(compute)  # sets carries for both threads
    d0 = mech.state_digest()
    jit0 = mech._jitter.digest()
    for _ in range(3):
        # 4096 instructions at period 64: the carry stays at 0.
        mech.select_step(compute)
        assert mech.state_digest() == d0
    memory = _views(heap, [512, 0])
    mech.select_step(memory)
    assert mech._jitter.digest() != jit0
    assert mech.state_digest() != d0


def test_scalar_and_step_paths_share_one_stream():
    """Alternating scalar ``select`` and ``select_step`` calls consume
    the same per-thread stream as an all-scalar run."""
    machine = presets.generic()
    heap = HeapAllocator(machine)
    views = _views(heap, [300, 200, 0, 450])
    mixed, scalar = IBS(period=13), IBS(period=13)
    mixed.configure(machine, seed=11)
    scalar.configure(machine, seed=11)
    for it in range(6):
        ref = [
            scalar.select(v.tid, v.chunk, v.levels, v.target_domains,
                          v.latencies).indices
            for v in views
        ]
        if it % 2:
            got = [
                mixed.select(v.tid, v.chunk, v.levels, v.target_domains,
                             v.latencies).indices
                for v in views
            ]
        else:
            step = mixed.select_step(views)
            got = [step.batch_for(k).indices for k in range(len(views))]
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)
    assert mixed.state_digest() == scalar.state_digest()
