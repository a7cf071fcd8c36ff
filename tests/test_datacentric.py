"""Data-centric address resolution (the heap/symbol map)."""

import numpy as np
import pytest

from repro.errors import InvalidAddressError
from repro.machine import presets
from repro.profiler.datacentric import VariableRegistry
from repro.runtime.callstack import SourceLoc
from repro.runtime.heap import HeapAllocator


@pytest.fixture
def setup():
    machine = presets.generic(n_domains=2, cores_per_domain=1)
    heap = HeapAllocator(machine)
    reg = VariableRegistry()
    a = heap.malloc(8 * 100, "a", (SourceLoc("main"),))
    b = heap.malloc(8 * 200, "b", (SourceLoc("main"),))
    g = heap.static_alloc(4096, "g")
    for v in (a, b, g):
        reg.register(v)
    return reg, a, b, g


class TestResolve:
    def test_resolve_addr(self, setup):
        reg, a, b, g = setup
        assert reg.resolve_addr(a.base).name == "a"
        assert reg.resolve_addr(b.base + 100).name == "b"
        assert reg.resolve_addr(g.base).name == "g"

    def test_last_byte_resolves(self, setup):
        reg, a, _, _ = setup
        assert reg.resolve_addr(a.end - 1).name == "a"

    def test_one_past_end_fails(self, setup):
        reg, a, _, _ = setup
        with pytest.raises(InvalidAddressError):
            reg.resolve_addr(a.end)

    def test_unmapped_fails(self, setup):
        reg, *_ = setup
        with pytest.raises(InvalidAddressError):
            reg.resolve_addr(42)

    def test_resolve_batch(self, setup):
        reg, a, _, _ = setup
        addrs = a.base + np.arange(0, 800, 8)
        assert reg.resolve_addrs(addrs).name == "a"

    def test_batch_straddle_detected(self, setup):
        reg, a, b, _ = setup
        with pytest.raises(InvalidAddressError):
            reg.resolve_addrs(np.array([a.base, b.base]))


class TestLocate:
    """``locate`` is the vectorized ``resolve_addrs``: same variable for
    every batch that resolves, -1 exactly where it raises."""

    def test_matches_scalar_resolution(self, setup):
        reg, a, b, g = setup
        rng = np.random.default_rng(5)
        # Batches near each variable: inside, across either end, or
        # into a neighbour.
        near = [(a, b, g)[i] for i in rng.integers(0, 3, size=400)]
        lo = np.array([
            v.base + int(rng.integers(-64, v.nbytes + 64)) for v in near
        ])
        hi = lo + rng.integers(0, 2000, size=400)
        got = reg.locate(lo, hi)
        ids = {}
        for i in range(lo.size):
            try:
                name = reg.resolve_addrs(np.array([lo[i], hi[i]])).name
            except InvalidAddressError:
                assert got[i] == -1
                continue
            assert got[i] >= 0
            # One id per name, stable across batches.
            assert ids.setdefault(name, int(got[i])) == got[i]
        assert len(set(ids.values())) == len(ids)
        assert (got == -1).any() and (got >= 0).any()

    def test_straddle_and_edges(self, setup):
        reg, a, b, _ = setup
        got = reg.locate(
            np.array([a.base, a.base, a.end - 1, a.end, 42]),
            np.array([a.end - 1, b.base, a.end - 1, a.end, 42]),
        )
        assert got[0] == got[2] >= 0
        assert list(got[[1, 3, 4]]) == [-1, -1, -1]

    def test_empty_registry(self):
        got = VariableRegistry().locate(np.array([0, 8]), np.array([0, 8]))
        assert list(got) == [-1, -1]


class TestLifecycle:
    def test_unregister(self, setup):
        reg, a, *_ = setup
        reg.unregister(a)
        with pytest.raises(InvalidAddressError):
            reg.resolve_addr(a.base)

    def test_unregister_unknown_tolerated(self, setup):
        reg, a, *_ = setup
        reg.unregister(a)
        reg.unregister(a)  # idempotent

    def test_live_variables_sorted(self, setup):
        reg, *_ = setup
        bases = [v.base for v in reg.live_variables]
        assert bases == sorted(bases)

    def test_reregistration_after_free(self, setup):
        reg, a, *_ = setup
        reg.unregister(a)
        reg.register(a)
        assert reg.resolve_addr(a.base).name == "a"
