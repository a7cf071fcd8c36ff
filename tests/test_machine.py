"""Machine facade: wiring, allocation passthrough, access pipeline."""

import numpy as np
import pytest

from repro.machine import presets
from repro.machine.cache import LEVEL_DRAM
from repro.machine.machine import Machine
from repro.machine.pagetable import PlacementPolicy
from repro.machine.topology import NumaTopology


@pytest.fixture
def machine():
    return presets.generic(n_domains=4, cores_per_domain=2)


class TestConstruction:
    def test_counts(self, machine):
        assert machine.n_cpus == 8
        assert machine.n_domains == 4

    def test_invalid_clock(self):
        topo = NumaTopology(n_domains=1, cores_per_domain=1)
        with pytest.raises(ValueError):
            Machine(topology=topo, ghz=0)

    def test_invalid_cpi(self):
        topo = NumaTopology(n_domains=1, cores_per_domain=1)
        with pytest.raises(ValueError):
            Machine(topology=topo, base_cpi=-1)

    @pytest.mark.parametrize("page_size", [0, 3000, -4096])
    def test_page_size_must_be_power_of_two(self, page_size):
        topo = NumaTopology(n_domains=2, cores_per_domain=2)
        with pytest.raises(ValueError, match="power of two"):
            Machine(topology=topo, page_size=page_size)

    def test_describe(self, machine):
        assert "NUMA domains" in machine.describe()


class TestAllocation:
    def test_map_unmap_roundtrip(self, machine):
        seg = machine.map_segment(0x1000, 8192, label="v")
        assert machine.page_table.segment_of_addr(0x1000) is seg
        machine.unmap_segment(seg)
        assert len(machine.page_table.segments) == 0


class TestAccessPipeline:
    def test_classify_returns_domains(self, machine):
        seg = machine.map_segment(
            0, 4 * 4096, PlacementPolicy.BIND, domains=[2]
        )
        addrs = np.arange(0, 4096, 8, dtype=np.int64)
        cls, targets = machine.classify_accesses(addrs, cpu=0, seg=seg)
        assert np.all(targets == 2)
        assert cls.levels.shape == addrs.shape

    def test_dram_request_counts(self, machine):
        seg = machine.map_segment(
            0, 4 * 4096, PlacementPolicy.BIND, domains=[1]
        )
        addrs = np.arange(0, 4 * 4096, 8, dtype=np.int64)
        cls, targets = machine.classify_accesses(addrs, cpu=0, seg=seg)
        req = machine.dram_request_counts(cls.levels, targets)
        assert req[1] == np.count_nonzero(cls.levels == LEVEL_DRAM)
        assert req.sum() == req[1]

    def test_access_latency_remote_exceeds_local(self, machine):
        seg_local = machine.map_segment(
            0, 4096, PlacementPolicy.BIND, domains=[0]
        )
        seg_remote = machine.map_segment(
            1 << 20, 4096, PlacementPolicy.BIND, domains=[3]
        )
        infl = np.ones(4)
        a_local = np.arange(0, 4096, 8, dtype=np.int64)
        a_remote = (1 << 20) + np.arange(0, 4096, 8, dtype=np.int64)
        cls_l, t_l = machine.classify_accesses(a_local, 0, seg_local)
        cls_r, t_r = machine.classify_accesses(a_remote, 0, seg_remote)
        lat_l = machine.access_latency(cls_l.levels, t_l, 0, infl)
        lat_r = machine.access_latency(cls_r.levels, t_r, 0, infl)
        assert lat_r.sum() > lat_l.sum()

    def test_reset_caches(self, machine):
        seg = machine.map_segment(0, 4096, PlacementPolicy.BIND, domains=[0])
        addrs = np.arange(0, 4096, 8, dtype=np.int64)
        machine.classify_accesses(addrs, 0, seg)
        machine.reset_caches()
        cls, _ = machine.classify_accesses(addrs, 0, seg)
        # Cold again: fetches go to DRAM.
        assert np.any(cls.levels == LEVEL_DRAM)

    def test_cycles_to_seconds(self, machine):
        ghz = machine.ghz
        assert machine.cycles_to_seconds(ghz * 1e9) == pytest.approx(1.0)
