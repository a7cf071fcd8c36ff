"""End-to-end memory latency model.

Combines the cache service level, the local/remote placement of the
target page, prefetch exposure, and the contention inflation of the
target domain's memory controller into a per-access latency in cycles.

Remote DRAM carries both a base latency penalty (paper Section 2: remote
accesses have more than 30% higher latency than local) and a per-hop
interconnect cost derived from the SLIT distance matrix.

**Prefetch exposure.** For a sequential chunk, only a fraction
``seq_exposure`` of DRAM fetches expose full memory latency; the rest
are covered by the hardware prefetcher and cost ``prefetched_latency``.
Exposure degrades with contention: a saturated controller cannot keep
prefetches ahead of the core, so the effective exposure is
``min(1, seq_exposure * inflation(target))`` — this is the mechanism by
which the centralized distribution of the paper's Figure 1 hurts even
perfectly streaming code, and it lets balanced distributions
(interleaved/block-wise) recover prefetch efficiency.

Non-sequential (indirect) chunks are always fully exposed, which is why
AMG2006's indirection produces a larger lpi_NUMA than LULESH's streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.cache import LEVEL_DRAM, LEVEL_L1, LEVEL_L2, LEVEL_L3
from repro.machine.topology import NumaTopology


@dataclass(frozen=True)
class LatencyModel:
    """Latency parameters (cycles) for each service point."""

    l1: float = 4.0
    l2: float = 12.0
    l3: float = 40.0
    dram_local: float = 200.0
    dram_remote: float = 300.0
    hop_cost: float = 6.0  # extra cycles per SLIT-distance-unit above local
    #: Latency of a DRAM fetch fully covered by the prefetcher.
    prefetched_latency: float = 44.0
    #: Fraction of a sequential stream's DRAM fetches exposing full latency
    #: at inflation 1 (uncontended).
    seq_exposure: float = 0.12
    #: Prefetchers cover remote streams less well than local ones (the
    #: round trip is longer than the prefetch distance buys): remote
    #: fetches' exposure is scaled up by this factor.
    remote_exposure_factor: float = 1.75
    #: Stream prefetchers stop at page boundaries; on a page-interleaved
    #: segment every restart lands on a (likely remote) new domain, so
    #: sequential exposure rises by this factor. Architectures with long
    #: prefetch ramp-up (POWER7) are hit hardest — this is the mechanism
    #: behind the paper's observation that interleaving *degraded* LULESH
    #: on POWER7 by 16.4% while helping on AMD.
    interleave_stream_penalty: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.l1 <= self.l2 <= self.l3 <= self.dram_local):
            raise ValueError("latencies must satisfy 0 < L1 <= L2 <= L3 <= DRAM")
        if self.dram_remote < self.dram_local:
            raise ValueError("remote DRAM latency must be >= local")
        if not 0.0 < self.seq_exposure <= 1.0:
            raise ValueError("seq_exposure must be in (0, 1]")

    def remote_ratio(self) -> float:
        """Base remote/local DRAM latency ratio (paper: > 1.3)."""
        return self.dram_remote / self.dram_local

    def dram_tables(
        self, topology: NumaTopology, inflation: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-(accessor, target) DRAM latency tables for one step.

        A DRAM fetch's full (exposed) latency and, for sequential
        chunks, its exposure fraction depend only on the accessor
        domain, the target domain, the step's inflation and whether the
        segment is interleaved. Returns ``(demand, exposure)``:
        ``demand[acc, tgt]`` in cycles and ``exposure[interleaved, acc,
        tgt]``; every latency path gathers from them.
        """
        infl = np.asarray(inflation)  # broadcasts along the target axis
        local = np.eye(topology.n_domains, dtype=bool)
        base = np.where(local, self.dram_local, self.dram_remote)
        hops = np.maximum(topology.distances - 10, 0) / 10.0  # SLIT units above local
        base = base + hops * self.hop_cost * 10.0
        demand = base * infl
        # Prefetch absorption, degraded by the target domain's contention,
        # by the longer round trip of remote streams, and by page
        # interleaving's stream restarts.
        remote_scale = np.where(local, 1.0, self.remote_exposure_factor)
        exposure = np.stack([
            np.minimum(
                1.0, self.seq_exposure * infl * remote_scale * stream_scale
            )
            for stream_scale in (1.0, self.interleave_stream_penalty)
        ])
        return demand, exposure

    def access_latency(
        self,
        levels: np.ndarray,
        target_domains: np.ndarray,
        accessor_domain: int,
        topology: NumaTopology,
        inflation: np.ndarray,
        *,
        sequential: bool = False,
        interleaved: bool = False,
    ) -> np.ndarray:
        """Per-access latency in cycles.

        Parameters
        ----------
        levels: service-level code per access (see :mod:`repro.machine.cache`).
        target_domains: owner domain of the touched page per access; only
            consulted for DRAM-level accesses.
        accessor_domain: domain of the CPU issuing the accesses.
        topology: supplies SLIT distances for hop costs.
        inflation: per-domain contention inflation factors for this step.
        sequential: whether the chunk is a prefetchable stream.
        """
        levels = np.asarray(levels)
        lat = np.empty(levels.shape, dtype=np.float64)
        lat[levels == LEVEL_L1] = self.l1
        lat[levels == LEVEL_L2] = self.l2
        lat[levels == LEVEL_L3] = self.l3
        dram_mask = levels == LEVEL_DRAM
        if np.any(dram_mask):
            lat[dram_mask] = self.dram_fetch_latencies(
                np.asarray(target_domains)[dram_mask],
                accessor_domain,
                self.dram_tables(topology, inflation),
                sequential=sequential,
                interleaved=interleaved,
            )
        return lat

    def dram_fetch_latencies(
        self,
        target_domains: np.ndarray,
        accessor_domain: int,
        tables: tuple[np.ndarray, np.ndarray],
        *,
        sequential: bool = False,
        interleaved: bool = False,
    ) -> np.ndarray:
        """Latency of one chunk's DRAM line fetches, in fetch order.

        ``target_domains`` holds only the fetching accesses' page owners
        and ``tables`` is the step's :meth:`dram_tables`. In a sequential
        chunk the k-th fetch is exposed (full latency) when its ordinal
        crosses the next exposure quantum — deterministic even spacing —
        and every other fetch costs ``prefetched_latency``.
        """
        demand_t, exposure_t = tables
        tgt = np.asarray(target_domains)
        demand = demand_t[accessor_domain][tgt]
        if not sequential:
            return demand
        exposure = exposure_t[int(interleaved), accessor_domain][tgt]
        idx = np.arange(tgt.size, dtype=np.float64)
        exposed = np.floor((idx + 1) * exposure) > np.floor(idx * exposure)
        return np.where(exposed, demand, self.prefetched_latency)

    def step_latency(
        self,
        levels: np.ndarray,
        target_domains: np.ndarray,
        accessor_domains: np.ndarray,
        starts: np.ndarray,
        topology: NumaTopology,
        inflation: np.ndarray,
        sequential: np.ndarray,
        interleaved: np.ndarray,
    ) -> np.ndarray:
        """Per-access latency for a whole step's concatenated chunks.

        Batched equivalent of calling :meth:`access_latency` per chunk:
        chunk ``j`` spans ``[starts[j], starts[j+1])`` of ``levels`` /
        ``target_domains`` and carries per-chunk ``accessor_domains[j]``,
        ``sequential[j]``, and ``interleaved[j]``. Prefetch-exposure
        spacing uses each DRAM fetch's ordinal *within its own chunk*, so
        results match the per-chunk path exactly.
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.diff(starts)
        levels = np.asarray(levels)
        lat = np.empty(levels.shape, dtype=np.float64)
        lat[levels == LEVEL_L1] = self.l1
        lat[levels == LEVEL_L2] = self.l2
        lat[levels == LEVEL_L3] = self.l3

        dram_mask = levels == LEVEL_DRAM
        if not np.any(dram_mask):
            return lat

        demand_t, exposure_t = self.dram_tables(topology, inflation)
        acc_rep = np.repeat(np.asarray(accessor_domains, dtype=np.int64), lengths)
        tgt = np.asarray(target_domains)[dram_mask]
        acc = acc_rep[dram_mask]
        demand = demand_t[acc, tgt]

        seq_acc = np.repeat(np.asarray(sequential, dtype=bool), lengths)[dram_mask]
        if not np.any(seq_acc):
            lat[dram_mask] = demand
            return lat

        # Within-chunk DRAM ordinal via exclusive cumulative counts.
        dram_counts = np.cumsum(dram_mask, dtype=np.int64)
        excl = dram_counts - dram_mask
        idx = (excl - np.repeat(excl[starts[:-1]], lengths))[dram_mask].astype(
            np.float64
        )
        inter = np.repeat(np.asarray(interleaved, dtype=np.intp), lengths)
        exposure = exposure_t[inter[dram_mask], acc, tgt]
        exposed = np.floor((idx + 1) * exposure) > np.floor(idx * exposure)
        lat[dram_mask] = np.where(
            seq_acc, np.where(exposed, demand, self.prefetched_latency), demand
        )
        return lat

    def demand_mask(self, latencies: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Which accesses were *demand* DRAM misses (exposed full latency).

        Used to model event counters that fire on demand misses only
        (e.g. MRK's ``PM_MRK_FROM_L3MISS``): prefetched lines do not
        cause demand-miss events.
        """
        return (np.asarray(levels) == LEVEL_DRAM) & (
            np.asarray(latencies) >= self.dram_local * 0.95
        )
