"""Iteration memoization for the execution engine.

A region with ``repeat > 1`` re-executes a *deterministic* per-thread
chunk stream: the generated addresses, the chunk partitioning, and the
pure half of classification are identical on every iteration. What can
change between iterations is (a) page placement — first-touch binding,
migration, protection — and (b) the cache model's reuse-distance state
and the step's contention inflation. The memo layer caches exactly the
invariant parts and keys the variant parts on what they depend on:

* **Generated steps** (the region's chunk trace) are cached once per
  region. This is the same working set the sharded engine already holds
  per iteration (it pre-draws every step before classifying), so it is
  bounded by the program itself and tracked separately from the byte
  budget below.
* **Pure classification products** (:class:`PureStep`) — line-fetch
  masks, footprints, sequentiality, chunk geometry — are a pure
  function of the addresses and cached unconditionally per step.
* **Classification variants** (:class:`ClassifyVariant`) — per-access
  service levels, page owners, DRAM/remote masks, traffic — are keyed
  by ``(page-table epoch, per-chunk fetch levels)``. The reuse-distance
  lookup itself (:meth:`CacheHierarchy.step_fetch_levels`) runs live on
  every iteration; its result is part of the key, so a cache-state
  change simply selects (or builds) a different variant. An epoch bump
  — any page-table mutation — invalidates by the same mechanism.
* **Latency variants** (:class:`LatVariant`) — per-access latencies and
  per-chunk latency sums — are keyed by the step's exact contention
  inflation vector (``inflation.tobytes()``) within their
  classification variant.
* **Monitor views** are cached per latency variant; sampling,
  CCT attribution, and accounting always run live on them, so
  measurement is never cached — only the inputs it observes.

Derived products (everything except the generated steps) are bounded by
a least-recently-used byte budget (default 64 MB). Eviction is safe by
construction: an evicted step record is rebuilt from the deterministic
trace with bit-identical contents, so memo-on results never depend on
the budget. See MODEL.md ("Epoch and invalidation contract").
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro import obs

#: Default byte budget for derived (classification/latency/view) caches.
DEFAULT_MEMO_BYTES = 64 * 1024 * 1024


def _nbytes(*objs) -> int:
    """Total nbytes of the ndarray members of ``objs`` (lists descend)."""
    total = 0
    for o in objs:
        if isinstance(o, np.ndarray):
            total += o.nbytes
        elif isinstance(o, (list, tuple)):
            for x in o:
                if isinstance(x, np.ndarray):
                    total += x.nbytes
    return total


class StepViews(list):
    """A step's monitor views plus cached per-step invariant arrays.

    Behaves exactly like the plain ``list`` of views the engine hands to
    ``Monitor.on_step`` — monitors that don't know about it see a list.
    Batch-aware monitors use the extra arrays (one entry per view, in
    view order) instead of re-deriving them with per-view Python loops
    every iteration, and may stash their own per-step invariants in
    ``memo`` (keyed by consumer).

    Small-chunk (batched) steps also carry the step-concatenated
    per-access arrays the views slice — ``addrs_cat``, ``targets_cat``,
    ``remote_cat`` and ``lat_cat`` — with ``offsets[i]`` the start of
    view ``i``'s slice, so a monitor gathers every sample of the step
    in one fancy index. They are ``None`` on large-chunk steps, whose
    views are lazy.
    """

    __slots__ = (
        "tids", "n_ins", "n_acc", "memo",
        "addrs_cat", "targets_cat", "remote_cat", "lat_cat", "offsets",
    )

    def __init__(self, views, tids, n_ins, n_acc) -> None:
        super().__init__(views)
        self.tids = tids
        self.n_ins = n_ins
        self.n_acc = n_acc
        self.memo: dict = {}
        self.addrs_cat = self.targets_cat = None
        self.remote_cat = self.lat_cat = self.offsets = None

    @classmethod
    def from_views(cls, views) -> "StepViews":
        n = len(views)
        tids = np.fromiter((v.tid for v in views), dtype=np.int64, count=n)
        n_ins = np.fromiter(
            (v.chunk.n_instructions for v in views), dtype=np.int64, count=n
        )
        n_acc = np.fromiter(
            (v.chunk.n_accesses for v in views), dtype=np.int64, count=n
        )
        return cls(views, tids, n_ins, n_acc)

    def attach_step_arrays(
        self, step, mem_idx, starts, addrs_cat, targets_cat, remote_cat,
        lat_cat,
    ) -> None:
        """Attach a batched step's concatenated per-access arrays.

        ``mem_idx[k]`` is the view of the ``k``-th memory chunk, whose
        slice is ``starts[k]:starts[k + 1]``. ``addrs_cat`` may be
        ``None`` when the step's addresses were never concatenated.
        """
        if addrs_cat is None:
            addrs_cat = np.concatenate([step[i][1].addrs for i in mem_idx])
        self.addrs_cat = addrs_cat
        self.targets_cat = targets_cat
        self.remote_cat = remote_cat
        self.lat_cat = lat_cat
        self.offsets = np.zeros(len(self), dtype=np.int64)
        self.offsets[mem_idx] = starts[:-1]


class PureStep:
    """Iteration-invariant products of one step (pure functions of it).

    ``batched`` selects which fields are populated: the batched
    small-chunk path keeps step-wide concatenated arrays, the summary
    large-chunk path keeps per-chunk lists.
    """

    __slots__ = (
        "mem_idx", "mem", "batched",
        "lengths", "starts", "interleaved", "interleaved_arr",
        "acc_domains", "cpus", "seg_ids", "segs",
        # per chunk: arrays on the batched path, lists on the summary path
        "sequential", "footprints", "first_addrs",
        # batched path (step-wide). ``addrs_cat`` is the step's slice of
        # the columnar trace (a view, bytes owned by the gen store) when
        # the step came from a StepTrace; None otherwise.
        "addrs_cat", "fetch",
        # summary path (per mem chunk):
        "chunk_fetch", "chunk_fidx",
        "nbytes",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)
        self.nbytes = 0


class ClassifyVariant:
    """Placement-dependent classification products for one epoch/levels key."""

    __slots__ = (
        # batched path (step-wide):
        "levels", "targets_cat", "dram_cat", "remote_cat",
        "chunk_levels", "chunk_targets", "chunk_seq",
        "chunk_dram", "chunk_remote",
        # summary path (per mem chunk):
        "summaries", "fidx", "dram_targets",
        # both:
        "step_requests", "dram", "remote_dram", "traffic",
        "serial_inflation", "lats", "nbytes",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)
        self.lats: dict = {}
        self.nbytes = 0


class LatVariant:
    """Inflation-dependent latency products within one classify variant."""

    __slots__ = ("lat_sums", "chunk_lat", "lat_cat", "views", "nbytes")

    def __init__(self, lat_sums, chunk_lat, nbytes, lat_cat=None) -> None:
        self.lat_sums = lat_sums
        self.chunk_lat = chunk_lat
        #: Batched path: the step-concatenated latencies (views slice it).
        self.lat_cat = lat_cat
        self.views: StepViews | None = None
        self.nbytes = nbytes


class StepRecord:
    """All cached products for one (region, step) position."""

    __slots__ = ("key", "pure", "variants", "nbytes")

    def __init__(self, key) -> None:
        self.key = key
        self.pure: PureStep | None = None
        self.variants: dict = {}
        self.nbytes = 0


class IterationMemo:
    """Byte-budgeted LRU store of per-step records plus generated steps.

    Step records (derived classification/latency/view products) count
    against ``budget_bytes`` and are evicted least-recently-used; the
    record currently being filled is never evicted, so with a tiny
    budget the memo degrades to recompute-every-step, never to wrong
    results. Generated step traces are tracked separately (they mirror
    the sharded engine's per-iteration working set) and are dropped when
    their region completes, as are the region's records.
    """

    def __init__(self, budget_bytes: int | None = None) -> None:
        self.budget = (
            DEFAULT_MEMO_BYTES if budget_bytes is None else int(budget_bytes)
        )
        self._records: OrderedDict = OrderedDict()
        self._gen: dict = {}
        self._rec_bytes = 0
        self._gen_bytes = 0
        self._gen_shared_bytes = 0
        #: Optional hook fired with the region index when a region's
        #: trace is released — the sharded engine uses it to unlink the
        #: shared-memory pool backing that region's columnar trace.
        self.on_release = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- counters ------------------------------------------------------ #

    def hit(self) -> None:
        self.hits += 1
        obs.TRACER.count("engine.memo.hits")

    def miss(self) -> None:
        self.misses += 1
        obs.TRACER.count("engine.memo.misses")

    def _gauge(self) -> None:
        obs.TRACER.gauge(
            "engine.memo.bytes", float(self._rec_bytes + self._gen_bytes)
        )

    # -- step records -------------------------------------------------- #

    def record(self, region_idx: int, step_idx: int) -> StepRecord:
        """Get-or-create the record for one step; touches LRU order."""
        key = (region_idx, step_idx)
        rec = self._records.get(key)
        if rec is None:
            rec = StepRecord(key)
            self._records[key] = rec
        else:
            self._records.move_to_end(key)
        return rec

    def charge(self, rec: StepRecord, delta: int) -> None:
        """Account ``delta`` bytes to ``rec``; evict LRU if over budget."""
        rec.nbytes += delta
        self._rec_bytes += delta
        if self._rec_bytes > self.budget:
            self._evict(keep=rec)
        self._gauge()

    def _evict(self, keep: StepRecord) -> None:
        for key in list(self._records):
            if self._rec_bytes <= self.budget:
                break
            rec = self._records[key]
            if rec is keep:
                continue
            del self._records[key]
            self._rec_bytes -= rec.nbytes
            self.evictions += 1
            obs.TRACER.count("engine.memo.evicted")

    # -- generated step traces ----------------------------------------- #

    def gen_get(self, region_idx: int):
        """Cached pre-drawn steps (plus payload) for a region, or None."""
        got = self._gen.get(region_idx)
        if got is None:
            self.miss()
            return None
        self.hit()
        return got[0]

    def gen_store(
        self, region_idx: int, payload, nbytes: int,
        shared_nbytes: int = 0,
    ) -> None:
        """Cache a region's pre-drawn trace.

        ``shared_nbytes`` reports how many of the trace's bytes live in
        shared-memory segments (the sharded engine's columnar trace
        plane) — tracked as a gauge so occupancy reporting can tell
        process-private from segment-backed storage.
        """
        self._gen[region_idx] = (payload, int(nbytes), int(shared_nbytes))
        self._gen_bytes += int(nbytes)
        self._gen_shared_bytes += int(shared_nbytes)
        if shared_nbytes:
            obs.TRACER.gauge(
                "engine.memo.shm_bytes", float(self._gen_shared_bytes)
            )
        self._gauge()

    def release_region(self, region_idx: int) -> None:
        """Drop a completed region's generated trace and step records."""
        got = self._gen.pop(region_idx, None)
        if got is not None:
            self._gen_bytes -= got[1]
            self._gen_shared_bytes -= got[2]
        for key in [k for k in self._records if k[0] == region_idx]:
            self._rec_bytes -= self._records.pop(key).nbytes
        if self.on_release is not None:
            # After the records are gone: nothing may hold views into
            # the region's shared trace segments when they are unlinked.
            self.on_release(region_idx)
        self._gauge()

    # -- reporting ----------------------------------------------------- #

    def stats(self) -> dict:
        """Counters and occupancy for bench / observability reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "record_bytes": self._rec_bytes,
            "gen_bytes": self._gen_bytes,
            "gen_shared_bytes": self._gen_shared_bytes,
            "budget_bytes": self.budget,
            "records": len(self._records),
        }
