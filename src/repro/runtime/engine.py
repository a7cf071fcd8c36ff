"""The execution engine: drives programs through the simulated machine.

Responsibilities:

* bind threads, run regions in order, and model barrier semantics
  (a parallel region's elapsed time is the maximum over its threads);
* per chunk: bind first-touch pages, deliver page-protection traps to the
  monitor (the SIGSEGV path of paper Section 6), classify cache service
  levels, and compute latencies under the step's contention inflation;
* account per-thread busy cycles, wall-clock cycles, instruction counts,
  and monitoring overhead (so Table 2's overhead percentages can be
  measured exactly as the paper does: monitored time vs. unmonitored).

Contention is evaluated per *step* — the set of chunks all active threads
execute concurrently — so traffic concentrated on one domain inflates
latency for every thread in that step, reproducing Figure 1's
centralized-allocation bandwidth problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import AllocationError, ProgramError
from repro.machine.cache import (
    LEVEL_DRAM, LEVEL_L1, LEVEL_L2, ChunkSummary, ScratchPool,
)
from repro.machine.machine import Machine
from repro.machine.pagetable import PlacementPolicy
from repro.units import fast_unique
from repro.runtime.callstack import CallPath, CallStack
from repro.runtime.chunks import AccessChunk, columnarize_steps, steps_nbytes
from repro.runtime.heap import HeapAllocator, Variable
from repro.runtime.memo import (
    ClassifyVariant,
    IterationMemo,
    LatVariant,
    PureStep,
    StepViews,
    _nbytes,
)
from repro.runtime.phase import (
    IterationRecording,
    PhaseDetector,
    PhaseReport,
    mean_cycles,
    next_schedule_boundary,
    sig_digest,
)
from repro.runtime.program import Program, ProgramContext, Region, RegionKind
from repro.runtime.thread import BindingPolicy, SimThread, bind_threads


#: Shared empty arrays handed to monitors for pure-compute chunks.
_EMPTY_U8 = np.empty(0, dtype=np.uint8)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


@dataclass
class ChunkView:
    """One chunk's share of a step's memory products (see ``Monitor.on_step``).

    The engine computes the step's classification, placement, and latency
    on concatenated arrays for small-chunk steps, and each view exposes
    one chunk's slice of those products plus the per-access masks every
    monitor used to recompute: ``dram_mask`` (service level is DRAM) and
    ``remote_mask`` (page owner differs from the accessing thread's
    domain). Large-chunk steps deliver :class:`LazyChunkView` instead,
    which exposes the same attributes but materializes them on demand.
    Arrays may be views into shared step buffers — monitors must not
    mutate them.
    """

    tid: int
    cpu: int
    domain: int
    chunk: AccessChunk
    levels: np.ndarray
    target_domains: np.ndarray
    latencies: np.ndarray
    path: CallPath
    dram_mask: np.ndarray
    remote_mask: np.ndarray

    def remote_event_count(self) -> int:
        """Remote DRAM accesses in this chunk (absolute event counters)."""
        return int(np.count_nonzero(self.dram_mask & self.remote_mask))

    def gather_samples(self, idx: np.ndarray, *, want_lat: bool = True):
        """Per-access products at sampled indices only.

        Returns ``(target_domains, remote, latencies)`` gathered at
        ``idx`` (sorted chunk-local positions); ``latencies`` is ``None``
        when ``want_lat`` is false. Sampling monitors go through this
        instead of indexing the full arrays so lazy views
        (:class:`LazyChunkView`) can serve samples without materializing
        whole-chunk products.
        """
        targets = self.target_domains[idx]
        remote = self.remote_mask[idx]
        lat = self.latencies[idx] if want_lat else None
        return targets, remote, lat


class LazyChunkView:
    """A :class:`ChunkView` that materializes per-access arrays on demand.

    The monitored large-chunk path computes only each chunk's
    classification summary (line-fetch mask + single fetch level) plus —
    for DRAM-level chunks — the fetch subset's page owners and latencies,
    which the engine needed for timing/traffic accounting anyway. Full
    per-access ``levels`` / ``target_domains`` / ``latencies`` / masks
    are reconstructed lazily on first attribute access, with values
    identical to the eager pipeline: every non-fetch access hits L1, all
    fetches are serviced at the summary's fetch level, and
    ``dram_fetch_latencies`` produces exactly the DRAM entries
    ``access_latency`` would. Sampling monitors that only need values at
    sampled indices call :meth:`gather_samples` /
    :meth:`remote_event_count` and never pay full materialization.
    """

    __slots__ = (
        "tid", "cpu", "domain", "chunk", "path",
        "_summ", "_machine", "_fetch_idx", "_fetch_targets", "_fetch_lat",
        "_levels", "_targets", "_lat", "_dram", "_remote",
    )

    def __init__(
        self,
        tid: int,
        cpu: int,
        domain: int,
        chunk: AccessChunk,
        path: CallPath,
        summ,
        machine: Machine,
        fetch_idx: np.ndarray | None,
        fetch_targets: np.ndarray | None,
        fetch_lat: np.ndarray | None,
    ) -> None:
        self.tid = tid
        self.cpu = cpu
        self.domain = domain
        self.chunk = chunk
        self.path = path
        self._summ = summ
        self._machine = machine
        self._fetch_idx = fetch_idx
        self._fetch_targets = fetch_targets
        self._fetch_lat = fetch_lat
        self._levels = None
        self._targets = None
        self._lat = None
        self._dram = None
        self._remote = None

    @property
    def levels(self) -> np.ndarray:
        lv = self._levels
        if lv is None:
            obs.TRACER.count("engine.lazy.materialized_levels")
            summ = self._summ
            lv = np.full(self.chunk.n_accesses, LEVEL_L1, dtype=np.uint8)
            lv[summ.fetch] = summ.fetch_level
            self._levels = lv
        return lv

    @property
    def target_domains(self) -> np.ndarray:
        tg = self._targets
        if tg is None:
            obs.TRACER.count("engine.lazy.materialized_targets")
            chunk = self.chunk
            seg = chunk.var.segment
            pages = chunk.addrs // self._machine.page_size
            tg = seg.domains[pages - seg.start_page]
            self._targets = tg
        return tg

    @property
    def latencies(self) -> np.ndarray:
        lat = self._lat
        if lat is None:
            obs.TRACER.count("engine.lazy.materialized_latencies")
            summ = self._summ
            lm = self._machine.latency_model
            lat = np.full(self.chunk.n_accesses, lm.l1, dtype=np.float64)
            if summ.fetch_level == LEVEL_DRAM:
                lat[summ.fetch] = self._fetch_lat
            elif summ.fetch_level != LEVEL_L1:
                lat[summ.fetch] = (
                    lm.l2 if summ.fetch_level == LEVEL_L2 else lm.l3
                )
            self._lat = lat
        return lat

    @property
    def dram_mask(self) -> np.ndarray:
        dm = self._dram
        if dm is None:
            summ = self._summ
            if summ.fetch_level == LEVEL_DRAM:
                dm = summ.fetch
            else:
                dm = np.zeros(self.chunk.n_accesses, dtype=bool)
            self._dram = dm
        return dm

    @property
    def remote_mask(self) -> np.ndarray:
        rm = self._remote
        if rm is None:
            rm = self.target_domains != self.domain
            self._remote = rm
        return rm

    def remote_event_count(self) -> int:
        """Remote DRAM accesses, from the fetch subset (no materialization)."""
        if self._fetch_targets is None:
            return 0
        return int(np.count_nonzero(self._fetch_targets != self.domain))

    def gather_samples(self, idx: np.ndarray, *, want_lat: bool = True):
        """Gather ``(targets, remote, latencies)`` at sampled indices.

        Targets come from a direct page-owner lookup on the sampled
        addresses; latencies from the fetch mask (non-fetches are L1, a
        sampled fetch's DRAM latency is found by its ordinal among the
        chunk's fetches via ``searchsorted``). Values are identical to
        indexing the materialized arrays.
        """
        chunk = self.chunk
        if self._targets is not None:
            targets = self._targets[idx]
        else:
            seg = chunk.var.segment
            pages = chunk.addrs[idx] // self._machine.page_size
            targets = seg.domains[pages - seg.start_page]
        remote = targets != self.domain
        lat = None
        if want_lat:
            if self._lat is not None:
                lat = self._lat[idx]
            else:
                summ = self._summ
                lm = self._machine.latency_model
                lat = np.full(idx.size, lm.l1, dtype=np.float64)
                f = summ.fetch[idx]
                if np.any(f):
                    if summ.fetch_level == LEVEL_DRAM:
                        pos = np.searchsorted(self._fetch_idx, idx[f])
                        lat[f] = self._fetch_lat[pos]
                    else:
                        lat[f] = (
                            lm.l2 if summ.fetch_level == LEVEL_L2 else lm.l3
                        )
        return targets, remote, lat


class _StepMem:
    """Per-step memory-system products carried between engine phases.

    The serial engine runs page traps → classification → latency →
    monitor → accounting back to back inside one step; the sharded
    engine (:mod:`repro.parallel`) runs the same phases in separate
    communication rounds — classification once the merged page state is
    ready, latency once the parent has the step's *global* contention
    inflation — so the intermediate products live in an explicit bundle
    rather than local variables. Lists indexed ``k`` run over the step's
    memory chunks (``mem_idx[k]`` maps back to step position ``i``);
    ``trap_costs`` / ``lat_sums`` are indexed by step position.
    """

    __slots__ = (
        "n_active", "mem_idx", "mem", "trap_costs",
        "lengths", "starts", "interleaved", "batched",
        "cls", "targets_cat", "dram_cat", "summary_var",
        "step_requests",
        "lat_sums", "dram", "remote_dram", "traffic",
        "chunk_levels", "chunk_targets", "chunk_seq",
        "chunk_lat", "chunk_dram", "chunk_remote",
        "addrs_cat", "remote_cat", "lat_cat",
        "memo_rec", "memo_var", "memo_lat",
    )

    def __init__(self) -> None:
        self.batched = False
        self.mem = []
        self.dram = 0
        self.remote_dram = 0
        self.memo_rec = None
        self.memo_var = None
        self.memo_lat = None
        self.summary_var = None


class Monitor:
    """No-op monitoring interface; the profiler subclasses this.

    Hook return values in *cycles* are charged to the triggering thread,
    which is how measurement overhead becomes visible in simulated
    execution time.
    """

    def on_run_start(self, engine: "ExecutionEngine") -> None:
        """Called once before program setup."""

    def on_alloc(self, var: Variable) -> None:
        """Called for every variable allocation (allocation wrapper)."""

    def on_free(self, var: Variable) -> None:
        """Called when a variable is freed."""

    def on_region_enter(self, tid: int, region: Region, iteration: int) -> None:
        """Called as each thread enters a region iteration."""

    def on_region_exit(self, tid: int, region: Region, iteration: int) -> None:
        """Called as each thread leaves a region iteration."""

    def on_first_touch(
        self, tid: int, cpu: int, var: Variable, pages: np.ndarray, path: CallPath
    ) -> float:
        """Protection-trap handler; returns handler cost in cycles."""
        return 0.0

    def on_chunk(
        self,
        tid: int,
        cpu: int,
        chunk: AccessChunk,
        levels: np.ndarray,
        target_domains: np.ndarray,
        latencies: np.ndarray,
        path: CallPath,
    ) -> float:
        """Observe one executed chunk; returns monitoring cost in cycles."""
        return 0.0

    def on_step(self, views: list[ChunkView]) -> list[float]:
        """Observe one execution step; returns per-chunk costs in cycles.

        The engine calls this once per step with one view per executed
        chunk, in step order — a :class:`ChunkView` with eager arrays for
        small-chunk (batched) steps, a :class:`LazyChunkView` for
        large-chunk steps. The default implementation preserves the
        historical per-chunk contract by dispatching each view to
        :meth:`on_chunk`, which materializes lazy views; batch-aware
        monitors override it and consume samples through
        ``gather_samples`` / ``remote_event_count`` so lazy views never
        materialize whole-chunk arrays.
        """
        return [
            self.on_chunk(
                v.tid, v.cpu, v.chunk, v.levels, v.target_domains,
                v.latencies, v.path,
            )
            for v in views
        ]

    def on_run_end(self, result: "RunResult") -> None:
        """Called once after the last region."""

    # -- phase-extrapolation protocol (see repro.runtime.phase) -------- #
    #
    # A monitor that cannot participate leaves ``phase_supported`` False
    # and the engine simply never extrapolates monitored regions; the
    # remaining hooks are only called when it returns True (or when the
    # engine runs unmonitored, in which case none of them are called).

    def phase_supported(self) -> bool:
        """Whether this monitor can record/replay iteration deltas."""
        return False

    def phase_digest(self):
        """Hashable digest of mutable state that affects future output."""
        return None

    def phase_record_begin(self) -> None:
        """Start recording this iteration's accumulation program."""

    def phase_record_end(self):
        """Finish recording; returns the replayable program."""
        return None

    def phase_replay(self, prog, n: int) -> None:
        """Re-apply a recorded iteration program ``n`` times (exactly)."""

    def phase_snapshot(self):
        """Snapshot accumulator state for ε-mode delta extraction."""
        return None

    def phase_delta(self, snapshot):
        """Delta since ``snapshot``; None if structure changed (ε reset)."""
        return None

    def extrapolate_flush(self, deltas: list, n: int) -> float:
        """Apply the window-mean of ``deltas`` scaled by ``n`` iterations.

        Returns the observed relative half-spread (ε contribution).
        """
        return 0.0


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    program: str
    n_threads: int
    wall_cycles: float
    thread_busy_cycles: np.ndarray
    total_instructions: int
    total_accesses: int
    dram_accesses: int
    remote_dram_accesses: int
    monitor_overhead_cycles: float
    region_wall_cycles: dict[str, float]
    domain_dram_requests: np.ndarray
    #: DRAM traffic matrix: ``[accessor_domain, target_domain]`` fetch
    #: counts — the interconnect load picture behind Figure 1's bandwidth
    #: argument (off-diagonal mass = cross-domain traffic).
    domain_traffic: np.ndarray
    ghz: float
    #: Number of access chunks executed (every chunk counts, including
    #: pure-compute ones) — the denominator of the perf harness's
    #: chunks/s throughput metric.
    total_chunks: int = 0

    @property
    def wall_seconds(self) -> float:
        """Simulated wall-clock seconds."""
        return self.wall_cycles / (self.ghz * 1e9)

    @property
    def remote_dram_fraction(self) -> float:
        """Fraction of DRAM accesses that were remote."""
        if self.dram_accesses == 0:
            return 0.0
        return self.remote_dram_accesses / self.dram_accesses

    def region_seconds(self, name: str) -> float:
        """Simulated seconds spent in (all iterations of) a region."""
        return self.region_wall_cycles.get(name, 0.0) / (self.ghz * 1e9)


@dataclass(frozen=True)
class AppliedAction:
    """Record of one scheduled migration the engine applied (or refused).

    ``ok`` is False when the migration aborted (e.g. an exhausted
    domain): ``migrate_segment`` is atomic, so the run simply continues
    on the old placement, and ``error`` carries the reason.
    """

    region_idx: int
    iteration: int
    var_name: str
    policy: str
    domains: tuple[int, ...] | None
    ok: bool
    epoch: int
    error: str = ""


class ExecutionEngine:
    """Single-use runner: one engine executes one program on one machine."""

    #: Cycles charged for taking a protection trap, independent of the
    #: monitor's handler cost. A real fault costs ~3000 cycles, but the
    #: simulated executions are orders of magnitude shorter than the
    #: paper's minutes-long runs while touching similar page counts; the
    #: charge is scaled down accordingly so the trap cost relative to
    #: total runtime matches the paper's "low runtime overhead" claim.
    TRAP_BASE_COST = 50.0

    #: Mean accesses-per-chunk at or below which a step's chunks are
    #: concatenated and run through the batched pipeline. Small chunks
    #: are dominated by fixed per-chunk NumPy dispatch cost, which
    #: batching amortizes; large chunks already amortize it and are
    #: faster processed one at a time because each chunk's working set
    #: stays cache-resident. The two paths are exact equivalents, so this
    #: is a pure performance knob (see ``tests/test_engine.py``'s
    #: batched-vs-per-chunk parity test).
    BATCH_MEAN_ACCESSES = 2048

    def __init__(
        self,
        machine: Machine,
        program: Program,
        n_threads: int,
        *,
        binding: BindingPolicy = BindingPolicy.COMPACT,
        monitor: Monitor | None = None,
        params: dict | None = None,
        seed: int = 0,
        memoize: bool = True,
        memo_bytes: int | None = None,
        schedule=None,
        extrapolate: bool = False,
        extrap_warmup: int = 2,
    ) -> None:
        self.machine = machine
        self.program = program
        self.threads = bind_threads(machine.topology, n_threads, binding)
        self.monitor = monitor
        self.heap = HeapAllocator(machine)
        self.ctx = ProgramContext(machine, self.heap, self.threads, params, seed)
        self.callstacks = {t.tid: CallStack() for t in self.threads}
        #: Iteration memoization (see :mod:`repro.runtime.memo`); results
        #: are bit-identical with it on or off (``--no-memo``).
        self.memo = IterationMemo(memo_bytes) if memoize else None
        #: Live-migration schedule (duck-typed
        #: :class:`repro.optim.policies.PolicySchedule` — the engine must
        #: not import :mod:`repro.optim` to avoid an import cycle).
        #: Consulted at the top of every region iteration; mutations are
        #: applied before any thread enters the region, so a sharded run
        #: replays them identically in every worker.
        self.schedule = schedule
        #: Log of schedule applications (``AppliedAction``), in order.
        self.applied_actions: list[AppliedAction] = []
        #: Phase-adaptive extrapolation (see :mod:`repro.runtime.phase`).
        #: Requires memoization; exact (ε=0) whenever the monitor's
        #: selection state also reaches a fixed point, ε-accounted
        #: otherwise. ``phase_report`` (a dict) is attached after the run.
        self.extrapolate = bool(extrapolate) and memoize
        self.extrap_warmup = max(1, int(extrap_warmup))
        self.phase_report: dict | None = None
        #: Per-iteration recording hooks (active only while a detector
        #: is live): overhead (tid, cycles) pairs and memo variant keys.
        self._phase_oh_rec: list | None = None
        self._phase_sig: list | None = None
        self._scratch = ScratchPool()
        self._ran = False

    def run(self) -> RunResult:
        """Execute the program once and return timing/traffic statistics."""
        if self._ran:
            raise ProgramError("ExecutionEngine is single-use; build a new one")
        self._ran = True
        tr = obs.TRACER
        if not tr.enabled:
            return self._run(tr)
        tr.begin("engine.run", "engine", program=self.program.name)
        try:
            return self._run(tr)
        finally:
            tr.end()

    def _apply_schedule(
        self, region_idx: int, region: Region, iteration: int
    ) -> bool:
        """Apply scheduled live migrations at this iteration boundary.

        Runs before any thread enters the region (and before the memo
        reads the page-table epoch), so every worker in a sharded run —
        each holding a replica of the page table — performs the same
        mutations in the same order and arrives at the same epoch. A
        failed migration is atomic (see ``PageTable.migrate_segment``):
        it is logged with ``ok=False`` and the run continues unchanged.
        Returns whether any action was scheduled here (a phase break).
        """
        steps = self.schedule.steps_for(region_idx, iteration)
        if not steps:
            return False
        tr = obs.TRACER
        page_table = self.machine.page_table
        for step in steps:
            domains = step.domain_list()
            var = self.heap.variables.get(step.var_name)
            if var is None:
                self.applied_actions.append(
                    AppliedAction(
                        region_idx, iteration, step.var_name,
                        step.policy.value,
                        tuple(domains) if domains else None,
                        False, page_table.epoch,
                        error=f"unknown variable {step.var_name!r}",
                    )
                )
                tr.count("optim.migrations_failed")
                continue
            seg = page_table.segment_of_addr(var.base)
            if tr.enabled:
                tr.begin(
                    "engine.migrate", "optim",
                    var=step.var_name, policy=step.policy.value,
                    region=region.name, iteration=iteration,
                )
            try:
                page_table.migrate_segment(seg, step.policy, domains)
            except AllocationError as exc:
                self.applied_actions.append(
                    AppliedAction(
                        region_idx, iteration, step.var_name,
                        step.policy.value,
                        tuple(domains) if domains else None,
                        False, page_table.epoch, error=str(exc),
                    )
                )
                tr.count("optim.migrations_failed")
            else:
                self.applied_actions.append(
                    AppliedAction(
                        region_idx, iteration, step.var_name,
                        step.policy.value,
                        tuple(domains) if domains else None,
                        True, page_table.epoch,
                    )
                )
                tr.count("optim.migrations_applied")
            finally:
                if tr.enabled:
                    tr.end()
        return True

    def _phase_replay(self, detector, mode, n_skip, overhead_by_tid) -> float:
        """Replay ``n_skip`` skipped iterations' thread-local effects.

        Every skipped iteration replays the last live iteration: exact
        mode re-applies its overhead adds and monitor accumulation
        program ``n_skip`` times — the same float adds in the same order
        simulating would perform; ε mode scales the window-mean overhead
        and monitor deltas. The cache's reuse-distance state is
        fast-forwarded so later regions classify bit-identically to the
        exact run. Shared by the serial engine and each shard; returns
        the ε this skip declares (0 in exact mode).
        """
        rec = detector.last_rec
        eps = 0.0
        if mode == "exact":
            for _ in range(n_skip):
                for tid, oh in rec.oh_ops:
                    overhead_by_tid[tid] += oh
            if self.monitor is not None:
                self.monitor.phase_replay(rec.monitor_prog, n_skip)
        else:
            w = detector.eps_window
            oh_mean = w[0].oh_delta.copy()
            for s in w[1:]:
                oh_mean += s.oh_delta
            oh_mean /= len(w)
            overhead_by_tid += oh_mean * n_skip
            eps = detector.eps_value()
            if self.monitor is not None:
                eps = max(eps, self.monitor.extrapolate_flush(
                    [s.monitor_delta for s in w], n_skip
                ))
        if rec.cache_delta is not None:
            self.machine.cache.phase_advance(rec.cache_delta, n_skip)
        return eps

    def _phase_extrapolate(
        self, detector, mode, region, active, n_skip, busy,
        overhead_by_tid, domain_requests, domain_traffic, wall,
        region_wall, tr,
    ):
        """Apply ``n_skip`` iterations' deltas without simulating them.

        Exact mode folds the last live iteration's recorded cycles once
        per skipped iteration, so the result is bit-identical to
        simulating (ε = 0). ε mode (engine fixed, sampling jittered)
        folds the window-mean cycles scaled by ``n_skip``. Engine-pure
        integers multiply exactly in both modes; thread-local effects go
        through :meth:`_phase_replay`. Returns ``(wall, int_deltas,
        eps)``.
        """
        name = region.name
        rec = detector.last_rec
        if tr.enabled:
            tr.begin(
                "engine.phase.extrapolate", "engine",
                region=name, iterations=n_skip, mode=mode,
            )
        if mode == "exact":
            for _ in range(n_skip):
                for t in active:
                    busy[t.tid] += rec.region_cycles[t.tid]
                wall += rec.elapsed
                region_wall[name] = region_wall.get(name, 0.0) + rec.elapsed
        else:
            rc_mean, elapsed_mean = mean_cycles(detector.eps_window)
            for t in active:
                busy[t.tid] += rc_mean[t.tid] * n_skip
            wall += elapsed_mean * n_skip
            region_wall[name] = (
                region_wall.get(name, 0.0) + elapsed_mean * n_skip
            )
        eps = self._phase_replay(detector, mode, n_skip, overhead_by_tid)
        domain_requests += rec.requests * n_skip
        domain_traffic += rec.traffic * n_skip
        ints = {k: v * n_skip for k, v in rec.ints.items()}
        if tr.enabled:
            tr.count("engine.phase.extrapolated_iterations", n_skip)
            tr.end()
        return wall, ints, eps

    def _run(self, tr) -> RunResult:
        if self.monitor is not None:
            self.heap.add_monitor(self.monitor)
            self.monitor.on_run_start(self)

        if tr.enabled:
            with tr.span("engine.setup", "engine"):
                self.program.setup(self.ctx)
                regions = self.program.regions(self.ctx)
        else:
            self.program.setup(self.ctx)
            regions = self.program.regions(self.ctx)

        # Metrics plane: a recorder attached to an enabled tracer gets a
        # snapshot at every region-iteration boundary. Sampling is a
        # read-only observer on host time — simulated results are
        # bit-identical with it on or off (tests/test_metrics_parity.py).
        mx = getattr(tr, "metrics", None) if tr.enabled else None

        busy = np.zeros(len(self.threads), dtype=np.float64)
        # Overhead accumulates per thread and reduces once at the end:
        # each tid's partial sum involves only that thread's own chunks
        # in step order, so a sharded run (which accumulates the same
        # per-tid sequences in worker processes) reduces bit-identically.
        overhead_by_tid = np.zeros(len(self.threads), dtype=np.float64)
        total_instructions = 0
        total_accesses = 0
        total_chunks = 0
        dram_accesses = 0
        remote_dram = 0
        wall = 0.0
        region_wall: dict[str, float] = {}
        domain_requests = np.zeros(self.machine.n_domains, dtype=np.int64)
        domain_traffic = np.zeros(
            (self.machine.n_domains, self.machine.n_domains), dtype=np.int64
        )
        phase_report = PhaseReport(enabled=self.extrapolate)

        def _mx_values() -> dict:
            # Cumulative engine totals snapshotted into the metrics plane.
            # Passed explicitly (not read from tracer counters) so the
            # sharded parent — whose counters live in the workers — can
            # feed the same keys and share the rate-derivation path.
            values = {
                "engine.chunks": float(total_chunks),
                "engine.accesses": float(total_accesses),
                "engine.instructions": float(total_instructions),
            }
            if dram_accesses:
                values["engine.remote_fraction"] = remote_dram / dram_accesses
            for d in range(self.machine.n_domains):
                values[f"engine.domain.requests.{d}"] = float(
                    domain_requests[d]
                )
            return values

        for region_idx, region in enumerate(regions):
            active = (
                self.threads
                if region.kind is RegionKind.PARALLEL
                else self.threads[:1]
            )
            memo = self.memo
            use_memo = (
                memo is not None and region.repeat > 1 and region.memoize
            )
            detector = None
            if (
                self.extrapolate
                and use_memo
                # A region that cannot finish its warmup before it ends
                # can never skip, so it never pays for observation.
                and region.repeat > self.extrap_warmup
                and (self.monitor is None or self.monitor.phase_supported())
            ):
                detector = PhaseDetector(warmup=self.extrap_warmup)
            n_exact = n_eps = 0
            eps_max = 0.0
            iteration = 0
            while iteration < region.repeat:
                fired = False
                if mx is not None:
                    epoch0 = self.machine.page_table.epoch
                    breaks0 = detector.breaks if detector is not None else 0
                if self.schedule is not None:
                    fired = self._apply_schedule(region_idx, region, iteration)
                    if fired and detector is not None:
                        detector.invalidate()
                mode = None
                if detector is not None:
                    detector.begin_iteration(self.machine.page_table.epoch)
                    mode = detector.plan()
                if mode is not None:
                    stop = next_schedule_boundary(
                        self.schedule, region_idx, iteration, region.repeat
                    )
                    n_skip = stop - iteration
                    if n_skip > 0:
                        wall, ints, eps = self._phase_extrapolate(
                            detector, mode, region, active, n_skip, busy,
                            overhead_by_tid, domain_requests, domain_traffic,
                            wall, region_wall, tr,
                        )
                        total_instructions += ints["instructions"]
                        total_accesses += ints["accesses"]
                        total_chunks += ints["chunks"]
                        dram_accesses += ints["dram"]
                        remote_dram += ints["remote_dram"]
                        if mode == "exact":
                            n_exact += n_skip
                        else:
                            n_eps += n_skip
                            eps_max = max(eps_max, eps)
                        iteration = stop
                        if mx is not None:
                            mx.sample(
                                tr,
                                flags=obs.FLAG_EXTRAPOLATED,
                                region=region.name,
                                iteration=iteration - 1,
                                values=_mx_values(),
                            )
                        continue
                traced = tr.enabled
                oh_ops: list = []
                mon_snap = None
                oh_base = None
                cache_snap = None
                if detector is not None:
                    self._phase_oh_rec = oh_ops
                    self._phase_sig = sig = []
                    cache_snap = self.machine.cache.phase_snapshot()
                    if self.monitor is not None:
                        self.monitor.phase_record_begin()
                        mon_snap = self.monitor.phase_snapshot()
                        oh_base = overhead_by_tid.copy()
                if traced:
                    iter_t0 = tr.now_ns()
                    tr.begin(
                        "engine.region", "engine",
                        region=region.name, iteration=iteration,
                    )
                for t in active:
                    self.callstacks[t.tid].push(region.src)
                    if self.monitor is not None:
                        self.monitor.on_region_enter(t.tid, region, iteration)

                steps = memo.gen_get(region_idx) if use_memo else None
                if steps is None:
                    iters = {
                        t.tid: iter(region.kernel(self.ctx, t.tid))
                        for t in active
                    }
                    if use_memo:
                        # Pre-draw the whole iteration's steps (same
                        # generator consumption order as the interleaved
                        # loop below) and cache the trace for replay.
                        steps = self._draw_steps(active, iters)
                        memo.gen_store(region_idx, steps, steps_nbytes(steps))

                region_cycles = {t.tid: 0.0 for t in active}
                # Per-iteration integer deltas (folded into the run
                # totals below; integer adds are associative, so this
                # restructure is bit-identical — and it is exactly what
                # the phase detector records for extrapolation).
                it_instructions = it_accesses = it_chunks = 0
                it_dram = it_remote = 0
                it_requests = np.zeros_like(domain_requests)
                it_traffic = np.zeros_like(domain_traffic)
                if steps is not None:
                    for s_idx, step in enumerate(steps):
                        rec = memo.record(region_idx, s_idx)
                        cat = steps.step_addrs(s_idx)
                        if traced:
                            tr.begin("engine.step", "engine")
                            stats = self._execute_step(
                                step, region_cycles, overhead_by_tid, rec,
                                cat=cat,
                            )
                            tr.end()
                        else:
                            stats = self._execute_step(
                                step, region_cycles, overhead_by_tid, rec,
                                cat=cat,
                            )
                        it_instructions += stats["instructions"]
                        it_accesses += stats["accesses"]
                        it_chunks += len(step)
                        it_dram += stats["dram"]
                        it_remote += stats["remote_dram"]
                        it_requests += stats["domain_requests"]
                        it_traffic += stats["domain_traffic"]
                    iters = None
                while iters:
                    step: list[tuple[SimThread, AccessChunk]] = []
                    for t in active:
                        if t.tid not in iters:
                            continue
                        try:
                            step.append((t, next(iters[t.tid])))
                        except StopIteration:
                            del iters[t.tid]
                    if not step:
                        break

                    if traced:
                        tr.begin("engine.step", "engine")
                        stats = self._execute_step(
                            step, region_cycles, overhead_by_tid
                        )
                        tr.end()
                    else:
                        stats = self._execute_step(
                            step, region_cycles, overhead_by_tid
                        )
                    it_instructions += stats["instructions"]
                    it_accesses += stats["accesses"]
                    it_chunks += len(step)
                    it_dram += stats["dram"]
                    it_remote += stats["remote_dram"]
                    it_requests += stats["domain_requests"]
                    it_traffic += stats["domain_traffic"]

                for t in active:
                    if self.monitor is not None:
                        self.monitor.on_region_exit(t.tid, region, iteration)
                    self.callstacks[t.tid].pop()

                if traced:
                    tr.end()
                    # Per-simulated-thread mirror tracks: the region
                    # iteration as each thread saw it (lockstep, so the
                    # host-time interval is shared).
                    iter_t1 = tr.now_ns()
                    for t in active:
                        tr.pair(
                            region.name, "engine", t.tid, iter_t0, iter_t1
                        )

                elapsed = max(region_cycles.values()) if region_cycles else 0.0
                for t in active:
                    busy[t.tid] += region_cycles[t.tid]
                wall += elapsed
                region_wall[region.name] = region_wall.get(region.name, 0.0) + elapsed

                total_instructions += it_instructions
                total_accesses += it_accesses
                total_chunks += it_chunks
                dram_accesses += it_dram
                remote_dram += it_remote
                domain_requests += it_requests
                domain_traffic += it_traffic

                if detector is not None:
                    self._phase_oh_rec = None
                    self._phase_sig = None
                    mon_digest = ()
                    mon_prog = None
                    mon_delta = None
                    if self.monitor is not None:
                        mon_prog = self.monitor.phase_record_end()
                        mon_digest = self.monitor.phase_digest()
                        if mon_snap is not None:
                            mon_delta = self.monitor.phase_delta(mon_snap)
                    rec_i = IterationRecording(
                        ints={
                            "instructions": it_instructions,
                            "accesses": it_accesses,
                            "chunks": it_chunks,
                            "dram": it_dram,
                            "remote_dram": it_remote,
                        },
                        requests=it_requests,
                        traffic=it_traffic,
                        region_cycles=region_cycles,
                        elapsed=elapsed,
                        oh_ops=oh_ops,
                        cache_delta=self.machine.cache.phase_delta(cache_snap),
                        monitor_prog=mon_prog,
                    )
                    # The cache's reuse-distance state needs no digest
                    # entry: an identical trace revisits the same keys
                    # every iteration, so fetch levels are periodic once
                    # the memo-key signature repeats (see phase.py); the
                    # recorded cache delta is compared exactly instead.
                    engine_digest = sig_digest(
                        self.machine.page_table.epoch, sig
                    )
                    detector.end_live_iteration(
                        engine_digest, mon_digest, rec_i,
                        overhead_by_tid - oh_base
                        if oh_base is not None else None,
                        mon_delta,
                    )
                    if traced and detector.streak:
                        tr.count("engine.phase.steady_iterations")
                if mx is not None:
                    flags = obs.FLAG_ITERATION
                    if fired:
                        flags |= obs.FLAG_SCHEDULE
                    if self.machine.page_table.epoch != epoch0:
                        flags |= obs.FLAG_EPOCH
                    if detector is not None and detector.breaks != breaks0:
                        flags |= obs.FLAG_PHASE_BREAK
                    mx.sample(
                        tr,
                        flags=flags,
                        region=region.name,
                        iteration=iteration,
                        values=_mx_values(),
                    )
                iteration += 1

            if memo is not None:
                memo.release_region(region_idx)
            if self.extrapolate:
                stats_r = phase_report.region(region.name)
                stats_r.iterations += region.repeat
                stats_r.extrapolated_exact += n_exact
                stats_r.extrapolated_eps += n_eps
                stats_r.simulated += region.repeat - n_exact - n_eps
                if detector is not None:
                    stats_r.breaks += detector.breaks
                stats_r.epsilon = max(stats_r.epsilon, eps_max)
                if traced and detector is not None and detector.breaks:
                    tr.count("engine.phase.breaks", detector.breaks)

        result = RunResult(
            program=self.program.name,
            n_threads=len(self.threads),
            wall_cycles=wall,
            thread_busy_cycles=busy,
            total_instructions=total_instructions,
            total_accesses=total_accesses,
            dram_accesses=dram_accesses,
            remote_dram_accesses=remote_dram,
            monitor_overhead_cycles=float(overhead_by_tid.sum()),
            region_wall_cycles=region_wall,
            domain_dram_requests=domain_requests,
            domain_traffic=domain_traffic,
            ghz=self.machine.ghz,
            total_chunks=total_chunks,
        )
        if self.extrapolate:
            self.phase_report = phase_report.as_dict()
            if tr.enabled:
                tr.gauge(
                    "engine.phase.epsilon", self.phase_report["epsilon"]
                )
                tr.gauge(
                    "engine.phase.coverage_pct",
                    self.phase_report["coverage_pct"],
                )
        if self.monitor is not None:
            self.monitor.on_run_end(result)
        if mx is not None:
            # Final snapshot after run-end gauges (phase report, profiler
            # row tables) are set, so the last row carries them all.
            mx.sample(tr, flags=obs.FLAG_FINAL, values=_mx_values())
        return result

    # ------------------------------------------------------------------ #

    @staticmethod
    def _draw_steps(active: list[SimThread], iters: dict):
        """Drain the iteration's kernels into a :class:`StepTrace`.

        Generator consumption order is exactly the interleaved execution
        loop's, so pre-drawing changes nothing for deterministic kernels
        (the sharded engine has always pre-drawn; see ``Region.memoize``
        for the opt-out).
        """
        steps: list[list[tuple[SimThread, AccessChunk]]] = []
        while iters:
            step: list[tuple[SimThread, AccessChunk]] = []
            for t in active:
                if t.tid not in iters:
                    continue
                try:
                    step.append((t, next(iters[t.tid])))
                except StopIteration:
                    del iters[t.tid]
            if not step:
                break
            steps.append(step)
        # Pack the trace's addresses into one flat column so classify
        # reads each step's concatenation in place (values unchanged).
        return columnarize_steps(steps)

    def _execute_step(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        region_cycles: dict[int, float],
        overhead_by_tid: np.ndarray,
        rec=None,
        cat: np.ndarray | None = None,
    ) -> dict:
        """Run one lockstep set of chunks through the memory system.

        Page work (traps + first-touch binding) runs per chunk in step
        order — trap delivery and binding order are semantically ordered —
        but is skipped entirely for segments whose ``n_protected`` /
        ``n_unbound`` counters are zero. The per-access work
        (classification, placement lookup, latency, DRAM/traffic
        accounting) then runs once on the step's concatenated arrays when
        chunks are small (mean accesses/chunk <= ``BATCH_MEAN_ACCESSES``),
        amortizing per-chunk dispatch overhead; steps of large chunks use
        the classification *summary* (fetch mask + single fetch level),
        touching per-access data only on the fetch subset, with monitors
        served by :class:`LazyChunkView` so full per-access arrays are
        reconstructed only if a monitor actually reads them. Both paths
        compute identical per-access values.

        The phases are factored into ``_page_phase`` / ``_classify_phase``
        / ``_latency_phase`` / ``_monitor_phase`` / ``_account_phase`` so
        the sharded engine can drive them across communication rounds;
        this method is the serial orchestration.
        """
        tr = obs.TRACER
        traced = tr.enabled
        if traced:
            tr.count("engine.steps")
            tr.count("engine.chunks", len(step))
            tr.begin("engine.page_traps", "engine")

        st = self._page_phase(step, rec)

        if traced:
            tr.end()
            tr.begin("engine.classify", "engine")

        self._classify_phase(step, st, rec=rec, cat=cat)

        if traced:
            if st.mem_idx:
                tr.count(
                    "engine.steps_batched" if st.batched
                    else "engine.steps_summary"
                )
            tr.end()
            tr.begin("engine.latency", "engine")

        var = st.memo_var
        if var is not None:
            # Serial inflation is a pure function of the variant's
            # step requests and the (iteration-invariant) active count.
            inflation = var.serial_inflation
            if inflation is None:
                inflation = var.serial_inflation = (
                    self.machine.contention.inflation(
                        st.step_requests, st.n_active
                    )
                )
        else:
            inflation = self.machine.contention.inflation(
                st.step_requests, st.n_active
            )
        self._latency_phase(st, inflation)

        if traced:
            tr.end()

        costs = self._monitor_phase(step, st)
        instructions, accesses = self._account_phase(
            step, st, costs, region_cycles, overhead_by_tid
        )

        return {
            "instructions": instructions,
            "accesses": accesses,
            "dram": st.dram,
            "remote_dram": st.remote_dram,
            "domain_requests": st.step_requests,
            "domain_traffic": st.traffic,
        }

    def _apply_page_event(
        self,
        tid: int,
        cpu: int,
        var: Variable,
        pages: np.ndarray,
        ip: "SourceLoc",
        *,
        attribute: bool = True,
    ) -> float:
        """Deliver pending page work for one chunk's unique page set.

        Handles protection traps (unprotect + optional monitor
        attribution) and first-touch binding, returning the trap cost in
        cycles. ``attribute=False`` applies the page-table state changes
        without involving the monitor — the sharded engine's replay of
        *other* shards' page events, which must update every worker's
        replicated page table but be attributed only by the owner.
        """
        machine = self.machine
        seg = var.segment
        if seg.n_protected == 0 and seg.n_unbound == 0:
            return 0.0  # fast path: nothing left to trap or bind
        cost = 0.0
        if seg.n_protected:
            prot = machine.page_table.protected_mask(pages)
            if np.any(prot):
                trapped = pages[prot]
                cost = self.TRAP_BASE_COST * trapped.size
                if attribute and self.monitor is not None:
                    path = self.callstacks[tid].with_leaf(ip)
                    cost += self.monitor.on_first_touch(
                        tid, cpu, var, trapped, path
                    )
                machine.page_table.unprotect_pages(trapped)
        if seg.n_unbound:
            machine.page_table.touch_pages(pages, cpu)
        return cost

    def _page_phase(
        self, step: list[tuple[SimThread, AccessChunk]], rec=None
    ) -> _StepMem:
        """Ordered page-protection traps + first touches for one step."""
        page_size = self.machine.page_size
        st = _StepMem()
        st.n_active = len(step)
        st.trap_costs = [0.0] * st.n_active
        if rec is not None and rec.pure is not None:
            # Memo fast path: chunk geometry is iteration-invariant, so
            # only the (ordered, live) page work remains — and in steady
            # state every segment's counters are already zero.
            pure = rec.pure
            st.mem_idx = pure.mem_idx
            for k, i in enumerate(pure.mem_idx):
                t, chunk = pure.mem[k]
                seg = chunk.var.segment
                if seg.n_protected == 0 and seg.n_unbound == 0:
                    continue
                pages = fast_unique(chunk.addrs // page_size)
                st.trap_costs[i] = self._apply_page_event(
                    t.tid, t.cpu, chunk.var, pages, chunk.ip
                )
            return st
        st.mem_idx = []  # positions in `step` with memory traffic
        for i, (t, chunk) in enumerate(step):
            if chunk.var is None or not chunk.n_accesses:
                continue
            st.mem_idx.append(i)
            seg = chunk.var.segment
            if seg.n_protected == 0 and seg.n_unbound == 0:
                continue
            pages = fast_unique(chunk.addrs // page_size)
            st.trap_costs[i] = self._apply_page_event(
                t.tid, t.cpu, chunk.var, pages, chunk.ip
            )
        return st

    def _classify_phase(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        st: _StepMem,
        batched: bool | None = None,
        rec=None,
        cat: np.ndarray | None = None,
    ) -> None:
        """Classification / placement (batched or per-chunk summary).

        ``batched=None`` decides from this step's own totals (serial);
        the sharded engine passes the parent's globally computed flag so
        every worker takes the same float-summation path. With a memo
        record (``rec``), cached pure products and epoch/levels-keyed
        variants replace recomputation — the reuse-distance lookup still
        runs live every iteration (see :mod:`repro.runtime.memo`).
        ``cat`` optionally carries the step's pre-concatenated mem-chunk
        addresses from the columnar trace (:class:`StepTrace`) — same
        values the per-chunk concatenation would produce, read in place.
        """
        machine = self.machine
        n_domains = machine.n_domains
        n_mem = len(st.mem_idx)
        if rec is not None and n_mem:
            self._classify_memo(step, st, batched, rec, cat)
            return
        st.step_requests = np.zeros(n_domains, dtype=np.int64)
        st.chunk_levels = [None] * n_mem
        st.chunk_targets = [None] * n_mem
        st.chunk_seq = [False] * n_mem
        if not n_mem:
            st.mem = []
            return
        mem = st.mem = [step[i] for i in st.mem_idx]
        lengths = st.lengths = np.array(
            [c.n_accesses for _, c in mem], dtype=np.int64
        )
        st.interleaved = [
            c.var.segment.policy is PlacementPolicy.INTERLEAVE
            for _, c in mem
        ]
        if batched is None:
            batched = int(lengths.sum()) <= self.BATCH_MEAN_ACCESSES * n_mem
        st.batched = batched
        if batched:
            starts = st.starts = np.zeros(n_mem + 1, dtype=np.int64)
            np.cumsum(lengths, out=starts[1:])
            if cat is not None and cat.size == int(starts[-1]):
                addrs_cat = cat
            else:
                addrs_cat = np.concatenate([c.addrs for _, c in mem])
            st.addrs_cat = addrs_cat
            st.cls, st.targets_cat = machine.classify_step(
                addrs_cat,
                starts,
                [t.cpu for t, _ in mem],
                [c.var.segment for _, c in mem],
                self._scratch,
            )
            st.dram_cat = st.cls.levels == LEVEL_DRAM
            st.step_requests = np.bincount(
                st.targets_cat[st.dram_cat], minlength=n_domains
            ).astype(np.int64)
        else:
            # Large-chunk summary path: classify down to the line-fetch
            # mask and touch per-access data only on the fetch subset
            # (every non-fetch access hits L1, and only DRAM-level
            # fetches have NUMA-relevant placement). The memo's builders
            # run uncached; monitors see these chunks through lazy views
            # that reconstruct full per-access arrays on demand.
            pure = self._build_pure(step, st, False)
            var = st.summary_var = self._build_summary_variant(
                pure, self._fetch_levels(pure)
            )
            st.step_requests = var.step_requests

    def _classify_memo(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        st: _StepMem,
        batched: bool | None,
        rec,
        cat: np.ndarray | None = None,
    ) -> None:
        """Memoized classification: pure products + epoch-keyed variants.

        The reuse-distance lookup (the only stateful part of
        classification) runs live; its per-chunk result joins the
        page-table epoch in the variant key, so both a cache-state
        change and any page-placement mutation select — or build — a
        different variant with exactly the values the uncached path
        would compute.
        """
        machine = self.machine
        memo = self.memo
        st.memo_rec = rec
        pure = rec.pure
        if pure is not None and (batched is None or pure.batched == batched):
            memo.hit()
        else:
            memo.miss()
            pure = self._build_pure(step, st, batched, cat)
            rec.pure = pure
            memo.charge(rec, pure.nbytes)
        st.mem = pure.mem
        st.mem_idx = pure.mem_idx
        st.lengths = pure.lengths
        st.starts = pure.starts
        st.interleaved = pure.interleaved
        st.batched = pure.batched
        fetch_levels = self._fetch_levels(pure)
        ckey = (machine.page_table.epoch, fetch_levels.tobytes())
        if self._phase_sig is not None:
            # The iteration's phase signature is the sequence of memo
            # variant keys it selects (ISSUE: signatures derive from the
            # IterationMemo keys) — belt and braces over the state digest.
            self._phase_sig.append(ckey)
        var = rec.variants.get(ckey)
        if var is None:
            memo.miss()
            if pure.batched:
                var = self._build_batched_variant(pure, fetch_levels)
            else:
                var = self._build_summary_variant(pure, fetch_levels)
            rec.variants[ckey] = var
            memo.charge(rec, var.nbytes)
        else:
            memo.hit()
        st.memo_var = var
        st.step_requests = var.step_requests

    def _fetch_levels(self, pure: PureStep) -> np.ndarray:
        """Live reuse-distance lookups of one step's chunks, in order."""
        return self.machine.cache.step_fetch_levels(
            pure.cpus, pure.seg_ids, pure.first_addrs, pure.footprints
        )

    def _build_pure(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        st: _StepMem,
        batched: bool | None,
        cat: np.ndarray | None = None,
    ) -> PureStep:
        """Compute one step's iteration-invariant products (memo miss)."""
        machine = self.machine
        pure = PureStep()
        pure.mem_idx = list(st.mem_idx)
        mem = pure.mem = [step[i] for i in pure.mem_idx]
        n_mem = len(mem)
        lengths = pure.lengths = np.array(
            [c.n_accesses for _, c in mem], dtype=np.int64
        )
        pure.interleaved = [
            c.var.segment.policy is PlacementPolicy.INTERLEAVE
            for _, c in mem
        ]
        pure.interleaved_arr = np.array(pure.interleaved, dtype=bool)
        pure.cpus = [t.cpu for t, _ in mem]
        pure.segs = [c.var.segment for _, c in mem]
        pure.seg_ids = [seg.seg_id for seg in pure.segs]
        pure.acc_domains = np.array([t.domain for t, _ in mem], dtype=np.int64)
        if batched is None:
            batched = int(lengths.sum()) <= self.BATCH_MEAN_ACCESSES * n_mem
        pure.batched = batched
        if batched:
            starts = pure.starts = np.zeros(n_mem + 1, dtype=np.int64)
            np.cumsum(lengths, out=starts[1:])
            if cat is not None and cat.size == int(starts[-1]):
                # Columnar trace slice: the concatenation already exists
                # (chunk addrs are views of it) — retain it for the
                # variant builder; its bytes are the gen trace's, so the
                # memo does not charge them again.
                addrs_cat = cat
                pure.addrs_cat = cat
            else:
                addrs_cat = np.concatenate([c.addrs for _, c in mem])
            fp = machine.cache.step_fetch_products(
                addrs_cat, starts, self._scratch
            )
            pure.fetch = fp.fetch
            pure.sequential = fp.sequential
            pure.footprints = fp.footprints
            pure.first_addrs = fp.first_addrs
            pure.nbytes = _nbytes(
                pure.fetch, pure.footprints, pure.first_addrs,
                lengths, starts, pure.acc_domains,
            )
        else:
            # Per-chunk fused kernel: a step-wide concatenation of these
            # large chunks falls out of cache and runs slower.
            cache = machine.cache
            line_size = cache.config.line_size
            pure.chunk_fetch = [None] * n_mem
            pure.sequential = [True] * n_mem
            pure.footprints = [0] * n_mem
            pure.first_addrs = [0] * n_mem
            pure.chunk_fidx = [None] * n_mem
            for k, (t, c) in enumerate(mem):
                fetch, fidx, seq = cache.chunk_fetch_products(c.addrs)
                pure.chunk_fetch[k] = fetch
                pure.chunk_fidx[k] = fidx
                pure.sequential[k] = seq
                pure.footprints[k] = fidx.size * line_size
                pure.first_addrs[k] = int(c.addrs[0])
            pure.nbytes = _nbytes(pure.chunk_fetch, pure.chunk_fidx)
        return pure

    def _build_batched_variant(
        self, pure: PureStep, fetch_levels: np.ndarray
    ) -> ClassifyVariant:
        """Fused placement/classification kernel for one batched variant.

        Computes every inflation-independent product of the classify and
        latency phases — per-access levels, page owners, DRAM/remote
        masks, domain requests, the traffic matrix, and the per-chunk
        view slices — in one pass over the step's concatenated arrays
        (the intermediates ride the scratch pool; retained arrays are
        owned). Values are exactly what the uncached phases compute.
        """
        machine = self.machine
        n_domains = machine.n_domains
        var = ClassifyVariant()
        levels = var.levels = machine.cache.expand_step_levels(
            pure.fetch, fetch_levels, pure.lengths
        )
        mem = pure.mem
        starts = pure.starts
        n = int(starts[-1])
        addrs_cat = pure.addrs_cat
        if addrs_cat is None:
            addrs_cat = self._scratch.get("addrs_cat", n, np.int64)
            pos = 0
            for _, c in mem:
                addrs_cat[pos : pos + c.addrs.size] = c.addrs
                pos += c.addrs.size
        pages = self._scratch.get("pages", n, np.int64)
        np.floor_divide(addrs_cat, machine.page_size, out=pages)
        targets = var.targets_cat = np.empty(n, dtype=np.int64)
        for k, seg in enumerate(pure.segs):
            s, e = starts[k], starts[k + 1]
            targets[s:e] = seg.domains[pages[s:e] - seg.start_page]
        dram_cat = var.dram_cat = levels == LEVEL_DRAM
        var.step_requests = np.bincount(
            targets[dram_cat], minlength=n_domains
        ).astype(np.int64)
        acc_rep = np.repeat(pure.acc_domains, pure.lengths)
        remote_cat = var.remote_cat = targets != acc_rep
        var.dram = int(np.count_nonzero(dram_cat))
        var.remote_dram = int(np.count_nonzero(dram_cat & remote_cat))
        pair = acc_rep[dram_cat] * n_domains + targets[dram_cat]
        var.traffic = (
            np.bincount(pair, minlength=n_domains * n_domains)
            .reshape(n_domains, n_domains)
            .astype(np.int64)
        )
        if self.monitor is not None:
            n_mem = len(mem)
            var.chunk_levels = [None] * n_mem
            var.chunk_targets = [None] * n_mem
            var.chunk_seq = [False] * n_mem
            var.chunk_dram = [None] * n_mem
            var.chunk_remote = [None] * n_mem
            for k in range(n_mem):
                s, e = starts[k], starts[k + 1]
                var.chunk_levels[k] = levels[s:e]
                var.chunk_targets[k] = targets[s:e]
                var.chunk_seq[k] = bool(pure.sequential[k])
                var.chunk_dram[k] = dram_cat[s:e]
                var.chunk_remote[k] = remote_cat[s:e]
        var.nbytes = _nbytes(
            levels, targets, dram_cat, remote_cat,
            var.step_requests, var.traffic,
        )
        return var

    def _build_summary_variant(
        self, pure: PureStep, fetch_levels: np.ndarray
    ) -> ClassifyVariant:
        """Placement-dependent products for one summary-path variant."""
        machine = self.machine
        page_shift = machine.page_size.bit_length() - 1
        n_domains = machine.n_domains
        var = ClassifyVariant()
        n_mem = len(pure.mem)
        var.summaries = [None] * n_mem
        var.fidx = [None] * n_mem
        var.dram_targets = [None] * n_mem
        var.step_requests = np.zeros(n_domains, dtype=np.int64)
        var.dram = 0
        var.remote_dram = 0
        var.traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
        for k, (t, c) in enumerate(pure.mem):
            summ = var.summaries[k] = ChunkSummary(
                pure.chunk_fetch[k], int(fetch_levels[k]),
                pure.sequential[k], pure.footprints[k],
            )
            if summ.fetch_level == LEVEL_DRAM:
                fidx = var.fidx[k] = pure.chunk_fidx[k]
                seg = c.var.segment
                tgt = var.dram_targets[k] = seg.domains[
                    (c.addrs[fidx] >> page_shift) - seg.start_page
                ]
                # One histogram serves requests, traffic and the remote
                # count (every fetch not to the accessor's own domain).
                hist = np.bincount(tgt, minlength=n_domains)
                var.step_requests += hist
                var.traffic[t.domain] += hist
                var.dram += fidx.size
                var.remote_dram += fidx.size - int(hist[t.domain])
        var.nbytes = _nbytes(var.dram_targets, var.fidx) + var.traffic.nbytes
        return var

    def _summary_latency(
        self,
        st: _StepMem,
        var: ClassifyVariant,
        inflation: np.ndarray,
        lat_sums: list[float],
        chunk_lat: list | None,
    ) -> int:
        """Latency sums of a summary step's chunks under ``inflation``.

        Fills ``lat_sums`` by step position and, when ``chunk_lat`` is
        given (monitored runs), each DRAM chunk's fetch latencies for the
        lazy views; returns those arrays' bytes. Cache-level chunks are
        closed-form; DRAM chunks gather from the step's latency tables.
        Chunk geometry comes from ``st`` (memo hits copy it in there).
        """
        machine = self.machine
        lm = machine.latency_model
        tables = lm.dram_tables(machine.topology, inflation)
        l1 = lm.l1
        lvl_lat = (lm.l1, lm.l2, lm.l3)
        line_size = machine.cache.config.line_size
        nbytes = 0
        for k, i in enumerate(st.mem_idx):
            t, c = st.mem[k]
            summ = var.summaries[k]
            tgt = var.dram_targets[k]
            nf = summ.footprint_bytes // line_size
            if tgt is None:
                lat_sums[i] = (
                    (c.n_accesses - nf) * l1 + nf * lvl_lat[summ.fetch_level]
                )
                continue
            fetch_lat = lm.dram_fetch_latencies(
                tgt, t.domain, tables,
                sequential=summ.sequential, interleaved=st.interleaved[k],
            )
            lat_sums[i] = float(fetch_lat.sum()) + (c.n_accesses - nf) * l1
            if chunk_lat is not None:
                chunk_lat[k] = fetch_lat
                nbytes += fetch_lat.nbytes
        return nbytes

    def _latency_phase(self, st: _StepMem, inflation) -> None:
        """Latency + DRAM/traffic accounting under step inflation."""
        if st.memo_var is not None:
            self._latency_memo(st, inflation)
            return
        machine = self.machine
        n_domains = machine.n_domains
        n_mem = len(st.mem_idx)
        st.dram = 0
        st.remote_dram = 0
        st.traffic = np.zeros((n_domains, n_domains), dtype=np.int64)
        st.lat_sums = [0.0] * st.n_active
        #: Batched path: per-chunk slices of the step's latency array.
        #: Large-chunk path: DRAM fetch-latency subsets for lazy views.
        st.chunk_lat = [None] * n_mem
        st.chunk_dram = [None] * n_mem
        st.chunk_remote = [None] * n_mem
        if n_mem and st.batched:
            mem = st.mem
            starts = st.starts
            cls = st.cls
            targets_cat = st.targets_cat
            dram_cat = st.dram_cat
            acc_domains = np.array([t.domain for t, _ in mem], dtype=np.int64)
            lat_cat = machine.step_access_latency(
                cls.levels,
                targets_cat,
                acc_domains,
                starts,
                inflation,
                cls.sequential,
                np.array(st.interleaved, dtype=bool),
            )
            acc_rep = np.repeat(acc_domains, st.lengths)
            remote_cat = st.remote_cat = targets_cat != acc_rep
            st.lat_cat = lat_cat
            st.dram = int(np.count_nonzero(dram_cat))
            st.remote_dram = int(np.count_nonzero(dram_cat & remote_cat))
            # Traffic matrix in one pass: bincount over flattened
            # (accessor domain, target domain) pair codes of DRAM fetches.
            pair = acc_rep[dram_cat] * n_domains + targets_cat[dram_cat]
            st.traffic = (
                np.bincount(pair, minlength=n_domains * n_domains)
                .reshape(n_domains, n_domains)
                .astype(np.int64)
            )
            need_views = self.monitor is not None
            for k, i in enumerate(st.mem_idx):
                s, e = starts[k], starts[k + 1]
                st.lat_sums[i] = float(lat_cat[s:e].sum())
                if need_views:
                    st.chunk_levels[k] = cls.levels[s:e]
                    st.chunk_targets[k] = targets_cat[s:e]
                    st.chunk_seq[k] = bool(cls.sequential[k])
                    st.chunk_lat[k] = lat_cat[s:e]
                    st.chunk_dram[k] = dram_cat[s:e]
                    st.chunk_remote[k] = remote_cat[s:e]
        elif n_mem:
            var = st.summary_var
            st.dram = var.dram
            st.remote_dram = var.remote_dram
            st.traffic = var.traffic
            self._summary_latency(
                st, var, inflation, st.lat_sums,
                st.chunk_lat if self.monitor is not None else None,
            )

    def _latency_memo(self, st: _StepMem, inflation) -> None:
        """Memoized latency: variants keyed by the exact inflation vector.

        The inflation-independent accounting (DRAM counts, remote
        counts, traffic matrix) lives on the classification variant; the
        per-access latencies and per-chunk sums are cached per distinct
        ``inflation.tobytes()`` within it. A cache-state or placement
        change produced a different classification variant upstream, so
        latency entries can never serve stale inputs.
        """
        machine = self.machine
        memo = self.memo
        var = st.memo_var
        rec = st.memo_rec
        pure = rec.pure
        st.dram = var.dram
        st.remote_dram = var.remote_dram
        st.traffic = var.traffic
        lkey = inflation.tobytes()
        lv = var.lats.get(lkey)
        if lv is None:
            memo.miss()
            need_views = self.monitor is not None
            n_mem = len(pure.mem)
            lat_sums = [0.0] * st.n_active
            chunk_lat = [None] * n_mem
            lat_cat = None
            nbytes = 0
            if pure.batched:
                lat_cat = machine.step_access_latency(
                    var.levels,
                    var.targets_cat,
                    pure.acc_domains,
                    pure.starts,
                    inflation,
                    pure.sequential,
                    pure.interleaved_arr,
                )
                starts = pure.starts
                for k, i in enumerate(pure.mem_idx):
                    s, e = starts[k], starts[k + 1]
                    lat_sums[i] = float(lat_cat[s:e].sum())
                    if need_views:
                        chunk_lat[k] = lat_cat[s:e]
                if need_views:
                    nbytes += lat_cat.nbytes
                else:
                    lat_cat = None
            else:
                nbytes += self._summary_latency(
                    st, var, inflation, lat_sums,
                    chunk_lat if need_views else None,
                )
            lv = LatVariant(
                lat_sums, chunk_lat, nbytes + 8 * st.n_active, lat_cat
            )
            var.lats[lkey] = lv
            memo.charge(rec, lv.nbytes)
        else:
            memo.hit()
        st.memo_lat = lv
        st.lat_sums = lv.lat_sums

    def _monitor_phase(
        self, step: list[tuple[SimThread, AccessChunk]], st: _StepMem
    ) -> list[float] | None:
        """One ``on_step`` call with per-chunk views; returns the costs."""
        if self.monitor is None:
            return None
        tr = obs.TRACER
        traced = tr.enabled
        if traced:
            tr.begin("engine.monitor", "engine")
        lv = st.memo_lat
        if lv is not None:
            # Memoized path: the views (slices of cached variant arrays
            # plus per-step invariants) are cached per latency variant;
            # the monitor itself — sampling, attribution, costs — always
            # runs live on them.
            views = lv.views
            if views is None:
                self.memo.miss()
                pure = st.memo_rec.pure
                var = st.memo_var
                views = self._build_views(
                    step, pure.mem_idx, pure.batched, var, lv.chunk_lat
                )
                if pure.batched:
                    views.attach_step_arrays(
                        step, pure.mem_idx, pure.starts, pure.addrs_cat,
                        var.targets_cat, var.remote_cat, lv.lat_cat,
                    )
                lv.views = views
                # Views are slices into already-charged variant arrays;
                # charge the per-view object overhead approximately.
                self.memo.charge(st.memo_rec, 256 * len(views))
            else:
                self.memo.hit()
        elif st.batched:
            views = self._build_views(
                step, st.mem_idx, True, st, st.chunk_lat
            )
            views.attach_step_arrays(
                step, st.mem_idx, st.starts, st.addrs_cat,
                st.targets_cat, st.remote_cat, st.lat_cat,
            )
        else:
            views = self._build_views(
                step, st.mem_idx, False, st.summary_var, st.chunk_lat,
            )
        costs = list(self.monitor.on_step(views))
        if traced:
            tr.end()
        if len(costs) != st.n_active:
            raise ProgramError(
                f"monitor on_step returned {len(costs)} costs for "
                f"{st.n_active} chunks"
            )
        return costs

    def _build_views(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        mem_idx: list[int],
        batched: bool,
        var,
        chunk_lat: list,
    ) -> StepViews:
        """The step's monitor views.

        Eager slices of the step's concatenated arrays on the batched
        path, lazy views on the summary path, empty arrays for
        pure-compute chunks. ``var`` holds the per-chunk classification
        slices (the step bundle, or the memo's classify variant). Call
        paths are taken from the live callstacks, which hold the same
        frames on every iteration of a region.
        """
        machine = self.machine
        views = []
        mem_rank = {i: k for k, i in enumerate(mem_idx)}
        for i, (t, chunk) in enumerate(step):
            path = self.callstacks[t.tid].with_leaf(chunk.ip)
            k = mem_rank.get(i)
            if k is None:
                views.append(ChunkView(
                    t.tid, t.cpu, t.domain, chunk, _EMPTY_U8, _EMPTY_I64,
                    _EMPTY_F64, path, _EMPTY_BOOL, _EMPTY_BOOL,
                ))
            elif batched:
                views.append(ChunkView(
                    t.tid, t.cpu, t.domain, chunk, var.chunk_levels[k],
                    var.chunk_targets[k], chunk_lat[k], path,
                    var.chunk_dram[k], var.chunk_remote[k],
                ))
            else:
                views.append(LazyChunkView(
                    t.tid, t.cpu, t.domain, chunk, path, var.summaries[k],
                    machine, var.fidx[k], var.dram_targets[k],
                    chunk_lat[k],
                ))
        return StepViews.from_views(views)

    def _account_phase(
        self,
        step: list[tuple[SimThread, AccessChunk]],
        st: _StepMem,
        costs: list[float] | None,
        region_cycles: dict[int, float],
        overhead_by_tid: np.ndarray,
    ) -> tuple[int, int]:
        """Cycle / counter accounting; returns (instructions, accesses)."""
        instructions = 0
        accesses = 0
        base_cpi = self.machine.base_cpi
        mlp = self.machine.mlp
        oh_rec = self._phase_oh_rec
        for i, (t, chunk) in enumerate(step):
            cycles = (
                chunk.n_instructions * base_cpi
                + st.trap_costs[i]
                + st.lat_sums[i] / mlp
            )
            oh = st.trap_costs[i]
            if costs is not None:
                cycles += costs[i]
                oh += costs[i]
            overhead_by_tid[t.tid] += oh
            if oh_rec is not None and oh != 0.0:
                # Zero adds are exact no-ops; recording only the nonzero
                # ones keeps replay cheap and bit-identical.
                oh_rec.append((t.tid, oh))
            instructions += chunk.n_instructions
            accesses += chunk.n_accesses
            region_cycles[t.tid] += cycles
        return instructions, accesses
