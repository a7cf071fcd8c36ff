"""Phase detection and extrapolated profiling (the Pac-Sim direction).

Every region iteration of a memoized run replays the same chunk trace,
so once the simulation's *behavioral state* starts repeating, every
remaining iteration is a bit-identical replay of an already-simulated
one. This module detects that repetition live — as a **period-p cycle**
(p = 1 is the classic fixed point) — and lets the engine skip the
remaining iterations, reconstructing their contribution to every
reported metric by replaying the recorded per-slot deltas — the cost
model changes from O(accesses) to O(distinct phases).

Signature definition
--------------------

The behavioral state before an iteration is digested as:

* the page-table **epoch** (any placement mutation — first touch,
  unprotect, live migration — bumps it, exactly as the memo layer's
  ``(epoch, fetch-levels)`` classification keys require);
* the per-step **memo variant keys** (``(epoch, fetch_levels)``) chosen
  during the iteration — collapsed to an O(1) :func:`sig_digest` so
  storing and comparing signatures costs O(hash), not O(state bytes);
* the monitor's **selection state** (sampling carries, per-thread
  jitter-stream consumption counts, mechanism-specific extras like
  MRK's rate budget) via :meth:`SamplingMechanism.state_digest`.

Period-p induction
------------------

If the digest after iteration *i* equals the digest after iteration
*i − p* — with the recorded engine-pure deltas compared exactly as a
hash-collision defense — then iteration *i* mapped the behavioral state
of slot ``i mod p`` onto itself one cycle later. Once every one of the
p slots has been confirmed this way (``streaks[p] >= p``) and the
verified steady run is at least ``warmup`` iterations long
(``streaks[p] + p >= warmup``), the state walk is closed: by induction
each future iteration *t* replays slot ``t mod p`` exactly, so the
engine may skip whole cycles. The fixed point is the p = 1 special
case. The smallest ready period wins; exact readiness (monitor digest
periodic too, cycle deltas bit-equal) is preferred over ε readiness.

The induction over the cache hierarchy's reuse-distance state does not
need the (monotonically growing) state in the digest: a memoized region
replays an identical chunk trace every iteration, so fetch levels are
periodic once the memo-key signature repeats. What the cache state
*does* require is an exact **fast-forward** on skip
(``CacheHierarchy.phase_advance`` / ``phase_advance_cycle``): n skipped
iterations move stream positions by the cycle's summed advance and
touched keys' last-visit markers to where their last skipped visit
would have left them, while untouched keys (whose reuse distances grow
linearly — they belong to *other* regions) stay put.

Cross-region phase sharing
--------------------------

A run-scoped :class:`PhaseLibrary` stores every converged cycle keyed
by ``(chunk-trace content key, monitor class, page-table epoch)``. The
stored pattern is the cycle's per-slot state digests plus engine-pure
delta fingerprints. A region whose live iterations walk a stored cycle
(digests and fingerprints matching slot by slot) arms as soon as one
full cycle has been observed — the warmup streak requirement is waived,
because the stored pattern already proved each slot state maps onto the
next (identical trace + identical digested state ⇒ identical
transition). The region still replays its **own** recordings on skip:
monitor accumulation programs are CCT-path-keyed and never transferred
between regions.

Paying for itself
-----------------

Detection has a per-iteration cost (signature build, state digests,
delta recording). A region that never converges would pay it on every
iteration, so the detector **disarms** after ``disarm_after``
consecutive non-converging windows (window = ``warmup + max_period``
iterations): observation stops and each iteration costs one epoch
compare. A periodic re-arm probe re-enables observation for one window
every ``disarm_after`` windows, and any epoch change re-arms
immediately (new placement = new behavior worth re-checking).

Invalidation rules
------------------

The phase breaks — and the engine falls back to live simulation — the
moment any of these happens:

* a scheduled :class:`~repro.optim.policies.PolicySchedule` action
  fires at an iteration boundary (extrapolation also never crosses a
  scheduled boundary: the skip is clamped to the next one);
* the page-table epoch bumps inside the window (first touches, traps);
* the digest sequence stops being periodic for any other reason (cache
  warmup still in progress, sampling carry drift);
* the region exits (detector state is per-region; only the library
  outlives it).

ε semantics
-----------

With jittered sampling (IBS-style randomized periods) the monitor's RNG
state advances every iteration, so a *monitored* run usually never
reaches an exact cycle even when the engine state has. In that case the
engine may extrapolate with **declared error**: engine-pure quantities
(instructions, accesses, DRAM/remote counts, traffic, domain requests)
still repeat exactly per slot and are extrapolated exactly;
sampling-dependent quantities (sample counts, latency sums, monitor
cost cycles, and hence wall time) are extrapolated with the *mean*
per-slot delta over each slot's trailing window, and the run summary
reports ε — the maximum relative half-spread observed across the
windows. ε is an empirical spread, not a guaranteed bound. Address
[min, max] ranges are never scaled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

#: Longest cycle the detector searches for (``--extrap-period``).
DEFAULT_MAX_PERIOD = 4
#: Non-converging windows before the detector disarms
#: (``--extrap-disarm``; 0 = never disarm).
DEFAULT_DISARM_AFTER = 3


def sig_digest(epoch: int, sig: list) -> tuple:
    """Collapse an iteration's memo-variant signature to an O(1) token.

    ``sig`` is the sequence of ``(epoch, fetch_levels_bytes)`` variant
    keys the iteration selected. The raw sequence is O(steps × chunks)
    bytes; detection stores and compares signatures every live
    iteration, so they are hashed down to (epoch, length, blake2b-128).
    A collision would have to survive the recorded-delta defense
    comparison as well (see :meth:`IterationRecording.same_pure_deltas`).
    """
    h = blake2b(digest_size=16)
    h.update(int(epoch).to_bytes(8, "little", signed=True))
    for entry in sig:
        for part in entry:
            if isinstance(part, bytes):
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
            else:
                h.update(int(part).to_bytes(16, "little", signed=True))
    return (int(epoch), len(sig), h.digest())


def trace_content_key(steps) -> bytes:
    """Content digest of a region's pre-drawn chunk trace.

    Two regions with equal keys issue the same accesses from the same
    threads with the same instruction counts and store flags — the
    engine- and monitor-state transition of one iteration is then the
    same function of the digested behavioral state, which is what the
    :class:`PhaseLibrary` sharing argument needs. Source coordinates
    are deliberately excluded: attribution differs between regions, but
    the library only transfers *state-evolution* trust, never monitor
    programs. Computed once per region per run (the trace is memoized).

    Addresses enter as vectorized checksums (length + sum), not raw
    bytes — hashing multi-megabyte address streams through blake2b
    would cost more than the warmup iterations the library saves. A
    checksum collision only starts a pattern walk; arming still
    requires the region's own live iterations to verify every delta,
    so a false key match wastes a comparison, never corrupts a result.
    """
    h = blake2b(digest_size=16)
    meta: list[int] = []
    instr: list[float] = []
    for step in steps:
        meta.append(-1)  # step boundary
        for thread, chunk in step:
            meta.append(int(thread.tid))
            meta.append(1 if chunk.is_store else 0)
            meta.append(int(chunk.n_accesses))
            instr.append(float(chunk.n_instructions))
    h.update(np.asarray(meta, dtype=np.int64).tobytes())
    h.update(np.asarray(instr, dtype=np.float64).tobytes())
    addrs = getattr(steps, "addrs_cat", None)
    if addrs is not None:
        a = np.asarray(addrs)
        h.update(int(a.size).to_bytes(8, "little"))
        h.update(int(a.sum(dtype=np.uint64)).to_bytes(8, "little"))
    else:
        for step in steps:
            for _, chunk in step:
                if chunk.var is not None and chunk.n_accesses:
                    a = np.asarray(chunk.addrs)
                    h.update(int(a.size).to_bytes(8, "little"))
                    h.update(int(a.sum(dtype=np.uint64)).to_bytes(8, "little"))
    return h.digest()


def slot_counts(n_skip: int, period: int) -> list[int]:
    """How many of ``n_skip`` skipped iterations land on each slot.

    Skipped iteration ``t`` (0-based) replays slot ``t % period``, so
    slot ``j`` runs ``n_skip // period`` times plus one more if ``j``
    falls in the remainder prefix.
    """
    full, rem = divmod(n_skip, period)
    return [full + (1 if j < rem else 0) for j in range(period)]


#: Engine-pure integer counters extrapolated by exact multiplication.
INT_FIELDS = ("instructions", "accesses", "chunks", "dram", "remote_dram")


@dataclass
class IterationRecording:
    """One live iteration's effects, in replayable form.

    ``ints``/``requests``/``traffic`` are associative integer deltas
    (extrapolated by multiplication); ``region_cycles``/``elapsed`` are
    the iteration's per-tid cycle totals (each iteration folds exactly
    one float add per tid into ``busy``/``wall``, so n skipped
    iterations fold n times — bit-identical to running them);
    ``oh_ops`` is the per-step sequence of nonzero per-thread overhead
    adds; ``monitor_prog`` is the monitor's recorded accumulation
    program (see ``NumaProfiler.phase_record_end``). ``cache_delta``
    is ``CacheHierarchy.phase_delta``'s ``(stream advance, touched
    keys, end-of-iteration last-visit values)``.
    """

    ints: dict
    requests: np.ndarray
    traffic: np.ndarray
    region_cycles: dict
    elapsed: float
    oh_ops: list
    cache_delta: tuple | None = None
    monitor_prog: object | None = None

    def same_pure_deltas(self, other: "IterationRecording") -> bool:
        """Exact equality of the engine-pure deltas (defense in depth:
        a signature collision must never let extrapolation diverge).

        Cycles are deliberately excluded — they embed the monitor's
        (possibly jittered) sampling cost, whose drift is what ε mode
        exists for. So are the absolute last-visit values inside
        ``cache_delta`` (they grow monotonically by construction); the
        stream advance and touched-key set must repeat exactly for
        *any* extrapolation.
        """
        if other is None:
            return False
        if (self.cache_delta is None) != (other.cache_delta is None):
            return False
        if self.cache_delta is not None:
            d_pos, touched = self.cache_delta[0], self.cache_delta[1]
            o_pos, o_touched = other.cache_delta[0], other.cache_delta[1]
            if d_pos != o_pos or set(touched) != set(o_touched):
                return False
        return (
            self.ints == other.ints
            and np.array_equal(self.requests, other.requests)
            and np.array_equal(self.traffic, other.traffic)
        )

    def same_cycle_deltas(self, other: "IterationRecording") -> bool:
        """Bit-exact cycle equality — required for ε = 0 replay."""
        return (
            other is not None
            and self.region_cycles == other.region_cycles
            and self.elapsed == other.elapsed
        )


def fingerprint(rec: IterationRecording) -> IterationRecording:
    """A library-storable copy of ``rec``: pure deltas and cycles only.

    Accumulation programs and overhead ops are CCT-path-keyed and never
    replayed across regions, so the stored pattern drops them.
    """
    return IterationRecording(
        ints=rec.ints, requests=rec.requests, traffic=rec.traffic,
        region_cycles=rec.region_cycles, elapsed=rec.elapsed,
        oh_ops=[], cache_delta=rec.cache_delta, monitor_prog=None,
    )


@dataclass
class EpsSample:
    """One window entry for ε-mode extrapolation."""

    rec: IterationRecording
    oh_delta: np.ndarray
    monitor_delta: object | None


@dataclass
class HistoryEntry:
    """One observed live iteration in the detector's ring."""

    engine_digest: object
    monitor_digest: object
    rec: IterationRecording
    sample: EpsSample | None


def mean_cycles(window: list[EpsSample]) -> tuple[dict, float]:
    """Window-mean per-tid cycles and elapsed, in chronological order.

    Shared by the serial engine and the sharded parent so both compute
    the identical floats from the identical per-iteration values.
    """
    n = len(window)
    tids = window[0].rec.region_cycles.keys()
    rc_mean = {}
    for tid in tids:
        acc = 0.0
        for s in window:
            acc += s.rec.region_cycles[tid]
        rc_mean[tid] = acc / n
    acc = 0.0
    for s in window:
        acc += s.rec.elapsed
    return rc_mean, acc / n


def relative_spread(values: list[float]) -> float:
    """Half-spread of ``values`` relative to their mean (0 when flat)."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return 0.0
    mean = sum(values) / len(values)
    scale = abs(mean) if mean else max(abs(hi), abs(lo))
    return (hi - lo) / (2.0 * scale) if scale else 0.0


@dataclass
class PhasePattern:
    """A converged cycle as stored in the :class:`PhaseLibrary`.

    ``slots`` holds, per cycle slot in chronological order, the
    ``(engine digest, monitor digest, delta fingerprint)`` triple.
    ``exact`` records whether the cycle converged with the monitor
    state verified periodic too (ε = 0 eligible for a matching region).
    """

    period: int
    exact: bool
    slots: list


class PhaseLibrary:
    """Run-scoped store of converged phases, shared across regions.

    Keyed by ``(trace content key, monitor class, epoch)`` — a region
    whose trace, monitor mechanism, and page placement match a stored
    pattern may skip its warmup streak and arm as soon as its live
    iterations have walked one full stored cycle. In a sharded run each
    worker process keeps its own library over its shard slices (shard
    traces partition the union trace, so per-shard hits compose).
    """

    def __init__(self) -> None:
        self._entries: dict = {}
        self.stores = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key) -> PhasePattern | None:
        return self._entries.get(key)

    def put(self, key, pattern: PhasePattern) -> None:
        """First convergence wins; an exact pattern upgrades an ε one."""
        cur = self._entries.get(key)
        if cur is None or (pattern.exact and not cur.exact):
            self._entries[key] = pattern
            self.stores += 1


class PhaseDetector:
    """Per-region detect → extrapolate → resume state machine.

    Drives on boundary digests: :meth:`begin_iteration` gates whether
    the engine records at all (the pay-for-itself disarm machinery),
    and :meth:`end_live_iteration` is called after every observed live
    iteration with the engine digest, the monitor digest, and the
    iteration's :class:`IterationRecording`. Lag-p digest matches feed
    per-period streak vectors; readiness at period p needs every slot
    confirmed (``streaks[p] >= p``) and ``warmup`` verified steady
    iterations (``streaks[p] + p >= warmup``), unless a
    :class:`PhaseLibrary` pattern match waives the streak requirement.
    """

    def __init__(
        self,
        region_name: str,
        *,
        warmup: int = 2,
        max_period: int = DEFAULT_MAX_PERIOD,
        allow_eps: bool = True,
        monitor_present: bool = False,
        disarm_after: int = DEFAULT_DISARM_AFTER,
        library: PhaseLibrary | None = None,
    ) -> None:
        self.region_name = region_name
        self.warmup = max(1, int(warmup))
        self.max_period = max(1, int(max_period))
        self.allow_eps = bool(allow_eps)
        self.monitor_present = bool(monitor_present)
        self.disarm_after = max(0, int(disarm_after))
        self.library = library
        #: Per-period match streaks, index 1..max_period (index 0 unused).
        self.streaks = [0] * (self.max_period + 1)
        self.exact_streaks = [0] * (self.max_period + 1)
        #: Ring of observed live iterations — deep enough for the
        #: longest cycle's per-slot ε windows.
        self.history: deque = deque(
            maxlen=self.max_period * (self.warmup + 2)
        )
        self.breaks = 0
        self.recorded_live = 0
        self.disarms = 0
        self.library_hits = 0
        #: Period of the last armed plan (0 = never armed).
        self.period_detected = 0
        #: Disarm bookkeeping: a "window" is one full detection
        #: opportunity; after ``disarm_after`` windows with no
        #: convergence the detector goes quiescent, probing one window
        #: every ``probe_interval`` iterations.
        self.disarm_window = self.warmup + self.max_period
        self.probe_interval = max(1, self.disarm_after) * self.disarm_window
        self._state = "observing"  # observing | probing | quiescent
        self._idle = 0
        self._quiet = 0
        self._probe_left = 0
        self._last_epoch = None
        # Library matching: the stored pattern (if any) and how many
        # trailing live iterations walked it (offset = slot of the
        # first matching iteration).
        self._lib_base_key = None
        self._lib_entry: PhasePattern | None = None
        self._lib_offset = 0
        self._lib_len = 0
        self._lib_exact = False

    # -- library wiring ------------------------------------------------- #

    def set_library_key(self, trace_key: bytes, monitor_class: str | None,
                        epoch: int) -> None:
        """Attach the region's sharing key (trace content + monitor)."""
        if self.library is None:
            return
        self._lib_base_key = (trace_key, monitor_class)
        self._refresh_library(epoch)

    def _refresh_library(self, epoch) -> None:
        self._lib_len = 0
        self._lib_exact = False
        self._lib_entry = None
        if self.library is not None and self._lib_base_key is not None:
            self._lib_entry = self.library.get(
                self._lib_base_key + (epoch,)
            )

    def _match_library(self, engine_digest, monitor_digest, rec) -> None:
        entry = self._lib_entry
        if entry is None:
            return
        p = entry.period

        def matches(j: int) -> bool:
            sd, _, srec = entry.slots[j]
            return engine_digest == sd and rec.same_pure_deltas(srec)

        def exact(j: int) -> bool:
            _, smd, srec = entry.slots[j]
            return monitor_digest == smd and rec.same_cycle_deltas(srec)

        if self._lib_len:
            j = (self._lib_offset + self._lib_len) % p
            if matches(j):
                self._lib_len += 1
                self._lib_exact = self._lib_exact and exact(j)
                return
            self._lib_len = 0
        for j in range(p):
            if matches(j):
                self._lib_offset = j
                self._lib_len = 1
                self._lib_exact = exact(j)
                return

    def _publish(self) -> None:
        """Store the converged cycle for other regions to reuse."""
        if self.library is None or self._lib_base_key is None:
            return
        planned = self.plan()
        if planned is None or planned[2]:
            return  # not converged locally / already from the library
        mode, p, _ = planned
        if len(self.history) < p:
            return
        slots = [
            (e.engine_digest, e.monitor_digest, fingerprint(e.rec))
            for e in list(self.history)[-p:]
        ]
        self.library.put(
            self._lib_base_key + (self._last_epoch,),
            PhasePattern(period=p, exact=(mode == "exact"), slots=slots),
        )

    # -- live-iteration observation ------------------------------------ #

    @property
    def observing(self) -> bool:
        """Whether the detector currently records live iterations."""
        return self._state != "quiescent"

    def begin_iteration(self, epoch) -> bool:
        """Cheap pre-iteration gate; returns whether to observe.

        While quiescent this is the detector's *entire* per-iteration
        cost: one epoch compare and a probe counter. An epoch change
        re-arms immediately (new placement = new behavior); otherwise a
        probe window opens every ``probe_interval`` iterations.
        """
        if self._last_epoch is not None and epoch != self._last_epoch:
            self._rearm(epoch)
        self._last_epoch = epoch
        if self._state == "quiescent":
            self._quiet += 1
            if self._quiet >= self.probe_interval:
                self._state = "probing"
                self._probe_left = self.disarm_window
                self._quiet = 0
                return True
            return False
        return True

    def _rearm(self, epoch) -> None:
        # Any placement mutation invalidates every digest (the epoch is
        # embedded in all of them): drop history and matching state and
        # start observing again from scratch.
        if any(self.streaks[1:]):
            self.breaks += 1
        self._reset_matching()
        self._state = "observing"
        self._idle = 0
        self._quiet = 0
        self._probe_left = 0
        self._refresh_library(epoch)

    def _reset_matching(self) -> None:
        self.history.clear()
        for p in range(1, self.max_period + 1):
            self.streaks[p] = 0
            self.exact_streaks[p] = 0
        self._lib_len = 0
        self._lib_exact = False

    def _quiesce(self) -> None:
        self._state = "quiescent"
        self.disarms += 1
        self._quiet = 0
        self._idle = 0
        self._reset_matching()

    def invalidate(self, *, count_break: bool = True) -> None:
        """Phase broken externally (schedule fired at this boundary)."""
        if count_break and (any(self.streaks[1:]) or self._lib_len):
            self.breaks += 1
        self._reset_matching()
        self._state = "observing"
        self._idle = 0
        self._quiet = 0
        self._probe_left = 0

    def end_live_iteration(
        self,
        engine_digest,
        monitor_digest,
        rec: IterationRecording,
        oh_delta: np.ndarray | None,
        monitor_delta: object | None,
    ) -> None:
        """Fold one finished live iteration into the streak state."""
        self.recorded_live += 1
        hist = self.history
        was_active = any(self.streaks[1:]) or self._lib_len > 0
        matched = False
        for p in range(1, self.max_period + 1):
            base = hist[-p] if len(hist) >= p else None
            if (
                base is not None
                and engine_digest == base.engine_digest
                # A digest collision would be silent corruption; the
                # exact integer-delta comparison closes that hole.
                and rec.same_pure_deltas(base.rec)
            ):
                self.streaks[p] += 1
                matched = True
                if (
                    monitor_digest == base.monitor_digest
                    and rec.same_cycle_deltas(base.rec)
                ):
                    self.exact_streaks[p] += 1
                else:
                    self.exact_streaks[p] = 0
            else:
                self.streaks[p] = 0
                self.exact_streaks[p] = 0
        self._match_library(engine_digest, monitor_digest, rec)
        if not matched and self._lib_len == 0 and was_active:
            self.breaks += 1
        sample = None
        if self.allow_eps and monitor_delta is not None:
            sample = EpsSample(rec, oh_delta, monitor_delta)
        hist.append(
            HistoryEntry(engine_digest, monitor_digest, rec, sample)
        )
        # Pay-for-itself accounting: converging resets the idle count
        # (and ends a probe successfully); a fruitless window disarms.
        if self.ready:
            self._idle = 0
            self._state = "observing"
            self._publish()
        elif self._state == "probing":
            self._probe_left -= 1
            if self._probe_left <= 0:
                self._quiesce()
        elif self.disarm_after:
            self._idle += 1
            if self._idle >= self.disarm_after * self.disarm_window:
                self._quiesce()

    # -- readiness ------------------------------------------------------ #

    def _local_period(self, *, exact: bool) -> int:
        """Smallest period whose streaks satisfy the readiness rule."""
        streaks = self.exact_streaks if exact else self.streaks
        for p in range(1, self.max_period + 1):
            s = streaks[p]
            if s >= p and s + p >= self.warmup:
                return p
        return 0

    def _lib_ready_at(self, p: int, *, exact: bool) -> bool:
        """Library-granted readiness at period ``p`` (stored period or
        a multiple of it, with a full cycle of p observed matches)."""
        e = self._lib_entry
        if e is None or p % e.period or self._lib_len < p:
            return False
        if exact and not (e.exact and self._lib_exact):
            return False
        return True

    def _library_period(self, *, exact: bool) -> int:
        e = self._lib_entry
        if e is not None and self._lib_ready_at(e.period, exact=exact):
            return e.period
        return 0

    @property
    def is_steady(self) -> bool:
        """Whether the last iteration extended any match streak."""
        return any(self.streaks[1:]) or self._lib_len > 0

    @property
    def ready_exact(self) -> bool:
        return bool(
            self._local_period(exact=True)
            or self._library_period(exact=True)
        )

    @property
    def ready_eps(self) -> bool:
        if not (self.allow_eps and self.monitor_present):
            return False
        p = (
            self._local_period(exact=False)
            or self._library_period(exact=False)
        )
        if not p:
            return False
        return all(self.slot_windows(p))

    @property
    def ready(self) -> bool:
        return self.ready_exact or self.ready_eps

    def plan(self) -> tuple[str, int, bool] | None:
        """The armed extrapolation: ``(mode, period, via_library)``.

        Exact mode is preferred over ε; within a mode the smallest
        period wins, with a local streak beating a library match at
        equal period (identical behavior, better provenance).
        """
        p_loc = self._local_period(exact=True)
        p_lib = self._library_period(exact=True)
        if p_loc or p_lib:
            if p_loc and (not p_lib or p_loc <= p_lib):
                return ("exact", p_loc, False)
            return ("exact", p_lib, True)
        if self.allow_eps and self.monitor_present:
            p_loc = self._local_period(exact=False)
            p_lib = self._library_period(exact=False)
            local = bool(p_loc and (not p_lib or p_loc <= p_lib))
            p = p_loc if local else p_lib
            if p and all(self.slot_windows(p)):
                return ("eps", p, not local)
        return None

    def arming_provenance(self, mode: str, period: int) -> bool:
        """Whether readiness at ``(mode, period)`` is library-only.

        Used by the sharded worker, where the *parent* picks the union
        period: a shard whose own streaks don't satisfy it but whose
        library walk does is counted as a library hit, like serial.
        """
        streaks = self.exact_streaks if mode == "exact" else self.streaks
        s = streaks[period]
        loc = s >= period and s + period >= self.warmup
        return not loc and self._lib_ready_at(
            period, exact=(mode == "exact")
        )

    def note_armed(self, planned: tuple[str, int, bool]) -> None:
        """Record that the engine armed extrapolation with ``planned``."""
        _, p, via_lib = planned
        self.period_detected = p
        if via_lib:
            self.library_hits += 1
            if self.library is not None:
                self.library.hits += 1

    # -- armed-cycle access --------------------------------------------- #

    def steady_len(self, period: int) -> int:
        """Trailing history iterations verified on the period-p cycle."""
        n = self.streaks[period] + period if self.streaks[period] else 0
        e = self._lib_entry
        if (
            e is not None
            and period % e.period == 0
            and self._lib_len >= period
        ):
            n = max(n, self._lib_len)
        return min(n, len(self.history))

    def cycle_slots(self, period: int) -> list[HistoryEntry]:
        """The cycle, chronological: the next skipped iteration replays
        slot 0 (= ``history[-period]``), the one after slot 1, …"""
        return list(self.history)[-period:]

    def slot_windows(self, period: int) -> list[list[EpsSample]]:
        """Per-slot trailing ε windows harvested from the steady tail.

        The tail (``steady_len``) is entirely on-cycle — the baseline
        cycle's entries were verified retroactively by the lag-p match
        — so every p-th entry belongs to the same slot. Windows are
        chronological and capped at ``warmup`` samples per slot.
        """
        tail_len = self.steady_len(period)
        hist = list(self.history)
        tail = hist[len(hist) - tail_len:] if tail_len else []
        windows: list[list[EpsSample]] = []
        for j in range(period):
            idx = len(tail) - period + j
            w: list[EpsSample] = []
            while idx >= 0 and len(w) < self.warmup:
                s = tail[idx].sample
                if s is None:
                    break
                w.append(s)
                idx -= period
            w.reverse()
            windows.append(w)
        return windows

    def eps_value(self, period: int) -> float:
        """Observed relative half-spread across the per-slot windows."""
        eps = 0.0
        for w in self.slot_windows(period):
            if len(w) < 2:
                continue
            eps = max(eps, relative_spread([s.rec.elapsed for s in w]))
            for tid in w[0].rec.region_cycles:
                eps = max(
                    eps,
                    relative_spread(
                        [s.rec.region_cycles[tid] for s in w]
                    ),
                )
        return eps

    # -- sharded protocol ----------------------------------------------- #

    def phase_payload(self) -> dict:
        """Readiness vectors for the sharded round protocol.

        The parent arms the union region at the smallest period every
        shard reports ready (exact preferred) — by construction the
        union digest matches at lag p iff every shard's does, so this
        reproduces the serial detector's decision from per-shard state.
        """
        ready_exact = []
        ready_eps = []
        steady = []
        for p in range(1, self.max_period + 1):
            s = self.exact_streaks[p]
            loc_exact = s >= p and s + p >= self.warmup
            ready_exact.append(
                bool(loc_exact or self._lib_ready_at(p, exact=True))
            )
            s = self.streaks[p]
            loc = s >= p and s + p >= self.warmup
            ready_eps.append(
                bool(
                    self.allow_eps
                    and self.monitor_present
                    and (loc or self._lib_ready_at(p, exact=False))
                )
            )
            steady.append(self.steady_len(p))
        return {
            "ready_exact": ready_exact,
            "ready_eps": ready_eps,
            "steady": steady,
            "breaks": self.breaks,
            "disarmed": not self.observing,
            "disarms": self.disarms,
            "library_hits": self.library_hits,
            "period": self.period_detected,
        }


def union_plan(
    shard_phases: list[dict | None], max_period: int
) -> tuple[str, int, int] | None:
    """Combine per-shard readiness vectors into the union's plan.

    Returns ``(mode, period, steady_tail)`` — the smallest period at
    which *every* shard is ready (exact preferred over ε), with the
    union's verified steady-tail length (min over shards) — or ``None``.
    """
    if not shard_phases or any(ph is None for ph in shard_phases):
        return None
    for mode, key in (("exact", "ready_exact"), ("eps", "ready_eps")):
        for p in range(1, max_period + 1):
            if all(
                len(ph.get(key, ())) >= p and ph[key][p - 1]
                for ph in shard_phases
            ):
                tail = min(ph["steady"][p - 1] for ph in shard_phases)
                return (mode, p, tail)
    return None


@dataclass
class RegionPhaseStats:
    """Per-region outcome folded into the engine's phase report."""

    iterations: int = 0
    simulated: int = 0
    extrapolated_exact: int = 0
    extrapolated_eps: int = 0
    breaks: int = 0
    epsilon: float = 0.0
    period: int = 0
    disarms: int = 0
    library_hits: int = 0

    def as_dict(self) -> dict:
        extrapolated = self.extrapolated_exact + self.extrapolated_eps
        coverage = (
            100.0 * extrapolated / self.iterations if self.iterations else 0.0
        )
        return {
            "iterations": self.iterations,
            "simulated": self.simulated,
            "extrapolated_exact": self.extrapolated_exact,
            "extrapolated_eps": self.extrapolated_eps,
            "breaks": self.breaks,
            "epsilon": self.epsilon,
            "coverage_pct": coverage,
            "period": self.period,
            "disarms": self.disarms,
            "library_hits": self.library_hits,
        }


@dataclass
class PhaseReport:
    """Run-level phase/extrapolation accounting (the ε report).

    Attached to the engine after a run as ``engine.phase_report`` (a
    plain dict via :meth:`as_dict`); the CLI prints it and bench-perf
    records ``phase_coverage_pct``/``epsilon`` (plus the per-region
    breakdown) from it.
    """

    enabled: bool = False
    regions: dict = field(default_factory=dict)

    def region(self, name: str) -> RegionPhaseStats:
        stats = self.regions.get(name)
        if stats is None:
            stats = self.regions[name] = RegionPhaseStats()
        return stats

    def as_dict(self) -> dict:
        iterations = sum(r.iterations for r in self.regions.values())
        simulated = sum(r.simulated for r in self.regions.values())
        exact = sum(r.extrapolated_exact for r in self.regions.values())
        eps = sum(r.extrapolated_eps for r in self.regions.values())
        extrapolated = exact + eps
        return {
            "enabled": self.enabled,
            "iterations": iterations,
            "simulated": simulated,
            "extrapolated_exact": exact,
            "extrapolated_eps": eps,
            "coverage_pct": (
                100.0 * extrapolated / iterations if iterations else 0.0
            ),
            "epsilon": max(
                (r.epsilon for r in self.regions.values()), default=0.0
            ),
            "breaks": sum(r.breaks for r in self.regions.values()),
            "disarms": sum(r.disarms for r in self.regions.values()),
            "library_hits": sum(
                r.library_hits for r in self.regions.values()
            ),
            "regions": {
                name: r.as_dict() for name, r in self.regions.items()
            },
        }


def validate_phase_report(report: dict) -> list[str]:
    """Internal-consistency check of a phase report dict.

    Returns a list of problems (empty = valid). Used by the CI
    extrapolate-smoke jobs and the parity tests.
    """
    problems: list[str] = []

    def check(entry: dict, where: str) -> None:
        total = entry.get("iterations", 0)
        sim = entry.get("simulated", 0)
        exact = entry.get("extrapolated_exact", 0)
        eps = entry.get("extrapolated_eps", 0)
        if min(total, sim, exact, eps) < 0:
            problems.append(f"{where}: negative iteration counts")
        if sim + exact + eps != total:
            problems.append(
                f"{where}: simulated+extrapolated != iterations "
                f"({sim}+{exact}+{eps} != {total})"
            )
        cov = entry.get("coverage_pct", 0.0)
        expect = 100.0 * (exact + eps) / total if total else 0.0
        if abs(cov - expect) > 1e-9:
            problems.append(f"{where}: coverage_pct {cov} != {expect}")
        e = entry.get("epsilon", 0.0)
        if not (e >= 0.0) or not np.isfinite(e):
            problems.append(f"{where}: epsilon {e} not finite/non-negative")
        if eps == 0 and exact > 0 and e != 0.0 and where != "run":
            problems.append(
                f"{where}: exact-only extrapolation must declare epsilon 0"
            )
        for key in ("period", "disarms", "library_hits", "breaks"):
            if entry.get(key, 0) < 0:
                problems.append(f"{where}: negative {key}")

    check(report, "run")
    for name, entry in report.get("regions", {}).items():
        check(entry, f"region {name!r}")
    run_eps = report.get("epsilon", 0.0)
    region_eps = max(
        (e.get("epsilon", 0.0) for e in report.get("regions", {}).values()),
        default=0.0,
    )
    if abs(run_eps - region_eps) > 1e-12:
        problems.append(f"run epsilon {run_eps} != max region {region_eps}")
    for key in ("disarms", "library_hits"):
        run_v = report.get(key, 0)
        region_v = sum(
            e.get(key, 0) for e in report.get("regions", {}).values()
        )
        if report.get("regions") and run_v != region_v:
            problems.append(
                f"run {key} {run_v} != sum of regions {region_v}"
            )
    return problems


def next_schedule_boundary(schedule, region_idx: int, start: int, stop: int) -> int:
    """First iteration in ``[start, stop)`` with scheduled steps, else ``stop``.

    Extrapolation never crosses a scheduled migration: the skip clamps
    here, the boundary's actions run live, and the epoch bump they
    cause resets the detector.
    """
    if schedule is None:
        return stop
    for j in range(start, stop):
        if schedule.steps_for(region_idx, j):
            return j
    return stop
