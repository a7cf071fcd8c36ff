"""Phase detection and extrapolated profiling (the Pac-Sim direction).

Every region iteration of a memoized run replays the same chunk trace,
so once the simulation's *behavioral state* stops changing, every
remaining iteration is a bit-identical replay of the last simulated
one. This module detects that **fixed point** live and lets the engine
skip the remaining iterations, reconstructing their contribution to
every reported metric by replaying the last iteration's recorded deltas
— the cost model changes from O(accesses) to O(distinct phases).

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

Fixed-point induction
---------------------

If the digest after iteration *i* equals the digest after iteration
*i − 1* — with the recorded engine-pure deltas compared exactly as a
hash-collision defense — then iteration *i* mapped the behavioral state
onto itself. Once that has held for ``max(1, warmup − 1)`` consecutive
iterations (so ``warmup`` iterations are verified steady), the state
walk is closed: by induction every future iteration replays the last
one exactly, so the engine may skip the rest of the region. Exact
readiness (monitor digest fixed too, cycle deltas bit-equal) is
preferred over ε readiness.

The induction over the cache hierarchy's reuse-distance state does not
need the (monotonically growing) state in the digest: a memoized region
replays an identical chunk trace every iteration, so fetch levels are
fixed once the memo-key signature repeats. What the cache state *does*
require is an exact **fast-forward** on skip
(``CacheHierarchy.phase_advance``): n skipped iterations move stream
positions by n recorded advances and touched keys' last-visit markers
along with them, while untouched keys (whose reuse distances grow
linearly — they belong to *other* regions) stay put.

Invalidation rules
------------------

The phase breaks — and the engine falls back to live simulation — the
moment any of these happens:

* a scheduled :class:`~repro.optim.policies.PolicySchedule` action
  fires at an iteration boundary (extrapolation also never crosses a
  scheduled boundary: the skip is clamped to the next one);
* the page-table epoch changes between iterations (first touches,
  traps), which resets the streaks;
* the digest stops repeating for any other reason (cache warmup still
  in progress, sampling carry drift);
* the region exits (detector state is per-region).

ε semantics
-----------

With jittered sampling (IBS-style randomized periods) the monitor's RNG
state advances every iteration, so a *monitored* run usually never
reaches an exact fixed point even when the engine state has. In that
case the engine may extrapolate with **declared error**: engine-pure
quantities (instructions, accesses, DRAM/remote counts, traffic, domain
requests) still repeat exactly and are extrapolated exactly;
sampling-dependent quantities (sample counts, latency sums, monitor
cost cycles, and hence wall time) are extrapolated with the *mean*
delta over the trailing steady window, and the run summary reports ε —
the maximum relative half-spread observed across the window. ε is an
empirical spread, not a guaranteed bound. Address [min, max] ranges are
never scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np


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
    keys)``.
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
        exists for. The stream advance and touched-key set inside
        ``cache_delta`` must repeat exactly for *any* extrapolation.
        """
        if other is None:
            return False
        if (self.cache_delta is None) != (other.cache_delta is None):
            return False
        if self.cache_delta is not None:
            d_pos, touched = self.cache_delta
            o_pos, o_touched = other.cache_delta
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


@dataclass
class EpsSample:
    """One window entry for ε-mode extrapolation."""

    rec: IterationRecording
    oh_delta: np.ndarray
    monitor_delta: object | None


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


def window_eps(window: list[EpsSample]) -> float:
    """Observed relative half-spread of a window's cycle data."""
    if len(window) < 2:
        return 0.0
    eps = relative_spread([s.rec.elapsed for s in window])
    for tid in window[0].rec.region_cycles:
        eps = max(
            eps, relative_spread([s.rec.region_cycles[tid] for s in window])
        )
    return eps


class PhaseDetector:
    """Per-region detect → extrapolate → resume state machine.

    :meth:`begin_iteration` resets the streaks when the page-table
    epoch changed since the last iteration; :meth:`end_live_iteration`
    is called after every live iteration with the engine digest, the
    monitor digest, and the iteration's :class:`IterationRecording`.
    A digest (and pure-delta) match against the previous iteration
    extends the streak pair; readiness needs ``max(1, warmup − 1)``
    consecutive matches.
    """

    def __init__(self, *, warmup: int = 2) -> None:
        self.warmup = max(1, int(warmup))
        #: Consecutive engine-state matches, and the exact (monitor
        #: digest and cycles equal too) suffix of them.
        self.streak = 0
        self.exact_streak = 0
        #: Digests and recording of the last live iteration: the one
        #: every skipped iteration replays.
        self._engine_digest = None
        self._monitor_digest = None
        self.last_rec: IterationRecording | None = None
        #: Trailing ε window: the chronological run of samples from the
        #: steady tail, capped at ``warmup`` entries.
        self._window: list[EpsSample] = []
        self.breaks = 0
        self._epoch = None

    def begin_iteration(self, epoch) -> None:
        """Reset on a page-table epoch change since the last iteration.

        Any placement mutation invalidates every digest (the epoch is
        embedded in all of them), so matching restarts from scratch.
        """
        if self._epoch is not None and epoch != self._epoch:
            self.invalidate()
        self._epoch = epoch

    def invalidate(self) -> None:
        """Phase broken externally (schedule fired, epoch changed)."""
        if self.streak:
            self.breaks += 1
        self.streak = 0
        self.exact_streak = 0
        self._engine_digest = None
        self._monitor_digest = None
        self.last_rec = None
        self._window = []

    def end_live_iteration(
        self,
        engine_digest,
        monitor_digest,
        rec: IterationRecording,
        oh_delta: np.ndarray | None,
        monitor_delta: object | None,
    ) -> None:
        """Fold one finished live iteration into the streak state.

        ``monitor_delta`` is None without a monitor: such iterations
        feed no ε window, so only exact extrapolation can arm.
        """
        sample = None
        if monitor_delta is not None:
            sample = EpsSample(rec, oh_delta, monitor_delta)
        if (
            self.last_rec is not None
            and engine_digest == self._engine_digest
            # A digest collision would be silent corruption; the exact
            # integer-delta comparison closes that hole.
            and rec.same_pure_deltas(self.last_rec)
        ):
            self.streak += 1
            if (
                monitor_digest == self._monitor_digest
                and rec.same_cycle_deltas(self.last_rec)
            ):
                self.exact_streak += 1
            else:
                self.exact_streak = 0
            if sample is None:
                self._window = []
            else:
                self._window.append(sample)
                del self._window[:-self.warmup]
        else:
            if self.streak:
                self.breaks += 1
            self.streak = 0
            self.exact_streak = 0
            # The new iteration is the base of any streak that follows.
            self._window = [sample] if sample is not None else []
        self._engine_digest = engine_digest
        self._monitor_digest = monitor_digest
        self.last_rec = rec

    # -- readiness ------------------------------------------------------ #

    def _armed(self, streak: int) -> bool:
        return streak >= 1 and streak + 1 >= self.warmup

    @property
    def eps_window(self) -> list[EpsSample]:
        """The trailing ε window (empty unless the streak is live)."""
        return self._window if self.streak else []

    @property
    def ready_exact(self) -> bool:
        return self._armed(self.exact_streak)

    @property
    def ready_eps(self) -> bool:
        return self._armed(self.streak) and bool(self.eps_window)

    def plan(self) -> str | None:
        """The armed extrapolation mode: ``"exact"``, ``"eps"`` or None."""
        if self.ready_exact:
            return "exact"
        if self.ready_eps:
            return "eps"
        return None

    def eps_value(self) -> float:
        """Observed relative half-spread across the ε window."""
        return window_eps(self.eps_window)

    # -- sharded protocol ----------------------------------------------- #

    def phase_payload(self) -> dict:
        """Readiness for the sharded round protocol.

        The parent arms the union region only when every shard reports
        ready (exact preferred) — by construction the union digest
        repeats iff every shard's does, so this reproduces the serial
        detector's decision from per-shard state. ``steady`` counts the
        trailing live iterations verified on the fixed point: the
        streak's matches plus the base iteration they matched.
        """
        return {
            "ready_exact": self.ready_exact,
            "ready_eps": self.ready_eps,
            "steady": self.streak + 1 if self.streak else 0,
            "breaks": self.breaks,
        }


def union_plan(shard_phases: list[dict | None]) -> tuple[str, int] | None:
    """Combine per-shard readiness into the union's plan.

    Returns ``(mode, steady_tail)`` when *every* shard is ready (exact
    preferred over ε), with the union's verified steady-tail length
    (min over shards), else ``None``.
    """
    if not shard_phases or any(ph is None for ph in shard_phases):
        return None
    for mode in ("exact", "eps"):
        if all(ph[f"ready_{mode}"] for ph in shard_phases):
            return mode, min(ph["steady"] for ph in shard_phases)
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
            "regions": {
                name: r.as_dict() for name, r in self.regions.items()
            },
        }


def validate_phase_report(report: dict) -> list[str]:
    """Internal-consistency check of a phase report dict.

    Returns a list of problems (empty = valid). Used by the CI
    extrapolate-smoke job and the parity tests.
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
        if entry.get("breaks", 0) < 0:
            problems.append(f"{where}: negative breaks")

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
