"""Per-layer ledger: spans from the program's own tracer, grouped by module.

The traced pass swaps a :class:`LedgerTracer` in through the public
``repro.obs.set_tracer`` API, so every span the program already records
(``engine.*``, ``sampling.*``, ``profiler.*``, ``analysis.*``,
``autotune.*``, ``parallel.run``, ``shard.*``) lands in it. The only span
added here is ``workloads.generate``: :class:`TracedProgram` wraps each
region kernel, so the self time of ``engine.region`` splits into chunk
generation and driver bookkeeping. The program itself is not patched.

Self time of a span is its duration minus its child spans, so the self
times of all spans on one process partition the time those spans cover.
``coverage`` is that sum over the traced operation walls; what is left
is time no span saw.
"""

from __future__ import annotations

import dataclasses

from repro import obs

#: Span name -> per-layer metric that owns its self time. Every span the
#: benchmark's operations open is listed, so unmapped time can only be
#: time outside any span.
SPAN_LAYER = {
    "workloads.generate": "workloads.generate_s",
    "workloads.setup": "workloads.setup_s",
    "engine.run": "runtime.driver_s",
    "engine.setup": "runtime.driver_s",
    "engine.region": "runtime.driver_s",
    "engine.step": "runtime.driver_s",
    "engine.monitor": "runtime.driver_s",
    "engine.phase.extrapolate": "runtime.phase.extrapolate_s",
    "engine.page_traps": "machine.pagetable.trap_s",
    "engine.migrate": "machine.pagetable.migrate_s",
    "engine.classify": "machine.cache.classify_s",
    "engine.latency": "machine.latency.latency_s",
    "sampling.select_step": "sampling.select_step_s",
    "profiler.on_step": "profiler.on_step_s",
    "profiler.attribute": "profiler.attribute_s",
    "profiler.flush": "profiler.flush_s",
    "analysis.merge": "analysis.merge_s",
    "analysis.advise": "analysis.advise_s",
    "autotune.advise": "analysis.advise_s",
    "autotune.diff": "analysis.diff_s",
    # Self time of the two profiled-run spans is the loop's own glue
    # (building engines and profilers); the runs' work sits in children.
    "autotune.profile_window": "optim.run_setup_s",
    "autotune.reverify": "optim.run_setup_s",
    "parallel.run": "parallel.parent_s",
}

#: Time-valued per-layer metrics built from span self times.
TIME_LAYERS = sorted(set(SPAN_LAYER.values()))

#: Sharded round methods and the per-layer metric of their wall time.
ROUND_LAYER = {
    "gen_iteration": "parallel.gen_round_s",
    "classify_iteration": "parallel.classify_round_s",
    "finish_iteration": "parallel.finish_round_s",
    "extrapolate_iterations": "parallel.extrapolate_round_s",
}


class LedgerTracer(obs.Tracer):
    """A tracer that also keeps peak gauges and worker self times apart.

    ``peak_gauges`` holds the largest value each gauge reached (the
    memo's byte gauge falls back to zero when a region is released).
    ``worker_self_ns`` holds the self times absorbed from worker
    processes, so the parent's own spans can be told from the workers'
    concurrent ones.
    """

    def __init__(self) -> None:
        super().__init__()
        self.peak_gauges: dict[str, float] = {}
        self.worker_peaks: dict[str, float] = {}
        self.worker_self_ns: dict[tuple[str, str], int] = {}

    def clear(self) -> None:
        super().clear()
        self.peak_gauges = {}
        self.worker_peaks = {}
        self.worker_self_ns = {}

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        super().gauge(name, value)
        self.peak_gauges[name] = max(self.peak_gauges.get(name, value), value)

    def export_state(self) -> dict:
        state = super().export_state()
        state["peak_gauges"] = dict(self.peak_gauges)
        return state

    def absorb(self, state: dict, track_label: str) -> None:
        for key, ns in state["self_ns"].items():
            self.worker_self_ns[key] = self.worker_self_ns.get(key, 0) + ns
        # Each worker of a run holds its own memo, so their peaks add up.
        for key, value in state.get("peak_gauges", {}).items():
            self.worker_peaks[key] = self.worker_peaks.get(key, 0) + value
        super().absorb(state, track_label)

    def end_operation(self) -> dict[str, float]:
        """Close the books on one traced operation.

        Folds the workers' summed peaks into ``peak_gauges``, drops the
        raw events (the aggregates stay; the event list would grow by
        every span of every step) and returns the operation's sharded
        round walls (see :func:`round_walls`).
        """
        walls = round_walls(self)
        for key, value in self.worker_peaks.items():
            self.peak_gauges[key] = max(self.peak_gauges.get(key, 0), value)
        self.worker_peaks = {}
        self.events.clear()
        return walls


def _traced_kernel(kernel):
    def generate(ctx, tid):
        tr = obs.TRACER
        tr.begin("workloads.generate", "workloads")
        chunks = iter(kernel(ctx, tid))
        tr.end()
        while True:
            tr.begin("workloads.generate", "workloads")
            chunk = next(chunks, None)
            tr.end()
            if chunk is None:
                return
            tr.count("workloads.chunks")
            tr.count("workloads.accesses", chunk.addrs.size)
            yield chunk

    return generate


class TracedProgram:
    """A :class:`repro.Program` whose kernels record generation spans."""

    def __init__(self, program) -> None:
        self._program = program
        self.name = program.name

    def setup(self, ctx) -> None:
        # Outside the engine (the autotune loop's boundary search) setup
        # has no span of its own; inside, this nests in engine.setup.
        with obs.TRACER.span("workloads.setup", "workloads"):
            self._program.setup(ctx)

    def regions(self, ctx) -> list:
        return [
            dataclasses.replace(r, kernel=_traced_kernel(r.kernel))
            for r in self._program.regions(ctx)
        ]


def round_walls(tracer: obs.Tracer) -> dict[str, float]:
    """Wall seconds of each sharded round method, summed over rounds.

    A round's wall runs from the first worker entering its ``shard.*``
    span to the last one leaving it; the k-th span of a method on each
    worker track belongs to the k-th round.
    """
    spans: dict[tuple[str, str], list[tuple[int, int]]] = {}
    stacks: dict[str, list] = {}
    for ph, name, _cat, track, ts, _args in tracer.events:
        if not (isinstance(track, str) and track.startswith("w")):
            continue
        stack = stacks.setdefault(track, [])
        if ph == "B":
            stack.append((name, ts))
        elif ph == "E" and stack:
            opened, t0 = stack.pop()
            if not stack and opened.startswith("shard."):
                spans.setdefault((opened[6:], track), []).append((t0, ts))
    walls: dict[str, float] = {}
    methods = {method for method, _track in spans}
    for method in methods:
        per_track = [v for (m, _t), v in spans.items() if m == method]
        for k in range(min(len(v) for v in per_track)):
            t0 = min(v[k][0] for v in per_track)
            t1 = max(v[k][1] for v in per_track)
            walls[method] = walls.get(method, 0.0) + (t1 - t0) / 1e9
    return walls


def layer_seconds(tracer: LedgerTracer) -> tuple[dict[str, float], float]:
    """Per-layer self seconds, and the parent process's share of them.

    Spans absorbed from workers ran concurrently with the parent's wait
    in ``parallel.run``; they are reported per layer (summed over
    workers) but excluded from the parent's partition of its wall.
    Returns ``(layers, parent_self_s)`` where ``parent_self_s`` is the
    sum of the parent's own mapped self times.
    """
    layers = {name: 0.0 for name in TIME_LAYERS}
    parent_s = 0.0
    for (cat, name), ns in tracer.self_ns.items():
        layer = SPAN_LAYER.get(name)
        if layer is None:
            continue
        worker_ns = tracer.worker_self_ns.get((cat, name), 0)
        layers[layer] += ns / 1e9
        parent_s += (ns - worker_ns) / 1e9
    return layers, parent_s


def unmapped_spans(tracer: obs.Tracer) -> list[str]:
    """Span names the ledger does not assign to a layer."""
    return sorted(
        {name for (_cat, name) in tracer.self_ns}
        - set(SPAN_LAYER)
        - {f"shard.{m}" for m in ("start", *ROUND_LAYER)}
    )
