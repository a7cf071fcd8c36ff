"""numabench — the numaprof benchmark: one workload, one seed, one result.

    python3 numabench/run.py --workload lulesh-large --seed 0 \\
        --seconds 20 --trace 0

Runs the workload's operation cycle (profile, extrapolated profile,
autotune; see ``cases.py``) back to back for ``--seconds``, checks every
operation's outputs, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics from untraced operations; ``--trace 1`` repeats
each operation under the program's tracer and reports the per-layer
ledger instead. See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = (
    "lulesh-large", "blackscholes-sampled", "amg-autotune", "lulesh-sharded",
)
#: The seed whose simulated outputs are pinned by ``reference.json``.
DEFAULT_SEED = 0
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Largest accepted ``--seconds``; a run must end within minutes.
MAX_SECONDS = 120.0

END_TO_END = {
    "setup_s": "s",
    "profile_s": "s",
    "extrap_profile_s": "s",
    "extrap_rel_err": "ratio",
    "autotune_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.setup_s": "s",
    "workloads.chunks": "count",
    "workloads.accesses": "count",
    "runtime.driver_s": "s",
    "runtime.steps": "count",
    "runtime.memo.hits": "count",
    "runtime.memo.misses": "count",
    "runtime.memo.evictions": "count",
    "runtime.memo.hit_ratio": "ratio",
    "runtime.memo.record_bytes": "bytes",
    "runtime.phase.extrapolate_s": "s",
    "runtime.phase.coverage_pct": "%",
    "runtime.phase.epsilon_declared": "ratio",
    "runtime.phase.breaks": "count",
    "machine.pagetable.trap_s": "s",
    "machine.pagetable.migrate_s": "s",
    "machine.cache.classify_s": "s",
    "machine.cache.classify_ns_per_access": "ns",
    "machine.latency.latency_s": "s",
    "machine.latency.ns_per_access": "ns",
    "sampling.select_step_s": "s",
    "sampling.samples_selected": "count",
    "profiler.on_step_s": "s",
    "profiler.attribute_s": "s",
    "profiler.flush_s": "s",
    "analysis.merge_s": "s",
    "analysis.advise_s": "s",
    "analysis.diff_s": "s",
    "optim.window_run_s": "s",
    "optim.tuned_run_s": "s",
    "optim.run_setup_s": "s",
    "optim.migrations_applied": "count",
    "parallel.parent_s": "s",
    "parallel.gen_round_s": "s",
    "parallel.classify_round_s": "s",
    "parallel.finish_round_s": "s",
    "parallel.extrapolate_round_s": "s",
    "parallel.shm_used": "count",
    "machine.sim_wall_s": "s",
    "machine.dram_accesses": "count",
    "machine.remote_dram_fraction": "ratio",
    "analysis.lpi_numa": "cycles/instr",
    "analysis.sampled_remote_fraction": "ratio",
    "analysis.paper_lpi_numa": "cycles/instr",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
    "host.calib_s": "s",
}

OPS = ("profile", "extrap", "autotune")


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="numabench/run.py", description=__doc__.splitlines()[0]
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-reference", action="store_true",
        help="rewrite this workload's digests in reference.json (default "
        "seed only); for a change that moves simulated outputs on purpose",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.seconds) and 0 < args.seconds <= MAX_SECONDS):
        p.error(f"--seconds must be in (0, {MAX_SECONDS:g}], "
                f"got {args.seconds}")
    if args.record_reference and args.seed != DEFAULT_SEED:
        p.error(f"--record-reference needs --seed {DEFAULT_SEED}")
    return args


#: The calibration kernel's median time on the reference host (a 2-vCPU
#: VM, Python 3.11, numpy 2.4). Timings are scaled to that host's speed.
CALIB_REF_S = 0.075


class HostClock:
    """Host-normalized timing, after LIKWID's calibrated kernels.

    The host's speed drifts: on the reference VM the same monitored run
    took from 0.41 s to 0.73 s in medians of eight within one minute,
    while its CPU time tracked its wall time (so it is not time stolen
    from the guest). A fixed kernel (``calib_kernel.py``) timed just
    before and just after each operation moves with that drift, and the
    operation's wall scaled by ``CALIB_REF_S`` over the kernel's mean
    drifts about three times less. Values are seconds on the reference
    host. The kernel runs in a child process that waits on a pipe while
    operations run.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "calib_kernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)

    def tick(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration kernel process ended")
        self.kernel_s.append(float(line))
        return self.kernel_s[-1]

    def normalized(self, wall: float) -> float:
        """``wall`` of an operation that ran since the last tick."""
        before = self.kernel_s[-1] if self.kernel_s else self.tick()
        after = self.tick()
        return wall * 2 * CALIB_REF_S / (before + after)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The sharded engine's shared-memory segments start the tracker as a
    child of this process the first time one is created; left alone it
    outlives the run until it reads end-of-file on its pipe. Every
    segment is unlinked by the time this runs, so stopping it frees
    nothing.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def setup_seconds(workload: str, clock: HostClock) -> float:
    """Median host-normalized set-up time over fresh interpreters."""
    clock.tick()
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(
            clock.normalized(float(out.stdout.strip().splitlines()[-1]))
        )
    return median(times)


def rel_err(live, extrap) -> float:
    """Largest relative gap over lpi_NUMA and the sampled remote fraction."""
    return max(
        abs(extrap.lpi - live.lpi) / live.lpi,
        abs(extrap.remote - live.remote) / live.remote,
    )


class Bench:
    """One run: the operation loop, its checks, and the metrics."""

    def __init__(self, case, seed: int, trace: bool, record: bool,
                 clock: HostClock) -> None:
        from ledger import LedgerTracer

        self.case = case
        self.clock = clock
        self.seed = seed
        self.trace = trace
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: (traced, op) -> raw walls, and host-normalized ones (see
        #: HostClock); end-to-end timings are medians of the latter.
        self.raw = {(t, op): [] for t in (False, True) for op in OPS}
        self.walls = {(t, op): [] for t in (False, True) for op in OPS}
        self.errors: dict[int, float] = {}
        self.cycles = 0
        self.last: dict = {}
        self.phase: list[dict] = []
        self.round_s: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self._serial: dict[int, object] = {}
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
            else {}
        self.reference = reference.get(case.name, {})
        self.tracer = LedgerTracer() if trace else None

    # -- operations ---------------------------------------------------- #

    def _execute(self, op: str, s: int, traced: bool):
        import cases
        from ledger import TracedProgram

        wrap = TracedProgram if traced else None
        if op == "autotune":
            timed, arg = cases.tune, cases.autotune_config(self.case, s, wrap)
        else:
            timed, arg = cases.profile, cases.build_engine(
                self.case, s, extrapolate=op == "extrap", wrap=wrap
            )
        if not traced:
            return timed(arg)
        self.tracer.enable(clear=False)
        try:
            return timed(arg)
        finally:
            self.tracer.disable()
            for method, wall in self.tracer.end_operation().items():
                self.round_s[method] = self.round_s.get(method, 0.0) + wall

    def _run(self, op: str, s: int, traced: bool):
        """One operation; an exception counts it failed and returns None."""
        self.attempted += 1
        # Garbage from the previous operation is not this one's cost.
        gc.collect()
        try:
            out = self._execute(op, s, traced)
        except Exception:  # a crashing operation is a failed operation
            self.failed += 1
            self.problems.append(f"{op} seed {s}: raised")
            traceback.print_exc(file=sys.stderr)
            return None
        self.raw[traced, op].append(out.wall_s)
        self.walls[traced, op].append(self.clock.normalized(out.wall_s))
        return out

    def _judge(self, op: str, s: int, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{op} seed {s}: {p}" for p in problems)

    def _digest_problems(self, key: str, digest: str) -> list[str]:
        """Compare with ``reference.json``: panel inputs in every run, the
        default seed's own inputs as far as they were recorded."""
        import cases

        if self.record:
            self.digests[key] = digest
            return []
        want = self.reference.get(key)
        if want is None:
            panel = int(key.split("/")[0]) < cases.PANEL
            return [f"no reference digest for {key}"] if panel else []
        return [] if want == digest else [f"digest {key} != reference"]

    def _serial_reference(self, s: int):
        import cases

        if s not in self._serial:
            self._serial[s] = cases.serial_reference(self.case, s)
        return self._serial[s]

    def cycle(self, i: int) -> None:
        import cases
        import checks

        s = cases.input_seed(self.seed, i)
        # Traced and untraced passes alternate in order, so an order
        # effect does not read as tracing overhead.
        passes = ((False, True) if i % 2 == 0 else (True, False)) \
            if self.trace else (False,)
        for traced in passes:
            live = self._run("profile", s, traced)
            if live is not None:
                problems = checks.conservation(live.result)
                problems += checks.profile_sane(live.merged)
                d = checks.digest(live.result, live.lpi, live.remote)
                problems += self._digest_problems(f"{s}/profile", d)
                if self.case.workers > 1:
                    ref = self._serial_reference(s)
                    problems += checks.same_result(
                        live.result, ref.result, "sharded vs serial"
                    )
                    if (live.lpi, live.remote) != (ref.lpi, ref.remote):
                        problems.append("sharded lpi/remote != serial")
                self._judge("profile", s, problems)
            extrap = self._run("extrap", s, traced)
            if extrap is not None:
                problems = checks.conservation(extrap.result)
                problems += checks.profile_sane(extrap.merged)
                d = checks.digest(extrap.result, extrap.lpi, extrap.remote)
                problems += self._digest_problems(f"{s}/extrap", d)
                if live is not None:
                    problems += checks.same_totals(live.result, extrap.result)
                    self.errors[s] = rel_err(live, extrap)
                self._judge("extrap", s, problems)
            tuned = self._run("autotune", s, traced)
            if tuned is not None:
                report = tuned.report
                problems = []
                if self.case.autotune_improves:
                    problems += checks.autotune_shape(report)
                if live is not None and (
                    report.lpi_before, report.remote_before
                ) != (live.lpi, live.remote):
                    problems.append("profile window != standalone profile")
                d = checks.digest_report(report)
                problems += self._digest_problems(f"{s}/autotune", d)
                self._judge("autotune", s, problems)
            if traced and None not in (live, extrap, tuned):
                self.last = {"live": live, "extrap": extrap, "tuned": tuned}
                self.phase.append(extrap.engine.phase_report or {})
        self.cycles += 1

    def loop(self, seconds: float) -> None:
        """Whole cycles until the next would overrun ``seconds``; untraced
        runs first cover the accuracy panel."""
        import cases

        least = 1 if self.trace else 1 + cases.PANEL
        t0 = time.perf_counter()
        i = 0
        while True:
            c0 = time.perf_counter()
            self.cycle(i)
            i += 1
            now = time.perf_counter()
            if i >= least and now + (now - c0) - t0 > seconds:
                break

    # -- metrics ------------------------------------------------------- #

    def panel_error(self) -> float:
        """Mean extrapolation error over the accuracy panel's inputs."""
        import cases

        return mean(
            e for s, e in self.errors.items() if s < cases.PANEL
        )

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {
            "setup_s": setup_s,
            "profile_s": median(self.walls[False, "profile"]),
            "extrap_profile_s": median(self.walls[False, "extrap"]),
            "extrap_rel_err": self.panel_error(),
            "autotune_s": median(self.walls[False, "autotune"]),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
        }

    def traced_wall(self) -> float:
        """Raw traced operation wall per cycle."""
        return sum(sum(self.raw[True, op]) for op in OPS) / len(self.phase)

    def per_layer(self) -> dict[str, float]:
        from ledger import ROUND_LAYER, layer_seconds

        tr = self.tracer
        n = len(self.phase)
        layers, parent_s = layer_seconds(tr)
        out = {k: v / n for k, v in layers.items()}
        # parallel.run's self time splits into the rounds the parent
        # waited on and its own work (start-up round included).
        for method, name in ROUND_LAYER.items():
            out[name] = self.round_s.get(method, 0.0) / n
            out["parallel.parent_s"] -= out[name]
        c = tr.counters
        hits = c.get("engine.memo.hits", 0)
        misses = c.get("engine.memo.misses", 0)
        live, tuned = self.last["live"], self.last["tuned"]
        res = live.result
        # Four runs per cycle (profile, extrap, autotune's two) simulate
        # the same accesses; skipped iterations count as simulated.
        accesses = 4 * res.total_accesses
        out.update({
            "workloads.chunks": c.get("workloads.chunks", 0) / n,
            "workloads.accesses": c.get("workloads.accesses", 0) / n,
            "runtime.steps": c.get("engine.steps", 0) / n,
            "runtime.memo.hits": hits / n,
            "runtime.memo.misses": misses / n,
            "runtime.memo.evictions": c.get("engine.memo.evicted", 0) / n,
            "runtime.memo.hit_ratio": hits / max(hits + misses, 1),
            "runtime.memo.record_bytes": tr.peak_gauges.get(
                "engine.memo.bytes", 0.0
            ),
            "runtime.phase.coverage_pct": median(
                p.get("coverage_pct", 0.0) for p in self.phase
            ),
            "runtime.phase.epsilon_declared": median(
                p.get("epsilon", 0.0) for p in self.phase
            ),
            "runtime.phase.breaks": median(
                p.get("breaks", 0) for p in self.phase
            ),
            "machine.cache.classify_ns_per_access":
                out["machine.cache.classify_s"] * 1e9 / accesses,
            "machine.latency.ns_per_access":
                out["machine.latency.latency_s"] * 1e9 / accesses,
            "sampling.samples_selected":
                c.get("sampling.samples.selected", 0) / n,
            "optim.window_run_s": tr.total_ns.get(
                ("optim", "autotune.profile_window"), 0
            ) / 1e9 / n,
            "optim.tuned_run_s": tr.total_ns.get(
                ("optim", "autotune.reverify"), 0
            ) / 1e9 / n,
            "optim.migrations_applied": sum(
                1 for a in tuned.report.applied if a["ok"]
            ),
            "parallel.shm_used": float(getattr(live.engine, "shm_used", 0)),
            "machine.sim_wall_s": res.wall_seconds,
            "machine.dram_accesses": res.dram_accesses,
            "machine.remote_dram_fraction": res.remote_dram_fraction,
            "analysis.lpi_numa": live.lpi,
            "analysis.sampled_remote_fraction": live.remote,
            "analysis.paper_lpi_numa": self.case.paper_lpi,
            "trace.coverage": parent_s / (self.traced_wall() * n),
            "trace.overhead_pct": 100.0 * (
                sum(sum(self.walls[True, op]) for op in OPS)
                / sum(sum(self.walls[False, op]) for op in OPS) - 1.0
            ),
            "host.calib_s": median(self.clock.kernel_s),
        })
        return out


def regime_lines(m: dict[str, float], wall: float) -> list[str]:
    """Shares of the traced wall (per cycle) the workload's regime rests on.

    On a sharded workload the layer times are summed over both workers.
    """
    def share(*names):
        return sum(m[k] for k in names) / wall

    classify = share("machine.cache.classify_s", "machine.latency.latency_s")
    monitor = share(
        "sampling.select_step_s", "profiler.on_step_s",
        "profiler.attribute_s", "profiler.flush_s",
    )
    return [
        f"  traced wall per cycle    {wall:7.3f} s",
        f"  classify + latency       {classify:7.1%}",
        f"  sampling + profiler      {monitor:7.1%}",
        f"  generation               {share('workloads.generate_s'):7.1%}",
        f"  memo evictions per cycle {m['runtime.memo.evictions']:7.0f}",
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"numabench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cases

    case = cases.CASES[args.workload]
    if case.workers > 1:
        from repro.parallel import sharding_supported

        if not sharding_supported():
            print("numabench: this platform cannot fork workers",
                  file=sys.stderr)
            return 2
    clock = HostClock()
    try:
        setup_s = setup_seconds(args.workload, clock)
        bench = Bench(
            case, args.seed, bool(args.trace), args.record_reference, clock
        )
        if args.trace:
            from repro import obs

            bench.tracer.enable(clear=True)
            bench.tracer.disable()
            old = obs.set_tracer(bench.tracer)
            try:
                bench.loop(args.seconds)
            finally:
                obs.set_tracer(old)
        else:
            bench.loop(args.seconds)
    finally:
        clock.close()
        stop_resource_tracker()

    if args.record_reference:
        data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        data[case.name] = dict(sorted(bench.digests.items()))
        REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    print(f"numabench {case.name}: seed {args.seed}, {bench.cycles} cycles, "
          f"{bench.attempted} operations, {bench.failed} failed; "
          f"host.calib_s {median(clock.kernel_s):.4f} "
          f"(reference {CALIB_REF_S})")
    for p in bench.problems:
        print(f"  FAILED {p}")
    for op in OPS:
        walls = bench.raw[False, op]
        print(f"  {op:9s} {len(walls)} untraced samples, raw wall "
              f"min {min(walls):.4f} s, median {median(walls):.4f} s, "
              f"max {max(walls):.4f} s")
    print("  extrapolation error by input: " + ", ".join(
        f"{s}: {e:.4f}" for s, e in sorted(bench.errors.items())
    ))
    if args.trace:
        metrics = bench.per_layer()
        units = PER_LAYER
        print(f"  declared epsilon (median over traced cycles) "
              f"{metrics['runtime.phase.epsilon_declared']:.4f}")
        print(f"  model vs paper (scaled inputs, not a gate): lpi_NUMA "
              f"{metrics['analysis.lpi_numa']:.3f} vs {case.paper_lpi_text}; "
              f"sampled remote fraction "
              f"{metrics['analysis.sampled_remote_fraction']:.3f}")
        print("\n".join(regime_lines(metrics, bench.traced_wall())))
        from ledger import unmapped_spans

        for name in unmapped_spans(bench.tracer):
            print(f"  WARNING span {name} is in no layer")
    else:
        metrics = bench.end_to_end(setup_s)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
