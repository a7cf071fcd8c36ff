"""The benchmark's workloads and the three operations each one runs.

Every workload runs the same closed-loop operation cycle, one client,
back to back in one process:

1. ``profile``   — a monitored run plus ``merge_profiles``,
   ``NumaAnalysis`` and ``advise``: the wait of ``python -m repro <w>``;
2. ``extrap``    — the same with ``extrapolate=True``;
3. ``autotune``  — one ``repro.optim.autotune`` loop: profile window,
   advise, live migration, re-profile and diff.

Workloads differ in the input that decides which layer does the work.
Machine and mechanism are the same for all: Magny-Cours, 48 compact
threads, IBS with period 4096. Every run builds a fresh machine, so it
starts with empty modelled caches and a fresh page table. Only
``lulesh-sharded`` forks, and it forks ``WORKERS`` worker processes per
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro import (
    IBS,
    ExecutionEngine,
    NumaAnalysis,
    NumaProfiler,
    advise,
    merge_profiles,
    presets,
)
from repro.optim.autotune import AutotuneConfig, autotune
from repro.parallel import ParallelEngine
from repro.workloads import AMG2006, Blackscholes, Lulesh

MACHINE = presets.magny_cours
THREADS = 48
PERIOD = 4096
WORKERS = 2


@dataclass(frozen=True)
class Case:
    """One benchmark workload."""

    name: str
    make_program: Callable[[], object]
    #: 1 runs the serial ExecutionEngine; more shards the run.
    workers: int
    #: The paper's lpi_NUMA for this code (EXPERIMENTS.md), shown next
    #: to the model's value. The model runs scaled inputs: not a gate.
    paper_lpi: float
    paper_lpi_text: str
    #: Whether Section 8's shape (lpi and remote fraction fall after
    #: autotuning) is a correctness check on this workload.
    autotune_improves: bool = False


CASES = {
    c.name: c
    for c in (
        Case(
            "lulesh-large",
            # At 4.5x the paper's node count one time step's records
            # outgrow the default memo and nearly every step misses (at
            # 4x about half still hit). 3 time steps keep a cycle near
            # 4 s, so a run gets several, and still let extrapolation
            # skip the last iteration of each region.
            lambda: Lulesh(n_nodes=2_700_000, steps=3),
            workers=1,
            paper_lpi=0.466,
            paper_lpi_text="0.466",
        ),
        Case(
            "blackscholes-sampled",
            lambda: Blackscholes(n_options=20_000),
            workers=1,
            paper_lpi=0.035,
            paper_lpi_text="0.035",
        ),
        Case(
            "amg-autotune",
            lambda: AMG2006(n_rows=2_000_000),
            workers=1,
            paper_lpi=0.92,
            paper_lpi_text="> 0.92",
            autotune_improves=True,
        ),
        Case(
            "lulesh-sharded",
            lambda: Lulesh(n_nodes=1_500_000),
            workers=WORKERS,
            paper_lpi=0.466,
            paper_lpi_text="0.466",
        ),
    )
}


#: Inputs of the accuracy panel. Cycles ``1 .. PANEL`` of every run use
#: inputs ``0 .. PANEL-1`` whatever ``--seed`` is, and ``extrap_rel_err``
#: is the mean over them. One input's extrapolation error is sampling
#: noise with a coefficient of variation near 0.7 across inputs, so a
#: mean over the few inputs a run can afford would swing by more than
#: any useful bound from seed to seed; over a fixed panel it is a
#: deterministic function of the code, as a held-out validation set is.
PANEL = 2


def input_seed(seed: int, i: int) -> int:
    """Input seed of a run's ``i``-th operation cycle: one derived from
    ``seed`` first, then the accuracy panel, then more from ``seed``."""
    if 1 <= i <= PANEL:
        return i - 1
    return 1000 * (seed + 1) + i


@dataclass
class Profiled:
    """Outcome of one ``profile`` or ``extrap`` operation."""

    wall_s: float
    result: object
    merged: object
    lpi: float | None
    remote: float
    engine: object


@dataclass
class Tuned:
    """Outcome of one ``autotune`` operation."""

    wall_s: float
    report: object


def _profiler(seed: int) -> NumaProfiler:
    return NumaProfiler(IBS(period=PERIOD), seed=seed)


def program_factory(case: Case, wrap=None):
    """Factory of fresh programs; ``wrap`` maps each to the one that runs
    (the traced pass wraps kernels in generation spans)."""
    if wrap is None:
        return case.make_program
    return lambda: wrap(case.make_program())


def build_engine(case: Case, seed: int, *, extrapolate: bool, wrap=None):
    """A ready-to-run engine for one operation (outside the timed span)."""
    program = program_factory(case, wrap)
    if case.workers > 1:
        return ParallelEngine(
            MACHINE, program, THREADS,
            n_workers=case.workers,
            monitor_factory=lambda: _profiler(seed),
            seed=seed,
            force_sharded=True,
            extrapolate=extrapolate,
        )
    return ExecutionEngine(
        MACHINE(), program(), THREADS,
        monitor=_profiler(seed), seed=seed, extrapolate=extrapolate,
    )


def profile(engine) -> Profiled:
    """Run to advice in hand: the monitored run, merge, analysis, advice."""
    t0 = time.perf_counter()
    result = engine.run()
    archive = (
        engine.archive if isinstance(engine, ParallelEngine)
        else engine.monitor.archive
    )
    merged = merge_profiles(archive)
    analysis = NumaAnalysis(merged)
    advise(analysis, thread_domains={t.tid: t.domain for t in engine.threads})
    wall = time.perf_counter() - t0
    return Profiled(
        wall, result, merged, analysis.program_lpi(),
        analysis.program_remote_fraction(), engine,
    )


def autotune_config(case: Case, seed: int, wrap=None) -> AutotuneConfig:
    return AutotuneConfig(
        machine_factory=MACHINE,
        program_factory=program_factory(case, wrap),
        n_threads=THREADS,
        mechanism_name="IBS",
        period=PERIOD,
        seed=seed,
        profiler_seed=seed,
        n_workers=case.workers,
    )


def tune(cfg: AutotuneConfig) -> Tuned:
    """One full closed loop, to a verified optimization."""
    t0 = time.perf_counter()
    report = autotune(cfg)
    return Tuned(time.perf_counter() - t0, report)


def serial_reference(case: Case, seed: int) -> Profiled:
    """The serial run a sharded run must equal bit for bit."""
    serial = replace(case, workers=1)
    return profile(build_engine(serial, seed, extrapolate=False))


def ready(name: str) -> None:
    """What set-up covers: the machine preset, program, engine, profiler."""
    case = CASES[name]
    build_engine(case, 0, extrapolate=False)
