"""``python -m repro runs`` — query the run registry from the terminal.

Subcommands:

* ``list`` — one line per archived run (id, kind, created, workload,
  machine, headline lpi/remote); ``--ids`` prints bare ids for scripts.
* ``show <id>`` — the full manifest, pretty-printed (or ``--json``).
* ``diff <a> <b>`` — re-run ``diff_profiles`` over the two runs'
  archived profiles: the same headline deltas the autotune loop prints.
* ``timeline <id>`` — terminal sparklines of the metrics-plane series
  (memo hit-rate, phase coverage, chunks/s by default), with ``--json``
  / ``--csv`` export for dashboards.

Run ids may be abbreviated to any unique prefix.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import NumaProfError, UsageError
from repro.registry.store import RunRegistry

#: Default series drawn by ``runs timeline``.
DEFAULT_TIMELINE_SERIES = (
    "engine.memo.hit_rate",
    "engine.phase.coverage_pct",
    "engine.rate.chunks_per_s",
)

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def series_points(
    doc: dict, name: str, track: str = "main"
) -> list[tuple[int, float]]:
    """``(ts_ns, value)`` pairs for one series/track of a series doc."""
    try:
        tid = doc["tracks"].index(track)
    except ValueError:
        return []
    tracks = doc["columns"]["track"]
    ts = doc["columns"]["ts_ns"]
    values = doc["series"].get(name, ())
    points = []
    for i, v in enumerate(values):
        # NaN cells mark rows where the series was absent.
        if tracks[i] == tid and v is not None and v == v:
            points.append((ts[i], float(v)))
    return points


def sparkline(values: list[float], width: int = 60) -> str:
    """Render values as a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # Mean-pool into `width` buckets so long runs still fit a row.
        pooled = []
        for b in range(width):
            lo = b * len(values) // width
            hi = max(lo + 1, (b + 1) * len(values) // width)
            chunk = values[lo:hi]
            pooled.append(sum(chunk) / len(chunk))
        values = pooled
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    out = []
    for v in values:
        frac = 0.0 if span == 0 else (v - vmin) / span
        out.append(_SPARK_CHARS[min(7, int(frac * 8))])
    return "".join(out)


def _fmt_num(value) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def _cmd_list(registry: RunRegistry, args) -> int:
    runs = registry.list_runs()
    if args.json:
        json.dump(runs, sys.stdout, indent=1)
        print()
        return 0
    if args.ids:
        for m in runs:
            print(m["id"])
        return 0
    if not runs:
        print(f"no runs in {registry.root}")
        return 0
    header = (
        f"{'id':<13}{'kind':<9}{'created':<21}{'workload':<14}"
        f"{'machine':<13}{'mech':<6}{'wk':>3}{'lpi':>8}{'remote':>8}"
    )
    print(header)
    print("-" * len(header))
    for m in runs:
        head = m.get("headline", {})
        cfg = m.get("config", {})
        remote = head.get("remote_fraction")
        print(
            f"{m['id']:<13}{m['kind']:<9}{m.get('created', '-'):<21}"
            f"{m.get('workload', '-'):<14}{m.get('machine', '-'):<13}"
            f"{str(cfg.get('mechanism', '-')):<6}"
            f"{cfg.get('workers', 1) or 1:>3}"
            f"{_fmt_num(head.get('lpi_numa')):>8}"
            f"{'-' if remote is None else f'{remote:.1%}':>8}"
        )
    print(f"{len(runs)} run(s) in {registry.root}")
    return 0


def _cmd_show(registry: RunRegistry, args) -> int:
    doc = registry.manifest(args.run)
    if args.json:
        json.dump(doc, sys.stdout, indent=1)
        print()
        return 0
    print(f"run {doc['id']} ({doc['kind']})")
    print(f"  created   {doc.get('created')}")
    print(f"  workload  {doc.get('workload')}  machine {doc.get('machine')}")
    for section in ("config", "flags", "simulated", "headline", "refs"):
        items = doc.get(section) or {}
        if not items:
            continue
        print(f"  {section}:")
        for key in sorted(items):
            print(f"    {key:<28} {items[key]}")
    if doc.get("git"):
        print(f"  git       {doc['git']}")
    print(f"  host wall {doc['host_wall_s']:.3f}s")
    arts = doc.get("artifacts") or {}
    print(f"  artifacts {', '.join(sorted(arts)) or '(none)'}")
    return 0


def _cmd_diff(registry: RunRegistry, args) -> int:
    from repro.analysis.diff import diff_profiles
    from repro.analysis.merge import merge_profiles

    before_doc = registry.manifest(args.before)
    after_doc = registry.manifest(args.after)
    before = merge_profiles(registry.load_profile(args.before))
    after = merge_profiles(registry.load_profile(args.after))
    diff = diff_profiles(before, after)
    if args.json:
        json.dump(
            {
                "before": before_doc["id"],
                "after": after_doc["id"],
                "program": diff.program,
                "lpi_before": diff.lpi_before,
                "lpi_after": diff.lpi_after,
                "remote_before": diff.remote_before,
                "remote_after": diff.remote_after,
                "variables": [
                    {
                        "name": v.name,
                        "remote_before": v.remote_fraction_before,
                        "remote_after": v.remote_fraction_after,
                    }
                    for v in diff.variables
                ],
            },
            sys.stdout,
            indent=1,
        )
        print()
        return 0
    print(f"runs diff: {before_doc['id']} -> {after_doc['id']}")
    print(diff.render())
    return 0


def _cmd_timeline(registry: RunRegistry, args) -> int:
    if args.width < 1:
        raise UsageError(f"--width must be >= 1, got {args.width}")
    doc = registry.manifest(args.run)
    series_doc = registry.load_series(args.run)
    names = (
        [s.strip() for s in args.series.split(",") if s.strip()]
        if args.series
        else [
            n
            for n in DEFAULT_TIMELINE_SERIES
            if series_points(series_doc, n, args.track)
        ]
        or list(DEFAULT_TIMELINE_SERIES)
    )
    selected = {
        name: series_points(series_doc, name, args.track) for name in names
    }
    if args.json:
        json.dump(
            {
                "run": doc["id"],
                "track": args.track,
                "n_samples": len(series_doc["columns"]["ts_ns"]),
                "dropped": series_doc.get("dropped", 0),
                "series": {
                    name: [[ts, v] for ts, v in pts]
                    for name, pts in selected.items()
                },
            },
            sys.stdout,
            indent=1,
        )
        print()
        return 0
    if args.csv:
        path = Path(args.csv)
        with open(path, "w") as fh:
            fh.write("series,ts_ns,value\n")
            for name, pts in selected.items():
                for ts, v in pts:
                    fh.write(f"{name},{ts},{v}\n")
        print(f"wrote {path}")
        return 0
    print(
        f"timeline {doc['id']} — {doc.get('workload')} on "
        f"{doc.get('machine')} (track {args.track}, "
        f"{len(series_doc['columns']['ts_ns'])} samples, "
        f"{series_doc.get('dropped', 0)} dropped)"
    )
    for name, pts in selected.items():
        values = [v for _ts, v in pts]
        if not values:
            print(f"  {name:<34} (no data)")
            continue
        line = sparkline(values, width=args.width)
        print(
            f"  {name:<34} {line}  "
            f"[{_fmt_num(min(values))} .. {_fmt_num(max(values))}] "
            f"last {_fmt_num(values[-1])}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro runs",
        description="Query the archive of recorded profiling runs.",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        help="registry root (default: $REPRO_RUNS_DIR or ./runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list archived runs")
    p_list.add_argument(
        "--ids", action="store_true", help="print bare run ids only"
    )
    p_list.add_argument("--json", action="store_true")

    p_show = sub.add_parser("show", help="print one run's manifest")
    p_show.add_argument("run", help="run id (unique prefix ok)")
    p_show.add_argument("--json", action="store_true")

    p_diff = sub.add_parser(
        "diff", help="diff_profiles over two archived runs"
    )
    p_diff.add_argument("before")
    p_diff.add_argument("after")
    p_diff.add_argument("--json", action="store_true")

    p_tl = sub.add_parser(
        "timeline", help="render metrics-plane series as sparklines"
    )
    p_tl.add_argument("run")
    p_tl.add_argument(
        "--series",
        default=None,
        help="comma-separated series names "
        f"(default: {', '.join(DEFAULT_TIMELINE_SERIES)})",
    )
    p_tl.add_argument(
        "--track", default="main", help="timeline track (main, w0, w1, ...)"
    )
    p_tl.add_argument("--width", type=int, default=60)
    p_tl.add_argument("--json", action="store_true")
    p_tl.add_argument("--csv", default=None, help="write CSV to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    registry = RunRegistry(args.runs_dir)
    try:
        if args.command == "list":
            return _cmd_list(registry, args)
        if args.command == "show":
            return _cmd_show(registry, args)
        if args.command == "diff":
            return _cmd_diff(registry, args)
        if args.command == "timeline":
            return _cmd_timeline(registry, args)
    except NumaProfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")
