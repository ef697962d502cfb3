"""Aggregate every ``BENCH_*.json`` into one trajectory table.

Each PR's smoke bench emits a ``BENCH_<n>.json`` with its own schema but
a shared spine: a ``bench``/``profile`` identity and an ``acceptance``
dict of boolean gates.  This report walks a directory (default: cwd),
extracts that spine plus each bench's headline numbers, and prints one
table so the bench history reads as a trajectory instead of a pile of
per-PR artifacts::

    PYTHONPATH=src python benchmarks/report.py [--dir .] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _fmt_ms(value) -> str:
    return f"{value:.2f} ms" if isinstance(value, (int, float)) else "-"


def _headline(name: str, data: dict) -> str:
    """The one number this bench exists to track, best-effort per schema."""
    if "update" in data and "compaction" in data:  # BENCH_10 (overlay)
        update = data["update"]
        speedup = update.get("speedup_vs_thaw")
        speedup_text = (
            f" = {speedup:.0f}x vs thaw"
            if isinstance(speedup, (int, float))
            else ""
        )
        return (
            f"update p50 {_fmt_ms(update.get('p50_ms'))} p95 "
            f"{_fmt_ms(update.get('p95_ms'))}{speedup_text}, gen "
            f"{data['compaction'].get('generation', '-')}"
        )
    if "fork_pool" in data:  # BENCH_9 (fork-pool execution backend)
        pool = data["fork_pool"]
        ratio = pool.get("ratio")
        ratio_text = (
            f"{ratio:.2f}x" if isinstance(ratio, (int, float)) else "-"
        )
        required = pool.get("required_ratio")
        floor_text = (
            f" (floor {required:.1f}x)"
            if isinstance(required, (int, float))
            else " (floor waived: 1 core)"
        )
        return (
            f"fork {pool.get('processes_qps', 0):.0f} QPS vs threads "
            f"{pool.get('threads_qps', 0):.0f} = {ratio_text}"
            f"{floor_text} at {data.get('workers', '?')} workers"
        )
    if "sustained" in data and "baseline" in data:  # BENCH_8 (HTTP tier)
        sustained = data["sustained"]
        ratio = sustained.get("ratio_vs_baseline")
        ratio_text = (
            f" ({ratio:.1f}x serial REPL)"
            if isinstance(ratio, (int, float))
            else ""
        )
        return (
            f"sustained {sustained.get('achieved_qps', 0):.0f} QPS"
            f"{ratio_text}, {sustained.get('coalesced', 0)} coalesced"
        )
    if "per_scale" in data:  # BENCH_7 (mmap cold start)
        largest = data["per_scale"][-1]
        return (
            f"{largest['num_entities']} entities: cold start "
            f"{largest['cold_start_speedup']:.0f}x vs v2, serving p50 "
            f"{_fmt_ms(largest['serving']['p50_ms'])}"
        )
    if "per_shard_count" in data:  # BENCH_5 (query splitting)
        return (
            f"{data.get('total_searches_split')} of "
            f"{data.get('total_searches')} searches split across the grid"
        )
    if "single_query" in data:  # BENCH_4 (serving)
        single = data["single_query"]
        warm = single.get("warm_p50_ms")
        cold = single.get("cold_p50_ms")
        if isinstance(warm, (int, float)) and isinstance(cold, (int, float)):
            return (
                f"warm p50 {_fmt_ms(warm)} vs cold {_fmt_ms(cold)} "
                f"({cold / max(warm, 1e-9):.0f}x)"
            )
    if "speedups" in data:  # BENCH_3 (pruning)
        pairs = ", ".join(
            f"{algo} p50 {ratio:.2f}x"
            for algo, ratio in sorted(data["speedups"].items())
            if isinstance(ratio, (int, float))
        )
        if pairs:
            return pairs
    for key in ("p50_ms", "mean_latency_ms"):
        if isinstance(data.get(key), (int, float)):
            return f"p50 {_fmt_ms(data[key])}"
    return "-"


def _serving_columns(data: dict) -> dict:
    """Best-effort QPS / p99 / shed-rate columns, per schema.

    BENCH_8 (the HTTP tier) populates all three; older serving benches
    surface what they have; figure benches print dashes.
    """
    qps = p99 = shed = ratio = upd = None
    if "update" in data and "compaction" in data:  # BENCH_10
        upd = data["update"].get("p50_ms")
    if "fork_pool" in data:  # BENCH_9
        pool = data["fork_pool"]
        qps = pool.get("processes_qps")
        ratio = pool.get("ratio")
    elif "sustained" in data and "overload" in data:  # BENCH_8
        sustained = data["sustained"]
        qps = sustained.get("achieved_qps")
        p99 = sustained.get("latency_200", {}).get("p99_ms")
        overload = data["overload"]
        total = overload.get("requests")
        if total:
            shed = overload.get("shed_503", 0) / total
    elif "batch_threads" in data:  # BENCH_4
        runs = data["batch_threads"]
        best = runs.get("1") or runs.get(1) or {}
        qps = best.get("qps")
    return {
        "qps": f"{qps:.0f}" if isinstance(qps, (int, float)) else "-",
        "p99": _fmt_ms(p99) if isinstance(p99, (int, float)) else "-",
        "shed": (
            f"{shed * 100:.0f}%" if isinstance(shed, (int, float)) else "-"
        ),
        # Threads-vs-processes trajectory: how much the fork-pool backend
        # buys over the GIL-bound thread bridge at equal worker count.
        "t/p": (
            f"{ratio:.2f}x" if isinstance(ratio, (int, float)) else "-"
        ),
        # Update-latency trajectory: per-mutation p50 through the delta
        # overlay (BENCH_10).
        "upd": _fmt_ms(upd) if isinstance(upd, (int, float)) else "-",
    }


def collect(directory: Path) -> list:
    rows = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            rows.append(
                {
                    "file": path.name,
                    "bench": "(unreadable)",
                    "profile": "-",
                    "gates": f"error: {exc}",
                    "headline": "-",
                    "qps": "-",
                    "p99": "-",
                    "shed": "-",
                    "t/p": "-",
                    "upd": "-",
                    "ok": False,
                }
            )
            continue
        acceptance = data.get("acceptance", {})
        gates = (
            ", ".join(
                f"{name}={'ok' if passed else 'FAIL'}"
                for name, passed in sorted(acceptance.items())
            )
            or "-"
        )
        rows.append(
            {
                "file": path.name,
                "bench": data.get("bench", path.stem.lower()),
                "profile": data.get("profile", "-"),
                "gates": gates,
                "headline": _headline(path.stem, data),
                **_serving_columns(data),
                "ok": all(acceptance.values()) if acceptance else True,
            }
        )
    return rows


def format_table(rows: list) -> str:
    if not rows:
        return "no BENCH_*.json files found"
    headers = (
        "file", "bench", "profile", "headline", "qps", "p99", "shed",
        "t/p", "upd", "gates",
    )
    table = [headers] + [
        tuple(str(row[name]) for name in headers) for row in rows
    ]
    widths = [
        max(len(line[i]) for line in table) for i in range(len(headers))
    ]
    lines = []
    for index, line in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json files"
    )
    parser.add_argument(
        "--json", default=None, help="also write the aggregate as JSON"
    )
    args = parser.parse_args(argv)
    rows = collect(Path(args.dir))
    print(format_table(rows))
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
