"""The repo benchmark's one command (contract: ``BENCHMARK.json``).

    python3 benchmarks/perf/run.py --workload cold_heavy --seed 17 \\
        --seconds 10 --trace 0

runs one workload in this process: generates its inputs from the seed,
sets up (several times; the median is ``setup_s``), measures whole
passes of the workload's op list until ``--seconds`` have gone by,
checks every answer against an oracle, prints every metric by name and
unit, and ends with one JSON line.  ``--trace 1`` instead replays one
pass with every op split into spans and reports the per-layer metrics.
``--workload all`` runs every workload, traced and untraced, each in a
fresh child process.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything the benchmark writes goes under here (git-ignored; the
#: name the driver reserves for build output).
BUILD_DIR = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from measure import (  # noqa: E402 - needs the path set above
    Clock, Metric, median, ms, tree_peak_rss_mb,
)
from spans import Tracer  # noqa: E402


#: What an untraced run prints beside the contract's metrics and the
#: per-layer metrics it happens to know.
INFO_UNITS = {
    "passes": "count", "read_samples": "count",
    "harness.pass_spread_pct": "%", "harness.speed_factor": "ratio",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=None,
                        help="minimum measuring time of an untraced run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for trace-<workload>.jsonl "
                        "(default: .bench_build/perf-out)")
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--scale", type=int, default=0,
                        help="entity count of update_mix's graph (default "
                        "5000; 50000 is the heavy point, not in the contract)")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh child
    process (own caches, own peak RSS)."""
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--trace", str(trace), "--profile", args.profile,
                "--scale", str(args.scale),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.out is not None:
                command += ["--out", str(args.out)]
            status |= subprocess.run(command, cwd=ROOT).returncode
    return status


def set_up(workload, repeats: int) -> Tuple[List[float], List[float]]:
    """``setup`` ``repeats`` times, cycling ``open``/``close`` after
    each (a single set-up opens once); leaves the last one open.
    Returns the seconds of every set-up (build and save, plus its first
    open) and of every open."""
    cycles = workload.open_cycles if repeats > 1 else 1
    setups, opens = [], []

    def clean(function) -> float:
        # Whatever the harness dropped since the last call (the previous
        # repeat's index, the oracle's results) is collected now, not
        # inside the call that happens to allocate next.
        gc.collect()
        clock, seconds = Clock(), []
        clock.time(seconds, function)
        clock.flush()
        return seconds[0]

    for repeat in range(repeats):
        setup_s = clean(workload.setup)
        for cycle in range(cycles):
            if repeat or cycle:
                workload.close()
            opens.append(clean(workload.open))
        setups.append(setup_s + opens[-cycles])
    return setups, opens


def measure_untraced(workload, spec: dict, repeats: int, seconds: float):
    """Set up, run whole passes for ``seconds``; returns ``(metrics,
    info, attempted, failed)`` — ``info`` is printed but not part of
    the contract."""
    setups, opens = set_up(workload, repeats)
    gc.collect()
    passes = workload.measure(seconds)
    peak_rss_mb = tree_peak_rss_mb()
    summary = workload.summarize(passes)
    metrics = {
        "setup_s": Metric(median(setups), "s"),
        "qps": Metric(summary.pop("qps"), "1/s"),
        "p50_ms": Metric(summary.pop("p50_ms"), "ms"),
        "p95_ms": Metric(summary.pop("p95_ms"), "ms"),
        "cold_open_ms": Metric(
            summary.pop("cold_open_ms", ms(median(opens))), "ms"),
        "peak_rss_mb": Metric(peak_rss_mb, "MB"),
        "index_mb": Metric(workload.setup_parts["index_mb"], "MB"),
    }
    units = {layer["name"]: layer["unit"] for layer in spec["per_layer"]}
    units.update(INFO_UNITS)
    info = {name: Metric(value, units[name]) for name, value in summary.items()}
    checked, diverged = workload.verify()
    attempted = sum(p.attempted for p in passes) + checked
    failed = sum(p.failed for p in passes) + diverged
    return metrics, info, attempted, failed


def measure_traced(workload, spec: dict, seconds: float, out_dir: Path):
    """Set up once, replay one traced pass, write the span file;
    returns ``(metrics, attempted, failed)`` with every per-layer
    metric of the contract (0 for a layer this workload never enters)."""
    set_up(workload, 1)
    tracer = Tracer()
    layers, failed = workload.trace_pass(tracer, seconds)
    values = {**workload.setup_parts, **layers}
    values["index.mmapstore.backed_stores_thawed"] = workload.thawed()
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}.jsonl"
    tracer.write(trace_path)
    print(f"wrote {len(tracer.spans)} spans to {trace_path}")
    metrics = {
        layer["name"]: Metric(float(values.get(layer["name"], 0.0)),
                              layer["unit"])
        for layer in spec["per_layer"]
    }
    requests = len({span["request"] for span in tracer.spans})
    checked, diverged = workload.verify()
    return metrics, requests + checked, failed + diverged


def run_one(args: argparse.Namespace, spec: dict) -> int:
    import inputs
    from http_zipf import HttpZipf
    from update_mix import UpdateMix
    from workloads import ColdHeavy, ColdLight, ShardedHeavy

    classes = {
        cls.name: cls
        for cls in (ColdHeavy, ColdLight, ShardedHeavy, HttpZipf, UpdateMix)
    }
    if args.workload not in classes:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(classes)} or 'all'", file=sys.stderr)
        return 2
    profile = inputs.PROFILES[args.profile]
    seconds = (
        args.seconds if args.seconds is not None else spec["run_seconds"])
    BUILD_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perf-", dir=BUILD_DIR))
    workload = classes[args.workload](
        profile, args.seed, workdir, SRC, scale=args.scale)
    info: Dict = {}
    try:
        started = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - started
        # The oracle's index and answers stay alive to the end; frozen,
        # they are not traversed by every full collection the program's
        # allocations trigger (that cost a fifth of cold_heavy's p95).
        gc.collect()
        gc.freeze()
        problems = inputs.check_pins(profile, workload.pins)
        print(f"inputs sha256 {inputs.digest(sorted(workload.pins.items()))}"
              f" ({len(workload.pins)} pins)")
        if args.trace:
            metrics, attempted, failed = measure_traced(
                workload, spec, seconds, args.out or BUILD_DIR / "perf-out")
            metrics["harness.prepare_s"] = Metric(prepare_s, "s")
        else:
            metrics, info, attempted, failed = measure_untraced(
                workload, spec, profile.setup_repeats, seconds)
            info["harness.prepare_s"] = Metric(prepare_s, "s")
        thawed = workload.thawed()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"FAILED: {problem}")
    if thawed:
        print(f"FAILED: {thawed} mapped stores were thawed to the heap")
    failed += len(problems) + (1 if thawed else 0)
    attempted = max(attempted, failed, 1)

    print(f"workload {args.workload}  seed {args.seed}  profile "
          f"{args.profile}  trace {args.trace}")
    for name, metric in {**metrics, **info}.items():
        print(f"  {name:<44} {metric.value:>14.4f} {metric.unit}")
    print(f"  {'failed_share':<44} {failed / attempted:>14.4f} ratio "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401 - the program under test
    except ImportError:
        print(f"cannot import the program under test from {SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()

    def terminate(signum, frame):
        raise SystemExit(128 + signum)  # so that finally blocks stop servers

    signal.signal(signal.SIGTERM, terminate)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
