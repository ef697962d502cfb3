"""Self-check of the repo benchmark: ``run.py`` on the tiny profile must
emit exactly the schema ``BENCHMARK.json`` declares, with no failed op,
and span files in which every parent exists.  Numbers are not judged."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_tiny_profile_emits_the_declared_schema(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for names in declared.values():
        assert all(NAME.match(name) for name in names)
    assert "setup_s" in declared[0]

    # One child per (workload, trace), as ``--workload all`` would run
    # them, but as many at a time as there are CPUs: numbers are not
    # judged here.
    jobs = [
        (workload["name"], trace)
        for workload in spec["workloads"] for trace in (0, 1)
    ]

    def run(job):
        workload, trace = job
        return subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--trace", str(trace), "--profile", "tiny",
                "--seconds", "0.2", "--out", str(tmp_path),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        outcomes = list(pool.map(run, jobs))
    results = {}
    for job, done in zip(jobs, outcomes):
        assert done.returncode == 0, done.stdout + done.stderr
        # One JSON object as the last line of the output.
        results[job] = json.loads(done.stdout.splitlines()[-1])

    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        assert units == declared[trace], (workload, trace)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())

    for workload in spec["workloads"]:
        path = tmp_path / f"trace-{workload['name']}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, path
        ids = {span["id"] for span in spans}
        assert len(ids) == len(spans)
        for span in spans:
            assert set(span) == {
                "id", "parent", "request", "name", "t0", "t1", "counts"}
            assert span["parent"] is None or span["parent"] in ids
            assert span["t1"] >= span["t0"]
