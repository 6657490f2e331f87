"""Toy-size smoke test of the benchmark itself.

Usage: ``python3 perfbench/smoke.py`` from the root of a checkout (about a
minute on two cores).  Every workload runs at toy sizes in both modes; the
test asserts that each run is correct, that the exact counts repeat across
the two traced passes and match the toy config, that every count and span
that applies to the workload (``Workload.live``) reads nonzero, and that
every metric named in ``BENCHMARK.json`` is emitted and nothing else.  Goldens do not apply at toy sizes, so an
invocation only has to exit 0 or 1 and leave parseable reports.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

TOY_SIZES = {
    "clt-small": {"m_list": [64], "replicates": 200},
    "lln-long": {"m_list": [256, 512, 1024, 2048, 4096], "replicates": 8},
}


def toy(workload: run.Workload) -> run.Workload:
    if workload.name not in TOY_SIZES:
        return workload
    cfg = json.loads(workload.config_path.read_text())
    cfg["experiment"].update(TOY_SIZES[workload.name])
    path = run.WORK / "toy" / f"{workload.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return dataclasses.replace(workload, config_path=path)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    shutil.rmtree(run.WORK, ignore_errors=True)
    try:
        for name, workload in run.WORKLOADS.items():
            workload = toy(workload)
            for trace in (0, 1):
                bench_run = run.Run(workload, seed=0, goldens=None)
                metrics = run.per_layer(bench_run) if trace else run.end_to_end(bench_run, 0.0)
                assert not bench_run.failures, (name, trace, bench_run.failures)
                emitted = {metric: unit for metric, (_, unit) in metrics.items()}
                assert emitted == expected[trace], (name, trace, emitted)
                print(f"ok {name} trace={trace}: {len(emitted)} metrics", flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
