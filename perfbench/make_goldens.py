"""Record the correctness goldens in ``goldens.json``.

Usage: ``python3 perfbench/make_goldens.py [workload ...]`` from the root
of a checkout (default: every workload).  Each golden seed of a workload
is run once at ``--workers 1``; ``run.py`` checks its invocations, at the
workload's own worker count, against what is recorded here.  Only take
goldens again when a workload's config changes or when a change is meant
to alter the reports; say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import GOLDEN_SEEDS, GOLDENS, WORK, WORKLOADS, cli_argv, observe, sha256_file, spawn


def main(names: list[str]) -> int:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        runs = {}
        for seed in GOLDEN_SEEDS:
            out_dir = WORK / f"golden-{name}-{seed}"
            proc = spawn(cli_argv(workload, seed, out_dir, workers=1), out_dir / "proc")
            runs[str(seed)] = observe(workload, proc, out_dir)
            shutil.rmtree(out_dir)
            print(f"{name} seed={seed} exit={proc.exit_code} wall_s={proc.wall_s:.2f}", flush=True)
        entry = {"runs": runs}
        if workload.config_path is not None:
            entry["config_sha256"] = sha256_file(workload.config_path)
        goldens[name] = entry
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
