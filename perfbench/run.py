"""The smclimits benchmark: the ``smc-limits`` CLI run as users run it.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload clt-small --seed 3 --seconds 20 --trace 0

``--trace 0`` runs the workload's command as one subprocess per
invocation, back to back until ``--seconds`` are used, and reports the
end-to-end metrics (medians over invocations).  ``--trace 1`` reports the
per-layer metrics of ``trace_pass.py`` instead (see NOTES.md).  Every
invocation is checked against the pinned goldens in ``goldens.json``.
Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import dataclasses
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDENS = BENCH / "goldens.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_INVOCATIONS = 3
GOLDEN_SEEDS = tuple(range(1, 9))  # the CLI seeds every run draws from
# A lln-long run at two workers whose tree used at most this many CPUs on
# average never ran in parallel: the pool's silent serial fallback.
MIN_PARALLEL_CPU_PER_WALL = 1.1
# Reference processes run before each invocation; their mean is its divisor.
REFERENCE_RUNS = 3
# The median wall of reference.py on the 2-core Xeon VM the bounds were set
# on.  setup_s is the set-up time at that reference speed: each probe is
# divided by the reference run right after it and scaled by this constant.
REFERENCE_S = 0.28


@dataclass(frozen=True)
class Workload:
    """One pinned CLI command; ``config_path`` is None for the built-in config."""

    name: str
    command: str
    config_path: Path | None
    workers: int
    # per-layer metrics that must read nonzero in a traced pass: each one
    # shows that a swapped name is still called on the workload's path
    live: tuple[str, ...] = ()

    @property
    def is_filter(self) -> bool:
        return self.command in ("verify-clt", "verify-lln")

    @property
    def rows_file(self) -> str:
        return {"verify-clt": "clt_rows.csv", "verify-lln": "lln_rows.csv"}[self.command]

    def expected_counts(self) -> dict[str, int]:
        """The traced counts that the config fixes in advance.

        The traced counts come from swapped module-level names.  A wrapper
        that the CLI stops calling reads 0 in both traced passes, which then
        agree, so these counts are also compared with the config.
        """
        if not self.is_filter:
            return {}
        exp = json.loads(self.config_path.read_text())["experiment"]
        return {
            "harness.replicates": exp["replicates"] * len(exp["m_list"]),
            # sum over replicates and particle counts of m * horizon
            "state_space.particle_steps": sum(exp["m_list"]) * exp["horizon"] * exp["replicates"],
        }


FILTER_LIVE = (
    "state_space.smc_init_s", "state_space.smc_step_s", "state_space.path_bytes_copied",
    "state_space.trace_bytes", "weighted_sample.diagnostics_calls", "harness.truth_s",
    "harness.check_s", "harness.aggregate_s", "cli.report_bytes",
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clt-small", "verify-clt", BENCH / "workloads" / "clt-small.json", 1,
                 FILTER_LIVE + ("resampling.multinomial.draws", "variance_oracle.path_cells",
                                "variance_oracle.sigma2_s")),
        Workload("lln-long", "verify-lln", BENCH / "workloads" / "lln-long.json", 2,
                 FILTER_LIVE + ("resampling.residual.draws",)),
        Workload("resampling-exact", "verify-resampling", None, 1,
                 ("weighted_sample.samples_built", "resampling.moments_calls",
                  "enumeration.calls", "enumeration.outcomes", "verify.checks",
                  "verify.unbiasedness_s", "verify.ordering_s", "verify.limit_weight_s",
                  "cli.report_bytes")),
    )
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """Environment for every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("SMC_LIMITS_LOG", None)
    return env


@dataclass(frozen=True)
class Proc:
    """A finished child: its exit code, output, and resource use."""

    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float          # user + sys of the child and its reaped descendants
    peak_rss_mb: float    # largest RSS of any one process in that tree


def spawn(argv: list[str], scratch: Path) -> Proc:
    """Run ``argv`` to completion and time it from start to exit.

    Output goes to files, so a chatty child cannot block on a full pipe;
    ``os.wait4`` returns the rusage of the child together with every
    descendant it waited for (the pool workers are joined at shutdown).
    """
    scratch.mkdir(parents=True, exist_ok=True)
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        exit_code=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_argv(workload: Workload, seed: int, out_dir: Path, workers: int) -> list[str]:
    argv = [sys.executable, "-m", "smclimits", workload.command, "--seed", str(seed),
            "--out-dir", str(out_dir), "--workers", str(workers)]
    if workload.config_path is not None:
        argv += ["--config", str(workload.config_path)]
    return argv


# ---------------------------------------------------------------------------
# Correctness: observations compared with the pinned goldens
# ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(workload: Workload, proc: Proc, out_dir: Path) -> dict:
    """The version-free outcome of one invocation, as goldens record it.

    Filter commands: exit code, verdict lines and the rows CSV hash.
    ``verify-resampling``: exit code, the suite PASS/FAIL lines and each
    suite's ``n_checks``.  Raises ValueError on a missing or unparseable
    report.
    """
    obs = {"exit": proc.exit_code, "stdout": proc.stdout.splitlines()}
    try:
        if workload.is_filter:
            obs["rows_sha256"] = sha256_file(out_dir / workload.rows_file)
            summary_name = workload.rows_file.replace("_rows.csv", "_summary.json")
            json.loads((out_dir / summary_name).read_text())
        else:
            report = json.loads((out_dir / "resampling_report.json").read_text())
            obs["n_checks"] = {
                s["suite"]: s["n_checks"] for s in report["suites"] if "n_checks" in s
            }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"missing or unparseable report: {exc}") from exc
    return obs


def load_goldens(workload: Workload) -> dict:
    """The golden entry of a workload, checked against its config file."""
    entry = json.loads(GOLDENS.read_text())[workload.name]
    if workload.config_path is not None:
        if entry["config_sha256"] != sha256_file(workload.config_path):
            raise SystemExit(f"{workload.name}: config changed since goldens were taken")
    return entry["runs"]


def check(workload: Workload, proc: Proc, out_dir: Path, golden: dict | None,
          workers: int) -> str | None:
    """None when the invocation is correct, else the reason it failed."""
    try:
        obs = observe(workload, proc, out_dir)
    except ValueError as exc:
        return f"exit {proc.exit_code}, {exc}"
    if golden is None:
        if obs["exit"] not in (0, 1):
            return f"unexpected exit code {obs['exit']}: {proc.stderr.strip()[-300:]}"
    else:
        for key, want in golden.items():
            if obs.get(key) != want:
                return f"golden mismatch on {key}: got {obs.get(key)!r}, want {want!r}"
    if workers > 1 and proc.cpu_s / proc.wall_s <= MIN_PARALLEL_CPU_PER_WALL:
        return (f"process tree never used more than one CPU "
                f"(cpu/wall {proc.cpu_s / proc.wall_s:.2f} at --workers {workers}): "
                "serial fallback")
    return None


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Run:
    """Book-keeping of one benchmark run: invocation count and failures."""

    def __init__(self, workload: Workload, seed: int, goldens: dict | None):
        self.workload = workload
        self.goldens = goldens
        self.attempted = 0
        self.failures: list[str] = []
        order = list(GOLDEN_SEEDS)
        random.Random(seed).shuffle(order)
        self._seeds = order

    def cli_seed(self, i: int) -> int:
        """The CLI seed of invocation i: the run's seed picks an order of the pool."""
        return self._seeds[i % len(self._seeds)]

    def invoke(self, i: int, workers: int | None = None) -> Proc:
        """Run the workload's command once, check it, and remove its reports."""
        workers = self.workload.workers if workers is None else workers
        seed = self.cli_seed(i)
        out_dir = WORK / f"{self.workload.name}-{i}-w{workers}"
        proc = spawn(cli_argv(self.workload, seed, out_dir, workers), out_dir / "proc")
        golden = None if self.goldens is None else self.goldens[str(seed)]
        self.record(check(self.workload, proc, out_dir, golden, workers),
                    f"seed {seed} workers {workers}")
        print(f"# {self.workload.command} seed={seed} workers={workers} exit={proc.exit_code} "
              f"wall_s={proc.wall_s:.4f} cpu_s={proc.cpu_s:.4f} "
              f"peak_rss_mb={proc.peak_rss_mb:.1f}", flush=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        return proc

    def record(self, reason: str | None, what: str) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
            print(f"# FAILED {what}: {reason}", flush=True)


def measure(script: str, *args: str) -> float:
    """Wall time of one run of a helper script of the benchmark; it must succeed."""
    proc = spawn([sys.executable, str(BENCH / script), *args], WORK / script)
    if proc.exit_code != 0:
        raise SystemExit(f"{script} failed: {proc.stderr.strip()[-300:]}")
    return proc.wall_s


def end_to_end(run: Run, seconds: float) -> dict:
    """Invoke the command back to back for ``seconds``; report medians.

    Before each invocation a set-up probe runs, then ``REFERENCE_RUNS``
    reference processes (``reference.py``).  The invocation is divided by
    the mean of those references, and the probe by the first of them:
    this host switches between speed states that stretch process start,
    imports and fresh pages, and the quotient cancels them.  One reference
    process alone varies by about 20% from run to run, hence the mean for
    the long invocation (NOTES.md).
    """
    config = str(run.workload.config_path or "-")
    setup_rel: list[float] = []
    refs: list[float] = []
    procs: list[Proc] = []
    start = time.perf_counter()
    while True:
        probe = measure("setup_probe.py", config, str(run.cli_seed(len(procs))))
        ref_walls = [measure("reference.py") for _ in range(REFERENCE_RUNS)]
        # the probe's own divisor is the reference right after it: two short
        # neighbouring processes see the same host state
        setup_rel.append(probe / ref_walls[0])
        refs.append(statistics.mean(ref_walls))
        procs.append(run.invoke(len(procs)))
        print(f"# set-up probe {probe:.4f} s, reference {refs[-1]:.4f} s", flush=True)
        elapsed = time.perf_counter() - start
        if len(procs) >= MIN_INVOCATIONS and elapsed * (1 + 1 / len(procs)) > seconds:
            break
    print(f"# invocations={len(procs)}; medians: wall_s={statistics.median(p.wall_s for p in procs):.4f} "
          f"cpu_s={statistics.median(p.cpu_s for p in procs):.4f} "
          f"reference_s={statistics.median(refs):.4f}")
    if run.workload.workers > 1:
        ratios = [p.cpu_s / p.wall_s for p in procs]
        print(f"# cpu_s/wall_s at --workers {run.workload.workers}: median "
              f"{statistics.median(ratios):.3f}")
    return {
        "wall_rel": (statistics.median(p.wall_s / r for p, r in zip(procs, refs)), "ratio"),
        "cpu_rel": (statistics.median(p.cpu_s / r for p, r in zip(procs, refs)), "ratio"),
        "setup_s": (REFERENCE_S * statistics.median(setup_rel), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in procs), "MB"),
    }


def trace_pass(run: Run, seed: int, traced: bool) -> dict:
    """One in-process pass of the command at --workers 1 (see trace_pass.py)."""
    w = run.workload
    out_dir = WORK / f"pass-{int(traced)}"
    argv = [sys.executable, str(BENCH / "trace_pass.py"), "--traced" if traced else "--untraced",
            "--out-dir", str(out_dir), "--", w.command,
            "--seed", str(seed), "--workers", "1"]
    if w.config_path is not None:
        argv += ["--config", str(w.config_path)]
    proc = spawn(argv, WORK / "pass-proc")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        shutil.rmtree(out_dir, ignore_errors=True)
        run.record(f"pass crashed: {proc.stderr.strip()[-300:]}", "trace pass")
        return {}
    # the command's own output, as a subprocess invocation would have left it
    cli_proc = dataclasses.replace(proc, exit_code=result["exit"], stdout="\n".join(lines[:-1]))
    golden = None if run.goldens is None else run.goldens[str(seed)]
    run.record(check(w, cli_proc, out_dir, golden, workers=1),
               f"{'traced' if traced else 'untraced'} pass, seed {seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def per_layer(run: Run) -> dict:
    """The traced pass: two traced runs, one untraced, and the CLI itself."""
    w = run.workload
    seed = run.cli_seed(0)
    cli = run.invoke(0)
    serial = run.invoke(0, workers=1) if w.workers > 1 else None
    untraced = trace_pass(run, seed, traced=False)
    passes = [trace_pass(run, seed, traced=True) for _ in range(2)]
    if not untraced or not all(passes):
        return {}
    problems = []
    counts = passes[0]["counts"]
    if counts != passes[1]["counts"]:
        diff = sorted(k for k in counts if counts[k] != passes[1]["counts"].get(k))
        problems.append(f"exact counts differ between traced passes: {diff}")
    traced = passes[0]["metrics"]
    problems += [f"{name} traced {traced[name][0]}, config gives {want}"
                 for name, want in w.expected_counts().items() if traced[name][0] != want]
    dead = [name for name in w.live if not traced[name][0]]
    if dead:
        problems.append(f"read 0, so a swapped name is no longer called: {dead}")
    run.record("; ".join(problems) or None, "count self-check")
    metrics = {}
    for name, (value, unit) in passes[0]["metrics"].items():
        if not isinstance(value, int):  # counts repeat; times are averaged
            value = (value + passes[1]["metrics"][name][0]) / 2.0
        metrics[name] = (value, unit)
    traced_wall = statistics.mean(p["wall_s"] for p in passes)
    overhead = traced_wall - untraced["wall_s"]
    steps = metrics["state_space.particle_steps"][0]
    metrics.update({
        "wall_s": (cli.wall_s, "s"),
        "cpu_s": (cli.cpu_s, "s"),
        "particle_steps_per_s": (steps / cli.wall_s if steps else 0.0, "1/s"),
        "harness.cpu_per_wall": (cli.cpu_s / cli.wall_s, "ratio"),
        "harness.pool_efficiency": (
            serial.wall_s / (w.workers * cli.wall_s) if serial else 0.0, "ratio"),
        "trace.untraced_wall_s": (untraced["wall_s"], "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_fraction": (overhead / untraced["wall_s"], "ratio"),
    })
    print(f"# tracing overhead {overhead:.4f} s ({overhead / untraced['wall_s']:.1%}) of "
          f"untraced {untraced['wall_s']:.4f} s; traced wall not covered by listed spans "
          f"{metrics['trace.unaccounted_s'][0]:.4f} s")
    if passes[0]["tail_percentile"] is not None:
        print(f"# harness.replicate_ms.tail is the p{passes[0]['tail_percentile']:g} "
              f"of {metrics['harness.replicates'][0]} replicates")
    self_s = passes[0]["self_s"]
    for name in sorted(self_s, key=self_s.get, reverse=True)[:6]:
        print(f"# self time {name:36s} {self_s[name]:9.4f} s "
              f"{self_s[name] / passes[0]['wall_s']:6.1%}")
    return metrics


def machine_record() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smclimits" / "cli.py").is_file():
        print(f"no smclimits sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        run = Run(workload, args.seed, load_goldens(workload))
        print(f"# machine: {machine_record()}")
        print(f"# workload {workload.name}: {workload.command} workers={workload.workers} "
              f"seed={args.seed} trace={args.trace}", flush=True)
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"# {name:44s} {value:18.6f} {unit}")
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"# failed_runs {len(run.failures)}/{run.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
