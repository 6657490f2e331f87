"""One in-process pass of an ``smc-limits`` command, traced or not.

Usage::

    python3 perfbench/trace_pass.py --traced --out-dir DIR -- verify-clt --seed 1 ...

Runs ``smclimits.cli.main`` in this process.  With ``--traced`` it first
swaps module-level names of the smclimits modules (``harness.smc_run``,
``state_space.resample_indices``, ``cli.run_recursion``, ...) for timing
wrappers defined here; the library source is not edited and no span is
recorded inside it.  The last line of standard output is a JSON object:
the exit code, the wall time of ``cli.main``, and with ``--traced`` the
exact counts, the per-layer metrics and the self time of every span.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from smclimits import cli, harness, resampling, state_space, variance_oracle, verify

HOOKS = "trace.hooks"
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and exact counts recorded around calls into smclimits modules.

    A span is ``[name, start, end, parent index]``; spans are kept in
    memory and reduced when the pass ends.  Counting hooks run after the
    wrapped call returns, inside their own ``trace.hooks`` span, so their
    cost is not charged to the span that called the wrapped function.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.scheme_s: defaultdict = defaultdict(float)

    def call(self, name, fn, args, kwargs, hook=None):
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        if hook is not None:
            hook_span = [HOOKS, span[2], 0.0, parent]
            self.spans.append(hook_span)
            hook(span[2] - span[1], result, *args, **kwargs)
            hook_span[2] = perf_counter()
        return result

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        setattr(owner, attr, traced)

    def reduce(self) -> tuple[dict, dict, dict]:
        """Total time, self time and call count of every span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - covered
            calls[name] += 1
        return total, own, calls

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def install(tracer: Tracer) -> None:
    """Swap the module-level names the CLI path calls for timing wrappers."""
    counts = tracer.counts

    def on_smc_run(_, trace, *args, **kwargs):
        size = sum(r.paths.nbytes + r.weights.nbytes for r in trace.records)
        counts["state_space.trace_bytes"] = max(counts["state_space.trace_bytes"], size)

    def on_smc_init(_, trace, model, m, *args, **kwargs):
        counts["state_space.particle_steps"] += m

    def on_smc_step(_, trace, *args, **kwargs):
        prev, rec = trace.records[-2], trace.records[-1]
        m_in = prev.paths.shape[0]
        counts["state_space.particle_steps"] += m_in
        counts["state_space.steps"] += 1
        counts["state_space.resampled_steps"] += int(rec.resampled)
        # computed from array sizes: the hstack that extends every path and
        # the ancestor gather when selection fires
        copied = m_in * rec.step * rec.paths.itemsize
        if rec.resampled:
            copied += rec.paths.nbytes
        counts["state_space.path_bytes_copied"] += copied

    def on_resample(seconds, idx, weights, m_out, scheme, rng):
        counts[f"resampling.{scheme}.draws"] += m_out
        tracer.scheme_s[scheme] += seconds
        counts["resampling.distinct_ancestors"] += int(
            np.count_nonzero(np.bincount(idx, minlength=len(weights))))
        if scheme == resampling.RESIDUAL:
            alloc = resampling._residual_alloc(weights, float(np.sum(weights)), m_out)
            counts["resampling.residual.deterministic"] += alloc.m_bar

    def on_enumeration(_, result, scheme, sample, f_values, m_out):
        counts["enumeration.calls"] += 1
        if scheme == resampling.MULTINOMIAL:
            counts["enumeration.outcomes"] += sample.size ** m_out
        else:
            alloc = resampling._residual_alloc(sample.weights, sample.total, m_out)
            free = m_out - alloc.m_bar
            counts["enumeration.outcomes"] += sample.size ** free if free else 1

    def on_moments(*_args, **_kwargs):
        counts["resampling.moments_calls"] += 1

    def on_suite(_, report, *args, **kwargs):
        counts["verify.checks"] += report.get("n_checks", len(report.get("results", ())))

    def on_recursion(_, state, *args, **kwargs):
        counts["variance_oracle.path_cells"] += sum(s.psi.size for s in state.steps)

    def on_write(_, result, out_dir, name, *args, **kwargs):
        counts["cli.report_bytes"] += (Path(out_dir) / name).stat().st_size

    sample_type = verify.WeightedSample

    def counted_sample(*args, **kwargs):
        counts["weighted_sample.samples_built"] += 1
        return sample_type(*args, **kwargs)

    wrap = tracer.wrap
    wrap(cli, "build_experiment", "cli.build_experiment")
    wrap(cli, "run_replicates", "harness.run_replicates")
    wrap(cli, "clt_check", "harness.check")
    wrap(cli, "lln_check", "harness.check")
    wrap(cli, "run_recursion", "variance_oracle.run_recursion", on_recursion)
    wrap(cli, "_write_lines", "cli.report_write", on_write)
    wrap(cli, "_write_json", "cli.report_write", on_write)
    wrap(cli, "unbiasedness_suite", "verify.unbiasedness_suite", on_suite)
    wrap(cli, "variance_ordering_suite", "verify.variance_ordering_suite", on_suite)
    wrap(cli, "limit_weight_suite", "verify.limit_weight_suite", on_suite)
    wrap(harness, "smc_run", "harness.smc_run", on_smc_run)
    wrap(harness, "aggregate_rows", "harness.aggregate_rows")
    wrap(harness.ExperimentConfig, "truth", "harness.truth")
    wrap(state_space, "smc_init", "state_space.smc_init", on_smc_init)
    wrap(state_space, "smc_step", "state_space.smc_step", on_smc_step)
    wrap(state_space, "resample_indices", "resampling.resample_indices", on_resample)
    wrap(state_space, "cv2_of_weights", "weighted_sample.cv2_of_weights")
    wrap(state_space, "ess_of_weights", "weighted_sample.ess_of_weights")
    wrap(variance_oracle.VarianceRecursionState, "sigma2", "variance_oracle.sigma2")
    wrap(verify, "enumerated_moments", "enumeration.enumerated_moments", on_enumeration)
    wrap(verify, "conditional_mean", "resampling.conditional_moments", on_moments)
    wrap(verify, "conditional_variance", "resampling.conditional_moments", on_moments)
    verify.WeightedSample = counted_sample


def tail_percentile(n: int) -> float | None:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def per_layer_metrics(tracer: Tracer) -> tuple[dict, dict, float | None]:
    """The per-layer metrics (value, unit), every span's self time, the tail percentile."""
    total, own, calls = tracer.reduce()
    c = tracer.counts
    multi, resid = c["resampling.multinomial.draws"], c["resampling.residual.draws"]
    draws = multi + resid
    replicate_s = tracer.durations("harness.smc_run")
    tail = tail_percentile(len(replicate_s))

    def share(num, den):
        return num / den if den else 0.0

    metrics = {
        "state_space.smc_init_s": (total["state_space.smc_init"], "s"),
        "state_space.smc_step_s": (total["state_space.smc_step"], "s"),
        "state_space.step_self_s": (own["state_space.smc_step"], "s"),
        "state_space.particle_steps": (c["state_space.particle_steps"], "count"),
        "state_space.resample_fraction": (
            share(c["state_space.resampled_steps"], c["state_space.steps"]), "ratio"),
        "state_space.path_bytes_copied": (c["state_space.path_bytes_copied"], "bytes"),
        "state_space.trace_bytes": (c["state_space.trace_bytes"], "bytes"),
        "weighted_sample.diagnostics_s": (
            total["weighted_sample.cv2_of_weights"] + total["weighted_sample.ess_of_weights"], "s"),
        "weighted_sample.diagnostics_calls": (
            calls["weighted_sample.cv2_of_weights"] + calls["weighted_sample.ess_of_weights"],
            "count"),
        "weighted_sample.samples_built": (c["weighted_sample.samples_built"], "count"),
        "resampling.multinomial.draws": (multi, "count"),
        "resampling.multinomial.ns_per_draw": (
            share(tracer.scheme_s[resampling.MULTINOMIAL] * 1e9, multi), "ns"),
        "resampling.residual.draws": (resid, "count"),
        "resampling.residual.ns_per_draw": (
            share(tracer.scheme_s[resampling.RESIDUAL] * 1e9, resid), "ns"),
        "resampling.residual.deterministic_fraction": (
            share(c["resampling.residual.deterministic"], resid), "ratio"),
        "resampling.unique_ancestor_fraction": (
            share(c["resampling.distinct_ancestors"], draws), "ratio"),
        "resampling.moments_calls": (c["resampling.moments_calls"], "count"),
        "resampling.moments_s": (total["resampling.conditional_moments"], "s"),
        "enumeration.calls": (c["enumeration.calls"], "count"),
        "enumeration.s": (total["enumeration.enumerated_moments"], "s"),
        "enumeration.outcomes": (c["enumeration.outcomes"], "count"),
        "verify.unbiasedness_s": (total["verify.unbiasedness_suite"], "s"),
        "verify.ordering_s": (total["verify.variance_ordering_suite"], "s"),
        "verify.limit_weight_s": (total["verify.limit_weight_suite"], "s"),
        "verify.checks": (c["verify.checks"], "count"),
        "harness.replicates": (len(replicate_s), "count"),
        "harness.replicate_ms.p50": (
            percentile(replicate_s, 50.0) * 1e3 if replicate_s else 0.0, "ms"),
        "harness.replicate_ms.tail": (
            percentile(replicate_s, tail) * 1e3 if tail else 0.0, "ms"),
        "harness.overhead_s": (own["harness.run_replicates"], "s"),
        "harness.truth_s": (total["harness.truth"], "s"),
        "harness.check_s": (total["harness.check"], "s"),
        "harness.aggregate_s": (total["harness.aggregate_rows"], "s"),
        "variance_oracle.recursion_s": (total["variance_oracle.run_recursion"], "s"),
        "variance_oracle.sigma2_s": (total["variance_oracle.sigma2"], "s"),
        "variance_oracle.path_cells": (c["variance_oracle.path_cells"], "count"),
        "cli.report_write_s": (total["cli.report_write"], "s"),
        "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
        "trace.hooks_s": (total[HOOKS], "s"),
        "trace.unaccounted_s": (own[ROOT_SPAN], "s"),
    }
    self_s = {name: t for name, t in own.items() if name != ROOT_SPAN}
    return metrics, self_s, tail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--untraced", action="store_true")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = [a for a in args.cli_args if a != "--"] + ["--out-dir", args.out_dir]
    tracer = Tracer()
    if args.traced:
        install(tracer)
    exit_code = tracer.call(ROOT_SPAN, cli.main, (cli_args,), {})
    _, start, end, _ = tracer.spans[0]
    result = {"exit": exit_code, "wall_s": end - start}
    if args.traced:
        result["metrics"], result["self_s"], result["tail_percentile"] = per_layer_metrics(tracer)
        result["counts"] = {k: int(v) for k, v in sorted(tracer.counts.items())}
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
