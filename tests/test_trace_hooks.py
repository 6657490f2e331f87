"""The benchmark's traced pass still sees every filter step of the CLI path.

``perfbench/trace_pass.py`` swaps module-level names of smclimits
(``state_space.smc_init``, ``state_space.smc_step``, ``cli.run_recursion``,
...) for timing wrappers.  A call that stops going through those names
drops out of the per-layer metrics without any error, so one traced pass
per filter workload runs here at toy size and its exact particle-step
count is checked against the config: the sum over particle counts of
m * horizon * replicates.  The counts read from the records each filter
step leaves (trace and path bytes) and from the oracle's steps (cells)
must be seen as well, and on ``clt-small`` the oracle's timed calls: the
benchmark marks that workload incorrect when ``run_recursion`` or
``sigma2`` reads 0 s.  The ``verify-resampling`` pass runs on the
built-in config; its check, enumeration, moment and sample counts are all
fixed by the suites' sizes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


@pytest.mark.parametrize(
    "command, workload, experiment, particle_steps, seen, timed",
    [
        pytest.param(
            "verify-clt", "clt-small.json", {"m_list": [64], "replicates": 200},
            64 * 4 * 200, ("variance_oracle.path_cells",),
            ("variance_oracle.recursion_s", "variance_oracle.sigma2_s"), id="clt-small",
        ),
        pytest.param(
            "verify-lln", "lln-long.json",
            {"m_list": [16, 32, 64, 256], "replicates": 4, "horizon": 10},
            (16 + 32 + 64 + 256) * 10 * 4, (), (), id="lln-long",
        ),
    ],
)
def test_traced_pass_counts_every_particle_step(
    tmp_path, command, workload, experiment, particle_steps, seen, timed
):
    cfg = json.loads((BENCH / "workloads" / workload).read_text())
    cfg["experiment"].update(experiment)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    result = _traced_pass(tmp_path, command, "--config", str(cfg_path))
    assert result["exit"] in (0, 1)
    counts = result["counts"]
    assert counts["state_space.particle_steps"] == particle_steps
    for name in ("state_space.trace_bytes", "state_space.path_bytes_copied") + seen:
        assert counts.get(name, 0) > 0, name
    for name in timed:
        value, unit = result["metrics"][name]
        assert unit == "s" and value > 0, name


def test_traced_pass_sees_the_resampling_suites(tmp_path):
    result = _traced_pass(tmp_path, "verify-resampling")
    assert result["exit"] == 0
    counts = result["counts"]
    # 7024 unbiasedness checks, 100 ordering cases, 3 limit-weight ratios
    assert counts["verify.checks"] == 7024 + 100 + 3
    # one sample per weight vector: 20 adversarial and 200 random unbiasedness
    # vectors at m <= 4, 100 ordering cases and the limit-weight sample
    assert counts["weighted_sample.samples_built"] == 321
    # one enumeration per (vector, output size, scheme): 220 * 4 * 2
    assert counts["enumeration.calls"] == 1760
    # a mean and a variance per enumeration, two variances per ordering case
    # and one per limit-weight ratio
    assert counts["resampling.moments_calls"] == 3723


def _traced_pass(tmp_path, *cli_args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_pass.py"), "--traced",
         "--out-dir", str(tmp_path / "out"), "--", *cli_args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])
