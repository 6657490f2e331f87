"""Set-up only: import smclimits, build a workload's experiment and its truth.

Usage: ``python3 perfbench/setup_probe.py <config.json or -> <seed>``
(``-`` selects the built-in config).  Runs no replicate; ``run.py`` times
the whole process as the workload's ``setup_s``.
"""

import sys

from smclimits.cli import build_experiment, load_config

config_path, seed = sys.argv[1], int(sys.argv[2])
experiment = build_experiment(load_config(None if config_path == "-" else config_path), seed)
for fn in experiment.functions:
    experiment.truth(fn)
