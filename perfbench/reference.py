"""A fixed host-speed reference process that does not import smclimits.

Usage: ``python3 perfbench/reference.py``.  It starts Python, imports
numpy and fills and sums a 64 MB array.  Process start, imports and fresh
pages are what the host's slow states stretch, in the CLI and in this
process alike.  ``run.py`` times it next to every invocation and divides
by it.
"""

import numpy as np

np.random.default_rng(0).random(8_000_000).sum()
