"""The package's public surface."""

import smclimits


def test_every_exported_name_resolves():
    namespace = {}
    exec("from smclimits import *", namespace)  # raises on a name the package lacks
    assert set(smclimits.__all__) <= set(namespace)
