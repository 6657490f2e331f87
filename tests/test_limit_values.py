"""The residual limit quantities take phi and f as their values at the atoms.

``DiscreteDistribution.expect``, ``point_values``,
``residual_regularity_check`` and ``residual_deterministic_limit`` take
arrays in atom order.  Each must give exactly (``==``) what the callable
formulas gave, kept verbatim below as references.  Up to 12 atoms are
drawn: from 8 terms on, a left-to-right sum and ``np.sum`` can differ in
the last bit, so the references hold ``expect`` to its summation order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smclimits import (
    DiscreteDistribution,
    residual_deterministic_limit,
    residual_regularity_check,
)
from smclimits.resampling import point_values


def reference_expect(dist, f):
    return float(sum(p * f(v) for v, p in dist.atoms))


def reference_point_values(dist, ell, phi):
    inv_phi = reference_expect(dist, lambda v: 1.0 / phi(v))
    return np.array([ell * inv_phi * phi(v) for v in dist.values])


def reference_regularity_check(dist, ell, phi, tol=1e-9):
    if math.isinf(ell):
        return False
    xs = reference_point_values(dist, ell, phi)
    for x, p in zip(xs, dist.probabilities):
        if p == 0.0:
            continue
        if math.isinf(x) or abs(x - round(x)) <= tol:
            return False
    return True


def reference_deterministic_limit(dist, ell, phi, f):
    if not reference_regularity_check(dist, ell, phi):
        raise ValueError("atomic integer mass: the deterministic part has no limit")
    xs = reference_point_values(dist, ell, phi)
    probs = dist.probabilities
    vals = np.array([f(v) for v in dist.values], dtype=float)
    return float(np.sum(probs * vals * np.floor(xs) / xs))


def _outcome(fn, *args):
    """The value, or the message of the ValueError raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 12))
    values = draw(
        st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n, unique=True)
    )
    raw = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n)
    )
    if sum(raw) == 0.0:
        raw[0] = 1.0
    probs = np.array(raw) / sum(raw)
    dist = DiscreteDistribution(list(zip(values, probs.tolist())))
    # phi is the identity, as in the limit-weight suite, or any positive table
    if draw(st.booleans()):
        phi_values = list(values)
    else:
        phi_values = draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n))
    f_values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    ell = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0, math.inf]), st.floats(0.1, 5.0)))
    return dist, phi_values, f_values, ell


class TestArrayFormsAreTheCallableFormulas:
    @settings(max_examples=400, deadline=None)
    @given(case=_cases())
    def test_each_function_equals_its_reference(self, case):
        dist, phi_values, f_values, ell = case
        phi = dict(zip(dist.values, phi_values)).__getitem__
        f = dict(zip(dist.values, f_values)).__getitem__
        assert dist.expect(f_values) == reference_expect(dist, f)
        assert dist.expect(np.array(phi_values)) == reference_expect(dist, phi)
        assert (
            point_values(dist, ell, phi_values).tolist()
            == reference_point_values(dist, ell, phi).tolist()
        )
        assert residual_regularity_check(
            dist, ell, phi_values
        ) == reference_regularity_check(dist, ell, phi)
        assert _outcome(
            residual_deterministic_limit, dist, ell, phi_values, f_values
        ) == _outcome(reference_deterministic_limit, dist, ell, phi, f)


class TestLengthChecks:
    def test_a_wrong_length_is_rejected(self):
        dist = DiscreteDistribution([(0.8, 0.2), (0.9, 0.3), (1.5, 0.5)])
        for short in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
            with pytest.raises(ValueError, match="one per atom"):
                dist.expect(short)
            with pytest.raises(ValueError, match="one per atom"):
                point_values(dist, 1.0, short)
            with pytest.raises(ValueError, match="one per atom"):
                residual_regularity_check(dist, 1.0, short)
            with pytest.raises(ValueError, match="one per atom"):
                residual_deterministic_limit(dist, 1.0, short, dist.values)
        with pytest.raises(ValueError, match="one per atom"):
            residual_deterministic_limit(dist, 1.0, dist.values, [1.0, 2.0, 3.0, 4.0])
