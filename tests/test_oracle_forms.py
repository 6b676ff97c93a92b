"""The oracle's ray-orbit forms over the lattice points of each dilate.

`alpha_oracle` evaluates one integer form per ray orbit over the lattice
points of k P.  A point outside k P gives some orbit section a negative
vanishing order, which the oracle must refuse rather than fold into the
threshold.  In full mode the anticanonical dp6 class has one ray orbit,
whose form is constant, so the check is reached in torus mode, where each
ray is its own orbit.  The oracle reads the points of each dilate once:
the `alpha-oracle` benchmark workload counts on `lattice_points` being
called once per k.
"""

from fractions import Fraction

import pytest
from helpers import counting

import kproper.alpha
from kproper.alpha import alpha_oracle, symmetry_context
from kproper.polytope import lattice_points
from kproper.rationals import GeometryError
from kproper.toric import ToricDivisor, dp6_fan


def anticanonical():
    return ToricDivisor(dp6_fan(), (Fraction(1),) * 6)


def with_outside_point(p, k=1):
    """The lattice points of k P and (k + 1, 0), which lies outside k P:
    on the ray (-1, 0) of the anticanonical class, <(k + 1, 0), (-1, 0)> + k = -1."""
    return lattice_points(p, k) + ((k + 1, 0),)


def test_a_point_outside_the_dilate_is_a_negative_vanishing_order(monkeypatch):
    monkeypatch.setattr(kproper.alpha, "lattice_points", with_outside_point)
    ctx = symmetry_context(anticanonical(), "torus")
    with pytest.raises(GeometryError, match="negative vanishing order"):
        alpha_oracle(ctx, 2)


@pytest.mark.parametrize("mode", ["full", "torus"])
def test_the_oracle_reads_each_dilate_once(monkeypatch, mode):
    ctx = symmetry_context(anticanonical(), mode)
    calls = []
    counting(monkeypatch, lattice_points, calls)
    alpha_oracle(ctx, 12)
    assert [args[1] for args in calls] == list(range(1, 13))
