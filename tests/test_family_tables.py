"""The family body on toric pencils against the class-by-class path.

A `Family` of either backend has one `is_ample_at`, one mu and
one set of integer forms, all read off the constraint tables of L_0 = base,
L_1 = base + slope and the slope class.  On random pencils L_lambda = B +
lambda S over the fans of test_wall_pairings.py they must agree with
`is_ample` and `slope_quantities` on the class itself, and the forms must
be one positive multiple of (B^2, 2 B.S, S^2, K.B, K.S) from
`intersection_number`.  A pair of classes from two backends, fans or
surfaces is no family.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from helpers import anticanonical, family_mu  # noqa: E402
from test_toric import p1_cubed_fan  # noqa: E402
from test_wall_pairings import FANS  # noqa: E402

from kproper.properness import (  # noqa: E402
    Family,
    dp6_family,
    feasible_scale_interval,
)
from kproper.picard import BlowupSurface  # noqa: E402
from kproper.rationals import GeometryError, ValidationError  # noqa: E402
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    canonical_divisor,
    intersection_number,
    is_ample,
    slope_quantities,
)

F = Fraction

# one ample class per fan; pencils start near it so that many probes are ample
AMPLE = {"p2": (0, 0, 1), "dp6": (0, 0, 1, 2, 2, 1), "F2": (0, 0, 1, 1),
         "7-ray": (0, 1, 2, 3, 3, 1, 0)}

small = st.fractions(min_value=-1, max_value=1, max_denominator=12)
lambdas = st.fractions(min_value=-1, max_value=1, max_denominator=60)


@st.composite
def toric_pencils(draw):
    name = draw(st.sampled_from(sorted(FANS)))
    fan = FANS[name]
    shift = draw(st.lists(small, min_size=fan.n_rays, max_size=fan.n_rays))
    base = tuple(F(a) + s / 4 for a, s in zip(AMPLE[name], shift))
    slope = tuple(draw(st.lists(small, min_size=fan.n_rays, max_size=fan.n_rays)))
    return Family("random", ToricDivisor(fan, base), ToricDivisor(fan, slope))


def reference_forms(family):
    b, s, k = family.base, family.slope, canonical_divisor(family.base.fan)
    return (
        intersection_number(b, b), 2 * intersection_number(b, s), intersection_number(s, s),
        intersection_number(k, b), intersection_number(k, s),
    )


@settings(max_examples=150, deadline=None)
@given(toric_pencils(), lambdas)
@example(dp6_family(), F(1))
@example(dp6_family(), F(1, 2))
@example(Family("F2", ToricDivisor(FANS["F2"], (0, 0, 1, 1)),
                ToricDivisor(FANS["F2"], (0, 0, 0, -1))), F(1))
def test_shared_family_body_matches_the_class(family, lam):
    cls = family.class_at(lam)
    ample = is_ample(cls)
    assert family.is_ample_at(lam) == ample
    if ample:
        assert family_mu(family, lam) == slope_quantities(cls).mu
    expected = reference_forms(family)
    # the first nonzero entry fixes the multiplier
    i = next(i for i, x in enumerate(expected) if x)
    multiplier = family.forms[i] / expected[i]
    assert multiplier > 0
    assert family.forms == tuple(multiplier * x for x in expected)


@settings(max_examples=60, deadline=None)
@given(toric_pencils())
def test_family_rows_are_the_distinct_walls_under_their_first_label(family):
    fan = family.base.fan
    classes = (family.base, family.slope, canonical_divisor(fan))
    walls = {}
    for i in range(fan.n_rays):
        wall = ToricDivisor(fan, tuple(F(int(j == i)) for j in range(fan.n_rays)))
        walls[f"wall at ray {i}"] = tuple(intersection_number(c, wall) for c in classes)
    first = {}
    # ties between walls go to the smaller label string
    for label in sorted(walls):
        first.setdefault(walls[label], label)
    labels, rows = family.pairing_data
    assert labels == tuple(first.values())
    pairs = [(x, y) for label, row in zip(labels, rows) for x, y in zip(row, walls[label])]
    assert all((x == 0) == (y == 0) for x, y in pairs)
    scales = {x / y for x, y in pairs if y}
    assert len(scales) == 1 and scales.pop() > 0


def test_threefold_family_is_not_a_surface_family():
    fan = p1_cubed_fan()
    family = Family("P1^3", ToricDivisor(fan, (1,) * 6), ToricDivisor(fan, (0,) * 6))
    with pytest.raises(GeometryError, match="surfaces only"):
        feasible_scale_interval(family, F(1))


def test_a_family_needs_two_classes_of_one_backend():
    hexagon = ToricDivisor(FANS["dp6"], (1,) * 6)
    triangle = ToricDivisor(FANS["p2"], (1,) * 3)
    dp1, dp3 = anticanonical(BlowupSurface(8)), anticanonical(BlowupSurface(6))
    for base, slope in ((hexagon, dp1), (dp1, hexagon), (hexagon, triangle), (dp1, dp3)):
        with pytest.raises(ValidationError):
            Family("mixed", base, slope)
