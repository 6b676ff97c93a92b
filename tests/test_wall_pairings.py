"""Surface ampleness from wall pairings against cone-functional concavity.

On a smooth complete toric surface, D is ample (nef) iff every wall
pairing D . D_i is positive (nonnegative): the toric Kleiman criterion.
The references below are the cone-by-cone concavity test of the support
function and the jump of the support function across each wall, both
computed from the cone functionals with solve_exact and never from the
wall relation, so they check `is_ample`, `is_nef`, the wall pairings
behind `intersection_number` and the toric branch of `_combo_positive`
independently.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.properness import _combo_positive  # noqa: E402
from kproper.rationals import dot, solve_exact  # noqa: E402
from kproper.toric import (  # noqa: E402
    Fan,
    ToricDivisor,
    canonical_divisor,
    dp6_fan,
    intersection_number,
    is_ample,
    is_nef,
    p2_fan,
    validate_fan,
)

F = Fraction


def hirzebruch_f2_fan() -> Fan:
    rays = ((1, 0), (0, 1), (-1, 2), (0, -1))
    return Fan(2, rays, ((0, 1), (1, 2), (2, 3), (0, 3)))


def seven_ray_fan() -> Fan:
    """The hexagonal fan blown up once more, at the cone of (0,-1), (1,0)."""
    rays = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
    return Fan(2, rays, tuple((i, (i + 1) % 7) for i in range(7)))


FANS = {
    "p2": p2_fan(),
    "dp6": dp6_fan(),
    "F2": hirzebruch_f2_fan(),
    "7-ray": seven_ray_fan(),
}

# small integers make boundary cases (zero pairings) common
scalars = st.one_of(
    st.integers(-3, 6).map(F),
    st.fractions(min_value=-10, max_value=10, max_denominator=60),
)


@st.composite
def divisors(draw):
    fan = FANS[draw(st.sampled_from(sorted(FANS)))]
    return ToricDivisor(fan, draw(st.lists(scalars, min_size=fan.n_rays, max_size=fan.n_rays)))


def cone_functional(d, cone):
    return solve_exact(d.fan.cone_matrix(cone), tuple(-d.coeffs[i] for i in cone))


def reference_positivity(d, strict):
    """Concavity of the support function, checked cone by cone."""
    for cone in d.fan.max_cones:
        m = cone_functional(d, cone)
        for j, ray in enumerate(d.fan.rays):
            if j in cone:
                continue
            value = dot(m, ray) + d.coeffs[j]
            if value < 0 or (strict and value == 0):
                return False
    return True


def reference_wall_pairings(d):
    """D . D_i as the jump of the support function across the wall u_i:
    with the cones (i, j) and (i, k), the functional of (i, j) evaluated
    at u_k, plus a_k."""
    out = []
    for i in range(d.fan.n_rays):
        first, second = (c for c in d.fan.max_cones if i in c)
        (k,) = set(second) - {i}
        out.append(dot(cone_functional(d, first), d.fan.rays[k]) + d.coeffs[k])
    return tuple(out)


def test_extra_fans_are_smooth_and_complete():
    for fan in FANS.values():
        check = validate_fan(fan)
        assert check.smooth and check.complete


@settings(max_examples=400, deadline=None)
@given(divisors())
@example(ToricDivisor(dp6_fan(), (F(1),) * 6))
@example(ToricDivisor(dp6_fan(), (F(1), F(1, 2), F(1), F(1, 2), F(1), F(1, 2))))
@example(ToricDivisor(hirzebruch_f2_fan(), (F(0), F(0), F(0), F(1))))
@example(ToricDivisor(hirzebruch_f2_fan(), (F(0), F(0), F(0), F(3))))
def test_wall_test_matches_concavity(d):
    n = d.fan.n_rays
    walls = [ToricDivisor(d.fan, tuple(F(int(j == i)) for j in range(n))) for i in range(n)]
    assert tuple(intersection_number(d, w) for w in walls) == reference_wall_pairings(d)
    assert is_ample(d) == reference_positivity(d, strict=True)
    assert is_nef(d) == reference_positivity(d, strict=False)


@settings(max_examples=200, deadline=None)
@given(divisors(), scalars, scalars, st.booleans())
@example(ToricDivisor(dp6_fan(), tuple(map(F, (2, 2, 2, 2, 1, 2)))), F(1), F(1), True)
def test_combo_positive_is_one_wall_pass(d, x, y, strict):
    combo = x * d + y * canonical_divisor(d.fan)
    pairings = reference_wall_pairings(combo)
    # ties go to the smaller label string, as in min over (value, label)
    margin, binding = min((p, f"wall at ray {i}") for i, p in enumerate(pairings))
    expected = (reference_positivity(combo, strict), binding, margin)
    assert _combo_positive(d, x, y, strict) == expected
