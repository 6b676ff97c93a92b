"""A scaled toric class against the same class built from scratch, and the
integer wall table against the Fraction one.

`toric.scaled(d, t)` builds t d for an ample surface class d and t > 0 as
the plain product, from d's stored integers, and carries d's moment
polygon, whose integer cycle scales with t (P_{tD} = t P_D).  Built from
scratch, t * d solves its own cone functionals.  The two must be the same
class, with the same stored integers, walls, wall table, polygon and check
report; any other class or t gets the plain product alone.

`wall_table` reads a class's integers (N, N a) and walls N D.D_i directly;
the reference is the Fraction table of its wall pairings, computed from
the cone functionals in test_wall_pairings.py, cleared by constraint_table.
"""

from fractions import Fraction
from math import floor

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_wall_pairings import divisors, reference_wall_pairings  # noqa: E402

from kproper.cli import render_report  # noqa: E402
from kproper.polytope import barycenter, boundary_measure, vertices, volume  # noqa: E402
from kproper.properness import StabilizerAlpha, check_properness  # noqa: E402
from kproper.rationals import GeometryError, clear_denominators, constraint_table  # noqa: E402
from kproper.toric import (  # noqa: E402
    Fan,
    ToricDivisor,
    _cleared_walls,
    canonical_divisor,
    dp6_fan,
    is_ample,
    moment_polytope,
    p2_fan,
    scaled,
    wall_pairings,
    wall_table,
)

F = Fraction

# one ample class per fan: a random class plus the least integer multiple of
# it that makes every wall pairing positive is ample
FANS = {"p2": (p2_fan(), (1, 1, 1)), "dp6": (dp6_fan(), (1, 1, 1, 1, 1, 1))}

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=40)
# mixed denominators, and numerators that share factors with them
scales = st.one_of(
    st.fractions(min_value=F(1, 300), max_value=50, max_denominator=300),
    st.sampled_from([F(1), F(2), F(1, 6), F(6, 5), F(35, 12), F(12, 35)]),
)


@st.composite
def ample_classes(draw):
    fan, anchor = FANS[draw(st.sampled_from(sorted(FANS)))]
    raw = ToricDivisor(fan, draw(st.lists(coefficients, min_size=fan.n_rays,
                                          max_size=fan.n_rays)))
    ample = ToricDivisor(fan, anchor)
    shift = max(floor(-p / q) + 1 for p, q in zip(wall_pairings(raw), wall_pairings(ample)))
    return raw + shift * ample


def fresh(d: ToricDivisor) -> ToricDivisor:
    """The same class with every cache empty."""
    return ToricDivisor(d.fan, d.coeffs)


def from_scratch(d: ToricDivisor):
    """d's moment polygon, built from its own cone functionals, past the cache."""
    return moment_polytope.__wrapped__(fresh(d))


@settings(max_examples=300, deadline=None)
@given(ample_classes(), scales)
@example(ToricDivisor(dp6_fan(), (1, F(6, 5)) * 3), F(2, 3))
@example(ToricDivisor(p2_fan(), (F(1, 2), F(1, 3), F(1, 6))), F(6))
def test_a_scaled_class_is_the_class_built_from_scratch(d, t):
    sc, plain = scaled(d, t), t * d
    assert sc == plain and hash(sc) == hash(plain) and repr(sc) == repr(plain)
    # the least N, as clearing t d's own coefficients gives it
    assert (sc.den, sc.nums) == clear_denominators(plain.coeffs)
    assert _cleared_walls(sc) == _cleared_walls(fresh(plain))
    assert wall_table(sc) == wall_table(fresh(plain))
    # an equal class may have left its own polygon in the cache
    moment_polytope.cache_clear()
    carried, built = moment_polytope(sc), from_scratch(plain)
    assert carried is sc._polygon
    assert carried.hrep == built.hrep
    assert set(vertices(carried)) == set(vertices(built))
    assert volume(carried) == volume(built) == t * t * volume(from_scratch(d))
    assert boundary_measure(carried) == boundary_measure(built)
    assert barycenter(carried) == barycenter(built)


@settings(max_examples=60, deadline=None)
@given(ample_classes(), scales, st.fractions(min_value=F(1, 20), max_value=3,
                                             max_denominator=20))
def test_a_scaled_class_gives_the_same_check_report(d, t, epsilon):
    def report(backend):
        moment_polytope.cache_clear()
        return render_report(check_properness(backend, epsilon, StabilizerAlpha("full")))

    assert report(scaled(d, t)) == report(fresh(t * d))


@pytest.mark.parametrize("t", [F(0), F(-1), F(-2, 3)])
def test_a_scale_that_is_not_positive_falls_back(t):
    d = ToricDivisor(dp6_fan(), (1, F(6, 5)) * 3)
    moment_polytope(d)
    sc = scaled(d, t)
    assert sc == t * d
    assert sc._walls is None and sc._polygon is None and sc._table is None


@pytest.mark.parametrize("coeffs", [(1, 2, 1, 2, 1, 2), (1, 0, 0, 0, 0, 0), (-1,) * 6])
def test_a_class_that_is_not_ample_falls_back(coeffs):
    d = ToricDivisor(dp6_fan(), coeffs)
    assert not is_ample(d)
    sc = scaled(d, F(3, 2))
    assert sc == F(3, 2) * d and sc._polygon is None
    # the polygon of a nef class comes from vertex enumeration, as before
    assert moment_polytope(sc) == from_scratch(sc)


def test_a_class_on_a_singular_fan_is_refused():
    # the weighted plane P(1, 1, 2): the cone of (0, 1) and (-1, -2) has determinant 1,
    # the cone of (-1, -2) and (1, 0) determinant 2
    fan = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(GeometryError, match="smooth complete fan"):
        scaled(ToricDivisor(fan, (0, 0, 1)), 2)


@settings(max_examples=300, deadline=None)
@given(divisors())
@example(ToricDivisor(dp6_fan(), (F(1, 2),) * 6))
@example(ToricDivisor(dp6_fan(), (0,) * 6))
def test_the_integer_wall_table_is_the_fraction_table(d):
    labels, order = zip(*sorted((f"wall at ray {i}", i) for i in range(d.fan.n_rays)))
    walls = reference_wall_pairings(d)
    k_walls = reference_wall_pairings(canonical_divisor(d.fan))
    # L^2 = sum a_i (L.D_i) and K.L = -sum L.D_i
    l_sq = sum(a * w for a, w in zip(d.coeffs, walls))
    expected = constraint_table(labels, [walls[i] for i in order], [k_walls[i] for i in order],
                                l_sq, -sum(walls))
    assert wall_table(d) == expected
