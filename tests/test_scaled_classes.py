"""Scaled classes: a product against the class built from scratch, the
checker's scale invariance, and the integer wall table against the
Fraction one.

t * d, for an ample surface class d and t > 0, must be the class built
from the rationals t a_i, with the same stored integers, walls and wall
table and none of d's caches; its moment polygon is t P_D.  A class that
is not ample falls back to vertex enumeration, which gives t P_D too.

The criterion does not change when the class is scaled: for t > 0,
alpha(t L) = alpha(L) / t and mu(t L) = mu(L) / t, so the checker on
(t L, epsilon) and on (L, epsilon t) decides the same conditions, with the
same bindings and margins for (2) and (3).  A feasibility probe's midpoint
check rests on this: it certifies the scale mid by checking L_lambda at
slack epsilon mid.  The classes are ample classes on p2 and dp6, with
their stabilizer alpha, and ample classes on blowups of P^2 at 3 to 8
points, with a supplied alpha.

`wall_table` reads a class's integers (N, N a) and walls N D.D_i directly;
the reference is the Fraction table of its wall pairings, computed from
the cone functionals in test_wall_pairings.py, cleared by constraint_table.
"""

from fractions import Fraction
from math import floor

import pytest

pytest.importorskip("hypothesis")
from helpers import anticanonical  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_wall_pairings import divisors, reference_wall_pairings  # noqa: E402

from kproper.picard import BlowupSurface, curve_table  # noqa: E402
from kproper.polytope import barycenter, boundary_measure, vertices, volume  # noqa: E402
from kproper.properness import (  # noqa: E402
    StabilizerAlpha,
    SuppliedAlpha,
    check_properness,
    resolve_alpha,
)
from kproper.rationals import clear_denominators, constraint_table  # noqa: E402
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    _cleared_walls,
    canonical_divisor,
    dp6_fan,
    is_ample,
    moment_polytope,
    p2_fan,
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
    # d's caches are filled first; the product must not carry them
    moment_polytope(d)
    sc, plain = t * d, ToricDivisor(d.fan, [t * a for a in d.coeffs])
    assert sc == plain and hash(sc) == hash(plain) and repr(sc) == repr(plain)
    assert sc._walls is None and sc._polygon is None and sc._table is None
    # the least N, as clearing t d's own coefficients gives it
    assert (sc.den, sc.nums) == clear_denominators(plain.coeffs)
    assert _cleared_walls(sc) == _cleared_walls(fresh(plain))
    assert wall_table(sc) == wall_table(fresh(plain))
    # an equal class may have left its own polygon in the cache
    moment_polytope.cache_clear()
    polygon, built, base = moment_polytope(sc), from_scratch(plain), from_scratch(d)
    assert polygon is sc._polygon
    assert polygon.hrep == built.hrep
    # P_{tD} = t P_D
    assert set(vertices(polygon)) == set(vertices(built)) == {
        tuple(t * x for x in v) for v in vertices(base)}
    assert volume(polygon) == volume(built) == t * t * volume(base)
    assert boundary_measure(polygon) == boundary_measure(built) == t * boundary_measure(base)
    assert barycenter(polygon) == barycenter(built) == tuple(t * x for x in barycenter(base))


@pytest.mark.parametrize("coeffs", [(1, 2, 1, 2, 1, 2), (1, 0, 0, 0, 0, 0), (-1,) * 6])
def test_a_class_that_is_not_ample_falls_back(coeffs):
    d = ToricDivisor(dp6_fan(), coeffs)
    assert not is_ample(d)
    sc = F(3, 2) * d
    assert sc._polygon is None
    # the polygon of a nef class comes from vertex enumeration, and is 3/2 P_D
    assert moment_polytope(sc) == from_scratch(sc)
    assert set(vertices(moment_polytope(sc))) == {
        tuple(F(3, 2) * x for x in v) for v in vertices(from_scratch(d))}


# ---------------------------------------------------------------------------
# the checker is scale invariant

positive = st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20)


@st.composite
def ample_picard_classes(draw):
    """A random class on the blowup of P^2 at 3 to 8 points, plus the least
    integer multiple of -K that makes every pairing with a cone curve
    positive: -K.C = 1 on each of them."""
    surface = BlowupSurface(draw(st.integers(3, 8)))
    raw = surface.cls(draw(st.lists(coefficients, min_size=surface.rank,
                                    max_size=surface.rank)))
    table = curve_table(raw)
    shift = max(floor(F(-x, table.den)) + 1 for x in table.nums)
    return raw + shift * anticanonical(surface)


@st.composite
def ample_classes_with_alpha(draw):
    """(L, alpha): an ample toric class with its stabilizer alpha, or an
    ample Picard class with a drawn alpha."""
    if draw(st.booleans()):
        d = draw(ample_classes())
        return d, resolve_alpha(d, StabilizerAlpha())[0]
    return draw(ample_picard_classes()), draw(positive)


@settings(max_examples=150, deadline=None)
@given(ample_classes_with_alpha(), scales, positive)
@example((ToricDivisor(dp6_fan(), (1, F(6, 5)) * 3), F(5, 6)), F(2, 3), F(1))
@example((BlowupSurface(8).cls((3,) + (1,) * 7 + (F(1, 2),)), F(2, 3)), F(7, 4), F(1))
def test_the_checker_is_scale_invariant(case, t, epsilon):
    # alpha(t L) = alpha(L) / t and mu(t L) = mu(L) / t, so (t L, epsilon)
    # and (L, epsilon t) ask the same conditions of the same classes
    d, alpha = case
    scaled_report = check_properness(t * d, epsilon, SuppliedAlpha(alpha / t))
    report = check_properness(d, epsilon * t, SuppliedAlpha(alpha))
    assert [c.holds for c in scaled_report.conditions] == [c.holds for c in report.conditions]
    for scaled_condition, condition in zip(scaled_report.conditions[1:], report.conditions[1:]):
        assert scaled_condition.binding == condition.binding
        assert scaled_condition.values["margin"] == condition.values["margin"]
    assert t * scaled_report.mu == report.mu
    if isinstance(d, ToricDivisor):
        assert resolve_alpha(t * d, StabilizerAlpha())[0] == alpha / t


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
