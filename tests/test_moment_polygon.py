"""The moment polygon of an ample surface class, read off its cones, and
symmetry tests on integer-cleared vertices.

`moment_polytope` lists the vertices of an ample class's polygon as the cone
functionals in the angular order of the rays, and `volume`, `barycenter`
and `boundary_measure` read that cycle.  The references here are a fresh
polytope of the same half-planes (vertex enumeration and its own sort) and
the plain Fraction formulas, kept in this file.  The vertex-set symmetry
test (`preserves_vertices`, `fixed_subpolytope`) is checked against Fraction
matrix-vector products.
"""

from fractions import Fraction
from math import floor, gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from helpers import mat_vec  # noqa: E402
from test_wall_pairings import FANS, scalars  # noqa: E402

from kproper.alpha import _centered, _stabilizer_of  # noqa: E402
from kproper.polytope import (  # noqa: E402
    _order_ccw_2d,
    barycenter,
    boundary_measure,
    cleared_vertices,
    fixed_subpolytope,
    make_polytope,
    preserves_vertices,
    translate,
    vertices,
    volume,
)
from kproper.rationals import GeometryError, dot, transpose, vec_sub  # noqa: E402
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    dp6_fan,
    fan_automorphisms,
    is_ample,
    moment_polytope,
    wall_pairings,
)

F = Fraction

# one ample class per fan; a random class plus the least integer multiple
# of it that makes every wall pairing positive is ample
AMPLE = {
    "p2": (0, 0, 1),
    "dp6": (0, 0, 1, 2, 2, 1),
    "F2": (0, 0, 1, 1),
    "7-ray": (0, 1, 2, 3, 3, 1, 0),
}


@st.composite
def ample_divisors(draw):
    name = draw(st.sampled_from(sorted(FANS)))
    fan = FANS[name]
    raw = ToricDivisor(fan, draw(st.lists(scalars, min_size=fan.n_rays, max_size=fan.n_rays)))
    ample = ToricDivisor(fan, AMPLE[name])
    shift = max(
        floor(-p / q) + 1 for p, q in zip(wall_pairings(raw), wall_pairings(ample))
    )
    return raw + shift * ample


translations = st.tuples(
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
)


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def reference_area_and_centroid(cycle):
    """Area and centroid of a counterclockwise cycle, by Fraction
    triangulation from its first vertex."""
    base = cycle[0]
    area = F(0)
    acc = [F(0), F(0)]
    for a, b in zip(cycle[1:], cycle[2:]):
        part = cross(vec_sub(a, base), vec_sub(b, base)) / 2
        area += part
        for i in range(2):
            acc[i] += part * (base[i] + a[i] + b[i]) / 3
    return area, (acc[0] / area, acc[1] / area)


def fraction_cycle(p):
    """The polygon's recorded counterclockwise cycle, as Fraction points."""
    den, cycle = p._cycle_cache
    return tuple(tuple(F(x, den) for x in v) for v in cycle)


def lattice_length(d):
    """|d| over the primitive integer vector in its direction, read off one
    nonzero coordinate."""
    den = lcm(*(x.denominator for x in d))
    ints = tuple(int(x * den) for x in d)
    k = 0 if ints[0] != 0 else 1
    return abs(d[k] / F(ints[k] // gcd(*ints)))


@settings(max_examples=300, deadline=None)
@given(ample_divisors(), translations)
@example(ToricDivisor(dp6_fan(), (F(1),) * 6), (F(0), F(0)))
@example(ToricDivisor(dp6_fan(), (F(1), F(6, 5), F(1), F(6, 5), F(1), F(6, 5))), (F(1, 3), F(-2)))
def test_ample_polygon_from_cones_matches_enumeration(d, t):
    assert is_ample(d)
    p = moment_polytope(d)
    fresh = make_polytope(2, [(r, -a) for r, a in zip(d.fan.rays, d.coeffs)])
    assert p == fresh and fresh._cycle_cache is None
    assert vertices(p) == vertices(fresh)
    assert (volume(p), barycenter(p), boundary_measure(p)) == (
        volume(fresh), barycenter(fresh), boundary_measure(fresh)
    )

    cycle = fraction_cycle(p)
    n = len(cycle)
    assert n == d.fan.n_rays and set(cycle) == set(vertices(p))
    # positive orientation: every turn is a strict left turn
    for k in range(n):
        a, b, c = cycle[k], cycle[(k + 1) % n], cycle[(k + 2) % n]
        assert cross(vec_sub(b, a), vec_sub(c, b)) > 0
    # consecutive vertices lie on a common facet
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert any(dot(a, h.normal) == h.offset == dot(b, h.normal) for h in p.hrep)

    area, centroid = reference_area_and_centroid(_order_ccw_2d(list(vertices(fresh))))
    length = sum(
        (lattice_length(vec_sub(b, a)) for a, b in zip(cycle, cycle[1:] + cycle[:1])), F(0)
    )
    assert (volume(p), barycenter(p), boundary_measure(p)) == (area, centroid, length)

    moved = translate(p, t)
    assert fraction_cycle(moved) == tuple(tuple(x + y for x, y in zip(v, t)) for v in cycle)
    moved_fresh = make_polytope(2, [(h.normal, h.offset) for h in moved.hrep])
    assert vertices(moved) == vertices(moved_fresh)
    assert volume(moved) == volume(p)
    assert barycenter(moved) == tuple(c + s for c, s in zip(centroid, t))
    assert boundary_measure(moved) == boundary_measure(p)


def reference_preserves(g, verts) -> bool:
    gt = transpose(g)
    return {tuple(mat_vec(gt, v)) for v in verts} == set(verts)


@settings(max_examples=200, deadline=None)
@given(ample_divisors())
@example(ToricDivisor(dp6_fan(), (F(1),) * 6))
@example(ToricDivisor(dp6_fan(), (F(1), F(6, 5), F(1), F(6, 5), F(1), F(6, 5))))
def test_integer_symmetry_test_matches_fractions(d):
    centered, cls = _centered(d)
    autos = fan_automorphisms(d.fan)
    for polygon in (centered, moment_polytope(d)):
        verts = vertices(polygon)
        cleared = cleared_vertices(polygon)
        for g in autos:
            assert preserves_vertices(g, cleared) == reference_preserves(g, verts)
    stabilizer = _stabilizer_of(d.fan, cls.nums)
    verts = vertices(centered)
    assert stabilizer == tuple(g for g in autos if reference_preserves(g, verts))
    fixed = fixed_subpolytope(centered, stabilizer)
    for v in vertices(fixed):
        assert all(dot(v, hs.normal) >= hs.offset for hs in centered.hrep)
        assert all(tuple(mat_vec(transpose(g), v)) == v for g in stabilizer)
    for g in autos:
        if g not in stabilizer:
            with pytest.raises(GeometryError, match="does not preserve"):
                fixed_subpolytope(centered, [g])


def test_a_non_preserving_element_raises():
    # at lambda = 6/5 the rotation u_i -> u_{i+1} is a fan automorphism that
    # swaps the two ray triples, so it does not fix the class
    d = ToricDivisor(dp6_fan(), (F(1), F(6, 5), F(1), F(6, 5), F(1), F(6, 5)))
    centered, _ = _centered(d)
    rotation = ((1, -1), (1, 0))
    assert rotation in fan_automorphisms(d.fan)
    assert not reference_preserves(rotation, vertices(centered))
    assert not preserves_vertices(rotation, cleared_vertices(centered))
    with pytest.raises(GeometryError, match="does not preserve"):
        fixed_subpolytope(centered, [rotation])
