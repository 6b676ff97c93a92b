"""Recentring an ample class in integers, and the plane vertex-set test.

`alpha._centered` builds the centred polytope of a surface class from the
recentred coefficients: the class's stored (N, N a) and the integer
centroid of its moment cycle give a' over M, returned as one ToricDivisor,
and the half-planes and the shifted cycle are read off them.  Threefolds
translate by the same cleared shift.  The reference is the Fraction route,
P translated by minus its barycenter.  `preserves_vertices` has its own
body for 2x2 matrices, which must agree with the general loop, reached
here by embedding the plane in three dimensions.
"""

from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from helpers import counting  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_integer_oracle import threefold_classes  # noqa: E402
from test_moment_polygon import ample_divisors  # noqa: E402

from kproper.alpha import _centered, alpha_invariant, symmetry_context  # noqa: E402
from kproper.polytope import (  # noqa: E402
    barycenter,
    cleared_barycenter,
    integer_vertices,
    preserves_vertices,
    translate,
    vertices,
)
from kproper.rationals import clear_denominators, dot  # noqa: E402
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    dp6_fan,
    fan_automorphisms,
    is_ample,
    moment_polytope,
    p2_fan,
)

F = Fraction

DP6_FIXED_LINE = ToricDivisor(dp6_fan(), (F(2, 7),) * 3 + (F(4, 7), F(6, 7), F(6, 7)))
P2_TORUS = ToricDivisor(p2_fan(), (F(1, 3), F(2, 7), F(5)))


def fraction_cycle(p):
    """The vertices of p in their integer order, as Fraction points."""
    den, points = integer_vertices(p)
    return tuple(tuple(F(x, den) for x in v) for v in points)


def check_against_translate(d):
    p = moment_polytope(d)
    beta = barycenter(p)
    reference = translate(p, tuple(-x for x in beta))
    centered, cls = _centered(d)
    assert centered == reference
    assert (centered.hrep, centered.equalities) == (reference.hrep, reference.equalities)
    assert fraction_cycle(centered) == fraction_cycle(reference)
    assert vertices(centered) == vertices(reference)
    # built over the lcm of the class's and the barycenter's denominators
    assert lcm(clear_denominators(d.coeffs)[0], clear_denominators(beta)[0]) % cls.den == 0
    assert cls.fan == d.fan and cls.coeffs == tuple(
        a + dot(beta, u) for a, u in zip(d.coeffs, d.fan.rays)
    )
    assert cleared_barycenter(p) == clear_denominators(beta)


@settings(max_examples=300, deadline=None)
@given(ample_divisors())
@example(DP6_FIXED_LINE)
@example(P2_TORUS)
@example(ToricDivisor(dp6_fan(), (F(1), F(6, 5)) * 3))
def test_surface_recentring_matches_the_fraction_translate(d):
    assert is_ample(d)
    check_against_translate(d)


@settings(max_examples=40, deadline=None)
@given(threefold_classes())
def test_threefold_recentring_matches_the_fraction_translate(d):
    check_against_translate(d)


def general_loop(g, cleared):
    """preserves_vertices on the plane embedded in three dimensions, where
    the 2x2 body does not apply."""
    (a, b), (c, d) = g
    return preserves_vertices(
        ((a, b, 0), (c, d, 0), (0, 0, 1)), frozenset((x, y, 0) for x, y in cleared)
    )


entries = st.integers(-2, 2)
matrices = st.tuples(st.tuples(entries, entries), st.tuples(entries, entries))
point_sets = st.frozensets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=6)


@settings(max_examples=500, deadline=None)
@given(matrices, point_sets)
# singular: every point goes to the origin, which lies in the set
@example(((0, 0), (0, 0)), frozenset({(0, 0), (1, 0)}))
@example(((0, 0), (0, 0)), frozenset({(0, 0)}))
# rank one: (1, 0) and (0, 1) share their image, and every image is in the set
@example(((1, 0), (1, 0)), frozenset({(0, 0), (1, 0), (0, 1)}))
# the half-turn, which preserves a centred set
@example(((-1, 0), (0, -1)), frozenset({(1, 2), (-1, -2), (0, 0)}))
@example(((0, 1), (1, 0)), frozenset())
def test_plane_vertex_test_matches_the_general_loop(g, cleared):
    images = [tuple(sum(g[j][i] * v[j] for j in range(2)) for i in range(2)) for v in cleared]
    expected = set(images) == cleared
    assert preserves_vertices(g, cleared) == general_loop(g, cleared) == expected


def test_every_dp6_automorphism_on_a_centred_hexagon():
    # the fan automorphisms of dp6 that fix the class 1, 6/5, ... are the
    # order-6 group D_3; the rest move the centred hexagon
    d = ToricDivisor(dp6_fan(), (F(1), F(6, 5)) * 3)
    centered, _ = _centered(d)
    cleared = frozenset(integer_vertices(centered)[1])
    kept = [g for g in fan_automorphisms(d.fan) if preserves_vertices(g, cleared)]
    assert len(kept) == 6
    for g in fan_automorphisms(d.fan):
        assert preserves_vertices(g, cleared) == general_loop(g, cleared)


@pytest.mark.parametrize("mode", ["full", "torus"])
def test_a_stored_surface_class_is_recentred_without_fractions(monkeypatch, mode):
    d = ToricDivisor(dp6_fan(), (F(9123, 10000), F(1)) * 3)
    assert is_ample(d)
    walls = d._walls
    translated, cleared, listed = [], [], []
    counting(monkeypatch, translate, translated)
    counting(monkeypatch, clear_denominators, cleared)
    counting(monkeypatch, vertices, listed)
    ctx = symmetry_context(d, mode)
    assert translated == []
    assert all(list(args[0]) != list(d.coeffs) for args in cleared)
    assert d._walls is walls
    del listed[:]
    alpha_invariant(ctx)
    # the torus reads the whole polygon's integer cycle; the full group of
    # this class fixes only the origin, whose one vertex is listed
    assert len(listed) == (0 if mode == "torus" else 1)
