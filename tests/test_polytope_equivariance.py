"""Volume and barycenter of bounded 3D systems commute with lattice maps.

A unimodular map g keeps volumes and carries the barycenter b to g b.
Shears and signed coordinate permutations move facets onto normals with
zero entries in other places, and every facet's vertex cycle is read off a
projection that drops one coordinate, so the images exercise other
projection axes than the original.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import apply_unimodular  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.polytope import barycenter, make_polytope, translate, volume  # noqa: E402
from kproper.rationals import GeometryError, dot  # noqa: E402

F = Fraction

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
slacks = st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def bounded_systems(draw):
    """A box around x0 cut by half-spaces that hold x0; solid or flat."""
    x0 = draw(st.tuples(*[rationals] * 3))
    halfspaces = []
    for j in range(3):
        e = tuple(int(i == j) for i in range(3))
        halfspaces.append((e, x0[j] - draw(slacks)))
        halfspaces.append((tuple(-x for x in e), -x0[j] - draw(slacks)))
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        if any(n):
            halfspaces.append((n, dot(n, x0) - draw(slacks)))
    return make_polytope(3, halfspaces)


@st.composite
def lattice_maps(draw):
    """A signed coordinate permutation followed by a few integer shears."""
    perm = draw(st.permutations(range(3)))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * 3))
    g = [[signs[i] * int(perm[i] == j) for j in range(3)] for i in range(3)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(3)))[:2]
        c = draw(st.integers(-2, 2))
        # add c times row j to row i
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return tuple(tuple(row) for row in g)


def _barycenter_or_error(p):
    try:
        return barycenter(p)
    except GeometryError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(bounded_systems(), lattice_maps(), st.tuples(*[rationals] * 3))
def test_volume_and_barycenter_commute_with_lattice_maps(p, g, t):
    image = translate(apply_unimodular(p, g), t)
    assert volume(image) == volume(p)
    b = _barycenter_or_error(p)
    if isinstance(b, str):
        assert _barycenter_or_error(image) == b
    else:
        assert barycenter(image) == tuple(dot(row, b) + s for row, s in zip(g, t))
