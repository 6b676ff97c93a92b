"""Empty, bounded and unbounded polytopes whose answer is known by construction.

Every system is built around a point x0 that it contains:
* box: the normals +-e_j plus half-spaces that hold x0, so p is bounded;
* ray: half-spaces that hold x0 with <n, e_1> >= 0, so e_1 recedes;
* lines: normals orthogonal to e_dim, so p holds the line x0 + t e_dim.
Some also carry an equality through x0 that keeps the receding direction.
Adding a contradictory pair <x, n> >= c, <x, -n> >= 1 - c makes any of
them empty.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.polytope import make_polytope, vertices  # noqa: E402
from kproper.rationals import GeometryError, dot  # noqa: E402

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
slacks = st.fractions(min_value=0, max_value=3, max_denominator=4)


def _shape(kind, n, equality=False):
    """n adjusted so that p keeps its receding direction: <n, e_1> >= 0 for
    a ray (= 0 for an equality), <n, e_dim> = 0 for lines."""
    if kind == "ray":
        return (0 if equality else abs(n[0]),) + n[1:]
    if kind == "lines":
        return n[:-1] + (0,)
    return n


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(("box", "ray", "lines")))
    dim = draw(st.integers(1, 3))
    x0 = draw(st.tuples(*[rationals] * dim))
    vectors = st.tuples(*[st.integers(-3, 3)] * dim)
    halfspaces = []
    if kind == "box":
        for j in range(dim):
            e = tuple(int(i == j) for i in range(dim))
            halfspaces.append((e, x0[j] - draw(slacks)))
            halfspaces.append((tuple(-x for x in e), -x0[j] - draw(slacks)))
    for _ in range(draw(st.integers(0, 5))):
        n = _shape(kind, draw(vectors))
        if any(n):
            halfspaces.append((n, dot(n, x0) - draw(slacks)))
    equalities = []
    a = _shape(kind, draw(vectors), equality=True)
    if any(a) and draw(st.booleans()):
        equalities.append((a, dot(a, x0)))
    empty = draw(st.booleans())
    if empty:
        n = draw(vectors.filter(any))
        c = draw(rationals)
        halfspaces += [(n, c), (tuple(-x for x in n), 1 - c)]
    return kind, make_polytope(dim, halfspaces, equalities), empty


@settings(max_examples=300, deadline=None)
@given(systems())
def test_vertices_tell_empty_bounded_and_unbounded_apart(system):
    kind, p, empty = system
    if empty:
        assert vertices(p) == ()
    elif kind == "box":
        verts = vertices(p)
        assert verts and all(
            all(dot(v, hs.normal) >= hs.offset for hs in p.hrep)
            and all(dot(v, eq.coeffs) == eq.rhs for eq in p.equalities)
            for v in verts
        )
    else:
        with pytest.raises(GeometryError, match="^polytope is unbounded$"):
            vertices(p)
