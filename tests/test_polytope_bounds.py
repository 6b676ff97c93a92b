"""Empty, bounded and unbounded polytopes whose answer is known by
construction, and the equality rows of the vertex enumeration.

Every system is built around a point x0 that it contains:
* box: the normals +-e_j plus half-spaces that hold x0, so p is bounded;
* ray: half-spaces that hold x0 with <n, e_1> >= 0, so e_1 recedes;
* lines: normals orthogonal to e_dim, so p holds the line x0 + t e_dim.
Some also carry up to three equalities through x0 that keep the receding
direction; with three, the third is sometimes the sum of the other two, so
that the equations are dependent and the enumeration keeps only their
echelon rows, which leave every system square.  Adding a contradictory
pair <x, n> >= c, <x, -n> >= 1 - c makes any of them empty.  A box's
vertices are held to a brute-force reference that reads each equality as
two opposite half-spaces, and the segment that a reflection's fixed line
cuts from a centred dp6 or P^2 polygon to its two ends, read off the
recentred coefficients.
"""

from fractions import Fraction
from math import floor, gcd

import pytest

pytest.importorskip("hypothesis")
from helpers import counting, reference_vertices  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper import polytope  # noqa: E402
from kproper.alpha import fixed_polytope, symmetry_context  # noqa: E402
from kproper.polytope import make_polytope, vertices  # noqa: E402
from kproper.rationals import (  # noqa: E402
    GeometryError,
    InputError,
    dot,
    solve_exact,
    solve_linear_system,
)
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    anticanonical_divisor,
    dp6_fan,
    fan_automorphisms,
    p2_fan,
    ray_permutations,
    wall_pairings,
)

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
    coeffs = [_shape(kind, draw(vectors), equality=True) for _ in range(draw(st.integers(0, 3)))]
    if len(coeffs) == 3 and draw(st.booleans()):
        coeffs[2] = tuple(x + y for x, y in zip(coeffs[0], coeffs[1]))
    equalities = [(a, dot(a, x0)) for a in coeffs if any(a)]
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
    if kind == "box":
        assert vertices(p) == reference_vertices(p)


def test_dependent_equalities_leave_square_systems(monkeypatch):
    # the unit square cut by three equations of rank 2, which meet in one
    # point: x - y = 0, 2x = 1 and x + y = 1, cleared over 2 for v = 2 (x, y);
    # their two echelon rows v_x - v_y = 0 and v_y = 1 make the one system
    # solved, 2x2, and no system is solved in Fractions
    calls, solved = [], []
    counting(monkeypatch, solve_linear_system, calls)
    counting(monkeypatch, solve_exact, solved)
    square = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    p = make_polytope(2, square, [((1, -1), 0), ((1, 1), 1), ((2, 0), 1)])
    half = Fraction(1, 2)
    assert vertices(p) == ((half, half),) == reference_vertices(p)
    assert solved == [(((1, -1), (0, 1)), (0, 1))]
    assert calls == []


def test_the_cap_counts_the_systems_actually_solved(monkeypatch):
    # one equation leaves C(101, 2) systems of a 3D polytope, refused before
    # any of them is solved; the equation's rank is found in integers
    calls = []
    counting(monkeypatch, solve_linear_system, calls)

    def no_solve(*args):
        raise AssertionError("a candidate system was solved")

    monkeypatch.setattr(polytope, "solve_exact", no_solve)
    p = make_polytope(3, [((1, k, 0), 0) for k in range(101)], [((0, 0, 1), 0)])
    with pytest.raises(InputError, match=r"would try 5050 candidate vertices "
                                         r"\(101 half-spaces choose 2\)"):
        vertices(p)
    assert calls == []


def _reflections(fan):
    """(g, perm) for each fan automorphism that fixes a line: in the plane,
    the ones of determinant -1."""
    return [
        (g, perm) for g, perm in zip(fan_automorphisms(fan), ray_permutations(fan))
        if g[0][0] * g[1][1] - g[0][1] * g[1][0] == -1
    ]


@st.composite
def fixed_line_classes(draw):
    """(d, g): a reflection g and an ample dp6 or P^2 class whose
    coefficients it keeps: a random class made invariant, plus i^2 +
    perm(i)^2 on ray i, which few other automorphisms keep, plus the least
    integer multiple of -K that makes it ample."""
    fan = draw(st.sampled_from((dp6_fan(), p2_fan())))
    g, perm = draw(st.sampled_from(_reflections(fan)))
    raw = draw(st.lists(rationals, min_size=fan.n_rays, max_size=fan.n_rays))
    raw = ToricDivisor(fan, [raw[i] + raw[j] + i * i + j * j for i, j in enumerate(perm)])
    minus_k = anticanonical_divisor(fan)
    shift = max(floor(-p / q) + 1 for p, q in zip(wall_pairings(raw), wall_pairings(minus_k)))
    return raw + shift * minus_k, g


@settings(max_examples=150, deadline=None)
@given(fixed_line_classes())
# the golden fixed-line class, whose full stabilizer is {1, g}
@example((ToricDivisor(dp6_fan(), [Fraction(x, 7) for x in (2, 2, 2, 4, 6, 6)]),
          ((1, -1), (0, -1))))
def test_a_fixed_line_cuts_the_centred_polygon_to_its_segment(case):
    # the group {1, g} given explicitly, and the full stabilizer when it is
    # that group: a P^2 class is kept by all of S_3, and a dp6 class kept by
    # a reflection through no ray by the half-turn too, which fix only 0
    d, g = case
    contexts = [symmetry_context(d, "explicit", [g]), symmetry_context(d, "full")]
    contexts = [ctx for ctx in contexts if len(ctx.stabilizer) == 2]
    # w spans the fixed line, the kernel of g^T - I
    rows = [(g[0][i] - (i == 0), g[1][i] - (i == 1)) for i in range(2)]
    p, q = next(row for row in rows if any(row))
    w = (q // gcd(p, q), -p // gcd(p, q))
    for ctx in contexts:
        # s w lies in {m : <m, u_i> >= -a_i'} when s <w, u_i> >= -a_i'
        slopes = [(dot(w, u), a) for u, a in zip(d.fan.rays, ctx.centered.coeffs)]
        s_min = max(-a / t for t, a in slopes if t > 0)
        s_max = min(-a / t for t, a in slopes if t < 0)
        assert s_min < 0 < s_max
        ends = tuple(sorted(tuple(s * x for x in w) for s in (s_min, s_max)))
        assert vertices(fixed_polytope(ctx)) == ends
