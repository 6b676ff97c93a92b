"""The scanline lattice points and the integer oracle against Fraction references.

The references below are the bounding-box `lattice_points` that tests
every point of the box against every half-plane and returns the points
z / k as Fractions, and the `alpha_oracle` that multiplies those points
back by k and sums orbit products with Fraction dot products.  The integer
paths must agree with them exactly: the same sorted points z, and the same
threshold.
"""

import itertools
from fractions import Fraction
from math import ceil, floor

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.alpha import _centered, _stabilizer_of, alpha_oracle, symmetry_context  # noqa: E402
from kproper.polytope import (  # noqa: E402
    cleared_vertices,
    fixed_subpolytope,
    lattice_points,
    make_polytope,
    preserves_vertices,
    vertices,
)
from kproper.rationals import (  # noqa: E402
    GeometryError,
    clear_denominators,
    dot,
    exact_integer,
    identity_matrix,
    mat_vec,
    transpose,
    vec_sub,
)
from kproper.toric import (  # noqa: E402
    Fan,
    ToricDivisor,
    dp6_fan,
    fan_automorphisms,
    is_ample,
    moment_polytope,
    ray_permutations,
)

F = Fraction


def reference_lattice_points(p, k=1):
    if not isinstance(k, int) or k < 1:
        raise GeometryError("lattice refinement k must be a positive integer")
    verts = vertices(p)
    if not verts:
        return ()
    lo = [ceil(min(v[i] for v in verts) * k) for i in range(p.dim)]
    hi = [floor(max(v[i] for v in verts) * k) for i in range(p.dim)]
    ineqs = []
    for hs in p.hrep:
        bound = hs.offset * k
        ineqs.append((hs.normal, bound.numerator, bound.denominator))
    eqs = []
    for e in p.equalities:
        rhs = e.rhs * k
        eqs.append((e.coeffs, rhs.numerator, rhs.denominator))
    points = []
    for z in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(p.dim))):
        ok = all(den * sum(a * b for a, b in zip(z, n)) >= num for n, num, den in ineqs)
        if ok:
            ok = all(den * sum(a * b for a, b in zip(z, c)) == num for c, num, den in eqs)
        if ok:
            points.append(tuple(Fraction(x, k) for x in z))
    return tuple(sorted(points))


def reference_dilate_points(p, k):
    """The reference points z / k times k, each checked to be integral."""
    return tuple(tuple(exact_integer(x * k) for x in pt) for pt in reference_lattice_points(p, k))


def reference_alpha_oracle(ctx, k_max):
    d = ctx.divisor
    multiplier, int_coeffs = clear_denominators(d.coeffs)
    integral = ToricDivisor(d.fan, tuple(Fraction(c) for c in int_coeffs))
    p_int = moment_polytope(integral)
    verts = [tuple(map(exact_integer, v)) for v in vertices(p_int)]
    base_anchor = min(verts)
    group = ctx.stabilizer
    if not group:
        group = (identity_matrix(d.fan.dim),)
    actions = []
    for g in group:
        gt = transpose(g)
        image_anchor = min(tuple(int(x) for x in mat_vec(gt, v)) for v in verts)
        tau = tuple(map(exact_integer, vec_sub(image_anchor, base_anchor)))
        actions.append((gt, tau))
    rays = d.fan.rays
    best = None
    for k in range(1, k_max + 1):
        points = {
            tuple(int(x * k) for x in pt) for pt in reference_lattice_points(p_int, k)
        }
        seen = set()
        for z in sorted(points):
            if z in seen:
                continue
            orbit = set()
            for gt, tau in actions:
                image = tuple(int(a) - k * t for a, t in zip(mat_vec(gt, z), tau))
                assert image in points
                orbit.add(image)
            seen |= orbit
            size = len(orbit)
            for i, ray in enumerate(rays):
                denom = sum(dot(m, ray) for m in orbit) + size * k * int_coeffs[i]
                assert denom >= 0
                if denom > 0:
                    value = Fraction(k * size, denom)
                    if best is None or value < best:
                        best = value
    assert best is not None
    return multiplier * best


offsets = st.fractions(min_value=-3, max_value=1, max_denominator=4)
extents = st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def polytopes(draw, dim):
    """A box [-a_i, b_i] cut by up to three random half-spaces (maybe empty)."""
    halfspaces = []
    for i in range(dim):
        unit = tuple(1 if j == i else 0 for j in range(dim))
        halfspaces.append((unit, -draw(extents)))
        halfspaces.append((tuple(-x for x in unit), -draw(extents)))
    normals = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    for _ in range(draw(st.integers(0, 3))):
        halfspaces.append((draw(normals), draw(offsets)))
    return make_polytope(dim, halfspaces)


@st.composite
def sliced_polytopes(draw):
    """A random polygon or 3-polytope with one random equation."""
    p = draw(polytopes(draw(st.sampled_from((2, 3)))))
    coeffs = draw(st.tuples(*[st.integers(-2, 2)] * p.dim).filter(any))
    rhs = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    halfspaces = [(hs.normal, hs.offset) for hs in p.hrep]
    return make_polytope(p.dim, halfspaces, [(coeffs, rhs)])


SWAP_XY = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


@st.composite
def fixed_polytopes(draw):
    """fixed_subpolytope output: a dp6 class recentered, fixed by its
    stabilizer, or a box symmetric in x and y fixed by their swap."""
    if draw(st.booleans()):
        coeffs = draw(st.tuples(*[st.integers(1, 4)] * 6))
        d = ToricDivisor(dp6_fan(), tuple(F(c) for c in coeffs))
        assume(is_ample(d))
        ctx = symmetry_context(d)
        assume(len(ctx.stabilizer) > 1)
        return fixed_subpolytope(ctx.centered_polytope, ctx.stabilizer)
    a, lo, hi = draw(extents), draw(extents), draw(extents)
    box = make_polytope(3, [
        ((1, 0, 0), -a), ((-1, 0, 0), -a), ((0, 1, 0), -a), ((0, -1, 0), -a),
        ((0, 0, 1), -lo), ((0, 0, -1), -hi),
    ])
    return fixed_subpolytope(box, (identity_matrix(3), SWAP_XY))


ks = st.integers(1, 6)


@settings(max_examples=100, deadline=None)
@given(polytopes(2), ks)
def test_lattice_points_match_reference_on_polygons(p, k):
    assert lattice_points(p, k) == reference_dilate_points(p, k)


@settings(max_examples=30, deadline=None)
@given(polytopes(3), ks)
def test_lattice_points_match_reference_on_3_polytopes(p, k):
    assert lattice_points(p, k) == reference_dilate_points(p, k)


@settings(max_examples=60, deadline=None)
@given(st.one_of(sliced_polytopes(), fixed_polytopes()), ks)
def test_lattice_points_match_reference_with_equalities(p, k):
    assert p.equalities
    assert lattice_points(p, k) == reference_dilate_points(p, k)


@st.composite
def non_integral_dp6_classes(draw):
    """Ample dp6 classes n_i / q with q = 2 or 3 not dividing every n_i,
    so the oracle clears a multiplier q."""
    q = draw(st.sampled_from((2, 3)))
    numerators = draw(st.tuples(*[st.integers(q // 2 + 1, 2 * q)] * 6))
    assume(any(n % q for n in numerators))
    d = ToricDivisor(dp6_fan(), tuple(F(n, q) for n in numerators))
    assume(is_ample(d))
    return d


@settings(max_examples=30, deadline=None)
@given(non_integral_dp6_classes(), st.sampled_from(("full", "torus")), st.integers(1, 4))
def test_alpha_oracle_matches_reference(d, mode, depth):
    ctx = symmetry_context(d, mode)
    assert clear_denominators(d.coeffs)[0] > 1
    assert alpha_oracle(ctx, depth) == reference_alpha_oracle(ctx, depth)


@st.composite
def integral_dp6_classes(draw):
    """Ample dp6 classes with integer coefficients, so the oracle's
    multiplier is 1."""
    d = ToricDivisor(dp6_fan(), draw(st.tuples(*[st.integers(1, 4).map(F)] * 6)))
    assume(is_ample(d))
    return d


@settings(max_examples=30, deadline=None)
@given(integral_dp6_classes(), st.sampled_from(("full", "torus")), st.integers(1, 4))
def test_alpha_oracle_matches_reference_on_integral_classes(d, mode, depth):
    ctx = symmetry_context(d, mode)
    assert clear_denominators(d.coeffs)[0] == 1
    assert alpha_oracle(ctx, depth) == reference_alpha_oracle(ctx, depth)


DP6_SYMMETRIES = tuple(zip(fan_automorphisms(dp6_fan()), ray_permutations(dp6_fan())))


@st.composite
def invariant_dp6_classes(draw):
    """(d, g): a fan automorphism g of dp6 and an ample class n_i / q
    (q = 1, 2 or 3) averaged over the ray orbits of <g>.  The average of
    the ample classes a o perm^t is ample and fixed by g, so the class is
    built invariant rather than filtered for it."""
    g, perm = draw(st.sampled_from(DP6_SYMMETRIES))
    q = draw(st.sampled_from((1, 2, 3)))
    numerators = draw(st.tuples(*[st.integers(q // 2 + 1, 2 * q)] * 6))
    d = ToricDivisor(dp6_fan(), tuple(F(n, q) for n in numerators))
    assume(is_ample(d))
    orbits = []
    for i in range(6):
        orbit = [i]
        while perm[orbit[-1]] != i:
            orbit.append(perm[orbit[-1]])
        orbits.append(orbit)
    coeffs = tuple(sum(d.coeffs[j] for j in orbit) / len(orbit) for orbit in orbits)
    return ToricDivisor(dp6_fan(), coeffs), g


@settings(max_examples=30, deadline=None)
@given(invariant_dp6_classes(), st.integers(1, 4))
def test_alpha_oracle_matches_reference_for_explicit_groups(drawn, depth):
    d, g = drawn
    assert is_ample(d)
    ctx = symmetry_context(d, "explicit", explicit_group=[g])
    assert g in ctx.stabilizer
    assert alpha_oracle(ctx, depth) == reference_alpha_oracle(ctx, depth)


THREEFOLD_FANS = (
    # P^3
    Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    # P^1 x P^1 x P^1
    Fan(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        tuple((i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5))),
)


@st.composite
def threefold_classes(draw):
    """Ample classes n_i / q on P^3 and P^1 x P^1 x P^1 with q = 1 or 2.
    Their stabilizers are never trivial: every centred simplex has the
    symmetric group S_4, every centred box its reflections."""
    fan = draw(st.sampled_from(THREEFOLD_FANS))
    q = draw(st.sampled_from((1, 2)))
    numerators = draw(st.tuples(*[st.integers(-1, 2)] * fan.n_rays))
    d = ToricDivisor(fan, tuple(F(n, q) for n in numerators))
    assume(is_ample(d))
    return d


@settings(max_examples=30, deadline=None)
@given(threefold_classes(), st.sampled_from(("full", "torus")), st.integers(1, 3))
def test_alpha_oracle_matches_reference_on_threefolds(d, mode, depth):
    ctx = symmetry_context(d, mode)
    assert (len(ctx.stabilizer) > 1) == (mode == "full")
    assert alpha_oracle(ctx, depth) == reference_alpha_oracle(ctx, depth)


@settings(max_examples=40, deadline=None)
@given(threefold_classes())
def test_threefold_stabilizer_is_the_vertex_set_test(d):
    # the stabilizer is read off the recentred coefficients; on a
    # threefold it must still be the group that maps the vertex set
    # of the centred polytope onto itself
    centered, cls = _centered(d)
    cleared = cleared_vertices(centered)
    expected = tuple(g for g in fan_automorphisms(d.fan) if preserves_vertices(g, cleared))
    assert _stabilizer_of(d.fan, cls.nums) == expected
    assert symmetry_context(d, "full").stabilizer == expected
