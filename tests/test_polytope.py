import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from helpers import apply_unimodular, mat_vec, polytope_to_json

from kproper.cli import load_polytope
from kproper.polytope import (
    Polytope,
    affine_dimension,
    barycenter,
    boundary_measure,
    fixed_subpolytope,
    lattice_points,
    make_polytope,
    translate,
    vertices,
    volume,
)
from kproper import polytope as polytope_mod
from kproper.rationals import GeometryError, InputError, solve_exact

F = Fraction

DP6_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
P2_RAYS = ((1, 0), (0, 1), (-1, -1))


def hexagon(a=1):
    return make_polytope(2, [(r, -F(a)) for r in DP6_RAYS])


def p2_triangle():
    return make_polytope(2, [(r, -F(1)) for r in P2_RAYS])


def unit_square():
    return make_polytope(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])


def shoelace(loop):
    # oracle: signed area of an explicitly ordered vertex loop
    total = F(0)
    for a, b in zip(loop, loop[1:] + loop[:1]):
        total += a[0] * b[1] - a[1] * b[0]
    return abs(total) / 2


# counterclockwise loops, listed by hand
HEX_LOOP = [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)]
TRIANGLE_LOOP = [(-1, -1), (2, -1), (-1, 2)]


def test_unit_square_basics():
    p = unit_square()
    assert vertices(p) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert volume(p) == 1
    assert boundary_measure(p) == 4
    assert barycenter(p) == (F(1, 2), F(1, 2))


def test_empty_polytope():
    p = make_polytope(1, [((1,), 1), ((-1,), 0)])
    assert vertices(p) == ()
    assert volume(p) == 0


def test_hexagon_vertices_match_adjacent_halfplane_oracle():
    # oracle: solve each adjacent pair of facet lines independently
    expected = set()
    for i in range(6):
        u, v = DP6_RAYS[i], DP6_RAYS[(i + 1) % 6]
        expected.add(solve_exact((u, v), (-1, -1)))
    assert set(vertices(hexagon())) == expected
    assert set(vertices(hexagon())) == set((F(x), F(y)) for x, y in HEX_LOOP)


def test_triangle_vertices():
    assert set(vertices(p2_triangle())) == set((F(x), F(y)) for x, y in TRIANGLE_LOOP)


def test_volumes_against_shoelace_oracle():
    assert shoelace(HEX_LOOP) == 3
    assert volume(hexagon()) == 3
    assert shoelace(TRIANGLE_LOOP) == F(9, 2)
    assert volume(p2_triangle()) == F(9, 2)


def test_boundary_measures():
    # hexagon: six edges, each a primitive step; triangle: three edges of lattice length 3
    assert boundary_measure(hexagon()) == 6
    assert boundary_measure(p2_triangle()) == 9


def test_boundary_measure_rejects_degenerate():
    segment = make_polytope(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
    with pytest.raises(GeometryError):
        boundary_measure(segment)


def test_barycenters():
    assert barycenter(hexagon()) == (0, 0)
    assert barycenter(p2_triangle()) == (0, 0)
    with pytest.raises(GeometryError):
        barycenter(make_polytope(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)]))


def test_translate_and_scale():
    p = unit_square()
    q = translate(p, (F(3), F(-2)))
    assert volume(q) == 1
    assert barycenter(q) == (F(7, 2), F(-3, 2))


def test_translate_carries_vertices_exactly():
    # the translate of a polytope with known vertices must list exactly the
    # vertices that a fresh enumeration of the same H-representation finds
    cube = make_polytope(3, [(n, 0) for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
                         + [(n, -1) for n in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))])
    empty = make_polytope(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
    segment = fixed_subpolytope(hexagon(), [((0, 1), (1, 0))])
    rng = random.Random(3)
    for p in (hexagon(F(7, 3)), p2_triangle(), unit_square(), cube, empty, segment):
        vertices(p)
        for _ in range(5):
            t = tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(p.dim))
            moved = translate(p, t)
            fresh = Polytope(moved.dim, moved.hrep, moved.equalities)
            assert vertices(moved) == vertices(fresh)
            assert set(vertices(moved)) == {tuple(a + b for a, b in zip(v, t)) for v in vertices(p)}


def test_translate_of_unbounded_polytope_still_raises():
    half_plane = make_polytope(2, [((1, 0), 0)])
    with pytest.raises(GeometryError, match="unbounded"):
        vertices(translate(half_plane, (F(1), F(2))))


def test_unimodular_invariance():
    rng = random.Random(23)
    gs = [((1, 1), (0, 1)), ((0, -1), (1, -1)), ((2, 1), (1, 1)), ((1, 0), (-3, 1))]
    for g in gs:
        for p in (hexagon(), p2_triangle(), unit_square()):
            q = apply_unimodular(p, g)
            assert volume(q) == volume(p)
            assert boundary_measure(q) == boundary_measure(p)


def test_fixed_subpolytope_negation():
    square = make_polytope(
        2, [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1)]
    )
    fixed = fixed_subpolytope(square, [((-1, 0), (0, -1))])
    assert vertices(fixed) == ((0, 0),)


def test_fixed_subpolytope_trivial_group():
    p = hexagon()
    assert vertices(fixed_subpolytope(p, [((1, 0), (0, 1))])) == vertices(p)


def test_fixed_subpolytope_reflection_gives_segment():
    # the swap (x, y) fixes the diagonal; the hexagon cuts it to [-1/2, 1/2]
    fixed = fixed_subpolytope(hexagon(), [((0, 1), (1, 0))])
    assert set(vertices(fixed)) == {(F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2))}
    assert volume(fixed) == 0


def test_fixed_subpolytope_is_pointwise_fixed():
    from kproper.rationals import transpose

    groups = [[((0, 1), (1, 0))], [((-1, 0), (0, -1))], [((0, -1), (1, -1))]]
    for group in groups:
        fixed = fixed_subpolytope(hexagon(), group)
        for v in vertices(fixed):
            for g in group:
                assert tuple(mat_vec(transpose(g), v)) == v


def test_fixed_subpolytope_rejects_non_preserving_group():
    with pytest.raises(GeometryError, match="does not preserve"):
        fixed_subpolytope(unit_square(), [((-1, 0), (0, -1))])


def test_fixed_subpolytope_rejects_non_unimodular():
    from kproper.rationals import ValidationError

    with pytest.raises(ValidationError):
        fixed_subpolytope(hexagon(), [((2, 0), (0, 1))])


def test_lattice_points():
    assert len(lattice_points(hexagon(), 1)) == 7
    assert len(lattice_points(unit_square(), 1)) == 4
    point = make_polytope(2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
    assert lattice_points(point, 5) == ((0, 0),)


def test_lattice_points_monotone_in_k():
    counts = [len(lattice_points(hexagon(), k)) for k in range(1, 5)]
    assert counts == sorted(counts)


def test_lattice_points_unbounded_errors():
    halfplane = make_polytope(2, [((1, 0), 0)])
    with pytest.raises(GeometryError, match="unbounded"):
        lattice_points(halfplane, 1)


def test_three_dimensional_cube_and_simplex():
    cube = make_polytope(
        3,
        [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1),
         ((0, 0, 1), 0), ((0, 0, -1), -1)],
    )
    assert len(vertices(cube)) == 8
    assert volume(cube) == 1
    assert barycenter(cube) == (F(1, 2), F(1, 2), F(1, 2))
    assert len(lattice_points(cube, 1)) == 8
    simplex = make_polytope(
        3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)]
    )
    assert volume(simplex) == F(1, 6)


def test_one_dimensional_segment():
    seg = make_polytope(1, [((1,), F(-1, 2)), ((-1,), -2)])
    assert vertices(seg) == ((F(-1, 2),), (F(2),))
    assert volume(seg) == F(5, 2)
    assert barycenter(seg) == (F(3, 4),)


def test_affine_dimension_reporting():
    assert affine_dimension(hexagon()) == 2
    assert affine_dimension(make_polytope(2, [((1, 0), 1), ((-1, 0), 0)])) == -1
    fixed = fixed_subpolytope(hexagon(), [((0, 1), (1, 0))])
    assert affine_dimension(fixed) == 1


def test_json_round_trip(tmp_path):
    path = tmp_path / "polytope.json"
    for p in (hexagon(F(7, 3)), fixed_subpolytope(hexagon(), [((0, 1), (1, 0))])):
        path.write_text(json.dumps(polytope_to_json(p)))
        q = load_polytope(str(path))
        assert q.hrep == p.hrep
        assert q.equalities == p.equalities
        assert vertices(q) == vertices(p)
        # the loader reads no vertex list, so a file that gives one is refused
        path.write_text(json.dumps(polytope_to_json(p, include_vrep=True)))
        with pytest.raises(InputError, match='^unknown key "vrep"$'):
            load_polytope(str(path))


def test_vertex_enumeration_is_capped_before_it_starts(monkeypatch):
    normals = [v for v in itertools.product(range(-2, 3), repeat=3) if math.gcd(*v) == 1][:60]
    p = make_polytope(3, [(n, -sum(map(abs, n))) for n in normals])
    assert len(p.hrep) == 60

    def no_solve(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(polytope_mod, "solve_exact", no_solve)
    with pytest.raises(InputError, match=r"would try 34220 candidate vertices \(60 half-spaces "
                                         r"choose 3\); the cap is 5000"):
        vertices(p)
