import itertools
import json
import random
from fractions import Fraction

import pytest
from helpers import divisor_to_json, fan_to_json, mat_vec, transform_fan

from kproper.cli import load_coeffs, load_fan
from kproper.polytope import boundary_measure, vertices, volume
from kproper.rationals import GeometryError, ValidationError, det, mat_mul
from kproper.toric import (
    Fan,
    ToricDivisor,
    anticanonical_divisor,
    canonical_divisor,
    dp6_fan,
    fan_automorphisms,
    intersection_number,
    is_ample,
    is_nef,
    mixed_volume_intersection,
    moment_polytope,
    p2_fan,
    slope_quantities,
    validate_fan,
)

F = Fraction


def lam_divisor(lam, a=1):
    lam, a = F(lam), F(a)
    return ToricDivisor(dp6_fan(), (a, a * lam, a, a * lam, a, a * lam))


def random_ample_dp6(rng, lo=1, hi=9):
    fan = dp6_fan()
    while True:
        coeffs = tuple(F(rng.randint(lo, hi)) for _ in range(6))
        d = ToricDivisor(fan, coeffs)
        if all(coeffs[(i - 1) % 6] + coeffs[(i + 1) % 6] > coeffs[i] for i in range(6)):
            assert is_ample(d)
            return d


def test_builtin_fans_valid():
    for fan in (p2_fan(), dp6_fan()):
        check = validate_fan(fan)
        assert check.smooth and check.complete


def test_incomplete_fan_detected():
    fan = dp6_fan()
    partial = Fan(2, fan.rays, fan.max_cones[:-1])
    check = validate_fan(partial)
    assert check.smooth and not check.complete


def test_fan_rejects_duplicate_and_non_primitive_rays():
    with pytest.raises(ValidationError, match="duplicate"):
        Fan(2, ((1, 0), (1, 0)), ((0, 1),))
    with pytest.raises(ValidationError, match="primitive"):
        Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValidationError, match="zero"):
        Fan(2, ((0, 0), (0, 1)), ((0, 1),))


def brute_force_automorphisms(fan, bound=2):
    """Oracle: scan all small integer matrices for fan symmetries."""
    rays = set(fan.rays)
    cones = set(fan.max_cones)
    index = {r: i for i, r in enumerate(fan.rays)}
    found = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=4):
        g = (entries[:2], entries[2:])
        if abs(det(g)) != 1:
            continue
        images = [tuple(int(x) for x in mat_vec(g, r)) for r in fan.rays]
        if set(images) != rays:
            continue
        perm = [index[r] for r in images]
        if all(tuple(sorted(perm[i] for i in c)) in cones for c in fan.max_cones):
            found.append(g)
    return found


def test_automorphism_groups_match_brute_force():
    for fan, order in ((p2_fan(), 6), (dp6_fan(), 12)):
        autos = fan_automorphisms(fan)
        assert len(autos) == order
        assert set(autos) == set(brute_force_automorphisms(fan))


def test_automorphisms_form_a_group():
    autos = set(fan_automorphisms(dp6_fan()))
    identity = ((1, 0), (0, 1))
    assert identity in autos
    for g in autos:
        for h in autos:
            prod = tuple(tuple(int(x) for x in row) for row in mat_mul(g, h))
            assert prod in autos
    # closure of a finite set under an associative product with identity
    # forces inverses, but check directly anyway
    for g in autos:
        assert any(
            tuple(tuple(int(x) for x in row) for row in mat_mul(g, h)) == identity
            for h in autos
        )


@pytest.mark.parametrize("lam,ample,nef", [
    (F(13, 24), True, True),
    (F(1), True, True),
    (F(19, 10), True, True),
    (F(1, 2), False, True),
    (F(2), False, True),
    (F(5, 2), False, False),
])
def test_lambda_family_positivity(lam, ample, nef):
    d = lam_divisor(lam)
    assert is_ample(d) is ample
    assert is_nef(d) is nef


def test_zero_divisor_is_nef_not_ample():
    zero = ToricDivisor(dp6_fan(), (F(0),) * 6)
    assert is_nef(zero) and not is_ample(zero)


def test_ample_implies_nef_on_random_divisors():
    rng = random.Random(29)
    fan = dp6_fan()
    for _ in range(60):
        d = ToricDivisor(fan, tuple(F(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(6)))
        if is_ample(d):
            assert is_nef(d)


def test_moment_polytopes():
    hexagon = moment_polytope(anticanonical_divisor(dp6_fan()))
    assert set(vertices(hexagon)) == {
        (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)
    }
    triangle = moment_polytope(anticanonical_divisor(p2_fan()))
    assert set(vertices(triangle)) == {(-1, -1), (2, -1), (-1, 2)}
    origin = moment_polytope(ToricDivisor(dp6_fan(), (F(0),) * 6))
    assert vertices(origin) == ((0, 0),)


def test_boundary_divisor_intersections():
    fan = dp6_fan()
    d1 = ToricDivisor(fan, (F(1), 0, 0, 0, 0, 0))
    d2 = ToricDivisor(fan, (0, F(1), 0, 0, 0, 0))
    assert intersection_number(d1, d1) == -1
    assert intersection_number(d1, d2) == 1
    # all six boundary curves are (-1)-curves meeting their neighbors once
    for i in range(6):
        di = ToricDivisor(fan, tuple(F(1 if j == i else 0) for j in range(6)))
        dnext = ToricDivisor(fan, tuple(F(1 if j == (i + 1) % 6 else 0) for j in range(6)))
        assert intersection_number(di, di) == -1
        assert intersection_number(di, dnext) == 1


@pytest.mark.parametrize("lam", [F(3, 4), F(1), F(7, 6), F(13, 24), F(19, 10)])
def test_lambda_self_intersection_polynomial(lam):
    d = lam_divisor(lam)
    assert intersection_number(d, d) == -3 + 12 * lam - 3 * lam**2
    assert intersection_number(anticanonical_divisor(dp6_fan()), d) == 3 * (1 + lam)


def test_intersection_cross_checked_by_volume_and_boundary():
    rng = random.Random(31)
    minus_k = anticanonical_divisor(dp6_fan())
    for _ in range(15):
        d = random_ample_dp6(rng)
        p = moment_polytope(d)
        assert intersection_number(d, d) == 2 * volume(p)
        assert intersection_number(minus_k, d) == boundary_measure(p)


def test_intersection_is_symmetric_bilinear():
    rng = random.Random(37)
    fan = dp6_fan()
    for _ in range(20):
        a = ToricDivisor(fan, tuple(F(rng.randint(-5, 5)) for _ in range(6)))
        b = ToricDivisor(fan, tuple(F(rng.randint(-5, 5)) for _ in range(6)))
        c = ToricDivisor(fan, tuple(F(rng.randint(-5, 5)) for _ in range(6)))
        assert intersection_number(a, b) == intersection_number(b, a)
        assert intersection_number(a + c, b) == intersection_number(a, b) + intersection_number(c, b)


def test_mixed_volume_examples():
    minus_k6 = anticanonical_divisor(dp6_fan())
    assert mixed_volume_intersection([minus_k6, minus_k6]) == 6
    minus_k2 = anticanonical_divisor(p2_fan())
    assert mixed_volume_intersection([minus_k2, minus_k2]) == 9
    zero = ToricDivisor(dp6_fan(), (F(0),) * 6)
    assert mixed_volume_intersection([minus_k6, zero]) == 0


def test_mixed_volume_matches_wall_formula_for_nef_pairs():
    rng = random.Random(41)
    for _ in range(10):
        d = random_ample_dp6(rng, 1, 5)
        e = random_ample_dp6(rng, 1, 5)
        assert mixed_volume_intersection([d, e]) == intersection_number(d, e)


def test_mixed_volume_rejects_non_nef():
    k = canonical_divisor(dp6_fan())
    with pytest.raises(GeometryError, match="nef"):
        mixed_volume_intersection([k, k])


def p1_cubed_fan():
    rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    cones = tuple(
        tuple(sorted((i, j, k)))
        for i in (0, 1) for j in (2, 3) for k in (4, 5)
    )
    return Fan(3, rays, cones)


def test_three_dimensional_fan_and_mixed_volume():
    fan = p1_cubed_fan()
    check = validate_fan(fan)
    assert check.smooth and check.complete
    minus_k = anticanonical_divisor(fan)
    # (-K)^3 on the triple product of lines: 3! * volume of [-1,1]^3
    assert mixed_volume_intersection([minus_k, minus_k, minus_k]) == 48
    with pytest.raises(GeometryError, match="surface formula only"):
        intersection_number(minus_k, minus_k)
    slopes = slope_quantities(minus_k)
    assert slopes.mu == 1 and slopes.rbar is None


def test_mixed_volume_dimension_cap():
    # the fan of the fourfold product of lines; rays 2j and 2j+1 are +-e_j
    rays = tuple(
        tuple(s if i == j else 0 for i in range(4)) for j in range(4) for s in (1, -1)
    )
    cones = tuple(
        tuple(sorted(2 * j + (0 if s > 0 else 1) for j, s in enumerate(signs)))
        for signs in itertools.product((1, -1), repeat=4)
    )
    fan = Fan(4, rays, cones)
    d = anticanonical_divisor(fan)
    with pytest.raises(GeometryError, match="n > 3"):
        mixed_volume_intersection([d, d, d, d])


def test_ample_moment_polytope_has_one_vertex_per_cone():
    from kproper.rationals import solve_exact

    rng = random.Random(47)
    for _ in range(5):
        d = random_ample_dp6(rng)
        p = moment_polytope(d)
        expected = set()
        for cone in d.fan.max_cones:
            m = solve_exact(d.fan.cone_matrix(cone), tuple(-d.coeffs[i] for i in cone))
            expected.add(m)
        assert set(vertices(p)) == expected
        assert len(expected) == len(d.fan.max_cones)


def test_lambda_polytope_barycenter_is_origin():
    for lam in (F(6, 5), F(3, 4), F(19, 10)):
        from kproper.polytope import barycenter

        assert barycenter(moment_polytope(lam_divisor(lam))) == (0, 0)


def test_slope_quantities():
    minus_k = anticanonical_divisor(dp6_fan())
    slopes = slope_quantities(minus_k)
    assert slopes.mu == 1 and slopes.rbar == 2
    a, lam = F(2), F(3, 4)
    slopes = slope_quantities(lam_divisor(lam, a))
    assert slopes.rbar == 2 * (1 + lam) / (a * (4 * lam - 1 - lam**2))
    with pytest.raises(GeometryError):
        slope_quantities(lam_divisor(F(5, 2)))


def random_unimodular(rng, words=6):
    gens = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((-1, 0), (0, 1))]
    g = ((1, 0), (0, 1))
    for _ in range(words):
        h = gens[rng.randrange(len(gens))]
        g = tuple(tuple(int(x) for x in row) for row in mat_mul(g, h))
    return g


def test_equivariance_under_lattice_change_of_basis():
    rng = random.Random(43)
    fan = dp6_fan()
    minus_k = anticanonical_divisor(fan)
    for _ in range(10):
        g = random_unimodular(rng)
        image_fan = transform_fan(fan, g)
        check = validate_fan(image_fan)
        assert check.smooth and check.complete
        assert len(fan_automorphisms(image_fan)) == 12
        d = random_ample_dp6(rng)
        image_d = ToricDivisor(image_fan, d.coeffs)
        assert is_ample(image_d) == is_ample(d)
        assert intersection_number(image_d, image_d) == intersection_number(d, d)
        assert volume(moment_polytope(image_d)) == volume(moment_polytope(d))
        assert slope_quantities(image_d) == slope_quantities(d)


def test_pullback_by_fan_automorphism_preserves_everything():
    from kproper.polytope import barycenter
    from kproper.toric import ray_permutation

    rng = random.Random(53)
    fan = dp6_fan()
    minus_k = anticanonical_divisor(fan)
    for g in fan_automorphisms(fan):
        perm = ray_permutation(fan, g)
        for _ in range(3):
            d = random_ample_dp6(rng)
            pullback = ToricDivisor(fan, tuple(d.coeffs[perm[i]] for i in range(6)))
            assert is_ample(pullback) == is_ample(d)
            assert intersection_number(pullback, pullback) == intersection_number(d, d)
            assert intersection_number(minus_k, pullback) == intersection_number(minus_k, d)
            assert volume(moment_polytope(pullback)) == volume(moment_polytope(d))
            assert slope_quantities(pullback) == slope_quantities(d)


def test_fan_and_divisor_json_round_trip(tmp_path):
    fan = dp6_fan()
    fan_path, divisor_path = tmp_path / "fan.json", tmp_path / "divisor.json"
    fan_path.write_text(json.dumps(fan_to_json(fan)))
    assert load_fan(str(fan_path)) == fan
    d = lam_divisor(F(6, 5))
    divisor_path.write_text(json.dumps(divisor_to_json(d)))
    assert load_coeffs(fan, str(divisor_path)) == d
