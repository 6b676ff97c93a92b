import random
from fractions import Fraction

import pytest

from kproper.alpha import (
    MAX_ORACLE_DEPTH,
    alpha_invariant,
    alpha_oracle,
    fixed_polytope,
    symmetry_context,
)
from kproper.polytope import vertices
from kproper.rationals import GeometryError, InputError, dot
from kproper.toric import (
    ToricDivisor,
    anticanonical_divisor,
    dp6_fan,
    fan_automorphisms,
    moment_polytope,
    p2_fan,
)

F = Fraction

ORDER_THREE_ROTATION = ((0, -1), (1, -1))


def lam_divisor(lam, a=1):
    lam, a = F(lam), F(a)
    return ToricDivisor(dp6_fan(), (a, a * lam, a, a * lam, a, a * lam))


def random_ample_dp6(rng, lo=1, hi=6):
    fan = dp6_fan()
    while True:
        coeffs = tuple(F(rng.randint(lo, hi)) for _ in range(6))
        if all(coeffs[(i - 1) % 6] + coeffs[(i + 1) % 6] > coeffs[i] for i in range(6)):
            return ToricDivisor(fan, coeffs)


def test_stabilizer_orders():
    assert len(symmetry_context(lam_divisor(F(6, 5))).stabilizer) == 6
    assert len(symmetry_context(anticanonical_divisor(dp6_fan())).stabilizer) == 12
    assert len(symmetry_context(anticanonical_divisor(p2_fan())).stabilizer) == 6


def test_stabilizer_requires_ample():
    with pytest.raises(GeometryError):
        symmetry_context(lam_divisor(F(5, 2)))


def test_alpha_formula_on_lambda_family():
    for a, lam in ((F(1), F(1)), (F(5, 4), F(6, 5)), (F(3), F(3, 5)), (F(2), F(1))):
        ctx = symmetry_context(lam_divisor(lam, a), "full")
        assert alpha_invariant(ctx) == min(1 / a, 1 / (lam * a))


def test_alpha_anticanonical_values():
    ctx = symmetry_context(anticanonical_divisor(dp6_fan()), "full")
    assert alpha_invariant(ctx) == 1
    ctx = symmetry_context(anticanonical_divisor(p2_fan()), "torus")
    assert alpha_invariant(ctx) == F(1, 3)


def test_fixed_polytope_is_origin_for_lambda_family():
    ctx = symmetry_context(lam_divisor(F(6, 5)), "full")
    assert vertices(fixed_polytope(ctx)) == ((0, 0),)


def test_alpha_requires_ample():
    with pytest.raises(GeometryError):
        symmetry_context(lam_divisor(F(2)), "full")


def test_alpha_scaling():
    rng = random.Random(101)
    for _ in range(8):
        d = random_ample_dp6(rng)
        base = alpha_invariant(symmetry_context(d, "full"))
        t = F(rng.randint(1, 9), rng.randint(1, 9))
        assert alpha_invariant(symmetry_context(t * d, "full")) == base / t


def test_group_monotonicity():
    rng = random.Random(103)
    for _ in range(8):
        d = random_ample_dp6(rng)
        full = alpha_invariant(symmetry_context(d, "full"))
        torus = alpha_invariant(symmetry_context(d, "torus"))
        assert full >= torus


def test_alpha_invariant_under_linear_equivalence_shift():
    rng = random.Random(107)
    fan = dp6_fan()
    for _ in range(8):
        d = random_ample_dp6(rng)
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        shifted = ToricDivisor(
            fan, tuple(a + dot(m, u) for a, u in zip(d.coeffs, fan.rays))
        )
        for mode in ("full", "torus"):
            assert alpha_invariant(symmetry_context(shifted, mode)) == alpha_invariant(
                symmetry_context(d, mode)
            )


def test_facet_distances_nonnegative_on_polytope():
    d = lam_divisor(F(6, 5))
    p = moment_polytope(d)
    for v in vertices(p):
        distances = [dot(v, u) + a for u, a in zip(d.fan.rays, d.coeffs)]
        assert all(x >= 0 for x in distances)
        assert any(x == 0 for x in distances)


def test_oracle_matches_invariant_on_builtins():
    ctx = symmetry_context(anticanonical_divisor(dp6_fan()), "full")
    assert alpha_oracle(ctx, 1) == 1
    ctx2 = symmetry_context(anticanonical_divisor(p2_fan()), "torus")
    assert alpha_oracle(ctx2, 1) == F(1, 3)


def test_oracle_monotone_and_above_invariant():
    rng = random.Random(109)
    for _ in range(5):
        d = random_ample_dp6(rng, 1, 4)
        ctx = symmetry_context(d, "full")
        value = alpha_invariant(ctx)
        shallow = alpha_oracle(ctx, 1)
        deep = alpha_oracle(ctx, 3)
        assert deep <= shallow
        assert deep >= value


def test_oracle_handles_rational_coefficients():
    # denominators are cleared internally; the optimum sits at the origin
    # orbit, a lattice point of every dilate, so the sandwich is an equality
    d = lam_divisor(F(6, 5))
    ctx = symmetry_context(d, "full")
    assert alpha_oracle(ctx, 2) == alpha_invariant(ctx) == F(5, 6)


def test_oracle_depth_validation():
    ctx = symmetry_context(anticanonical_divisor(dp6_fan()), "full")
    with pytest.raises(InputError):
        alpha_oracle(ctx, 0)
    # rejected before any lattice point is enumerated
    with pytest.raises(InputError, match="cap"):
        alpha_oracle(ctx, MAX_ORACLE_DEPTH + 1)


def test_oracle_rejects_an_element_that_moves_the_class():
    # a fan automorphism outside the stabilizer maps the polytope onto a
    # different one, so the oracle's own check must refuse it at any depth
    d = ToricDivisor(dp6_fan(), tuple(F(c) for c in (1, 2, 2, 1, 2, 2)))
    ctx = symmetry_context(d, "full")
    mover = next(g for g in fan_automorphisms(d.fan) if g not in ctx.stabilizer)
    broken = ctx._replace(stabilizer=ctx.stabilizer + (mover,))
    message = "moves a lattice point out of the dilated polytope"
    for depth in (1, 3):
        with pytest.raises(GeometryError, match=message):
            alpha_oracle(broken, depth)


def test_explicit_group_mode():
    d = lam_divisor(F(6, 5))
    ctx = symmetry_context(d, "explicit", explicit_group=[ORDER_THREE_ROTATION])
    assert len(ctx.stabilizer) == 3  # closure of the generator
    assert alpha_invariant(ctx) == F(5, 6)
    with pytest.raises(GeometryError):
        # a reflection preserving the fan but not this class
        symmetry_context(
            lam_divisor(F(6, 5)), "explicit", explicit_group=[((0, 1), (-1, 1))]
        )
    with pytest.raises(InputError):
        symmetry_context(d, "explicit")


def test_unknown_group_mode_rejected():
    with pytest.raises(InputError):
        symmetry_context(lam_divisor(1), "everything")
