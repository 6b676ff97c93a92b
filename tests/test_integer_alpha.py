"""The integer alpha path against the Fraction reference in helpers.py.

`moment_polytope` keeps an ample surface polygon as integer points over
one denominator, and `symmetry_context`, `translate`, `fixed_subpolytope`
and `alpha_invariant` carry that integer data to the result.
`reference_symmetry` takes the Fraction route.  The classes here are random
ample classes on p2, dp6, the 7-ray fan and an 11-ray fan.  Half of them
are averaged over a random group of fan automorphisms, so the stabilizer
may fix a point, a line or the whole plane.  In full, torus and explicit
group mode, the alpha, the stabilizer, the centered coefficients and the
centered vertex cycle must all equal the reference's.  The 2x2 path of
`solve_exact` is checked against `solve_linear_system`.
"""

import itertools
from fractions import Fraction
from math import floor

import pytest

pytest.importorskip("hypothesis")
from helpers import group_closure, reference_symmetry  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_wall_pairings import scalars, seven_ray_fan  # noqa: E402

from kproper.alpha import alpha_invariant, symmetry_context  # noqa: E402
from kproper.rationals import solve_exact, solve_linear_system  # noqa: E402
from kproper.toric import (  # noqa: E402
    Fan,
    ToricDivisor,
    dp6_fan,
    fan_automorphisms,
    is_ample,
    p2_fan,
    ray_permutation,
    wall_pairings,
)

F = Fraction
EYE = ((1, 0), (0, 1))

ELEVEN_RAYS = ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0), (-2, -1), (-1, -1),
               (0, -1), (1, -1))

# each fan with one ample class on it
FANS = {
    "p2": (p2_fan(), (0, 0, 1)),
    "dp6": (dp6_fan(), (0, 0, 1, 2, 2, 1)),
    "7-ray": (seven_ray_fan(), (0, 1, 2, 3, 3, 1, 0)),
    "11-ray": (
        Fan(2, ELEVEN_RAYS, tuple((i, (i + 1) % 11) for i in range(11))),
        (1, 4, 7, 18, 12, 19, 10, 12, 4, 0, 0),
    ),
}


def averaged(fan, coeffs, group):
    """The coefficients averaged over the ray permutations of the group,
    a class that every element of the group fixes."""
    perms = [ray_permutation(fan, g) for g in group]
    return tuple(sum(F(coeffs[p[i]]) for p in perms) / len(perms) for i in range(fan.n_rays))


def symmetric_ample(fan, ample, coeffs, group):
    """The coefficients averaged over the group, plus the least integer
    multiple of the averaged ample class that makes the sum ample."""
    raw, ample = averaged(fan, coeffs, group), averaged(fan, ample, group)
    walls = zip(wall_pairings(ToricDivisor(fan, raw)), wall_pairings(ToricDivisor(fan, ample)))
    shift = max(floor(-p / q) + 1 for p, q in walls)
    return ToricDivisor(fan, tuple(a + shift * b for a, b in zip(raw, ample)))


@st.composite
def classes(draw):
    """(class, generators): a random ample class, averaged over the group
    that the generators span, and those generators (nonempty)."""
    fan, ample = FANS[draw(st.sampled_from(sorted(FANS)))]
    generators = draw(st.lists(st.sampled_from(fan_automorphisms(fan)), min_size=1, max_size=2))
    group = group_closure(generators) if draw(st.booleans()) else (EYE,)
    coeffs = draw(st.lists(scalars, min_size=fan.n_rays, max_size=fan.n_rays))
    return symmetric_ample(fan, ample, coeffs, group), generators if len(group) > 1 else [EYE]


def centered_cycle(ctx):
    """The centered polygon's recorded cycle, as Fraction points."""
    den, cycle = ctx.centered_polytope._cycle_cache
    return tuple(tuple(F(x, den) for x in v) for v in cycle)


@settings(max_examples=120, deadline=None)
@given(classes(), st.sampled_from(("full", "torus", "explicit")))
@example((ToricDivisor(dp6_fan(), (F(1), F(6, 5)) * 3), [((0, -1), (1, -1))]), "full")
@example((ToricDivisor(dp6_fan(), (F(1),) * 6), [((0, -1), (1, -1))]), "explicit")
@example((ToricDivisor(p2_fan(), (F(1, 3), F(2, 7), F(5))), [((1, 0), (0, 1))]), "torus")
def test_integer_alpha_matches_the_fraction_route(case, mode):
    d, generators = case
    assert is_ample(d)
    ctx = symmetry_context(d, mode, explicit_group=generators)
    alpha, stabilizer, coeffs, cycle = reference_symmetry(d, mode, generators)
    assert ctx.stabilizer == stabilizer
    assert ctx.centered.coeffs == coeffs
    assert centered_cycle(ctx) == cycle
    assert alpha_invariant(ctx) == alpha


@pytest.mark.parametrize("name", sorted(FANS))
def test_every_cyclic_symmetry_matches_the_fraction_route(name):
    # one lopsided class per fan, averaged over the group of each fan
    # automorphism, so every fixed point, line and plane occurs
    fan, ample = FANS[name]
    coeffs = [F(i * i % 7, i + 1) for i in range(fan.n_rays)]
    for g in fan_automorphisms(fan):
        d = symmetric_ample(fan, ample, coeffs, group_closure([g]))
        for mode in ("full", "torus", "explicit"):
            ctx = symmetry_context(d, mode, explicit_group=[g])
            alpha, stabilizer, centered, cycle = reference_symmetry(d, mode, [g])
            assert ctx.stabilizer == stabilizer
            assert (ctx.centered.coeffs, centered_cycle(ctx)) == (centered, cycle)
            assert alpha_invariant(ctx) == alpha


def test_solve_exact_two_by_two_matches_elimination():
    entries = (-2, -1, 0, 1, 3)
    rhs = (F(0), F(5), F(-7, 3), F(2, 9))
    seen = set()
    for a in itertools.product(entries, repeat=4):
        matrix = (a[:2], a[2:])
        d = a[0] * a[3] - a[1] * a[2]
        for b in itertools.product(rhs, repeat=2):
            integral = tuple(int(x) if x.denominator == 1 else x for x in b)
            x = solve_exact(matrix, integral)
            reference = solve_linear_system(matrix, b)
            if d == 0:
                # singular: inconsistent, or a line of solutions
                assert x is None
                assert reference is None or reference[1]
                seen.add("singular")
                continue
            assert x == reference[0] and not reference[1]
            if abs(d) == 1 and all(type(v) is int for v in integral):
                assert all(type(v) is int for v in x)
                seen.add("unimodular")
            else:
                assert all(type(v) is Fraction for v in x)
                seen.add("rational rhs" if any(type(v) is not int for v in integral)
                         else "non-unimodular")
    assert seen == {"singular", "unimodular", "rational rhs", "non-unimodular"}
