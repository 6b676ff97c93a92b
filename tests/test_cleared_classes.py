"""Each surface class is cleared to integers once, and the sweep halves in
integers.

A ToricDivisor keeps (N, N a, N walls) and a PicardClass (N, N coords) in
fields that take no part in equality, hashing or the repr, beside the
class's table.  A filled cache must not tell two equal classes apart, and
every way of building a new class (+, *, dataclasses.replace) must start
with empty caches that then fill from the new coefficients.

`_bisect` takes the bracket as integers over one denominator, counts its
halvings first and halves integers over one power-of-two multiple of that
denominator, asking an integer pair each time; `reference_bisect` is the
Fraction loop it replaced, and both must ask `feasible` the same questions
in the same order and return the same bracket.
"""

import dataclasses
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import reference_bisect, reference_pairing  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.picard import BlowupSurface, curve_table, pairing  # noqa: E402
from kproper.properness import _bisect  # noqa: E402
from kproper.rationals import clear_denominators  # noqa: E402
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    anticanonical_divisor,
    dp6_fan,
    intersection_number,
    is_ample,
    moment_polytope,
    wall_pairings,
    wall_table,
)

F = Fraction

DP6 = dp6_fan()
# on the hexagonal fan u_{i-1} + u_{i+1} = u_i, so D.D_i = a_{i-1} + a_{i+1} - a_i
DP6_COEFFS = [
    (1, F(6, 5), 1, F(6, 5), 1, F(6, 5)),
    (F(7, 3), F(5, 2), F(11, 4), F(13, 6), F(9, 4), F(5, 3)),
    (2, 2, 2, 2, 1, 2),
]


def dp6_walls(coeffs):
    return tuple(coeffs[i - 1] + coeffs[(i + 1) % 6] - coeffs[i] for i in range(6))


def filled_divisor(coeffs) -> ToricDivisor:
    d = ToricDivisor(DP6, coeffs)
    is_ample(d)
    wall_table(d)
    intersection_number(d, anticanonical_divisor(DP6))
    assert d._cleared is not None and d._table is not None
    return d


@pytest.mark.parametrize("coeffs", DP6_COEFFS)
def test_a_filled_toric_cache_keeps_the_class_identity(coeffs):
    filled = filled_divisor(coeffs)
    fresh = ToricDivisor(DP6, coeffs)
    assert fresh._cleared is None and fresh._table is None
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    polygon = moment_polytope(filled)
    before = moment_polytope.cache_info()
    assert moment_polytope(fresh) is polygon
    after = moment_polytope.cache_info()
    assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)


@pytest.mark.parametrize("coeffs", DP6_COEFFS)
def test_new_toric_classes_start_with_empty_caches(coeffs):
    d = filled_divisor(coeffs)
    shifted = tuple(F(c) + F(i, 7) for i, c in enumerate(coeffs))
    for new in (
        d + d, 3 * d, d * F(2, 9), -d, d - ToricDivisor(DP6, (F(1, 4),) * 6),
        dataclasses.replace(d, coeffs=shifted),
    ):
        assert new._cleared is None and new._table is None
        assert wall_pairings(new) == dp6_walls(new.coeffs)
        # D.E = sum e_i (D.D_i)
        for e in (new, d):
            assert intersection_number(new, e) == sum(
                a * w for a, w in zip(e.coeffs, dp6_walls(new.coeffs))
            )


def test_anticanonical_divisor_is_built_once_per_fan():
    assert anticanonical_divisor(DP6) is anticanonical_divisor(dp6_fan())
    assert anticanonical_divisor(DP6).coeffs == (1,) * 6


PICARD_COORDS = [
    (3, 1, 1, 1, 1, 1, 1, 1, F(9123, 10000)),
    (F(7, 2), 1, 1, 1, 1, 1, 1, 1, F(9, 10)),
    (F(5, 3), F(1, 2), F(1, 4)),
]


def filled_class(coords):
    d = BlowupSurface(len(coords) - 1).cls(coords)
    curve_table(d)
    pairing(d, d)
    assert d._cleared is not None and d._table is not None
    return d


@pytest.mark.parametrize("coords", PICARD_COORDS)
def test_a_filled_picard_cache_keeps_the_class_identity(coords):
    filled = filled_class(coords)
    fresh = filled.surface.cls(coords)
    assert fresh._cleared is None and fresh._table is None
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)


@pytest.mark.parametrize("coords", PICARD_COORDS)
def test_new_picard_classes_start_with_empty_caches(coords):
    d = filled_class(coords)
    k = d.surface.canonical()
    shifted = tuple(F(c) + F(i, 11) for i, c in enumerate(coords))
    for new in (d + d, 3 * d, d * F(2, 9), -d, d - k, dataclasses.replace(d, coords=shifted)):
        assert new._cleared is None and new._table is None
        assert pairing(new, new) == reference_pairing(new, new)
        assert pairing(new, d) == reference_pairing(new, d)
        table = curve_table(new)
        assert (table.l_sq, table.k_dot_l) == (
            reference_pairing(new, new), reference_pairing(k, new)
        )


def test_the_canonical_class_is_built_once_per_surface():
    for r in range(1, 9):
        k = BlowupSurface(r).canonical()
        assert k is BlowupSurface(r).canonical()
        assert k.coords == (-3,) + (-1,) * r


# ---------------------------------------------------------------------------
# integer bisection

starts = st.fractions(min_value=-3, max_value=3, max_denominator=120)
steps = st.fractions(min_value=F(1, 1000), max_value=1, max_denominator=1000)
tolerances = st.fractions(min_value=F(1, 10**7), max_value=2, max_denominator=10**7)


def recorded(predicate):
    calls = []

    def feasible(lam):
        calls.append(lam)
        return predicate(lam)

    return feasible, calls


def threshold(root, good_is_high):
    return lambda lam: (lam >= root) == good_is_high


def scattered(lam):
    """Not monotone, so every halving of the two routes must agree."""
    return lam.numerator * 7 % 5 < lam.denominator % 3 + 1


@settings(max_examples=200, deadline=None)
@given(starts, steps, tolerances, st.booleans(), st.integers(0, 1000), st.booleans())
# the acceptance settings: a 1/100 step down to 1e-6, on the lower and the upper bracket
@example(F(79, 100), F(1, 100), F(1, 10**6), False, 500, False)
@example(F(79, 100), F(1, 100), F(1, 10**6), True, 500, False)
# a tolerance that no halving of the step reaches exactly, and one wider than the step
@example(F(1, 3), F(1, 60), F(3, 10**6), True, 17, True)
@example(F(1, 3), F(1, 60), F(1, 7), False, 17, False)
@example(F(1, 3), F(1, 60), F(1, 60), False, 17, False)
def test_integer_bisection_matches_reference(start, step, tol, upper, where, monotone):
    # the lower bracket bisects (grid[i - 1], grid[i]), the upper one
    # (grid[j + 1], grid[j]), so there bad > good
    bad, good = (start + step, start) if upper else (start, start + step)
    if monotone:
        predicate = threshold(start + step * F(where, 1000), good_is_high=not upper)
    else:
        predicate = scattered
    feasible, calls = recorded(predicate)
    ref_feasible, ref_calls = recorded(predicate)
    den, (b, g) = clear_denominators((bad, good))
    bracket = _bisect(b, g, den, lambda p, q: feasible(Fraction(p, q)), tol)
    assert bracket == reference_bisect(bad, good, ref_feasible, tol)
    assert calls == ref_calls
    assert all(type(x) is Fraction for x in (*bracket, *calls))
    assert bracket[1] - bracket[0] <= tol
