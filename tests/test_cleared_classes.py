"""Each surface class stores its cleared integers as its value, and the
sweep halves in integers.

A ToricDivisor is (fan, N, N a) and a PicardClass (surface, N, N coords),
with N the least common denominator of the rationals it was built from;
equality, hashing and the repr read these, and `coeffs` / `coords` build
Fractions only on request.  The wall pairings N D.D_i, the wall or curve
table and an ample class's moment polygon are derived from the value and
kept on first use in fields that take no part in equality, hashing or the
repr.  A filled cache must not tell two equal classes apart, and every
way of building a new class (+, *, -, dataclasses.replace) must start
with empty caches.  A class built from rationals, by `Family.class_at` or
by arithmetic must be the same value, and the probe path's class builders
must build no Fraction at all.

`_bisect` takes the bracket as integers over one denominator, counts its
halvings first and halves integers over one power-of-two multiple of that
denominator, asking an integer pair each time; `reference_bisect` is the
Fraction loop it replaced, and both must ask `feasible` the same questions
in the same order and return the same bracket.
"""

import contextlib
import dataclasses
import io
import math
import operator
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import reference_bisect, reference_pairing  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.cli import main  # noqa: E402
from kproper.picard import BlowupSurface, curve_labels, curve_table, pairing  # noqa: E402
from kproper.properness import Family, _bisect, dp1_family, dp6_family  # noqa: E402
from kproper.rationals import ValidationError, clear_denominators  # noqa: E402
from kproper.toric import (  # noqa: E402
    Fan,
    ToricDivisor,
    anticanonical_divisor,
    dp6_fan,
    intersection_number,
    is_ample,
    moment_polytope,
    p2_fan,
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
    # past the memo, which may hold the polygon of an equal class
    moment_polytope.__wrapped__(d)
    assert d._walls is not None and d._table is not None
    assert (d._polygon is not None) == is_ample(d)
    return d


@pytest.mark.parametrize("coeffs", DP6_COEFFS)
def test_a_filled_toric_cache_keeps_the_class_identity(coeffs):
    filled = filled_divisor(coeffs)
    fresh = ToricDivisor(DP6, coeffs)
    assert fresh._walls is None and fresh._table is None and fresh._polygon is None
    assert (filled.den, filled.nums) == (fresh.den, fresh.nums) == clear_denominators(coeffs)
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
        assert new._walls is None and new._table is None and new._polygon is None
        assert (new.den, new.nums) == clear_denominators(new.coeffs)
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
    assert d._table is not None
    return d


@pytest.mark.parametrize("coords", PICARD_COORDS)
def test_a_filled_picard_cache_keeps_the_class_identity(coords):
    filled = filled_class(coords)
    fresh = filled.surface.cls(coords)
    assert fresh._table is None
    assert (filled.den, filled.nums) == (fresh.den, fresh.nums) == clear_denominators(coords)
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)


@pytest.mark.parametrize("coords", PICARD_COORDS)
def test_new_picard_classes_start_with_empty_caches(coords):
    d = filled_class(coords)
    k = d.surface.canonical()
    shifted = tuple(F(c) + F(i, 11) for i, c in enumerate(coords))
    for new in (d + d, 3 * d, d * F(2, 9), -d, d - k, dataclasses.replace(d, coords=shifted)):
        assert new._table is None
        assert (new.den, new.nums) == clear_denominators(new.coords)
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


def test_classes_of_two_kinds_or_on_two_varieties_do_not_add():
    toric, picard = ToricDivisor(DP6, (1,) * 6), BlowupSurface(2).cls((1, 0, 0))
    for x, y, message in (
        (toric, picard, "cannot add a PicardClass to a ToricDivisor"),
        (picard, toric, "cannot add a ToricDivisor to a PicardClass"),
        (toric, ToricDivisor(p2_fan(), (1, 1, 1)), "divisors live on different fans"),
        (picard, BlowupSurface(3).cls((1, 0, 0, 0)), "classes live on different surfaces"),
    ):
        for combine in (operator.add, operator.sub):
            with pytest.raises(ValidationError, match=message):
                combine(x, y)


# ---------------------------------------------------------------------------
# one value however a class is built

P1_CUBED = Fan(
    3,
    ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    tuple((i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)),
)
FANS = {"p2": p2_fan(), "dp6": DP6, "P1^3": P1_CUBED}

values = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=40),
)
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=30)
positive = st.fractions(min_value=F(1, 60), max_value=5, max_denominator=60)


def check_value(cls, built, rationals, read):
    """cls is `built`, the class built from `rationals`: equal, with equal
    hash, repr and Fraction coordinates, stored over the least common
    denominator of the rationals."""
    assert cls == built and hash(cls) == hash(built) and repr(cls) == repr(built)
    expected = tuple(map(F, rationals))
    assert read(cls) == read(built) == expected
    den = math.lcm(*(x.denominator for x in expected))
    assert (cls.den, cls.nums) == (den, tuple(int(x * den) for x in expected))


def built_every_way(build, a, b, c, lam, t):
    """(class, the rationals it should be) for every way of building a class
    from the classes with rationals a and b, a scalar c, lambda and a scale
    t > 0."""
    x, y = build(a), build(b)
    pencil = Family("pencil", x, y)
    return [
        (x, a),
        (x + y, [p + q for p, q in zip(a, b)]),
        (x - y, [p - q for p, q in zip(a, b)]),
        (-x, [-p for p in a]),
        (c * x, [c * p for p in a]),
        (x * c, [c * p for p in a]),
        (pencil.class_at(lam), [p + lam * q for p, q in zip(a, b)]),
        (pencil.class_at(lam) * c, [c * (p + lam * q) for p, q in zip(a, b)]),
        (pencil.class_at(lam) * t, [t * (p + lam * q) for p, q in zip(a, b)]),
    ]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FANS)), st.data(), scalars, scalars, positive)
@example("dp6", None, F(-1), F(6, 5), F(3, 2))
def test_toric_classes_are_one_value_however_built(name, data, c, lam, t):
    fan = FANS[name]
    if data is None:
        a, b = (1, 0) * 3, (0, 1) * 3
    else:
        a, b = (data.draw(st.lists(values, min_size=fan.n_rays, max_size=fan.n_rays))
                for _ in range(2))
    build = lambda v: ToricDivisor(fan, v)  # noqa: E731
    cases = built_every_way(build, a, b, c, lam, t)
    x = build(a)
    cases.append((dataclasses.replace(x, coeffs=b), b))
    for cls, rationals in cases:
        check_value(cls, build(rationals), rationals, lambda d: d.coeffs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data(), scalars, scalars, positive)
def test_picard_classes_are_one_value_however_built(r, data, c, lam, t):
    surface = BlowupSurface(r)
    a, b = (data.draw(st.lists(values, min_size=r + 1, max_size=r + 1)) for _ in range(2))
    cases = built_every_way(surface.cls, a, b, c, lam, t)
    cases.append((dataclasses.replace(surface.cls(a), coords=b), b))
    for cls, rationals in cases:
        check_value(cls, surface.cls(rationals), rationals, lambda d: d.coords)


def fractions_built(call) -> int:
    """The number of Fraction.__new__ calls that call() makes, by a profile
    hook that changes nothing it counts."""
    code, count = Fraction.__new__.__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize("lam, mid", [(F(1), F(11, 10)), (F(9123, 10000), F(7, 6))])
def test_the_probe_path_builds_its_classes_without_fractions(lam, mid):
    dp6, dp1 = dp6_family(), dp1_family()
    calls = {
        "dp6 class_at": lambda: dp6.class_at(lam) * mid,
        "dp1 class_at": lambda: dp1.class_at(lam) * mid,
        # the 240 curves and their labels are formatted from their integers
        "picard curves --r 8": lambda: main(["picard", "curves", "--r", "8"]),
        "curve labels": lambda: curve_labels.__wrapped__(8),
    }
    # the families' integer pencils and the curves are built on first use
    with contextlib.redirect_stdout(io.StringIO()):
        for call in calls.values():
            call()
        built = {name: fractions_built(call) for name, call in calls.items()}
    assert built == dict.fromkeys(calls, 0)
    # the count sees Fractions where they are built
    assert fractions_built(lambda: (dp6.class_at(lam) * mid).coeffs) == 6
    assert fractions_built(lambda: (dp1.class_at(lam) * mid).coords) == 9


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
