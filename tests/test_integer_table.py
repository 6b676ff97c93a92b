"""The integer curve table and the integer cut loop against Fraction references.

The references below are the plain Fraction computations: one pairing()
call per curve (the exceptional curves, and on one blowup also the fiber
H - E_1, which with E_1 spans the cone of curves), and the cut loop over c0 + c1 * a > 0 that compares cuts
as Fractions.  The integer paths must agree with them exactly, including
which constraint is reported on ties.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.picard import (  # noqa: E402
    BlowupSurface,
    curve_matrix,
    curve_table,
    exceptional_curves,
    pairing,
)
from kproper.properness import (  # noqa: E402
    _backend,
    _combo_positive,
    _scale_interval_with_bindings,
    dp1_family,
    dp6_family,
)
from kproper.rationals import format_rational  # noqa: E402
from kproper.toric import ToricDivisor, canonical_divisor, intersection_number  # noqa: E402

F = Fraction

# small integers make equal margins (ties) common; fractions cover clearing
scalars = st.one_of(
    st.integers(-4, 6).map(F),
    st.fractions(min_value=-20, max_value=20, max_denominator=100),
)


@st.composite
def picard_classes(draw):
    r = draw(st.integers(1, 8))
    return BlowupSurface(r).cls(draw(st.lists(scalars, min_size=r + 1, max_size=r + 1)))


def curve_label(c):
    return "curve (" + ", ".join(format_rational(x) for x in c.coords) + ")"


def reference_curves(r):
    """The exceptional curves, plus the fiber H - E_1 on one blowup, sorted."""
    extra = [BlowupSurface(1).cls((1, 1))] if r == 1 else []
    return sorted([*exceptional_curves(r), *extra], key=lambda c: c.coords)


def reference_combo_positive(backend, x, y, strict):
    combo = F(x) * backend + F(y) * backend.surface.canonical()
    curves = reference_curves(backend.surface.r)
    slacks = [pairing(combo, c) for c in curves]
    margin = min(slacks)
    binding = curve_label(curves[slacks.index(margin)])
    self_int = pairing(combo, combo)
    holds = (margin > 0 and self_int > 0) if strict else (margin >= 0 and self_int >= 0)
    if margin > 0 and self_int <= 0:
        binding = "self-intersection safeguard (D.D > 0)"
        margin = self_int
    return holds, binding, margin


def test_curve_matrix_rows_are_the_curves():
    for r in range(1, 9):
        rows = curve_matrix(r)
        curves = reference_curves(r)
        assert len(rows) == len(curves)
        for row, c in zip(rows, curves):
            assert row == (c.coords[0],) + tuple(-m for m in c.coords[1:])


@settings(max_examples=150, deadline=None)
@given(picard_classes())
def test_cleared_pairings_match_reference(d):
    nums, den = curve_table(d).nums, curve_table(d).den
    assert den > 0
    assert all(isinstance(x, int) for x in nums)
    expected = [pairing(d, c) for c in reference_curves(d.surface.r)]
    assert [F(x, den) for x in nums] == expected


@settings(max_examples=150, deadline=None)
@given(picard_classes(), scalars, scalars, st.booleans())
def test_combo_positive_matches_reference(d, x, y, strict):
    assert _combo_positive(d, x, y, strict) == reference_combo_positive(d, x, y, strict)


def reference_rows(family, lam):
    """(label, L_lambda.C, K.C) by direct Fraction pairings."""
    cls = family.class_at(lam)
    if isinstance(cls, ToricDivisor):
        fan, k = cls.fan, canonical_divisor(cls.fan)
        rows = []
        for i in range(fan.n_rays):
            wall = ToricDivisor(fan, tuple(F(int(j == i)) for j in range(fan.n_rays)))
            rows.append(
                (f"wall at ray {i}", intersection_number(cls, wall), intersection_number(k, wall))
            )
        return rows
    k = cls.surface.canonical()
    return [
        (curve_label(c), pairing(cls, c), pairing(k, c))
        for c in reference_curves(cls.surface.r)
    ]


def reference_cut_loop(family, lam, epsilon):
    n = 2
    alpha1, _, _ = family.alpha_unscaled(lam)
    mu1 = _backend(family.class_at(lam)).mu()
    bounds = [
        (F(0), F(1), "positive scale"),
        (F(n + 1, n) * alpha1 / epsilon, F(-1), "condition (1): alpha bound"),
    ]
    for label, lc, kc in reference_rows(family, lam):
        bounds.append((kc, epsilon * lc, f"condition (2): {label}"))
        bounds.append((-n * mu1 * lc - (n - 1) * kc, epsilon * lc, f"condition (3): {label}"))
    lo, hi = F(0), None
    lo_label, hi_label = "positive scale", None
    for c0, c1, label in bounds:
        if c1 > 0:
            cut = -c0 / c1
            if cut > lo:
                lo, lo_label = cut, label
        elif c1 < 0:
            cut = -c0 / c1
            if hi is None or cut < hi:
                hi, hi_label = cut, label
        elif c0 <= 0:
            return (F(0), F(0)), label, label
    return (lo, hi), lo_label, hi_label


def check_cut_loop(family, lam, epsilon):
    interval, lo_label, hi_label = _scale_interval_with_bindings(family, lam, epsilon)
    expected = reference_cut_loop(family, lam, epsilon)
    assert ((interval.lo, interval.hi), lo_label, hi_label) == expected


epsilons = st.fractions(min_value=F(1, 20), max_value=3, max_denominator=60)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 1000), max_value=F(1333, 1000), max_denominator=1000), epsilons)
@example(F(4, 5), F(1))
@example(F(10, 9), F(1))
@example(F(1), F(1))
@example(F(1, 2), F(1, 3))
def test_dp1_cut_loop_matches_reference(lam, epsilon):
    check_cut_loop(dp1_family(), lam, epsilon)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=F(101, 200), max_value=F(399, 200), max_denominator=200), epsilons)
@example(F(5, 6), F(1))
@example(F(6, 5), F(1))
@example(F(1), F(1))
def test_dp6_cut_loop_matches_reference(lam, epsilon):
    check_cut_loop(dp6_family(), lam, epsilon)
