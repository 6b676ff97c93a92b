"""The integer curve table and the integer cut loop against Fraction references.

The references below are the plain Fraction computations: one
reference_pairing() call per curve (the exceptional curves, and on one
blowup also the fiber H - E_1, which with E_1 spans the cone of curves),
and the cut loop over c0 + c1 * a > 0 that compares cuts as Fractions.
The integer paths must agree with them exactly, including which
constraint is reported on ties.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import anticanonical, reference_pairing  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.picard import (  # noqa: E402
    BlowupSurface,
    curve_matrix,
    curve_table,
    dp1_surface,
    exceptional_curves,
    is_ample_picard,
    slope_picard,
)
from kproper.properness import (  # noqa: E402
    Family,
    _backend,
    _combo_positive,
    _scale_interval_with_bindings,
    dp1_family,
    dp6_family,
)
from kproper.rationals import GeometryError, format_rational  # noqa: E402
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


@st.composite
def block_classes(draw, r=None):
    """Classes whose multiplicities take one value per block of a random
    partition of the r points, so that the table merges rows."""
    r = r or draw(st.integers(2, 8))
    n_blocks = draw(st.integers(1, r))
    block_of = draw(st.lists(st.integers(0, n_blocks - 1), min_size=r, max_size=r))
    values = draw(st.lists(scalars, min_size=n_blocks, max_size=n_blocks))
    return BlowupSurface(r).cls([draw(scalars)] + [values[b] for b in block_of])


def curve_label(c):
    return "curve (" + ", ".join(format_rational(x) for x in c.coords) + ")"


def reference_curves(r):
    """The exceptional curves, plus the fiber H - E_1 on one blowup, sorted."""
    extra = [BlowupSurface(1).cls((1, 1))] if r == 1 else []
    return sorted([*exceptional_curves(r), *extra], key=lambda c: c.coords)


def reference_combo_positive(backend, x, y, strict):
    combo = F(x) * backend + F(y) * backend.surface.canonical()
    curves = reference_curves(backend.surface.r)
    slacks = [reference_pairing(combo, c) for c in curves]
    margin = min(slacks)
    binding = curve_label(curves[slacks.index(margin)])
    self_int = reference_pairing(combo, combo)
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


def first_occurrences(rows):
    """(label, values) rows with equal values merged under the first label."""
    first = {}
    for label, values in rows:
        first.setdefault(values, label)
    return [(label, values) for values, label in first.items()]


@settings(max_examples=150, deadline=None)
@given(picard_classes())
def test_cleared_pairings_match_reference(d):
    table = curve_table(d)
    assert table.den > 0
    assert all(isinstance(x, int) for x in table.nums + table.k_nums)
    k = d.surface.canonical()
    expected = [
        (curve_label(c), (reference_pairing(d, c), reference_pairing(k, c)))
        for c in reference_curves(d.surface.r)
    ]
    got = [
        (label, (F(x, table.den), F(y, table.den)))
        for label, x, y in zip(table.labels, table.nums, table.k_nums)
    ]
    assert len(got) <= len(expected)
    assert first_occurrences(got) == first_occurrences(expected)


@settings(max_examples=150, deadline=None)
@given(picard_classes(), scalars, scalars, st.booleans())
def test_combo_positive_matches_reference(d, x, y, strict):
    assert _combo_positive(d, x, y, strict) == reference_combo_positive(d, x, y, strict)


@settings(max_examples=150, deadline=None)
@given(block_classes(), scalars, scalars, st.booleans())
@example(dp1_surface().cls((3,) + (1,) * 8), 1, 1, True)
@example(dp1_surface().cls((3,) + (1,) * 7 + (F(9, 10),)), 1, -1, False)
def test_reduced_table_decides_like_every_curve(d, x, y, strict):
    assert _combo_positive(d, x, y, strict) == reference_combo_positive(d, x, y, strict)
    k = d.surface.canonical()
    pairings = [reference_pairing(d, c) for c in reference_curves(d.surface.r)]
    ample = min(pairings) > 0
    assert is_ample_picard(d) == ample
    if ample:
        assert slope_picard(d) == -reference_pairing(k, d) / reference_pairing(d, d)
    else:
        with pytest.raises(GeometryError, match="ample"):
            slope_picard(d)


def test_symmetric_dp1_classes_keep_only_their_distinct_rows():
    surface = dp1_surface()
    midpoint = surface.cls((3,) + (1,) * 7 + (F(9123, 10000),))
    assert len(curve_table(midpoint).labels) == 15
    # one block: a row per degree, under its first curve
    assert len(curve_table(anticanonical(surface)).labels) == 7
    assert len(curve_table(surface.cls(range(1, 10))).labels) == 240


def reference_pencil_rows(family):
    """(label, (base.C, slope.C, K.C)) over every cone curve, with equal
    rows merged under the first label."""
    k = family.base.surface.canonical()
    return first_occurrences(
        (curve_label(c), tuple(reference_pairing(x, c) for x in (family.base, family.slope, k)))
        for c in reference_curves(family.base.surface.r)
    )


@st.composite
def picard_pencils(draw):
    r = draw(st.integers(2, 8))
    return Family("random", draw(block_classes(r)), draw(block_classes(r)))


@settings(max_examples=100, deadline=None)
@given(picard_pencils())
@example(dp1_family())
@example(Family("tie", anticanonical(dp1_surface()), dp1_surface().cls((0,) * 8 + (1,))))
@example(Family("split", dp1_surface().cls((3, 1, 1, 1, 1, 2, 2, 2, 2)),
                dp1_surface().cls((0, 1, 0, 1, 0, 1, 0, 1, 0))))
def test_pencil_rows_are_the_distinct_rows_of_every_curve(family):
    labels, rows = family.pairing_data
    expected = reference_pencil_rows(family)
    assert labels == tuple(label for label, _ in expected)
    pairs = [(x, y) for row, (_, ref) in zip(rows, expected) for x, y in zip(row, ref)]
    assert all((x == 0) == (y == 0) for x, y in pairs)
    scales = {x / y for x, y in pairs if y}
    assert len(scales) == 1 and scales.pop() > 0


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
        (curve_label(c), reference_pairing(cls, c), reference_pairing(k, c))
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
