"""The cached integer curve table against Fraction reference loops.

Every Picard positivity question reads one integer table per class:
ampleness, nefness, the slope, each combination x L + y K in the checker,
and the family probes, which read integer rows and forms precomputed once
per family.  The references below pair classes with the exceptional curves,
and on one blowup also with the fiber H - E_1, one Fraction at a time.
They also test D.D > 0, which the table does not, so agreement shows
that D.D never decides.

The symmetry tests permute E_1..E_r and apply the Cremona involution
d' = 2d - m_1 - m_2 - m_3, m_i' = d - m_j - m_k.  Both preserve the
intersection form and K, so they must map the curve set onto itself and
leave every check verdict and margin unchanged.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import family_mu, reference_pairing  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_integer_table import reference_curves  # noqa: E402

from kproper.picard import (  # noqa: E402
    BlowupSurface,
    curve_table,
    exceptional_curves,
    is_ample_picard,
    pairing,
    slope_picard,
)
from kproper.properness import (  # noqa: E402
    Family,
    SuppliedAlpha,
    _combo_positive,
    check_properness,
    dp1_family,
)
from kproper.rationals import GeometryError, format_rational  # noqa: E402

F = Fraction
SAFEGUARD = "self-intersection safeguard (D.D > 0)"

small = st.fractions(min_value=-2, max_value=2, max_denominator=12)
scalars = st.one_of(
    st.integers(-4, 6).map(F),
    st.fractions(min_value=-20, max_value=20, max_denominator=100),
)
nudge = st.fractions(min_value=F(-1, 8), max_value=F(1, 8), max_denominator=24)
positive = st.fractions(min_value=F(1, 50), max_value=4, max_denominator=60)


@st.composite
def arbitrary_classes(draw):
    r = draw(st.integers(1, 8))
    return BlowupSurface(r).cls(draw(st.lists(scalars, min_size=r + 1, max_size=r + 1)))


@st.composite
def near_anticanonical(draw):
    """t(-K) plus a shift of up to t/8 per coordinate: often ample, and often
    close to a wall or to the safeguard."""
    r = draw(st.integers(1, 8))
    t = draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=20))
    shift = draw(st.lists(nudge, min_size=r + 1, max_size=r + 1))
    return BlowupSurface(r).cls([t * (3 + shift[0])] + [t * (1 + s) for s in shift[1:]])


picard_classes = st.one_of(arbitrary_classes(), near_anticanonical())


def curve_label(c):
    return "curve (" + ", ".join(format_rational(x) for x in c.coords) + ")"


def reference_pairings(d):
    return [reference_pairing(d, c) for c in reference_curves(d.surface.r)]


def reference_ample(d):
    return min(reference_pairings(d)) > 0 and reference_pairing(d, d) > 0


def reference_slope(d):
    if not reference_ample(d):
        raise GeometryError("slope requires an ample class")
    return -reference_pairing(d.surface.canonical(), d) / reference_pairing(d, d)


def reference_combo(backend, x, y, strict):
    combo = F(x) * backend + F(y) * backend.surface.canonical()
    curves = reference_curves(backend.surface.r)
    slacks = [reference_pairing(combo, c) for c in curves]
    margin = min(slacks)
    binding = curve_label(curves[slacks.index(margin)])
    self_int = reference_pairing(combo, combo)
    holds = (margin > 0 and self_int > 0) if strict else (margin >= 0 and self_int >= 0)
    if margin > 0 and self_int <= 0:
        binding, margin = SAFEGUARD, self_int
    return holds, binding, margin


@st.composite
def class_pairs(draw):
    """Two classes on one blowup, r = 1..8; the coordinates mix integers
    and fractions with unequal denominators."""
    r = draw(st.integers(1, 8))
    surface = BlowupSurface(r)
    return tuple(
        surface.cls(draw(st.lists(scalars, min_size=r + 1, max_size=r + 1))) for _ in range(2)
    )


@settings(max_examples=150, deadline=None)
@given(class_pairs())
@example((BlowupSurface(8).cls((F(7, 2), 1, 1, 1, 1, 1, 1, 1, F(9, 10))),
          BlowupSurface(8).cls((F(1, 3), F(5, 7), 0, 0, 0, 0, 0, F(-2, 9), 1))))
@example((BlowupSurface(1).cls((F(1, 2), F(2, 3))), BlowupSurface(1).cls((F(3, 4), 0))))
def test_pairing_and_table_forms_match_reference(classes):
    a, b = classes
    k = a.surface.canonical()
    assert pairing(a, b) == reference_pairing(a, b) == pairing(b, a)
    for d in (a, b):
        assert pairing(d, d) == reference_pairing(d, d)
        table = curve_table(d)
        assert table.l_sq == reference_pairing(d, d)
        assert table.k_dot_l == reference_pairing(k, d)


@settings(max_examples=80, deadline=None)
@given(picard_classes, positive, scalars, st.booleans())
@example(BlowupSurface(1).cls((2, 1)), F(3, 2), F(-11, 6), True)
@example(BlowupSurface(8).cls((3,) + (1,) * 8), F(1), F(0), False)
def test_combo_positive_matches_reference(d, epsilon, f, strict):
    for x, y in ((1, 0), (epsilon, 1), (f, -1), (0, 1), (0, -1)):
        assert _combo_positive(d, x, y, strict) == reference_combo(d, x, y, strict), (x, y)


@settings(max_examples=100, deadline=None)
@given(picard_classes)
@example(BlowupSurface(1).cls((F(1, 2), 1)))
@example(BlowupSurface(8).cls((3,) + (1,) * 7 + (F(4, 3),)))
def test_positivity_predicates_match_reference(d):
    pairings = reference_pairings(d)
    self_int = reference_pairing(d, d)
    assert is_ample_picard(d) == (min(pairings) > 0 and self_int > 0)
    assert (min(curve_table(d).nums) >= 0) == (min(pairings) >= 0 and self_int >= 0)
    # Kleiman: rows that span the cone of curves leave D.D nothing to decide
    assert not (min(pairings) > 0 and self_int <= 0)
    if reference_ample(d):
        assert slope_picard(d) == reference_slope(d)
    else:
        with pytest.raises(GeometryError):
            slope_picard(d)


@st.composite
def picard_families(draw):
    if draw(st.booleans()):
        return dp1_family()
    d = draw(picard_classes)
    r = d.surface.r
    slope = tuple(draw(st.lists(small, min_size=r + 1, max_size=r + 1)))
    return Family("random", d, d.surface.cls(slope))


lambdas = st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=1000)


@settings(max_examples=100, deadline=None)
@given(picard_families(), lambdas)
@example(dp1_family(), F(4, 3))
@example(dp1_family(), F(0))
@example(dp1_family(), F(4, 5))
# on the blowup at one point, (lambda + 1/2) H - E_1 pairs positively with
# E_1 for every lambda, but with the fiber H - E_1 and with itself only
# past lambda = 1/2
@example(Family("r1", BlowupSurface(1).cls((F(1, 2), 1)), BlowupSurface(1).cls((1, 0))), F(0))
@example(Family("r1", BlowupSurface(1).cls((F(1, 2), 1)), BlowupSurface(1).cls((1, 0))), F(1, 2))
def test_family_probe_matches_reference(family, lam):
    cls = family.class_at(lam)
    ample = reference_ample(cls)
    assert family.is_ample_at(lam) == ample
    if ample:
        assert family_mu(family, lam) == reference_slope(cls)


# ---------------------------------------------------------------------------
# symmetries of the blowup lattice


def permute(coords, perm):
    return (coords[0],) + tuple(coords[1 + i] for i in perm)


def cremona(coords, i, j, k):
    d, m = coords[0], list(coords[1:])
    mi, mj, mk = m[i], m[j], m[k]
    m[i], m[j], m[k] = d - mj - mk, d - mi - mk, d - mi - mj
    return (2 * d - mi - mj - mk,) + tuple(m)


@st.composite
def symmetries(draw, r):
    """A coordinate map: a permutation of E_1..E_r, or (r >= 3) the Cremona
    involution on three distinct points."""
    if r >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(r)))[:3]
        return lambda coords: cremona(coords, i, j, k)
    perm = draw(st.permutations(range(r)))
    return lambda coords: permute(coords, perm)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symmetries_map_the_curve_set_onto_itself(data):
    r = data.draw(st.integers(1, 8))
    move = data.draw(symmetries(r))
    curves = {c.coords for c in exceptional_curves(r)}
    assert {move(c) for c in curves} == curves
    k = BlowupSurface(r).canonical().coords
    assert move(k) == k


def verdict_summary(d, epsilon, alpha):
    """The report with binding labels dropped (they name curves, which the
    symmetry moves), or the error it raised."""
    try:
        report = check_properness(d, epsilon, SuppliedAlpha(alpha))
    except GeometryError as exc:
        return str(exc)
    return (
        report.verdict,
        report.mu,
        tuple((c.name, c.holds, tuple(sorted(c.values.items())), c.binding == SAFEGUARD)
              for c in report.conditions),
    )


@settings(max_examples=40, deadline=None)
@given(st.data(), positive, st.fractions(min_value=F(1, 10), max_value=2, max_denominator=30))
def test_symmetries_leave_check_verdicts_unchanged(data, epsilon, alpha):
    d = data.draw(near_anticanonical())
    move = data.draw(symmetries(d.surface.r))
    image = d.surface.cls(move(d.coords))
    assert pairing(image, image) == pairing(d, d)
    assert verdict_summary(image, epsilon, alpha) == verdict_summary(d, epsilon, alpha)
