"""Decisions by integer alpha pieces in family sweeps.

Every sweep family carries alpha(L_lambda) = den / max(e + f lambda) as
integer pieces.  `sweep_lambda` decides grid points (piece by piece) and
bisection points by the family's certificate, which clears the comparisons
against them to integer polynomials, and runs the exact, certified probe
only at both ends of every bracket, at the witness and at the endpoint
checks.
These tests hold it to:

- the feasible windows of dp6 and dp1, derived here with sympy from the
  geometry alone (no `kproper` code), which the sweep brackets must contain;
- the per-point probe, on random Picard and toric pencils, at random
  lambdas and at bisection points near each change of verdict;
- the probe's own alpha, which its cap must match;
- exact probes at every bracket end, independence of epsilon, and
  byte-equal sweeps with every point probed, on grids that land on every
  piece end of the certificate.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from helpers import DERVAN  # noqa: E402
from test_family_tables import AMPLE  # noqa: E402
from test_wall_pairings import FANS  # noqa: E402

from kproper import properness  # noqa: E402
from kproper.cli import render_report  # noqa: E402
from kproper.picard import BlowupSurface, PicardClass, is_ample_picard  # noqa: E402
from kproper.properness import (  # noqa: E402
    Family,
    LambdaCertificate,
    _feasibility,
    _scale_interval_with_bindings,
    dervan_alpha_bound,
    dp1_family,
    dp6_family,
    feasible_scale_interval,
    sweep_lambda,
)
from kproper.rationals import GeometryError, InputError  # noqa: E402
from kproper.toric import ToricDivisor, dp6_fan  # noqa: E402

F = Fraction
LAM = sp.symbols("lam", real=True)
WINDOWS = {"dp6": (F(5, 6), F(6, 5)), "dp1": (F(4, 5), F(10, 9))}
SWEEPS = {"dp6": (dp6_family, F(1, 2), F(2)), "dp1": (dp1_family, F(0), F(4, 3))}


# ---------------------------------------------------------------------------
# the windows from the geometry, with sympy


def _window(l_dot_c, k_dot_c, l_sq, k_dot_l, pieces, ample):
    """{lambda in ample : every cut t > c lies below the cap 3/(2 m) for
    each alpha piece m}, with mu = -K.L / L^2 and the cuts of conditions
    (2) and (3), -K.C / L.C and 2 mu + K.C / L.C.  Every denominator is
    positive on the ample range, so each inequality is cleared to a
    polynomial one."""
    mu = -k_dot_l / l_sq
    cuts = {-k / c for c, k in zip(l_dot_c, k_dot_c)} | {2 * mu + k / c for c, k in zip(l_dot_c, k_dot_c)}
    feasible = ample
    for cut in cuts:
        for m in pieces:
            num, den = sp.fraction(sp.together(sp.Rational(3, 2) - cut * m))
            positive = sp.solve_poly_inequality(sp.Poly(num * den, LAM), ">")
            feasible = feasible.intersect(sp.Union(*positive))
    return feasible


def _dp6_window():
    # hexagonal fan: u_{i-1} + u_{i+1} = u_i, so L.D_i = a_{i-1} + a_{i+1} - a_i
    # and K.D_i = -1; L^2 = sum a_i L.D_i and K.L = -sum L.D_i.  The class
    # a = (1, lam, 1, lam, 1, lam) is invariant under the rotation by 120
    # degrees, so its polytope is centred and alpha = 1 / max(1, lam).
    a = [sp.Integer(1), LAM] * 3
    walls = [a[i - 1] + a[(i + 1) % 6] - a[i] for i in range(6)]
    l_sq = sum(x * w for x, w in zip(a, walls))
    return _window(walls, [-1] * 6, l_sq, -sum(walls), [sp.Integer(1), LAM],
                   sp.Interval.open(sp.Rational(1, 2), 2))


def _multiplicities(d, r=8):
    """Nonincreasing (m_1, ..., m_r) with sum 3d - 1 and sum of squares d^2 + 1."""
    out = []

    def extend(prefix, total, squares):
        if len(prefix) == r:
            if total == 0 and squares == 0:
                out.append(tuple(prefix))
            return
        top = prefix[-1] if prefix else d
        for m in range(min(top, total + 1), -2, -1):
            if m * m <= squares:
                extend(prefix + [m], total - m, squares - m * m)

    extend([], 3 * d - 1, d * d + 1)
    return out


def _dp1_window():
    # L = 3H - E_1 - ... - E_7 - lam E_8 and a (-1)-curve C = dH - sum m_i E_i
    # with sum m_i = 3d - 1: L.C = 3d - (3d - 1 - m_8) - lam m_8, K.C = -1,
    # L^2 = 2 - lam^2, K.L = lam - 2.  m_8 takes every value any multiplicity
    # takes; alpha is the supplied bound min{1, 1/(2 - lam)}.
    eighth = {m for d in range(7) for ms in _multiplicities(d) for m in ms}
    assert eighth == {-1, 0, 1, 2, 3}
    rows = [1 + m - m * LAM for m in sorted(eighth)]
    return _window(rows, [-1] * len(rows), 2 - LAM**2, LAM - 2, [sp.Integer(1), 2 - LAM],
                   sp.Interval.open(0, sp.Rational(4, 3)))


def test_sympy_windows_are_the_claimed_ones():
    assert _dp6_window() == sp.Interval.open(sp.Rational(5, 6), sp.Rational(6, 5))
    assert _dp1_window() == sp.Interval.open(sp.Rational(4, 5), sp.Rational(10, 9))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_brackets_hold_the_derived_endpoints(name):
    derived = {"dp6": _dp6_window, "dp1": _dp1_window}[name]()
    lo, hi = F(str(derived.start)), F(str(derived.end))
    assert (lo, hi) == WINDOWS[name]
    make, lam_min, lam_max = SWEEPS[name]
    report = sweep_lambda(make(), lam_min, lam_max, F(1, 100), F(1, 10**6), F(1), (lo, hi))
    (window,) = report.windows
    assert window.lo_bracket[0] <= lo <= window.lo_bracket[1]
    assert window.hi_bracket[0] <= hi <= window.hi_bracket[1]
    assert all(c.confirmed for c in report.endpoint_checks)


# ---------------------------------------------------------------------------
# the decision by alpha pieces against the per-point probe


def _outcome(decide):
    try:
        return decide()
    except GeometryError:
        return "GeometryError"


def _per_point(family, lam, epsilon):
    return family.is_ample_at(lam) and not feasible_scale_interval(family, lam, epsilon).is_empty


def _check_against_per_point(family, lams, epsilon):
    """decide against the probe at every lambda, and at eight bisection
    points between each neighbouring pair where the probe's verdict flips."""
    decide, _ = _feasibility(family, epsilon)

    def agree(lam):
        expected = _outcome(lambda: _per_point(family, lam, epsilon))
        assert _outcome(lambda: decide(lam.numerator, lam.denominator)) == expected, lam
        return expected

    lams = sorted(set(lams))
    verdicts = [agree(lam) for lam in lams]
    for (left, v_left), (right, v_right) in zip(zip(lams, verdicts), zip(lams[1:], verdicts[1:])):
        if {v_left, v_right} != {True, False}:
            continue
        for _ in range(8):
            mid = (left + right) / 2
            if agree(mid) == v_left:
                left = mid
            else:
                right = mid


lambdas = st.lists(st.fractions(min_value=-2, max_value=3, max_denominator=40), min_size=4, max_size=8)


def cubic_end_picard_pencil():
    """An r = 2 pencil whose window ends at an irrational root of a cubic
    condition-(3) polynomial, near 0.185628; feasible on its right."""
    surface = BlowupSurface(2)
    return Family(
        "r=2", surface.cls((F(25, 6), F(7, 3), F(4, 3))), surface.cls((F(9, 2), F(-1, 6), F(-1, 2))),
        DERVAN,
    )


def cubic_end_toric_pencil():
    """A centrally symmetric dp6 pencil (-I keeps every wall row, so it has
    alpha pieces) whose window, about (-0.26310, 0.59644), ends at a root of
    a cubic condition-(3) polynomial on either side."""
    base, slope = (F(9, 4), F(35, 16), F(31, 16)) * 2, (F(0), F(-3, 4), F(3, 4)) * 2
    return Family("symmetric", ToricDivisor(dp6_fan(), base), ToricDivisor(dp6_fan(), slope))


# lambdas on both sides of each of those window ends
CUBIC_END_LAMBDAS = {"picard": [F(0), F(9, 50), F(19, 100), F(1, 2)],
                     "toric": [F(-27, 100), F(-13, 50), F(59, 100), F(3, 5)]}
epsilons = st.sampled_from((F(1, 3), F(1), F(7, 2)))
offsets = st.fractions(min_value=-1, max_value=1, max_denominator=12)


@st.composite
def picard_pencils(draw):
    """L_lambda = A + lambda (B - A) for two ample classes A and B on r
    points, ample at least on [0, 1]."""
    r = draw(st.integers(1, 8))
    surface = BlowupSurface(r)
    classes = []
    for _ in range(2):
        t = draw(st.fractions(min_value=1, max_value=3, max_denominator=6))
        coords = (3 * t + draw(offsets) / 2, *(t + draw(offsets) / 4 for _ in range(r)))
        classes.append(coords)
    base, top = classes
    if not all(is_ample_picard(PicardClass(surface, c)) for c in classes):
        return None
    slope = surface.cls(tuple(b - a for a, b in zip(base, top)))
    return Family("random", surface.cls(base), slope, DERVAN)


@settings(max_examples=25, deadline=None)
@given(picard_pencils(), lambdas, epsilons)
@example(cubic_end_picard_pencil(), CUBIC_END_LAMBDAS["picard"], F(1))
def test_decide_matches_probe_on_picard_pencils(family, lams, epsilon):
    if family is None:
        return
    _check_against_per_point(family, lams, epsilon)


@st.composite
def toric_pencils(draw):
    """Pencils near an ample class on the fans of test_wall_pairings.py.
    Symmetric ones (constant on the orbits of a rotation: order 3 on p2,
    order 6, 3 or 2 on dp6) have alpha pieces; sweeps reject the ones
    without.  Only the centrally symmetric dp6 ones (order 2, period 3) have
    windows that can end at condition (3), so half the draws are those."""
    if draw(st.booleans()):
        name, period = "dp6", 3
    else:
        name = draw(st.sampled_from(sorted(FANS)))
        period = {"p2": 1, "dp6": draw(st.sampled_from((1, 2)))}.get(name) if draw(st.booleans()) else None
    n = FANS[name].n_rays
    if period:
        shift, slope = (draw(st.lists(offsets, min_size=period, max_size=period)) * (n // period)
                        for _ in range(2))
        base = tuple(F(2) + s / 4 for s in shift)
    else:
        shift = draw(st.lists(offsets, min_size=n, max_size=n))
        slope = draw(st.lists(offsets, min_size=n, max_size=n))
        base = tuple(F(a) + s / 4 for a, s in zip(AMPLE[name], shift))
    family = Family("random", ToricDivisor(FANS[name], base), ToricDivisor(FANS[name], slope))
    return family, period is not None


@settings(max_examples=30, deadline=None)
@given(toric_pencils(), lambdas, epsilons)
@example((cubic_end_toric_pencil(), True), CUBIC_END_LAMBDAS["toric"], F(1))
def test_decide_matches_probe_on_toric_pencils(pencil, lams, epsilon):
    family, symmetric = pencil
    if symmetric:
        assert family.alpha_pieces is not None
    if family.alpha_pieces is None:
        with pytest.raises(InputError, match="sweeps need a closed-form alpha"):
            _feasibility(family, epsilon)
        return
    _check_against_per_point(family, lams, epsilon)


def _per_point_sweep(family, *args):
    """The sweep with probe in place of every decision, on the grid and in
    the bisections, so every lambda is probed."""
    original = properness._feasibility

    def per_point(family, epsilon):
        _, probe = original(family, epsilon)
        patch.setattr(LambdaCertificate, "grid_flags",
                      lambda self, grid, d: [probe(F(x, d)) for x in grid])
        return (lambda p, q: probe(F(p, q))), probe

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properness, "_feasibility", per_point)
        return sweep_lambda(family, *args)


def test_sweep_follows_a_window_end_set_by_condition_three():
    # on this pencil the feasible side of the lower window end binds at
    # condition (3), which neither builtin family does
    family = cubic_end_picard_pencil()
    args = (F(0), F(1, 2), F(1, 50), F(1, 10**4))
    report = sweep_lambda(family, *args)
    (window,) = report.windows
    _, lower, _ = _scale_interval_with_bindings(family, window.lo_bracket[1], F(1))
    assert lower.startswith("condition (3)")
    assert report == _per_point_sweep(family, *args)


def test_decisions_end_where_the_supplied_bound_ends():
    # L_lambda = (1 + lambda)(3H - E_1 - E_2 - E_3) is ample for every lambda > -1;
    # the dp1 bound, hence every probe and every decision, needs lambda < 2
    surface = BlowupSurface(3)
    family = Family("r=3", surface.cls((3, 1, 1, 1)), surface.cls((3, 1, 1, 1)), DERVAN)
    decide, probe = _feasibility(family, F(1))
    assert decide(19, 10) == probe(F(19, 10)) == _per_point(family, F(19, 10), F(1))
    # the decision reads the alpha pieces, the probe the bound itself
    with pytest.raises(
        GeometryError, match=r"^the alpha pieces e \+ f lambda are not all positive at lambda = 2$"
    ):
        decide(2, 1)
    with pytest.raises(GeometryError, match=r"^the builtin dp1 alpha bound needs lambda < 2$"):
        probe(F(2))


def test_probe_checks_the_toric_alpha_pieces(monkeypatch):
    original = Family.alpha_unscaled

    def doubled(self, lam):
        alpha, label, scope = original(self, lam)
        return 2 * alpha, label, scope

    monkeypatch.setattr(Family, "alpha_unscaled", doubled)
    with pytest.raises(GeometryError, match="internal inconsistency: the alpha cap"):
        sweep_lambda(dp6_family(), F(1, 2), F(2), F(1, 10), F(1, 100))


def test_the_witness_probe_checks_the_alpha_pieces(monkeypatch):
    # alpha skewed at the witness lambda = 1 alone, which no decision reads
    original = Family.alpha_unscaled

    def skewed(self, lam):
        alpha, label, scope = original(self, lam)
        return (2 * alpha if lam == 1 else alpha), label, scope

    monkeypatch.setattr(Family, "alpha_unscaled", skewed)
    with pytest.raises(GeometryError, match="internal inconsistency: the alpha cap"):
        sweep_lambda(dp6_family(), F(1, 2), F(3, 2), F(1, 10), F(1, 100))


def test_probe_checks_the_picard_alpha_pieces():
    # the probe reads the supplied value, the decisions read the pieces:
    # dp1 with its bound doubled over the same pieces
    dp1 = dp1_family()
    doubled = dp1.alpha._replace(value=lambda lam: 2 * dervan_alpha_bound(lam))
    with pytest.raises(GeometryError, match="internal inconsistency: the alpha cap"):
        sweep_lambda(Family("dp1", dp1.base, dp1.slope, doubled), F(0), F(4, 3), F(1, 10),
                     F(1, 100))


def fixed_line_family():
    """A dp6 pencil whose only nontrivial symmetry is the reflection in the
    diagonal (rays 0 <-> 2), which fixes a line, so its alpha has no pieces."""
    return Family(
        "line", ToricDivisor(FANS["dp6"], (2,) * 6), ToricDivisor(FANS["dp6"], (1, 0, 1, 0, 0, 0))
    )


def test_a_family_without_alpha_pieces_is_rejected(monkeypatch):
    # the sweep stops before any probe
    family = fixed_line_family()
    assert family.alpha_pieces is None
    monkeypatch.setattr(properness, "feasible_scale_interval", None)
    with pytest.raises(InputError, match="sweeps need a closed-form alpha"):
        sweep_lambda(family, F(0), F(1), F(1, 10), F(1, 100))


@pytest.mark.parametrize("case", ["fixed line", "blowup"])
def test_the_certificate_refuses_a_family_without_alpha_pieces(case, monkeypatch):
    # a toric family whose group fixes a line, and a blowup family given no
    # FamilyAlpha: one InputError naming the case, before any probe
    surface = BlowupSurface(3)
    family, why = {
        "fixed line": (fixed_line_family(), "has a symmetry group that fixes a line"),
        "blowup": (Family("r=3", surface.cls((3, 1, 1, 1)), surface.cls((3, 1, 1, 1))),
                   "is on no toric surface and was given no FamilyAlpha"),
    }[case]
    monkeypatch.setattr(properness, "feasible_scale_interval", None)
    with pytest.raises(InputError, match=f'sweeps need a closed-form alpha; family "{family.name}" '
                                         f"{why}"):
        family.certificate


# ---------------------------------------------------------------------------
# whole sweeps


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_windows_do_not_depend_on_epsilon(name):
    make, lam_min, lam_max = SWEEPS[name]
    reports = [
        sweep_lambda(make(), lam_min, lam_max, F(1, 100), F(1, 10**6), eps, WINDOWS[name])
        for eps in (F(1, 3), F(1), F(7, 2))
    ]
    first = reports[0]
    for report in reports[1:]:
        assert [(w.lo_bracket, w.hi_bracket, w.witness_lambda) for w in report.windows] == [
            (w.lo_bracket, w.hi_bracket, w.witness_lambda) for w in first.windows
        ]
        # the witness scale moves as 1/epsilon, like the whole interval
        assert [w.witness_a * report.epsilon for w in report.windows] == [
            w.witness_a * first.epsilon for w in first.windows
        ]
        assert report.endpoint_checks == first.endpoint_checks


# (lambda_min, lambda_max, step) of grids that land on every piece end of
# the certificate and reach past the ample range: dp6 at 1/2, 3/4, 5/6, 6/5
# and 2, dp1 at 0, 1/2, 2/3, 4/5, 10/9, 7/6 and 4/3
PIECE_END_GRIDS = {"dp6": (F(0), F(5, 2), F(1, 60)), "dp1": (F(-1, 2), F(3, 2), F(1, 90))}


@pytest.mark.parametrize("name", sorted(SWEEPS))
# an offset of the grid start at step 1/20, or None for the piece-end grid
@pytest.mark.parametrize("offset", [F(0), F(37, 10000), F(1, 7),
                                    pytest.param(None, id="piece-ends")])
def test_decided_sweep_equals_the_per_point_sweep(name, offset):
    make, lam_min, lam_max = SWEEPS[name]
    if offset is None:
        grid = start, stop, step = PIECE_END_GRIDS[name]
        assert all(start < e < stop and (e - start) % step == 0
                   for p in make().certificate.pieces for e in (p.lo, p.hi))
    else:
        grid = (lam_min + offset, lam_max, F(1, 20))
    args = (*grid, F(1, 10**4), F(1), WINDOWS[name])
    assert render_report(sweep_lambda(make(), *args)) == render_report(
        _per_point_sweep(make(), *args)
    )


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_bracket_end_is_an_exact_probe(monkeypatch, name):
    probed = set()
    original = properness.feasible_scale_interval

    def recording(family, lam, epsilon=F(1)):
        probed.add(lam)
        return original(family, lam, epsilon)

    monkeypatch.setattr(properness, "feasible_scale_interval", recording)
    make, lam_min, lam_max = SWEEPS[name]
    report = sweep_lambda(make(), lam_min + F(37, 10000), lam_max, F(1, 100), F(1, 10**6), F(1),
                          WINDOWS[name])
    (window,) = report.windows
    ends = {*window.lo_bracket, *window.hi_bracket}
    assert len(ends) == 4 and ends <= probed
    checked = {c.endpoint + d for c in report.endpoint_checks for d in (0, report.refine_tol,
                                                                       -report.refine_tol)}
    assert checked <= probed


def test_a_probe_that_contradicts_a_decision_raises(monkeypatch):
    # an exact probe that finds every lambda infeasible (with the right
    # alpha cap) must stop the sweep at the first bracket end the decisions
    # call feasible
    original = properness.feasible_scale_interval

    def empty(family, lam, epsilon=F(1)):
        hi = original(family, lam, epsilon).hi
        return properness.OpenInterval(hi, hi)

    monkeypatch.setattr(properness, "feasible_scale_interval", empty)
    with pytest.raises(GeometryError, match="internal inconsistency: the exact probe"):
        sweep_lambda(dp1_family(), F(0), F(4, 3), F(1, 10), F(1, 100))
