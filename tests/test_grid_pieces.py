"""Sweep grids decided piece by piece, and Picard classes carried cleared.

`LambdaCertificate.grid_flags(grid, d)` walks the certificate's pieces
once: one floor division turns each piece end into a grid index, a
feasible or infeasible piece fills its run of flags at once, and only the
grid points on a piece end or inside an endpoint or uncertified piece go to
`feasible_pair`.  It must equal `[feasible_pair(x, d) for x in grid]`, and
where that raises it must raise the same error.  So an acceptance sweep
asks `feasible_pair` about the few points on piece ends and the bisection
points alone, while its exact probes and midpoint checks stay as they are.

`Family.class_at(lam)` on a blowup of P^2 builds the class from the
family's integer pencil as its value `(N, N coords)`; times any scale it
must be what `clear_denominators` gives for the class built by class
arithmetic, and the two must pair, compare and hash alike.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")
from helpers import DERVAN, counting  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_family_window import (  # noqa: E402
    cubic_end_picard_pencil,
    cubic_end_toric_pencil,
    picard_pencils,
)

from kproper import properness  # noqa: E402
from kproper.picard import BlowupSurface, curve_table  # noqa: E402
from kproper.properness import (  # noqa: E402
    Family,
    LambdaCertificate,
    dp1_family,
    dp6_family,
    sweep_lambda,
)
from kproper.rationals import GeometryError, KProperError, clear_denominators  # noqa: E402

F = Fraction


def _r3_family():
    """(1 + lambda)(3H - E_1 - E_2 - E_3): ample for every lambda > -1, so
    the dp1 bound, and every decision from lambda = 2 on, raises."""
    surface = BlowupSurface(3)
    return Family("r=3", surface.cls((3, 1, 1, 1)), surface.cls((3, 1, 1, 1)), DERVAN)


FAMILIES = {
    "dp6": dp6_family(),
    "dp1": dp1_family(),
    "cubic toric": cubic_end_toric_pencil(),
    "cubic r=2": cubic_end_picard_pencil(),
    "r=3": _r3_family(),
}


def _outcome(run):
    try:
        return run()
    except KProperError as exc:
        return type(exc), str(exc)


@st.composite
def grids(draw, family):
    """(lambda_min, step, points) of a grid that starts below the finite
    piece ends of the certificate or among them; half of them step through
    every piece end from one of them."""
    ends = sorted({e for p in family.certificate.pieces for e in (p.lo, p.hi) if e is not None})
    span = max(ends[-1] - ends[0], F(1))
    if draw(st.booleans()):
        step = F(1, math.lcm(*(e.denominator for e in ends)) * draw(st.integers(1, 3)))
        start = draw(st.sampled_from(ends)) - draw(st.integers(0, 80)) * step
    else:
        step = draw(st.fractions(min_value=F(1, 500), max_value=span / 3, max_denominator=997))
        start = draw(st.fractions(min_value=ends[0] - span / 2, max_value=ends[-1],
                                  max_denominator=997))
    return start, step, draw(st.integers(1, 400))


def _check_grid(family, start, step, points):
    certificate = family.certificate
    d, (a, b) = clear_denominators((start, step))
    grid = range(a, a + points * b, b)
    expected = _outcome(lambda: [certificate.feasible_pair(x, d) for x in grid])
    assert _outcome(lambda: certificate.grid_flags(grid, d)) == expected


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_piece_grid_flags_equal_the_per_point_decisions(name):
    family = FAMILIES[name]

    @settings(max_examples=60, deadline=None, database=None)
    @given(grids(family))
    # the piece-end grids of the CI smoke sweeps, and grids reaching lambda = 2
    @example((F(0), F(1, 60), 151))
    @example((F(-1, 2), F(1, 90), 181))
    @example((F(3, 2), F(1, 4), 8))
    @example((F(37, 10000), F(1, 100), 133))
    def check(grid):
        _check_grid(family, *grid)

    check()


def test_the_r3_grid_raises_where_the_per_point_route_raises():
    # the first point at lambda = 2, where the dp1 bound's piece 2 - lambda
    # vanishes, raises on both routes
    family = FAMILIES["r=3"]
    d, (a, b) = 4, (7, 1)
    grid = range(a, a + 3 * b, b)
    outcome = _outcome(lambda: family.certificate.grid_flags(grid, d))
    assert outcome == (
        GeometryError, "the alpha pieces e + f lambda are not all positive at lambda = 2"
    )
    _check_grid(family, F(7, 4), F(1, 4), 3)


# ---------------------------------------------------------------------------
# the Picard class built from the pencil's integers

PICARD = {
    "dp1": dp1_family(),
    "r=2": cubic_end_picard_pencil(),
    "r=3": _r3_family(),
    "r=1": Family("r1", BlowupSurface(1).cls((F(1, 2), 1)), BlowupSurface(1).cls((1, 0))),
}
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=120)
scales = st.fractions(min_value=F(1, 50), max_value=5, max_denominator=120)


def _check_carried(family, lam, scale):
    cls = family.class_at(lam) * scale
    plain = scale * (family.base + lam * family.slope)
    assert cls.coords == plain.coords
    assert (cls.den, cls.nums) == (plain.den, plain.nums) == clear_denominators(plain.coords)
    assert cls == plain and hash(cls) == hash(plain)
    assert curve_table(cls) == curve_table(plain)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PICARD)), rationals, scales | scales.map(lambda s: -s))
@example("dp1", F(1), F(1))
@example("dp1", F(4, 5), F(1))
@example("dp1", F(0), F(7, 3))
def test_class_at_carries_the_cleared_picard_class(name, lam, scale):
    _check_carried(PICARD[name], lam, scale)


@settings(max_examples=30, deadline=None)
@given(picard_pencils(), rationals, scales)
def test_class_at_carries_the_cleared_class_on_random_pencils(family, lam, scale):
    if family is not None:
        _check_carried(family, lam, scale)


# ---------------------------------------------------------------------------
# decisions, probes and midpoint checks of one acceptance sweep


def test_a_dp1_acceptance_sweep_counts_its_decisions(monkeypatch):
    family = dp1_family()
    # the certificate probes its own pieces once, on the family's first sweep
    family.certificate
    calls = {"feasible_pair": [], "feasible_scale_interval": [], "check_properness": []}
    counting(monkeypatch, LambdaCertificate.feasible_pair, calls["feasible_pair"])
    counting(monkeypatch, properness.feasible_scale_interval, calls["feasible_scale_interval"])
    counting(monkeypatch, properness.check_properness, calls["check_properness"])
    report = sweep_lambda(family, F(0), F(4, 3), F(1, 100), F(1, 10**6), F(1),
                          (F(4, 5), F(10, 9)))
    counts = {name: len(made) for name, made in calls.items()}
    assert all(c.confirmed for c in report.endpoint_checks)
    # the grid points on the piece ends 0, 1/2 and 4/5, 2 x 14 bisection
    # points and the 4 bracket ends; a decision per grid point made 166
    assert counts["feasible_pair"] <= 40
    # 4 bracket ends and 3 probes per conjectured endpoint; the witness is
    # probed through _scale_interval_with_bindings
    assert counts["feasible_scale_interval"] == 10
    # one midpoint check per nonempty interval: 2 bracket ends, the witness
    # and the 2 feasible sides of the endpoints
    assert counts["check_properness"] == 5
