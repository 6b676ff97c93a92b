"""A dp6 probe builds only what it reads, in integers.

A polygon that `polygon_from_cycle` builds from a known cycle (the moment
polygon of an ample surface class and its recentred translate in
`alpha._centered`) keeps its half-planes as the rays with integer offsets
over one denominator, and builds its HalfSpaces only when `hrep` is read.
The half-planes it builds must be the canonical ones of `make_polytope`,
and it must compare and hash like an eagerly built polygon.

`Family.class_at` builds a toric surface class from the family's integer
pencil as its value `(N, N a)`; its value, and its walls `N D.D_i`, times
any scale must be what the same class built plainly stores and derives.
So one feasible dp6 probe, with the family warm, builds no HalfSpace and
makes no `clear_denominators` call, while it still runs its checks.

`solve_exact` solves a 2x2 system before the general shape checks, and
raises their errors on a bad shape.  `_endpoint_side` compares the
distances to bracket centres by integer cross-multiplication; the
reference is the Fraction version in tests/helpers.py.
"""

from fractions import Fraction
from math import floor

import pytest

pytest.importorskip("hypothesis")
from helpers import counting, reference_endpoint_side  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_family_tables import toric_pencils  # noqa: E402

from kproper.alpha import _centered, symmetry_context  # noqa: E402
from kproper.polytope import HalfSpace, fixed_subpolytope, make_polytope  # noqa: E402
from kproper.properness import (  # noqa: E402
    FeasibleWindow,
    _endpoint_side,
    check_properness,
    dp6_family,
    feasible_scale_interval,
)
from kproper.rationals import (  # noqa: E402
    ValidationError,
    clear_denominators,
    solve_exact,
    solve_linear_system,
)
from kproper.toric import (  # noqa: E402
    Fan,
    ToricDivisor,
    _cleared_walls,
    dp6_fan,
    is_ample,
    moment_polytope,
    p2_fan,
    wall_pairings,
)

F = Fraction

shifts = st.fractions(min_value=-4, max_value=4, max_denominator=30)
scales = st.fractions(min_value=F(1, 40), max_value=9, max_denominator=40)


@st.composite
def ample_classes(draw):
    """An ample class on p2, dp6 or a random smooth complete fan.

    The random fan is P^2 or the Hirzebruch surface F_k, blown up at up to
    three torus-fixed points: the ray u + v goes in between neighbours u
    and v.  Its ample class starts from an ample class of P^2 or F_k; at
    each blowup the class is tripled and its pullback loses 1 along the new
    ray, which keeps every wall pairing positive.  A random rational scale
    and linear shift <m, u_i> then give other ample classes."""
    kind = draw(st.sampled_from(("p2", "dp6", "random")))
    if kind == "random":
        k = draw(st.integers(0, 3))
        # P^2 with -K, or F_k with the ample class D_3 + (k + 1) D_4
        rays, a = (
            ([(1, 0), (0, 1), (-1, -1)], [1, 1, 1]) if draw(st.booleans())
            else ([(1, 0), (0, 1), (-1, k), (0, -1)], [0, 0, 1, k + 1])
        )
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(rays) - 1))
            j = (i + 1) % len(rays)
            a = [3 * x for x in a]
            rays.insert(i + 1, (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1]))
            a.insert(i + 1, a[i] + a[j] - 1)
        n = len(rays)
        fan = Fan(2, tuple(rays), tuple((i, (i + 1) % n) for i in range(n)))
        d = ToricDivisor(fan, a)
    else:
        fan = p2_fan() if kind == "p2" else dp6_fan()
        raw = ToricDivisor(fan, draw(st.lists(shifts, min_size=fan.n_rays, max_size=fan.n_rays)))
        ample = ToricDivisor(fan, (1,) * fan.n_rays)
        shift = max(floor(-p / q) + 1 for p, q in zip(wall_pairings(raw), wall_pairings(ample)))
        d = raw + shift * ample
    m = (draw(shifts), draw(shifts))
    t = draw(scales)
    return ToricDivisor(d.fan, tuple(
        t * (a + m[0] * u[0] + m[1] * u[1]) for a, u in zip(d.coeffs, d.fan.rays)
    ))


def eager(fan, offsets):
    """The canonical polygon {m : <m, u_i> >= offset_i}, built by make_polytope."""
    return make_polytope(2, list(zip(fan.rays, offsets)))


def check_lazy(p, reference):
    """p keeps its half-planes unbuilt, and builds the canonical ones on
    its first read of hrep, by ==, by hash or directly."""
    assert "hrep" not in vars(p)
    assert p == reference and hash(p) == hash(reference)
    assert p.hrep == reference.hrep
    assert all(type(h.offset) is Fraction for h in p.hrep)


@settings(max_examples=150, deadline=None)
@given(ample_classes())
@example(ToricDivisor(dp6_fan(), (F(1), F(6, 5)) * 3))
@example(ToricDivisor(p2_fan(), (F(1, 3), F(2, 7), F(5))))
def test_kept_half_planes_are_the_canonical_ones(d):
    assert is_ample(d)
    # past the memo, so that each polygon is new
    polygon = moment_polytope.__wrapped__
    check_lazy(polygon(ToricDivisor(d.fan, d.coeffs)), eager(d.fan, [-a for a in d.coeffs]))
    # the first read builds them, and later reads see the same tuple
    p = polygon(ToricDivisor(d.fan, d.coeffs))
    assert p.hrep is p.hrep

    centered, cls = _centered(ToricDivisor(d.fan, d.coeffs))
    reference = eager(d.fan, [-a for a in cls.coeffs])
    check_lazy(centered, reference)
    # a fixed subpolytope carries the kept half-planes, unbuilt
    ctx = symmetry_context(ToricDivisor(d.fan, d.coeffs))
    if ctx.stabilizer:
        fixed = fixed_subpolytope(ctx.centered_polytope, ctx.stabilizer)
        assert "hrep" not in vars(fixed)
        assert fixed.hrep == reference.hrep


def test_a_polygon_with_kept_half_planes_is_like_any_other():
    d = ToricDivisor(dp6_fan(), (F(1), F(6, 5)) * 3)
    p = moment_polytope.__wrapped__(ToricDivisor(d.fan, d.coeffs))
    with pytest.raises(AttributeError):
        p.missing
    assert repr(p) == repr(eager(d.fan, [-a for a in d.coeffs]))
    assert {p, eager(d.fan, [-a for a in d.coeffs])} == {p}


# ---------------------------------------------------------------------------
# the toric class built from the pencil's integers

lambdas = st.fractions(min_value=-3, max_value=3, max_denominator=120)
signed_scales = scales | scales.map(lambda s: -s)


def check_carried(family, lam, scale):
    cls = family.class_at(lam) * scale
    plain = scale * (family.base + lam * family.slope)
    assert cls._walls is None and plain._walls is None
    assert cls.coeffs == plain.coeffs
    assert (cls.den, cls.nums) == (plain.den, plain.nums) == clear_denominators(plain.coeffs)
    assert _cleared_walls(cls) == _cleared_walls(plain)
    assert cls == plain and hash(cls) == hash(plain)


@settings(max_examples=120, deadline=None)
@given(lambdas, signed_scales)
@example(F(1), F(1))
@example(F(5, 6), F(3, 2))
@example(F(0), F(7, 3))
def test_class_at_carries_the_cleared_dp6_class(lam, scale):
    check_carried(dp6_family(), lam, scale)


@settings(max_examples=60, deadline=None)
@given(toric_pencils(), lambdas, signed_scales)
def test_class_at_carries_the_cleared_class_on_random_toric_pencils(family, lam, scale):
    check_carried(family, lam, scale)


# ---------------------------------------------------------------------------
# one probe, counted


def test_a_feasible_dp6_probe_builds_no_half_plane_and_clears_nothing(monkeypatch):
    family = dp6_family()
    # the certificate, the tables and the pencil are built once, before
    family.certificate
    feasible_scale_interval(family, F(1))
    built, cleared, checked, solved = [], [], [], []
    counting(monkeypatch, HalfSpace, built)
    counting(monkeypatch, clear_denominators, cleared)
    counting(monkeypatch, check_properness, checked)
    counting(monkeypatch, solve_exact, solved)
    interval = feasible_scale_interval(family, F(10007, 10000))
    assert not interval.is_empty
    # the midpoint check ran, and the polygons took their vertices from solve_exact
    assert len(checked) == 1 and solved
    assert built == [] and cleared == []


# ---------------------------------------------------------------------------
# the 2x2 solve


@pytest.mark.parametrize("a, b, message", [
    (((1, 2), (3,)), (1, 2), "square matrix"),
    (((1, 2, 3), (4, 5, 6)), (1, 2), "square matrix"),
    (((1, 2), (3, 4)), (1,), "dimension mismatch"),
    (((1, 2), (3, 4)), (1, 2, 3), "dimension mismatch"),
])
def test_a_bad_2x2_shape_raises_the_general_errors(a, b, message):
    with pytest.raises(ValidationError, match=message):
        solve_exact(a, b)


entries = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, min_size=6, max_size=6))
@example([1, 1, 0, 1, 2, 3])
@example([1, 1, 0, 1, F(2), 3])
@example([2, 0, 0, 1, 2, 3])
def test_the_2x2_solve_matches_elimination(values):
    a, b = (tuple(values[0:2]), tuple(values[2:4])), tuple(values[4:6])
    x = solve_exact(a, b)
    solution = solve_linear_system(a, b)
    if solution is None or solution[1]:
        assert x is None
        return
    assert x == solution[0]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    ints = all(type(v) is int for v in values) and det in (1, -1)
    assert all(type(v) is (int if ints else Fraction) for v in x)


# ---------------------------------------------------------------------------
# the endpoint side

ends = st.fractions(min_value=-2, max_value=3, max_denominator=8)


@st.composite
def windows(draw):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        a, b, c, d = sorted(draw(st.lists(ends, min_size=4, max_size=4)))
        out.append(FeasibleWindow((a, b), (c, d), b, F(1)))
    return out


@settings(max_examples=400, deadline=None)
@given(ends, windows())
@example(F(1), [FeasibleWindow((F(0), F(1)), (F(1), F(2)), F(1), F(1))])
@example(F(0), [FeasibleWindow((F(-1), F(1)), (F(-1), F(1)), F(0), F(1))])
def test_endpoint_side_matches_the_fraction_distances(e, ws):
    assert _endpoint_side(e, ws) == reference_endpoint_side(e, ws)
