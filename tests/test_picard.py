import json
import random
from fractions import Fraction
from math import comb

import pytest
from helpers import anticanonical, exceptional, hyperplane, picard_class_to_json

from kproper.cli import load_picard_class
from kproper.picard import (
    BlowupSurface,
    PicardClass,
    curve_census,
    curve_table,
    dp1_surface,
    exceptional_curves,
    is_ample_picard,
    pairing,
    slope_picard,
)
from kproper.rationals import GeometryError, ValidationError

F = Fraction


def dp1_lambda(lam, a=1):
    surface = dp1_surface()
    lam, a = F(lam), F(a)
    return surface.cls((3 * a,) + (a,) * 7 + (a * lam,))


def binomial_census(r):
    """Oracle: count curve types combinatorially from the classical list."""

    def c(n, k):
        return comb(n, k) if n >= k >= 0 else 0

    counts = {
        0: r,                                   # exceptional divisors
        1: c(r, 2),                             # lines through 2 points
        2: c(r, 5),                             # conics through 5 points
        3: r * c(r - 1, 6),                     # cubics, double at one point
        4: c(r, 3) * c(r - 3, 5),               # quartics, double at 3 of 8
        5: c(r, 6) * c(r - 6, 2),               # quintics, double at 6 of 8
        6: r * c(r - 1, 7),                     # sextics, triple at one point
    }
    return {d: n for d, n in counts.items() if n > 0}


def test_pairing_basics():
    s = BlowupSurface(3)
    h = hyperplane(s)
    e1, e2 = exceptional(s, 1), exceptional(s, 2)
    assert pairing(h, h) == 1
    assert pairing(e1, e1) == -1
    assert pairing(e1, e2) == 0
    assert pairing(h, e1) == 0
    assert pairing(s.canonical(), s.canonical()) == 9 - 3


def test_lambda_family_pairings():
    lam = F(6, 5)
    l = dp1_lambda(lam)
    assert pairing(l, l) == 2 - lam**2
    assert pairing(anticanonical(dp1_surface()), l) == 2 - lam


@pytest.mark.parametrize("r,count", [(1, 1), (2, 3), (3, 6), (4, 10), (5, 16), (6, 27), (7, 56), (8, 240)])
def test_curve_counts(r, count):
    assert len(exceptional_curves(r)) == count
    assert curve_census(r) == binomial_census(r)


def test_dp1_census_by_degree():
    assert curve_census(8) == {0: 8, 1: 28, 2: 56, 3: 56, 4: 56, 5: 28, 6: 8}


def test_every_curve_has_the_right_numerics():
    s = dp1_surface()
    k = s.canonical()
    for c in exceptional_curves(8):
        assert pairing(c, c) == -1
        assert pairing(c, k) == -1
        assert all(x.denominator == 1 for x in c.coords)


def test_curve_set_is_permutation_invariant():
    rng = random.Random(5)
    coords_set = {c.coords for c in exceptional_curves(8)}
    perm = list(range(1, 9))
    rng.shuffle(perm)
    permuted = {
        (c[0],) + tuple(c[perm[i - 1]] for i in range(1, 9)) for c in coords_set
    }
    assert permuted == coords_set


def test_lambda_family_ampleness():
    assert is_ample_picard(dp1_lambda(1))
    assert not is_ample_picard(dp1_lambda(F(4, 3)))
    assert min(curve_table(dp1_lambda(F(4, 3))).nums) >= 0
    assert not is_ample_picard(dp1_lambda(0))
    assert is_ample_picard(anticanonical(dp1_surface()))


def test_boundary_curve_is_the_sextic():
    # at lambda = 4/3 the unique curve pairing to zero is 6H - 2(E_1..E_7) - 3E_8
    l = dp1_lambda(F(4, 3))
    sextic = dp1_surface().cls((6,) + (2,) * 7 + (3,))
    assert pairing(l, sextic) == 0
    others = [c for c in exceptional_curves(8) if pairing(l, c) == 0]
    assert others == [sextic]


def test_hyperplane_nef_not_ample():
    s = dp1_surface()
    h = hyperplane(s)
    assert min(curve_table(h).nums) >= 0 and not is_ample_picard(h)


def test_ample_implies_nef_random():
    rng = random.Random(7)
    s = dp1_surface()
    for _ in range(40):
        cls = s.cls([F(rng.randint(-2, 6)) for _ in range(9)])
        if is_ample_picard(cls):
            assert min(curve_table(cls).nums) >= 0


def test_rows_of_the_curve_table_force_the_sign_of_the_square():
    # the rows span the cone of curves, so by Kleiman a class positive on
    # every row is ample (D.D > 0) and one nonnegative on every row is nef
    # (D.D >= 0): the rows alone decide positivity.  Each random class is
    # moved along -K until it pairs to an offset, mostly small, with a row,
    # the one that binds first or a random one, so some rows pair close to
    # zero and many classes sit on the boundary.
    rng = random.Random(11)
    for r in range(1, 9):
        s = BlowupSurface(r)
        anti = anticanonical(s)
        seen = {"positive": 0, "boundary": 0}
        for _ in range(150):
            x = s.cls([F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(r + 1)])
            # x.C_i = nums[i] / den and -K.C_i = -k_nums[i] / den
            tx = curve_table(x)
            rows = range(len(tx.nums))
            i = rng.choice([
                rng.choice(rows),
                min(rows, key=lambda i: F(tx.nums[i], -tx.k_nums[i])),
            ])
            offset = rng.choice([0, 0, F(1, 1000), F(-1, 1000), F(rng.randint(-3, 3), 7),
                                 F(rng.randint(1, 24), 4)])
            cls = x - F(tx.nums[i] - offset * tx.den, -tx.k_nums[i]) * anti
            table = curve_table(cls)
            low = min(table.nums)
            if low > 0:
                seen["positive"] += 1
                assert table.l_sq > 0 and is_ample_picard(cls)
            elif low == 0:
                seen["boundary"] += 1
                assert table.l_sq >= 0 and min(curve_table(cls).nums) >= 0
        assert min(seen.values()) >= 10, (r, seen)


def test_slope_picard():
    assert slope_picard(dp1_lambda(1)) == 1
    lam, a = F(9, 10), F(2)
    assert slope_picard(dp1_lambda(lam, a)) == (2 - lam) / (a * (2 - lam**2))
    with pytest.raises(GeometryError):
        slope_picard(dp1_lambda(F(3, 2)))


def test_surface_validation():
    with pytest.raises(ValidationError):
        BlowupSurface(9)
    with pytest.raises(ValidationError):
        BlowupSurface(0)
    with pytest.raises(ValidationError):
        PicardClass(BlowupSurface(3), (F(1), F(1)))
    with pytest.raises(ValidationError):
        pairing(dp1_lambda(1), hyperplane(BlowupSurface(3)))


def test_the_number_of_points_is_read_as_an_exact_integer():
    # a bool once made BlowupSurface(r=True), and an integral Fraction was refused
    for r, points in ((True, 1), (F(3), 3), (F(16, 2), 8)):
        surface = BlowupSurface(r)
        assert type(surface.r) is int and surface == BlowupSurface(points)
        assert repr(surface) == f"BlowupSurface(r={points})"
    # the range error keeps its text, for an integral Fraction too
    for r in (0, 9, F(9), -1):
        with pytest.raises(ValidationError, match=r"^blowup surface needs 1 <= r <= 8 points$"):
            BlowupSurface(r)


def test_json_round_trip(tmp_path):
    cls = dp1_lambda(F(6, 5))
    data = picard_class_to_json(cls)
    assert data["r"] == 8
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    assert load_picard_class(str(path)) == cls
