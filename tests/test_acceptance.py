"""Acceptance suite: one test per shipped guarantee, exact unless a bracket
tolerance is part of the statement.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion verdict lines."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import canonical_polarization_slice, scaled, transform_fan

from kproper.alpha import alpha_invariant, alpha_oracle, symmetry_context
from kproper.picard import curve_census, dp1_surface, exceptional_curves, is_ample_picard, pairing
from kproper.polytope import boundary_measure, volume
from kproper.properness import (
    SCOPE_ALL,
    SCOPE_G,
    VERDICT_PROPER,
    Family,
    StabilizerAlpha,
    SuppliedAlpha,
    check_fano,
    check_negative_c1,
    check_properness,
    dp1_family,
    dp6_family,
    feasible_scale_interval,
    sweep_lambda,
)
from kproper.rationals import GeometryError, mat_mul
from kproper.toric import (
    ToricDivisor,
    anticanonical_divisor,
    dp6_fan,
    intersection_number,
    is_ample,
    is_nef,
    moment_polytope,
    slope_quantities,
)

F = Fraction
TOL = F(1, 10**6)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def lam_divisor(lam, a=1):
    lam, a = F(lam), F(a)
    return ToricDivisor(dp6_fan(), (a, a * lam, a, a * lam, a, a * lam))


def dp1_lambda(lam, a=1):
    lam, a = F(lam), F(a)
    return dp1_surface().cls((3 * a,) + (a,) * 7 + (a * lam,))


def random_ample_dp6(rng, lo=1, hi=6):
    fan = dp6_fan()
    while True:
        coeffs = tuple(F(rng.randint(lo, hi)) for _ in range(6))
        if all(coeffs[(i - 1) % 6] + coeffs[(i + 1) % 6] > coeffs[i] for i in range(6)):
            return ToricDivisor(fan, coeffs)


def test_criterion_1_dp6_ampleness_boundary():
    with criterion(1, "dp6 ampleness boundary"):
        for lam in (F(13, 24), F(1), F(19, 10)):
            assert is_ample(lam_divisor(lam))
        for lam in (F(1, 2), F(2), F(5, 2)):
            assert not is_ample(lam_divisor(lam))
        for lam in (F(1, 2), F(2)):
            assert is_nef(lam_divisor(lam))


def test_criterion_2_alpha_vertex_formula():
    with criterion(2, "alpha vertex formula"):
        for a, lam in ((F(1), F(1)), (F(5, 4), F(6, 5)), (F(3), F(3, 5))):
            ctx = symmetry_context(lam_divisor(lam, a), "full")
            assert alpha_invariant(ctx) == min(1 / a, 1 / (lam * a))


def test_criterion_3_dp6_sweep():
    with criterion(3, "dp6 certified sweep"):
        family = dp6_family()
        start = time.monotonic()
        report = sweep_lambda(
            family,
            lambda_min=F(1, 2),
            lambda_max=F(2),
            step=F(1, 100),
            refine_tol=TOL,
            epsilon=F(1),
        )
        elapsed = time.monotonic() - start
        assert len(report.windows) == 1
        (window,) = report.windows
        assert window.lo_bracket[0] <= F(5, 6) <= window.lo_bracket[1]
        assert window.hi_bracket[0] <= F(6, 5) <= window.hi_bracket[1]
        assert window.lo_bracket[1] - window.lo_bracket[0] <= TOL
        assert window.hi_bracket[1] - window.hi_bracket[0] <= TOL
        assert feasible_scale_interval(family, F(5, 6)).is_empty
        assert feasible_scale_interval(family, F(6, 5)).is_empty
        at_one = feasible_scale_interval(family, F(1))
        assert (at_one.lo, at_one.hi) == (F(1), F(3, 2))
        assert elapsed < 60


def test_criterion_4_dp1_backend():
    with criterion(4, "dp1 curves, ampleness, sweep"):
        curves = exceptional_curves(8)
        assert len(curves) == 240
        assert curve_census(8) == {0: 8, 1: 28, 2: 56, 3: 56, 4: 56, 5: 28, 6: 8}
        for lam in (F(1, 10), F(1), F(13, 10), F(101, 100)):
            assert is_ample_picard(dp1_lambda(lam))
        for lam in (F(0), F(4, 3), F(3, 2)):
            assert not is_ample_picard(dp1_lambda(lam))
        sextic = dp1_surface().cls((6,) + (2,) * 7 + (3,))
        assert pairing(dp1_lambda(F(4, 3)), sextic) == 0
        report = sweep_lambda(
            dp1_family(),
            lambda_min=F(0),
            lambda_max=F(4, 3),
            step=F(1, 100),
            refine_tol=TOL,
            epsilon=F(1),
        )
        assert len(report.windows) == 1
        (window,) = report.windows
        assert window.lo_bracket[0] <= F(4, 5) <= window.lo_bracket[1]
        assert window.hi_bracket[0] <= F(10, 9) <= window.hi_bracket[1]
        assert window.lo_bracket[1] - window.lo_bracket[0] <= TOL
        assert window.hi_bracket[1] - window.hi_bracket[0] <= TOL


def test_criterion_5_cross_checks():
    with criterion(5, "intersection vs polytope cross-checks"):
        minus_k = anticanonical_divisor(dp6_fan())
        for lam in (F(3, 4), F(1), F(7, 6)):
            d = lam_divisor(lam)
            p = moment_polytope(d)
            assert intersection_number(d, d) == 2 * volume(p)
            assert intersection_number(minus_k, d) == boundary_measure(p)
        slopes = slope_quantities(lam_divisor(F(1), F(1)))
        assert slopes.rbar == 2
        # the quoted closed form with an extra lambda in the denominator
        # agrees with the intersection-theoretic value at a = lambda = 1
        a, lam = F(1), F(1)
        assert slopes.rbar == 2 * (1 + lam) / (a * lam * (4 * lam - 1 - lam**2))


def test_criterion_6_oracle_agreement():
    with criterion(6, "lct oracle vs vertex formula"):
        ctx = symmetry_context(anticanonical_divisor(dp6_fan()), "full")
        assert alpha_oracle(ctx, 12) == 1 == alpha_invariant(ctx)
        from kproper.toric import p2_fan

        ctx2 = symmetry_context(anticanonical_divisor(p2_fan()), "torus")
        assert alpha_oracle(ctx2, 1) == F(1, 3) == alpha_invariant(ctx2)
        rng = random.Random(2024)
        for _ in range(50):
            d = random_ample_dp6(rng)
            ctx = symmetry_context(d, "full")
            formula = alpha_invariant(ctx)
            shallow = alpha_oracle(ctx, 1)
            deep = alpha_oracle(ctx, 3)
            assert deep <= shallow
            assert shallow >= formula and deep >= formula


def test_criterion_7_metamorphic_equivariance():
    with criterion(7, "equivariance under lattice change of basis"):
        rng = random.Random(4096)
        gens = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((-1, 0), (0, 1))]

        def random_unimodular():
            g = ((1, 0), (0, 1))
            for _ in range(rng.randint(2, 7)):
                h = gens[rng.randrange(len(gens))]
                g = tuple(tuple(int(x) for x in row) for row in mat_mul(g, h))
            return g

        fan = dp6_fan()
        base_family = dp6_family()
        a, lam = F(5, 4), F(9, 8)
        d = lam_divisor(lam, a)
        base_ample = is_ample(d)
        base_alpha = alpha_invariant(symmetry_context(d, "full"))
        base_mu = slope_quantities(d).mu
        base_report = check_properness(
            backend=d, epsilon=F(1), alpha_source=StabilizerAlpha("full")
        )
        base_interval = feasible_scale_interval(base_family, lam)
        for _ in range(20):
            g = random_unimodular()
            image_fan = transform_fan(fan, g)
            image_d = ToricDivisor(image_fan, d.coeffs)
            assert is_ample(image_d) == base_ample
            assert alpha_invariant(symmetry_context(image_d, "full")) == base_alpha
            assert slope_quantities(image_d).mu == base_mu
            image_report = check_properness(
                backend=image_d, epsilon=F(1), alpha_source=StabilizerAlpha("full")
            )
            assert image_report.verdict == base_report.verdict
            assert image_report.conditions == base_report.conditions
            assert image_report.alpha == base_report.alpha
            image_family = Family(
                name="dp6",
                base=ToricDivisor(image_fan, base_family.base.coeffs),
                slope=ToricDivisor(image_fan, base_family.slope.coeffs),
            )
            assert feasible_scale_interval(image_family, lam) == base_interval


def test_criterion_8_reciprocity():
    with criterion(8, "lambda <-> 1/lambda reciprocity"):
        family = dp6_family()
        grid = [F(k, 20) for k in range(11, 40)]
        for lam in grid:
            direct = feasible_scale_interval(family, lam)
            mirrored = feasible_scale_interval(family, 1 / lam)
            assert direct.is_empty == mirrored.is_empty
            if not direct.is_empty:
                assert scaled(direct, lam) == mirrored


def test_criterion_9_degenerate_modes():
    with criterion(9, "negative-c1 and Fano modes"):
        fano = check_fano(anticanonical_divisor(dp6_fan()), StabilizerAlpha("full"))
        assert fano.verdict == VERDICT_PROPER and fano.alpha == 1
        for n in (2, 3):
            report = check_negative_c1(canonical_polarization_slice(n))
            assert report.verdict == VERDICT_PROPER
            assert report.scope == SCOPE_ALL
        for backend in (anticanonical_divisor(dp6_fan()), dp1_lambda(1)):
            try:
                check_negative_c1(backend)
            except GeometryError:
                pass
            else:
                raise AssertionError("rational surface must be rejected by the c1<0 mode")
