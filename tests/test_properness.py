import random
import re
from fractions import Fraction

import pytest
from helpers import canonical_polarization_slice, scaled

from kproper import properness
from kproper.cli import parse_report, render_report
from kproper.picard import dp1_surface, is_ample_picard, pairing
from kproper.properness import (
    MAX_CONJECTURED_ENDPOINTS,
    MAX_GRID_POINTS,
    SCOPE_ALL,
    SCOPE_G,
    VERDICT_FAIL,
    VERDICT_PROPER,
    ConditionCheck,
    Family,
    PropernessReport,
    StabilizerAlpha,
    SuppliedAlpha,
    abstract_slice,
    check_fano,
    check_negative_c1,
    check_properness,
    dervan_alpha_bound,
    dp1_family,
    dp6_family,
    feasible_scale_interval,
    sweep_lambda,
)
from kproper.rationals import GeometryError, InputError
from kproper.toric import ToricDivisor, anticanonical_divisor, dp6_fan, p2_fan
from test_toric import p1_cubed_fan

F = Fraction


def lam_divisor(lam, a=1):
    lam, a = F(lam), F(a)
    return ToricDivisor(dp6_fan(), (a, a * lam, a, a * lam, a, a * lam))


def dp1_lambda(lam, a=1):
    lam, a = F(lam), F(a)
    return dp1_surface().cls((3 * a,) + (a,) * 7 + (a * lam,))


# ---------------------------------------------------------------------------
# the three-condition checker


def test_checker_dp6_scaled_anticanonical_passes():
    report = check_properness(
        backend=F(5, 4) * anticanonical_divisor(dp6_fan()),
        epsilon=F(1),
        alpha_source=StabilizerAlpha("full"),
    )
    assert report.verdict == VERDICT_PROPER
    assert report.scope == SCOPE_G
    assert report.alpha == F(4, 5)
    assert report.mu == F(4, 5)
    assert [c.holds for c in report.conditions] == [True, True, True]


def test_checker_dp1_supplied_alpha_passes():
    # at lambda = 1 the feasible scales are (1, 3/2); a = 5/4 with the
    # Dervan bound 1 scaled to the class gives alpha = 4/5
    backend = dp1_lambda(1, F(5, 4))
    report = check_properness(
        backend=backend,
        epsilon=F(1),
        alpha_source=SuppliedAlpha(F(4, 5), label="supplied bound (Dervan)"),
    )
    assert report.verdict == VERDICT_PROPER
    assert report.scope == SCOPE_ALL


def test_checker_condition_one_fails_at_double_scale():
    report = check_properness(
        backend=2 * anticanonical_divisor(dp6_fan()),
        epsilon=F(1),
        alpha_source=StabilizerAlpha("full"),
    )
    assert report.verdict == VERDICT_FAIL
    assert report.alpha == F(1, 2)
    assert [c.holds for c in report.conditions] == [False, True, True]
    assert report.conditions[0].binding == "alpha bound"


def test_checker_rejects_non_ample_class():
    with pytest.raises(GeometryError, match="not Kahler"):
        check_properness(
            backend=lam_divisor(F(5, 2)),
            epsilon=F(1),
            alpha_source=StabilizerAlpha(),
        )


def test_checker_names_missing_alpha_source():
    with pytest.raises(GeometryError, match="stabilizer formula"):
        check_properness(
            backend=dp1_lambda(1, F(5, 4)),
            epsilon=F(1),
            alpha_source=StabilizerAlpha(),
        )


def test_epsilon_zero_routes_to_negative_c1():
    slice_backend = canonical_polarization_slice(2)
    report = check_properness(backend=slice_backend, epsilon=0, alpha_source=SuppliedAlpha(F(1)))
    assert report.mode == "negative-c1"
    assert report.verdict == VERDICT_PROPER


def test_checker_epsilon_slightly_above_one_on_anticanonical():
    report = check_properness(
        backend=anticanonical_divisor(dp6_fan()),
        epsilon=F(101, 100),
        alpha_source=SuppliedAlpha(F(1)),
    )
    assert report.verdict == VERDICT_PROPER


# ---------------------------------------------------------------------------
# negative-c1 and Fano modes


def test_negative_c1_canonical_polarization_identity_collapse():
    reports = [check_negative_c1(canonical_polarization_slice(n)) for n in (2, 3)]
    for report in reports:
        assert report.verdict == VERDICT_PROPER
        assert report.scope == SCOPE_ALL
        assert report.mu == -1
        # nL - (n-1)K with L = K collapses to K, pairing to 1 for every n
        assert report.conditions[0].values["margin"] == F(1)


def test_negative_c1_failing_slice():
    backend = abstract_slice(2, F(5), F(2), [("test curve", F(1), F(1))])
    report = check_negative_c1(backend)
    assert report.verdict == VERDICT_FAIL
    assert report.mu == F(-2, 5)
    assert report.conditions[0].values["margin"] == F(-1, 5)


def test_slice_curve_named_like_the_safeguard_adds_no_note():
    # slice test curves carry free names, the old safeguard label's included
    safeguard = "self-intersection safeguard (D.D > 0)"
    backend = abstract_slice(2, F(5), F(-3), [(safeguard, F(1), F(-1))])
    report = check_properness(
        backend=backend, epsilon=F(1), alpha_source=SuppliedAlpha(F(1), "bound")
    )
    assert [c.binding for c in report.conditions[1:]] == [safeguard, safeguard]


def test_negative_c1_rejects_rational_surfaces():
    with pytest.raises(GeometryError, match="c1 < 0"):
        check_negative_c1(anticanonical_divisor(dp6_fan()))
    with pytest.raises(GeometryError, match="c1 < 0"):
        check_negative_c1(dp1_lambda(1))


def test_fano_mode():
    fan = dp6_fan()
    report = check_fano(anticanonical_divisor(fan), StabilizerAlpha("full"))
    assert report.verdict == VERDICT_PROPER
    assert report.alpha == 1 and report.scope == SCOPE_G
    report = check_fano(anticanonical_divisor(p2_fan()), StabilizerAlpha("torus"))
    assert report.verdict == VERDICT_FAIL  # inconclusive, never "not proper"
    assert report.alpha == F(1, 3)
    report = check_fano(dp1_lambda(1), SuppliedAlpha(F(1), label="supplied bound (Dervan)"))
    assert report.verdict == VERDICT_PROPER
    with pytest.raises(GeometryError):
        check_fano(canonical_polarization_slice(2), SuppliedAlpha(F(1)))


# ---------------------------------------------------------------------------
# feasibility in the scale


def test_dp6_feasible_interval_values():
    family = dp6_family()
    assert feasible_scale_interval(family, 1) == feasible_scale_interval(family, F(1))
    interval = feasible_scale_interval(family, 1)
    assert (interval.lo, interval.hi) == (F(1), F(3, 2))
    assert feasible_scale_interval(family, F(5, 6)).is_empty
    assert feasible_scale_interval(family, F(6, 5)).is_empty
    # the emptiness at 6/5 is an exact endpoint collision at a = 5/4
    collided = feasible_scale_interval(family, F(6, 5))
    assert collided.lo == collided.hi == F(5, 4)


def test_dp1_feasible_interval_values():
    family = dp1_family()
    interval = feasible_scale_interval(family, 1)
    assert (interval.lo, interval.hi) == (F(1), F(3, 2))
    assert feasible_scale_interval(family, F(4, 5)).is_empty
    assert feasible_scale_interval(family, F(10, 9)).is_empty


@pytest.mark.parametrize("family", [dp6_family(), dp1_family()], ids=["dp6", "dp1"])
def test_feasible_interval_scales_as_one_over_epsilon(family):
    # every constraint depends on a only through t = epsilon * a, so the
    # interval at epsilon is the epsilon = 1 interval divided by epsilon
    lambdas = [F(k, 12) for k in range(1, 24)] + [F(5, 6), F(6, 5), F(4, 5), F(10, 9)]
    for lam in lambdas:
        try:
            base = feasible_scale_interval(family, lam)
        except GeometryError:
            for eps in (F(1, 7), F(2)):
                with pytest.raises(GeometryError):
                    feasible_scale_interval(family, lam, eps)
            continue
        for eps in (F(1, 7), F(1, 2), F(3, 4), F(2), F(7, 3)):
            assert feasible_scale_interval(family, lam, eps) == scaled(base, 1 / eps), (lam, eps)


def test_feasible_interval_outside_ample_range_errors():
    with pytest.raises(GeometryError, match="ample range"):
        feasible_scale_interval(dp6_family(), F(5, 2))
    with pytest.raises(GeometryError, match="ample range"):
        feasible_scale_interval(dp1_family(), F(3, 2))


def test_feasible_interval_epsilon_monotonicity():
    family = dp6_family()
    base = feasible_scale_interval(family, 1, epsilon=F(1))
    tighter = feasible_scale_interval(family, 1, epsilon=F(11, 10))
    assert (tighter.lo, tighter.hi) == (F(10, 11), F(15, 11))
    assert tighter.hi < base.hi       # condition (1) cap shrinks
    assert tighter.lo < base.lo       # condition (2) lower bound weakens


def test_feasible_interval_consistency_with_checker():
    # any passing checker run on a family member lies in the interval
    family = dp6_family()
    lam = F(9, 8)
    interval = feasible_scale_interval(family, lam)
    for a in (interval.lo + (interval.hi - interval.lo) * t for t in (F(1, 4), F(1, 2), F(3, 4))):
        report = check_properness(
            backend=lam_divisor(lam, a),
            epsilon=F(1),
            alpha_source=StabilizerAlpha("full"),
        )
        assert report.verdict == VERDICT_PROPER
    outside = interval.hi + F(1, 100)
    report = check_properness(
        backend=lam_divisor(lam, outside),
        epsilon=F(1),
        alpha_source=StabilizerAlpha("full"),
    )
    assert report.verdict == VERDICT_FAIL


def test_reciprocity_witness_map():
    family = dp6_family()
    for lam in (F(9, 10), F(7, 6), F(1), F(21, 20)):
        direct = feasible_scale_interval(family, lam)
        mirrored = feasible_scale_interval(family, 1 / lam)
        assert scaled(direct, lam) == mirrored


def test_dervan_bound():
    assert dervan_alpha_bound(1) == 1
    assert dervan_alpha_bound(F(1, 2)) == F(2, 3)
    assert dervan_alpha_bound(F(13, 10)) == 1


# ---------------------------------------------------------------------------
# sweeps


def test_small_dp6_sweep_window_and_endpoints():
    report = sweep_lambda(
        dp6_family(),
        lambda_min=F(4, 5),
        lambda_max=F(5, 4),
        step=F(1, 20),
        refine_tol=F(1, 1000),
        conjectured_endpoints=(F(5, 6), F(6, 5)),
    )
    assert len(report.windows) == 1
    (window,) = report.windows
    assert window.lo_bracket[0] <= F(5, 6) <= window.lo_bracket[1]
    assert window.hi_bracket[0] <= F(6, 5) <= window.hi_bracket[1]
    assert window.lo_bracket[1] - window.lo_bracket[0] <= F(1, 1000)
    assert window.hi_bracket[1] - window.hi_bracket[0] <= F(1, 1000)
    assert all(c.confirmed for c in report.endpoint_checks)
    assert report.diagnostics["alpha_scope"] == SCOPE_G


def test_sweep_outside_ample_cone_is_empty():
    report = sweep_lambda(
        dp6_family(), lambda_min=F(3), lambda_max=F(4), step=F(1, 4), refine_tol=F(1, 100)
    )
    assert report.windows == ()
    assert report.endpoint_checks == ()


def test_sweep_raises_on_a_threefold_family():
    fan = p1_cubed_fan()
    family = Family("P1^3", ToricDivisor(fan, (1,) * 6), ToricDivisor(fan, (0, 1) * 3))
    with pytest.raises(GeometryError, match="surfaces only"):
        sweep_lambda(family, F(1), F(2), F(1, 2), F(1, 10))


def test_sweep_raises_when_a_probe_is_inconsistent(monkeypatch):
    # only a lambda outside the ample range counts as infeasible
    def inconsistent(family, lam, epsilon=F(1)):
        raise GeometryError("internal inconsistency: stubbed probe")

    monkeypatch.setattr(properness, "feasible_scale_interval", inconsistent)
    with pytest.raises(GeometryError, match="internal inconsistency: stubbed probe"):
        sweep_lambda(dp6_family(), F(1, 2), F(2), F(1, 10), F(1, 100))


def test_sweep_rejects_empty_grid():
    with pytest.raises(InputError):
        sweep_lambda(dp6_family(), F(2), F(1), F(1, 10), F(1, 100))
    with pytest.raises(InputError):
        sweep_lambda(dp6_family(), F(1), F(2), F(0), F(1, 100))


def test_sweep_rejects_oversized_grid_before_building_it():
    # one point more than the cap; the check runs before any probe
    with pytest.raises(InputError, match="cap"):
        sweep_lambda(dp6_family(), F(0), F(1), F(1, MAX_GRID_POINTS), F(1, 100))
    with pytest.raises(InputError, match="cap"):
        sweep_lambda(dp6_family(), F(0), F(10**9), F(1, 10**9), F(1, 100))


def test_sweep_rejects_too_many_conjectured_endpoints_before_any_decision(monkeypatch):
    # one endpoint more than the cap, handed over as a generator; nothing is decided
    monkeypatch.setattr(properness, "_feasibility", None)
    ends = (F(6, 5) for _ in range(MAX_CONJECTURED_ENDPOINTS + 1))
    with pytest.raises(InputError, match=f"the cap is {MAX_CONJECTURED_ENDPOINTS}"):
        sweep_lambda(dp6_family(), F(1, 2), F(2), F(1, 10), F(1, 100), F(1), ends)


# ---------------------------------------------------------------------------
# report serialization


CHECK_KINDS = {
    "toric-epsilon": lambda: check_properness(
        backend=F(5, 4) * anticanonical_divisor(dp6_fan()),
        epsilon=F(1),
        alpha_source=StabilizerAlpha("full"),
    ),
    "dp1-picard": lambda: check_properness(
        dp1_surface().cls((F(3),) + (F(1),) * 7 + (F(1, 2),)), F(1), SuppliedAlpha(F(2, 3))
    ),
    "fano": lambda: check_fano(anticanonical_divisor(dp6_fan()), StabilizerAlpha("full")),
    "negative-c1-slice": lambda: check_negative_c1(
        abstract_slice(2, F(5), F(2), [("test curve", F(1), F(1))])
    ),
}


@pytest.mark.parametrize("kind", sorted(CHECK_KINDS))
def test_properness_report_round_trip(kind):
    report = CHECK_KINDS[kind]()
    text = render_report(report)
    assert parse_report(text) == report
    assert render_report(parse_report(text)) == text
    # every condition value is exact, written and read back as a Fraction
    for check in report.conditions + parse_report(text).conditions:
        assert check.values and all(type(v) is Fraction for v in check.values.values())
    # a report written while check reports still carried notes reads the same
    line = '  "kind": "properness-report",\n'
    older = text.replace(line, line + '  "notes": [],\n')
    assert older != text and parse_report(older) == report


@pytest.mark.parametrize("family, lam, coordinates", [
    (dp6_family, F(1), 6),
    (dp1_family, F(1), 9),
])
def test_a_certified_probe_formats_only_the_backend_description(
        monkeypatch, family, lam, coordinates):
    """One probe, its midpoint check included, formats no value of the
    report it throws away: every format_rational or format_ratio call goes
    through _join, which writes the midpoint class's coordinates into its
    description."""
    real_join = properness._join
    calls, joining = {"join": 0, "other": 0}, []

    def counting(real):
        def counting_format(*args):
            calls["join" if joining else "other"] += 1
            return real(*args)
        return counting_format

    def counting_join(values):
        joining.append(True)
        try:
            return real_join(values)
        finally:
            joining.pop()

    for name in ("format_rational", "format_ratio"):
        monkeypatch.setattr(properness, name, counting(getattr(properness, name)))
    monkeypatch.setattr(properness, "_join", counting_join)
    assert not feasible_scale_interval(family(), lam).is_empty
    assert calls == {"join": coordinates, "other": 0}


def test_feasibility_report_round_trip():
    report = sweep_lambda(
        dp6_family(),
        lambda_min=F(19, 20),
        lambda_max=F(21, 20),
        step=F(1, 20),
        refine_tol=F(1, 100),
        conjectured_endpoints=(F(6, 5),),
    )
    text = render_report(report)
    assert parse_report(text) == report
    assert render_report(parse_report(text)) == text


def test_verdict_is_conjunction_invariant():
    report = check_properness(
        backend=2 * anticanonical_divisor(dp6_fan()),
        epsilon=F(1),
        alpha_source=StabilizerAlpha("full"),
    )
    assert report.verdict == (
        VERDICT_PROPER if all(c.holds for c in report.conditions) else VERDICT_FAIL
    )


def test_supplied_alpha_scope_is_all_potentials():
    report = check_properness(
        backend=anticanonical_divisor(dp6_fan()),
        epsilon=F(1),
        alpha_source=SuppliedAlpha(F(1), label="supplied value"),
    )
    assert report.scope == SCOPE_ALL


def test_verdict_conjunction_is_enforced():
    # the verdict is derived from the conditions, so it cannot disagree with them
    holding = ConditionCheck("condition (2)", "K + epsilon L ample", holds=True)
    failing = ConditionCheck("condition (1)", "epsilon < (n+1)/n * alpha", holds=False)
    report = PropernessReport("epsilon-criterion", "b", SCOPE_ALL, (holding, failing))
    assert (report.verdict, report.proper) == (VERDICT_FAIL, False)
    report = PropernessReport("epsilon-criterion", "b", SCOPE_ALL, (holding, holding))
    assert (report.verdict, report.proper) == (VERDICT_PROPER, True)


def test_cut_loop_rejects_a_nonpositive_constraint():
    # past lambda = 4/3 the sextic pairs negatively with L_lambda; a family
    # that wrongly claims ampleness there must not yield an interval
    class ClaimsAmple(Family):
        def is_ample_at(self, lam):
            return True

    base = dp1_family()
    family = ClaimsAmple(base.name, base.base, base.slope, base.alpha)
    # at 7/5, L^2 = 1/25 > 0 and the sextic pairs to 4 - 21/5 < 0, so the
    # row check of the cut loop raises
    with pytest.raises(GeometryError, match=re.escape(
        "internal inconsistency: the ample class pairs nonpositively with "
        "curve (6, 2, 2, 2, 2, 2, 2, 2, 3)"
    )):
        feasible_scale_interval(family, F(7, 5))
    # at 3/2, L^2 <= 0 already, and the forms raise before the rows are read
    with pytest.raises(GeometryError, match=r"internal inconsistency: L\^2 <= 0 at lambda = 3/2"):
        feasible_scale_interval(family, F(3, 2))
