"""The surface J-flow class condition, as an oracle for condition (3).

With c = (W.D)/D^2, the J-flow with target W on the class D converges
smoothly iff 2c D - W is ample.  Take W = K + epsilon L, which condition (2)
makes ample: then c = epsilon - mu and 2c L - W = (epsilon - 2 mu) L - K,
which is condition (3) on a surface.  `jflow_converges_surface` decides the
flow condition with intersection numbers and the backends' own ampleness
tests, never with the checker, and must agree with condition (3) on every
class where condition (2) holds.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import anticanonical  # noqa: E402
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_family_tables import AMPLE  # noqa: E402
from test_properness import dp1_lambda, lam_divisor  # noqa: E402
from test_wall_pairings import FANS  # noqa: E402

from kproper.picard import (  # noqa: E402
    BlowupSurface,
    PicardClass,
    dp1_surface,
    is_ample_picard,
    pairing,
)
from kproper.properness import (  # noqa: E402
    VERDICT_PROPER,
    StabilizerAlpha,
    SuppliedAlpha,
    check_properness,
)
from kproper.rationals import GeometryError, InputError  # noqa: E402
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    anticanonical_divisor,
    canonical_divisor,
    dp6_fan,
    intersection_number,
    is_ample,
)

F = Fraction


def jflow_converges_surface(d, w) -> bool:
    """Smooth convergence of the surface J-flow with target W on the class
    D, for two ample classes of one surface backend."""
    if type(d) is not type(w) or not isinstance(d, (ToricDivisor, PicardClass)):
        raise InputError("J-flow condition needs two toric divisors or two Picard classes")
    if isinstance(d, ToricDivisor):
        if d.fan.dim != 2:
            raise GeometryError("the J-flow class condition is a surface statement")
        dot, ample = intersection_number, is_ample
    else:
        dot, ample = pairing, is_ample_picard
    if not (ample(d) and ample(w)):
        raise GeometryError("both classes must be ample")
    c = dot(w, d) / dot(d, d)
    return ample(2 * c * d - w)


def test_jflow_self_slope():
    d = lam_divisor(F(3, 2))
    assert jflow_converges_surface(d, d)


def test_jflow_anticanonical_target():
    # c = (-K . L_{3/2}) / K^2 = (15/2)/6 = 5/4; the test class is
    # (5/2)(-K) - L_{3/2}, which is ample (coefficients 3/2 and 1)
    minus_k = anticanonical_divisor(dp6_fan())
    w = lam_divisor(F(3, 2))
    assert jflow_converges_surface(minus_k, w)


def test_jflow_boundary_class_with_proper_k_energy():
    # derived boundary pair: D = (5/4) L_{9/8} passes the properness
    # criterion, while W = L_{146/241} makes 2cD - W exactly nef (the even
    # walls vanish), so the flow does not converge smoothly
    d = lam_divisor(F(9, 8), F(5, 4))
    w = lam_divisor(F(146, 241))
    assert is_ample(w)
    assert not jflow_converges_surface(d, w)
    report = check_properness(backend=d, epsilon=F(1), alpha_source=StabilizerAlpha("full"))
    assert report.verdict == VERDICT_PROPER


def test_jflow_picard_backend():
    k8 = anticanonical(dp1_surface())
    assert jflow_converges_surface(k8, k8)


def test_jflow_input_validation():
    with pytest.raises(GeometryError):
        jflow_converges_surface(lam_divisor(F(5, 2)), lam_divisor(1))
    with pytest.raises(InputError):
        jflow_converges_surface(lam_divisor(1), dp1_lambda(1))


# ---------------------------------------------------------------------------
# condition (3) is the flow condition with target K + epsilon L

offsets = st.fractions(min_value=-1, max_value=1, max_denominator=12)
scales = st.fractions(min_value=F(1, 2), max_value=3, max_denominator=8)


@st.composite
def surface_classes(draw):
    """(L, K) for an ample L on a fan of test_wall_pairings.py (dp6 among
    them) or on the blowup of P^2 at r <= 8 points (dp1 at r = 8).  On dp6
    and dp1 condition (2) has implied condition (3) on every class tried;
    F2 and the blowup at one point carry classes where (3) alone fails."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(FANS)))
        coeffs = [a + draw(offsets) for a in AMPLE[name]]
        cls, k = ToricDivisor(FANS[name], coeffs), canonical_divisor(FANS[name])
        assume(is_ample(cls))
    else:
        surface = BlowupSurface(draw(st.integers(1, 8)))
        t = draw(scales)
        coords = (3 * t + draw(offsets) / 2, *(t + draw(offsets) / 4 for _ in range(surface.r)))
        cls, k = surface.cls(coords), surface.canonical()
        assume(is_ample_picard(cls))
    return cls, k


@settings(max_examples=100, deadline=None)
@given(surface_classes(), st.fractions(min_value=F(1, 4), max_value=4, max_denominator=12))
# condition (3) holds on the first pair and fails on the other two
@example((lam_divisor(1), canonical_divisor(dp6_fan())), F(2))
@example((ToricDivisor(FANS["F2"], (F(2, 3), F(5, 6), F(25, 12), F(3, 4))),
          canonical_divisor(FANS["F2"])), F(3, 2))
@example((BlowupSurface(1).cls((2, 1)), BlowupSurface(1).canonical()), F(25, 12))
def test_condition_three_is_the_jflow_condition(pair, epsilon):
    cls, k = pair
    _, cond2, cond3 = check_properness(cls, epsilon, SuppliedAlpha(F(1))).conditions
    assume(cond2.holds)
    assert cond3.holds == jflow_converges_surface(cls, k + epsilon * cls)
