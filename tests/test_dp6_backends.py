"""The two backends of dP6 agree, and so do its two pencils.

dP6 is P^2 blown up at three points, so the hexagonal fan and
`BlowupSurface(3)` describe one surface.  In `dp6_fan`'s ray order the
boundary divisors D_1, ..., D_6 are E_1, H - E_1 - E_2, E_2, H - E_2 - E_3,
E_3, H - E_3 - E_1.  Under that map:

- intersection numbers, canonical degrees and ampleness agree, and the
  checker under one supplied alpha finds the same mu and the same values
  of every condition;
- `dp6_family`'s pencil becomes (0; -1, -1, -1) + lambda (3; 2, 2, 2) on the
  blowup.  A family there has no stabilizer formula, so with no alpha a
  sweep refuses it before any probe.  Given dp6's alpha pieces, and an
  evaluation of 1 / max(1, lambda) of its own, it has dp6's certificate and
  acceptance sweep, apart from row labels and provenance.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from helpers import anticanonical  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper import properness  # noqa: E402
from kproper.picard import BlowupSurface, PicardClass, is_ample_picard, pairing  # noqa: E402
from kproper.properness import (  # noqa: E402
    SCOPE_G,
    Family,
    FamilyAlpha,
    SuppliedAlpha,
    check_properness,
    dp6_family,
    sweep_lambda,
)
from kproper.rationals import InputError  # noqa: E402
from kproper.toric import (  # noqa: E402
    ToricDivisor,
    anticanonical_divisor,
    canonical_divisor,
    dp6_fan,
    intersection_number,
    is_ample,
)

F = Fraction
SURFACE = BlowupSurface(3)
# the (d; m_1, m_2, m_3) of the image of each D_i, for d H - sum m_i E_i
IMAGES = ((0, -1, 0, 0), (1, 1, 1, 0), (0, 0, -1, 0), (1, 0, 1, 1), (0, 0, 0, -1), (1, 1, 0, 1))
# dp6's alpha pieces, evaluated apart from them
DP6_ALPHA = FamilyAlpha((1, ((0, 1), (1, 0))), lambda lam: 1 / max(F(1), lam),
                        "supplied value (dp6 pieces)", SCOPE_G)


def on_the_blowup(d: ToricDivisor) -> PicardClass:
    return SURFACE.cls(tuple(sum(a * v[j] for a, v in zip(d.coeffs, IMAGES)) for j in range(4)))


@st.composite
def ample_classes(draw):
    """t (-K) moved by at most t/4 in each coefficient: every wall pairing
    a_{i-1} + a_{i+1} - a_i stays at least t/4, so the class is ample."""
    t = draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=6))
    moves = st.fractions(min_value=F(-1, 4), max_value=F(1, 4), max_denominator=12)
    return ToricDivisor(dp6_fan(), tuple(t * (1 + draw(moves)) for _ in range(6)))


# random coefficients are rarely ample, so half the classes are drawn ample
classes = ample_classes() | st.builds(
    lambda c: ToricDivisor(dp6_fan(), tuple(c)),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=6, max_size=6),
)


def test_the_anticanonical_classes_correspond():
    assert on_the_blowup(anticanonical_divisor(dp6_fan())) == anticanonical(SURFACE)


@settings(max_examples=150, deadline=None)
@given(classes, classes)
@example(anticanonical_divisor(dp6_fan()), dp6_family().slope)
def test_pairings_canonical_degrees_and_ampleness_agree(d, e):
    image = on_the_blowup(d)
    assert intersection_number(d, e) == pairing(image, on_the_blowup(e))
    assert intersection_number(canonical_divisor(d.fan), d) == pairing(SURFACE.canonical(), image)
    assert is_ample(d) == is_ample_picard(image)


@settings(max_examples=60, deadline=None)
@given(ample_classes(), st.sampled_from((F(1, 3), F(1), F(7, 4))))
@example(anticanonical_divisor(dp6_fan()), F(1))
def test_the_checker_agrees_on_both_backends(d, epsilon):
    toric, picard = (check_properness(c, epsilon, SuppliedAlpha(F(2, 3)))
                     for c in (d, on_the_blowup(d)))
    assert toric.mu == picard.mu
    assert ([(c.name, c.holds, c.values) for c in toric.conditions]
            == [(c.name, c.holds, c.values) for c in picard.conditions])


def picard_pencil(alpha=None) -> Family:
    """dp6_family's pencil on the blowup of P^2 at three points."""
    dp6 = dp6_family()
    return Family("dp6 on the blowup", on_the_blowup(dp6.base), on_the_blowup(dp6.slope), alpha)


def test_the_pencils_have_equal_forms():
    assert picard_pencil().slope.coords == (3, 2, 2, 2)
    assert picard_pencil().forms == dp6_family().forms


def test_without_an_alpha_the_picard_pencil_is_refused_before_any_probe(monkeypatch):
    monkeypatch.setattr(properness, "feasible_scale_interval", None)
    message = 'sweeps need a closed-form alpha; family "dp6 on the blowup" is on no toric surface'
    with pytest.raises(InputError, match=message):
        sweep_lambda(picard_pencil(), F(1, 2), F(2), F(1, 10), F(1, 100))
    with pytest.raises(InputError, match=message):
        picard_pencil().certificate


def test_given_dp6_pieces_the_picard_pencil_has_dp6s_certificate():
    ours, theirs = picard_pencil(DP6_ALPHA).certificate, dp6_family().certificate

    def unlabelled(certificate):
        # a piece's triple is (row label, condition, alpha piece)
        return [(p.lo, p.hi, p.verdict, p.triple and p.triple[1:]) for p in certificate.pieces]

    assert len(ours.pieces) == 4
    assert unlabelled(ours) == unlabelled(theirs)
    assert ours.alpha_pieces == theirs.alpha_pieces


def test_given_dp6_pieces_the_picard_pencil_sweeps_like_dp6():
    args = (F(1, 2), F(2), F(1, 100), F(1, 10**6), F(1), (F(5, 6), F(6, 5)))
    ours, theirs = (sweep_lambda(family, *args) for family in (picard_pencil(DP6_ALPHA),
                                                               dp6_family()))
    assert ours.windows == theirs.windows
    assert ours.endpoint_checks == theirs.endpoint_checks
    assert all(c.confirmed for c in ours.endpoint_checks)
    assert ours.diagnostics["alpha_scope"] == theirs.diagnostics["alpha_scope"] == SCOPE_G
