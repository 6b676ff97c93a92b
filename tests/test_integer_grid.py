"""Sweep decisions on integer pairs, and one moment polygon per dp6 probe.

`sweep_lambda` decides grid point k as the pair (a + k b, d) and each
bisection point as an integer over d 2^k, with
`LambdaCertificate.feasible_pair(p, q)`; `feasible_at(lam)` delegates to
it.  The pairs need not be in lowest terms, so the pair decision must
equal `feasible_at` on every multiple (g p, g q) of a lambda, raises
included.

A dp6 probe builds L_lambda and its moment polygon once: the midpoint
certificate checks L_lambda itself, at slack epsilon mid, which the
criterion's scale invariance allows.  So an acceptance sweep with 11
distinct probes solves 6 cone functionals per probe and no more.
"""

import random
from fractions import Fraction

import pytest
from helpers import feasible_at

from kproper import properness, toric
from kproper.properness import dp1_family, dp6_family, sweep_lambda
from kproper.rationals import GeometryError

F = Fraction
# each builtin family with the ends of its certified range
BUILTIN = {"dp6": (dp6_family, (F(1, 2), F(2))), "dp1": (dp1_family, (F(0), F(4, 3)))}


def _outcome(decide):
    try:
        return decide()
    except GeometryError:
        return "GeometryError"


def _agree(certificate, lam):
    expected = _outcome(lambda: feasible_at(certificate, lam))
    for g in (1, 2, 3, 10, 7 * 11 * 13):
        pair = _outcome(lambda: certificate.feasible_pair(g * lam.numerator, g * lam.denominator))
        assert pair == expected, (lam, g)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_pair_decisions_match_feasible_at_on_every_piece_end(name):
    certificate = BUILTIN[name][0]().certificate
    points = sorted({e for p in certificate.pieces for e in (p.lo, p.hi) if e is not None})
    assert points
    for end in points:
        for lam in (end, end - F(1, 10**6), end + F(1, 10**6)):
            _agree(certificate, lam)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_pair_decisions_match_feasible_at_on_seeded_grids(name):
    make, (lo, hi) = BUILTIN[name]
    certificate = make().certificate
    rng = random.Random(2024)
    for _ in range(5):
        start = lo - F(1, 4) + F(rng.randrange(10**4), 10**6)
        step = F(rng.randrange(1, 200), rng.choice((60, 97, 100, 1000)))
        lam = start
        while lam <= hi + F(1, 4):
            _agree(certificate, lam)
            lam += step


def test_a_dp6_sweep_builds_one_polygon_per_probe(monkeypatch):
    family = dp6_family()
    # from a grid offset, as a benchmark sweep starts: its 11 probes (4 bracket ends,
    # the witness and 3 per conjectured endpoint) fall on 11 distinct lambdas
    args = (F(1, 2) + F(37, 10**4), F(2), F(1, 100), F(1, 10**6), F(1), (F(5, 6), F(6, 5)))
    sweep_lambda(family, *args)
    probes, solves = [], []
    original_probe, original_solve = properness._scale_interval_with_bindings, toric.solve_exact
    monkeypatch.setattr(properness, "_scale_interval_with_bindings",
                        lambda f, lam, eps: probes.append(lam) or original_probe(f, lam, eps))
    monkeypatch.setattr(toric, "solve_exact", lambda *a: solves.append(a) or original_solve(*a))
    toric.moment_polytope.cache_clear()
    sweep_lambda(family, *args)
    assert len(probes) == len(set(probes)) == 11
    assert len(solves) == 6 * 11 == 66
