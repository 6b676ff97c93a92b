"""The exact lambda certificate of a family, and sweep decisions read from it.

`Family.certificate` partitions the range where every row and every alpha
piece is positive into feasible, infeasible, endpoint and uncertified
pieces, by Descartes bisection on the linear and cubic polynomials that the
cut loop's comparisons clear to.  Its `feasible_at` is the one decision
route of a sweep: a lookup inside a piece, and the pointwise rule (the
signs of the rows, the alpha pieces, M L^2 and the cut polynomials at
lambda) at a piece end, in an uncertified piece and outside the range.
These tests hold it to:

- the windows of dp6 and dp1 derived with sympy from the geometry alone;
- the sympy root of the cubic that ends the window of an r = 2 pencil;
- the cut loop of `tests/helpers.py`, on random Picard and toric pencils,
  at random lambdas, at every piece end and next to each end, raises
  included;
- the pointwise rule at exactly the piece ends that the acceptance sweeps
  reach, and byte-identical acceptance sweeps with every piece uncertified;
- the checker, which probes one point of each feasible and infeasible
  piece when the certificate is built;
- one build per family and process, never at import.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from helpers import decide_by_cuts, feasible_at  # noqa: E402
from test_family_window import (  # noqa: E402
    CUBIC_END_LAMBDAS,
    LAM,
    _dp1_window,
    _dp6_window,
    _outcome,
    cubic_end_picard_pencil,
    cubic_end_toric_pencil,
    lambdas,
    picard_pencils,
    toric_pencils,
)
from test_golden import GOLDEN, SWEEPS  # noqa: E402

from kproper import properness  # noqa: E402
from kproper.cli import render_report  # noqa: E402
from kproper.rationals import GeometryError  # noqa: E402
from kproper.properness import (  # noqa: E402
    Family,
    LambdaCertificate,
    dp1_family,
    dp6_family,
    sweep_lambda,
)

F = Fraction
BUILTIN = {"dp6": (dp6_family, _dp6_window, (F(1, 2), F(2))),
           "dp1": (dp1_family, _dp1_window, (F(0), F(4, 3)))}


def fresh(family) -> Family:
    """The same pencil with no certificate built yet."""
    return Family(family.name, family.base, family.slope, family.alpha)


def ends(certificate):
    return sorted({e for p in certificate.pieces for e in (p.lo, p.hi) if e is not None})


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_builtin_certificates_match_the_sympy_windows(name):
    make, window, ample = BUILTIN[name]
    pieces = make().certificate.pieces
    # the pieces tile the ample range, which the alpha pieces do not cut
    assert (pieces[0].lo, pieces[-1].hi) == ample
    assert all(a.hi == b.lo for a, b in zip(pieces, pieces[1:]))
    (feasible,) = [p for p in pieces if p.verdict == "feasible"]
    assert sp.Interval.open(feasible.lo, feasible.hi) == window()
    assert {p.verdict for p in pieces if p is not feasible} == {"infeasible"}
    for piece in pieces:
        # the named polynomial is negative on an infeasible piece
        if piece.verdict == "infeasible":
            poly = sp.Poly(list(reversed(piece.poly)), LAM)
            mid = sp.Rational((piece.lo + piece.hi) / 2)
            assert poly.eval(mid) <= 0
            assert piece.triple[1] in (2, 3)


def test_a_cubic_window_end_is_an_endpoint_piece():
    # the r = 2 pencil of test_sweep_follows_a_window_end_set_by_condition_three
    family = cubic_end_picard_pencil()
    cubic = sp.Poly(4275 * LAM**3 - 19144 * LAM**2 - 17291 * LAM + 3842, LAM)
    (root,) = [r for r in sp.real_roots(cubic) if F(5, 32) < r < F(3, 16)]
    assert not root.is_rational
    # rational a < root < b, 1e-20 apart
    ((a, b),) = [(F(str(a)), F(str(b))) for (a, b), _ in cubic.intervals(eps=F(1, 10**20))
                 if a <= root <= b]
    (piece,) = [p for p in family.certificate.pieces if p.lo < a and b < p.hi]
    assert piece.verdict == "endpoint"
    assert piece.triple == ("curve (0, -1, 0)", 3, (2, -1))
    # the piece's polynomial is the cubic up to a constant, with one root there
    assert sp.Poly(list(reversed(piece.poly)), LAM).monic() == cubic.monic()
    assert cubic.count_roots(sp.Rational(str(piece.lo)), sp.Rational(str(piece.hi))) == 1
    # feasible on the right of the root: one evaluation of the cubic each side
    assert feasible_at(family.certificate, a) is False
    assert feasible_at(family.certificate, b) is True
    assert decide_by_cuts(family, a) is False and decide_by_cuts(family, b) is True


def _check_lookup_against_cut_loop(family, lams):
    """The certificate answers like the cut loop, raises included, at every
    lambda, at every piece end and next to each end."""
    certificate = family.certificate
    points = set(lams)
    for end in ends(certificate):
        points |= {end, end - F(1, 10**9), end + F(1, 10**9)}
    for lam in sorted(points):
        assert (_outcome(lambda: feasible_at(certificate, lam))
                == _outcome(lambda: decide_by_cuts(family, lam))), lam


@settings(max_examples=25, deadline=None)
@given(picard_pencils(), lambdas)
@example(cubic_end_picard_pencil(), CUBIC_END_LAMBDAS["picard"])
def test_lookup_matches_the_cut_loop_on_picard_pencils(family, lams):
    if family is None:
        return
    _check_lookup_against_cut_loop(family, lams)


@settings(max_examples=30, deadline=None)
@given(toric_pencils(), lambdas)
@example((cubic_end_toric_pencil(), True), CUBIC_END_LAMBDAS["toric"])
def test_lookup_matches_the_cut_loop_on_toric_pencils(pencil, lams):
    family, _ = pencil
    if family.alpha_pieces is None:
        return
    _check_lookup_against_cut_loop(family, lams)


def _acceptance_sweep(family, name) -> str:
    config = SWEEPS[f"sweep_{name}_acceptance"]
    args = [F(config[key]) for key in ("lambda_min", "lambda_max", "step", "refine_tol",
                                       "epsilon")]
    ends = [F(e) for e in config["conjectured_endpoints"]]
    return render_report(sweep_lambda(family, *args, ends))


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_acceptance_sweeps_decide_piece_ends_by_the_pointwise_rule(name, monkeypatch):
    # the grid points at the piece ends: dp6 at 1/2, 3/4, 6/5 and 2, dp1 at 0,
    # 1/2 and 4/5; every bisection point lies inside a piece
    calls = []
    original = LambdaCertificate._pointwise
    monkeypatch.setattr(LambdaCertificate, "_pointwise",
                        lambda self, lam: calls.append(lam) or original(self, lam))
    golden = (GOLDEN / f"sweep_{name}_acceptance.json").read_text(encoding="utf-8")
    assert _acceptance_sweep(fresh(BUILTIN[name][0]()), name) == golden
    assert set(calls) == {"dp6": {F(1, 2), F(3, 4), F(6, 5), F(2)},
                         "dp1": {F(0), F(1, 2), F(4, 5)}}[name]


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_acceptance_sweeps_are_byte_identical_through_the_fallback(name, monkeypatch):
    monkeypatch.setattr(properness, "CERTIFICATE_MAX_DEPTH", 0)
    family = fresh(BUILTIN[name][0]())
    assert {p.verdict for p in family.certificate.pieces} == {"uncertified"}
    golden = (GOLDEN / f"sweep_{name}_acceptance.json").read_text(encoding="utf-8")
    assert _acceptance_sweep(family, name) == golden


def test_the_dp1_certificate_is_built_once_and_not_at_import():
    code = """
import json
from fractions import Fraction as F
import kproper.cli
from kproper import properness
built = [properness.dp1_family.cache_info().currsize, "certificate" in vars(properness.dp1_family())]
calls = []
original = properness._certify
properness._certify = lambda family: calls.append(family.name) or original(family)
for _ in range(2):
    properness.sweep_lambda(properness.dp1_family(), F(0), F(4, 3), F(1, 10), F(1, 100))
print(json.dumps([built, calls]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={"PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, False], ["dp1"]]


@pytest.mark.parametrize("l_sq", [(-1, 0, 0), (-1, 1, 0)], ids=["everywhere", "below 1"])
def test_the_certificate_raises_where_l_squared_is_not_positive(l_sq):
    # dp6 with its form M L^2 replaced: -1, or lambda - 1, negative on part of (1/2, 2)
    family = fresh(dp6_family())
    vars(family)["forms"] = l_sq + dp6_family().forms[3:]
    with pytest.raises(GeometryError, match=r"internal inconsistency: L\^2 <= 0 at lambda"):
        family.certificate


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=F(4, 3), max_denominator=10**6))
def test_builtin_lookups_match_the_cut_loop(lam):
    for make, _, _ in BUILTIN.values():
        assert feasible_at(make().certificate, lam) == decide_by_cuts(make(), lam)


@pytest.mark.parametrize("name", sorted(BUILTIN))
@pytest.mark.parametrize("verdict", ["feasible", "infeasible"])
def test_a_piece_the_checker_contradicts_raises(name, verdict, monkeypatch):
    # the first piece of the given verdict gets the other one when the
    # certificate is built; the probe at its midpoint must refuse it
    original = properness._certify_piece
    other = {"feasible": "infeasible", "infeasible": "feasible"}[verdict]

    def corrupting(family, active, lo, hi, depth, out):
        original(family, active, lo, hi, depth, out)
        if depth == 0:
            i = next(i for i, p in enumerate(out) if p.verdict == verdict)
            out[i] = out[i]._replace(verdict=other)

    monkeypatch.setattr(properness, "_certify_piece", corrupting)
    family = fresh(BUILTIN[name][0]())
    with pytest.raises(GeometryError, match=f"internal inconsistency: the exact probe at "
                                            f"lambda = .* disagrees with the certificate's {other}"):
        family.certificate
