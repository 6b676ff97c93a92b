"""The builtin families are built once per process and shared.

`dp6_family()` and `dp1_family()` return the same `Family` on every call,
with the lambda-independent data it caches.  A CLI sweep on the shared
family must print the same bytes as a sweep on a freshly built `Family`,
whichever family is swept first, and also after a sweep that raised
halfway through.
"""

import json
from fractions import Fraction

import pytest
from helpers import DERVAN

from kproper import properness
from kproper.cli import main, render_report
from kproper.picard import dp1_surface
from kproper.properness import BUILTIN_FAMILIES, Family, dp1_family, dp6_family, sweep_lambda
from kproper.rationals import GeometryError
from kproper.toric import ToricDivisor, dp6_fan

F = Fraction

# the acceptance sweeps: lambda range and conjectured endpoints, at step
# 1/100 and refine_tol 1e-6
ACCEPTANCE = {
    "dp6": ("1/2", "2", ["5/6", "6/5"]),
    "dp1": ("0", "4/3", ["4/5", "10/9"]),
}


def fresh_family(name) -> Family:
    if name == "dp6":
        fan = dp6_fan()
        return Family("dp6", ToricDivisor(fan, (1, 0) * 3), ToricDivisor(fan, (0, 1) * 3))
    surface = dp1_surface()
    return Family("dp1", surface.cls((3,) + (1,) * 7 + (0,)), surface.cls((0,) * 8 + (1,)), DERVAN)


def fresh_sweep(name) -> str:
    lo, hi, ends = ACCEPTANCE[name]
    report = sweep_lambda(
        fresh_family(name), F(lo), F(hi), F(1, 100), F(1, 10**6), F(1), [F(e) for e in ends]
    )
    return render_report(report)


def cli_sweep(name, tmp_path, capsys):
    lo, hi, ends = ACCEPTANCE[name]
    path = tmp_path / f"sweep_{name}.json"
    path.write_text(json.dumps({
        "family": name, "epsilon": "1", "lambda_min": lo, "lambda_max": hi,
        "step": "1/100", "refine_tol": "1/1000000", "conjectured_endpoints": ends,
    }))
    code = main(["sweep", "--config", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def cold_families():
    """Drop the shared families, so the test builds them on first use."""
    dp6_family.cache_clear()
    dp1_family.cache_clear()
    yield
    dp6_family.cache_clear()
    dp1_family.cache_clear()


def test_builtin_families_are_built_once():
    assert dp6_family() is dp6_family()
    assert dp1_family() is dp1_family()
    assert BUILTIN_FAMILIES["dp6"]() is dp6_family()
    assert BUILTIN_FAMILIES["dp1"]() is dp1_family()


@pytest.mark.parametrize("order", [("dp6", "dp1"), ("dp1", "dp6")], ids=["dp6-first", "dp1-first"])
def test_shared_sweeps_match_fresh_families(order, tmp_path, capsys, cold_families):
    expected = {name: fresh_sweep(name) for name in order}
    for name in order + order:
        assert cli_sweep(name, tmp_path, capsys) == (0, expected[name], "")
    assert dp6_family() is BUILTIN_FAMILIES["dp6"]()


def test_a_sweep_that_raised_leaves_the_shared_families_intact(
    tmp_path, capsys, monkeypatch, cold_families
):
    expected = {name: fresh_sweep(name) for name in ACCEPTANCE}

    def broken(*args):
        raise GeometryError("internal inconsistency: broken certificate")

    # the first certified probe raises, after the sweep has filled the
    # family's rows, forms and alpha pieces and decided its grid
    with monkeypatch.context() as patch:
        patch.setattr(properness, "_verify_interval", broken)
        for name in ACCEPTANCE:
            code, out, err = cli_sweep(name, tmp_path, capsys)
            assert (code, out, err) == (1, "", "error: internal inconsistency: broken certificate\n")
    for name in ("dp1", "dp6"):
        assert cli_sweep(name, tmp_path, capsys) == (0, expected[name], "")
