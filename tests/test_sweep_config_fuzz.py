"""Arbitrary JSON in every sweep-config field ends in a report or one error line.

Each field is left out, set to an arbitrary JSON value, or set to a value
the sweep accepts, so runs reach every stage: config parsing, the cost
caps, the sweep itself and its endpoint checks.  Every run must exit 0
with a report on stdout, or exit 1 with exactly one `error: ...` line on
stderr; an exception escaping `main` fails the test.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kproper.cli import main  # noqa: E402

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
    | st.sampled_from(["2/4", "1/0", "", "+1", "-0", "p2"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
# small grids and few bisection steps, so a run that gets through takes milliseconds
rationals = st.sampled_from(
    ["0", "1", "-1", "2", "3", "1/2", "4/3", "5/6", "6/5", "4/5", "10/9", "1/10", "1/4"]
)
FIELDS = {
    "family": st.sampled_from(["dp6", "dp1"]),
    "epsilon": rationals,
    "lambda_min": rationals,
    "lambda_max": rationals,
    "step": st.sampled_from(["1/10", "1/4", "1", "0", "-1/10"]),
    "refine_tol": st.sampled_from(["1/100", "1/10", "1", "0"]),
    "conjectured_endpoints": st.lists(rationals, max_size=2),
}


@st.composite
def configs(draw):
    """Mostly accepted values, so most runs reach the sweep; one field in
    ten is left out and one in ten is arbitrary JSON, as is one whole
    config in twenty."""
    if draw(st.integers(0, 19)) == 0:
        return draw(json_values)
    config = {}
    for key, accepted in FIELDS.items():
        roll = draw(st.integers(0, 9))
        if roll:
            config[key] = draw(json_values if roll == 1 else accepted)
    return config


@settings(max_examples=150, deadline=None)
@given(configs())
@example({"family": "dp6", "lambda_min": "1/2", "lambda_max": "2", "step": "1/4",
          "refine_tol": "1/100", "conjectured_endpoints": ["5/6", "6/5"]})
@example({"family": "dp1", "lambda_min": "0", "lambda_max": "4/3", "step": "1/10",
          "refine_tol": "1/100", "epsilon": "0"})
@example({"family": "dp1", "lambda_min": "1", "lambda_max": "3", "step": "1/4",
          "refine_tol": "1/10", "conjectured_endpoints": ["2", "5/2"]})
@example({"family": "dp6", "lambda_min": "1" * 5000, "lambda_max": "2", "step": "1",
          "refine_tol": "1"})
@example({"family": "dp6", "lambda_min": "-" + "9" * 3000, "lambda_max": "9" * 3000,
          "step": "1/" + "9" * 3000, "refine_tol": "1"})
def test_any_sweep_config_ends_in_a_report_or_one_error_line(config):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert json.loads(out)["kind"] == "feasibility-report" and err == ""
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    [b'{"lambda_min": ' + b"1" * 5000 + b"}", b"[" * 100000, b"\xff\xfe{}"],
    ids=["long integer", "deep nesting", "not UTF-8"],
)
def test_unreadable_sweep_config_json_is_an_input_error(capsys, tmp_path, data):
    path = tmp_path / "sweep.json"
    path.write_bytes(data)
    assert main(["sweep", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: invalid JSON") and err.count("\n") == 1
