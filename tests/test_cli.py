import itertools
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from kproper.cli import main, parse_report, render_report
from kproper.properness import (
    StabilizerAlpha,
    check_properness,
)
from kproper.rationals import InputError
from kproper.toric import ToricDivisor, anticanonical_divisor, dp6_fan


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_validate_builtin(capsys):
    code, out, _ = run_cli(capsys, "fan", "validate", "dp6")
    assert code == 0
    assert json.loads(out) == {"smooth": True, "complete": True}


def test_fan_validate_from_file(capsys, tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
    }))
    code, out, _ = run_cli(capsys, "fan", "validate", str(path))
    assert code == 0
    assert json.loads(out)["complete"] is True


def test_unknown_builtin_is_input_error(capsys):
    code, _, err = run_cli(capsys, "fan", "validate", "dp7")
    assert code == 1
    assert "unknown fan" in err


def test_malformed_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"rays": [[1, 0],')
    code, _, err = run_cli(capsys, "fan", "validate", str(path))
    assert code == 1
    assert "line" in err and "column" in err


def test_fan_autos(capsys):
    code, out, _ = run_cli(capsys, "fan", "autos", "dp6")
    data = json.loads(out)
    assert code == 0 and data["order"] == 12
    assert [[1, 0], [0, 1]] in data["matrices"]


def test_divisor_ample(capsys):
    code, out, _ = run_cli(capsys, "divisor", "ample", "dp6", "--coeffs", "1,1,1,1,1,1")
    assert code == 0
    assert json.loads(out) == {"ample": True, "nef": True}


def test_non_canonical_rational_rejected(capsys):
    code, _, err = run_cli(capsys, "divisor", "ample", "dp6", "--coeffs", "1,2/4,1,1,1,1")
    assert code == 1
    assert '"1/2"' in err


def test_polytope_info(capsys):
    code, out, _ = run_cli(capsys, "polytope", "info", "dp6", "--coeffs", "1,1,1,1,1,1")
    data = json.loads(out)
    assert code == 0
    assert data["volume"] == "3"
    assert data["boundary_measure"] == "6"
    assert data["barycenter"] == ["0", "0"]
    assert ["'", "'"] not in data["vertices"]
    assert len(data["vertices"]) == 6


def test_polytope_info_from_polytope_file(capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({
        "dim": 2,
        "hrep": [
            {"normal": [1, 0], "offset": "0"},
            {"normal": [-1, 0], "offset": "-1"},
            {"normal": [0, 1], "offset": "0"},
            {"normal": [0, -1], "offset": "-1"},
        ],
    }))
    code, out, _ = run_cli(capsys, "polytope", "info", str(path))
    assert code == 0
    assert json.loads(out)["volume"] == "1"


def test_alpha_command_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5",
        "--group", "full", "--oracle-depth", "2",
    )
    data = json.loads(out)
    assert code == 0
    assert data["alpha"] == "5/6"
    assert data["stabilizer_order"] == 6
    assert data["oracle_depth"] == 2


def test_alpha_explicit_group(capsys, tmp_path):
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"matrices": [[[0, -1], [1, -1]]]}))
    code, out, _ = run_cli(
        capsys, "alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5",
        "--group", "explicit", "--group-file", str(group),
    )
    data = json.loads(out)
    assert code == 0
    assert data["alpha"] == "5/6"
    assert data["stabilizer_order"] == 3

    code, _, err = run_cli(
        capsys, "alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5", "--group", "explicit",
    )
    assert code == 1 and "--group-file" in err


# 2,501 digits parse, but a square has more digits than str() writes
LONG = "1" * 2501


@pytest.mark.parametrize("argv", [
    ("intersect", "dp6", "--coeffs", ",".join([LONG] + ["1"] * 5)),
    ("polytope", "info", "dp6", "--coeffs", ",".join([LONG] * 6)),
    ("check", "--builtin", "dp1", "--coeffs", ",".join([str(3 * int(LONG) + 1)] + [LONG] * 8),
     "--alpha", "1"),
])
def test_a_result_beyond_the_digit_limit_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: a result has more than {sys.get_int_max_str_digits()} digits, "
                   "the interpreter's limit for writing an integer\n")


def test_intersect_command(capsys):
    code, out, _ = run_cli(capsys, "intersect", "dp6", "--coeffs", "1,1,1,1,1,1")
    data = json.loads(out)
    assert code == 0
    assert data == {
        "self_intersection": "6",
        "anticanonical_pairing": "6",
        "mu": "1",
        "rbar": "2",
    }


def test_check_failing_verdict_still_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "text", "check", "--builtin", "dp6",
        "--coeffs", "2,2,2,2,2,2", "--epsilon", "1",
    )
    assert code == 0
    assert "condition (1): FAIL" in out
    assert "verdict: criterion not satisfied" in out


def test_check_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--builtin", "dp6", "--coeffs", "5/4,5/4,5/4,5/4,5/4,5/4",
    )
    assert code == 0
    report = parse_report(out)
    assert render_report(report, "json") == out


@pytest.mark.parametrize("value", ["abc", "2/4", 5, None, ["1"]])
@pytest.mark.parametrize("index, key", [(1, "margin"), (2, "margin"), (2, "mu")])
def test_a_condition_value_that_is_no_canonical_rational_is_refused(capsys, index, key, value):
    code, out, _ = run_cli(
        capsys, "check", "--builtin", "dp6", "--coeffs", "1,7/10,1,7/10,1,7/10", "--epsilon", "1",
    )
    assert code == 0
    data = json.loads(out)
    data["conditions"][index]["values"][key] = value
    with pytest.raises(InputError, match=rf"conditions\[{index}\]\.values\.{key}\b"):
        parse_report(json.dumps(data))


def test_check_picard_backend(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--builtin", "dp1",
        "--coeffs", "15/4,5/4,5/4,5/4,5/4,5/4,5/4,5/4,5/4",
        "--alpha", "4/5",
    )
    data = json.loads(out)
    assert code == 0
    assert data["verdict"] == "proper"
    assert data["scope"] == "all potentials"


def test_check_one_blowup_tests_the_fiber(capsys):
    # L = (9/5) H - (6/5) E_1: K + L = -(6/5) H + (1/5) E_1 pairs to 1/5 with
    # E_1 but to -7/5 with the fiber H - E_1, so it is not ample
    code, out, _ = run_cli(
        capsys, "--format", "text", "check", "--builtin", "dp1", "--coeffs=9/5,6/5",
        "--alpha", "1", "--epsilon", "1",
    )
    assert code == 0
    assert "condition (2): FAIL  K + epsilon L ample  [margin=-7/5]  binding: curve (1, 1)" in out
    assert "verdict: criterion not satisfied" in out


def test_check_fano_mode(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--builtin", "dp6", "--coeffs", "1,1,1,1,1,1", "--mode", "fano",
    )
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "proper"


def test_check_negative_c1_slice_mode(capsys, tmp_path):
    # the README slice
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({
        "n": 2,
        "l_pow_n": "1",
        "k_dot_l_nm1": "1",
        "k_pow_n": "1",
        "test_curves": [{"name": "canonical test curve", "L": "1", "K": "1"}],
    }))
    code, out, _ = run_cli(capsys, "check", "--mode", "negative-c1", "--slice", str(path))
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "proper"
    # a passing nef condition names no binding row
    assert data["conditions"][0]["binding"] is None


README_SLICE = {
    "n": 2, "l_pow_n": "1", "k_dot_l_nm1": "1",
    "test_curves": [{"name": "canonical test curve", "L": "1", "K": "1"}],
}
DP6_ONES = ("--builtin", "dp6", "--coeffs", "1,1,1,1,1,1")


@pytest.mark.parametrize(
    "argv, message",
    [
        ((*DP6_ONES, "--slice", "nonexistent.json"),
         "check --mode epsilon-criterion does not read --slice"),
        (("--mode", "negative-c1", "--slice", "SLICE", *DP6_ONES, "--alpha", "1"),
         "check --mode negative-c1 --slice does not read --builtin, --coeffs, --alpha"),
        (("--mode", "negative-c1", "--slice", "SLICE", "--fan", "fan.json"),
         "check --mode negative-c1 --slice does not read --fan"),
        (("--mode", "negative-c1", "--builtin", "p2", "--coeffs", "1,1,1", "--epsilon", "1",
          "--group", "full"), "check --mode negative-c1 does not read --epsilon, --group"),
        (("--mode", "fano", *DP6_ONES, "--epsilon", "2"),
         "check --mode fano does not read --epsilon"),
        (("--mode", "fano", *DP6_ONES, "--slice", "SLICE"),
         "check --mode fano does not read --slice"),
        (("--builtin", "dp1", "--coeffs", "3,1", "--alpha", "1", "--group", "torus"),
         "check with --alpha does not read --group"),
        (("--builtin", "dp6", "--fan", "fan.json", "--coeffs", "1,1,1,1,1,1"),
         "check reads --builtin or --fan, not both"),
    ],
)
def test_check_refuses_a_flag_it_does_not_read(capsys, tmp_path, argv, message):
    path = tmp_path / "slice.json"
    path.write_text(json.dumps(README_SLICE))
    argv = [str(path) if a == "SLICE" else a for a in argv]
    code, out, err = run_cli(capsys, "check", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_check_reads_its_defaults_when_given(capsys):
    _, plain, _ = run_cli(capsys, "check", *DP6_ONES)
    _, given, _ = run_cli(capsys, "check", *DP6_ONES, "--epsilon", "1", "--group", "full",
                          "--mode", "epsilon-criterion")
    assert given == plain and json.loads(plain)["alpha"] == "1"


def test_slice_without_k_pow_n(capsys, tmp_path):
    # no decision reads K^n, so the key may be left out
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({
        "n": 2, "l_pow_n": "1", "k_dot_l_nm1": "1",
        "test_curves": [{"name": "canonical test curve", "L": "1", "K": "1"}],
    }))
    code, out, _ = run_cli(capsys, "check", "--mode", "negative-c1", "--slice", str(path))
    assert code == 0 and json.loads(out)["verdict"] == "proper"


@pytest.mark.parametrize("value", ["2/4", "x", 1, None])
def test_slice_with_a_malformed_k_pow_n(capsys, tmp_path, value):
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({
        "n": 2, "l_pow_n": "1", "k_dot_l_nm1": "1", "k_pow_n": value,
        "test_curves": [{"L": "1", "K": "1"}],
    }))
    code, out, err = run_cli(capsys, "check", "--mode", "negative-c1", "--slice", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "k_pow_n" in err


def test_slice_curve_name_must_be_a_string(capsys, tmp_path):
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({
        "n": 2, "l_pow_n": "1", "k_dot_l_nm1": "1", "k_pow_n": "1",
        "test_curves": [{"L": "1", "K": "1"}, {"name": {"a": 1}, "L": "1", "K": "1"}],
    }))
    code, out, err = run_cli(capsys, "check", "--mode", "negative-c1", "--slice", str(path))
    assert (code, out) == (1, "")
    assert err == 'error: "test_curves[1].name" must be a string, got a JSON object\n'


def test_negative_epsilon_is_one_error_line(capsys):
    code, out, err = run_cli(
        capsys, "check", "--builtin", "dp6", "--coeffs", "1,1,1,1,1,1", "--epsilon", "-1",
    )
    assert (code, out, err) == (1, "", "error: epsilon must be nonnegative\n")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n": 0}, "slice dimension must be positive"),
        ({"l_pow_n": "0"}, "slice needs L^n > 0"),
        ({"test_curves": []}, "slice needs at least one test curve"),
    ],
    ids=["n", "l_pow_n", "test_curves"],
)
def test_an_invalid_slice_is_one_error_line(capsys, tmp_path, change, message):
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({
        "n": 2, "l_pow_n": "1", "k_dot_l_nm1": "1",
        "test_curves": [{"name": "canonical test curve", "L": "1", "K": "1"}], **change,
    }))
    code, out, err = run_cli(capsys, "check", "--mode", "negative-c1", "--slice", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_passing_ample_condition_names_its_nearest_wall(capsys):
    # K + L pairs to 1/5 with the walls at rays 2 and 4 and more with the
    # rest; condition (3) is nearest to the wall at ray 3 alone
    code, out, _ = run_cli(
        capsys, "check", "--builtin", "dp6", "--coeffs", "5/4,5/4,5/4,6/5,5/4,5/4", "--alpha", "1",
    )
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "proper"
    assert [(c["holds"], c["binding"]) for c in data["conditions"]] == [
        (True, None), (True, "wall at ray 2"), (True, "wall at ray 3"),
    ]


def test_byte_identical_reruns(capsys):
    argv = ("check", "--builtin", "dp6", "--coeffs", "5/4,5/4,5/4,5/4,5/4,5/4")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_sweep_cli(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "family": "dp6",
        "epsilon": "1",
        "lambda_min": "11/10",
        "lambda_max": "13/10",
        "step": "1/20",
        "refine_tol": "1/1000",
        "conjectured_endpoints": ["6/5"],
    }))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    data = json.loads(out)
    assert code == 0
    assert len(data["intervals"]) == 1
    assert data["endpoint_checks"][0]["confirmed"] is True
    report = parse_report(out)
    assert render_report(report, "json") == out


def test_picard_curves_cli(capsys):
    code, out, _ = run_cli(capsys, "picard", "curves", "--r", "8")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 240
    assert data["census"] == {"0": 8, "1": 28, "2": 56, "3": 56, "4": 56, "5": 28, "6": 8}


def test_approx_flag_marks_decimals(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "text", "--approx", "alpha", "dp6",
        "--coeffs", "1,6/5,1,6/5,1,6/5",
    )
    assert code == 0
    assert "5/6 (~0.833333)" in out


APPROX_COMMANDS = {
    # command -> the number of rationals its text output prints
    "intersect": (("intersect", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5"), 4),
    # six vertices, the volume, the boundary measure and the barycenter
    "polytope": (("polytope", "info", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5"), 12 + 1 + 1 + 2),
    "alpha": (("alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5", "--oracle-depth", "2"), 2),
    # alpha, mu, and the values of conditions (1), (2) and (3)
    "check": (("check", "--builtin", "dp6", "--coeffs", "1,7/10,1,7/10,1,7/10",
               "--epsilon", "1"), 2 + 3 + 1 + 3),
}


@pytest.mark.parametrize("name", sorted(APPROX_COMMANDS))
def test_approx_approximates_every_rational_and_nothing_else(capsys, name):
    argv, count = APPROX_COMMANDS[name]
    code, plain, _ = run_cli(capsys, "--format", "text", *argv)
    assert code == 0
    code, approx, _ = run_cli(capsys, "--format", "text", "--approx", *argv)
    assert code == 0
    # every approximation follows the exact value it approximates
    marks = re.findall(r"(-?\d+(?:/\d+)?) \(~([^)]*)\)", approx)
    assert len(marks) == approx.count("(~") == count
    for exact, decimal in marks:
        assert math.isclose(float(Fraction(exact)), float(decimal), rel_tol=1e-5, abs_tol=0)
    assert re.sub(r" \(~[^)]*\)", "", approx) == plain


def test_approx_beyond_the_float_range(capsys):
    coeffs = "1" + "0" * 400 + ",1,1"
    code, out, err = run_cli(
        capsys, "--format", "text", "--approx", "check", "--builtin", "p2", "--coeffs", coeffs,
    )
    assert (code, err) == (0, "")
    assert "margin=" + "9" * 400 + " (~1e+400)]" in out
    assert "mu: 1/" + "3" * 399 + "4 (~3e-400)\n" in out
    code, out, err = run_cli(
        capsys, "--format", "text", "--approx", "intersect", "p2", "--coeffs", coeffs,
    )
    assert (code, err) == (0, "")
    assert "-K.D: 3" + "0" * 399 + "6 (~3e+400)\n" in out


def test_text_report_renders_for_library_report():
    from fractions import Fraction

    report = check_properness(
        backend=Fraction(5, 4) * anticanonical_divisor(dp6_fan()),
        epsilon=1,
        alpha_source=StabilizerAlpha("full"),
    )
    text = render_report(report, "text")
    assert "condition (1)" in text and "verdict: proper" in text


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "kproper", "fan", "validate", "p2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"smooth": True, "complete": True}


DP1_CLASS = ["3", "1", "1", "1", "1", "1", "1", "1", "1"]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"r": 8, "coords": 5}, '"coords" must be a list'),
        ({"r": "x", "coords": DP1_CLASS}, '"r" must be an integer, got "x"'),
        ({"r": 8.5, "coords": DP1_CLASS}, '"r" must be an integer, got 8.5'),
        ({"r": True, "coords": DP1_CLASS[:2]}, '"r" must be an integer, got true'),
    ],
)
def test_malformed_picard_json_is_input_error(capsys, tmp_path, payload, message):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "check", "--builtin", "dp1", "--coeffs", str(path),
                             "--alpha", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


def test_malformed_slice_dimension_is_input_error(capsys, tmp_path):
    path = tmp_path / "slice.json"
    path.write_text(json.dumps({
        "n": "x", "l_pow_n": "1", "k_dot_l_nm1": "1", "k_pow_n": "1",
        "test_curves": [{"L": "1", "K": "1"}],
    }))
    code, _, err = run_cli(capsys, "check", "--mode", "negative-c1", "--slice", str(path))
    assert code == 1
    assert err == 'error: "n" must be an integer, got "x"\n'


@pytest.mark.parametrize(
    "config, message",
    [
        ([1, 2], "sweep config must be a JSON object"),
        ({"family": ["dp6"]}, "unknown family"),
        ({"family": "dp6", "conjectured_endpoints": "6/5"}, "must be a list"),
    ],
)
def test_malformed_sweep_config_is_input_error(capsys, tmp_path, config, message):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 1
    assert err.startswith("error: ") and message in err


SWEEP_KEYS = {"family": "dp1", "lambda_min": "0", "lambda_max": "4/3", "step": "1/10",
              "refine_tol": "1/100"}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"lambda_min": None}, 'missing key "lambda_min"'),
        ({"refine_tol": None}, 'missing key "refine_tol"'),
        ({"family": None}, 'missing key "family"'),
        ({"lambda_min": 0}, '"lambda_min" must be a string like "p/q", got 0'),
        ({"step": 0.1}, '"step" must be a string like "p/q", got 0.1'),
        ({"lambda_max": True}, '"lambda_max" must be a string like "p/q", got true'),
        ({"epsilon": [1]}, '"epsilon" must be a string like "p/q", got a JSON array'),
        ({"epsilon": "null"}, 'malformed rational "null" in epsilon'),
        ({"conjectured_endpoints": [{}]},
         '"conjectured_endpoints[0]" must be a string like "p/q", got a JSON object'),
    ],
)
def test_sweep_config_names_missing_and_mistyped_keys(capsys, tmp_path, change, message):
    config = {k: v for k, v in {**SWEEP_KEYS, **change}.items() if v is not None}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


def test_sweep_config_null_value_is_named(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**SWEEP_KEYS, "lambda_min": None}))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == 'error: "lambda_min" must be a string like "p/q", got null\n'


def test_malformed_divisor_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({"coeffs": 5}))
    code, _, err = run_cli(capsys, "divisor", "ample", "dp6", "--coeffs", str(path))
    assert code == 1
    assert '"coeffs" must be a list, got 5' in err


SQUARE_HREP = [
    {"normal": [1, 0], "offset": "0"},
    {"normal": [-1, 0], "offset": "-1"},
    {"normal": [0, 1], "offset": "0"},
    {"normal": [0, -1], "offset": "-1"},
]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"hrep": 5}, '"hrep" must be a list, got 5'),
        ({"dim": "x", "hrep": SQUARE_HREP}, '"dim" must be an integer, got "x"'),
        ({"dim": 2, "hrep": SQUARE_HREP, "equalities": 5}, '"equalities" must be a list'),
        ({"hrep": [{"normal": [1.5, 0], "offset": "0"}]},
         '"hrep[0].normal[0]" must be an integer, got 1.5'),
    ],
)
def test_malformed_polytope_json_is_input_error(capsys, tmp_path, payload, message):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "polytope", "info", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"dim": 2.5, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]},
         '"dim" must be an integer, got 2.5'),
        ({"rays": [[1, 0], [0, 1], [-1.5, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]},
         '"rays[2][0]" must be an integer, got -1.5'),
        ({"rays": 5, "max_cones": []}, '"rays" must be a list, got 5'),
    ],
)
def test_malformed_fan_json_is_input_error(capsys, tmp_path, payload, message):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "fan", "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"matrices": [[[0, -1.5], [1, -1]]]}, '"matrices[0][0][1]" must be an integer, got -1.5'),
        ({"matrices": [5]}, '"matrices[0]" must be a list, got 5'),
    ],
)
def test_malformed_group_json_is_input_error(capsys, tmp_path, payload, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5",
                             "--group", "explicit", "--group-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "--config", "sweep.json", "--parallel"), "unrecognized arguments: --parallel"),
        (("alpha", "dp6", "--coeffs", "1,1,1,1,1,1", "--oracle-depth", "x"),
         "argument --oracle-depth: invalid int value: 'x'"),
        (("frobnicate",), "invalid choice: 'frobnicate'"),
        (("check", "--builtin", "dp7"), "invalid choice: 'dp7'"),
        (("--format", "yaml", "fan", "validate", "dp6"), "invalid choice: 'yaml'"),
        (("fan",), "required"),
        ((), "required"),
        (("alpha", "p2", "--coeffs", "1,1,1", "--group-file", "nonexistent.json"),
         "alpha --group full does not read --group-file"),
        (("alpha", "p2", "--coeffs", "1,1,1", "--group", "torus", "--group-file", "g.json"),
         "alpha --group torus does not read --group-file"),
    ],
)
def test_usage_errors_end_in_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv", [("--help",), ("sweep", "--help")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kproper")


def test_repeated_requests_match_the_first(capsys, tmp_path):
    """The parser is built once per process; every request parses afresh."""
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "family": "dp6", "lambda_min": "11/10", "lambda_max": "13/10",
        "step": "1/20", "refine_tol": "1/1000",
    }))
    requests = [
        ("check", "--builtin", "dp7"),
        ("--help",),
        ("check", "--builtin", "dp6", "--coeffs", "5/4,5/4,5/4,5/4,5/4,5/4"),
        ("--format", "text", "alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5",
         "--oracle-depth", "2"),
        ("sweep", "--config", str(config)),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, [line for line in err.splitlines() if line.startswith("error:")]

    first = [run(argv) for argv in requests]
    assert [code for code, _, _ in first] == [1, 0, 0, 0, 0]
    assert first[0][2] == ["error: argument --builtin: invalid choice: 'dp7' "
                           "(choose from 'p2', 'dp6', 'dp1')"]
    assert first[1][1].startswith("usage: kproper")
    assert [run(argv) for argv in requests] == first


def test_oracle_point_cap_rejects_before_work(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "alpha", "dp6", "--coeffs=300,300,300,300,300,300",
                             "--oracle-depth", "2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: the oracle would visit up to 1803602 lattice points to depth 2, "
                   "over the cap of 1000000\n")


def test_cost_caps_reject_before_work(capsys, tmp_path):
    code, out, err = run_cli(capsys, "alpha", "dp6", "--coeffs", "1,1,1,1,1,1",
                             "--oracle-depth", "100000")
    assert (code, out) == (1, "")
    assert err.startswith("error: oracle depth 100000 exceeds the cap")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "family": "dp6", "lambda_min": "1/2", "lambda_max": "2",
        "step": "1/1000000000", "refine_tol": "1/1000",
    }))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith("error: the grid would hold 1500000001 points")
    # 1/10 halved down to 1e-100 takes 329 bisection steps
    config.write_text(json.dumps({
        "family": "dp6", "lambda_min": "11/10", "lambda_max": "13/10",
        "step": "1/10", "refine_tol": "1/1" + "0" * 100,
    }))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.startswith("error: bisecting one grid step down to refine_tol would take 329 steps")


# a 3D polytope with 60 half-spaces: C(60, 3) = 34220 candidate vertices
SIXTY_NORMALS = [v for v in itertools.product(range(-2, 3), repeat=3) if math.gcd(*v) == 1][:60]


def test_vertex_enumeration_is_capped(capsys, tmp_path):
    path = tmp_path / "polytope.json"
    path.write_text(json.dumps({"hrep": [
        {"normal": list(n), "offset": str(-sum(map(abs, n)))} for n in SIXTY_NORMALS
    ]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "polytope", "info", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: the vertex enumeration would try 34220 candidate vertices "
                   "(60 half-spaces choose 3); the cap is 5000\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("fan", "validate", "DIR"),
        ("divisor", "ample", "p2", "--coeffs", "DIR"),
        ("polytope", "info", "DIR"),
        ("check", "--builtin", "dp1", "--coeffs", "DIR"),
        ("check", "--mode", "negative-c1", "--slice", "DIR"),
        ("alpha", "p2", "--coeffs", "1,1,1", "--group", "explicit", "--group-file", "DIR"),
        ("sweep", "--config", "DIR"),
    ],
    ids=" ".join,
)
def test_a_directory_for_a_file_is_one_error_line(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *(str(tmp_path) if a == "DIR" else a for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {tmp_path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["1\n", "a\nb", "1/2\r\n"])
def test_a_newline_in_a_rational_stays_on_the_error_line(capsys, tmp_path, text):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**SWEEP_KEYS, "lambda_min": text}))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert (code, out) == (1, "")
    shown = text.replace("\r", "\\r").replace("\n", "\\n")
    assert err == (f'error: malformed rational "{shown}" in lambda_min; '
                   'expected canonical "p/q" or "p"\n')


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fan", "validate", "dp\n7"), 'unknown fan "dp\\n7": not a builtin'),
        (("divisor", "ample", "p2", "--coeffs", "1,1,a\nb"), 'malformed rational "a\\nb" in coeffs[2]'),
        (("check", "--builtin", "dp6", "--coeffs", "1,1,1,1,1,1", "--alpha", "1\n2"),
         'malformed rational "1\\n2" in --alpha'),
        (("check", "--mode", "negative-c1", "--slice", "no\nfile.json"), "no such file: no\\nfile.json"),
    ],
)
def test_a_newline_in_an_argument_stays_on_the_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_fan_automorphism_search_is_capped(capsys, tmp_path):
    # P^6: 7 rays, so 7^6 candidate maps, far past the cap
    rays = [[int(i == j) for j in range(6)] for i in range(6)] + [[-1] * 6]
    cones = [list(c) for c in itertools.combinations(range(7), 6)]
    path = tmp_path / "p6.json"
    path.write_text(json.dumps({"dim": 6, "rays": rays, "max_cones": cones}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fan", "autos", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: the fan automorphism search would try 117649 candidate maps "
                   "(7 rays to the power 6); the cap is 4096\n")


def test_optimized_mode_keeps_results_and_invariants():
    """Under python -O the load-bearing checks are raises, not asserts."""

    def run(*args):
        return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True)

    curves = run("-m", "kproper", "picard", "curves", "--r", "8")
    assert curves.returncode == 0
    assert json.loads(curves.stdout)["count"] == 240
    check = run("-m", "kproper", "check", "--builtin", "dp1",
                "--coeffs", "15/4,5/4,5/4,5/4,5/4,5/4,5/4,5/4,5/4", "--alpha", "4/5")
    assert check.returncode == 0
    assert json.loads(check.stdout)["verdict"] == "proper"
    dp6_check = run("-m", "kproper", "check", "--builtin", "dp6",
                    "--coeffs", "5/4,5/4,5/4,5/4,5/4,5/4", "--epsilon", "1")
    assert dp6_check.returncode == 0
    assert json.loads(dp6_check.stdout)["verdict"] == "proper"
    alpha = run("-m", "kproper", "alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5")
    assert alpha.returncode == 0
    assert json.loads(alpha.stdout)["alpha"] == "5/6"
    polygon = run("-m", "kproper", "polytope", "info", "dp6", "--coeffs", "1,1,1,1,1,1")
    assert polygon.returncode == 0
    assert json.loads(polygon.stdout)["volume"] == "3"
    oracle = run("-m", "kproper", "alpha", "dp6", "--coeffs", "1,6/5,1,6/5,1,6/5",
                 "--oracle-depth", "2")
    assert oracle.returncode == 0
    assert json.loads(oracle.stdout)["oracle"] == "5/6"
    derived = run("-c", (
        "from kproper.properness import ConditionCheck, PropernessReport\n"
        "holding = ConditionCheck('condition (2)', 'd', holds=True)\n"
        "failing = ConditionCheck('condition (1)', 'd', holds=False)\n"
        "print(PropernessReport('m', 'b', 's', (holding, failing)).verdict)\n"
    ))
    assert derived.returncode == 0 and derived.stdout == "criterion not satisfied\n"
