"""A key that no reader reads is refused, by its full path.

A misspelled key would otherwise be dropped without a word: a sweep config
with "epslion" would run at the default epsilon, and a slice whose test
curve has "nmae" would get a made-up name.  So every object the readers
read, in an input file or in a report, refuses a key it does not know,
once the keys it knows have been read.
"""

import json
import re
from pathlib import Path

import pytest

from kproper.cli import main, parse_report
from kproper.rationals import InputError

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def sweep_report():
    data = golden("sweep_dp6_acceptance.json")
    data["intervals"][0]["witness"]["b"] = "1"
    return data


CASES = {
    "sweep-config": (
        "sweep --config",
        lambda: {"family": "dp6", "lambda_min": "1/2", "lambda_max": "2", "step": "1/10",
                 "refine_tol": "1/100", "epslion": "1/2", "conjectured_endpoint": ["5/6"]},
        "epslion",
    ),
    "slice": (
        "check --mode negative-c1 --slice",
        lambda: {"n": 2, "l_pow_n": "1", "k_dot_l_nm1": "1",
                 "test_curves": [{"nmae": "a curve", "L": "1", "K": "1"}]},
        "test_curves[0].nmae",
    ),
    "check-report": (None, lambda: {**golden("check_dp6_proper.json"), "verdcit": "proper"},
                     "verdcit"),
    "sweep-report": (None, sweep_report, "intervals[0].witness.b"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_unknown_key_is_refused_by_its_path(capsys, tmp_path, case):
    command, data, path = CASES[case]
    message = f'unknown key "{path}"'
    if command is None:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_report(json.dumps(data()))
        return
    source = tmp_path / "input.json"
    source.write_text(json.dumps(data()))
    code = main([*command.split(), str(source)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
