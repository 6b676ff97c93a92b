"""Arbitrary JSON in every field of every input file ends in a report or one error line.

The sweep config has its own fuzz test (test_sweep_config_fuzz.py); this
module covers the other files the CLI reads: fans, divisors, Picard
classes, polytopes, slices and group matrices, each through the cheapest
command that reads it.  Each field, and each entry of a list field, is
left out, set to arbitrary JSON or set to a value the reader accepts, so
runs reach the readers, the library's own validation and the command.
Every run must exit 0 with output on stdout, or exit 1 with exactly one
`error: ...` line on stderr; an exception escaping `main` fails the test.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_sweep_config_fuzz import json_values  # noqa: E402

from kproper.cli import main  # noqa: E402


def mostly(accepted):
    """`accepted` 19 times in 20, arbitrary JSON otherwise."""
    return st.integers(0, 19).flatmap(lambda roll: json_values if roll == 0 else accepted)


@st.composite
def documents(draw, fields):
    """Arbitrary JSON one time in 20; otherwise an object with each key of
    `fields` left out one time in 20, set to arbitrary JSON one time in 20,
    and drawn from its strategy otherwise.  Runs with several faults mostly
    stop at the first, so faults are kept rare enough for many runs to get
    through."""
    if draw(st.integers(0, 19)) == 0:
        return draw(json_values)
    doc = {}
    for key, accepted in fields.items():
        roll = draw(st.integers(0, 19))
        if roll:
            doc[key] = draw(json_values if roll == 1 else accepted)
    return doc


ints = mostly(st.integers(-2, 2))
rationals = mostly(st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "6/5", "-2/3"]))
positive = mostly(st.sampled_from(["1", "2", "1/2", "6/5"]))
dims = st.just(2) | st.integers(1, 3)


def int_lists(min_size=1, max_size=3):
    return mostly(st.lists(ints, min_size=min_size, max_size=max_size))


P2_AUTOMORPHISMS = [[[-1, 0], [-1, 1]], [[-1, 1], [-1, 0]], [[0, -1], [1, -1]],
                    [[0, 1], [1, 0]], [[1, -1], [0, -1]], [[1, 0], [0, 1]]]
P2_FAN = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}
SQUARE = [{"normal": n, "offset": c} for n, c in
          (([1, 0], "0"), ([-1, 0], "-1"), ([0, 1], "0"), ([0, -1], "-1"))]

# (argv with PATH for the file, a file the command accepts, the fields of the file)
LOADERS = {
    "fan": (
        ("fan", "validate", "PATH"),
        P2_FAN,
        {
            "dim": dims,
            "rays": st.just(P2_FAN["rays"]) | mostly(st.lists(int_lists(), max_size=4)),
            "max_cones": st.just(P2_FAN["max_cones"])
            | mostly(st.lists(mostly(st.lists(mostly(st.integers(0, 3)), max_size=3)),
                              max_size=4)),
        },
    ),
    "divisor": (
        ("divisor", "ample", "p2", "--coeffs", "PATH"),
        {"coeffs": ["1", "1", "1"]},
        {"coeffs": mostly(st.lists(rationals, min_size=2, max_size=4))},
    ),
    "picard": (
        ("check", "--builtin", "dp1", "--coeffs", "PATH", "--alpha", "1"),
        {"r": 3, "coords": ["3", "1", "1", "1"]},
        {
            "r": st.just(3) | mostly(st.integers(0, 9)),
            "coords": st.just(["3", "1", "1", "1"])
            | mostly(st.lists(rationals, min_size=1, max_size=5)),
        },
    ),
    "polytope": (
        ("polytope", "info", "PATH"),
        {"hrep": SQUARE, "equalities": [{"coeffs": [1, -1], "rhs": "0"}]},
        {
            "dim": dims,
            "hrep": st.just(SQUARE) | mostly(st.lists(
                documents({"normal": int_lists(2, 2) | int_lists(), "offset": rationals}),
                min_size=3, max_size=5)),
            "equalities": mostly(st.lists(
                documents({"coeffs": int_lists(), "rhs": rationals}), max_size=2)),
        },
    ),
    "slice": (
        ("check", "--mode", "negative-c1", "--slice", "PATH"),
        {"n": 2, "l_pow_n": "1", "k_dot_l_nm1": "1", "test_curves": [{"L": "1", "K": "1"}]},
        {
            "n": st.integers(1, 3),
            "l_pow_n": positive,
            "k_dot_l_nm1": rationals,
            "k_pow_n": rationals,
            "test_curves": mostly(st.lists(documents({
                "name": mostly(st.text(max_size=4)), "L": rationals, "K": rationals,
            }), min_size=1, max_size=3)),
        },
    ),
    "group": (
        ("alpha", "p2", "--coeffs", "1,1,1", "--group", "explicit", "--group-file", "PATH"),
        {"matrices": [[[0, 1], [1, 0]]]},
        {
            "matrices": mostly(st.lists(
                st.sampled_from(P2_AUTOMORPHISMS)
                | mostly(st.lists(int_lists(2, 2), min_size=2, max_size=2)),
                min_size=1, max_size=2)),
        },
    ),
}


def run(loader: str, doc) -> tuple[int, str, str]:
    argv, _, _ = LOADERS[loader]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{loader}.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if a == "PATH" else a for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_each_loader_reads_its_example(loader):
    code, out, err = run(loader, LOADERS[loader][1])
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_input_file_ends_in_output_or_one_error_line(loader, data):
    code, out, err = run(loader, data.draw(documents(LOADERS[loader][2]), label="document"))
    if code == 0:
        assert out and err == ""
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
