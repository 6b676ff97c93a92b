"""Byte-identity of CLI output against a committed golden corpus.

The files under tests/golden/ pin the exact stdout of sweeps, checks and
the toric polytope, alpha and intersection commands, including binding
labels, margins and tie-breaking among equal margins.
Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

from kproper.cli import main

GOLDEN = Path(__file__).parent / "golden"

SWEEPS = {
    "sweep_dp6": {
        "family": "dp6",
        "epsilon": "1",
        "lambda_min": "1/2",
        "lambda_max": "2",
        "step": "1/10",
        "refine_tol": "1/1000",
        "conjectured_endpoints": ["5/6", "6/5"],
    },
    "sweep_dp1": {
        "family": "dp1",
        "epsilon": "1",
        "lambda_min": "0",
        "lambda_max": "4/3",
        "step": "1/10",
        "refine_tol": "1/1000",
        "conjectured_endpoints": ["4/5", "10/9"],
    },
    # the acceptance settings of the CI smoke configs; their grids hit the
    # window ends 6/5 and 4/5 exactly
    "sweep_dp6_acceptance": {
        "family": "dp6",
        "epsilon": "1",
        "lambda_min": "1/2",
        "lambda_max": "2",
        "step": "1/100",
        "refine_tol": "1/1000000",
        "conjectured_endpoints": ["5/6", "6/5"],
    },
    "sweep_dp1_acceptance": {
        "family": "dp1",
        "epsilon": "1",
        "lambda_min": "0",
        "lambda_max": "4/3",
        "step": "1/100",
        "refine_tol": "1/1000000",
        "conjectured_endpoints": ["4/5", "10/9"],
    },
    # the piece-end settings of the CI smoke configs; their grids land on
    # every piece end of the lambda certificate and reach past the ample range
    "sweep_dp6_piece_ends": {
        "family": "dp6",
        "epsilon": "1",
        "lambda_min": "0",
        "lambda_max": "5/2",
        "step": "1/60",
        "refine_tol": "1/10000",
        "conjectured_endpoints": ["5/6", "6/5"],
    },
    "sweep_dp1_piece_ends": {
        "family": "dp1",
        "epsilon": "1",
        "lambda_min": "-1/2",
        "lambda_max": "3/2",
        "step": "1/90",
        "refine_tol": "1/10000",
        "conjectured_endpoints": ["4/5", "10/9"],
    },
}

# negative-c1 slice whose nef test fails on two curves with equal margin -1;
# the binding is the smaller name, not the first curve in the file
SLICES = {
    "check_slice_tie": {
        "n": 2,
        "l_pow_n": "1",
        "k_dot_l_nm1": "1",
        "k_pow_n": "1",
        "test_curves": [
            {"name": "zeta curve", "L": "1", "K": "3"},
            {"name": "beta curve", "L": "2", "K": "1"},
            {"name": "alpha curve", "L": "1", "K": "3"},
        ],
    },
}

# the dp6 fan blown up at five more cones; its 11 rays make label order
# differ from ray order, and condition (2) has margin 0 on exactly the walls
# at rays 3 and 10: ties go to the smaller label string, "wall at ray 10"
FANS = {
    "check_11ray_tie": (
        {
            "dim": 2,
            "rays": [[1, 0], [2, 1], [1, 1], [1, 2], [0, 1], [-1, 1], [-1, 0], [-2, -1],
                     [-1, -1], [0, -1], [1, -1]],
            "max_cones": [[i, (i + 1) % 11] for i in range(11)],
        },
        "1,4,7,18,12,19,10,12,4,0,0",
    ),
}

# (P^1)^3, for an oracle run on a threefold
P1_CUBED = {
    "dim": 3,
    "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    "max_cones": [[i, j, k] for i in (0, 1) for j in (2, 3) for k in (4, 5)],
}
# P^3, for a threefold check under the full group
P3 = {
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
}
# the order-3 rotation of the dp6 fan, for an oracle run under an explicit group
ROTATION = {"matrices": [[[0, -1], [1, -1]]]}

DP1_PROPER = "15/4,5/4,5/4,5/4,5/4,5/4,5/4,5/4,5/4"
DP1_FAILING = "3,1,1,1,1,1,1,1,1/2"
DP6_PROPER = "5/4,5/4,5/4,5/4,5/4,5/4"
DP6_FAILING = "1,7/10,1,7/10,1,7/10"
DP6_WINDOW_END = "1,6/5,1,6/5,1,6/5"
# 3H - sum (1 - i/N) E_i with N > 2^64: eight distinct multiplicities keep all
# 240 curve rows, and the pairings of its cleared numerators fill two 64-bit
# words of a packed slot
GENERIC_DEN = 10**20 + 39
DP1_GENERIC = ",".join(["3"] + [f"{GENERIC_DEN - i}/{GENERIC_DEN}" for i in range(1, 9)])

CHECKS = {
    "check_dp1_proper.json": ("check", "--builtin", "dp1", "--coeffs", DP1_PROPER,
                              "--alpha", "4/5"),
    "check_dp1_failing.json": ("check", "--builtin", "dp1", "--coeffs", DP1_FAILING,
                               "--alpha", "2/3"),
    "check_dp1_failing.txt": ("--format", "text", "check", "--builtin", "dp1",
                              "--coeffs", DP1_FAILING, "--alpha", "2/3"),
    # every condition value with its decimal approximation
    "check_dp1_failing_approx.txt": ("--format", "text", "--approx", "check", "--builtin", "dp1",
                                     "--coeffs", DP1_FAILING, "--alpha", "2/3"),
    # zero margin attained by many curves: the first curve in table order wins
    "check_dp1_tie.json": ("check", "--builtin", "dp1", "--coeffs", "3,1,1,1,1,1,1,1,1",
                           "--alpha", "1"),
    "check_dp1_generic.json": ("check", "--builtin", "dp1", "--coeffs", DP1_GENERIC,
                               "--alpha", "1/2"),
    "check_r5.json": ("check", "--builtin", "dp1", "--coeffs", "5,1,1,3/2,1,1/2",
                      "--alpha", "1/3"),
    "check_dp1_fano.json": ("check", "--builtin", "dp1", "--coeffs", "3,1,1,1,1,1,1,1,1",
                            "--mode", "fano", "--alpha", "3/4"),
    # on the blowup at one point, K + (3/2) L = -(1/2) E_1 pairs positively
    # with E_1 and has self-intersection -1/4; the fiber H - E_1 pairs to
    # -1/2 with it and binds condition (2), as Kleiman's criterion requires
    "check_r1_safeguard.json": ("check", "--builtin", "dp1", "--coeffs", "2,1",
                                "--alpha", "1", "--epsilon", "3/2"),
    "check_r1_safeguard.txt": ("--format", "text", "check", "--builtin", "dp1",
                               "--coeffs", "2,1", "--alpha", "1", "--epsilon", "3/2"),
    "check_dp6_proper.json": ("check", "--builtin", "dp6", "--coeffs", DP6_PROPER,
                              "--epsilon", "1"),
    "check_dp6_failing.json": ("check", "--builtin", "dp6", "--coeffs", DP6_FAILING,
                               "--epsilon", "1"),
    "check_dp6_failing.txt": ("--format", "text", "check", "--builtin", "dp6",
                              "--coeffs", DP6_FAILING, "--epsilon", "1"),
    # condition (2) has margin 0 on exactly the walls at rays 3 and 5
    "check_dp6_tie.json": ("check", "--builtin", "dp6", "--coeffs", "2,2,2,2,1,2",
                           "--epsilon", "1"),
    # README CLI examples on the toric backend; the nef class 1,2,1,2,1,2 is
    # not ample, so its polygon comes from the general vertex enumeration
    "polytope_dp6.json": ("polytope", "info", "dp6", "--coeffs", "1,1,1,1,1,1"),
    "polytope_dp6.txt": ("--format", "text", "polytope", "info", "dp6",
                         "--coeffs", "1,1,1,1,1,1"),
    "polytope_dp6_nef.json": ("polytope", "info", "dp6", "--coeffs", "1,2,1,2,1,2"),
    "alpha_dp6_full.json": ("alpha", "dp6", "--coeffs", DP6_WINDOW_END, "--group", "full",
                            "--oracle-depth", "12"),
    "alpha_dp6_torus.json": ("alpha", "dp6", "--coeffs", DP6_WINDOW_END, "--group", "torus",
                             "--oracle-depth", "12"),
    # an order-2 stabilizer, whose fixed polytope is a segment of the centered polygon
    "alpha_dp6_fixed_line.json": ("alpha", "dp6", "--coeffs", "2/7,2/7,2/7,4/7,6/7,6/7",
                                  "--group", "full", "--oracle-depth", "4"),
    # the torus alone: the fixed polytope is the whole centered triangle
    "alpha_p2_torus.json": ("alpha", "p2", "--coeffs", "1/3,2/7,5", "--group", "torus"),
    "picard_curves_r8.json": ("picard", "curves", "--r", "8"),
    "intersect_dp6.json": ("intersect", "dp6", "--coeffs", "1,1,1,1,1,1"),
    # D.D, -K.D, mu and rbar, each with its decimal approximation
    "intersect_dp6_approx.txt": ("--format", "text", "--approx", "intersect", "dp6",
                                 "--coeffs", DP6_WINDOW_END),
}

# text sweeps with decimal approximations: golden name -> the config in SWEEPS
TEXT_SWEEPS = {"sweep_dp6_approx.txt": "sweep_dp6_acceptance"}


def _cases(config_dir: Path):
    cases = dict(CHECKS)
    for name, config in SWEEPS.items():
        path = config_dir / f"{name}.config.json"
        path.write_text(json.dumps(config))
        cases[f"{name}.json"] = ("sweep", "--config", str(path))
    for golden, name in TEXT_SWEEPS.items():
        path = config_dir / f"{name}.config.json"
        cases[golden] = ("--format", "text", "--approx", "sweep", "--config", str(path))
    for name, data in SLICES.items():
        path = config_dir / f"{name}.slice.json"
        path.write_text(json.dumps(data))
        cases[f"{name}.json"] = ("check", "--mode", "negative-c1", "--slice", str(path))
    for name, (fan, coeffs) in FANS.items():
        path = config_dir / f"{name}.fan.json"
        path.write_text(json.dumps(fan))
        cases[f"{name}.json"] = ("check", "--fan", str(path), "--coeffs", coeffs, "--epsilon", "1")
    rotation = config_dir / "rotation.group.json"
    rotation.write_text(json.dumps(ROTATION))
    cases["alpha_dp6_explicit.json"] = ("alpha", "dp6", "--coeffs", DP6_WINDOW_END, "--group",
                                        "explicit", "--group-file", str(rotation),
                                        "--oracle-depth", "12")
    fan = config_dir / "p1_cubed.fan.json"
    fan.write_text(json.dumps(P1_CUBED))
    cases["alpha_p1_cubed.json"] = ("alpha", str(fan), "--coeffs", "1,1,1,1,1,2",
                                    "--oracle-depth", "3")
    # threefold checks: the cone-functional positivity test and mixed volumes
    cases["check_p1_cubed.json"] = ("check", "--fan", str(fan), "--coeffs",
                                    "1/3,2/3,3/4,1/2,5/7,1/3", "--alpha", "1/2")
    p3 = config_dir / "p3.fan.json"
    p3.write_text(json.dumps(P3))
    cases["check_p3.json"] = ("check", "--fan", str(p3), "--coeffs", "1,1,1,1")
    return cases


def _run(capsys, argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_cli_output_matches_golden_corpus(capsys, tmp_path):
    for name, argv in sorted(_cases(tmp_path).items()):
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert _run(capsys, argv) == expected, name


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(_cases(Path(tmp)).items()):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                if main(list(argv)) != 0:
                    sys.exit(f"{name}: nonzero exit")
            (GOLDEN / name).write_text(buffer.getvalue(), encoding="utf-8")
            print(f"wrote {GOLDEN / name}")
