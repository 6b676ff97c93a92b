"""Every CLI example in README.md runs to completion.

The examples are the `kproper ...` lines of the README's CLI block, run
in-process from a directory that holds `sweep.json` and `slice.json`,
written from the README's own sweep-config block and slice format.  So an
edit that breaks an example, or the input it documents, fails here.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from kproper.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _code_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def _examples() -> list[list[str]]:
    (block,) = [b for b in _code_blocks("") if b.startswith("kproper [")]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("kproper ") and "<command>" not in line
    ]


def _inputs() -> dict[str, dict]:
    (sweep,) = _code_blocks("json")
    (slice_,) = re.findall(r"^\* slice \(for `--mode negative-c1`\): `(.*?)`", README, re.S | re.M)
    return {"sweep.json": json.loads(sweep), "slice.json": json.loads(slice_)}


@pytest.mark.parametrize("argv", _examples(), ids=" ".join)
def test_readme_cli_example_runs(capsys, tmp_path, monkeypatch, argv):
    for name, data in _inputs().items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_readme_lists_every_subcommand():
    commands = {argv[0] for argv in _examples()}
    assert commands == {"fan", "divisor", "polytope", "alpha", "intersect", "check", "sweep",
                        "picard"}
