"""Byte-exact CLI output against the files in tests/golden/.

Each case runs `oak --format json <argv>` in-process through `oak.cli.main`
and compares stdout and the exit code with `golden/<name>.json`, which holds
`{"argv": [...], "exit": code, "stdout": "..."}`.
"""

import json
from pathlib import Path

import pytest

from oak.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "bracket": ["bracket", "--rank", "2", "X[+e1-e2]", "X[+e2-e1]"],
    "normal-order": ["normal-order", "--rank", "1", "X[+e1] X[-e1]"],
    "support": ["support", "--rank", "1", "--module", "S", "--box=-3:3"],
    "verify-hom-f": ["verify-hom", "--rank", "2", "--map", "f"],
    "verify-hom-phi": ["verify-hom", "--rank", "2", "--map", "phi"],
    "verify-twist": ["verify-twist", "--rank", "1", "--b", "2", "--depth", "3"],
    "verma-mult": [
        "verma-mult", "--algebra", "g", "--rank", "1",
        "--lambda", "0", "--depth", "4", "--offset", "4",
    ],
    "verify-prop4b": [
        "verify-prop4b", "--rank", "2", "--depth", "3",
        "--samples", "1", "--seed", "0",
    ],
    "verify-prop8b": ["verify-prop8b", "--rank", "2", "--depth", "3"],
}


def run_case(argv, capsys):
    code = main(["--format", "json", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name, capsys):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert expected["argv"] == CASES[name]
    code, out = run_case(CASES[name], capsys)
    assert code == expected["exit"]
    assert out == expected["stdout"]
