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
    "verify-hom-f-rank3": ["verify-hom", "--rank", "3", "--map", "f"],
    "verify-hom-phi-rank3": ["verify-hom", "--rank", "3", "--map", "phi"],
    "verify-hom-f-rank4": ["verify-hom", "--rank", "4", "--map", "f"],
    "verify-hom-phi-rank4": ["verify-hom", "--rank", "4", "--map", "phi"],
    "verify-hom-f-rank5": ["verify-hom", "--rank", "5", "--map", "f"],
    "verify-hom-phi-rank5": ["verify-hom", "--rank", "5", "--map", "phi"],
    "verify-twist": ["verify-twist", "--rank", "1", "--b", "2", "--depth", "3"],
    "verify-twist-rank2": ["verify-twist", "--rank", "2", "--b", "3,1", "--depth", "2"],
    "verify-twist-rank3": ["verify-twist", "--rank", "3", "--b", "1,1,1", "--depth", "1"],
    "verify-twist-rank3-b211": ["verify-twist", "--rank", "3", "--b", "2,1,1", "--depth", "2"],
    "verma-mult": [
        "verma-mult", "--algebra", "g", "--rank", "1",
        "--lambda", "0", "--depth", "4", "--offset", "4",
    ],
    "verify-prop4b": [
        "verify-prop4b", "--rank", "2", "--depth", "3",
        "--samples", "1", "--seed", "0",
    ],
    "verify-prop8b": ["verify-prop8b", "--rank", "2", "--depth", "3"],
    "verify-prop4b-rank3": [
        "verify-prop4b", "--rank", "3", "--depth", "2",
        "--samples", "1", "--seed", "0",
    ],
    "verify-prop8b-rank3": [
        "verify-prop8b", "--rank", "3", "--depth", "2",
        "--v-weight", "1/2,0,-1/3",
    ],
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


def test_golden_commands_never_cancel(cancel_calls, capsys):
    """Every golden command keeps its scalars polynomial, so sympy's gcd
    cancel is never called."""
    for argv in CASES.values():
        run_case(argv, capsys)
    assert not cancel_calls


def test_golden_commands_never_call_sympy_division(div_calls, capsys):
    """Exact quotients of polynomials are oak's own, so sympy's polynomial
    division is never called."""
    for argv in CASES.values():
        run_case(argv, capsys)
    assert not div_calls
