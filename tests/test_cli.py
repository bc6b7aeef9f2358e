import json

import pytest

from oak.cli import main
from oak.characters import delta_char, generalized_verma_char
from oak.liealg import Weight
from oak.scalars import ParseError, ScalarContext
from oak.syntax import parse_weyl_element


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_example(capsys):
    code, out, _ = run(capsys, "bracket", "--rank", "2", "X[+e1-e2]", "X[+e2-e1]")
    assert code == 0
    assert out.strip() == "h1 - h2"


def test_bracket_round_trip(capsys):
    code, out, _ = run(capsys, "bracket", "--rank", "1", "X[+2e1]", "X[-2e1]")
    assert code == 0 and out.strip() == "4*h1"
    # the printed element re-parses
    code, out2, _ = run(capsys, "bracket", "--rank", "1", out.strip(), "X[+e1]")
    assert code == 0 and out2.strip() == "4*X[+e1]"


def test_verify_hom_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-hom", "--rank", "3", "--map", "f")
    assert code == 0
    assert "violations=0" in out


def test_verma_mult_example(capsys):
    code, out, _ = run(
        capsys,
        "verma-mult", "--algebra", "g", "--rank", "1",
        "--lambda", "0", "--depth", "4", "--offset", "4",
    )
    assert code == 0
    assert out.strip() == "3"


def test_verma_mult_depth_window(capsys):
    code, _, err = run(
        capsys,
        "verma-mult", "--algebra", "g", "--rank", "1",
        "--lambda", "0", "--depth", "2", "--offset", "5",
    )
    assert code == 2
    assert "window" in err


def test_normal_order_json_deterministic(capsys):
    args = ("normal-order", "--rank", "1", "X[+e1] X[-e1]", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data == [
        {"coefficient": "1", "monomial": "z"},
        {"coefficient": "1", "monomial": "X[-e1]*X[+e1]"},
    ]


def test_act_shale_weil(capsys):
    code, out, _ = run(
        capsys,
        "act", "--rank", "1", "--module", "S", "--op", "d1^2",
        "--vector", '[{"offset": [-1], "coefficient": "1"}]',
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [{"coefficient": "2", "offset": [-3]}]


def test_support_command(capsys):
    code, out, _ = run(
        capsys, "support", "--rank", "1", "--module", "S", "--box=-3:3"
    )
    assert code == 0
    assert out.splitlines() == ["-5/2", "-3/2", "-1/2"]


def test_verify_twist(capsys):
    code, out, _ = run(
        capsys, "verify-twist", "--rank", "1", "--b", "1", "--depth", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["mismatches"] == []


@pytest.mark.parametrize("b", ["-1", "a1", "1/2"])
def test_verify_twist_refuses_non_natural_parameter(capsys, b):
    code, out, err = run(
        capsys, "verify-twist", "--rank", "1", "--b", b, "--depth", "1"
    )
    assert code == 2 and out == ""
    assert err == "error: conjugation oracle needs nonnegative integer b\n"


def test_zero_to_the_zero_parses_as_one(capsys):
    code, out, err = run(
        capsys, "verma-mult", "--algebra", "g", "--rank", "1",
        "--lambda", "0^0", "--depth", "2", "--offset", "0",
    )
    assert (code, out, err) == (0, "1\n", "")


def test_verify_prop4b_deterministic(capsys):
    args = (
        "verify-prop4b", "--rank", "1", "--depth", "6", "--samples", "2",
        "--seed", "5", "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_prop8b(capsys):
    code, out, _ = run(capsys, "verify-prop8b", "--rank", "2", "--depth", "4")
    assert code == 0
    assert "ok" in out


def test_classify_file_round_trip(capsys, tmp_path, monkeypatch):
    ctx = ScalarContext(("s", "a1", "a2"))
    table = generalized_verma_char(
        delta_char(Weight(ctx, [ctx.rational(0)] * 2)), "g", 16
    )
    path = tmp_path / "support.json"
    path.write_text(json.dumps(table.to_json_dict()))
    monkeypatch.setenv("OAK_PROBE_DEPTH", "6")
    code, out, _ = run(
        capsys, "classify", "--support", str(path),
        "--symbols", "a1,a2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["I"] == [] and data["F+"] == [1, 2]
    assert data["probe_depth"] == 6


def test_malformed_inputs_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "--rank", "2", "X[+e9]", "z")
    assert code == 2 and "e9" in err
    code, _, err = run(capsys, "bracket", "--rank", "2", "h1 +", "z")
    assert code == 2
    code, _, _ = run(capsys, "bracket", "--rank", "0", "z", "z")
    assert code == 2
    code, _, err = run(
        capsys, "bracket", "--rank", "1", "q*X[+e1]", "z"
    )
    assert code == 2 and "q" in err


# nesting deep enough to exhaust Python's recursion limit in a recursive parser
DEEP = 5000


def test_deeply_nested_scalar_exits_2(capsys):
    coeff = "(" * 400 + "1" + ")" * 400
    code, out, err = run(capsys, "bracket", "--rank", "1", f"{coeff}*X[+e1]", "X[-e1]")
    assert code == 2 and not out
    assert err.startswith("error:") and "nested too deeply" in err


def test_deeply_nested_vector_json_exits_2(capsys):
    code, out, err = run(
        capsys, "act", "--rank", "1", "--module", "S", "--op", "d1",
        "--vector", "[" * DEEP,
    )
    assert code == 2 and not out
    assert err.startswith("error: bad vector JSON")


def test_deeply_nested_support_table_exits_2(capsys, tmp_path):
    path = tmp_path / "support.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "classify", "--support", str(path))
    assert code == 2 and not out
    assert err.startswith("error: cannot read support table")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["normal-order", "--rank", "1"], "(" * 3000),
        (["act", "--rank", "1", "--module", "F 1/3",
          "--vector", '[{"offset":[0],"coefficient":"1"}]', "--op"], "x" * 2000),
    ],
    ids=["normal-order", "act-op"],
)
def test_long_input_is_quoted_in_part(capsys, argv, text):
    code, out, err = run(capsys, *argv, text)
    assert code == 2 and not out
    assert err.startswith("error:") and len(err) < 300
    # each quoted token or text is cut and says how long it was
    assert f"{text[:40]!r}... ({len(text)} characters)" in err


def test_long_input_is_quoted_around_the_error(capsys):
    text = "t1 " * 666 + "q"
    code, out, err = run(
        capsys, "act", "--rank", "1", "--module", "F 1/3", "--op", text,
        "--vector", '[{"offset":[0],"coefficient":"1"}]',
    )
    assert code == 2 and not out
    window = text[-40:]
    assert err.strip() == (
        f"error: unknown symbol 'q' (at position 1998 in ...{window!r} (1999 characters))"
    )


def test_deeply_nested_parse_is_a_parse_error():
    ctx = ScalarContext(("s",))
    with pytest.raises(ParseError, match="nested too deeply"):
        ctx.parse("(" * DEEP + "s" + ")" * DEEP)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_weyl_element("(" * DEEP + "1" + ")" * DEEP + "*t1", ctx, 1)
    # the parser still works after the recursion limit was hit
    assert ctx.parse("((s))") == ctx.symbol("s")


def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2


# a value that starts with "-" must be attached with "=", argparse reads it as
# an option otherwise
DASH_VALUES = {
    "v-weight": ("-1/2,1/3", ("verify-prop8b", "--rank", "2", "--depth", "3")),
    "lambda": (
        "-1/2",
        ("verma-mult", "--algebra", "g", "--rank", "1", "--depth", "2",
         "--offset", "0"),
    ),
}


@pytest.mark.parametrize("option", sorted(DASH_VALUES))
def test_dash_value_needs_the_equals_form(capsys, option):
    value, base = DASH_VALUES[option]
    code, out, err = run(capsys, *base, f"--{option}={value}")
    assert code == 0 and out and not err
    code, out, err = run(capsys, *base, f"--{option}", value)
    assert code == 2 and not out
    assert "expected one argument" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["verma-mult", "verify-prop4b", "verify-prop8b", "verify-twist"]
)
def test_help_names_the_equals_form(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and "--option=VALUE" in out
