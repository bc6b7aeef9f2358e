"""Random scalar text through every CLI option that parses a scalar.

``oak.cli.main`` runs in process on argv built from scalar strings, both
well-formed expressions and malformed token soup.  Whatever the text, the
exit code is 0, 1 or 2 and nothing escapes as a traceback.
"""

import contextlib
import io

from hypothesis import given, strategies as st

from oak.cli import main

TOKENS = ["s", "a1", "q", "0", "1", "2", "3", "+", "-", "*", "/", "^", "(", ")", ",", "X[+e1]"]
ATOMS = st.sampled_from(["s", "a1", "0", "1", "2", "3", "1/2"])


def scalar_text(powers, max_leaves):
    """A well-formed expression with the given exponents, or up to six
    tokens joined by spaces (so two digits never form one integer)."""

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: "(%s%s%s)" % t)
        power = st.tuples(inner, st.sampled_from(powers)).map(lambda t: f"({t[0]})^{t[1]}")
        return st.one_of(binary, power, inner.map(lambda x: f"-{x}"))

    soup = st.lists(st.sampled_from(TOKENS), max_size=6).map(" ".join)
    return st.one_of(st.recursive(ATOMS, extend, max_leaves=max_leaves), soup)


# each template takes one scalar string; the cost of the twist check grows
# with its parameter, so that one gets no growing power and three leaves
GROWING = scalar_text(["2", "3", "0", "-1"], 5)
COMMANDS = {
    "bracket": (GROWING, lambda x: [
        "bracket", "--rank", "1", "--", f"{x}*X[+e1]", "(s)*X[-e1]",
    ]),
    "lambda": (GROWING, lambda x: [
        "verma-mult", "--algebra", "g", "--rank", "1",
        f"--lambda={x}", "--depth", "2", "--offset", "2",
    ]),
    "b": (scalar_text(["0", "-1"], 3), lambda x: [
        "verify-twist", "--rank", "1", f"--b={x}", "--depth", "1",
    ]),
    "v-weight": (GROWING, lambda x: [
        "verify-prop8b", "--rank", "1", "--depth", "2", f"--v-weight={x}",
    ]),
    "module F": (GROWING, lambda x: ["support", "--rank", "1", f"--module=F {x}", "--box=-1:1"]),
    "module G": (GROWING, lambda x: ["support", "--rank", "1", f"--module=G {x}", "--box=-1:1"]),
}


@st.composite
def argvs(draw):
    text, build = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    command, *options = build(draw(text))
    return [command, "--symbols", "a1", *options]


@given(argvs(), st.sampled_from(["text", "json"]))
def test_scalar_options_keep_the_exit_code_contract(argv, fmt):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--format", fmt, *argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
