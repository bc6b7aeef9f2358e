"""`oak act --vector` takes a JSON list of {offset, coefficient} terms with
integer offsets; anything else exits 2 with a message naming the problem."""

import json

import pytest

from oak.cli import main

BAD = {
    "object": ("{}", "expected a list of terms"),
    "not-json": ("[{", "bad vector JSON"),
    "term-not-object": ("[1]", "is not an object"),
    "no-coefficient": ('[{"offset": [-1]}]', "is not an object"),
    "fractional-offset": (
        '[{"offset": [0.5], "coefficient": "1"}]', "not a list of integers",
    ),
    "bool-offset": ('[{"offset": [true], "coefficient": "1"}]', "not a list of integers"),
    "offset-not-list": ('[{"offset": -1, "coefficient": "1"}]', "not a list of integers"),
    "repeated-offset": (
        '[{"offset": [-1], "coefficient": "1"}, {"offset": [-1], "coefficient": "2"}]',
        "appears twice",
    ),
}


def act(vector):
    return main(["act", "--rank", "1", "--module", "S", "--op", "d1", "--vector", vector])


@pytest.mark.parametrize("name", sorted(BAD))
def test_malformed_vector_exits_2(name, capsys):
    vector, message = BAD[name]
    assert act(vector) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_empty_list_is_the_zero_vector(capsys):
    assert act("[]") == 0
    assert capsys.readouterr().out.strip() == "0"


def test_integer_offsets_are_accepted(capsys):
    vector = json.dumps([{"offset": [-3], "coefficient": "2"}])
    assert act(vector) == 0
    assert capsys.readouterr().out.strip() == "(-6)*t^[-4]"
