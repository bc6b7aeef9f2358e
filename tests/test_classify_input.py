import json

import pytest

from oak.cli import main

TABLES = {
    "no-reference-weight": {"box": [[-20, 20]], "entries": []},
    "top-level-list": [],
    "entry-without-mult": {
        "reference_weight": {"h": ["0"], "z": "s^2"},
        "box": [[-2, 2]],
        "entries": [{"offset": [0]}],
    },
    "offset-of-wrong-rank": {
        "reference_weight": {"h": ["0"], "z": "s^2"},
        "box": [[-2, 2]],
        "entries": [{"offset": [0, 9], "mult": 1}],
    },
    "fractional-offset": {
        "reference_weight": {"h": ["0"], "z": "s^2"},
        "box": [[-2, 2]],
        "entries": [{"offset": [1.5], "mult": 1}],
    },
    "fractional-mult": {
        "reference_weight": {"h": ["0"], "z": "s^2"},
        "box": [[-2, 2]],
        "entries": [{"offset": [0], "mult": 1.7}],
    },
    "repeated-offset": {
        "reference_weight": {"h": ["0"], "z": "s^2"},
        "box": [[-2, 2]],
        "entries": [{"offset": [0], "mult": 1}, {"offset": [0], "mult": 0}],
    },
    "fractional-box": {
        "reference_weight": {"h": ["0"], "z": "s^2"},
        "box": [[-2.5, 2]],
        "entries": [],
    },
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_classify_malformed_table_exits_2(name, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(TABLES[name]))
    code = main(["classify", "--support", str(path), "--depth", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed character table" in err and "Traceback" not in err
