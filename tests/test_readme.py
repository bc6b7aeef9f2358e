"""The README's library example runs and prints what its comments say.

The example goes through ``bracket``, ``multiply``, ``act_on_verma``,
``verify_lie_hom`` and ``verify_verma_factorization``; each ``print`` line
carries its expected output as a ``# ...`` comment.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["h1 - h2", "z + X[-e1]*X[+e1]", "s^2*v", "True", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
