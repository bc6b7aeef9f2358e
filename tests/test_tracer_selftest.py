"""The benchmark's tracer self-test passes against the current oak.

``perfbench/selftest.py`` checks that the traced counts equal the counts oak
reports: one ``bracket`` call per basis pair in ``verify_lie_hom``, one
``LocalizedOperator.act`` per module vector in ``verify_theta_conjugation``,
and one ``apply`` for ``oak act``.  Running it here pins those call counts
through refactors of the checks.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_selftest_passes(monkeypatch):
    # selftest.py imports its tracer as the top-level module ``tracer``
    monkeypatch.setitem(sys.modules, "tracer", load("tracer", "tracer.py"))
    selftest = load("oak_perfbench_selftest", "selftest.py")
    assert selftest.run_selftest() == []
