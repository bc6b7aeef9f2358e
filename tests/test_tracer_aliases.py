"""The benchmark's outside-in tracer still finds every function it wraps.

``perfbench/tracer.py`` rebinds its targets by module and attribute name,
so a refactor that drops, renames or moves a traced function (say
``oak.characters.kostant_partition``) makes ``install`` fail or leaves an
alias unwrapped.  This test installs the tracer and removes it again.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("oak_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_every_alias():
    import oak.characters

    original = oak.characters.kostant_partition
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.stale_aliases() == []
        assert oak.characters.kostant_partition is not original
    finally:
        tracer.uninstall()
    assert oak.characters.kostant_partition is original
