"""Bring oak to the point where a workload can start its first task.

That is: import oak, build the workload's scalar contexts, and build each of
its ranks' structure constants and PBW engines.  ``run.py`` does this in
process before timing, and runs this file in fresh interpreters to measure
``setup_s``, the time from launch to the ``ready`` line.

    PYTHONPATH=src python3 perfbench/ready.py <workload>
"""

import sys

RANKS = {"algebra": (1, 2, 3, 4), "characters": (2, 3), "cli": (1, 2)}
TWIST_RANKS = {"algebra": (1, 2)}


def ready(workload):
    """Set up every rank of the workload; return its scalar context over s
    and {rank: context over s, a1..an} for the twisted modules F(a)."""
    from oak.liealg import structure_constants
    from oak.scalars import ScalarContext
    from oak.uea import engine

    plain = ScalarContext(("s",))
    twisted = {
        n: ScalarContext(("s",) + tuple(f"a{i}" for i in range(1, n + 1)))
        for n in TWIST_RANKS.get(workload, ())
    }
    for n in RANKS[workload]:
        structure_constants(n)
        engine(n, "g")
        engine(n, "sp")
    if workload == "cli":
        from oak.cli import build_parser

        build_parser()
    return plain, twisted


if __name__ == "__main__":
    ready(sys.argv[1])
    print("ready", flush=True)
