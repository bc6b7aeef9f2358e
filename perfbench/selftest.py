"""Self-test of the tracer: traced counts must equal the counts oak reports.

- ``verify_lie_hom`` makes one ``bracket`` call per basis pair, so the traced
  bracket count must equal ``pairs_checked`` = dim(dim+1)/2 with dim = 6, 15,
  28, 45 for ranks 1-4.
- ``verify_theta_conjugation`` acts once with the twist per module vector, so
  the traced ``LocalizedOperator.act`` count must equal ``vectors_checked`` =
  3*k*(2d+1)^n.
- ``oak act`` through ``oak.cli.main`` must reach the wrapped ``apply`` once,
  which holds only if the ``oak.cli.apply`` alias was rebound.
- While installed, no oak namespace may still hold an original function.

    PYTHONPATH=src python3 perfbench/selftest.py
"""

import contextlib
import io
import sys

from tracer import Tracer


def run_selftest():
    """Return a list of failures; empty when the tracer counts agree."""
    from oak.cli import main
    from oak.morphisms import TwistSpec, verify_lie_hom, verify_theta_conjugation
    from oak.scalars import ScalarContext

    failures = []
    tracer = Tracer()
    tracer.install()
    try:
        failures += [f"alias not rebound: {name}" for name in tracer.stale_aliases()]
        ctx = ScalarContext(("s",))
        for n, dim in zip((1, 2, 3, 4), (6, 15, 28, 45)):
            before = tracer.counts["oak.liealg.bracket"]
            report = verify_lie_hom("f", n, ctx)
            traced = tracer.counts["oak.liealg.bracket"] - before
            want = dim * (dim + 1) // 2
            if not report.ok or report.pairs_checked != want or traced != want:
                failures.append(f"hom n={n}: pairs {report.pairs_checked}, traced {traced}, want {want}")
        for n, indices, depth in ((1, (1,), 3), (2, (2,), 1), (2, (1, 2), 1)):
            tctx = ScalarContext(("s",) + tuple(f"a{i}" for i in range(1, n + 1)))
            base = tuple(tctx.symbol(f"a{i}") for i in range(1, n + 1))
            spec = TwistSpec(indices, tuple(tctx.rational(2) for _ in indices))
            before = tracer.counts["oak.morphisms.LocalizedOperator.act"]
            report = verify_theta_conjugation(spec, base, depth, tctx, n)
            traced = tracer.counts["oak.morphisms.LocalizedOperator.act"] - before
            want = 3 * len(indices) * (2 * depth + 1) ** n
            if not report.ok or report.vectors_checked != want or traced != want:
                failures.append(
                    f"twist n={n} k={len(indices)} d={depth}: vectors "
                    f"{report.vectors_checked}, traced {traced}, want {want}"
                )
        before = tracer.counts["oak.weyl.apply"]
        argv = ["act", "--rank", "1", "--module", "S", "--op", "d1",
                "--vector", '[{"offset": [-1], "coefficient": "1"}]']
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        traced = tracer.counts["oak.weyl.apply"] - before
        if code != 0 or traced != 1:
            failures.append(f"cli act: exit {code}, traced apply calls {traced}, want 1")
    finally:
        tracer.uninstall()
    from oak import cli, weyl

    if hasattr(weyl.apply, "traced_key") or hasattr(cli.apply, "traced_key"):
        failures.append("uninstall left apply wrapped")
    return failures


if __name__ == "__main__":
    import os

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    problems = run_selftest()
    for line in problems:
        print("FAIL", line)
    print("tracer self-test:", "ok" if not problems else f"{len(problems)} failures")
    sys.exit(1 if problems else 0)
