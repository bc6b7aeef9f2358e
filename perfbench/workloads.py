"""The benchmark's three workloads.

Each workload is a closed loop with one client: tasks run back to back in
one process (``cli`` launches one child interpreter at a time).  Tasks come
in cycles.  A cycle holds every kind of task the workload has, so every run
sees the same mix whatever its seed.  On ``algebra`` and ``characters`` a
cycle does the same work for every seed, which picks only elements,
weights and parameters of like cost; on ``cli`` it also picks ranks and
arguments, and deals the malformed kinds like a shuffled deck, each pass
using every kind once.

Every workload exposes the same interface:

    setup()               in-process readiness (see ready.py)
    cycles(seed)          endless iterator of task lists
    execute(task)         the timed work; returns the raw result
    check(task, raw)      Verdict: verdict, closed-form work count, output
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ready import ready

CHILD_TIMEOUT_S = 60


@dataclass
class Task:
    kind: str
    args: tuple
    label: str


@dataclass
class Verdict:
    ok: bool
    items: int
    output: str
    detail: str = ""


class Deck:
    """Seeded draws that use every option once per shuffled pass."""

    def __init__(self, rng, options):
        self.rng = rng
        self.options = list(options)
        self.pile = []

    def draw(self):
        if not self.pile:
            self.pile = self.options[:]
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def canonical(report):
    """The JSON the CLI prints for a report."""
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2)


def dim_g(n):
    return n * (2 * n + 1) + 2 * n + 1


def random_fracs(rng, n):
    return tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n))


def weyl_dimension(lam):
    """Dimension of the simple sp_2n module of highest weight lam (Weyl)."""
    n = len(lam)
    rho = [n - i for i in range(n)]
    shifted = [l + r for l, r in zip(lam, rho)]
    dim = Fraction(1)
    for i in range(n):
        dim *= Fraction(shifted[i], rho[i])
        for j in range(i + 1, n):
            dim *= Fraction(shifted[i] - shifted[j], rho[i] - rho[j])
            dim *= Fraction(shifted[i] + shifted[j], rho[i] + rho[j])
    return int(dim)


# ---------------------------------------------------------------------------
# algebra: homomorphism checks, phi samples, twists against conjugation
# ---------------------------------------------------------------------------

class Algebra:
    """Exhaustive f and phi homomorphism checks at ranks 2-4 and
    phi-multiplicativity samples (the polynomial scalar path, PBW, Weyl and
    tensor products), with twist series checked against the conjugation
    oracle on F(a), a symbolic, at ranks 1-2 (the rational-function path)."""

    name = "algebra"
    trace_cycles = 2
    in_process = True
    # Every cycle runs the same 19 tasks; the seed picks the sample
    # elements and the order of the b values and indices at rank 2.  By
    # cost a cycle holds 8 small tasks (rank-2 checks, samples, rank-2
    # depth-1 twists), 3 middle ones (the rank-1 twists) and 8 large ones,
    # so over any number of cycles the median falls among the rank-1
    # twists; the rank-4 phi check runs three times, so from 4 cycles on
    # the tail (ten tasks beyond it) falls among those.  Every cycle runs
    # the same four sample batches, so the caches they fill stop growing
    # after the first cycle and peak RSS does not depend on the cycle count.
    samples_per_batch = 2
    sample_pool = 4

    def setup(self):
        self.ctx, self.twisted = ready(self.name)
        self.bases = {
            n: tuple(ctx.symbol(f"a{i}") for i in range(1, n + 1))
            for n, ctx in self.twisted.items()
        }

    def cycles(self, seed):
        rng = random.Random(f"algebra-{seed}")
        ranks = Deck(rng, (2, 3))
        pool = [
            tuple((n, self._element(rng, n), self._element(rng, n))
                  for n in (ranks.draw() for _ in range(self.samples_per_batch)))
            for _ in range(self.sample_pool)
        ]
        while True:
            b1 = rng.sample((1, 2), 2)
            i, j = rng.sample((1, 2), 2)
            twists = [
                (2, (1,), (b1[0],), 1), (2, (2,), (b1[1],), 1),
                (1, (1,), (3,), 5), (1, (1,), (2,), 6), (1, (1,), (1,), 7),
                (2, (i,), (1,), 2), (2, (i, j), tuple(b1), 1),
            ]
            tasks = [
                Task("verify", ("f", 2), "verify f n=2"),
                Task("verify", ("phi", 2), "verify phi n=2"),
            ]
            tasks += [Task("samples", batch, f"samples {k}") for k, batch in enumerate(pool)]
            tasks += [Task("twist", t, f"twist n={t[0]} i={list(t[1])} b={list(t[2])} d={t[3]}")
                      for t in twists]
            tasks += [
                Task("verify", ("f", 3), "verify f n=3"),
                Task("verify", ("phi", 3), "verify phi n=3"),
                Task("verify", ("f", 4), "verify f n=4"),
            ]
            tasks += [Task("verify", ("phi", 4), "verify phi n=4")] * 3
            yield tasks

    @staticmethod
    def _element(rng, n):
        """Two PBW words of two letters (z excluded) with rational weights."""
        letters = dim_g(n) - 1
        terms = []
        for _ in range(2):
            word = tuple(rng.randrange(letters) for _ in range(2))
            coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
            terms.append((word, coeff))
        return tuple(terms)

    def _build(self, n, terms):
        from oak.uea import UEAElement, engine, normal_order, reduce_central

        ctx = self.ctx
        letters = [b for b in engine(n, "g").elements if b.kind != "z"]
        out = UEAElement(ctx, n, {}, "g")
        for word, coeff in terms:
            part = normal_order(ctx, [letters[k] for k in word], n)
            out = out + part.scale(ctx.rational(coeff))
        return reduce_central(out)

    def execute(self, task):
        from oak.morphisms import TwistSpec, phi_map, verify_lie_hom, verify_theta_conjugation
        from oak.uea import multiply, reduce_central

        if task.kind == "verify":
            kind, n = task.args
            return verify_lie_hom(kind, n, self.ctx)
        if task.kind == "twist":
            n, indices, b, depth = task.args
            ctx = self.twisted[n]
            spec = TwistSpec(indices, tuple(ctx.rational(x) for x in b))
            return verify_theta_conjugation(spec, self.bases[n], depth, ctx, n)
        results = []
        for n, u_terms, v_terms in task.args:
            u, v = self._build(n, u_terms), self._build(n, v_terms)
            lhs = phi_map(reduce_central(multiply(u, v)))
            rhs = phi_map(u) * phi_map(v)
            results.append((lhs == rhs, lhs))
        return results

    def check(self, task, raw):
        if task.kind == "verify":
            kind, n = task.args
            d = dim_g(n)
            want = d * (d + 1) // 2
            ok = raw.ok and raw.kind == kind and raw.n == n and raw.pairs_checked == want
            detail = "" if ok else f"pairs {raw.pairs_checked}/{want}, {len(raw.violations)} violations"
            return Verdict(ok, raw.pairs_checked, canonical(raw), detail)
        if task.kind == "twist":
            n, indices, _, depth = task.args
            want = 3 * len(indices) * (2 * depth + 1) ** n
            ok = raw.ok and raw.vectors_checked == want
            detail = "" if ok else f"vectors {raw.vectors_checked}/{want}, {len(raw.mismatches)} mismatches"
            return Verdict(ok, raw.vectors_checked, canonical(raw), detail)
        ok = all(equal for equal, _ in raw)
        output = "\n".join(str(lhs) for _, lhs in raw)
        return Verdict(ok, len(raw), output, "" if ok else "phi(uv) != phi(u)phi(v)")


# ---------------------------------------------------------------------------
# characters: factorization through S, finite characters, support flags
# ---------------------------------------------------------------------------

class Characters:
    """prop4b and prop8b on seeded weights at ranks 2-3, and finite
    characters with the support flags of seeded modules."""

    name = "characters"
    trace_cycles = 4
    in_process = True
    # Every cycle runs the same 14 tasks: the seed picks only the weights
    # and module parameters, so each seed fills the depth-keyed Kostant memo
    # alike.  By cost a cycle holds 6 small tasks (5-20 ms), 2 middle ones
    # (rank-2 depth 5, ~22 ms) and 6 large ones, so over any number of
    # cycles the median falls among the middle two and the tail (ten tasks
    # beyond it) among the rank-3 depth-2 factorizations.
    SMALL = (("prop8b", 2, 3), ("prop4b", 2, 3), ("prop8b", 2, 4), ("prop4b", 2, 4),
             ("prop4b", 3, 1))
    MIDDLE = (("prop4b", 2, 5), ("prop8b", 2, 5))
    LARGE = (("prop8b", 3, 1), ("prop4b", 2, 6), ("prop4b", 3, 2), ("prop8b", 3, 2))
    # (highest weight, module kind, probe depth); the parameter of F or G is
    # seeded, never an integer
    SUPPORT = (((1, 1), "S", 3), ((3, 1), "G", 4), ((3, 0), "F", 5))
    PARAMS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))

    def setup(self):
        self.ctx, _ = ready(self.name)

    def cycles(self, seed):
        rng = random.Random(f"characters-{seed}")
        (lam0, kind0, p0), (lam1, kind1, p1), (lam2, kind2, p2) = self.SUPPORT
        while True:
            tasks = [self._prop(rng, *spec) for spec in self.SMALL]
            tasks.append(Task("support", (lam0, (kind0, (0,)), p0), f"support lam={list(lam0)}"))
            tasks += [self._prop(rng, *spec) for spec in self.MIDDLE + self.LARGE]
            g = (0, rng.choice(self.PARAMS))
            f = (rng.choice(self.PARAMS), rng.choice(self.PARAMS))
            tasks.append(Task("support", (lam1, (kind1, g), p1), f"support lam={list(lam1)}"))
            tasks.append(Task("support", (lam2, (kind2, f), p2), f"support lam={list(lam2)}"))
            yield tasks

    @staticmethod
    def _prop(rng, kind, n, depth):
        return Task(kind, (n, depth, random_fracs(rng, n)), f"{kind} n={n} d={depth}")

    def _weight(self, values):
        from oak.liealg import Weight

        return Weight(self.ctx, [self.ctx.rational(v) for v in values])

    def _module(self, kind, base):
        from oak.weyl import FullLaurent, QuotientModule, ShaleWeil

        ctx = self.ctx
        if kind == "S":
            return ShaleWeil(ctx, len(base))
        values = [ctx.rational(v) for v in base]
        if kind == "F":
            return FullLaurent(ctx, values)
        return QuotientModule(ctx, values, [i + 1 for i, v in enumerate(base) if v == 0])

    def execute(self, task):
        from oak.characters import (
            char_module,
            classify_flags,
            delta_char,
            finite_simple_sp_char,
            verify_generalized_factorization,
            verify_verma_factorization,
        )

        if task.kind == "prop4b":
            n, depth, lam = task.args
            return verify_verma_factorization(self._weight(lam), n, depth)
        if task.kind == "prop8b":
            n, depth, top = task.args
            return verify_generalized_factorization(delta_char(self._weight(top)), n, depth)
        lam, (kind, base), probe = task.args
        # a box of radius 2*lam_1 + 2 holds the whole finite support with an
        # empty rim, so every coordinate must classify as finite
        depth = 2 * lam[0] + 2
        table = finite_simple_sp_char(self._weight(lam), depth)
        module = self._module(kind, base)
        mtable = char_module(module, 2 * probe)
        return (
            depth, table, classify_flags(table, depth - 1),
            module, mtable, classify_flags(mtable, probe),
        )

    def check(self, task, raw):
        if task.kind in ("prop4b", "prop8b"):
            n, depth = task.args[:2]
            want = tuple((-2 * depth, 2 * depth) for _ in range(n))
            ok = raw.ok and raw.refs_match and tuple(raw.window) == want
            detail = "" if ok else f"window {raw.window}, {len(raw.mismatches)} mismatches"
            return Verdict(ok, (2 * depth + 1) ** n, canonical(raw), detail)
        lam = task.args[0]
        depth, table, flags, module, mtable, mflags = raw
        n = len(lam)
        quotiented = set(module.quotiented)
        free = set(range(1, module.rank + 1)) - quotiented
        size = sum(table.entries.values())
        ok = (
            size == weyl_dimension(lam)
            and flags.finite == frozenset(range(1, n + 1))
            and not (flags.injective or flags.plus or flags.minus)
            and mflags.plus == quotiented
            and mflags.injective == free
            and not (mflags.finite or mflags.minus)
        )
        output = json.dumps(
            {"finite": table.to_json_dict(), "flags": flags.to_json_dict(),
             "module": str(module), "module_flags": mflags.to_json_dict()},
            sort_keys=True, indent=2,
        )
        detail = "" if ok else f"dim {size}/{weyl_dimension(lam)}, flags {flags}, {mflags}"
        return Verdict(ok, (2 * depth + 1) ** n + len(mtable.entries), output, detail)


# ---------------------------------------------------------------------------
# cli: short commands, each in a fresh interpreter
# ---------------------------------------------------------------------------

MALFORMED = (
    "missing_table_file", "bad_root", "outside_window", "bad_vector_json",
    "bad_module", "bad_json_file", "twist_index",
)


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    spawned: float
    reaped: float
    trace: dict | None = None


class Cli:
    name = "cli"
    trace_cycles = 1
    in_process = False

    def __init__(self, root, work_dir):
        self.root = Path(root)
        self.work = Path(work_dir)
        self.env = child_env(self.root)
        self.trace_to = None  # [path prefix, counter] while children are traced
        self.work.mkdir(parents=True, exist_ok=True)

    def setup(self):
        ready(self.name)

    def cycles(self, seed):
        rng = random.Random(f"cli-{seed}")
        malformed = Deck(rng, MALFORMED)
        c = 0
        while True:
            tasks = [self._valid(rng, kind, f"s{seed}-c{c}") for kind in (
                "bracket", "normal-order", "act", "support", "verma-mult",
                "classify", "verify-hom", "verify-twist", "verify-prop4b", "verify-prop8b",
            )]
            tasks.insert(rng.randrange(len(tasks) + 1),
                         self._malformed(rng, malformed.draw(), f"s{seed}-c{c}"))
            yield tasks
            c += 1

    def _table_file(self, tag, data):
        path = self.work / f"{tag}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
        return str(path.relative_to(self.root))

    @staticmethod
    def _letters(n):
        from oak.liealg import basis

        return [str(b) for b in basis(n) if b.kind != "z"]

    def _valid(self, rng, kind, tag):
        n = rng.choice((1, 2))
        fmt = ["--format", rng.choice(("json", "text"))]
        expect = {}
        if kind == "bracket":
            letters = self._letters(n)
            argv = ["bracket", "--rank", str(n), rng.choice(letters), rng.choice(letters)]
        elif kind == "normal-order":
            word = " ".join(rng.choice(self._letters(n)) for _ in range(rng.randint(2, 3)))
            argv = ["normal-order", "--rank", str(n), word,
                    "--strategy", rng.choice(("rightmost", "leftmost"))]
        elif kind == "act":
            if n == 1:
                module, off = rng.choice((("S", [-2]), ("F a1", [1]), ("F 1/2", [-1])))
                op = rng.choice(("t1^2 d1", "d1^2", "t1 d1 + 1/2", "d1 t1"))
            else:
                module, off = rng.choice((("S", [-1, -2]), ("F a1,a2", [2, -1]), ("G 0,a2", [-1, 2])))
                op = rng.choice(("t1 d2 + d1^2", "t2^2 d1", "d1 d2"))
            coeff = rng.choice(("1", "3/2", "s^2-1"))
            argv = ["act", "--rank", str(n), "--module", module, "--op", op,
                    "--vector", json.dumps([{"offset": off, "coefficient": coeff}])]
        elif kind == "support":
            module = rng.choice(("S", "F 1/2", "F a1") if n == 1 else ("S", "F 1/3,1/2", "G 0,1/3"))
            argv = ["support", "--rank", str(n), "--module", module,
                    "--box=" + ",".join(["-2:2"] * n)]
        elif kind == "verma-mult":
            depth = 4
            argv = ["verma-mult", "--algebra", rng.choice(("g", "sp")), "--rank", str(n),
                    "--lambda", ",".join(["1/2"] * n), "--depth", str(depth),
                    "--offset", ",".join(str(rng.randint(0, depth)) for _ in range(n))]
        elif kind == "classify":
            from oak.characters import char_module
            from oak.scalars import ScalarContext
            from oak.weyl import FullLaurent, ShaleWeil

            ctx = ScalarContext(("s",))
            probe = rng.choice((3, 4))
            module = rng.choice((ShaleWeil(ctx, n), FullLaurent(ctx, [ctx.rational(1, 3)] * n)))
            path = self._table_file(f"{tag}-classify", char_module(module, 2 * probe).to_json_dict())
            argv = ["classify", "--support", path, "--depth", str(probe)]
        elif kind == "verify-hom":
            argv = ["verify-hom", "--rank", str(n), "--map", rng.choice(("f", "phi"))]
            d = dim_g(n)
            expect = {"pairs_checked": d * (d + 1) // 2}
            fmt = ["--format", "json"]
        elif kind == "verify-twist":
            depth = rng.randint(2, 4)
            argv = ["verify-twist", "--rank", "1", "--b", str(rng.randint(1, 3)),
                    "--depth", str(depth)]
            expect = {"vectors_checked": 3 * (2 * depth + 1)}
            fmt = ["--format", "json"]
        elif kind == "verify-prop4b":
            argv = ["verify-prop4b", "--rank", "2", "--depth", str(rng.randint(2, 3)),
                    "--samples", "1", "--seed", str(rng.randint(0, 999))]
            fmt = ["--format", "json"]
        else:
            argv = ["verify-prop8b", "--rank", "2", "--depth", str(rng.randint(2, 3)),
                    "--v-weight", rng.choice(("0,0", "1/2,0", "1,-1/3"))]
            fmt = ["--format", "json"]
        return Task("cmd", (fmt + argv, 0, kind, expect), kind)

    def _malformed(self, rng, kind, tag):
        if kind == "missing_table_file":
            path = (self.work / f"{tag}-absent.json").relative_to(self.root)
            argv = ["classify", "--support", str(path), "--depth", "3"]
        elif kind == "bad_root":
            argv = ["bracket", "--rank", "1", "X[+e1-e2]", "X[+e1]"]
        elif kind == "outside_window":
            argv = ["verma-mult", "--algebra", "g", "--rank", "1", "--lambda", "0",
                    "--depth", "2", "--offset", str(rng.randint(3, 9))]
        elif kind == "bad_vector_json":
            argv = ["act", "--rank", "1", "--module", "S", "--op", "d1", "--vector", "[{"]
        elif kind == "bad_module":
            argv = ["support", "--rank", "1", "--module", "Q 1", "--box=-2:2"]
        elif kind == "bad_json_file":
            path = self._table_file(f"{tag}-badjson", '{"box": [[-20, 20]], ')
            argv = ["classify", "--support", path]
        else:
            argv = ["verify-twist", "--rank", "1", "--b", "1", "--indices", "3"]
        return Task("cmd", (argv, 2, kind, {}), f"malformed {kind}")

    def known_defect(self):
        """What `oak classify` does with a table that lacks its reference
        weight.  oak raises KeyError there instead of exiting 2; the command
        is kept out of the task mix, where every command must succeed, and
        reported on its own."""
        path = self._table_file("noref", {"box": [[-20, 20]], "entries": []})
        code, _ = self.reference(["classify", "--support", path, "--depth", "3"])
        return f"classify on a table without reference_weight: {code}"

    # -- running ---------------------------------------------------------------

    def execute(self, task):
        argv = task.args[0]
        trace_file = None
        if self.trace_to is None:
            cmd = [sys.executable, "-m", "oak.cli", *argv]
        else:
            self.trace_to[1] += 1
            trace_file = f"{self.trace_to[0]}-{self.trace_to[1]}.json"
            child = str(Path(__file__).with_name("cli_child.py"))
            cmd = [sys.executable, child, trace_file, *argv]
        return run_child(cmd, self.root, self.env, self.work, trace_file)

    def reference(self, argv):
        """The same command through oak.cli.main in this process."""
        from oak.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception as exc:  # a defect of oak; never of a malformed command
                code = f"raises {type(exc).__name__}"
        return code, out.getvalue()

    def check(self, task, raw):
        argv, expect_code, kind, expect = task.args
        traceback = "Traceback (most recent call last)" in raw.stderr
        ref_code, ref_out = self.reference(argv)
        problems = []
        if raw.code != expect_code:
            problems.append(f"exit {raw.code}, expected {expect_code}")
        if traceback:
            problems.append("traceback")
        if (ref_code, ref_out) != (raw.code, raw.stdout):
            problems.append(f"output differs from in-process run (exit {ref_code})")
        if kind.startswith("verify-") and raw.code == 0:
            problems.extend(_verify_json_problems(raw.stdout, expect))
        return Verdict(not problems, 1, f"exit {raw.code}\n{raw.stdout}", "; ".join(problems))


def _verify_json_problems(stdout, expect):
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"bad JSON: {exc}"]
    problems = [f"{k}={data.get(k)}, expected {v}" for k, v in expect.items() if data.get(k) != v]
    cases = data.get("cases", [data])
    for case in cases:
        for key in ("violations", "mismatches"):
            if case.get(key):
                problems.append(f"{len(case[key])} {key}")
        if case.get("refs_match") is False:
            problems.append("references differ")
    return problems


def child_env(root):
    """Environment for child interpreters: oak from the checkout's src."""
    env = dict(os.environ)
    env.pop("OAK_PROBE_DEPTH", None)
    env["PYTHONPATH"] = str(Path(root) / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(cmd, cwd, env, work, trace_file=None):
    """Run one child to completion; return its exit code, output and peak RSS."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = time.perf_counter()
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if trace_file is not None and os.path.exists(trace_file):
        with open(trace_file, encoding="utf-8") as fh:
            trace = json.load(fh)
        os.remove(trace_file)
    return ChildResult(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss / 1024.0,
        spawned,
        reaped,
        trace,
    )


def make(name, root, work_dir):
    if name == "cli":
        return Cli(root, work_dir)
    return {"algebra": Algebra, "characters": Characters}[name]()
