"""oak's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; oak is imported from its ``src``.  The
workloads (see workloads.py) are ``algebra``, ``characters`` and ``cli``.

``--trace 0`` measures the end-to-end metrics: set-up time of fresh
interpreters, then whole task cycles back to back until ``--seconds`` of
task time have passed, every result checked.  Times are reported in nominal
seconds, rescaled by a host-speed probe taken around each of them (see
``nominal``).  ``--trace 1`` instead runs the workload's
first few cycles with the tracer installed, replays the same tasks untraced
to measure the tracing overhead, runs the tracer self-test and reports the
per-layer metrics.  Either way the golden digest of the default seed's
first tasks is checked, and the last line of standard output is the JSON
result.  Records and spans go to perfbench/out/.

``--write-golden`` recomputes golden.json; only for a deliberate change of
the tasks, never of oak's output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("algebra", "characters", "cli")
DEFAULT_SEED = 0
GOLDEN_TASKS = 5
SETUP_REPEATS = 4  # fresh interpreters before and again after the timed phase
REFERENCE_PROBE_S = 0.002  # host_probe() time at which a timing counts at face value
REFERENCE_SPAWN_S = 0.015  # spawn_probe() time at which a timing counts at face value


# ---------------------------------------------------------------------------
# environment and calibration
# ---------------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    try:
        from sympy.external.gmpy import GROUND_TYPES
    except ImportError:
        GROUND_TYPES = "unknown"
    return {
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def host_probe():
    """Time of a fixed mix of dict updates on tuple keys and Fraction
    arithmetic, the kinds of work oak's tasks do; about 2 ms."""
    t0 = time.perf_counter()
    table = {}
    for i in range(4000):
        key = (i % 37, i % 41, i % 3)
        table[key] = table.get(key, 0) + i * 7
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, 7) * Fraction(1, i + 1)
    return time.perf_counter() - t0


def steady_probe():
    """Median of three host probes: around each timing of an in-process
    workload, and as the calibration recorded at the start and end of a run."""
    return statistics.median(host_probe() for _ in range(3))


def spawn_probe():
    """Median time of three launches of an empty interpreter without its
    site import; about 15 ms.  Each `cli` task launches an interpreter too,
    and its time follows this one more closely than host_probe()."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], stdin=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_for(wl):
    """The probe timed around a workload's tasks and set-ups, and its
    reference time: host probes for tasks run in process, spawn_probe for
    `cli`, whose tasks and set-ups are all fresh interpreters."""
    if wl.in_process:
        return steady_probe, REFERENCE_PROBE_S
    return spawn_probe, REFERENCE_SPAWN_S


def nominal(seconds, probe_s, reference_s):
    """`seconds` rescaled to the host speed at which the probe takes
    `reference_s`, given the probe time measured around them.  A shared
    host's speed swings by up to 1.7x within seconds as other tenants come
    and go; the rescaled times keep oak's own cost and drop most of that."""
    return seconds * reference_s / probe_s


def probe_around(probes, k):
    """Probe time around task k (probes[k] ran just before it): the median
    of the two probes on either side, so one disturbed probe does not
    rescale a task."""
    return statistics.median(probes[max(k - 1, 0):k + 3])


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def measure_setup(wl):
    """Launch-to-ready times of SETUP_REPEATS fresh interpreters, each as
    (seconds, nominal seconds)."""
    import workloads

    probe, reference_s = probe_for(wl)
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "ready.py"), wl.name],
            cwd=ROOT, env=workloads.child_env(ROOT), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
        after = probe()
        times.append((t1 - t0, nominal(t1 - t0, (before + after) / 2, reference_s)))
    return times


def run_tasks(wl, tasks, tracer=None, probes=None):
    """Execute tasks in order; return [(task, raw or exception, seconds)].
    With a list `probes`, append the workload's probe after each task."""
    probe = probe_for(wl)[0]
    records = []
    for k, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.execute(task)
            else:
                with tracer.span("bench", "bench.task", task=k):
                    raw = wl.execute(task)
        except Exception as exc:  # a task that raises is a failed task
            raw = exc
        records.append((task, raw, time.perf_counter() - t0))
        if probes is not None:
            probes.append(probe())
    return records


def nominal_s(wl, records, probes):
    """Total nominal time of tasks run with `probes` (see nominal())."""
    reference_s = probe_for(wl)[1]
    return sum(nominal(dt, probe_around(probes, k), reference_s) for k, (_, _, dt) in enumerate(records))


def pass_s(wl, tasks, tracer=None):
    """Nominal task time of one pass over `tasks`."""
    probes = [probe_for(wl)[0]()]
    return nominal_s(wl, run_tasks(wl, tasks, tracer, probes), probes)


def timed_phase(wl, seed, seconds):
    """Whole cycles back to back until `seconds` of task time have passed,
    with the workload's probe before the first task and after every task.  Each
    cycle's tasks are generated outside the task clocks."""
    records = []
    probes = [probe_for(wl)[0]()]
    cycles = wl.cycles(seed)
    elapsed = 0.0
    while elapsed < seconds:
        done = run_tasks(wl, next(cycles), probes=probes)
        elapsed += sum(dt for _, _, dt in done)
        records += done
    return records, probes


def first_tasks(wl, seed, count=None, cycles=None):
    gen = wl.cycles(seed)
    tasks = []
    if cycles is not None:
        for _ in range(cycles):
            tasks += next(gen)
    while count is not None and len(tasks) < count:
        tasks += next(gen)
    return tasks if count is None else tasks[:count]


def check_all(wl, records):
    verdicts = []
    for task, raw, _ in records:
        if isinstance(raw, Exception):
            verdicts.append(_exception_verdict(raw))
            continue
        try:
            verdicts.append(wl.check(task, raw))
        except Exception as exc:
            verdicts.append(_exception_verdict(exc))
    return verdicts


def _exception_verdict(exc):
    from workloads import Verdict

    return Verdict(False, 0, "", f"exception {type(exc).__name__}: {exc}")


def golden_digest(wl):
    tasks = first_tasks(wl, DEFAULT_SEED, count=GOLDEN_TASKS)
    verdicts = check_all(wl, run_tasks(wl, tasks))
    text = "\n\n".join(v.output for v in verdicts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), all(v.ok for v in verdicts)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(times):
    """Value and percentile of the highest order statistic with 10 beyond it."""
    ordered = sorted(times)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timings(setup_times, task_times, items):
    """setup_s, task_s_p50, task_s_tail and items_per_s from the given
    times, and the tail's percentile."""
    tail_value, tail_pct = tail(task_times)
    return {
        "setup_s": statistics.median(setup_times),
        "task_s_p50": statistics.median(task_times),
        "task_s_tail": tail_value,
        "items_per_s": items / sum(task_times),
    }, tail_pct


def end_to_end(setup_times, records, probes, reference_s, verdicts, rss_mb, rss_n):
    """The end-to-end metrics, times in nominal seconds (see nominal()),
    and report lines that also give the plain seconds."""
    times = [dt for _, _, dt in records]
    scaled = [nominal(dt, probe_around(probes, k), reference_s) for k, dt in enumerate(times)]
    items = sum(v.items for v in verdicts)
    plain, tail_pct = timings([t for t, _ in setup_times], times, items)
    values, _ = timings([t for _, t in setup_times], scaled, items)
    failed = sum(1 for v in verdicts if not v.ok)
    units = {"setup_s": "s", "task_s_p50": "s", "task_s_tail": "s", "items_per_s": "1/s"}
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "task_s_p50": f"n={len(times)} tasks",
        "task_s_tail": f"p{tail_pct:.1f}, n={len(times)} tasks, 10 beyond",
        "items_per_s": f"{items} items in {sum(scaled):.2f} nominal s, n={len(times)} tasks",
        "peak_rss_mb": f"max over {rss_n} process{'es' if rss_n > 1 else ''}",
    }
    for name in units:
        notes[name] += f"; {plain[name]:.6g} {units[name]} unscaled"
    lines = [f"{name} = {value:.6g} {unit} ({notes[name]})" for name, (value, unit) in metrics.items()]
    lines.append(f"probe_s: median {statistics.median(probes):.6g} over {len(probes)} probes"
                 f" (reference {reference_s:g})")
    lines.append(f"fail_ratio = {failed / len(times):.6g} ratio ({failed} of {len(times)} tasks)")
    return metrics, lines


def per_layer(summary, outside_s, task_s, overhead_s, replay_s):
    counts = summary["counts"]
    total_s = summary["total_s"]
    self_s = summary["self_s"]
    cache = summary["mono_cache"]

    def c(*keys):
        return sum(counts.get(k, 0) for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    scalar_ops = [f"oak.scalars.Scalar.{op}" for op in (
        "__add__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__")]
    parse = [f"oak.syntax.{f}" for f in (
        "parse_lie_element", "parse_word", "parse_weyl_element", "parse_module_descriptor")]
    cancel = "sympy.polys.rings.PolyElement.cancel"
    m = {
        "scalars.ops": (c(*scalar_ops), "count"),
        "scalars.div_calls": (c("oak.scalars.Scalar.__truediv__", "oak.scalars.Scalar.__rtruediv__"), "count"),
        "scalars.cancel_calls": (c(cancel), "count"),
        "scalars.cancel_s": (total_s.get(cancel, 0.0), "s"),
        "liealg.bracket_calls": (c("oak.liealg.bracket"), "count"),
        "liealg.structure_constants_s": (total_s.get("oak.liealg.structure_constants", 0.0), "s"),
        "uea.normal_word_calls": (c("oak.uea.PBWEngine.normal_word"), "count"),
        "uea.multiply_calls": (c("oak.uea.multiply"), "count"),
        "weyl.weyl_multiply_calls": (c("oak.weyl.weyl_multiply"), "count"),
        "weyl.mono_cache_hit_ratio": (ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "weyl.mono_cache_size": (cache["size"], "count"),
        "weyl.apply_calls": (c("oak.weyl.apply"), "count"),
        "weyl.apply_term_pairs": (c("weyl.apply_term_pairs"), "count"),
        "weyl.apply_inverse_lowering_calls": (c("oak.weyl.apply_inverse_lowering"), "count"),
        "morphisms.tensor_mul_calls": (c("oak.morphisms.TensorElement.__mul__"), "count"),
        "morphisms.phi_map_calls": (c("oak.morphisms.phi_map"), "count"),
        "morphisms.twist_act_calls": (c("oak.morphisms.LocalizedOperator.act"), "count"),
        "characters.kostant_calls": (c("oak.characters.kostant_partition"), "count"),
        "characters.convolve_pairs": (c("characters.convolve_pairs"), "count"),
        "characters.crop_kept_ratio": (ratio(c("characters.crop_kept"), c("characters.crop_offered")), "ratio"),
        "syntax.parse_calls": (c(*parse), "count"),
        "cli.import_s": (ratio(total_s.get("cli.import", 0.0), c("cli.import")), "s"),
        "cli.start_exit_s": (ratio(total_s.get("cli.start_exit", 0.0), c("cli.start_exit")), "s"),
    }
    from tracer import LAYERS

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    m["bench.outside_ratio"] = (ratio(outside_s, task_s), "ratio")
    m["bench.trace_overhead_s"] = (overhead_s, "s")
    m["bench.trace_overhead_ratio"] = (ratio(overhead_s, replay_s), "ratio")
    return m


def child_trace(raw):
    """A traced cli child's summary, with the life of its interpreter before
    the wrapper script starts and after it finishes (start-up, exit) added
    to the cli layer as one more span."""
    trace = raw.trace
    start_exit = (trace["clock"]["started"] - raw.spawned) + (raw.reaped - trace["clock"]["ended"])
    trace["total_s"]["cli.start_exit"] = start_exit
    trace["counts"]["cli.start_exit"] = 1
    trace["self_s"]["cli"] = trace["self_s"].get("cli", 0.0) + start_exit
    return trace


def merge_child_traces(children):
    """Add up the summaries written by traced cli children."""
    merged = {"counts": {}, "total_s": {}, "self_s": {},
              "mono_cache": {"hits": 0, "misses": 0, "size": 0}}
    for trace in children:
        for part in ("counts", "total_s", "self_s"):
            for key, value in trace[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        cache = trace["mono_cache"]
        merged["mono_cache"]["hits"] += cache["hits"]
        merged["mono_cache"]["misses"] += cache["misses"]
        merged["mono_cache"]["size"] = max(merged["mono_cache"]["size"], cache["size"])
    return merged


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def plain_run(wl, args):
    # set-up is timed on both sides of the timed phase, so that its median
    # does not rest on one moment of a host whose speed drifts
    setup_times = measure_setup(wl)
    wl.setup()
    records, probes = timed_phase(wl, args.seed, args.seconds)
    setup_times += measure_setup(wl)
    if wl.in_process:
        rss_mb, rss_n = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    else:
        rss = [raw.rss_mb for _, raw, _ in records if not isinstance(raw, Exception)]
        rss_mb, rss_n = max(rss), len(rss)
    verdicts = check_all(wl, records)
    metrics, lines = end_to_end(setup_times, records, probes, probe_for(wl)[1], verdicts,
                                rss_mb, rss_n)
    return records, verdicts, metrics, lines, []


def traced_run(wl, args):
    from tracer import Tracer

    tracer = Tracer()
    if wl.in_process:
        with tracer.span("cli", "cli.import"):
            import oak.cli  # noqa: F401
        tracer.install()
    with tracer.span("bench.setup", "bench.setup"):
        wl.setup()
    tasks = first_tasks(wl, args.seed, cycles=wl.trace_cycles)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{wl.name}-s{args.seed}"
    if wl.in_process:
        records = run_tasks(wl, tasks, tracer)
        tracer.uninstall()
        summary = tracer.summary()
        outside_s = summary["self_s"].get("bench", 0.0)
        tracer.write_spans(f"{stem}.spans.jsonl")
    else:
        before_s = pass_s(wl, tasks)
        wl.trace_to = [str(stem), 0]
        probes = [probe_for(wl)[0]()]
        records = run_tasks(wl, tasks, probes=probes)
        wl.trace_to = None
        children = [child_trace(raw) for _, raw, _ in records if getattr(raw, "trace", None)]
        summary = merge_child_traces(children)
        covered = sum(sum(t["total_s"].get(k, 0.0) for k in ("cli.import", "oak.cli.main", "cli.start_exit"))
                      for t in children)
        outside_s = sum(dt for _, _, dt in records) - covered
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for k, trace in enumerate(children):
                for sid, parent, _, key, t0, t1 in trace["spans"]:
                    fh.write(json.dumps([sid, parent, k, key, t0, t1]) + "\n")
    task_s = sum(dt for _, _, dt in records)
    after_s = pass_s(wl, tasks)
    if wl.in_process:
        # the traced pass filled oak's caches, so a second traced pass is
        # timed between two untraced ones, all on warm caches
        before_s, timing = after_s, Tracer()
        timing.install()
        traced_s = pass_s(wl, tasks, timing)
        timing.uninstall()
        after_s = pass_s(wl, tasks)
    else:
        # cli children always start cold; the traced pass ran between two
        # untraced ones
        traced_s = nominal_s(wl, records, probes)
    replay_s = (before_s + after_s) / 2
    verdicts = check_all(wl, records)
    from selftest import run_selftest

    selftest = run_selftest()
    metrics = per_layer(summary, outside_s, task_s, traced_s - replay_s, replay_s)
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"spans: {stem}.spans.jsonl")
    lines.append("tracer self-test: " + ("ok" if not selftest else "; ".join(selftest)))
    return records, verdicts, metrics, lines, selftest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oak" / "__init__.py").is_file():
        print(f"perfbench: no oak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    os.environ.pop("OAK_PROBE_DEPTH", None)
    origin = importlib.util.find_spec("oak").origin
    if not origin.startswith(str(ROOT / "src")):
        print(f"perfbench: oak resolves to {origin}, not to this checkout", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.write_golden:
        digests = {}
        for name in WORKLOADS:
            wl = workloads.make(name, ROOT, OUT / "work")
            wl.setup()
            digests[name] = golden_digest(wl)[0]
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(json.dumps(digests, indent=2, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    env = environment()
    # One CPU for this process and every interpreter it starts (they never
    # run at once), so that the host probes time the CPU the work runs on.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {env["pinned_cpu"]})
    except OSError:
        env["pinned_cpu"] = None
    calibration_start = steady_probe()
    wl = workloads.make(args.workload, ROOT, OUT / "work")
    run = traced_run if args.trace else plain_run
    records, verdicts, metrics, lines, selftest = run(wl, args)

    digest, golden_ok = golden_digest(wl)
    expected = json.loads(GOLDEN.read_text()).get(wl.name) if GOLDEN.exists() else None
    calibration_end = steady_probe()

    failed = [v for v in verdicts if not v.ok]
    correct = not failed and not selftest and golden_ok and digest == expected
    print(f"perfbench: workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"calibration_s: start={calibration_start:.6f} end={calibration_end:.6f}")
    for line in lines:
        print(line)
    print(f"tasks: {len(verdicts)} attempted, {len(failed)} failed")
    if hasattr(wl, "known_defect"):
        print(f"known defect, outside the task mix: {wl.known_defect()}")
    for (task, _, _), v in zip(records, verdicts):
        if not v.ok:
            print(f"  FAIL {task.label}: {v.detail}")
    print(f"golden: {'ok' if digest == expected else 'MISMATCH'} sha256={digest}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "calibration_s": {"start": calibration_start, "end": calibration_end},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tasks": [{"label": t.label, "s": dt, "ok": v.ok, "items": v.items}
                  for (t, _, dt), v in zip(records, verdicts)],
        "golden": {"digest": digest, "expected": expected},
    }
    (OUT / f"run-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
