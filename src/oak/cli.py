"""Command-line front end with machine-readable, deterministic output.

Exit codes: 0 on success or a clean verification, 1 when a verification
finds mismatches, 2 on malformed input.  The environment variable
OAK_PROBE_DEPTH overrides the default support-probe depth of 12.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .characters import (
    CharTable,
    classify_flags,
    delta_char,
    kostant_partition,
    positive_roots,
    verify_generalized_factorization,
    verify_verma_factorization,
)
from .liealg import Weight
from .morphisms import TwistSpec, verify_lie_hom, verify_theta_conjugation
from .scalars import ParseError, ScalarContext
from .syntax import (
    parse_lie_element,
    parse_module_descriptor,
    parse_weyl_element,
    parse_word,
)
from .uea import normal_order
from .weyl import LaurentVector, apply, support


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _default_probe_depth():
    raw = os.environ.get("OAK_PROBE_DEPTH")
    if raw is None:
        return 12
    try:
        depth = int(raw)
    except ValueError:
        raise ParseError(f"OAK_PROBE_DEPTH must be an integer, got {raw!r}")
    if depth < 1:
        raise ParseError("OAK_PROBE_DEPTH must be >= 1")
    return depth


def _context(args, auto=()):
    names = ["s"]
    for name in auto:
        if name not in names:
            names.append(name)
    if getattr(args, "symbols", None):
        for name in args.symbols.split(","):
            name = name.strip()
            if name and name not in names:
                names.append(name)
    return ScalarContext(tuple(names))


def _emit(args, text_lines, payload):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _parse_weight(ctx, text, n):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"expected {n} weight entries, got {len(parts)}")
    return Weight(ctx, [ctx.parse(p) for p in parts])


def _parse_int_vector(text, n, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"expected {n} {what} entries, got {len(parts)}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as e:
        raise ParseError(f"bad {what} entry: {e}")


def _parse_vector(text, ctx):
    """--vector JSON: a list of {"offset": [int, ...], "coefficient": c}."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"bad vector JSON: {e}")
    if not isinstance(data, list):
        raise ParseError("bad vector JSON: expected a list of terms")
    terms = {}
    for entry in data:
        if not (isinstance(entry, dict) and {"offset", "coefficient"} <= entry.keys()):
            raise ParseError(
                f"bad vector JSON: term {entry!r} is not an object "
                "with an offset and a coefficient"
            )
        off = entry["offset"]
        if not isinstance(off, list) or not all(type(c) is int for c in off):
            raise ParseError(
                f"bad vector JSON: offset {off!r} is not a list of integers"
            )
        if tuple(off) in terms:
            raise ParseError(f"bad vector JSON: offset {off} appears twice")
        terms[tuple(off)] = ctx.parse(str(entry["coefficient"]))
    return terms


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bracket(args):
    ctx = _context(args)
    x = parse_lie_element(args.x, ctx, args.rank)
    y = parse_lie_element(args.y, ctx, args.rank)
    from .liealg import bracket

    result = bracket(x, y)
    terms = [
        {"element": str(b), "coefficient": str(c)}
        for b, c in result.sorted_terms()
    ]
    _emit(args, [str(result)], {"result": str(result), "terms": terms})
    return 0


def cmd_normal_order(args):
    ctx = _context(args)
    word = parse_word(args.word, ctx, args.rank)
    u = normal_order(ctx, word, args.rank, strategy=args.strategy)
    from .syntax import format_mono

    terms = [
        {"monomial": format_mono(mono, args.rank) or "1", "coefficient": str(c)}
        for mono, c in u.sorted_terms()
    ]
    _emit(args, [str(u)], terms)
    return 0


def cmd_act(args):
    auto = tuple(f"a{i}" for i in range(1, args.rank + 1))
    ctx = _context(args, auto)
    module = parse_module_descriptor(args.module, ctx, args.rank)
    op = parse_weyl_element(args.op, ctx, args.rank)
    v = LaurentVector(ctx, module.base, _parse_vector(args.vector, ctx))
    module.check_vector(v)
    result = apply(op, v, module)
    out = [
        {"offset": list(off), "coefficient": str(c)}
        for off, c in result.sorted_terms()
    ]
    _emit(args, [str(result)], out)
    return 0


def cmd_support(args):
    auto = tuple(f"a{i}" for i in range(1, args.rank + 1))
    ctx = _context(args, auto)
    module = parse_module_descriptor(args.module, ctx, args.rank)
    lo, hi = [], []
    for piece in args.box.split(","):
        if ":" not in piece:
            raise ParseError(f"box entries look like lo:hi, got {piece!r}")
        a, b = piece.split(":", 1)
        lo.append(int(a))
        hi.append(int(b))
    if len(lo) != args.rank:
        raise ParseError(f"expected {args.rank} box entries")
    weights = support(module, (tuple(lo), tuple(hi)))
    out = [[str(w) for w in weight] for weight in weights]
    _emit(args, [",".join(row) for row in out], {"weights": out})
    return 0


def cmd_verify_hom(args):
    ctx = _context(args)
    report = verify_lie_hom(args.map, args.rank, ctx)
    lines = [
        f"map={args.map} rank={args.rank} pairs={report.pairs_checked} "
        f"violations={len(report.violations)}"
    ]
    for x, y, r in report.violations[:20]:
        lines.append(f"  [{x}, {y}] residual {r}")
    _emit(args, lines, report.to_json_dict())
    return 0 if report.ok else 1


def cmd_verify_twist(args):
    b_parts = [p.strip() for p in args.b.split(",")]
    if args.indices:
        indices = _parse_int_vector(args.indices, len(b_parts), "index")
    else:
        indices = tuple(range(1, len(b_parts) + 1))
    if max(indices) > args.rank or min(indices) < 1:
        raise ParseError("twist index out of range")
    auto = tuple(f"a{i}" for i in range(1, args.rank + 1))
    ctx = _context(args, auto)
    spec = TwistSpec(indices, tuple(ctx.parse(p) for p in b_parts))
    base = tuple(ctx.symbol(f"a{i}") for i in range(1, args.rank + 1))
    report = verify_theta_conjugation(spec, base, args.depth, ctx, args.rank)
    lines = [
        f"indices={list(indices)} b={b_parts} depth={args.depth} "
        f"vectors={report.vectors_checked} mismatches={len(report.mismatches)}"
    ]
    for g, off, d in report.mismatches[:20]:
        lines.append(f"  {g} at offset {list(off)}: {d}")
    _emit(args, lines, report.to_json_dict())
    return 0 if report.ok else 1


def cmd_verma_mult(args):
    ctx = _context(args)
    n = args.rank
    _parse_weight(ctx, args.lam, n)  # validated; the multiplicity is weight-free
    mu = _parse_int_vector(args.offset, n, "offset")
    if any(abs(c) > args.depth for c in mu):
        raise ParseError(
            f"offset {list(mu)} outside the depth-{args.depth} window"
        )
    mult = kostant_partition(mu, positive_roots(n, args.algebra))
    _emit(
        args,
        [str(mult)],
        {"algebra": args.algebra, "offset": list(mu), "multiplicity": mult},
    )
    return 0


def _random_weight(ctx, n, rng):
    vals = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
    return Weight(ctx, [ctx.rational(v) for v in vals])


def cmd_verify_prop4b(args):
    ctx = _context(args)
    n = args.rank
    rng = random.Random(args.seed)
    weights = []
    if args.lam:
        weights.append(_parse_weight(ctx, args.lam, n))
    else:
        weights = [_random_weight(ctx, n, rng) for _ in range(args.samples)]
    reports = []
    for lam in weights:
        rep = verify_verma_factorization(lam, n, args.depth)
        reports.append((lam, rep))
    ok = all(rep.ok for _, rep in reports)
    lines = []
    for lam, rep in reports:
        status = "ok" if rep.ok else f"{len(rep.mismatches)} mismatches"
        lines.append(f"lambda={lam}: {status}")
    payload = {
        "identity": "verma-factorization",
        "rank": n,
        "depth": args.depth,
        "cases": [
            {"lambda": [str(v) for v in lam.values], **rep.to_json_dict()}
            for lam, rep in reports
        ],
    }
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_verify_prop8b(args):
    ctx = _context(args)
    n = args.rank
    if args.v_weight:
        top = _parse_weight(ctx, args.v_weight, n)
    else:
        top = Weight(ctx, [ctx.rational(0)] * n)
    rep = verify_generalized_factorization(delta_char(top), n, args.depth)
    lines = [
        f"V-weight={top}: " + ("ok" if rep.ok else f"{len(rep.mismatches)} mismatches")
    ]
    _emit(args, lines, rep.to_json_dict())
    return 0 if rep.ok else 1


def cmd_classify(args):
    ctx = _context(args)
    depth = args.depth if args.depth is not None else _default_probe_depth()
    try:
        with open(args.support, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"cannot read support table: {e}")
    table = CharTable.from_json_dict(data, ctx)
    flags = classify_flags(table, depth)
    payload = flags.to_json_dict()
    payload["probe_depth"] = depth
    lines = [
        f"I={sorted(flags.injective)} F={sorted(flags.finite)} "
        f"F+={sorted(flags.plus)} F-={sorted(flags.minus)} (probe depth {depth})"
    ]
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_DASH = "; write --option=VALUE for a VALUE that starts with '-'"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oak",
        description="exact computations and verification suites for the "
        "symplectic oscillator Lie algebra",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rank=True):
        if rank:
            p.add_argument("--rank", type=_positive_int, required=True, help="the rank n >= 1")
        p.add_argument(
            "--symbols",
            help="extra scalar symbols, comma separated (s is always present)",
        )
        p.add_argument(
            "--format", choices=("json", "text"), default=argparse.SUPPRESS,
            help="output format (default text)",
        )

    p = sub.add_parser("bracket", help="Lie bracket of two elements")
    common(p)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("normal-order", help="PBW normal form of a product word")
    common(p)
    p.add_argument("word", help="whitespace-separated basis elements")
    p.add_argument(
        "--strategy", choices=("rightmost", "leftmost"), default="rightmost"
    )
    p.set_defaults(func=cmd_normal_order)

    p = sub.add_parser("act", help="apply a Weyl operator to a module vector")
    common(p)
    p.add_argument("--module", required=True, help="'S', 'F a1,a2', or 'G a1,0'")
    p.add_argument("--op", required=True, help="Weyl element, e.g. 't1^2 d1'")
    p.add_argument(
        "--vector", required=True,
        help='JSON list of {"offset": [...], "coefficient": "..."}',
    )
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("support", help="weights of a module inside an offset box")
    common(p)
    p.add_argument("--module", required=True)
    p.add_argument("--box", required=True, help="per-coordinate lo:hi, comma separated")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("verify-hom", help="exhaustive Lie-homomorphism check")
    common(p)
    p.add_argument("--map", choices=("f", "phi"), required=True)
    p.set_defaults(func=cmd_verify_hom)

    p = sub.add_parser(
        "verify-twist", help="twist series against the conjugation oracle"
    )
    common(p)
    p.add_argument(
        "--b", required=True, help="twist parameters, comma separated" + _DASH
    )
    p.add_argument("--indices", help="twisted coordinates (default 1..k)")
    p.add_argument("--depth", type=_positive_int, default=4, help="offset box radius")
    p.set_defaults(func=cmd_verify_twist)

    p = sub.add_parser("verma-mult", help="Verma weight multiplicity at an offset")
    common(p)
    p.add_argument("--algebra", choices=("g", "sp"), required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="highest weight" + _DASH)
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument("--offset", required=True, help="mu, comma separated integers")
    p.set_defaults(func=cmd_verma_mult)

    p = sub.add_parser(
        "verify-prop4b", help="Verma character factorization through S"
    )
    common(p)
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument(
        "--lambda", dest="lam", help="check one given highest weight" + _DASH
    )
    p.add_argument("--samples", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_prop4b)

    p = sub.add_parser(
        "verify-prop8b", help="generalized Verma character factorization through S"
    )
    common(p)
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument("--v-weight", help="top weight of the inducing module" + _DASH)
    p.set_defaults(func=cmd_verify_prop8b)

    p = sub.add_parser("classify", help="long-root flag sets of a support table")
    common(p, rank=False)
    p.add_argument("--support", required=True, help="CharTable JSON file")
    p.add_argument("--depth", type=_positive_int, help="probe depth (default 12)")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 2
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
