"""Command-line front end: describe varieties, compute operation tables, verify.

Exit codes: 0 pass, 1 verification failure, 2 input error, 3 a failed
theory check (any TheoryViolation), with its details dumped on stderr.  All
numeric output is exact decimal strings; serialization is deterministic
(sorted keys) so output is byte-stable for a fixed seed and input.

A call loads only the modules its verb runs: `describe` loads neither the
operation layers (`steenrod`, `ktheory`) nor `verify`, and `table` and
`operate` do not load `verify`.  The parser reads the convention and suite
names from `errors`.
"""
import argparse
import io
import json
import os
import sys

from .core import ModPClass, class_from_json, class_to_json, coeff_to_str
from .errors import (CONVENTIONS, SUITE_NAMES, ChowopsError, TheoryViolation,
                     require_prime)
from .varieties import DEFAULT_MAX_DIM, variety_from_spec


def steenrod_operation(xbar, p, convention):
    """`steenrod.steenrod_operation`, loaded on the first operation."""
    from .steenrod import steenrod_operation
    return steenrod_operation(xbar, p, convention=convention)


def _max_dim():
    text = os.environ.get("STEENROD_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError("STEENROD_MAX_DIM must be a non-negative integer, "
                         "got %r" % text)
    return value


def _decode(flag, text):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("%s is nested too deeply" % flag) from None


def _load_variety(text):
    if text is None:
        raise ValueError("--variety is required")
    text = text.strip()
    if text.startswith("{"):
        spec = _decode("--variety", text)
    elif os.path.isfile(text):
        with open(text) as fh:
            spec = _decode("--variety", fh.read())
    else:
        spec = text  # shorthand like P^2, Q_3, P^1xP^1
    return variety_from_spec(spec, max_dim=_max_dim())


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(obj, out_path):
    _emit(json.dumps(obj, indent=2, sort_keys=True), out_path)


def cmd_describe(args):
    X = _load_variety(args.variety)
    index, mult = X._index, {}
    for a, row in X._table.items():
        for b, prods in row.items():
            if index[a] <= index[b]:
                mult.setdefault(a, {})[b] = {c: str(v) for c, v in prods}
    report = {
        "name": X.name,
        "dim": X.dim,
        "cells": [[l, d] for l, d in X.cells],
        "fundamental": X.fundamental,
        "degree_vector": {l: str(v) for l, v in sorted(X.degree_vector.items())},
        "mult_table": mult,
        "tangent_ch": {l: coeff_to_str(v)
                       for l, v in sorted(X.tangent_ch.items())},
        "tau_matrix": {c: {row: coeff_to_str(v) for row, v in sorted(col.items())}
                       for c, col in sorted(X.tau_columns.items())},
    }
    _dump(report, args.out)
    return 0


def cmd_operate(args):
    p = args.p
    require_prime(p)
    X = _load_variety(args.variety)
    raw = _decode("--class", args.cls)
    x = class_from_json(X, raw)
    xbar = ModPClass.from_integral(x.as_integral(), p)
    ops = steenrod_operation(xbar, p, args.convention)
    result = {
        "variety": X.name,
        "p": p,
        "input": class_to_json(x),
        "ops": {"S_%d" % k: class_to_json(v) for k, v in enumerate(ops)},
        "convention": CONVENTIONS[args.convention],
    }
    _dump(result, args.out)
    return 0


def cmd_table(args):
    from .steenrod import op_component
    p = args.p
    require_prime(p)
    X = _load_variety(args.variety)
    k_max = X.dim // (p - 1)
    rows = []
    for label in X.labels():
        xbar = ModPClass(X, p, {label: 1})
        ops = steenrod_operation(xbar, p, args.convention)
        for k in range(k_max + 1):
            rows.append((label, k, class_to_json(op_component(ops, k))))
    if args.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["cell", "k", "output"])
        for label, k, vec in rows:
            writer.writerow([label, k, json.dumps(vec, sort_keys=True)])
        _emit(buf.getvalue(), args.out)
    else:
        _dump({"variety": X.name, "p": p,
               "convention": CONVENTIONS[args.convention],
               "rows": [{"cell": l, "k": k, "output": v}
                        for l, k, v in rows]}, args.out)
    return 0


def cmd_verify(args):
    from .verify import run_suite
    for flag in ("k", "trials"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError("--%s must be at least 1, got %d" % (flag, value))
    params = {
        "seed": args.seed,
        "p": args.p,
        "variety": args.variety,
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "max_dim": _max_dim(),
    }
    report = run_suite(args.suite, **params)
    _dump(report, args.out)
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowops",
        description="Exact Steenrod operations on Chow groups of split "
                    "cellular varieties.")
    subs = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp, with_class=False):
        sp.add_argument("--variety", help="JSON spec, file path, or shorthand "
                                          "like P^2 / Q_3 / P^1xP^1")
        sp.add_argument("--p", type=int, default=2, help="prime modulus")
        if with_class:
            sp.add_argument("--class", dest="cls", required=True,
                            help='class JSON, e.g. {"h^1":"1"}')
        sp.add_argument("--convention", choices=list(CONVENTIONS),
                        default="coh")
        sp.add_argument("--out", help="write output to a file")

    sp = subs.add_parser("describe", help="print basis, multiplication table, "
                                          "tangent data and tau matrix")
    sp.add_argument("--variety", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_describe)

    sp = subs.add_parser("operate", help="all S_k of one class")
    add_common(sp, with_class=True)
    sp.set_defaults(func=cmd_operate)

    sp = subs.add_parser("table", help="operation table over the whole basis")
    add_common(sp)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_table)

    sp = subs.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITE_NAMES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int)
    sp.add_argument("--variety")
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except TheoryViolation as exc:
        sys.stderr.write("theory check failed (%s): %s\n"
                         % (type(exc).__name__, exc))
        sys.stderr.write(json.dumps(exc.details, indent=2, sort_keys=True) + "\n")
        return 3
    except (ChowopsError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
