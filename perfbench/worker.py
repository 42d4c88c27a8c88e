"""One benchmark process: a table-warm or verify-sweep pass, or one traced CLI call.

    python3 perfbench/worker.py table-warm   --grid full --seed N [--trace]
    python3 perfbench/worker.py verify-sweep --grid full --seed N [--trace]
    python3 perfbench/worker.py cli-call -- <chowops CLI arguments>

A pass worker prints "READY" once set-up is done, so that run.py can time
interpreter start, import, builds and cache warming from outside.  It then
reads commands from stdin: each "pass" line runs one timed pass and prints
its results as a JSON line; "exit" prints a last JSON line (with the traced
counts when --trace is given) and ends the process.  A cli-call worker
installs the tracer, runs `chowops.cli.main` with stdout captured and prints
one JSON line.  Run with `src` on PYTHONPATH, as run.py does.
"""
import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

import workloads as W


def _import_chowops(traced):
    import chowops
    here = os.path.realpath(chowops.__file__)
    if not here.startswith(str(W.SRC) + os.sep):
        raise SystemExit("chowops was imported from %s, not from %s" % (here, W.SRC))
    if not traced:
        return None
    import spans
    return spans.install()


def _rows(ops, K):
    """S_0..S_K of one operation list as {cell: int} dicts."""
    return [dict(ops[k].coeffs) if k < len(ops) else {} for k in range(K + 1)]


def table_warm(grid, seed):
    """Set-up: build every variety and warm its caches with one op per prime."""
    import chowops
    op = chowops.steenrod_operation
    varieties = {name: chowops.variety_from_spec(name) for name in grid.warm}
    for X in varieties.values():
        for p in W.PRIMES:
            op(chowops.ModPClass(X, p, {X.labels()[-1]: 1}), p, convention="coh")
    refs = W.load_refs()
    basis = [(name, p, conv, {label: 1}) for name, p, conv in grid.tables()
             for label in varieties[name].labels()]
    inputs = W.warm_classes(grid, seed, refs)

    def run_pass():
        """Every basis table, then the seeded classes; checked after timing."""
        latencies = []
        outputs = []   # (variety name, p, convention, coeffs, ops or exception)
        cal = W.Calibrator()
        t_pass = perf_counter()
        for name, p, conv, coeffs in basis + inputs:
            X = varieties[name]
            t = perf_counter()
            try:
                ops = op(chowops.ModPClass(X, p, coeffs), p, convention=conv)
            except Exception as exc:  # a raising op is a failed op, not a crash
                ops = exc
            latencies.append(perf_counter() - t)
            cal.after(latencies[-1])
            outputs.append((name, p, conv, coeffs, ops))
        span_s = perf_counter() - t_pass
        wall_s = sum(latencies)
        table_s = sum(latencies[:len(basis)])

        failures = []
        tables = {}
        for name, p, conv, coeffs, ops in outputs[:len(basis)]:
            K = varieties[name].dim // (p - 1)
            (label,) = coeffs
            tables.setdefault(W.table_key(name, p, conv), {})[label] = (
                repr(ops) if isinstance(ops, Exception) else _rows(ops, K))
        for key, rows in tables.items():
            ref = refs["tables"][key]
            if W.table_digest(rows) != ref["sha256"]:
                failures += [{"op": "table %s %s" % (key, label), "got": got}
                             for label, got in rows.items()
                             if got != ref["rows"][label]]
        for name, p, conv, coeffs, ops in outputs[len(basis):]:
            key = W.table_key(name, p, conv)
            want = W.expected_ops(refs["tables"][key]["rows"], coeffs, p)
            if isinstance(ops, Exception) or not W.ops_match(
                    [dict(x.coeffs) for x in ops], want):
                failures.append({"op": "operate %s %s" % (key, coeffs),
                                 "why": repr(ops) if isinstance(ops, Exception)
                                 else "not the mod-p combination of the basis rows"})
        return {"wall_s": wall_s, "ref_s": cal.ref_s(wall_s), "span_s": span_s,
                "slowdown": cal.slowdown(), "table_s": table_s,
                "operate_s": sum(latencies) - table_s,
                "latencies": latencies, "failures": failures}

    return run_pass


def verify_sweep(grid, seed):
    """Set-up: build the suites' default varieties; nothing else is cached."""
    import chowops
    from chowops.verify import default_builders
    default_builders()

    def run_pass():
        """All suites through run_suite, seeded from the benchmark seed."""
        latencies = []
        reports = []
        cal = W.Calibrator()
        t_pass = perf_counter()
        for suite in grid.suites:
            params = {"seed": seed}
            if suite == "whitney":
                params["trials"] = grid.whitney_trials
            t = perf_counter()
            try:
                report = chowops.run_suite(suite, **params)
            except Exception as exc:  # a raising suite is a failed op, not a crash
                report = {"passed": False, "error": repr(exc)}
            latencies.append(perf_counter() - t)
            cal.after(latencies[-1])
            reports.append((suite, report))
        span_s = perf_counter() - t_pass
        wall_s = sum(latencies)
        failures = [{"op": "suite " + suite, "report": report}
                    for suite, report in reports if not report.get("passed")]
        return {"wall_s": wall_s, "ref_s": cal.ref_s(wall_s), "span_s": span_s,
                "slowdown": cal.slowdown(), "verify_s": wall_s,
                "latencies": latencies, "failures": failures}

    return run_pass


def _send(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def serve(setup, grid, seed, traced, spans_path):
    """Set up, say READY, then answer "pass" lines from stdin until "exit".

    Each pass is bracketed by the host-drift diagnostic loop.  On exit a traced
    worker reports the per-layer counts of everything it did, set-up included.
    """
    tracer = _import_chowops(traced)
    run_pass = setup(grid, seed)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        before = W.calib_ms()
        result = run_pass()
        result["calib_ms"] = [before, W.calib_ms()]
        result["peak_rss_mb"] = _peak_rss_mb()
        _send(result)
    final = {"peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        final["raw"] = tracer.raw_metrics()
        if spans_path:
            tracer.dump(spans_path)
    _send(final)


def cli_call(argv, spans_path):
    """Run one CLI command in-process under the tracer; stdout is captured."""
    tracer = _import_chowops(True)
    import chowops.cli
    buf = io.StringIO()
    t = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = chowops.cli.main(argv)
    main_s = perf_counter() - t
    if spans_path:
        tracer.dump(spans_path)
    _send({"exit": code, "main_s": main_s, "stdout": buf.getvalue(),
           "raw": tracer.raw_metrics()})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["table-warm", "verify-sweep", "cli-call"])
    parser.add_argument("--grid", choices=sorted(W.GRIDS), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the recorded spans to this file")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    if args.mode == "cli-call":
        cli_call(argv[cut + 1:], args.spans)
    else:
        setup = table_warm if args.mode == "table-warm" else verify_sweep
        serve(setup, W.GRIDS[args.grid], args.seed, args.trace, args.spans)


if __name__ == "__main__":
    main()
