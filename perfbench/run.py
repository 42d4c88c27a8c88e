"""chowops benchmark runner.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Every workload is a closed loop with one
client: one call at a time, the next only after the previous one returned.

  cli-cold      fresh `python -m chowops` processes over the ROADMAP grid
  table-warm    full basis tables and seeded classes on warm varieties
  verify-sweep  all 15 verification suites through run_suite

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run (see spans.py).
Every output is checked against the seed commit's outputs in refs/; a wrong
output, a nonzero exit or an exception fails the op and the run.  The lines
above the last one print every metric by name with its unit, followed by the
run diagnostics (host calibration, per-kind times, tail latency) as JSON.
"""
import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import spans
import workloads as W

WORKLOADS = ("cli-cold", "table-warm", "verify-sweep")
END_TO_END = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mb": "MB"}
SETUP_CHILDREN = 3   # fresh set-ups per run; setup_s is their median
IMPORT_PROBES = 9    # bare-import processes per cli-cold run
DEADLINE_S = 170     # a run that is not done by then is abandoned
MAX_PASSES = 50      # bounds a run whose passes are very short
WORKER = str(W.HERE / "worker.py")
OUT = W.ROOT / ".perfbench_out"


class RunError(Exception):
    """The run could not be completed; no result is printed."""


class Run:
    """Clock, environment and op accounting of one benchmark run."""

    def __init__(self, workload, grid, seed):
        self.workload = workload
        self.grid = grid
        self.seed = seed
        self.t0 = perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(W.SRC), PYTHONHASHSEED="0",
                        STEENROD_MAX_DIM=str(grid.cli_max_dim))
        self.attempted = 0
        self.failures = []
        self.problems = []   # run-level check failures that are not ops

    def left(self):
        left = DEADLINE_S - (perf_counter() - self.t0)
        if left <= 0:
            raise RunError("run exceeded %d s" % DEADLINE_S)
        return left

    def count(self, failures, attempted):
        self.attempted += attempted
        self.failures.extend(failures)

    def more(self, passes, seconds):
        """Whether to run another pass: until the passes, calibration samples
        included, add up to `seconds`; a run whose outputs are already wrong
        stops after its first pass."""
        return not passes or (sum(p["span_s"] for p in passes) < seconds
                              and not self.failures and len(passes) < MAX_PASSES)

    def spans_path(self, label):
        """Where a traced process writes its spans; the next traced run of the
        workload overwrites them."""
        OUT.mkdir(exist_ok=True)
        return str(OUT / ("%s-%s.spans.gz" % (self.workload, label)))

    def timed(self, argv):
        """Run a process to completion; return (wall seconds, exit, stdout)."""
        t = perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  timeout=self.left())
        except subprocess.TimeoutExpired:
            raise RunError("%s timed out" % " ".join(argv))
        wall = perf_counter() - t
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return wall, proc.returncode, proc.stdout


class Worker:
    """A pass worker process (see worker.py), driven one command at a time."""

    def __init__(self, run, mode, traced=False, label=None):
        argv = [sys.executable, WORKER, mode, "--grid", run.grid.name,
                "--seed", str(run.seed)]
        if traced:
            argv += ["--trace", "--spans", run.spans_path(label)]
        self.run = run
        t = perf_counter()
        self.proc = subprocess.Popen(argv, env=run.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        # a worker still alive at the run's deadline is killed, which ends
        # the blocking read below with an empty line
        self.timer = threading.Timer(run.left(), self.proc.kill)
        self.timer.start()
        if self._line() != "READY":
            self.close()
            raise RunError("%s worker failed during set-up" % mode)
        self.setup_s = perf_counter() - t

    def _line(self):
        line = self.proc.stdout.readline()
        self.run.left()
        return line.strip()

    def _ask(self, cmd):
        try:
            self.proc.stdin.write(cmd + "\n")
            self.proc.stdin.flush()
        except OSError:
            line = ""
        else:
            line = self._line()
        if not line.startswith("{"):
            self.close()
            raise RunError("worker died on %r" % cmd)
        return json.loads(line)

    def run_pass(self):
        return self._ask("pass")

    def finish(self):
        out = self._ask("exit")
        self.close()
        return out

    def close(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


# -- cli-cold -----------------------------------------------------------------

def cli_calls(run, refs):
    """(kind, argv, check) for every call of one cli-cold pass, in order."""
    calls = []
    for kind, argv in run.grid.cli_fixed:
        want = refs["cli"][W.cli_key(argv)]
        calls.append((kind, argv, lambda out, want=want:
                      hashlib.sha256(out).hexdigest() == want))
    for argv, X, p, conv, coeffs in W.cli_operate_calls(run.grid, run.seed, refs):
        want = W.expected_ops(refs["tables"][W.table_key(X, p, conv)]["rows"],
                              coeffs, p)
        calls.append(("operate", argv, lambda out, want=want:
                      _operate_ok(out, want)))
    return calls


def _operate_ok(stdout, want):
    try:
        ops = json.loads(stdout)["ops"]
        got = [{l: int(v) for l, v in ops["S_%d" % k].items()}
               for k in range(len(ops))]
    except (ValueError, KeyError):
        return False
    return W.ops_match(got, want)


def cli_pass(run, calls, traced=False, label=""):
    """One pass over the calls; returns per-kind times, latencies and traces."""
    out = {"latencies": [], "kinds": {}, "raws": [], "interp_start_s": 0.0}
    failures = []
    cal = W.Calibrator()
    t_pass = perf_counter()
    for i, (kind, argv, check) in enumerate(calls):
        if traced:
            cmd = [sys.executable, WORKER, "cli-call", "--spans",
                   run.spans_path("%s-call%d" % (label, i)), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "chowops"] + argv
        wall, code, stdout = run.timed(cmd)
        if traced and code == 0:
            reply = json.loads(stdout)
            code, stdout = reply["exit"], reply["stdout"].encode()
            out["raws"].append(reply["raw"])
            out["interp_start_s"] += wall - reply["main_s"]
        if code != 0 or not check(stdout):
            failures.append({"op": " ".join(argv), "exit": code})
        out["latencies"].append(wall)
        out["kinds"][kind] = out["kinds"].get(kind, 0.0) + wall
        cal.after(wall)
    out["span_s"] = perf_counter() - t_pass
    out["wall_s"] = sum(out["latencies"])
    out["ref_s"] = cal.ref_s(out["wall_s"])
    out["slowdown"] = cal.slowdown()
    run.count(failures, len(calls))
    return out


def cli_cold(run, seconds, traced):
    refs = W.load_refs()
    calls = cli_calls(run, refs)
    if traced:
        plain = cli_pass(run, calls)
        a = cli_pass(run, calls, True, "a")
        b = cli_pass(run, calls, True, "b")
        layer = _traced_layers(run, spans.merge(a["raws"]), spans.merge(b["raws"]),
                               (a["ref_s"] + b["ref_s"]) / 2 / plain["ref_s"] - 1)
        layer["cli.interp_start_s"] = (a["interp_start_s"] + b["interp_start_s"]) / 2
        return layer, {}
    setups = []
    for _ in range(IMPORT_PROBES):
        wall, code, _ = run.timed([sys.executable, "-c", "import chowops"])
        if code:
            raise RunError("`import chowops` failed")
        setups.append(wall)
    passes, calib = [], []
    while run.more(passes, seconds):
        calib.append(W.calib_ms())
        passes.append(cli_pass(run, calls))
        calib.append(W.calib_ms())
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    kinds = {k + "_s": statistics.median(p["kinds"][k] for p in passes)
             for k in passes[0]["kinds"]}
    return _end_to_end(setups, passes, [rss], calib, kinds)


# -- table-warm and verify-sweep ----------------------------------------------

def pass_workload(run, mode, seconds, traced):
    if traced:
        plain = Worker(run, mode)
        res = plain.run_pass()
        run.count(res["failures"], len(res["latencies"]))
        plain_s = res["ref_s"]
        plain.finish()
        traced_s, raws = [], []
        for label in ("a", "b"):
            w = Worker(run, mode, traced=True, label=label)
            res = w.run_pass()
            run.count(res["failures"], len(res["latencies"]))
            traced_s.append(res["ref_s"])
            raws.append(w.finish()["raw"])
        layer = _traced_layers(run, raws[0], raws[1],
                               sum(traced_s) / 2 / plain_s - 1)
        layer["cli.interp_start_s"] = 0.0
        return layer, {}
    # verify-sweep warms the per-variety caches in its pass, so each of its
    # workers runs one pass; table-warm's pass starts warm and may repeat.
    one_pass_per_worker = mode == "verify-sweep"
    setups, passes, rss = [], [], []
    while len(setups) < SETUP_CHILDREN or run.more(passes, seconds):
        w = Worker(run, mode)
        setups.append(w.setup_s)
        while run.more(passes, seconds):
            res = w.run_pass()
            passes.append(res)
            rss.append(res["peak_rss_mb"])
            run.count(res["failures"], len(res["latencies"]))
            if one_pass_per_worker:
                break
        w.finish()
    calib = [c for p in passes for c in p["calib_ms"]]
    kinds = {k: statistics.median(p[k] for p in passes)
             for k in ("table_s", "operate_s", "verify_s") if k in passes[0]}
    return _end_to_end(setups, passes, rss, calib, kinds)


# -- metrics ------------------------------------------------------------------

def _end_to_end(setups, passes, rss, calib, kinds):
    lat = [x for p in passes for x in p["latencies"]]
    # A set-up is timed from outside its process, with no room for samples
    # between its steps, so it takes the host speed the run's passes measured.
    slowdown = statistics.median(p["slowdown"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups) / slowdown,
        "pass_ref_s": statistics.median(p["ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(rss),
    }
    diag = {"setups": len(setups), "passes": len(passes), "op_samples": len(lat),
            "setup_wall_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "host.slowdown_ratio": slowdown,
            "op_p50_ms": statistics.median(lat) * 1e3, "host.calib_ms": calib}
    diag.update(kinds)
    if len(lat) >= 1000:   # at least ten samples beyond p99
        diag["op_p99_ms"] = statistics.quantiles(lat, n=100)[98] * 1e3
    return metrics, diag


COUNT_SUFFIXES = (".calls", ".failed", ".checks", "max_den_bits")


def _traced_layers(run, raw_a, raw_b, overhead):
    """Per-layer metrics of two traced runs; their counts must be identical."""
    counts = lambda raw: {k: v for k, v in raw.items() if k.endswith(COUNT_SUFFIXES)
                          or k.endswith(".hits")}
    if counts(raw_a) != counts(raw_b):
        diff = sorted(k for k in set(raw_a) | set(raw_b)
                      if k in counts(raw_a) and raw_a.get(k) != raw_b.get(k))
        run.problems.append("traced counts differ between two runs: %s" % diff)
    mean = {k: (v + raw_b.get(k, v)) / 2 if k not in counts(raw_a) else v
            for k, v in raw_a.items()}
    layer = spans.finish(mean)
    layer["trace.overhead_frac"] = overhead
    return layer


def run_workload(name, grid, seed, seconds, traced):
    run = Run(name, grid, seed)
    if name == "cli-cold":
        metrics, diag = cli_cold(run, seconds, traced)
    else:
        metrics, diag = pass_workload(run, name, seconds, traced)
    diag["failed_frac"] = "%d/%d" % (len(run.failures), run.attempted)
    correct = not run.failures and not run.problems and run.attempted > 0
    result = {"correct": correct, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return result, diag, run.failures + run.problems


def report(name, seed, traced, result, diag, problems):
    print("workload %s  seed %d  trace %d  correct %s  failed %d/%d"
          % (name, seed, traced, result["correct"], result["failed"],
             result["attempted"]))
    for k, v in sorted(result["metrics"].items()):
        print("  %-42s %14.6g %s" % (k, v, _unit(k)))
    for k, v in sorted(diag.items()):
        if isinstance(v, float):
            print("  %-42s %14.6g %s   (diagnostic)" % (k, v, _unit(k)))
    if diag.get("host.calib_ms"):
        cal = diag["host.calib_ms"]
        print("  %-42s %14.6g ms   (diagnostic: median of %d, range %.3g-%.3g)"
              % ("host.calib_ms", statistics.median(cal), len(cal), min(cal), max(cal)))
    for p in problems[:20]:
        sys.stderr.write("FAILED: %s\n" % json.dumps(p))
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": _unit(k)}
                                  for k, v in sorted(result["metrics"].items())}}))


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


# -- smoke --------------------------------------------------------------------

def smoke():
    """All workloads on the tiny grid, traced and untraced; assert every metric."""
    with open(W.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        for traced in (0, 1):
            result, diag, problems = run_workload(name, W.SMOKE, 0, 1, traced)
            report(name, 0, traced, result, diag, problems)
            missing = [m for m, unit in want[traced].items()
                       if m not in result["metrics"] or _unit(m) != unit]
            if missing or not result["correct"] or result["failed"]:
                ok = False
                sys.stderr.write("smoke %s trace %d: missing or mis-unit %s, "
                                 "failed %d\n" % (name, traced, missing,
                                                   result["failed"]))
    print("smoke " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a tiny grid and check the metrics")
    args = parser.parse_args()
    if not (W.SRC / "chowops" / "__init__.py").is_file():
        sys.stderr.write("no chowops sources under %s; run from a checkout\n" % W.SRC)
        return 2
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke()
        result, diag, problems = run_workload(args.workload, W.FULL, args.seed,
                                              args.seconds, args.trace)
    except RunError as exc:
        sys.stderr.write("benchmark run failed: %s\n" % exc)
        return 3
    report(args.workload, args.seed, args.trace, result, diag, problems)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
