"""Record the reference outputs the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes perfbench/refs/seed_outputs.json: the cells of every variety a seeded
class is drawn on, the sha256 of every fixed cli-cold output, and every
table-warm basis table (its rows and their sha256) of both grids.  The file
in the repository was written from the chowops sources of commit a93dd48;
regenerating it from a later commit would let that commit's outputs define
"correct", so do so only when an output change is intended and reviewed.
"""
import hashlib
import json
import os
import subprocess
import sys

import workloads as W


def main():
    import chowops
    if not os.path.realpath(chowops.__file__).startswith(str(W.SRC) + os.sep):
        raise SystemExit("put %s first on PYTHONPATH" % W.SRC)
    refs = {"cells": {}, "cli": {}, "tables": {}}
    for grid in W.GRIDS.values():
        names = set(grid.warm) | {X for X, _, _ in grid.cli_operate}
        for name in sorted(names):
            X = chowops.variety_from_spec(name)
            refs["cells"][name] = [[label, d] for label, d in X.cells]
        for name, p, conv in grid.tables():
            X = chowops.variety_from_spec(name)
            K = X.dim // (p - 1)
            rows = {}
            for label in X.labels():
                ops = chowops.steenrod_operation(
                    chowops.ModPClass(X, p, {label: 1}), p, convention=conv)
                rows[label] = [dict(ops[k].coeffs) if k < len(ops) else {}
                               for k in range(K + 1)]
            refs["tables"][W.table_key(name, p, conv)] = {
                "sha256": W.table_digest(rows), "rows": rows}
        env = dict(os.environ, PYTHONPATH=str(W.SRC),
                   STEENROD_MAX_DIM=str(grid.cli_max_dim))
        for _, argv in grid.cli_fixed:
            out = subprocess.run([sys.executable, "-m", "chowops"] + argv,
                                 env=env, capture_output=True, check=True)
            refs["cli"][W.cli_key(argv)] = hashlib.sha256(out.stdout).hexdigest()
    W.REFS.parent.mkdir(exist_ok=True)
    with open(W.REFS, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
