"""Record reference.json: the results of every op at the default seed.

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only at a commit whose outputs are the accepted ones; run.py
compares every later run at the default seed against this file.
"""

import json
import os
import sys

import run
import workloads


def main() -> int:
    tmp = os.path.join(run.TMP, f"ref-{os.getpid()}")
    os.makedirs(tmp)
    ref = {"seed": run.DEFAULT_SEED, "workloads": {}}
    try:
        for name in workloads.NAMES:
            entries = ref["workloads"][name] = []
            for i, argv in enumerate(workloads.ops(name, run.DEFAULT_SEED)):
                op = run.spawn(argv, i, tmp)
                problems, doc = run.checks.invariants(argv, op.code, op.stdout)
                if problems:
                    print(f"{name}: {' '.join(argv)}: {problems}",
                          file=sys.stderr)
                    return 1
                entries.append({"argv": argv, "results": doc["results"]})
                print(f"{name}: {' '.join(argv)}: {op.wall:.2f} s")
    finally:
        run.remove_tmp(tmp)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
