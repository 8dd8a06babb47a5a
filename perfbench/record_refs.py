#!/usr/bin/env python3
"""Record the benchmark's correctness references into perfbench/refs.json.

Usage (from the root of a checkout): python3 perfbench/record_refs.py

Run it only on a commit whose outputs are trusted; every later run of the
benchmark is checked against what it writes.  Takes about two minutes,
most of it relaxing the crystal seed pool.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main() -> int:
    refs = {"crystal": {}, "figures": {}, "design": workloads.design_digest()}
    crystal = workloads.Crystal(0, refs)
    for relax_seed in range(workloads.CRYSTAL_POOL):
        refs["crystal"][str(relax_seed)] = crystal.record(
            relax_seed, crystal.op(relax_seed))
        print(f"crystal seed {relax_seed}: {refs['crystal'][str(relax_seed)]}",
              flush=True)
    scratch = os.path.join(HERE, "out")
    os.makedirs(scratch, exist_ok=True)
    figures = workloads.Figures(refs, scratch)
    outdir = figures.next_input()
    refs["figures"] = figures.record(outdir, figures.op(outdir))
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
