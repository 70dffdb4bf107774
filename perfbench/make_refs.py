"""Regenerate refs.json, the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py [WORKLOAD ...]

For seeds 0..REF_SEEDS-1 of every workload named (all by default) it sets
up once, runs one round, requires every output check to pass and stores the
round's digest, keeping the stored entries of the other workloads.
Regenerate only with a change that is meant to alter probdiar's outputs, and
say which ones moved.
"""

from __future__ import annotations

import json
import os
import sys

import run

REF_SEEDS = 16


def main():
    run.import_probdiar()
    import workloads

    names = sys.argv[1:] or [cls.name for cls in workloads.WORKLOADS]
    refs = json.loads((run.HERE / "refs.json").read_text())
    for cls in (workloads.BY_NAME[name] for name in names):
        for seed in range(REF_SEEDS):
            wl = cls(seed)
            wl.setup()
            tally = run.Tally()
            _, first = run.measure(wl, 0.0, tally)
            if tally.failed:
                raise SystemExit(f"{wl.name} seed {seed}: output checks failed")
            refs.setdefault(wl.name, {})[str(seed)] = wl.digest(first)
            print(f"{wl.name} seed {seed}: stored", flush=True)
    (run.HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    main()
