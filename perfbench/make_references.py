#!/usr/bin/env python3
"""Write references.json: the expected output digest of each (workload, seed).

    python3 perfbench/make_references.py --seeds 0-49

Runs set-up and one timed operation per (workload, seed). Run it only when a
workload's definition changes; a reference exists to catch a changed output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, ROOT, import_tima, pin_blas_threads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-49", help="inclusive range, e.g. 0-49")
    args = ap.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    pin_blas_threads()
    import_tima()
    from workloads import WORKLOADS

    refs = {}
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="references-", dir=scratch))
    try:
        for name, workload in WORKLOADS.items():
            refs[name] = {}
            for seed in range(lo, hi + 1):
                state, _ = workload.setup(seed, work)
                out = work / f"{name}-{seed}"
                out.mkdir()
                refs[name][str(seed)] = workload.operation(state, out, None)
                shutil.rmtree(out)
                print(name, seed, refs[name][str(seed)], file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work)
    (BENCH_DIR / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
