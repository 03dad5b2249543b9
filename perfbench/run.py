#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload train-tima --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer ones. tima is imported from ``src/`` of the checkout this file
sits in; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread. Must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_tima() -> None:
    """Import numpy and tima from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "tima" / "__init__.py").is_file():
        raise ImportError(f"no tima package under {src}")
    sys.path.insert(0, str(src))
    import tima.cli  # noqa: F401
    if Path(tima.__file__).resolve().parent != src / "tima":
        raise ImportError(f"imported tima from {tima.__file__}, not {src}")


def import_seconds() -> float:
    """Time to import numpy and tima in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import numpy, tima.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def _git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tima").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "git_commit": _git_commit(),
            "source_sha256": h.hexdigest()}


def reference_for(workload: str, seed: int):
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    return refs.get(workload, {}).get(str(seed))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_tima()
    except ImportError as exc:
        print(f"perfbench: cannot import tima: {exc}", file=sys.stderr)
        return 2
    from runner import traced_run, untraced_run
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    reference = reference_for(workload.name, args.seed)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        if args.trace:
            result = traced_run(workload, args.seed, args.seconds, work, reference)
        else:
            result = untraced_run(workload, args.seed, args.seconds, work, reference,
                                  import_seconds)
    finally:
        shutil.rmtree(work)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
