"""Put the benchmark's modules and the checkout's src/ on the path, with one BLAS thread."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402

run.pin_blas_threads()
