import os
import sys
import time

# One BLAS thread per process, as CI and the benchmark run: `run_cells` then
# spreads cells over the CPUs instead of running them in-process. BLAS reads
# these only when numpy is first imported.
if "numpy" not in sys.modules:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

import pytest  # noqa: E402

from tima.config import parse_config  # noqa: E402
from tima.harness import TREND_SEEDS, TREND_VARIANTS, run_cells, run_grid  # noqa: E402


def _trend_cell(seed):
    extra = ("mhe_only",) if seed == TREND_SEEDS[0] else ()
    return run_grid(parse_config("").with_seed(seed), TREND_VARIANTS + extra)


@pytest.fixture(scope="session")
def trend_runs():
    """The default recipe trained end-to-end for the acceptance seeds.

    Per seed: one `run_grid` cell with the pretrained teacher plus tecoa and
    tima students; the mhe_only ablation is trained on the default seed only
    (where the geometry criterion is checked). The seeds run as parallel
    cells. Shared session-wide because training dominates the acceptance
    suite's runtime budget.
    """
    t0 = time.time()
    runs = dict(zip(TREND_SEEDS, run_cells(_trend_cell, TREND_SEEDS)))
    runs["train_seconds"] = time.time() - t0
    return runs
