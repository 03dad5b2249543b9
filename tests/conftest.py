import time

import pytest

from tima.config import parse_config
from tima.harness import TREND_SEEDS, TREND_VARIANTS, run_grid


@pytest.fixture(scope="session")
def trend_runs():
    """The default recipe trained end-to-end for the acceptance seeds.

    Per seed: one `run_grid` cell with the pretrained teacher plus tecoa and
    tima students; the mhe_only ablation is trained on the default seed only
    (where the geometry criterion is checked). Shared session-wide because
    training dominates the acceptance suite's runtime budget.
    """
    t0 = time.time()
    runs = {}
    for seed in TREND_SEEDS:
        extra = ("mhe_only",) if seed == TREND_SEEDS[0] else ()
        runs[seed] = run_grid(parse_config("").with_seed(seed), TREND_VARIANTS + extra)
    runs["train_seconds"] = time.time() - t0
    return runs
