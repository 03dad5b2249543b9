"""One benchmark run: set up, repeat the timed operation, check every output.

An untraced run gives the end-to-end metrics; a traced run alternates
untraced and traced operations and gives the per-layer metrics. Both count an
operation as failed when it raises or when its output digest differs from the
expected one: the stored reference for the (workload, seed), or else the
first output of the run.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from layers import PER_LAYER, TimaTrace, layer_metrics, loss_term_probe
from tracing import Tracer
from workloads import Workload

SETUP_REPEATS = 5

# calibration_seconds() at the machine speed set-up times are scaled to: about
# its median on the 2-core machine the benchmark was tuned on.
REFERENCE_CALIBRATION_S = 0.06

END_TO_END = (("setup_s", "s"), ("op_cal.p50", "cal"), ("peak_rss_mb", "MB"))


def calibration_seconds(repeats: int = 300) -> float:
    """Wall time of a fixed numpy kernel shaped like tima's inner loop.

    It runs no tima code, so no change to tima can move it: only the speed of
    the machine does. Dividing an operation's time by it cancels most of the
    slow drift of a shared machine.
    """
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (128, 256))
    w = rng.uniform(-0.0625, 0.0625, (256, 32))
    start = time.perf_counter()
    for _ in range(repeats):
        h = np.tanh(x @ w)
        h = h / np.sqrt(np.sum(h * h, axis=1, keepdims=True))
        s = h @ h.T / 0.01
        np.exp(s - np.max(s, axis=1, keepdims=True)).sum()
        np.all(np.isfinite(h.T @ h))
    return time.perf_counter() - start


class OpLog:
    """Wall times and failures of a run's timed operations."""

    def __init__(self, reference: Optional[str] = None):
        self.expected = reference
        self.seconds: List[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, operation: Callable[[], str]) -> Optional[str]:
        start = time.perf_counter()
        try:
            digest = operation()
        except Exception:  # a failed operation is a result to count, not a crash
            traceback.print_exc()
            digest = None
        self.seconds.append(time.perf_counter() - start)
        if digest is not None and self.expected is None:
            self.expected = digest
        if digest is None or digest != self.expected:
            self.failed += 1
            if digest is not None:
                print(f"output {digest} differs from expected {self.expected}", file=sys.stderr)
        return digest


def _operations(seconds: float, minimum: int, step: Callable[[int], None]) -> None:
    """Call step(0), step(1), ... until ``seconds`` have passed and at least
    ``minimum`` calls were made."""
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def _run_in(work: Path, i: int, log: OpLog, operation: Callable[[Path], str]) -> None:
    out = work / f"op-{i}"
    out.mkdir()
    try:
        log.run(lambda: operation(out))
    finally:
        shutil.rmtree(out)


def _result(correct: bool, log: OpLog, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {"correct": bool(correct and log.failed == 0), "attempted": log.attempted,
            "failed": log.failed,
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in metrics.items()}}


def _with_calibration(measure: Callable[[], float], repeats: int) -> Tuple[List[float], List[float]]:
    """``repeats`` pairs of (calibration seconds, then measure()'s seconds)."""
    cal_s, raw_s = [], []
    for _ in range(repeats):
        cal_s.append(calibration_seconds())
        raw_s.append(measure())
    return cal_s, raw_s


def _median_ratio(raw_s: List[float], cal_s: List[float]) -> float:
    return statistics.median(raw / cal for raw, cal in zip(raw_s, cal_s))


def untraced_run(workload: Workload, seed: int, seconds: float, work: Path,
                 reference: Optional[str], import_seconds: Callable[[], float]) -> dict:
    setup_digests = set()
    state = None

    def set_up() -> float:
        nonlocal state
        state = None            # let the previous set-up's data go before the next
        start = time.perf_counter()
        state, digest = workload.setup(seed, work)
        took = time.perf_counter() - start
        setup_digests.add(digest)
        return took

    import_cal_s, import_s = _with_calibration(import_seconds, SETUP_REPEATS)
    setup_cal_s, setup_s = _with_calibration(set_up, SETUP_REPEATS)
    log = OpLog(reference)
    cal_s: List[float] = []

    def step(i: int) -> None:
        cal_s.append(calibration_seconds())
        _run_in(work, i, log, lambda out: workload.operation(state, out, None))

    _operations(seconds, 1, step)
    metrics = {
        "setup_s": REFERENCE_CALIBRATION_S * (_median_ratio(import_s, import_cal_s)
                                              + _median_ratio(setup_s, setup_cal_s)),
        "op_cal.p50": _median_ratio(log.seconds, cal_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps({"summary": {
        "operations": log.attempted, "op_s": log.seconds, "op_cal_s": cal_s,
        "import_s": import_s, "import_cal_s": import_cal_s,
        "setup_s": setup_s, "setup_cal_s": setup_cal_s,
        "reference": reference is not None}}))
    return _result(len(setup_digests) == 1, log, metrics, dict(END_TO_END))


def traced_run(workload: Workload, seed: int, seconds: float, work: Path,
               reference: Optional[str]) -> dict:
    tracer = Tracer()
    trace = TimaTrace(tracer)
    trace.install()
    try:
        state, _ = workload.setup(seed, work)        # traced as operation 0
    finally:
        tracer.restore()
    log = OpLog(reference)
    plain_s: List[float] = []
    traced_s: List[float] = []
    traced_ops: List[int] = []

    def step(i: int) -> None:
        if i % 2 == 0:
            _run_in(work, i, log, lambda out: workload.operation(state, out, None))
            plain_s.append(log.seconds[-1])
            return
        tracer.op = i + 1
        trace.install()
        try:
            _run_in(work, i, log, lambda out: workload.operation(state, out, tracer))
        finally:
            tracer.restore()
        traced_ops.append(tracer.op)
        traced_s.append(log.seconds[-1])

    _operations(seconds, 2, step)
    metrics = layer_metrics(tracer, traced_ops)
    metrics.update(loss_term_probe(trace.loss_batch))
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics["fail_frac"] = log.fail_frac
    units = {name: unit for name, unit, _ in PER_LAYER}
    ordered = {name: metrics[name] for name, _, _ in PER_LAYER}
    return _result(tracer.restored(), log, ordered, units)
