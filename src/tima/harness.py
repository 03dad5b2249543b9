"""Training and evaluation orchestration.

Two stages: clean contrastive pretraining produces the model that gets frozen
as the teacher, then adversarial fine-tuning (the full method or one of its
ablation variants) trains a student against that teacher. Evaluation covers
clean/robust accuracy, text-embedding geometry, and similarity-matrix
diagnostics, all deterministic per seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attacks import (
    AttackConfig,
    _accuracy,
    _check_classes,
    attack_text,
    pgd_attack,
    scored_passes,
)
from .data import Dataset, generate_synthetic, pixels
from .errors import (
    EmptyDataset,
    InvalidConfig,
    InvalidVariant,
    ReportSchemaError,
    TooFewClasses,
    WorkerDied,
    _is_int,
)
from .files import make_dir, read_file, write_atomic
from .losses import LossWeights, _check_labels, _tam, teacher_targets, tima_loss
from .model import _SEED_LIMIT, DualEncoder, TeacherSnapshot, init_model, snapshot_teacher
from .tensor import Tensor, check_finite, normalize_rows_forward

Array = np.ndarray

VARIANTS = ("tima", "tecoa", "iat_only", "tai_only", "mhe_only")

# the headline experiment: the seeds and variants `tima trend` and the
# acceptance suite train
TREND_SEEDS = (0, 1, 2)
TREND_VARIANTS = ("tecoa", "tima")


def _default_train_attack() -> AttackConfig:
    return AttackConfig(eps=1 / 255, step_size=1 / 255, steps=2, restarts=0)


@dataclass(frozen=True)
class TrainConfig:
    """One training run; ``finetune`` trains its weights, freeze flag and attack as given."""

    learning_rate: float
    momentum: float
    epochs: int
    batch_size: int
    freeze_text: bool = False
    loss_weights: LossWeights = field(default_factory=LossWeights)
    train_attack: AttackConfig = field(default_factory=_default_train_attack)
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise InvalidConfig(f"learning_rate must be finite and positive, "
                                f"got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig(f"momentum must lie in [0, 1), got {self.momentum}")
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            n = getattr(self, name)
            if not (_is_int(n) and n >= least):
                raise InvalidConfig(f"{name} must be an integer >= {least}, got {n!r}")


class _Momentum:
    """Plain SGD with momentum, in place: v <- mu v + g; w <- w - lr v."""

    def __init__(self, params: Sequence[Tensor], lr: float, mu: float):
        self.params = list(params)
        self.lr = lr
        self.mu = mu
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: Dict[Tensor, Array]) -> None:
        for p, v in zip(self.params, self.velocity):
            v *= self.mu
            v += grads[p]
            p.data -= self.lr * v


def contrastive_ce(model: DualEncoder, x: Array, y: Array) -> Tuple[float, Dict[Tensor, Array]]:
    """Clean contrastive cross-entropy at the model temperature and its
    gradient for every ``model.parameters()`` entry, from ``image_forward``'s
    and ``text_forward``'s pullbacks without the tape: the value, gradients
    and errors (same checks, order and op names) of the tape's form."""
    image = model.image_forward(check_finite(np.asarray(x, dtype=np.float64), "const"))
    text = model.text_forward()
    s = image.z @ text.t.T
    value, vjp = _tam(s, None, _check_labels(y, s.shape[1], s.shape[0]), model.tau)
    g_s = vjp(1.0)
    grads = image.weights(g_s @ text.t) + text.weights((image.z.T @ g_s).T)
    return float(value), dict(zip(model.parameters(), grads))


def _train(params: Sequence[Tensor], cfg: TrainConfig, stream: int, n: int,
           batch_loss: Callable[[int, int, Array], Tuple[float, Dict[Tensor, Array]]]
           ) -> List[float]:
    """The epoch loop both training stages share.

    Each epoch walks ``n`` samples in batches of a permutation drawn from
    ``SeedSequence((cfg.seed, stream))`` and takes one SGD-momentum step on
    ``params`` per batch. ``batch_loss(epoch, batch, idx)`` returns the
    batch's loss value and the gradient of each of ``params``, keyed by the
    parameter. Returns the per-epoch mean losses.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, stream)))
    opt = _Momentum(params, cfg.learning_rate, cfg.momentum)
    trace = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[lo:lo + cfg.batch_size]
            value, grads = batch_loss(epoch, bi, idx)
            opt.step(grads)
            total += value * len(idx)
        trace.append(total / n)
    return trace


def _training_samples(train_data: Dataset) -> int:
    """The sample count of ``train_data``; a per-epoch mean over none is undefined."""
    if train_data.num_samples == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    return train_data.num_samples


def pretrain_clean(model: DualEncoder, train_data: Dataset,
                   cfg: TrainConfig) -> Tuple[DualEncoder, List[float]]:
    """Clean contrastive pretraining of both encoders, on ``contrastive_ce``'s
    closed form: no step builds a tape node. This is the model that then
    gets frozen via snapshot_teacher. Returns (model, per-epoch losses)."""
    images, labels = train_data.images, train_data.labels
    return model, _train(model.parameters(), cfg, 0x9E, _training_samples(train_data),
                         lambda epoch, bi, idx: contrastive_ce(model, pixels(images[idx]),
                                                               labels[idx]))


def resolve_variant(variant: str, w: LossWeights, freeze_text: bool,
                    attack: AttackConfig) -> Tuple[LossWeights, bool, AttackConfig]:
    """Map an ablation variant onto (loss weights, freeze_text, attack)."""
    if variant == "tima":
        return w, freeze_text, attack
    if variant == "tecoa":
        w = dataclasses.replace(w, m=0.0, lam=0.0, lam_v=0.0)
        return w, True, dataclasses.replace(attack, text_source="teacher")
    if variant == "iat_only":
        return dataclasses.replace(w, m=0.0, lam_v=0.0), freeze_text, attack
    if variant == "tai_only":
        return dataclasses.replace(w, lam=0.0), True, attack
    if variant == "mhe_only":
        return dataclasses.replace(w, m=0.0, lam_t=0.0, lam_v=0.0), freeze_text, attack
    raise InvalidVariant(f"unknown variant {variant!r}; expected one of {VARIANTS}")


# the variants that train the TAM margin (m, eta), the grid `tima sweep` traces
MARGIN_VARIANTS = tuple(v for v in VARIANTS
                        if resolve_variant(v, LossWeights(), False, AttackConfig())[0].m > 0.0)


def finetune(model: DualEncoder, teacher: TeacherSnapshot, train_data: Dataset,
             cfg: TrainConfig) -> Tuple[DualEncoder, List[float]]:
    """Adversarial fine-tuning against a frozen teacher.

    Per batch: attack the current student inside the training epsilon-ball,
    take the combined loss with ``cfg.loss_weights`` and its gradients from
    ``tima_loss``'s closed form (no step builds a tape node), update with SGD
    momentum. Returns (model, per-epoch mean losses).
    """
    n = _training_samples(train_data)
    w, attack = cfg.loss_weights, cfg.train_attack
    params = model.image_parameters()
    if not cfg.freeze_text:
        params = params + model.text_parameters()
    # the teacher is frozen: its rows for each sample are fixed for the run
    targets = teacher_targets(teacher, train_data.images, train_data.labels, w)
    # the student's class text, encoded once per batch when the attack or
    # the text branch of the loss needs it
    own_text = attack.text_source == "student" or w.lam > 0.0
    # The last adversarial batch stays referenced until the next attack
    # returns: freed with the rest of its step, a step's ~1 MB of pixel arrays
    # can pass glibc's heap trim threshold, and each step then re-faults it
    # (a default ``run_grid``: 688k page faults without this, 41k with it).
    held = []

    def batch_loss(epoch: int, bi: int, idx: Array) -> Tuple[float, Dict[Tensor, Array]]:
        xb = pixels(train_data.images[idx])  # the attack's and the loss's clean batch
        yb = train_data.labels[idx]
        student_text = model.text_forward() if own_text else None
        text = attack_text(model, teacher, attack, student_text.t if own_text else None)
        # the seed places only the random restarts: without any it is never read
        batch_attack = (dataclasses.replace(attack, seed=attack.seed + 1000003 * epoch + bi)
                        if attack.restarts else attack)
        x_adv = pgd_attack(model, text, xb, yb, batch_attack)
        held[:] = [x_adv]
        return tima_loss(model, teacher, xb, x_adv, yb, w,
                         targets=targets.take(idx), student_text=student_text)[:2]

    return model, _train(params, cfg, 0xF7, n, batch_loss)


@dataclass
class GridCell:
    cfg: object
    train: Dataset
    test: Dataset
    pretrained: DualEncoder
    pre_trace: List[float]
    teacher: TeacherSnapshot
    students: Dict[str, DualEncoder]


def run_grid(cfg, variants: Sequence[str]) -> GridCell:
    """One experiment cell: data, clean pretraining, the frozen teacher, and
    one fine-tuned student per variant.

    ``cfg`` is a ``tima.config.RunConfig`` (not imported here: config
    imports this module); everything comes from its builders and seed.
    """
    train, test = generate_synthetic(cfg.synthetic_spec())
    pretrained = init_model(cfg.encoder_config(), tau=cfg["tau"])
    pretrained, pre_trace = pretrain_clean(pretrained, train, cfg.pretrain_config())
    teacher = snapshot_teacher(pretrained)
    students = {v: finetune(pretrained.clone(), teacher, train, cfg.finetune_config(variant=v))[0]
                for v in variants}
    return GridCell(cfg, train, test, pretrained, pre_trace, teacher, students)


# -- independent cells in forked workers -------------------------------------------

# true while this process runs a cell: a cell's own ``run_cells`` runs in-process
_in_cell = False

# where BLAS libraries read their per-process thread count from
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cell_workers(count: int) -> int:
    """Processes that run ``count`` cells, the caller included: the CPUs
    this process may use, divided by the threads each process's BLAS runs
    (all of those CPUs unless ``BLAS_THREAD_VARS`` say fewer), and at most
    one per cell."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    pinned = [int(v) for v in map(os.environ.get, BLAS_THREAD_VARS)
              if v and v.isdigit() and int(v) > 0]
    return min(count, max(1, cpus // (max(pinned) if pinned else cpus)))


def _claim(counter, count: int, cancel: bool = False) -> int:
    """The index of the next unclaimed of ``count`` cells, taken from the
    shared ``counter`` file (``count`` once none is left); with ``cancel``,
    every cell left is claimed and none will run. The lock is a POSIX
    record lock, which the kernel drops when its holder dies, so a killed
    process cannot stall the others."""
    import fcntl

    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        index = int.from_bytes(os.pread(counter.fileno(), 8, 0), "little")
        claimed = count if cancel else min(index + 1, count)
        os.pwrite(counter.fileno(), claimed.to_bytes(8, "little"), 0)
        return index
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)


def _run_claimed(fn: Callable, items: List, counter, stop=lambda: False) -> Dict[int, tuple]:
    """``run_cells``' one loop, in the caller and each child: run claimed cells
    until none is left, one raises an ``Exception`` or ``stop()`` is true, then
    claim every cell left. Returns ``{index: (ok, result or exception)}``."""
    global _in_cell
    _in_cell, done = True, {}
    try:
        for index in iter(lambda: _claim(counter, len(items)), len(items)):
            try:
                done[index] = (True, fn(items[index]))
            except Exception as exc:  # run_cells re-raises it
                done[index] = (False, exc)
            if not done[index][0] or stop():
                _claim(counter, len(items), cancel=True)
                break
    finally:
        _in_cell = False
    return done


def run_cells(fn: Callable, items: Sequence) -> List:
    """``[fn(item) for item in items]``, spread over the caller and forked
    child processes.

    ``_cell_workers`` sets the process count; the caller forks one child
    fewer. It and each child run one loop, ``_run_claimed``, which claims the
    next cell until none is left, so a slow cell holds up only its own
    process. With one process, without Linux ``fork``, or inside a cell, the
    cells run in-process. ``fn`` reaches the children by fork inheritance;
    each child pickles its loop's map to a pipe, and the caller merges those
    maps into its own. Cells must be independent, print nothing and write no
    files: the caller reports their results.

    A cell's exception (a ``TimaError`` keeps its class and message; a result
    a child cannot pickle raises the pickling error) stops further claims and
    re-raises here once the running cells end; of several, the lowest index
    wins. A child that dies, or whose cell raises a ``BaseException`` that is
    not an ``Exception``, raises ``WorkerDied``: the caller checks its children
    between its own cells. Every child is reaped, and killed first if the
    caller itself is interrupted, before this returns or raises.
    """
    items = list(items)
    workers = _cell_workers(len(items))
    if workers <= 1 or _in_cell or not sys.platform.startswith("linux"):
        return [fn(item) for item in items]
    import signal  # not at module level: its import costs a CLI start about 1 ms

    pids: List[int] = []
    pipes = []  # the read ends of the children's pipes
    exits: Dict[int, int] = {}  # reaped child pid -> exit code

    def reap(flags: int) -> bool:
        for pid in pids:
            if pid not in exits:
                done, status = os.waitpid(pid, flags)
                if done:
                    exits[pid] = os.waitstatus_to_exitcode(status)
        return any(exits.values())

    with tempfile.TemporaryFile() as counter:
        try:
            for _ in range(workers - 1):
                read_end, write_end = os.pipe()
                pipes.append(os.fdopen(read_end, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:  # a child leaves by os._exit, past the caller's cleanup
                        try:
                            for pipe in pipes:
                                pipe.close()
                            done = _run_claimed(fn, items, counter)
                            with os.fdopen(write_end, "wb") as out:
                                try:
                                    out.write(pickle.dumps(done))
                                except Exception as exc:  # a result that cannot be pickled
                                    out.write(pickle.dumps({min(done): (False, exc)}))
                            os._exit(0)
                        finally:
                            os._exit(1)
                finally:
                    os.close(write_end)
                pids.append(pid)
            done = _run_claimed(fn, items, counter, lambda: reap(os.WNOHANG))
            payloads = [pipe.read() for pipe in pipes]
            reap(0)
        finally:
            for pid in pids:
                if pid not in exits:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            for pipe in pipes:
                pipe.close()
    dead = [code for code in exits.values() if code]
    if dead:
        how = f"signal {signal.Signals(-dead[0]).name}" if dead[0] < 0 else f"exit code {dead[0]}"
        raise WorkerDied(f"a cell worker process died ({how})")
    for payload in payloads:
        done.update(pickle.loads(payload))
    failed = [index for index, (ok, _) in done.items() if not ok]
    if failed:
        raise done[min(failed)][1]
    return [done[index][1] for index in range(len(items))]


def _superclass_counts(preds: Array, test_data: Dataset) -> List[List[int]]:
    supers = test_data.superclass_of
    s = int(supers.max()) + 1
    counts = np.zeros((s, s), dtype=np.int64)
    np.add.at(counts, (supers[test_data.labels], supers[preds]), 1)
    return counts.tolist()


def _clean_preds(model: DualEncoder, test_data: Dataset) -> Array:
    """Every test sample's clean prediction against the model's own text.
    The jobs run in-process: on the default test set a clean pass takes
    about 1 ms there and about 6 ms through ``run_cells``'s fork."""
    _check_classes(test_data, {"model": model})
    return scored_passes([(model, model.text_forward().t)], test_data, [])[0][0][0]


def eval_clean(model: DualEncoder, test_data: Dataset) -> float:
    """Fraction classified correctly on clean images (nearest text embedding)."""
    return _accuracy(_clean_preds(model, test_data), test_data.labels)


def interclass_stats(t: Array) -> Tuple[float, float]:
    """(min, mean) Euclidean distance over unordered pairs of embedding rows."""
    t = np.asarray(t, dtype=np.float64)
    c = t.shape[0]
    if c < 2:
        raise TooFewClasses(f"need at least 2 embeddings, got {c}")
    iu = np.triu_indices(c, k=1)
    diffs = t[iu[0]] - t[iu[1]]
    dists = np.sqrt(np.sum(diffs * diffs, axis=1))
    return float(dists.min()), float(dists.mean())


def superclass_confusion(model: DualEncoder, test_data: Dataset) -> List[List[int]]:
    """Counts of (true superclass, predicted superclass) on clean images."""
    return _superclass_counts(_clean_preds(model, test_data), test_data)


# -- similarity-matrix diagnostics ---------------------------------------------


def _class_means(sums: Array, labels: Array) -> Array:
    """Unit-norm per-class means from per-class embedding sums; every class has a sample."""
    counts = np.bincount(labels, minlength=len(sums))
    return normalize_rows_forward(sums / counts[:, None])[0]


def _write_csv(matrix: Array, path: Path) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in matrix]
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"), "matrix")


def _write_pgm(matrix: Array, path: Path) -> None:
    # linear map [-1, 1] -> [0, 255]
    levels = np.clip(np.round((matrix + 1.0) * 127.5), 0, 255).astype(np.uint8)
    h, w = levels.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + levels.tobytes(), "matrix")


def eps_tag(eps_text: str) -> str:
    return eps_text.replace("/", "_")


def export_similarity_matrices(model: DualEncoder, teacher: TeacherSnapshot,
                               test_data: Dataset, eps_list: Sequence[Tuple[str, float]],
                               out_dir, attack: Optional[AttackConfig] = None
                               ) -> Dict[str, Dict[str, str]]:
    """Write class-level cosine-similarity matrices as CSV + PGM heatmaps:
    the matrices ``evaluate`` writes under ``out_dir``, which it returns."""
    return evaluate(model, teacher, test_data, eps_list, attack, matrices_dir=out_dir).matrices


# -- reports --------------------------------------------------------------------


@dataclass
class EvalReport:
    """What ``write_report`` writes: its fields are the report's keys."""

    config: Dict[str, str]
    seed: int
    clean_accuracy: float
    robust_accuracy: Dict[str, float]            # eps text -> accuracy
    text_min_distance: Dict[str, float]          # student / teacher
    text_mean_distance: Dict[str, float]
    matrices: Dict[str, Dict[str, str]]
    superclass_confusion: List[List[int]]


REPORT_KEYS = tuple(f.name for f in dataclasses.fields(EvalReport))


def _number_in(lo: float, hi: float) -> Callable[[object], bool]:
    return lambda v: (_is_int(v) or isinstance(v, float)) and lo <= v <= hi


def _object_of(check: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: isinstance(v, dict) and all(map(check, v.values()))


def _square_counts(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(row, list) and len(row) == len(v) and all(_is_int(c) and c >= 0 for c in row)
        for row in v)


def _string(v) -> bool:
    return isinstance(v, str)


# what ``read_report`` accepts as the JSON value of each EvalReport field
_REPORT_CHECKS: Dict[str, Callable[[object], bool]] = {
    "config": _object_of(_string),
    "seed": lambda v: _is_int(v) and 0 <= v < _SEED_LIMIT,
    "clean_accuracy": _number_in(0.0, 1.0),
    "robust_accuracy": _object_of(_number_in(0.0, 1.0)),
    "text_min_distance": _object_of(_number_in(0.0, sys.float_info.max)),
    "text_mean_distance": _object_of(_number_in(0.0, sys.float_info.max)),
    "matrices": _object_of(_object_of(_string)),
    "superclass_confusion": _square_counts,
}


def evaluate(model: DualEncoder, teacher: TeacherSnapshot, test_data: Dataset,
             eps_list: Sequence[Tuple[str, float]], attack: Optional[AttackConfig] = None,
             matrices_dir=None, config_echo: Optional[Dict[str, str]] = None,
             seed: int = 0) -> EvalReport:
    """Full evaluation pass; eps_list entries are (display text, value).

    The student is scored against the one text ``attack.text_source``
    names: encoded clean once (its accuracy, superclass confusion and clean
    class means) and attacked once per nonzero epsilon (its robust accuracy
    and adversarial similarity matrix); epsilon 0 is the clean pass itself.
    A test set whose class count differs from either model's is rejected
    before any pass runs.

    With ``matrices_dir`` the teacher's passes, against its own text, join
    the student's, and class-level cosine-similarity matrices are written
    there as CSV + PGM heatmaps: for both models, text-text, clean
    image-text (per-class mean image embedding vs class text), and one
    adversarial image-image matrix per epsilon. Every class then needs a
    test sample. ``matrices`` is a manifest of relative file paths keyed by
    matrix name. Every pass runs as ``run_cells`` jobs.
    """
    attack = attack or AttackConfig()
    _check_classes(test_data, {"student model": model, "teacher model": teacher.model})
    if matrices_dir is not None:
        missing = np.flatnonzero(np.bincount(test_data.labels,
                                             minlength=test_data.num_classes) == 0)
        if len(missing):
            raise EmptyDataset(f"the test set has no sample of classes {missing.tolist()}; "
                               f"every class needs one for the similarity matrices")
    student_text = model.text_forward().t
    models = [(model, attack_text(model, teacher, attack, student_text))]
    if matrices_dir is not None:
        models.append((teacher.model, teacher.t_hat))
    attacks = {eps_text: dataclasses.replace(attack, eps=eps) for eps_text, eps in eps_list}
    grid = list(dict.fromkeys(attacks.values()))
    passes = []  # per model: the clean pass and one pass per epsilon text
    for clean_pass, *adv in scored_passes(models, test_data, grid, run_cells):
        by_cfg = dict(zip(grid, adv))
        passes.append((clean_pass, {eps_text: by_cfg[cfg] for eps_text, cfg in attacks.items()}))
    (clean_preds, _), student_adv = passes[0]
    labels = test_data.labels
    clean = _accuracy(clean_preds, labels)
    robust = {eps_text: _accuracy(preds, labels) for eps_text, (preds, _) in student_adv.items()}
    s_min, s_mean = interclass_stats(student_text)
    t_min, t_mean = interclass_stats(teacher.t_hat)
    matrices: Dict[str, Dict[str, str]] = {}
    if matrices_dir is not None:
        out_dir = make_dir(matrices_dir)

        def emit(name: str, matrix: Array) -> None:
            _write_csv(matrix, out_dir / f"{name}.csv")
            _write_pgm(matrix, out_dir / f"{name}.pgm")
            matrices[name] = {"csv": f"{name}.csv", "pgm": f"{name}.pgm"}

        for who, text, ((_, clean_sums), adv) in zip(("student", "teacher"),
                                                      (student_text, teacher.t_hat), passes):
            emit(f"{who}_text_text", text @ text.T)
            emit(f"{who}_image_text", _class_means(clean_sums, labels) @ text.T)
            for eps_text, _ in eps_list:
                means = _class_means(adv[eps_text][1], labels)
                emit(f"{who}_adv_adv_eps_{eps_tag(eps_text)}", means @ means.T)
    return EvalReport(
        clean_accuracy=clean,
        robust_accuracy=robust,
        text_min_distance={"student": s_min, "teacher": t_min},
        text_mean_distance={"student": s_mean, "teacher": t_mean},
        superclass_confusion=_superclass_counts(clean_preds, test_data),
        matrices=matrices,
        config=dict(config_echo or {}),
        seed=seed,
    )


def write_report(report: EvalReport, path) -> None:
    """Serialize to JSON; identical reports produce byte-identical files."""
    text = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("ascii"), "report")


def read_report(path) -> dict:
    """Parse a report file: a UTF-8 JSON object holding every report key,
    each with a value ``_REPORT_CHECKS`` accepts."""
    try:
        payload = json.loads(read_file(path, "report").decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ReportSchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ReportSchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReportSchemaError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    missing = [k for k in REPORT_KEYS if k not in payload]
    if missing:
        raise ReportSchemaError(f"{path}: missing required keys {missing}")
    for key in REPORT_KEYS:
        if not _REPORT_CHECKS[key](payload[key]):
            raise ReportSchemaError(f"{path}: invalid value for key {key!r}")
    return payload
