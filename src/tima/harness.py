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
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attacks import AttackConfig, attack_pass, attack_text, pgd_attack
from .data import Dataset, generate_synthetic
from .errors import (
    EmptyDataset,
    InvalidConfig,
    InvalidVariant,
    IoFailure,
    ReportSchemaError,
    TooFewClasses,
    WorkerDied,
)
from .files import write_atomic
from .losses import LossWeights, cosine_sim_matrix, teacher_targets, tima_loss
from .model import DualEncoder, TeacherSnapshot, init_model, snapshot_teacher
from .tensor import Tensor, backward, l2_normalize_rows, row_log_softmax

Array = np.ndarray

VARIANTS = ("tima", "tecoa", "iat_only", "tai_only", "mhe_only")

# the headline experiment: the seeds and variants `tima trend` and the
# acceptance suite train
TREND_SEEDS = (0, 1, 2)
TREND_VARIANTS = ("tecoa", "tima")

REPORT_KEYS = ("config", "seed", "clean_accuracy", "robust_accuracy",
               "text_min_distance", "text_mean_distance", "matrices",
               "superclass_confusion")


def _default_train_attack() -> AttackConfig:
    return AttackConfig(eps=1 / 255, step_size=1 / 255, steps=2, restarts=0)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 128
    variant: str = "tima"
    freeze_text: bool = False
    loss_weights: LossWeights = field(default_factory=LossWeights)
    train_attack: AttackConfig = field(default_factory=_default_train_attack)
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise InvalidConfig(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")


class _Momentum:
    """Plain SGD with momentum: v <- mu v + g; w <- w - lr v."""

    def __init__(self, params: Sequence[Tensor], lr: float, mu: float):
        self.params = list(params)
        self.lr = lr
        self.mu = mu
        self.velocity = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, grads: Dict[Tensor, Array]) -> None:
        for p in self.params:
            v = self.mu * self.velocity[id(p)] + grads[p]
            self.velocity[id(p)] = v
            p.data -= self.lr * v


def _batches(n: int, batch_size: int, rng) -> List[Array]:
    perm = rng.permutation(n)
    return [perm[lo:lo + batch_size] for lo in range(0, n, batch_size)]


def contrastive_ce(model: DualEncoder, x: Array, y: Array) -> Tensor:
    """Clean contrastive cross-entropy at the model temperature."""
    z = model.encode_images(x)
    t = model.encode_classes()
    log_p = row_log_softmax(cosine_sim_matrix(z, t), model.tau)
    n, c = log_p.shape
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), y] = 1.0
    return (log_p * Tensor(one_hot, op="const")).sum() * (-1.0 / n)


def pretrain_clean(model: DualEncoder, train_data: Dataset,
                   cfg: TrainConfig) -> Tuple[DualEncoder, List[float]]:
    """Clean contrastive pretraining of both encoders; this is the model that
    then gets frozen via snapshot_teacher. Returns (model, per-epoch losses)."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x9E)))
    opt = _Momentum(model.parameters(), cfg.learning_rate, cfg.momentum)
    trace = []
    n = train_data.num_samples
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in _batches(n, cfg.batch_size, rng):
            loss = contrastive_ce(model, train_data.images[idx], train_data.labels[idx])
            opt.step(backward(loss, opt.params))
            total += loss.item() * len(idx)
        trace.append(total / n)
    return model, trace


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


def finetune(model: DualEncoder, teacher: TeacherSnapshot, train_data: Dataset,
             cfg: TrainConfig) -> Tuple[DualEncoder, List[float]]:
    """Adversarial fine-tuning against a frozen teacher.

    Per batch: attack the current student inside the training epsilon-ball,
    evaluate the variant-filtered combined loss, update with SGD momentum.
    Returns (model, per-epoch mean losses).
    """
    w, freeze_text, attack = resolve_variant(cfg.variant, cfg.loss_weights,
                                             cfg.freeze_text, cfg.train_attack)
    params = model.image_parameters()
    if not freeze_text:
        params = params + model.text_parameters()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xF7)))
    opt = _Momentum(params, cfg.learning_rate, cfg.momentum)
    # the teacher is frozen: its rows for each sample are fixed for the run
    targets = teacher_targets(teacher, train_data.images, train_data.labels, w,
                              batch_size=cfg.batch_size)
    # the student's class text, encoded once per batch when the attack or
    # the text branch of the loss needs it
    own_text = attack.text_source == "student" or w.lam > 0.0
    trace = []
    n = train_data.num_samples
    for epoch in range(cfg.epochs):
        total = 0.0
        for bi, idx in enumerate(_batches(n, cfg.batch_size, rng)):
            xb = train_data.images[idx]
            yb = train_data.labels[idx]
            student_text = model.encode_classes() if own_text else None
            text = attack_text(model, teacher, attack, student_text)
            batch_attack = dataclasses.replace(
                attack, seed=attack.seed + 1000003 * epoch + bi)
            x_adv = pgd_attack(model, text, xb, yb, batch_attack)
            loss, _ = tima_loss(model, teacher, xb, x_adv, yb, w,
                                targets=targets.take(idx), student_text=student_text)
            opt.step(backward(loss, opt.params))
            total += loss.item() * len(idx)
        trace.append(total / n)
    return model, trace


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

# set in worker processes only: the function their cells run
_cell_fn: Optional[Callable] = None


def _init_worker(fn: Callable) -> None:
    global _cell_fn
    _cell_fn = fn


def _run_cell(item):
    return _cell_fn(item)


# where BLAS libraries read their per-process thread count from
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cell_workers(count: int) -> int:
    """Worker processes for ``count`` cells: the CPUs this process may use,
    divided by the threads each process's BLAS runs (all of those CPUs
    unless ``BLAS_THREAD_VARS`` say fewer), and at most one per cell."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    pinned = [int(v) for v in map(os.environ.get, BLAS_THREAD_VARS)
              if v and v.isdigit() and int(v) > 0]
    return min(count, max(1, cpus // (max(pinned) if pinned else cpus)))


def run_cells(fn: Callable, items: Sequence) -> List:
    """``[fn(item) for item in items]``, spread over forked worker processes.

    ``_cell_workers`` sets the worker count. With one worker, without Linux
    ``fork``, or inside a cell, the same loop runs in-process. ``fn``
    reaches the workers by fork inheritance; only each item and its result
    are pickled. Cells must be independent, print nothing and write no
    files: the caller reports their results. A ``TimaError`` raised in a
    cell re-raises here; a worker that dies raises ``WorkerDied`` and
    cancels the cells not yet started.
    """
    items = list(items)
    workers = _cell_workers(len(items))
    if workers <= 1 or _cell_fn is not None or not sys.platform.startswith("linux"):
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # a forked worker flushes the stdio buffers it inherits when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    # on the fork context the pool (Python 3.11+) forks every worker before
    # it starts its manager thread, and hands the initializer's arguments
    # to the forked workers unpickled
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(fn,))
    try:
        futures = [pool.submit(_run_cell, item) for item in items]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a cell worker process died: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _clean_pass(model: DualEncoder, test_data: Dataset,
                batch_size: int = 256) -> Tuple[Array, Array]:
    """One clean encoding of the test set, ``batch_size`` rows at a time:
    every sample's prediction (nearest text embedding, as in ``classify``)
    and the per-class sums of the embeddings."""
    text = model.encode_classes().data
    preds = np.zeros(test_data.num_samples, dtype=np.int64)
    sums = np.zeros((test_data.num_classes, model.cfg.embed_dim))
    for lo in range(0, test_data.num_samples, batch_size):
        z = model.encode_images(test_data.images[lo:lo + batch_size]).data
        preds[lo:lo + batch_size] = np.argmax(cosine_sim_matrix(z, text).data, axis=1)
        np.add.at(sums, test_data.labels[lo:lo + batch_size], z)
    return preds, sums


def _accuracy(preds: Array, labels: Array) -> float:
    if len(labels) == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    return int(np.sum(preds == labels)) / len(labels)


def _superclass_counts(preds: Array, test_data: Dataset) -> List[List[int]]:
    supers = test_data.superclass_of
    s = int(supers.max()) + 1
    counts = np.zeros((s, s), dtype=np.int64)
    np.add.at(counts, (supers[test_data.labels], supers[preds]), 1)
    return counts.tolist()


def eval_clean(model: DualEncoder, test_data: Dataset, batch_size: int = 256) -> float:
    """Fraction classified correctly on clean images (nearest text embedding)."""
    return _accuracy(_clean_pass(model, test_data, batch_size)[0], test_data.labels)


def interclass_stats(t) -> Tuple[float, float]:
    """(min, mean) Euclidean distance over unordered pairs of embedding rows."""
    t = np.asarray(getattr(t, "data", t), dtype=np.float64)
    c = t.shape[0]
    if c < 2:
        raise TooFewClasses(f"need at least 2 embeddings, got {c}")
    iu = np.triu_indices(c, k=1)
    diffs = t[iu[0]] - t[iu[1]]
    dists = np.sqrt(np.sum(diffs * diffs, axis=1))
    return float(dists.min()), float(dists.mean())


def superclass_confusion(model: DualEncoder, test_data: Dataset,
                         batch_size: int = 256) -> List[List[int]]:
    """Counts of (true superclass, predicted superclass) on clean images."""
    return _superclass_counts(_clean_pass(model, test_data, batch_size)[0], test_data)


# -- similarity-matrix diagnostics ---------------------------------------------


def _class_means(sums: Array, labels: Array) -> Array:
    """Unit-norm per-class means from per-class embedding sums."""
    counts = np.bincount(labels, minlength=len(sums))
    return l2_normalize_rows(Tensor(sums / np.maximum(counts, 1.0)[:, None], op="const")).data


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
                               out_dir, attack: Optional[AttackConfig] = None,
                               student_adv_sums: Optional[Dict[str, Array]] = None,
                               student_clean_sums: Optional[Array] = None
                               ) -> Dict[str, Dict[str, str]]:
    """Write class-level cosine-similarity matrices as CSV + PGM heatmaps.

    For both the student and the frozen teacher: text-text, clean
    image-text (per-class mean image embedding vs class text), and one
    adversarial image-image matrix per epsilon. The student is attacked
    against the text ``attack.text_source`` names, the teacher against its
    own. ``student_adv_sums`` (eps text -> per-class sums from
    ``attack_pass``) reuses attacks already run on the student, and
    ``student_clean_sums`` its per-class clean embedding sums. Returns a
    manifest of relative file paths keyed by matrix name.
    """
    attack = attack or AttackConfig()
    student_adv_sums = student_adv_sums or {}
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc
    manifest: Dict[str, Dict[str, str]] = {}

    def emit(name: str, matrix: Array) -> None:
        _write_csv(matrix, out_dir / f"{name}.csv")
        _write_pgm(matrix, out_dir / f"{name}.pgm")
        manifest[name] = {"csv": f"{name}.csv", "pgm": f"{name}.pgm"}

    for who, encoder, text, adv_text, clean_sums, given in (
            ("student", model, model.encode_classes().data,
             attack_text(model, teacher, attack), student_clean_sums, student_adv_sums),
            ("teacher", teacher.model, teacher.t_hat, teacher.t_hat, None, {})):
        emit(f"{who}_text_text", text @ text.T)
        if clean_sums is None:
            clean_sums = _clean_pass(encoder, test_data)[1]
        emit(f"{who}_image_text", _class_means(clean_sums, test_data.labels) @ text.T)
        for eps_text, eps in eps_list:
            sums = given.get(eps_text)
            if sums is None:
                _, sums = attack_pass(encoder, adv_text, test_data,
                                      dataclasses.replace(attack, eps=eps))
            adv_means = _class_means(sums, test_data.labels)
            emit(f"{who}_adv_adv_eps_{eps_tag(eps_text)}", adv_means @ adv_means.T)
    return manifest


# -- reports --------------------------------------------------------------------


@dataclass
class EvalReport:
    clean_accuracy: float
    robust_accuracy: Dict[str, float]            # eps text -> accuracy
    text_min_distance: Dict[str, float]          # student / teacher
    text_mean_distance: Dict[str, float]
    superclass_confusion: List[List[int]]
    matrices: Dict[str, Dict[str, str]]
    config: Dict[str, str]
    seed: int


def evaluate(model: DualEncoder, teacher: TeacherSnapshot, test_data: Dataset,
             eps_list: Sequence[Tuple[str, float]], attack: Optional[AttackConfig] = None,
             matrices_dir=None, config_echo: Optional[Dict[str, str]] = None,
             seed: int = 0) -> EvalReport:
    """Full evaluation pass; eps_list entries are (display text, value).

    The student is encoded clean once (its accuracy, superclass confusion
    and clean class means) and attacked once per epsilon (its robust
    accuracy and adversarial similarity matrix).
    """
    attack = attack or AttackConfig()
    preds, clean_sums = _clean_pass(model, test_data)
    clean = _accuracy(preds, test_data.labels)
    text = attack_text(model, teacher, attack)
    robust, adv_sums = {}, {}
    for eps_text, eps in eps_list:
        correct, adv_sums[eps_text] = attack_pass(model, text, test_data,
                                                  dataclasses.replace(attack, eps=eps))
        robust[eps_text] = correct / test_data.num_samples
    s_min, s_mean = interclass_stats(model.encode_classes().data)
    t_min, t_mean = interclass_stats(teacher.t_hat)
    matrices = {}
    if matrices_dir is not None:
        matrices = export_similarity_matrices(model, teacher, test_data, eps_list,
                                              matrices_dir, attack, student_adv_sums=adv_sums,
                                              student_clean_sums=clean_sums)
    return EvalReport(
        clean_accuracy=clean,
        robust_accuracy=robust,
        text_min_distance={"student": s_min, "teacher": t_min},
        text_mean_distance={"student": s_mean, "teacher": t_mean},
        superclass_confusion=_superclass_counts(preds, test_data),
        matrices=matrices,
        config=dict(config_echo or {}),
        seed=seed,
    )


def write_report(report: EvalReport, path) -> None:
    """Serialize to JSON; identical reports produce byte-identical files."""
    payload = {
        "config": report.config,
        "seed": report.seed,
        "clean_accuracy": report.clean_accuracy,
        "robust_accuracy": report.robust_accuracy,
        "text_min_distance": report.text_min_distance,
        "text_mean_distance": report.text_mean_distance,
        "matrices": report.matrices,
        "superclass_confusion": report.superclass_confusion,
    }
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii"),
                 "report")


def read_report(path) -> dict:
    """Parse a report file, checking the documented key set."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read report {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportSchemaError(f"{path}: invalid JSON: {exc}") from exc
    missing = [k for k in REPORT_KEYS if k not in payload]
    if missing:
        raise ReportSchemaError(f"{path}: missing required keys {missing}")
    return payload
