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
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .attacks import (
    SCORE_BATCH,
    AttackConfig,
    _accuracy,
    attack_text,
    join_batches,
    pgd_attack,
    scored_batch,
    scored_pass,
)
from .data import Dataset, generate_synthetic
from .errors import (
    EmptyDataset,
    InvalidConfig,
    InvalidVariant,
    ReportSchemaError,
    ShapeMismatch,
    TooFewClasses,
    WorkerDied,
)
from .files import make_dir, read_file, write_atomic
from .losses import LossWeights, _check_labels, _tam, teacher_targets, tima_loss
from .model import DualEncoder, TeacherSnapshot, init_model, snapshot_teacher
from .tensor import Tensor, backward, normalize_rows_forward, once_per_gradient

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


def contrastive_ce(model: DualEncoder, x: Array, y: Array) -> Tensor:
    """Clean contrastive cross-entropy at the model temperature, as one tape
    node over the image-embedding node and the class-text node."""
    z = model.encode_images(x)
    t = model.encode_classes()
    s = z.data @ t.data.T
    value, vjp = _tam(s, None, _check_labels(y, s.shape[1], s.shape[0]), model.tau)
    g_s = once_per_gradient(vjp)
    return Tensor(value, (z, t), "contrastive_ce",
                  lambda g, i: g_s(g) @ t.data if i == 0 else (z.data.T @ g_s(g)).T)


def _train(params: Sequence[Tensor], cfg: TrainConfig, stream: int, n: int,
           batch_loss: Callable[[int, int, Array], Tensor]) -> List[float]:
    """The epoch loop both training stages share.

    Each epoch walks ``n`` samples in batches of a permutation drawn from
    ``SeedSequence((cfg.seed, stream))`` and takes one SGD-momentum step on
    ``params`` per batch, against ``batch_loss(epoch, batch, idx)``.
    Returns the per-epoch mean losses.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, stream)))
    opt = _Momentum(params, cfg.learning_rate, cfg.momentum)
    trace = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[lo:lo + cfg.batch_size]
            loss = batch_loss(epoch, bi, idx)
            opt.step(backward(loss, opt.params))
            total += loss.item() * len(idx)
        trace.append(total / n)
    return trace


def _training_samples(train_data: Dataset) -> int:
    """The sample count of ``train_data``; a per-epoch mean over none is undefined."""
    if train_data.num_samples == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    return train_data.num_samples


def pretrain_clean(model: DualEncoder, train_data: Dataset,
                   cfg: TrainConfig) -> Tuple[DualEncoder, List[float]]:
    """Clean contrastive pretraining of both encoders; this is the model that
    then gets frozen via snapshot_teacher. Returns (model, per-epoch losses)."""
    images, labels = train_data.images, train_data.labels
    return model, _train(model.parameters(), cfg, 0x9E, _training_samples(train_data),
                         lambda epoch, bi, idx: contrastive_ce(model, images[idx], labels[idx]))


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
    evaluate the combined loss with ``cfg.loss_weights``, update with SGD
    momentum. Returns (model, per-epoch mean losses).
    """
    n = _training_samples(train_data)
    w, attack = cfg.loss_weights, cfg.train_attack
    params = model.image_parameters()
    if not cfg.freeze_text:
        params = params + model.text_parameters()
    # the teacher is frozen: its rows for each sample are fixed for the run
    targets = teacher_targets(teacher, train_data.images, train_data.labels, w,
                              batch_size=cfg.batch_size)
    # the student's class text, encoded once per batch when the attack or
    # the text branch of the loss needs it
    own_text = attack.text_source == "student" or w.lam > 0.0

    def batch_loss(epoch: int, bi: int, idx: Array) -> Tensor:
        xb = train_data.images[idx]
        yb = train_data.labels[idx]
        student_text = model.encode_classes() if own_text else None
        text = attack_text(model, teacher, attack, student_text)
        batch_attack = dataclasses.replace(attack, seed=attack.seed + 1000003 * epoch + bi)
        x_adv = pgd_attack(model, text, xb, yb, batch_attack)
        return tima_loss(model, teacher, xb, x_adv, yb, w,
                         targets=targets.take(idx), student_text=student_text)[0]

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


def _superclass_counts(preds: Array, test_data: Dataset) -> List[List[int]]:
    supers = test_data.superclass_of
    s = int(supers.max()) + 1
    counts = np.zeros((s, s), dtype=np.int64)
    np.add.at(counts, (supers[test_data.labels], supers[preds]), 1)
    return counts.tolist()


def eval_clean(model: DualEncoder, test_data: Dataset) -> float:
    """Fraction classified correctly on clean images (nearest text embedding)."""
    return _accuracy(scored_pass(model, model.encode_classes().data, test_data)[0],
                     test_data.labels)


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


def superclass_confusion(model: DualEncoder, test_data: Dataset) -> List[List[int]]:
    """Counts of (true superclass, predicted superclass) on clean images."""
    return _superclass_counts(scored_pass(model, model.encode_classes().data, test_data)[0],
                              test_data)


# -- similarity-matrix diagnostics ---------------------------------------------


def _class_means(sums: Array, labels: Array) -> Array:
    """Unit-norm per-class means from per-class embedding sums."""
    counts = np.bincount(labels, minlength=len(sums))
    return normalize_rows_forward(sums / np.maximum(counts, 1.0)[:, None])[0]


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


class _ModelPass(NamedTuple):
    """One model over the test set: the ``(preds, sums)`` of ``join_batches``
    on the clean images, and per epsilon text on the attacked ones."""

    clean: Tuple[Array, Array]
    adv: Dict[str, Tuple[Array, Array]]


def _model_passes(models: Sequence[Tuple[DualEncoder, Array]], test_data: Dataset,
                  attacks: Dict[str, AttackConfig]) -> List[_ModelPass]:
    """Every scoring pass of ``models``, run as the cells of one ``run_cells``:
    one cell per (model, ``SCORE_BATCH``-row batch).

    Each model is ``(encoder, text)``; ``attacks`` maps each epsilon text to
    its attack. A cell scores its batch with one ``scored_batch`` call: clean
    against the model's own class text, and under every distinct attack of
    ``attacks`` against ``text``, seeded ``attack.seed + offset``. The cells
    run in model order, then batch order, and each pass joins its batches in
    dataset order.
    """
    own = [encoder.encode_classes().data for encoder, _ in models]
    grid = list(dict.fromkeys(attacks.values()))
    offsets = range(0, test_data.num_samples, SCORE_BATCH)
    jobs = [(i, lo) for i in range(len(models)) for lo in offsets]

    def run(job):
        i, lo = job
        encoder, text = models[i]
        cfgs = [dataclasses.replace(cfg, seed=cfg.seed + lo) for cfg in grid]
        return scored_batch(encoder, text, test_data.images[lo:lo + SCORE_BATCH],
                            test_data.labels[lo:lo + SCORE_BATCH], cfgs, own[i])

    cells = iter(run_cells(run, jobs))
    passes = []
    for encoder, _ in models:
        batches = [next(cells) for _ in offsets]
        clean, *adv = (join_batches([batch[k] for batch in batches], test_data,
                                    encoder.cfg.embed_dim) for k in range(1 + len(grid)))
        by_cfg = dict(zip(grid, adv))
        passes.append(_ModelPass(clean, {t: by_cfg[cfg] for t, cfg in attacks.items()}))
    return passes


def _check_test_set(test_data: Dataset, encoders: Dict[str, DualEncoder],
                    every_class: bool) -> None:
    """Reject, before any pass runs, a test set whose class count differs
    from an encoder's, or, when ``every_class``, with a class no sample has."""
    for who, encoder in encoders.items():
        if encoder.cfg.num_classes != test_data.num_classes:
            raise ShapeMismatch(f"the test set has {test_data.num_classes} classes, "
                                f"the {who} model {encoder.cfg.num_classes}")
    if every_class:
        missing = np.flatnonzero(np.bincount(test_data.labels,
                                             minlength=test_data.num_classes) == 0)
        if len(missing):
            raise EmptyDataset(f"the test set has no sample of classes {missing.tolist()}; "
                               f"every class needs one for the similarity matrices")


def _eval_passes(model: DualEncoder, teacher: TeacherSnapshot, test_data: Dataset,
                 eps_list: Sequence[Tuple[str, float]], attack: AttackConfig,
                 matrices: bool) -> List[_ModelPass]:
    """The student's passes, against the text ``attack.text_source`` names,
    then, with ``matrices``, the teacher's, against its own text."""
    _check_test_set(test_data, {"student": model, "teacher": teacher.model}, matrices)
    models = [(model, attack_text(model, teacher, attack))]
    if matrices:
        models.append((teacher.model, teacher.t_hat))
    attacks = {eps_text: dataclasses.replace(attack, eps=eps) for eps_text, eps in eps_list}
    return _model_passes(models, test_data, attacks)


def _write_matrices(out_dir, model: DualEncoder, teacher: TeacherSnapshot, student: _ModelPass,
                    teacher_pass: _ModelPass, test_data: Dataset,
                    eps_list: Sequence[Tuple[str, float]]) -> Dict[str, Dict[str, str]]:
    """The matrices of ``export_similarity_matrices``, from the student's pass
    ``student`` and the teacher's pass ``teacher_pass``."""
    out_dir = make_dir(out_dir)
    manifest: Dict[str, Dict[str, str]] = {}

    def emit(name: str, matrix: Array) -> None:
        _write_csv(matrix, out_dir / f"{name}.csv")
        _write_pgm(matrix, out_dir / f"{name}.pgm")
        manifest[name] = {"csv": f"{name}.csv", "pgm": f"{name}.pgm"}

    for who, text, run in (("student", model.encode_classes().data, student),
                           ("teacher", teacher.t_hat, teacher_pass)):
        emit(f"{who}_text_text", text @ text.T)
        emit(f"{who}_image_text", _class_means(run.clean[1], test_data.labels) @ text.T)
        for eps_text, _ in eps_list:
            adv_means = _class_means(run.adv[eps_text][1], test_data.labels)
            emit(f"{who}_adv_adv_eps_{eps_tag(eps_text)}", adv_means @ adv_means.T)
    return manifest


def export_similarity_matrices(model: DualEncoder, teacher: TeacherSnapshot,
                               test_data: Dataset, eps_list: Sequence[Tuple[str, float]],
                               out_dir, attack: Optional[AttackConfig] = None
                               ) -> Dict[str, Dict[str, str]]:
    """Write class-level cosine-similarity matrices as CSV + PGM heatmaps.

    For both the student and the frozen teacher: text-text, clean
    image-text (per-class mean image embedding vs class text), and one
    adversarial image-image matrix per epsilon. The student is attacked
    against the text ``attack.text_source`` names, the teacher against its
    own. Returns a manifest of relative file paths keyed by matrix name.
    """
    attack = attack or AttackConfig()
    student, teacher_pass = _eval_passes(model, teacher, test_data, eps_list, attack, True)
    return _write_matrices(out_dir, model, teacher, student, teacher_pass, test_data, eps_list)


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


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number_in(lo: float, hi: float) -> Callable[[object], bool]:
    return lambda v: (_integer(v) or isinstance(v, float)) and lo <= v <= hi


def _object_of(check: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda v: isinstance(v, dict) and all(map(check, v.values()))


def _square_counts(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(row, list) and len(row) == len(v) and all(_integer(c) and c >= 0 for c in row)
        for row in v)


def _string(v) -> bool:
    return isinstance(v, str)


# what ``read_report`` accepts as the JSON value of each EvalReport field
_REPORT_CHECKS: Dict[str, Callable[[object], bool]] = {
    "config": _object_of(_string),
    "seed": _integer,
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

    The student is encoded clean once (its accuracy, superclass confusion
    and clean class means) and attacked once per nonzero epsilon (its robust
    accuracy and adversarial similarity matrix); ``scored_batch`` serves
    epsilon 0 from the clean embeddings. With ``matrices_dir`` the teacher's
    passes join the student's, and all of them run as independent cells
    (``run_cells``).
    """
    attack = attack or AttackConfig()
    passes = _eval_passes(model, teacher, test_data, eps_list, attack, matrices_dir is not None)
    student = passes[0]
    clean = _accuracy(student.clean[0], test_data.labels)
    robust = {eps_text: _accuracy(preds, test_data.labels)
              for eps_text, (preds, _) in student.adv.items()}
    s_min, s_mean = interclass_stats(model.encode_classes().data)
    t_min, t_mean = interclass_stats(teacher.t_hat)
    matrices = {}
    if matrices_dir is not None:
        matrices = _write_matrices(matrices_dir, model, teacher, student, passes[1], test_data,
                                   eps_list)
    return EvalReport(
        clean_accuracy=clean,
        robust_accuracy=robust,
        text_min_distance={"student": s_min, "teacher": t_min},
        text_mean_distance={"student": s_mean, "teacher": t_mean},
        superclass_confusion=_superclass_counts(student.clean[0], test_data),
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
