"""l-infinity PGD adversarial example generation and robust evaluation.

The same routine serves the cheap 2-step training attack and the 10-step
(optionally multi-restart) evaluation attack: iterated signed-gradient ascent
on the contrastive cross-entropy, projected into the epsilon-ball around the
clean input and into the valid pixel range.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .data import pixels
from .errors import AttackOutOfBounds, EmptyDataset, InvalidConfig, ShapeMismatch, _is_int
from .losses import _check_labels, _checked_text, _log_softmax
from .tensor import check_finite

Array = np.ndarray

TEXT_SOURCES = ("student", "teacher")


@dataclass(frozen=True)
class AttackConfig:
    """Defaults follow the evaluation protocol: 10 steps of size 1/255.

    ``restarts`` counts the extra random starts; 0 means a single run from
    the clean input. ``text_source`` picks whose class-text embeddings
    parameterize the attacked objective (and classification downstream).
    """

    eps: float = 1 / 255
    step_size: float = 1 / 255
    steps: int = 10
    restarts: int = 0
    seed: int = 0
    text_source: str = "student"

    def __post_init__(self):
        if not 0 <= self.eps < math.inf:
            raise InvalidConfig(f"eps must be finite and >= 0, got {self.eps}")
        if not all(_is_int(n) and n >= 0 for n in (self.steps, self.restarts, self.seed)):
            raise InvalidConfig("steps, restarts and seed must be integers >= 0")
        if self.steps > 0 and not 0 < self.step_size < math.inf:
            raise InvalidConfig(f"step_size must be finite and positive, got {self.step_size}")
        if self.text_source not in TEXT_SOURCES:
            raise InvalidConfig(f"text_source must be one of {TEXT_SOURCES}")


def _log_probs(z: Array, text: Array, tau: float) -> Array:
    """Row log-softmax of S = z text^T at temperature ``tau``, checked. ``text``
    comes from ``_checked_text``; z rows are unit by construction."""
    return _log_softmax(check_finite(z @ text.T, "matmul"), tau)


def per_sample_ce(encoder, text_matrix: Array, x: Array, y: Array) -> Array:
    """Contrastive cross-entropy of each sample at the encoder's temperature."""
    text = _checked_text(encoder, text_matrix)
    return _ce(encoder, text, x, _check_labels(y, len(text), len(x)))


def _ce(encoder, text: Array, x: Array, y: Array) -> Array:
    """``per_sample_ce`` on text and labels vetted already, without the tape."""
    z = encoder.image_forward(check_finite(np.asarray(x, dtype=np.float64), "const")).z
    log_p = _log_probs(z, text, encoder.tau)
    return -log_p[np.arange(len(y)), y]


def _ce_input_grad(encoder, text: Array, x: Array, y: Array) -> Tuple[Array, Array]:
    """The embeddings of ``x`` and the input gradient of the summed
    cross-entropy -sum_i log p(y_i | x_i) at S = z text^T, in closed form: the
    value ``backward`` gives on the tape, bit for bit. ``text`` comes from
    ``_checked_text``, ``y`` from ``_check_labels``."""
    image = encoder.image_forward(check_finite(np.asarray(x, dtype=np.float64), "leaf"))
    log_p = _log_probs(image.z, text, encoder.tau)
    return image.z, image.pixels(_ce_logit_grad(log_p, y, encoder.tau) @ text)


def _ce_logit_grad(log_p: Array, y: Array, tau: float) -> Array:
    """(exp(log_p) - onehot(y)) / tau: ``log_softmax_backward(-onehot(y), log_p, tau)``
    bit for bit, as each row of -onehot sums to exactly -1.0 (-onehot - p * -1.0)."""
    grad = np.exp(log_p)
    grad[np.arange(len(y)), y] -= 1.0
    return np.divide(grad, tau, out=grad)


def _sign(grad: Array) -> Array:
    """``np.sign(grad, out=grad)`` bit for bit (0.0 for either zero), from two
    vectorized comparisons: numpy's sign loop branches on each element, which
    mispredicts on a fresh gradient (128×256: about 280 µs against 50 µs). A
    sum that is not finite (a NaN or an inf, or an overflow) takes ``np.sign``."""
    with np.errstate(over="ignore", invalid="ignore"):  # np.sign warns of neither
        total = np.add.reduce(grad, None)
    if not math.isfinite(total):
        return np.sign(grad, out=grad)
    sign = (grad > 0.0).view(np.int8)
    np.subtract(sign, (grad < 0.0).view(np.int8), out=sign)
    np.copyto(grad, sign)
    return grad


def _ball(x_center: Array, eps: float) -> Tuple[Array, Array]:
    """The bounds of the l-inf ball of radius ``eps`` around ``x_center``,
    cut to the pixel range [0, 1]."""
    lo, hi = x_center - eps, x_center + eps
    return np.maximum(lo, 0.0, out=lo), np.minimum(hi, 1.0, out=hi)


def _ascend(x: Array, sign: Array, step_size: float, lo: Array, hi: Array) -> Array:
    """One projected signed-gradient step: clip(x + step_size * sign, lo, hi),
    bit for bit, written over ``sign`` and returned, without the cost of
    ``np.clip`` with array bounds."""
    out = np.multiply(sign, step_size, out=sign)
    out += x
    np.maximum(out, lo, out=out)
    np.minimum(out, hi, out=out)
    return out


def _same_bits(a: Array, b: Array) -> bool:
    """Bit-identical float64 arrays: unlike ``==``, -0.0 is not 0.0."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


class _Run:
    """One (config, restart) run of the step loop: its iterate, the iterate
    before it (None before its first step) and the steps it has left."""

    def __init__(self, cfg: AttackConfig, start: Array):
        self.cfg, self.x, self.prev, self.left = cfg, start, None, cfg.steps

    def step(self, nxt: Array) -> None:
        """Move to ``nxt``. From the second step on, while a step is left after
        it, a step that returns its start (a fixed point) or the iterate before
        (a 2-cycle) ends the run with the iterate all its steps would reach.
        Iterates passed the gradient's leaf check, so a NaN never ends a run."""
        self.left -= 1
        if self.prev is not None and self.left and (_same_bits(nxt, self.x)
                                                    or _same_bits(nxt, self.prev)):
            nxt, self.left = (self.x if self.left % 2 else nxt), 0
        self.prev, self.x = self.x, nxt


def _split(runs: Sequence[_Run]) -> List[List[_Run]]:
    """``runs`` grouped by bit-identical iterates, in first-seen order."""
    groups: List[List[_Run]] = []
    for run in runs:
        for group in groups:
            if np.array_equal(group[0].x, run.x):
                group.append(run)
                break
        else:
            groups.append([run])
    return groups


def _advance(encoder, text: Array, center: Array, y: Array,
             runs: Sequence[_Run]) -> Optional[Array]:
    """The one PGD step loop: each of ``runs`` stepped in its eps-ball around
    ``center`` until it ends; returns the embeddings of ``center`` when a run
    steps from that array itself (else None). Runs advance in lockstep, and
    runs with bit-identical iterates form a group that takes one input
    gradient per step. A group splits by its members' new iterates and
    groups never merge, so members share every iterate and a repeat may end
    a run inside its group. ``text`` and ``y`` are vetted already."""
    balls = {}  # the ball of each eps, made once
    clean_z = None
    groups = _split([run for run in runs if run.left])
    while groups:
        stepped = []
        for group in groups:
            z, grad = _ce_input_grad(encoder, text, group[0].x, y)
            if group[0].x is center:
                clean_z = z
            sign = _sign(grad)
            for run in group:
                eps = run.cfg.eps
                if eps not in balls:
                    balls[eps] = _ball(center, eps)
                # the group's last run steps in the sign buffer: nothing reads it after
                run.step(_ascend(run.x, sign if run is group[-1] else sign.copy(),
                                 run.cfg.step_size, *balls[eps]))
            stepped += _split([run for run in group if run.left])
        groups = stepped
    return clean_z


def pgd_steps(encoder, text_matrix: Array, x_center: Array, x_start: Array,
              y: Array, eps: float, step_size: float, steps: int) -> Array:
    """The bare iteration from ``x_start``, one run of the step loop, and
    memoryless in x: k steps and then k' more from the result equal one
    (k+k')-step run. ``eps``, ``step_size`` and ``steps`` are checked as
    ``AttackConfig`` checks them, and every input before any step."""
    run = _Run(AttackConfig(eps=eps, step_size=step_size, steps=steps),
               np.array(x_start, dtype=np.float64))
    text = _checked_text(encoder, text_matrix)
    y = _check_labels(y, len(text), len(run.x))
    if run.x.shape != np.shape(x_center):
        raise ShapeMismatch(f"start of shape {run.x.shape} for a center of shape "
                            f"{np.shape(x_center)}")
    _advance(encoder, text, np.asarray(x_center, dtype=np.float64), y, [run])
    return run.x


class Grid(NamedTuple):
    """``pgd_grid``'s result: the adversarial batch of each config, and the
    clean batch's embeddings when a run stepped from it (else None)."""

    adv: List[Array]
    clean_z: Optional[Array]


def pgd_grid(encoder, text_matrix: Array, x: Array, y: Array,
             cfgs: Sequence[AttackConfig]) -> Grid:
    """``[pgd_attack(encoder, text_matrix, x, y, cfg) for cfg in cfgs]``, bit
    for bit, with every distinct PGD step computed once.

    The text and the labels are vetted once, before any config, ε = 0
    included. Every (config, restart) run goes to one ``_advance`` call. On
    an ε grid with one step size every run without a restart starts at the
    clean batch, so they share their steps until the smallest ball clips
    them apart.
    """
    x = np.asarray(x, dtype=np.float64)
    text = _checked_text(encoder, text_matrix)
    y = _check_labels(y, len(text), len(x))
    runs: List[List[_Run]] = []
    for cfg in cfgs:
        if cfg.eps == 0.0:
            runs.append([])
            continue
        # a run that takes no step returns its start: a copy, never the input
        starts = [x if cfg.steps else x.copy()]
        if cfg.restarts:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xAD)))
            starts += [np.clip(x + rng.uniform(-cfg.eps, cfg.eps, size=x.shape), 0.0, 1.0)
                       for _ in range(cfg.restarts)]
        runs.append([_Run(cfg, start) for start in starts])
    clean_z = _advance(encoder, text, x, y, [run for cfg_runs in runs for run in cfg_runs])
    return Grid([_strongest(encoder, text, x, y, cfg.eps, [run.x for run in cfg_runs])
                 if cfg_runs else x.copy() for cfg, cfg_runs in zip(cfgs, runs)], clean_z)


def _strongest(encoder, text: Array, x: Array, y: Array, eps: float,
               candidates: Sequence[Array]) -> Array:
    """Per sample, the candidate with the highest cross-entropy (the earliest
    on ties; a single candidate is returned unscored), checked to lie in the
    ball of radius ``eps`` around ``x`` and in [0, 1]."""
    best_x = candidates[0]
    if len(candidates) > 1:
        best_ce = _ce(encoder, text, best_x, y)
        for cand in candidates[1:]:
            ce = _ce(encoder, text, cand, y)
            better = ce > best_ce
            best_x = np.where(better[:, None], cand, best_x)
            best_ce = np.where(better, ce, best_ce)
    # maximum and minimum carry a NaN through, so it fails each comparison as
    # it would elementwise; ``initial`` lets them reduce an empty batch
    dist = best_x - x
    if not np.maximum.reduce(np.abs(dist, out=dist), None, initial=0.0) <= eps + 1e-9:
        raise AttackOutOfBounds(f"attack result left the eps={eps} ball")
    if not (np.minimum.reduce(best_x, None, initial=math.inf) >= 0.0
            and np.maximum.reduce(best_x, None, initial=-math.inf) <= 1.0):
        raise AttackOutOfBounds("attack result left the pixel range [0, 1]")
    return best_x


def pgd_attack(encoder, text_matrix: Array, x: Array, y: Array,
               cfg: AttackConfig) -> Array:
    """Strongest-of-restarts PGD within the l-inf ball of radius cfg.eps: the
    one-config case of ``pgd_grid``.

    Run 0 starts at the clean input; later runs start at seeded uniform
    points of the ball. Per sample, the candidate with the highest final
    cross-entropy wins (earliest run on ties, for determinism). With no
    restarts the single candidate is returned without scoring it.

    Raises AttackOutOfBounds if the result leaves the ball or [0, 1].
    """
    return pgd_grid(encoder, text_matrix, x, y, [cfg]).adv[0]


def attack_text(model, teacher, cfg: AttackConfig, student_text: Optional[Array] = None) -> Array:
    """The class-text embeddings ``cfg.text_source`` names: the student's own
    (``student_text``, this model's class-text array, when the caller
    already has it), or the frozen teacher's."""
    if cfg.text_source != "student":
        return teacher.t_hat
    return model.text_forward().t if student_text is None else student_text


# rows per job of ``scored_passes``; each attacked batch is seeded
# ``cfg.seed + offset``, so this size is part of every robust number
SCORE_BATCH = 128


def scored_batch(encoder, text_matrix: Array, x: Array, y: Array,
                 cfgs: Sequence[AttackConfig]) -> List[Tuple[Array, Array]]:
    """One batch scored clean and under every config of ``cfgs``, whose
    attacks run as one ``pgd_grid`` call, all against ``text_matrix``.

    Returns ``(predictions, embeddings)`` pairs: the clean batch's first,
    then one per config; an ε = 0 config, whose attack returns the clean
    batch, gets the clean pair itself. A prediction is the nearest text row
    (``np.argmax`` breaks ties toward the lowest index). The clean images
    are encoded once, by the grid's shared first step when it takes one.
    """
    grid = pgd_grid(encoder, text_matrix, x, y, cfgs)
    text = np.asarray(text_matrix, dtype=np.float64)  # as pgd_grid vetted it

    def embed(images: Array) -> Array:
        return encoder.image_forward(check_finite(np.asarray(images, dtype=np.float64), "const")).z

    def scored(z: Array) -> Tuple[Array, Array]:
        return np.argmax(z @ text.T, axis=1), z

    clean = scored(embed(x) if grid.clean_z is None else grid.clean_z)
    return [clean] + [clean if cfg.eps == 0.0 else scored(embed(adv))
                      for cfg, adv in zip(cfgs, grid.adv)]


def scored_passes(models: Sequence[Tuple[object, Array]], dataset, cfgs: Sequence[AttackConfig],
                  run: Callable = map) -> List[List[Tuple[Array, Array]]]:
    """Every sample of ``dataset`` scored by each ``(encoder, text)`` of
    ``models``, clean and under every config of ``cfgs``: one ``scored_batch``
    job per (model, ``SCORE_BATCH``-row batch), each config seeded
    ``cfg.seed + offset``. The jobs go to ``run`` (as ``map``) in model order,
    then batch order; ``harness`` lends its worker processes this way.

    Per model, returns the clean pass, then one pass per config. A pass is
    every sample's prediction and the per-class sums of the embeddings
    (``_class_sums`` of the joined rows, in dataset order).
    """
    offsets = range(0, dataset.num_samples, SCORE_BATCH)

    def job(item):
        i, lo = item
        encoder, text = models[i]
        return scored_batch(encoder, text, pixels(dataset.images[lo:lo + SCORE_BATCH]),
                            dataset.labels[lo:lo + SCORE_BATCH],
                            [dataclasses.replace(cfg, seed=cfg.seed + lo) for cfg in cfgs])

    batches = iter(run(job, [(i, lo) for i in range(len(models)) for lo in offsets]))
    passes = []
    for encoder, _ in models:
        scored = [next(batches) for _ in offsets]
        dim = encoder.cfg.embed_dim
        passes.append([])
        for k in range(1 + len(cfgs)):
            preds = np.concatenate([np.zeros(0, dtype=np.int64)] + [b[k][0] for b in scored])
            z = np.concatenate([np.zeros((0, dim))] + [b[k][1] for b in scored])
            passes[-1].append((preds, _class_sums(z, dataset.labels, dataset.num_classes)))
    return passes


def _class_sums(z: Array, labels: Array, num_classes: int) -> Array:
    """Per class, the sum of the rows of ``z`` with that label: 0.0 (the
    reduction's identity) plus each row in order, so bit for bit one
    ``np.add.at`` into zeros. A reduction down the rows of a matrix at least
    2 wide (an embedding is) adds them one at a time, and this runs at about
    a third of its cost."""
    sums = np.empty((num_classes, z.shape[1]))
    for c, row in enumerate(sums):
        np.add.reduce(z[labels == c], axis=0, out=row)
    return sums


def _check_classes(dataset, encoders: Dict[str, object]) -> None:
    """Reject a test set whose class count differs from any of ``encoders``'
    (keyed by how the error names them), before any job runs."""
    for who, encoder in encoders.items():
        if encoder.cfg.num_classes != dataset.num_classes:
            raise ShapeMismatch(f"the test set has {dataset.num_classes} classes, "
                                f"the {who} {encoder.cfg.num_classes}")


def _accuracy(preds: Array, labels: Array) -> float:
    if len(labels) == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    return int(np.count_nonzero(preds == labels)) / len(labels)


def robust_accuracy(model, teacher, dataset, cfg: AttackConfig | None = None) -> float:
    """Fraction of samples still classified correctly after the attack.

    ``cfg.text_source`` selects the class-text embeddings used for both the
    attack objective and classification: "student" evaluates the fine-tuned
    model end-to-end, "teacher" pins the frozen text embeddings, so the
    teacher's class count is checked as well.
    """
    cfg = cfg or AttackConfig()
    _check_classes(dataset, {"model": model} if cfg.text_source == "student"
                   else {"model": model, "teacher model": teacher.model})
    return _accuracy(scored_passes([(model, attack_text(model, teacher, cfg))], dataset,
                                   [cfg])[0][1][0], dataset.labels)
