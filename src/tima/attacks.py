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
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import AttackOutOfBounds, EmptyDataset, InvalidConfig
from .losses import _check_labels, _checked_text, _log_softmax, _one_hot
from .tensor import check_finite, log_softmax_backward

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
        if self.steps < 0 or self.restarts < 0:
            raise InvalidConfig("steps and restarts must be >= 0")
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
    y = _check_labels(y, len(text), len(x))
    log_p = _log_probs(encoder.encode_images(x).data, text, encoder.tau)
    return -log_p[np.arange(len(y)), y]


def _ce_input_grad(encoder, text: Array, x: Array, y: Array) -> Tuple[Array, Array]:
    """The embeddings of ``x`` and the input gradient of the summed
    cross-entropy -sum_i log p(y_i | x_i) at S = z text^T, in closed form: the
    value ``backward`` gives on the tape, bit for bit. ``text`` comes from
    ``_checked_text``, ``y`` from ``_check_labels``."""
    image = encoder.image_forward(check_finite(np.asarray(x, dtype=np.float64), "leaf"))
    log_p = _log_probs(image.z, text, encoder.tau)
    g_s = log_softmax_backward(-_one_hot(y, log_p.shape[1]), log_p, encoder.tau)
    return image.z, image.pixels(g_s @ text)


def _ball(x_center: Array, eps: float) -> Tuple[Array, Array]:
    """The bounds of the l-inf ball of radius ``eps`` around ``x_center``,
    cut to the pixel range [0, 1]."""
    return np.maximum(x_center - eps, 0.0), np.minimum(x_center + eps, 1.0)


def _ascend(x: Array, sign: Array, step_size: float, lo: Array, hi: Array,
            out: Optional[Array] = None) -> Array:
    """One projected signed-gradient step: clip(x + step_size * sign, lo, hi),
    bit for bit, into ``out`` (``x`` itself for an in-place step), without
    the cost of ``np.clip`` with array bounds."""
    out = np.add(x, sign * step_size, out=out)
    np.maximum(out, lo, out=out)
    np.minimum(out, hi, out=out)
    return out


def pgd_steps(encoder, text_matrix: Array, x_center: Array, x_start: Array,
              y: Array, eps: float, step_size: float, steps: int) -> Array:
    """The bare iteration, memoryless in x: running k steps and then k' more
    from the result equals a single (k+k')-step run."""
    x = np.array(x_start, dtype=np.float64)
    if steps == 0:
        return x
    text = _checked_text(encoder, text_matrix)
    y = _check_labels(y, len(text), len(x))
    lo, hi = _ball(x_center, eps)
    for _ in range(steps):
        grad = _ce_input_grad(encoder, text, x, y)[1]
        _ascend(x, np.sign(grad, out=grad), step_size, lo, hi, out=x)
    return x


class _Run:
    """One (config, restart) run of ``pgd_grid``: its iterate and the steps
    it has left."""

    def __init__(self, cfg: AttackConfig, start: Array):
        self.cfg, self.x, self.left = cfg, start, cfg.steps


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


class Grid(NamedTuple):
    """``pgd_grid``'s result: the adversarial batch of each config, and the
    clean batch's embeddings when a shared step was taken from it (else None)."""

    adv: List[Array]
    clean_z: Optional[Array]


def pgd_grid(encoder, text_matrix: Array, x: Array, y: Array,
             cfgs: Sequence[AttackConfig]) -> Grid:
    """``[pgd_attack(encoder, text_matrix, x, y, cfg) for cfg in cfgs]``, bit
    for bit, with every distinct PGD step computed once.

    The text and the labels are vetted once, before any config, ε = 0
    included. Every (config, restart) run advances in lockstep. Runs whose
    iterates are bit-identical form a group that takes one input gradient
    per step; after each step a group splits by its members' new iterates,
    and groups never merge. A run left alone finishes in ``pgd_steps``. On an
    ε grid with one step size every run without a restart starts at the
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
    # the ball of each eps a shared step needs, made once
    balls = {}
    clean_z = None
    groups = _split([run for cfg_runs in runs for run in cfg_runs])
    while groups:
        stepped = []
        for group in groups:
            group = [run for run in group if run.left]
            if len(group) == 1:
                run = group[0]
                run.x = pgd_steps(encoder, text, x, run.x, y, run.cfg.eps, run.cfg.step_size,
                                  run.left)
            elif group:
                z, grad = _ce_input_grad(encoder, text, group[0].x, y)
                if clean_z is None and np.array_equal(group[0].x, x):
                    clean_z = z
                sign = np.sign(grad, out=grad)
                for run in group:
                    eps = run.cfg.eps
                    if eps not in balls:
                        balls[eps] = _ball(x, eps)
                    # a new array: runs may start out sharing one
                    run.x = _ascend(run.x, sign, run.cfg.step_size, *balls[eps])
                    run.left -= 1
                stepped += _split(group)
        groups = stepped
    return Grid([_strongest(encoder, text, x, y, cfg.eps, [run.x for run in cfg_runs])
                 if cfg_runs else x.copy() for cfg, cfg_runs in zip(cfgs, runs)], clean_z)


def _strongest(encoder, text: Array, x: Array, y: Array, eps: float,
               candidates: Sequence[Array]) -> Array:
    """Per sample, the candidate with the highest cross-entropy (the earliest
    on ties; a single candidate is returned unscored), checked to lie in the
    ball of radius ``eps`` around ``x`` and in [0, 1]."""
    best_x = candidates[0]
    if len(candidates) > 1:
        best_ce = per_sample_ce(encoder, text, best_x, y)
        for cand in candidates[1:]:
            ce = per_sample_ce(encoder, text, cand, y)
            better = ce > best_ce
            best_x = np.where(better[:, None], cand, best_x)
            best_ce = np.where(better, ce, best_ce)
    if not np.all(np.abs(best_x - x) <= eps + 1e-9):
        raise AttackOutOfBounds(f"attack result left the eps={eps} ball")
    if not np.all((best_x >= 0.0) & (best_x <= 1.0)):
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


def attack_text(model, teacher, cfg: AttackConfig, student_text=None) -> Array:
    """The class-text embeddings ``cfg.text_source`` names: the student's own
    (``student_text``, this model's ``encode_classes()``, when the caller
    already has it), or the frozen teacher's."""
    if cfg.text_source != "student":
        return teacher.t_hat
    return (model.encode_classes() if student_text is None else student_text).data


# rows per batch of ``scored_pass`` and evaluation; each attacked batch is
# seeded ``attack.seed + offset``, so this size is part of every robust number
SCORE_BATCH = 128


def scored_batch(encoder, text_matrix: Array, x: Array, y: Array,
                 cfgs: Sequence[AttackConfig], own_text: Optional[Array] = None
                 ) -> List[Tuple[Array, Array]]:
    """One batch scored clean, when ``own_text`` is given, and under every
    config of ``cfgs``, whose attacks run as one ``pgd_grid`` call.

    Returns ``(predictions, embeddings)`` pairs: the clean images' against
    ``own_text`` first, then each attacked batch's against ``text_matrix``.
    A prediction is the nearest text row (``np.argmax`` breaks ties toward
    the lowest index). The clean images are encoded at most once: the grid's
    shared first step encodes them, and an ε = 0 attack, which returns them,
    reuses their embeddings.
    """
    text = _checked_text(encoder, text_matrix)
    grid = pgd_grid(encoder, text, x, y, cfgs)
    clean_z = grid.clean_z
    if clean_z is None and (own_text is not None or any(cfg.eps == 0.0 for cfg in cfgs)):
        clean_z = encoder.encode_images(x).data
    scored = []
    if own_text is not None:
        own = _checked_text(encoder, own_text)
        scored.append((np.argmax(clean_z @ own.T, axis=1), clean_z))
    for cfg, adv in zip(cfgs, grid.adv):
        z = clean_z if cfg.eps == 0.0 else encoder.encode_images(adv).data
        scored.append((np.argmax(z @ text.T, axis=1), z))
    return scored


def join_batches(scored: Sequence[Tuple[Array, Array]], dataset,
                 embed_dim: int) -> Tuple[Array, Array]:
    """One pass over ``dataset`` from its batches' ``scored_batch`` pairs, in
    dataset order: every sample's prediction and the per-class sums of the
    embeddings. One ``np.add.at`` over the joined rows adds, in the same
    order, exactly what one call per batch would."""
    preds = np.concatenate([np.zeros(0, dtype=np.int64)] + [p for p, _ in scored])
    z = np.concatenate([np.zeros((0, embed_dim))] + [z for _, z in scored])
    sums = np.zeros((dataset.num_classes, embed_dim))
    np.add.at(sums, dataset.labels, z)
    return preds, sums


def scored_pass(encoder, text_matrix: Array, dataset,
                attack: AttackConfig | None = None) -> Tuple[Array, Array]:
    """Score every sample of ``dataset`` once, ``SCORE_BATCH`` rows at a time,
    clean or, with ``attack``, attacked once per batch, seeded
    ``attack.seed + offset``. Returns ``join_batches``' predictions and
    per-class embedding sums."""
    scored = []
    for lo in range(0, dataset.num_samples, SCORE_BATCH):
        cfgs = [] if attack is None else [dataclasses.replace(attack, seed=attack.seed + lo)]
        scored += scored_batch(encoder, text_matrix, dataset.images[lo:lo + SCORE_BATCH],
                               dataset.labels[lo:lo + SCORE_BATCH], cfgs,
                               None if cfgs else text_matrix)
    return join_batches(scored, dataset, encoder.cfg.embed_dim)


def _accuracy(preds: Array, labels: Array) -> float:
    if len(labels) == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    return int(np.sum(preds == labels)) / len(labels)


def robust_accuracy(model, teacher, dataset, cfg: AttackConfig | None = None) -> float:
    """Fraction of samples still classified correctly after the attack.

    ``cfg.text_source`` selects the class-text embeddings used for both the
    attack objective and classification: "student" evaluates the fine-tuned
    model end-to-end, "teacher" pins the frozen text embeddings.
    """
    cfg = cfg or AttackConfig()
    return _accuracy(scored_pass(model, attack_text(model, teacher, cfg), dataset, cfg)[0],
                     dataset.labels)
