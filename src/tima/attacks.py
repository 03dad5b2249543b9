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

import numpy as np

from .errors import AttackOutOfBounds, EmptyDataset, InvalidConfig, ShapeMismatch
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


def _ce_input_grad(encoder, text: Array, x: Array, y: Array) -> Array:
    """Input gradient of the summed cross-entropy -sum_i log p(y_i | x_i) at
    S = z text^T, in closed form: the value ``backward`` gives on the tape,
    bit for bit. ``text`` comes from ``_checked_text``."""
    image = encoder.image_forward(check_finite(np.asarray(x, dtype=np.float64), "leaf"))
    log_p = _log_probs(image.z, text, encoder.tau)
    mask = _one_hot(y, log_p.shape[1])
    if mask.shape != log_p.shape:
        raise ShapeMismatch(f"mul: {log_p.shape} vs {mask.shape}")
    g_s = log_softmax_backward(-mask, log_p, encoder.tau)
    return image.pixels(g_s @ text)


def pgd_steps(encoder, text_matrix: Array, x_center: Array, x_start: Array,
              y: Array, eps: float, step_size: float, steps: int) -> Array:
    """The bare iteration, memoryless in x: running k steps and then k' more
    from the result equals a single (k+k')-step run."""
    x = np.array(x_start, dtype=np.float64)
    if steps == 0:
        return x
    text = _checked_text(encoder, text_matrix)
    y = np.asarray(y)
    lo = np.maximum(x_center - eps, 0.0)
    hi = np.minimum(x_center + eps, 1.0)
    for _ in range(steps):
        grad = _ce_input_grad(encoder, text, x, y)
        x = np.clip(x + step_size * np.sign(grad), lo, hi)
    return x


def pgd_attack(encoder, text_matrix: Array, x: Array, y: Array,
               cfg: AttackConfig) -> Array:
    """Strongest-of-restarts PGD within the l-inf ball of radius cfg.eps.

    Run 0 starts at the clean input; later runs start at seeded uniform
    points of the ball. Per sample, the candidate with the highest final
    cross-entropy wins (earliest run on ties, for determinism). With no
    restarts the single candidate is returned without scoring it.

    Raises AttackOutOfBounds if the result leaves the ball or [0, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.eps == 0.0:
        return x.copy()
    text_matrix = _checked_text(encoder, text_matrix)
    y = _check_labels(y, len(text_matrix), len(x))
    best_x = pgd_steps(encoder, text_matrix, x, x.copy(), y,
                       cfg.eps, cfg.step_size, cfg.steps)
    if cfg.restarts:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xAD)))
        best_ce = per_sample_ce(encoder, text_matrix, best_x, y)
        for _ in range(cfg.restarts):
            start = np.clip(x + rng.uniform(-cfg.eps, cfg.eps, size=x.shape), 0.0, 1.0)
            cand = pgd_steps(encoder, text_matrix, x, start, y,
                             cfg.eps, cfg.step_size, cfg.steps)
            ce = per_sample_ce(encoder, text_matrix, cand, y)
            better = ce > best_ce
            best_x = np.where(better[:, None], cand, best_x)
            best_ce = np.where(better, ce, best_ce)
    if not np.all(np.abs(best_x - x) <= cfg.eps + 1e-9):
        raise AttackOutOfBounds(f"attack result left the eps={cfg.eps} ball")
    if not np.all((best_x >= 0.0) & (best_x <= 1.0)):
        raise AttackOutOfBounds("attack result left the pixel range [0, 1]")
    return best_x


def attack_text(model, teacher, cfg: AttackConfig, student_text=None) -> Array:
    """The class-text embeddings ``cfg.text_source`` names: the student's own
    (``student_text``, this model's ``encode_classes()``, when the caller
    already has it), or the frozen teacher's."""
    if cfg.text_source != "student":
        return teacher.t_hat
    return (model.encode_classes() if student_text is None else student_text).data


# rows per batch of ``scored_pass``; each attacked batch is seeded
# ``attack.seed + offset``, so this size is part of every robust number
SCORE_BATCH = 128


def scored_pass(encoder, text_matrix: Array, dataset,
                attack: AttackConfig | None = None) -> tuple[Array, Array]:
    """Score every sample of ``dataset`` once, ``SCORE_BATCH`` rows at a time.

    Per batch: with ``attack``, one PGD run seeded ``attack.seed + offset``;
    then one encoding of the (attacked) images. Returns every sample's
    prediction (the nearest text row; ``np.argmax`` breaks ties toward the
    lowest index) and the per-class sums of the embeddings.
    """
    text = _checked_text(encoder, text_matrix)
    preds = np.zeros(dataset.num_samples, dtype=np.int64)
    sums = np.zeros((dataset.num_classes, encoder.cfg.embed_dim))
    for lo in range(0, dataset.num_samples, SCORE_BATCH):
        xb = dataset.images[lo:lo + SCORE_BATCH]
        yb = dataset.labels[lo:lo + SCORE_BATCH]
        if attack is not None:
            xb = pgd_attack(encoder, text, xb, yb,
                            dataclasses.replace(attack, seed=attack.seed + lo))
        z = encoder.encode_images(xb).data
        preds[lo:lo + SCORE_BATCH] = np.argmax(z @ text.T, axis=1)
        np.add.at(sums, yb, z)
    return preds, sums


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
