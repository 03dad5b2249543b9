"""l-infinity PGD adversarial example generation and robust evaluation.

The same routine serves the cheap 2-step training attack and the 10-step
(optionally multi-restart) evaluation attack: iterated signed-gradient ascent
on the contrastive cross-entropy, projected into the epsilon-ball around the
clean input and into the valid pixel range.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import AttackOutOfBounds, EmptyDataset, InvalidConfig, ShapeMismatch
from .losses import _check_unit_rows, cosine_sim_matrix
from .tensor import (
    check_finite,
    check_temperature,
    log_softmax_backward,
    log_softmax_forward,
    row_log_softmax,
)

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
        if self.eps < 0:
            raise InvalidConfig(f"eps must be >= 0, got {self.eps}")
        if self.steps < 0 or self.restarts < 0:
            raise InvalidConfig("steps and restarts must be >= 0")
        if self.steps > 0 and not self.step_size > 0:
            raise InvalidConfig(f"step_size must be positive, got {self.step_size}")
        if self.text_source not in TEXT_SOURCES:
            raise InvalidConfig(f"text_source must be one of {TEXT_SOURCES}")


def _one_hot(y: Array, c: int) -> Array:
    out = np.zeros((len(y), c))
    out[np.arange(len(y)), y] = 1.0
    return out


def per_sample_ce(encoder, text_matrix: Array, x: Array, y: Array) -> Array:
    """Contrastive cross-entropy of each sample at the encoder's temperature."""
    z = encoder.encode_images(np.asarray(x, dtype=np.float64))
    log_p = row_log_softmax(cosine_sim_matrix(z, text_matrix), encoder.tau)
    return -log_p.data[np.arange(len(y)), np.asarray(y)]


def _checked_text(encoder, text_matrix) -> Array:
    """The attacked class-text matrix, vetted as ``cosine_sim_matrix`` vets
    its right operand (finite, width of the embeddings, unit rows)."""
    check_temperature(encoder.tau)
    text = check_finite(np.asarray(text_matrix, dtype=np.float64), "const")
    if text.ndim != 2 or text.shape[1] != encoder.cfg.embed_dim:
        raise ShapeMismatch(f"cosine_sim_matrix: (n, {encoder.cfg.embed_dim}) vs {text.shape}")
    _check_unit_rows(text, "right")
    return text


def _ce_input_grad(encoder, text: Array, x: Array, y: Array) -> Array:
    """Input gradient of the summed cross-entropy -sum_i log p(y_i | x_i) at
    S = z text^T, in closed form: the value ``backward`` gives on the tape,
    bit for bit. ``text`` comes from ``_checked_text``; z rows are unit by
    construction."""
    z, vjp = encoder.image_input_vjp(x)
    s = check_finite(z @ text.T, "matmul")
    log_p = check_finite(log_softmax_forward(s, encoder.tau), "row_log_softmax")
    mask = _one_hot(y, s.shape[1])
    if mask.shape != s.shape:
        raise ShapeMismatch(f"mul: {s.shape} vs {mask.shape}")
    g_s = log_softmax_backward(-mask, log_p, encoder.tau)
    return vjp(g_s @ text)


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
    y = np.asarray(y)
    if cfg.eps == 0.0:
        return x.copy()
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


def classify(encoder, text_matrix: Array, x: Array) -> Array:
    """argmax_k cosine(z, t_k); np.argmax breaks ties toward the lowest index."""
    z = encoder.encode_images(np.asarray(x, dtype=np.float64))
    return np.argmax(cosine_sim_matrix(z, text_matrix).data, axis=1)


def attack_text(model, teacher, cfg: AttackConfig, student_text=None) -> Array:
    """The class-text embeddings ``cfg.text_source`` names: the student's own
    (``student_text``, this model's ``encode_classes()``, when the caller
    already has it), or the frozen teacher's."""
    if cfg.text_source != "student":
        return teacher.t_hat
    return (model.encode_classes() if student_text is None else student_text).data


def attack_pass(encoder, text_matrix: Array, dataset, cfg: AttackConfig,
                batch_size: int = 128) -> tuple[int, Array]:
    """Attack every sample once, in batches seeded ``cfg.seed + offset``.

    Per batch: one PGD run, one encoding of its result. Returns the number
    of samples still classified correctly (nearest text row, as in
    ``classify``) and the per-class sums of their adversarial embeddings.
    """
    sums = np.zeros((dataset.num_classes, encoder.cfg.embed_dim))
    correct = 0
    for lo in range(0, dataset.num_samples, batch_size):
        xb = dataset.images[lo:lo + batch_size]
        yb = dataset.labels[lo:lo + batch_size]
        x_adv = pgd_attack(encoder, text_matrix, xb, yb,
                           dataclasses.replace(cfg, seed=cfg.seed + lo))
        z = encoder.encode_images(x_adv).data
        correct += int(np.sum(np.argmax(cosine_sim_matrix(z, text_matrix).data, axis=1) == yb))
        np.add.at(sums, yb, z)
    return correct, sums


def robust_accuracy(model, teacher, dataset, cfg: AttackConfig | None = None,
                    batch_size: int = 128) -> float:
    """Fraction of samples still classified correctly after the attack.

    ``cfg.text_source`` selects the class-text embeddings used for both the
    attack objective and classification: "student" evaluates the fine-tuned
    model end-to-end, "teacher" pins the frozen text embeddings.
    """
    cfg = cfg or AttackConfig()
    n = dataset.num_samples
    if n == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    correct, _ = attack_pass(model, attack_text(model, teacher, cfg), dataset, cfg, batch_size)
    return correct / n
