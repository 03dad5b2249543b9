"""The four-component adversarial fine-tuning loss and its ingredients.

Text side: hyperspherical-energy repulsion (``mhe_loss``) spreads the class
text embeddings apart while image-aware distillation (``iakd_loss``) keeps
their contrastive profile against the frozen teacher's image embeddings.
Image side: a text-distance adaptive margin (``adaptive_margin`` +
``tam_loss``) separates confusable classes in the adversarial image
embeddings, and text-aware distillation (``takd_loss``) anchors them to the
teacher's clean distribution. ``tima_loss`` composes all four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    InvalidConfig,
    InvalidEta,
    InvalidTemperature,
    LabelNotInteger,
    LabelOutOfRange,
    NotNormalized,
    ShapeMismatch,
    TooFewClasses,
)
from .tensor import Tensor, _lift, row_log_softmax

Array = np.ndarray

NORM_TOLERANCE = 1e-6

MARGIN_SIGN_LITERAL = "literal"
MARGIN_SIGN_NEGATE = "negate_negatives"


@dataclass(frozen=True)
class LossWeights:
    """Every scalar hyperparameter of the combined loss.

    tau   softmax temperature shared by all distribution terms (CLIP-style 0.01)
    m     margin magnitude for the adaptive margin
    eta   confusion threshold gating the margin, must lie in (0, 1)
    alpha exponent of the energy kernel 1/(1 + d^alpha); fixed at 2
    lam   weight of the text branch (energy + text distillation)
    lam_t weight of the text distillation inside the text branch
    lam_v weight of the image distillation
    """

    tau: float = 0.01
    m: float = 0.1
    eta: float = 0.95
    alpha: int = 2
    lam: float = 1.0
    lam_t: float = 1.0
    lam_v: float = 1.0
    margin_sign: str = MARGIN_SIGN_LITERAL

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise InvalidTemperature(f"tau must be positive, got {self.tau}")
        if not 0.0 < self.eta < 1.0:
            raise InvalidEta(f"eta must lie in (0, 1), got {self.eta}")
        if self.m < 0:
            raise InvalidConfig(f"margin m must be >= 0, got {self.m}")
        if self.alpha != 2:
            raise InvalidConfig(f"alpha is fixed at 2, got {self.alpha}")
        if min(self.lam, self.lam_t, self.lam_v) < 0:
            raise InvalidConfig("loss weights lam, lam_t, lam_v must be >= 0")
        if self.margin_sign not in (MARGIN_SIGN_LITERAL, MARGIN_SIGN_NEGATE):
            raise InvalidConfig(f"unknown margin_sign {self.margin_sign!r}")


@dataclass(frozen=True)
class LossComponents:
    """Per-term values of one combined-loss evaluation."""

    total: float
    tam: float
    takd: float
    mhe: float
    iakd: float


def _check_unit_rows(data: Array, name: str) -> None:
    norms = np.sqrt(np.sum(data * data, axis=1))
    worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if worst > NORM_TOLERANCE:
        raise NotNormalized(f"{name} rows deviate from unit norm by {worst:.3e}")


def _const(x) -> Tensor:
    """Treat an input as a constant: detach tensors, lift arrays."""
    return x.detach() if isinstance(x, Tensor) else Tensor(x, op="const")


def cosine_sim_matrix(a, b) -> Tensor:
    """All-pairs cosine similarities of two unit-row matrices: S = A B^T."""
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"cosine_sim_matrix: {a.shape} vs {b.shape}")
    _check_unit_rows(a.data, "left")
    _check_unit_rows(b.data, "right")
    return a @ b.T


def mhe_loss(t) -> Tensor:
    """Mean hyperspherical energy over ordered class pairs: E[1/(1 + d^2)].

    Uses the softened kernel 1/(1 + d^2) rather than 1/d^2 so coincident
    embeddings yield a finite value (1.0) instead of a gradient explosion.
    Minimizing it pushes the class embeddings apart on the sphere.
    """
    t = _lift(t)
    if t.ndim != 2:
        raise ShapeMismatch(f"mhe_loss needs a matrix, got {t.shape}")
    c, d = t.shape
    if c < 2:
        raise TooFewClasses(f"need at least 2 class embeddings, got {c}")
    # ||t_j - t_k||^2 = |t_j|^2 + |t_k|^2 - 2 t_j.t_k, exact for any rows
    gram = t @ t.T
    sq = (t * t) @ Tensor(np.ones((d, 1)), op="const")
    by_row = sq @ Tensor(np.ones((1, c)), op="const")
    dist_sq = by_row + by_row.T - gram * 2.0
    energy = Tensor(np.ones((c, c)), op="const") / (dist_sq + 1.0)
    off_diag = Tensor(1.0 - np.eye(c), op="const")
    return (energy * off_diag).sum() * (1.0 / (c * (c - 1)))


def kl_rows(logits_p, logits_q, tau: float) -> Tensor:
    """Mean over rows of KL(softmax(p/tau) || softmax(q/tau)), in log space.

    Gradients flow into whichever logits still carry graph history; callers
    that want a frozen reference distribution detach it first.
    """
    logits_p, logits_q = _lift(logits_p), _lift(logits_q)
    if logits_p.ndim != 2 or logits_p.shape != logits_q.shape:
        raise ShapeMismatch(f"kl_rows: {logits_p.shape} vs {logits_q.shape}")
    log_p = row_log_softmax(logits_p, tau)
    log_q = row_log_softmax(logits_q, tau)
    n = logits_p.shape[0]
    return (log_p.exp() * (log_p - log_q)).sum() * (1.0 / n)


def iakd_loss(teacher_z, teacher_t, student_t, tau: float) -> Tensor:
    """Distill the teacher's image->text distribution into the student text.

    Both distributions are conditioned on the frozen teacher image embeddings,
    so gradients reach only the student text embeddings.
    """
    tz = _const(teacher_z)
    tt = _const(teacher_t)
    st = _lift(student_t)
    if tt.shape != st.shape:
        raise ShapeMismatch(f"iakd_loss: teacher text {tt.shape} vs student text {st.shape}")
    p = cosine_sim_matrix(tz, tt)
    q = cosine_sim_matrix(tz, st)
    return kl_rows(p, q, tau)


def takd_loss(teacher_z, teacher_t, student_adv_z, tau: float) -> Tensor:
    """Distill the teacher's clean distribution into the adversarial student.

    Teacher image and text embeddings are constants; gradients reach only the
    student's adversarial image embeddings.
    """
    tz = _const(teacher_z)
    tt = _const(teacher_t)
    sz = _lift(student_adv_z)
    if tz.shape != sz.shape:
        raise ShapeMismatch(f"takd_loss: teacher z {tz.shape} vs student z {sz.shape}")
    p = cosine_sim_matrix(tz, tt)
    r = cosine_sim_matrix(sz, tt)
    return kl_rows(p, r, tau)


def _check_labels(y: Array, num_classes: int) -> Array:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ShapeMismatch(f"labels must be a vector, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        if y.size:
            raise LabelNotInteger(f"labels must be integers, got dtype {y.dtype}")
        y = y.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise LabelOutOfRange(f"labels must lie in [0, {num_classes})")
    return y


def adaptive_margin(s_it, s_tt, y, m: float, eta: float,
                    margin_sign: str = MARGIN_SIGN_LITERAL) -> Array:
    """Per-sample, per-class margin sized by teacher text-text similarity.

    Entry (i, k) is m * s(t_hat[y_i], t_hat[k]) when the teacher's clean image
    similarity to class k reaches eta times its similarity to the true class,
    and 0 otherwise: only classes the teacher could confuse get a margin, and
    more semantically similar classes get a larger one. The result is a plain
    ndarray: it is a constant in all downstream differentiation.

    ``margin_sign="negate_negatives"`` flips the sign on the triggered
    non-target columns so the margin penalizes (rather than relieves) them
    when subtracted from the logits; the target column keeps its sign.
    """
    if not 0.0 < eta < 1.0:
        raise InvalidEta(f"eta must lie in (0, 1), got {eta}")
    s_it = np.asarray(getattr(s_it, "data", s_it), dtype=np.float64)
    s_tt = np.asarray(getattr(s_tt, "data", s_tt), dtype=np.float64)
    if s_it.ndim != 2 or s_tt.ndim != 2 or s_it.shape[1] != s_tt.shape[0]:
        raise ShapeMismatch(f"adaptive_margin: {s_it.shape} vs {s_tt.shape}")
    n, c = s_it.shape
    y = _check_labels(y, c)
    target_sim = s_it[np.arange(n), y][:, None]
    triggered = s_it >= eta * target_sim
    margins = np.where(triggered, m * s_tt[y, :], 0.0)
    if margin_sign == MARGIN_SIGN_NEGATE:
        negatives = np.arange(c)[None, :] != y[:, None]
        margins = np.where(negatives, -margins, margins)
    elif margin_sign != MARGIN_SIGN_LITERAL:
        raise InvalidConfig(f"unknown margin_sign {margin_sign!r}")
    return margins


def tam_loss(s_adv, margin: Array, y, tau: float) -> Tensor:
    """Margin-adjusted contrastive cross-entropy on adversarial similarities.

    Mean over samples of -log softmax((S_adv - M) / tau) at the true label.
    With M = 0 this is exactly the plain adversarial contrastive objective.
    """
    s = _lift(s_adv)
    if s.ndim != 2:
        raise ShapeMismatch(f"tam_loss needs a similarity matrix, got {s.shape}")
    n, c = s.shape
    y = _check_labels(y, c)
    margin = np.asarray(getattr(margin, "data", margin), dtype=np.float64)
    if margin.shape != (n, c):
        raise ShapeMismatch(f"margin shape {margin.shape} != sims shape {(n, c)}")
    logits = s - Tensor(margin, op="const")
    log_probs = row_log_softmax(logits, tau)
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), y] = 1.0
    return (log_probs * Tensor(one_hot, op="const")).sum() * (-1.0 / n)


class TeacherTargets(NamedTuple):
    """What the frozen teacher contributes to the loss, one row per sample:
    clean image embeddings ``z`` and adaptive-margin rows ``margin`` (all
    zeros when m = 0)."""

    z: Array
    margin: Array

    def take(self, idx) -> "TeacherTargets":
        return TeacherTargets(self.z[idx], self.margin[idx])


def teacher_targets(teacher, x, y, w: LossWeights,
                    batch_size: Optional[int] = None) -> TeacherTargets:
    """Teacher embeddings and margin rows of every sample of ``x``.

    Works through ``x`` in chunks of ``batch_size`` rows (one chunk when
    None) so peak memory stays that of one batch. Each row depends only on
    its own sample, so it is bit-identical to the row the same sample gets
    inside any other batch.
    """
    x = np.asarray(x, dtype=np.float64)
    t_hat = teacher.t_hat
    c = t_hat.shape[0]
    y = _check_labels(y, c)
    n = x.shape[0]
    step = batch_size or max(n, 1)
    s_tt = cosine_sim_matrix(t_hat, t_hat).data if w.m != 0.0 else None
    zs, margins = [], []
    for lo in range(0, max(n, 1), step):
        z = teacher.encode_images(x[lo:lo + step])
        if w.m == 0.0:
            margin = np.zeros((z.shape[0], c))
        else:
            s_it = cosine_sim_matrix(z, t_hat).data
            margin = adaptive_margin(s_it, s_tt, y[lo:lo + step], w.m, w.eta, w.margin_sign)
        zs.append(z)
        margins.append(margin)
    return TeacherTargets(np.concatenate(zs), np.concatenate(margins))


def tima_loss(student, teacher, x_clean: Array, x_adv: Array, y,
              w: LossWeights, *, targets: Optional[TeacherTargets] = None,
              student_text: Optional[Tensor] = None) -> tuple[Tensor, LossComponents]:
    """Combined loss: TAM + lam_v*TAKD + lam*(MHE + lam_t*IAKD).

    ``student`` is the trainable dual encoder, ``teacher`` the frozen
    snapshot. Zero-weighted branches are skipped entirely, so with
    (m=0, lam=0, lam_v=0) the value and gradients reduce bit-for-bit to the
    plain adversarial contrastive cross-entropy against the teacher text.
    Gradients reach the image encoder through TAM + TAKD only and the text
    encoder through MHE + IAKD only.

    ``targets`` are this batch's rows of ``teacher_targets`` under the same
    weights; when omitted they are computed from ``x_clean``.
    ``student_text`` is ``student.encode_classes()`` when the caller already
    has it for these weights; when omitted it is encoded here.
    """
    t_hat = teacher.t_hat
    y = _check_labels(y, t_hat.shape[0])
    n = np.asarray(x_adv).shape[0]
    if targets is None:
        targets = teacher_targets(teacher, x_clean, y, w)
    teacher_z, margin = targets
    if teacher_z.shape[0] != n:
        raise ShapeMismatch(f"tima_loss: {teacher_z.shape[0]} teacher rows for {n} samples")

    z_adv = student.encode_images(x_adv)
    s_adv = cosine_sim_matrix(z_adv, Tensor(t_hat, op="const"))
    tam = tam_loss(s_adv, margin, y, w.tau)
    total = tam

    takd_val = 0.0
    if w.lam_v > 0.0:
        takd = takd_loss(teacher_z, t_hat, z_adv, w.tau)
        total = total + takd * w.lam_v
        takd_val = takd.item()

    mhe_val = 0.0
    iakd_val = 0.0
    if w.lam > 0.0:
        student_t = student.encode_classes() if student_text is None else student_text
        mhe = mhe_loss(student_t)
        text_branch = mhe
        mhe_val = mhe.item()
        if w.lam_t > 0.0:
            iakd = iakd_loss(teacher_z, t_hat, student_t, w.tau)
            text_branch = text_branch + iakd * w.lam_t
            iakd_val = iakd.item()
        total = total + text_branch * w.lam

    comps = LossComponents(total=total.item(), tam=tam.item(),
                           takd=takd_val, mhe=mhe_val, iakd=iakd_val)
    return total, comps


__all__ = [
    "LossWeights",
    "LossComponents",
    "cosine_sim_matrix",
    "mhe_loss",
    "kl_rows",
    "iakd_loss",
    "takd_loss",
    "adaptive_margin",
    "tam_loss",
    "TeacherTargets",
    "teacher_targets",
    "tima_loss",
    "MARGIN_SIGN_LITERAL",
    "MARGIN_SIGN_NEGATE",
]
