"""The four-component adversarial fine-tuning loss and its ingredients.

Text side: hyperspherical-energy repulsion (``mhe_loss``) spreads the class
text embeddings apart while image-aware distillation (``iakd_loss``) keeps
their contrastive profile against the frozen teacher's image embeddings.
Image side: a text-distance adaptive margin (``adaptive_margin`` +
``tam_loss``) separates confusable classes in the adversarial image
embeddings, and text-aware distillation (``takd_loss``) anchors them to the
teacher's clean distribution. ``tima_loss`` composes all four.

Each term has one array kernel: its value and its pullback, repeating the
elementary tape operations the term is defined by, in the same order, so that
values and gradients are the tape's bit for bit (``tests/oracles.py`` keeps
that composition as the reference). The public term functions are one-node
tape wrappers over the kernels; ``tima_loss`` runs the kernels on plain
arrays and returns its parameter gradients in closed form, from the
student's image and text pullbacks, without building a tape node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .data import pixels
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
from .model import TextPass
from .tensor import (
    Tensor,
    _lift,
    check_finite,
    check_temperature,
    log_softmax_backward,
    log_softmax_forward,
)

Array = np.ndarray

NORM_TOLERANCE = 1e-6

TEACHER_CHUNK = 128  # rows per chunk of ``teacher_targets``

MARGIN_SIGN_LITERAL = "literal"
MARGIN_SIGN_NEGATE = "negate_negatives"


@dataclass(frozen=True)
class LossWeights:
    """Every scalar hyperparameter of the combined loss.

    tau   softmax temperature shared by all distribution terms (CLIP-style 0.01)
    m     margin magnitude for the adaptive margin
    eta   confusion threshold gating the margin, must lie in (0, 1)
    lam   weight of the text branch (energy + text distillation)
    lam_t weight of the text distillation inside the text branch
    lam_v weight of the image distillation
    """

    tau: float = 0.01
    m: float = 0.1
    eta: float = 0.95
    lam: float = 1.0
    lam_t: float = 1.0
    lam_v: float = 1.0
    margin_sign: str = MARGIN_SIGN_LITERAL

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise InvalidTemperature(f"tau must be positive, got {self.tau}")
        if not 0.0 < self.eta < 1.0:
            raise InvalidEta(f"eta must lie in (0, 1), got {self.eta}")
        if not (np.isfinite(self.m) and self.m >= 0):
            raise InvalidConfig(f"margin m must be finite and >= 0, got {self.m}")
        if not all(np.isfinite(v) and v >= 0 for v in (self.lam, self.lam_t, self.lam_v)):
            raise InvalidConfig("loss weights lam, lam_t, lam_v must be finite and >= 0")
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
    """Reject ``data`` unless every row has unit norm, naming the row that
    deviates most; a row whose squared norm overflows deviates by inf."""
    with np.errstate(over="ignore"):
        deviation = np.abs(np.sqrt(np.add.reduce(data * data, axis=1)) - 1.0)
    if deviation.size:
        worst = int(deviation.argmax())
        if deviation[worst] > NORM_TOLERANCE:
            raise NotNormalized(f"{name} row {worst} deviates from unit norm "
                                f"by {deviation[worst]:.3e}")


def _check_sims_operands(a: Array, b: Array) -> None:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"cosine_sim_matrix: {a.shape} vs {b.shape}")
    _check_unit_rows(a, "left")
    _check_unit_rows(b, "right")


def _checked_text(encoder, text_matrix) -> Array:
    """A class-text matrix to score ``encoder``'s embeddings against, vetted
    once per call as ``cosine_sim_matrix`` vets its right operand (finite,
    the width of the embeddings, unit rows), with the encoder's temperature.
    The embeddings need no vetting: their rows are unit by construction."""
    check_temperature(encoder.tau)
    text = check_finite(np.asarray(text_matrix, dtype=np.float64), "const")
    if text.ndim != 2 or text.shape[1] != encoder.cfg.embed_dim:
        raise ShapeMismatch(f"cosine_sim_matrix: (n, {encoder.cfg.embed_dim}) vs {text.shape}")
    _check_unit_rows(text, "right")
    return text


def cosine_sim_matrix(a, b) -> Tensor:
    """All-pairs cosine similarities of two unit-row matrices: S = A B^T."""
    a, b = _lift(a), _lift(b)
    _check_sims_operands(a.data, b.data)
    return a @ b.T


def _const_data(x) -> Array:
    """An input treated as a constant: its values, checked as a const node."""
    return check_finite(np.asarray(getattr(x, "data", x), dtype=np.float64), "const")


# -- array kernels: (value, pullback) of each term ----------------------------------


def _log_softmax(s: Array, tau: float) -> Array:
    """Row log-softmax of ``s / tau``, with the temperature and the result
    checked."""
    check_temperature(tau)
    return check_finite(log_softmax_forward(s, tau), "log_softmax")


def _one_hot(y: Array, c: int) -> Array:
    out = np.zeros((len(y), c))
    out[np.arange(len(y)), y] = 1.0
    return out


def _tam(s: Array, margin: Optional[Array], y: Array, tau: float):
    """Mean over rows of -log softmax((s - margin) / tau) at the checked
    labels ``y``, and its pullback ``g -> gradient of s``. Without a margin
    this is the plain contrastive cross-entropy."""
    n, c = s.shape
    log_p = _log_softmax(s if margin is None else s - margin, tau)
    one_hot = _one_hot(y, c)
    total = check_finite(np.add.reduce(log_p * one_hot, None), "sum")

    def vjp(g):
        return log_softmax_backward(one_hot * float(g * (-1.0 / n)), log_p, tau)

    return total * (-1.0 / n), vjp


def _kl(log_p: Array, log_q: Array):
    """Mean over rows of KL(exp(log_p) || exp(log_q)) for row log-probabilities,
    and its pullback ``g -> (gradient of log_p, gradient of log_q)``."""
    n = log_p.shape[0]
    p = np.exp(log_p)
    diff = log_p - log_q
    total = check_finite(np.add.reduce(p * diff, None), "sum")

    def vjp(g):
        g_term = float(g * (1.0 / n))
        g_diff = p * g_term
        return g_diff + diff * g_term * p, -g_diff

    return total * (1.0 / n), vjp


def _distill(log_ref: Array, s: Array, tau: float):
    """KL from the teacher's row log-probabilities ``log_ref`` to the rows of
    softmax(s / tau) (TAKD and IAKD), and its pullback ``g -> gradient of s``."""
    log_q = _log_softmax(s, tau)
    value, vjp = _kl(log_ref, log_q)
    return value, lambda g: log_softmax_backward(vjp(g)[1], log_q, tau)


def _mhe(t: Array):
    """Mean energy 1/(1 + d^2) over ordered pairs of rows of ``t``, and its
    pullback ``(g, acc) -> acc + gradient of t``. ``acc`` is what reached
    ``t`` before this term on the tape; the term's four contributions (two
    from the Gram matrix, two from the squared norms) follow in the tape's
    order."""
    c, d = t.shape
    ones_d1, ones_1c = np.ones((d, 1)), np.ones((1, c))
    # ||t_j - t_k||^2 = |t_j|^2 + |t_k|^2 - 2 t_j.t_k, exact for any rows
    gram = t @ t.T
    by_row = (t * t) @ ones_d1 @ ones_1c
    denom = by_row + by_row.T - gram * 2.0 + 1.0
    off_diag = 1.0 - np.eye(c)
    scale = 1.0 / (c * (c - 1))
    value = np.add.reduce(1.0 / denom * off_diag, None) * scale

    def vjp(g, acc: Optional[Array] = None) -> Array:
        g_dist = -(off_diag * float(g * scale)) / (denom * denom)
        g_sq = (g_dist + g_dist.T) @ ones_1c.T @ ones_d1.T
        g_gram = -g_dist * 2.0
        for term in (g_gram @ t, (t.T @ g_gram).T, g_sq * t, g_sq * t):
            acc = term if acc is None else acc + term
        return acc

    return value, vjp


def _weighted(total, term, weight):
    """``total + term * weight``, checked as the tape's const, mul and add
    nodes check it."""
    check_finite(np.asarray(weight, dtype=np.float64), "const")
    return check_finite(total + check_finite(term * weight, "mul"), "add")


# -- the terms as one-node tape ops ----------------------------------------------------


def mhe_loss(t) -> Tensor:
    """Mean hyperspherical energy over ordered class pairs: E[1/(1 + d^2)].

    Uses the softened kernel 1/(1 + d^2) rather than 1/d^2 so coincident
    embeddings yield a finite value (1.0) instead of a gradient explosion.
    Minimizing it pushes the class embeddings apart on the sphere.
    """
    t = _lift(t)
    if t.ndim != 2:
        raise ShapeMismatch(f"mhe_loss needs a matrix, got {t.shape}")
    c = t.shape[0]
    if c < 2:
        raise TooFewClasses(f"need at least 2 class embeddings, got {c}")
    value, vjp = _mhe(t.data)
    return Tensor(value, (t,), "mhe_loss", lambda g, i: vjp(g))


def kl_rows(logits_p, logits_q, tau: float) -> Tensor:
    """Mean over rows of KL(softmax(p/tau) || softmax(q/tau)), in log space.

    Gradients flow into whichever logits still carry graph history; callers
    that want a frozen reference distribution pass its values as an array.
    """
    logits_p, logits_q = _lift(logits_p), _lift(logits_q)
    if logits_p.ndim != 2 or logits_p.shape != logits_q.shape:
        raise ShapeMismatch(f"kl_rows: {logits_p.shape} vs {logits_q.shape}")
    logs = (_log_softmax(logits_p.data, tau), _log_softmax(logits_q.data, tau))
    value, vjp = _kl(*logs)
    return Tensor(value, (logits_p, logits_q), "kl_rows",
                  lambda g, i: log_softmax_backward(vjp(g)[i], logs[i], tau))


def iakd_loss(teacher_z, teacher_t, student_t, tau: float) -> Tensor:
    """Distill the teacher's image->text distribution into the student text.

    Both distributions are conditioned on the frozen teacher image embeddings,
    so gradients reach only the student text embeddings.
    """
    tz, tt = _const_data(teacher_z), _const_data(teacher_t)
    st = _lift(student_t)
    if tt.shape != st.shape:
        raise ShapeMismatch(f"iakd_loss: teacher text {tt.shape} vs student text {st.shape}")
    _check_sims_operands(tz, tt)
    _check_sims_operands(tz, st.data)
    value, vjp = _distill(_log_softmax(tz @ tt.T, tau), tz @ st.data.T, tau)
    return Tensor(value, (st,), "iakd_loss", lambda g, i: (tz.T @ vjp(g)).T)


def takd_loss(teacher_z, teacher_t, student_adv_z, tau: float) -> Tensor:
    """Distill the teacher's clean distribution into the adversarial student.

    Teacher image and text embeddings are constants; gradients reach only the
    student's adversarial image embeddings.
    """
    tz, tt = _const_data(teacher_z), _const_data(teacher_t)
    sz = _lift(student_adv_z)
    if tz.shape != sz.shape:
        raise ShapeMismatch(f"takd_loss: teacher z {tz.shape} vs student z {sz.shape}")
    _check_sims_operands(tz, tt)
    _check_sims_operands(sz.data, tt)
    value, vjp = _distill(_log_softmax(tz @ tt.T, tau), sz.data @ tt.T, tau)
    return Tensor(value, (sz,), "takd_loss", lambda g, i: vjp(g) @ tt)


def _check_labels(y: Array, num_classes: int, rows: int) -> Array:
    """``y`` vetted as one class index in [0, num_classes) for each of
    ``rows`` samples."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ShapeMismatch(f"labels must be a vector, got shape {y.shape}")
    if len(y) != rows:
        raise ShapeMismatch(f"{len(y)} labels for {rows} images")
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
    y = _check_labels(y, c, n)
    target_sim = s_it[np.arange(n), y][:, None]
    triggered = s_it >= eta * target_sim
    margins = np.where(triggered, m * s_tt[y, :], 0.0)
    if margin_sign == MARGIN_SIGN_NEGATE:
        negatives = np.arange(c)[None, :] != y[:, None]
        margins = np.where(negatives, -margins, margins)
    elif margin_sign != MARGIN_SIGN_LITERAL:
        raise InvalidConfig(f"unknown margin_sign {margin_sign!r}")
    return margins


def _checked_margin(margin, shape: tuple) -> Array:
    margin = np.asarray(getattr(margin, "data", margin), dtype=np.float64)
    if margin.shape != shape:
        raise ShapeMismatch(f"margin shape {margin.shape} != sims shape {shape}")
    return check_finite(margin, "const")


def tam_loss(s_adv, margin: Array, y, tau: float) -> Tensor:
    """Margin-adjusted contrastive cross-entropy on adversarial similarities.

    Mean over samples of -log softmax((S_adv - M) / tau) at the true label.
    With M = 0 this is exactly the plain adversarial contrastive objective.
    """
    s = _lift(s_adv)
    if s.ndim != 2:
        raise ShapeMismatch(f"tam_loss needs a similarity matrix, got {s.shape}")
    y = _check_labels(y, s.shape[1], s.shape[0])
    value, vjp = _tam(s.data, _checked_margin(margin, s.shape), y, tau)
    return Tensor(value, (s,), "tam_loss", lambda g, i: vjp(g))


class TeacherTargets(NamedTuple):
    """What the frozen teacher contributes to the loss, one row per sample:
    clean image embeddings ``z``, adaptive-margin rows ``margin`` (all zeros
    when m = 0) and ``log_probs``, the teacher's clean log-probabilities over
    its own text at the loss temperature (what TAKD and IAKD distill). A
    row depends on its own sample only, not on how the data is cut."""

    z: Array
    margin: Array
    log_probs: Array

    def take(self, idx) -> "TeacherTargets":
        return TeacherTargets(self.z[idx], self.margin[idx], self.log_probs[idx])


def teacher_targets(teacher, x, y, w: LossWeights) -> TeacherTargets:
    """Teacher embeddings, margin rows and log-probabilities of every sample
    of ``x``, so a training run computes them once rather than per batch.

    ``x`` is float pixels, or a dataset's uint8 codes, which each chunk
    widens with ``data.pixels`` as it reads them.
    Works through ``x`` in chunks of ``TEACHER_CHUNK`` rows, so peak memory
    stays that of one batch; a one-row remainder joins the chunk before it.
    Each step is row-wise, but under numpy's scipy-openblas 0.3.31 with its
    SkylakeX kernel (the build string names Haswell, its build target; the
    kernel is picked at run time) a product against the transposed text
    takes another kernel, with other last bits, for one row and for 151 rows
    or more. Every chunk of 2-150 rows gives the same bits, so each row equals
    the one any batch of 2-150 rows computes for its sample.
    """
    x = np.asarray(x)
    codes = x.dtype == np.uint8
    if not codes:
        x = np.asarray(x, dtype=np.float64)
    t_hat = teacher.t_hat
    c = t_hat.shape[0]
    n = x.shape[0]
    y = _check_labels(y, c, n)
    if w.m != 0.0:  # the margin scores against the text: vet it once
        t_hat = _checked_text(teacher.model, t_hat)
        s_tt = t_hat @ t_hat.T
    starts = list(range(0, max(n - 1, 1), TEACHER_CHUNK))  # no one-row chunk unless n = 1
    zs, margins, log_probs = [], [], []
    for lo, hi in zip(starts, starts[1:] + [n]):
        z = teacher.encode_images(pixels(x[lo:hi]) if codes else x[lo:hi])
        s_it = z @ t_hat.T
        if w.m == 0.0:
            margin = np.zeros((z.shape[0], c))
        else:
            margin = adaptive_margin(s_it, s_tt, y[lo:hi], w.m, w.eta, w.margin_sign)
        zs.append(z)
        margins.append(margin)
        log_probs.append(_log_softmax(s_it, w.tau))
    return TeacherTargets(np.concatenate(zs), np.concatenate(margins), np.concatenate(log_probs))


def tima_loss(student, teacher, x_clean: Array, x_adv: Array, y, w: LossWeights, *,
              targets: Optional[TeacherTargets] = None, student_text: Optional[TextPass] = None
              ) -> Tuple[float, Dict[Tensor, Array], LossComponents]:
    """Combined loss: TAM + lam_v*TAKD + lam*(MHE + lam_t*IAKD).

    ``student`` is the trainable dual encoder, ``teacher`` the frozen
    snapshot. Zero-weighted branches are skipped entirely, so with
    (m=0, lam=0, lam_v=0) the value and gradients reduce bit-for-bit to the
    plain adversarial contrastive cross-entropy against the teacher text.
    Gradients reach the image encoder through TAM + TAKD only and the text
    encoder through MHE + IAKD only.

    Returns the value, each ``student.parameters()`` entry's gradient (exact
    zeros for the text when lam = 0) and the per-term values: the tape
    form's values, gradients and errors (same checks, order and op names),
    from ``image_forward``'s and ``text_forward``'s pullbacks.

    ``targets`` are this batch's rows of ``teacher_targets`` under the same
    weights; when omitted they are computed from ``x_clean``. Their teacher
    embeddings are vetted here (finite, unit rows, one per sample) as the
    tape's similarity op vets them, and TAKD and IAKD read the teacher's
    log-probabilities from them.
    ``student_text`` is ``student.text_forward()`` when the caller already
    has it; when omitted it is computed here if the text branch is on.
    """
    t_hat = teacher.t_hat
    n = np.asarray(x_adv).shape[0]
    y = _check_labels(y, t_hat.shape[0], n)
    if targets is None:
        targets = teacher_targets(teacher, x_clean, y, w)
    tz = np.asarray(targets.z, dtype=np.float64)
    if tz.shape[0] != n:
        raise ShapeMismatch(f"tima_loss: {tz.shape[0]} teacher rows for {n} samples")

    image = student.image_forward(check_finite(np.asarray(x_adv, dtype=np.float64), "const"))
    z = image.z
    if z.shape[1] != t_hat.shape[1]:
        raise ShapeMismatch(f"cosine_sim_matrix: {z.shape} vs {t_hat.shape}")
    s = z @ t_hat.T
    tam, tam_vjp = _tam(s, _checked_margin(targets.margin, s.shape), y, w.tau)
    total = tam

    @functools.cache
    def teacher_log_probs() -> Array:
        """The teacher's clean distribution over its text, shared by TAKD and IAKD."""
        _check_unit_rows(check_finite(tz, "const"), "left")
        log_probs = np.asarray(targets.log_probs, dtype=np.float64)
        if log_probs.shape != s.shape:
            raise ShapeMismatch(f"tima_loss: teacher log-probabilities of shape "
                                f"{log_probs.shape} for similarities of shape {s.shape}")
        return check_finite(log_probs, "const")

    takd = 0.0
    if w.lam_v > 0.0:
        if tz.shape != z.shape:
            raise ShapeMismatch(f"takd_loss: teacher z {tz.shape} vs student z {z.shape}")
        takd, takd_vjp = _distill(teacher_log_probs(), s, w.tau)
        total = _weighted(total, takd, w.lam_v)

    mhe = iakd = 0.0
    text = None
    if w.lam > 0.0:
        text = student.text_forward() if student_text is None else student_text
        if text.t.shape[0] < 2:
            raise TooFewClasses(f"need at least 2 class embeddings, got {text.t.shape[0]}")
        mhe, mhe_vjp = _mhe(text.t)
        branch = mhe
        if w.lam_t > 0.0:
            if t_hat.shape != text.t.shape:
                raise ShapeMismatch(f"iakd_loss: teacher text {t_hat.shape} "
                                    f"vs student text {text.t.shape}")
            iakd, iakd_vjp = _distill(teacher_log_probs(), tz @ text.t.T, w.tau)
            branch = _weighted(mhe, iakd, w.lam_t)
        total = _weighted(total, branch, w.lam)

    g_z = tam_vjp(1.0) @ t_hat
    if w.lam_v > 0.0:  # on the tape TAKD's contribution reaches z before TAM's
        g_z = takd_vjp(w.lam_v) @ t_hat + g_z
    grads = image.weights(g_z)
    if text is None:
        grads += [np.zeros_like(p.data) for p in student.text_parameters()]
    else:
        g_t = (tz.T @ iakd_vjp(w.lam * w.lam_t)).T if w.lam_t > 0.0 else None
        grads += text.weights(mhe_vjp(w.lam, g_t))
    comps = LossComponents(total=float(total), tam=float(tam), takd=float(takd),
                           mhe=float(mhe), iakd=float(iakd))
    return comps.total, dict(zip(student.parameters(), grads)), comps


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
