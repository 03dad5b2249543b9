"""Reference implementations the tests check the package against.

``finite_diff_grad`` is independent of the tape, so it can cross-check
``backward``. The ``tape_*`` functions build the package's closed forms out of
elementary tape operations, which is how the package computed them before:

- ``tape_encode_images`` and ``tape_encode_classes`` are the two encoders,
  which ``DualEncoder.encode_images`` and ``DualEncoder.encode_classes`` must
  match bit for bit in value and in every parameter and pixel gradient;
- ``tape_ce_input_grad`` is the attack's input gradient, which the closed-form
  ``attacks._ce_input_grad`` must match bit for bit;
- ``tape_tima_loss`` and ``tape_contrastive_ce`` are the training losses,
  which the fused ``losses.tima_loss`` and ``harness.contrastive_ce`` must
  match bit for bit in value and in every parameter gradient.

``plain_pgd`` and ``plain_pgd_attack`` are PGD as the plain loop, which
``attacks.pgd_steps``, ``pgd_attack`` and ``pgd_grid`` must match bit for bit
however many steps they share or skip.

``add_rowvec`` and ``row_log_softmax`` are the two elementary row ops those
compositions need beyond ``tima.tensor``; their op names are the ones the
package's closed forms report in their errors.

The ``plain_*`` kernels are the package's array kernels as the plain numpy
formulas they were written as before they reduced without numpy's wrapper
frames and updated their temporaries in place: ``tima.tensor``'s row kernels,
the attack's logit gradient and the optimizer's momentum step, which the
package must match bit for bit. ``plain_row_norm_error`` and
``plain_bounds_error`` are the row-normalization and attack-result checks as
elementwise comparisons, whose errors the one-reduction checks must raise.
"""

import math
from typing import Callable, Optional

import numpy as np

from tima.errors import ShapeMismatch, TooFewClasses
from tima.losses import (
    LossComponents,
    _check_labels,
    _one_hot,
    cosine_sim_matrix,
    teacher_targets,
)
from tima.tensor import (
    ROW_NORM_FLOOR,
    Tensor,
    _lift,
    backward,
    check_temperature,
    l2_normalize_rows,
    log_softmax_backward,
    log_softmax_forward,
)


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h.

    ``f`` receives a plain ndarray and must return a scalar.
    """
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (float(f(xp)) - float(f(xm))) / (2.0 * h)
    return grad


# -- elementary row ops and the encoders on the tape --------------------------------


def add_rowvec(m, v) -> Tensor:
    """Row-wise broadcast add: (n, d) matrix plus a length-d vector."""
    m, v = _lift(m), _lift(v)
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeMismatch(f"add_rowvec: {m.shape} + {v.shape}")
    return Tensor(m.data + v.data, (m, v), "add_bias",
                  lambda g, i: g if i == 0 else g.sum(axis=0))


def row_log_softmax(s, tau: float) -> Tensor:
    """Row-wise log-softmax of s / tau (see ``log_softmax_forward``)."""
    check_temperature(tau)
    s = _lift(s)
    if s.ndim != 2:
        raise ShapeMismatch(f"row_log_softmax needs a matrix, got {s.shape}")
    out = log_softmax_forward(s.data, tau)
    return Tensor(out, (s,), "log_softmax",
                  lambda g, i: log_softmax_backward(g, out, tau))


def tape_encode_images(encoder, x) -> Tensor:
    """``encoder.encode_images(x)`` as elementary tape ops: affine layers with
    tanh, an affine output layer, then row normalization."""
    xt = x if isinstance(x, Tensor) else Tensor(x, op="const")
    if xt.ndim != 2 or xt.shape[1] != encoder.cfg.input_dim:
        raise ShapeMismatch(
            f"expected (n, {encoder.cfg.input_dim}) images, got {xt.shape}")
    h = xt
    for w, b in encoder.layers:
        h = add_rowvec(h @ w, b).tanh()
    return l2_normalize_rows(add_rowvec(h @ encoder.out_w, encoder.out_b))


def tape_encode_classes(model) -> Tensor:
    """``model.encode_classes()`` as two elementary tape ops."""
    return l2_normalize_rows(model.class_table @ model.text_proj)


def tape_ce_input_grad(encoder, text_matrix, x, y) -> np.ndarray:
    """d/dx of -sum_i log softmax(z_i text^T / tau)[y_i], through ``backward``."""
    xt = Tensor(x, op="leaf")
    z = tape_encode_images(encoder, xt)
    log_p = row_log_softmax(cosine_sim_matrix(z, text_matrix), encoder.tau)
    mask = Tensor(_one_hot(np.asarray(y), log_p.shape[1]), op="const")
    loss = (log_p * mask).sum() * -1.0
    return backward(loss, [xt])[xt]


# -- the training losses on the tape ----------------------------------------------


def _const(x) -> Tensor:
    return Tensor(x.data if isinstance(x, Tensor) else x, op="const")


def _mhe(t) -> Tensor:
    t = _lift(t)
    if t.ndim != 2:
        raise ShapeMismatch(f"mhe_loss needs a matrix, got {t.shape}")
    c, d = t.shape
    if c < 2:
        raise TooFewClasses(f"need at least 2 class embeddings, got {c}")
    gram = t @ t.T
    sq = (t * t) @ Tensor(np.ones((d, 1)), op="const")
    by_row = sq @ Tensor(np.ones((1, c)), op="const")
    dist_sq = by_row + by_row.T - gram * 2.0
    energy = Tensor(np.ones((c, c)), op="const") / (dist_sq + 1.0)
    off_diag = Tensor(1.0 - np.eye(c), op="const")
    return (energy * off_diag).sum() * (1.0 / (c * (c - 1)))


def _kl(logits_p, logits_q, tau: float) -> Tensor:
    logits_p, logits_q = _lift(logits_p), _lift(logits_q)
    if logits_p.ndim != 2 or logits_p.shape != logits_q.shape:
        raise ShapeMismatch(f"kl_rows: {logits_p.shape} vs {logits_q.shape}")
    log_p = row_log_softmax(logits_p, tau)
    log_q = row_log_softmax(logits_q, tau)
    n = logits_p.shape[0]
    return (log_p.exp() * (log_p - log_q)).sum() * (1.0 / n)


def _iakd(teacher_z, teacher_t, student_t, tau: float) -> Tensor:
    tz, tt, st = _const(teacher_z), _const(teacher_t), _lift(student_t)
    if tt.shape != st.shape:
        raise ShapeMismatch(f"iakd_loss: teacher text {tt.shape} vs student text {st.shape}")
    return _kl(cosine_sim_matrix(tz, tt), cosine_sim_matrix(tz, st), tau)


def _takd(teacher_z, teacher_t, student_adv_z, tau: float) -> Tensor:
    tz, tt, sz = _const(teacher_z), _const(teacher_t), _lift(student_adv_z)
    if tz.shape != sz.shape:
        raise ShapeMismatch(f"takd_loss: teacher z {tz.shape} vs student z {sz.shape}")
    return _kl(cosine_sim_matrix(tz, tt), cosine_sim_matrix(sz, tt), tau)


def _tam(s_adv, margin, y, tau: float) -> Tensor:
    s = _lift(s_adv)
    if s.ndim != 2:
        raise ShapeMismatch(f"tam_loss needs a similarity matrix, got {s.shape}")
    n, c = s.shape
    y = _check_labels(y, c, n)
    margin = np.asarray(getattr(margin, "data", margin), dtype=np.float64)
    if margin.shape != (n, c):
        raise ShapeMismatch(f"margin shape {margin.shape} != sims shape {(n, c)}")
    log_probs = row_log_softmax(s - Tensor(margin, op="const"), tau)
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), y] = 1.0
    return (log_probs * Tensor(one_hot, op="const")).sum() * (-1.0 / n)


def tape_tima_loss(student, teacher, x_clean, x_adv, y, w, *, targets=None,
                   student_text=None):
    """``losses.tima_loss`` on the tape: TAM + lam_v*TAKD + lam*(MHE + lam_t*IAKD),
    zero-weighted branches skipped. ``student_text``, when given, should come
    from ``tape_encode_classes``."""
    t_hat = teacher.t_hat
    n = np.asarray(x_adv).shape[0]
    y = _check_labels(y, t_hat.shape[0], n)
    if targets is None:
        targets = teacher_targets(teacher, x_clean, y, w)
    teacher_z, margin = targets.z, targets.margin
    if teacher_z.shape[0] != n:
        raise ShapeMismatch(f"tima_loss: {teacher_z.shape[0]} teacher rows for {n} samples")

    z_adv = tape_encode_images(student, x_adv)
    s_adv = cosine_sim_matrix(z_adv, Tensor(t_hat, op="const"))
    tam = _tam(s_adv, margin, y, w.tau)
    total = tam

    takd_val = 0.0
    if w.lam_v > 0.0:
        takd = _takd(teacher_z, t_hat, z_adv, w.tau)
        total = total + takd * w.lam_v
        takd_val = takd.item()

    mhe_val = 0.0
    iakd_val = 0.0
    if w.lam > 0.0:
        student_t = tape_encode_classes(student) if student_text is None else student_text
        mhe = _mhe(student_t)
        text_branch = mhe
        mhe_val = mhe.item()
        if w.lam_t > 0.0:
            iakd = _iakd(teacher_z, t_hat, student_t, w.tau)
            text_branch = text_branch + iakd * w.lam_t
            iakd_val = iakd.item()
        total = total + text_branch * w.lam

    comps = LossComponents(total=total.item(), tam=tam.item(),
                           takd=takd_val, mhe=mhe_val, iakd=iakd_val)
    return total, comps


def tape_contrastive_ce(model, x, y) -> Tensor:
    """``harness.contrastive_ce`` on the tape."""
    z = tape_encode_images(model, x)
    t = tape_encode_classes(model)
    log_p = row_log_softmax(cosine_sim_matrix(z, t), model.tau)
    n, c = log_p.shape
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), y] = 1.0
    return (log_p * Tensor(one_hot, op="const")).sum() * (-1.0 / n)


# -- the attack as a plain loop ----------------------------------------------------


def plain_pgd(grad: Callable[[np.ndarray], np.ndarray], x_center, x_start,
              eps: float, step_size: float, steps: int) -> np.ndarray:
    """Every one of ``steps`` signed-gradient steps from ``x_start``, each
    projected with ``np.clip`` into the l-inf ball of radius ``eps`` around
    ``x_center``, cut to [0, 1]. ``grad(x)`` is the input gradient at ``x``."""
    lo = np.maximum(x_center - eps, 0.0)
    hi = np.minimum(x_center + eps, 1.0)
    x = np.array(x_start, dtype=np.float64)
    for _ in range(steps):
        x = np.clip(x + step_size * np.sign(grad(x)), lo, hi)
    return x


def plain_pgd_attack(grad: Callable[[np.ndarray], np.ndarray],
                     ce: Callable[[np.ndarray], np.ndarray], x, cfg) -> np.ndarray:
    """``attacks.pgd_attack`` from ``plain_pgd`` runs: one from ``x``, one from
    each of ``cfg.restarts`` seeded uniform points of the ball, and per sample
    the run with the highest cross-entropy ``ce`` (the earliest on ties)."""
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xAD)))
    starts = [x] + [np.clip(x + rng.uniform(-cfg.eps, cfg.eps, size=x.shape), 0.0, 1.0)
                    for _ in range(cfg.restarts)]
    runs = [plain_pgd(grad, x, start, cfg.eps, cfg.step_size, cfg.steps) for start in starts]
    best, best_ce = runs[0], ce(runs[0])
    for run in runs[1:]:
        run_ce = ce(run)
        best = np.where((run_ce > best_ce)[:, None], run, best)
        best_ce = np.maximum(best_ce, run_ce)
    return best


# -- the kernels as plain formulas -------------------------------------------------


def plain_normalize_rows(m):
    """(unit rows, row norms) of ``m``, as ``normalize_rows_forward``."""
    norms = np.sqrt(np.sum(m * m, axis=1, keepdims=True))
    return m / norms, norms


def plain_row_norm_error(m) -> Optional[str]:
    """The DegenerateRow message of ``normalize_rows_forward(m)``, or None,
    from a compare-and-reduce pass per condition: a norm below the floor
    (checked first), then one whose square overflowed to inf. NaN norms
    satisfy neither, and ``argmin``/``argmax`` name the first NaN row."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(m * m, axis=1, keepdims=True))
    if np.any(norms < ROW_NORM_FLOOR):
        bad = int(norms.argmin())
        return f"row {bad} has norm {norms[bad, 0]:.3e} < {ROW_NORM_FLOOR}"
    if np.any(norms == np.inf):
        bad = int(norms.argmax())
        return f"row {bad} has norm {math.hypot(*m[bad]):.3e}: its square overflows"
    return None


def plain_bounds_error(best_x, x, eps: float) -> Optional[str]:
    """The AttackOutOfBounds message for an attack result ``best_x`` around
    ``x``, or None, from elementwise comparisons: NaN fails each of them."""
    if not np.all(np.abs(best_x - x) <= eps + 1e-9):
        return f"attack result left the eps={eps} ball"
    if not np.all((best_x >= 0.0) & (best_x <= 1.0)):
        return "attack result left the pixel range [0, 1]"
    return None


def plain_normalize_rows_backward(g, out, norms):
    dots = np.sum(g * out, axis=1, keepdims=True)
    return (g - out * dots) / norms


def plain_log_softmax(s, tau: float):
    a = s / tau
    shifted = a - np.max(a, axis=1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def plain_log_softmax_backward(g, out, tau: float):
    p = np.exp(out)
    return (g - p * np.sum(g, axis=1, keepdims=True)) / tau


def plain_ce_logit_grad(log_p, y, tau: float):
    """The attack's logit gradient through the log-softmax pullback: the
    gradient -onehot(y) of -sum_i log_p[i, y_i], pulled back."""
    return plain_log_softmax_backward(-_one_hot(np.asarray(y), log_p.shape[1]), log_p, tau)


def plain_momentum(weights, grads, lr: float, mu: float):
    """The weights after one SGD-momentum step per gradient list of ``grads``,
    out of place: v = mu v + g; w = w - lr v."""
    weights = [w.copy() for w in weights]
    velocity = [np.zeros_like(w) for w in weights]
    for step in grads:
        velocity = [mu * v + g for v, g in zip(velocity, step)]
        weights = [w - lr * v for w, v in zip(weights, velocity)]
    return weights
