"""Reference implementations the tests check the package against.

``finite_diff_grad`` is independent of the tape, so it can cross-check
``backward``; ``tape_ce_input_grad`` is the attack's input gradient taken
through the tape, which the closed-form ``attacks._ce_input_grad`` must match
bit for bit.
"""

from typing import Callable

import numpy as np

from tima.attacks import _one_hot
from tima.losses import cosine_sim_matrix
from tima.tensor import Tensor, backward, row_log_softmax


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


def tape_ce_input_grad(encoder, text_matrix, x, y) -> np.ndarray:
    """d/dx of -sum_i log softmax(z_i text^T / tau)[y_i], through ``backward``."""
    xt = Tensor(x, op="leaf")
    z = encoder.encode_images(xt)
    log_p = row_log_softmax(cosine_sim_matrix(z, text_matrix), encoder.tau)
    mask = Tensor(_one_hot(np.asarray(y), log_p.shape[1]), op="const")
    loss = (log_p * mask).sum() * -1.0
    return backward(loss, [xt])[xt]
