"""Dense float64 tensors with a reverse-mode differentiation tape.

Every operation returns a fresh node wired to its parents, so graphs are
acyclic by construction and a creation-order topological sort always exists.
Gradients are computed by :func:`backward` as a pure function of the graph:
nothing is cached on the nodes, so repeated calls give identical results.
Besides the elementary operations here, a node may be a whole closed form
over its direct inputs: the image encoder over its weights and pixels
(``DualEncoder.encode_images``), or a loss term over the embeddings
(``losses.tam_loss`` and the others). No command builds a node: training,
the attack and evaluation read the closed forms (``DualEncoder.image_forward``
and ``text_forward``, ``losses.tima_loss``) without the tape, which serves the
tests' reference compositions and the benchmark's probes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateRow,
    InvalidTemperature,
    NonFiniteValue,
    NonScalarLoss,
    ShapeMismatch,
)

Array = np.ndarray

ROW_NORM_FLOOR = 1e-12


class Tensor:
    """A value in the computation graph plus the recipe for its gradient.

    Leaf tensors (no parents) are the differentiable inputs. ``data`` is
    always a float64 ndarray; non-finite values raise at the producing
    operation rather than propagating silently. ``backward_fn(g, i)`` maps
    the gradient ``g`` of this node to the contribution of parent ``i``.
    """

    __slots__ = ("data", "parents", "op", "_backward")

    def __init__(self, data, parents: Sequence["Tensor"] = (), op: str = "leaf",
                 backward_fn: Optional[Callable[[Array, int], Array]] = None):
        self.data = check_finite(np.asarray(data, dtype=np.float64), op)
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward_fn

    # -- introspection -----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    # -- elementwise arithmetic --------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        _check_elementwise(self, other, "add")
        return Tensor(self.data + other.data, (self, other), "add",
                      lambda g, i: _fit(g, self.shape if i == 0 else other.shape))

    def __sub__(self, other):
        other = _lift(other)
        _check_elementwise(self, other, "sub")
        return Tensor(self.data - other.data, (self, other), "sub",
                      lambda g, i: _fit(g, self.shape) if i == 0 else _fit(-g, other.shape))

    def __mul__(self, other):
        other = _lift(other)
        _check_elementwise(self, other, "mul")
        return Tensor(self.data * other.data, (self, other), "mul",
                      lambda g, i: (_fit(g * other.data, self.shape) if i == 0
                                    else _fit(g * self.data, other.shape)))

    def __truediv__(self, other):
        other = _lift(other)
        _check_elementwise(self, other, "div")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.data / other.data
        return Tensor(out, (self, other), "div",
                      lambda g, i: (_fit(g / other.data, self.shape) if i == 0
                                    else _fit(-g * self.data / (other.data * other.data),
                                              other.shape)))

    # -- linear algebra ------------------------------------------------------

    def __matmul__(self, other):
        other = _lift(other)
        if self.ndim != 2 or other.ndim != 2 or self.shape[1] != other.shape[0]:
            raise ShapeMismatch(
                f"matmul: {self.shape} @ {other.shape}")
        return Tensor(self.data @ other.data, (self, other), "matmul",
                      lambda g, i: g @ other.data.T if i == 0 else self.data.T @ g)

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ShapeMismatch(f"transpose needs a matrix, got shape {self.shape}")
        return Tensor(self.data.T, (self,), "transpose", lambda g, i: g.T)

    # -- reductions ----------------------------------------------------------

    def sum(self) -> "Tensor":
        return Tensor(self.data.sum(), (self,), "sum",
                      lambda g, i: np.full(self.shape, float(g)))

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self) -> "Tensor":
        with np.errstate(over="ignore"):
            out = np.exp(self.data)
        t = Tensor(out, (self,), "exp", None)
        t._backward = lambda g, i: g * out
        return t

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        t = Tensor(out, (self,), "tanh", None)
        t._backward = lambda g, i: g * (1.0 - out * out)
        return t


def check_finite(a: Array, op: str) -> Array:
    """``a`` itself, or NonFiniteValue naming ``op`` when any entry is inf/NaN."""
    if not (math.isfinite(a) if a.ndim == 0 else np.logical_and.reduce(np.isfinite(a), None)):
        raise NonFiniteValue(f"non-finite values produced by op '{op}'")
    return a


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    # same shape, or one side scalar (0-d); no general broadcasting
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeMismatch(f"{op}: {a.shape} vs {b.shape}")


def _fit(grad: Array, shape: tuple) -> Array:
    """Reduce a gradient to a scalar operand's shape after scalar broadcast."""
    if grad.shape == shape:
        return grad
    return grad.sum().reshape(shape)


# -- array kernels: the math of the row ops, shared with tape-free callers -------
# They reduce with ``ufunc.reduce``: ``np.sum`` and the like add a Python frame per call.


def normalize_rows_forward(m: Array) -> tuple[Array, Array]:
    """(unit rows, row norms) of a matrix.

    Raises DegenerateRow when any row norm falls below 1e-12: a zero vector
    has no direction, so normalizing it would silently fabricate one; nor
    may a squared norm overflow to inf, which would scale the row to zero.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(m * m, axis=1, keepdims=True))
    # fmin and fmax skip NaN norms, as the comparisons ``norms < floor`` and
    # ``norms == inf`` do; ``initial`` lets them reduce no rows
    if np.fmin.reduce(norms, None, initial=math.inf) < ROW_NORM_FLOOR:
        bad = int(norms.argmin())
        raise DegenerateRow(f"row {bad} has norm {norms[bad, 0]:.3e} < {ROW_NORM_FLOOR}")
    if np.fmax.reduce(norms, None, initial=-math.inf) == math.inf:
        bad = int(norms.argmax())
        raise DegenerateRow(f"row {bad} has norm {math.hypot(*m[bad]):.3e}: its square overflows")
    return m / norms, norms


def normalize_rows_backward(g: Array, out: Array, norms: Array) -> Array:
    """Input gradient of row normalization: per row (g - y (g.y)) / ||x||."""
    grad = out * np.add.reduce(g * out, axis=1, keepdims=True)
    return np.divide(np.subtract(g, grad, out=grad), norms, out=grad)


def check_temperature(tau) -> None:
    if not (isinstance(tau, (int, float)) and tau > 0 and math.isfinite(tau)):
        raise InvalidTemperature(f"tau must be a positive finite number, got {tau!r}")


def log_softmax_forward(s: Array, tau: float) -> Array:
    """Log of the row-wise softmax of s / tau, computed stably.

    Uses max-subtraction so the result is exact even at tau = 0.01 with
    logits of magnitude 1e4, where the direct exp would overflow.
    """
    shifted = s / tau
    # the row maxima, taken down the columns of a contiguous transposed copy:
    # the same values, at a fraction of the cost of reducing each short row
    shifted -= np.maximum.reduce(np.ascontiguousarray(shifted.T), axis=0)[:, None]
    return np.subtract(shifted, np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True)),
                       out=shifted)


def log_softmax_backward(g: Array, out: Array, tau: float) -> Array:
    """Gradient with respect to s, given the gradient ``g`` of the log-probabilities ``out``."""
    grad = np.exp(out)
    grad *= np.add.reduce(g, axis=1, keepdims=True)
    return np.divide(np.subtract(g, grad, out=grad), tau, out=grad)


def l2_normalize_rows(m: Tensor) -> Tensor:
    """Scale every row of a matrix to unit Euclidean norm (see
    ``normalize_rows_forward`` for the DegenerateRow floor)."""
    m = _lift(m)
    if m.ndim != 2:
        raise ShapeMismatch(f"l2_normalize_rows needs a matrix, got {m.shape}")
    out, norms = normalize_rows_forward(m.data)
    return Tensor(out, (m,), "l2_normalize_rows",
                  lambda g, i: normalize_rows_backward(g, out, norms))


def backward(loss: Tensor, leaves: Optional[Iterable[Tensor]] = None) -> Dict[Tensor, Array]:
    """Gradients of a scalar loss with respect to leaf tensors.

    Accumulates in reverse topological order with a fixed node numbering, so
    results are bit-deterministic and repeat calls over the same graph return
    identical values. Leaves with no path to the loss get exact zeros.

    Returns a dict keyed by the leaf Tensor objects themselves. When
    ``leaves`` is None, every leaf reachable from ``loss`` is reported.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise NonScalarLoss("backward requires a scalar loss node")

    topo: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in reversed(node.parents):
            if p not in seen:
                stack.append((p, False))

    if leaves is None:
        leaves = [n for n in topo if not n.parents]

    grads: Dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.get(node)
        if g is None or node._backward is None:
            continue
        for i, parent in enumerate(node.parents):
            contrib = node._backward(g, i)
            acc = grads.get(parent)
            grads[parent] = contrib if acc is None else acc + contrib

    out: Dict[Tensor, Array] = {}
    for leaf in leaves:
        g = grads.get(leaf)
        out[leaf] = np.zeros_like(leaf.data) if g is None else np.asarray(g, dtype=np.float64)
    return out
