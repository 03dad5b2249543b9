"""Toy dual encoder: feed-forward image encoder + class-text embedding table.

The image side is a small tanh MLP; the text side is a learnable per-class
embedding table with a linear projection, standing in for a text encoder over
fixed per-class prompts. Both sides emit unit-norm rows, and classification
is nearest text embedding by cosine similarity.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from .errors import CorruptFile, InvalidConfig, ShapeMismatch, TruncatedFile, _is_int
from .files import Reader, read_file, write_atomic
from .tensor import (
    Tensor,
    check_finite,
    normalize_rows_backward,
    normalize_rows_forward,
)

Array = np.ndarray

CHECKPOINT_MAGIC = b"TIMM"
CHECKPOINT_VERSION = 1

DEFAULT_TAU = 0.01
_SEED_LIMIT = 2 ** 64  # a checkpoint stores the seed as a u64


@dataclass(frozen=True)
class EncoderConfig:
    """Dimensions have no defaults here: the config schema
    (``tima.config.SCHEMA``) is their one source."""

    input_dim: int
    hidden_dims: Tuple[int, ...]
    embed_dim: int
    num_classes: int
    seed: int = 0

    def __post_init__(self):
        dims = (self.input_dim, self.embed_dim, self.num_classes) + tuple(self.hidden_dims)
        if not all(_is_int(n) for n in dims + (self.seed,)):
            raise InvalidConfig(f"dimensions and seed must be integers: {self}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(d < 1 for d in dims):
            raise InvalidConfig(f"all dimensions must be >= 1: {self}")
        if self.embed_dim < 2:
            raise InvalidConfig(f"embed_dim must be >= 2, got {self.embed_dim}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise InvalidConfig(f"seed must lie in [0, 2**64), got {self.seed}")


class ImagePass(NamedTuple):
    """``DualEncoder.image_forward``'s unit-row embeddings and their two
    pullbacks: ``weights(g_z)`` gives one gradient per ``image_parameters()``
    entry, ``pixels(g_z)`` the gradient of the input pixels."""

    z: Array
    weights: Callable[[Array], List[Array]]
    pixels: Callable[[Array], Array]


class TextPass(NamedTuple):
    """``DualEncoder.text_forward``'s unit-row class text and its pullback:
    ``weights(g_t)`` gives one gradient per ``text_parameters()`` entry."""

    t: Array
    weights: Callable[[Array], List[Array]]


class DualEncoder:
    """Trainable image encoder (theta) and class-text table (phi).

    Parameters are Tensor leaves that persist across training steps; the
    optimizer updates their ``data`` in place.
    """

    def __init__(self, cfg: EncoderConfig, layers: List[Tuple[Tensor, Tensor]],
                 out_layer: Tuple[Tensor, Tensor], class_table: Tensor,
                 text_proj: Tensor, tau: float = DEFAULT_TAU):
        if not 0.0 < tau < float("inf"):
            raise InvalidConfig(f"model temperature must be positive and finite, got {tau}")
        self.cfg = cfg
        self.layers = layers
        self.out_w, self.out_b = out_layer
        self.class_table = class_table
        self.text_proj = text_proj
        self.tau = float(tau)

    # -- parameter access ----------------------------------------------------

    def image_parameters(self) -> List[Tensor]:
        """theta: every weight the image branch trains."""
        params = []
        for w, b in self.layers:
            params.extend([w, b])
        params.extend([self.out_w, self.out_b])
        return params

    def text_parameters(self) -> List[Tensor]:
        """phi: every weight the text branch trains."""
        return [self.class_table, self.text_proj]

    def parameters(self) -> List[Tensor]:
        return self.image_parameters() + self.text_parameters()

    # -- forward -------------------------------------------------------------

    def encode_images(self, x) -> Tensor:
        """Batch of images -> unit-norm embeddings, as one tape node over the
        image parameters and, when ``x`` is a Tensor, its pixels. ``backward``
        gets their gradients from ``image_forward``'s pullbacks. No command
        calls it: it serves the tests and the benchmark."""
        xt = x if isinstance(x, Tensor) else None
        image = self.image_forward(
            xt.data if xt is not None else check_finite(np.asarray(x, dtype=np.float64), "const"))
        params = self.image_parameters()
        return Tensor(image.z, params + ([] if xt is None else [xt]), "encode_images",
                      lambda g, i: image.weights(g)[i] if i < len(params) else image.pixels(g))

    def image_forward(self, x: Array) -> "ImagePass":
        """The image branch on a float64 pixel array, without the tape. It is
        the one image forward: training, the attack, scoring and
        ``encode_images`` all take their embeddings from it.

        ``z`` and the pullbacks equal, bit for bit and with the same checks
        under the same op names, what the elementary tape composition (affine
        layers, tanh, row normalization) gives; the caller checks that ``x``
        itself is finite, under its own op name. For an embedding gradient
        ``g_z`` the pixel pullback forms no weight gradient, and the weight
        pullback forms none for the pixels.
        """
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise ShapeMismatch(
                f"expected (n, {self.cfg.input_dim}) images, got {x.shape}")
        affine = self.layers + [(self.out_w, self.out_b)]
        inputs = [x]  # what each affine layer multiplies: x, then each tanh output
        for w, b in self.layers:
            pre = check_finite(check_finite(inputs[-1] @ w.data, "matmul") + b.data, "add_bias")
            inputs.append(check_finite(np.tanh(pre), "tanh"))
        out = check_finite(check_finite(inputs[-1] @ self.out_w.data, "matmul") + self.out_b.data,
                           "add_bias")
        z, norms = normalize_rows_forward(out)
        check_finite(z, "l2_normalize_rows")

        def pullback(g_z: Array, to_pixels: bool):
            g = normalize_rows_backward(g_z, z, norms)
            grads: List[Array] = []
            for k in range(len(affine) - 1, 0, -1):
                if not to_pixels:
                    grads[:0] = [inputs[k].T @ g, np.add.reduce(g, axis=0)]
                a = inputs[k]
                g = (g @ affine[k][0].data.T) * (1.0 - a * a)
            if to_pixels:
                return g @ affine[0][0].data.T
            return [inputs[0].T @ g, np.add.reduce(g, axis=0)] + grads

        return ImagePass(z, lambda g_z: pullback(g_z, False), lambda g_z: pullback(g_z, True))

    def encode_classes(self) -> Tensor:
        """Class-text embedding matrix (num_classes x embed_dim, unit rows),
        as one tape node over both text weights; ``backward`` gets their
        gradients from ``text_forward``'s pullback. No command calls it: it
        serves the tests and the benchmark."""
        text = self.text_forward()
        return Tensor(text.t, self.text_parameters(), "encode_classes",
                      lambda g, i: text.weights(g)[i])

    def text_forward(self) -> "TextPass":
        """The text branch without the tape: ``class_table @ text_proj`` with
        its rows normalized, and the pullback of a class-text gradient to
        both weights, bit for bit the elementary tape composition (matmul,
        row normalization) with its checks under its op names."""
        table, proj = self.class_table.data, self.text_proj.data
        t, norms = normalize_rows_forward(check_finite(table @ proj, "matmul"))

        def weights(g_t: Array) -> List[Array]:
            g_m = normalize_rows_backward(g_t, t, norms)
            return [g_m @ proj.T, table.T @ g_m]

        return TextPass(t, weights)

    # -- copying / hashing ----------------------------------------------------

    def clone(self, frozen: bool = False) -> "DualEncoder":
        def dup(t: Tensor) -> Tensor:
            arr = t.data.copy()
            if frozen:
                arr.flags.writeable = False
            return Tensor(arr, op="leaf")

        layers = [(dup(w), dup(b)) for w, b in self.layers]
        model = DualEncoder(self.cfg, layers, (dup(self.out_w), dup(self.out_b)),
                            dup(self.class_table), dup(self.text_proj), self.tau)
        return model

    def weights_blob(self) -> bytes:
        parts = [struct.pack("<d", self.tau)]
        for p in self.parameters():
            parts.append(p.data.tobytes())
        return b"".join(parts)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.weights_blob()).hexdigest()


class TeacherSnapshot:
    """Deep, immutable copy of a dual encoder with its class-text matrix cached.

    The backing arrays are write-protected; nothing in the system mutates a
    snapshot after construction, so it can be shared freely. Unpickling
    snapshots the pickled weights again, so a copy is write-protected too.
    """

    def __init__(self, model: DualEncoder):
        self.model = model.clone(frozen=True)
        self.tau = self.model.tau
        t_hat = self.model.text_forward().t
        t_hat.flags.writeable = False
        self.t_hat = t_hat

    def __reduce__(self):
        return TeacherSnapshot, (self.model,)

    def encode_images(self, x) -> Array:
        """Forward pass through the frozen weights; plain values."""
        return self.model.image_forward(check_finite(np.asarray(x, dtype=np.float64), "const")).z

    def fingerprint(self) -> str:
        return self.model.fingerprint()


def init_model(cfg: EncoderConfig, tau: float = DEFAULT_TAU) -> DualEncoder:
    """Seeded init: uniform weights scaled by 1/sqrt(fan_in), zero biases."""
    rng = np.random.default_rng(cfg.seed)

    def uniform(fan_in: int, shape) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), op="leaf")

    layers = []
    fan_in = cfg.input_dim
    for width in cfg.hidden_dims:
        w = uniform(fan_in, (fan_in, width))
        b = Tensor(np.zeros(width), op="leaf")
        layers.append((w, b))
        fan_in = width
    out_w = uniform(fan_in, (fan_in, cfg.embed_dim))
    out_b = Tensor(np.zeros(cfg.embed_dim), op="leaf")
    class_table = uniform(cfg.embed_dim, (cfg.num_classes, cfg.embed_dim))
    text_proj = uniform(cfg.embed_dim, (cfg.embed_dim, cfg.embed_dim))
    return DualEncoder(cfg, layers, (out_w, out_b), class_table, text_proj, tau)


def snapshot_teacher(model: DualEncoder) -> TeacherSnapshot:
    return TeacherSnapshot(model)


# -- checkpoint file format ---------------------------------------------------
#
#   magic "TIMM" | u32 version | u32 input_dim | u32 n_hidden | u32*n hidden
#   | u32 embed_dim | u32 num_classes | u64 seed | f64 tau | u32 n_tensors
#   | per tensor: u32 rank, u32*rank dims, f64*prod(dims) values
#
# Everything little-endian; round trip is bit-exact.


def save_model(model: DualEncoder, path) -> None:
    cfg = model.cfg
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    hidden = cfg.hidden_dims
    chunks.append(struct.pack(f"<II{len(hidden)}I", cfg.input_dim, len(hidden), *hidden))
    chunks.append(struct.pack("<IIQd", cfg.embed_dim, cfg.num_classes,
                              cfg.seed, model.tau))
    tensors = model.parameters()
    chunks.append(struct.pack("<I", len(tensors)))
    for t in tensors:
        arr = t.data
        chunks.append(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    write_atomic(path, b"".join(chunks), "checkpoint")


def _parameter_shapes(cfg: EncoderConfig) -> List[Tuple[int, ...]]:
    """Shapes of ``DualEncoder.parameters()`` for ``cfg``, in order."""
    widths = (cfg.input_dim,) + cfg.hidden_dims
    shapes: List[Tuple[int, ...]] = []
    for fan_in, width in zip(widths, widths[1:]):
        shapes += [(fan_in, width), (width,)]
    e = cfg.embed_dim
    return shapes + [(widths[-1], e), (e,), (cfg.num_classes, e), (e, e)]


def load_model(path) -> DualEncoder:
    r = Reader(read_file(path, "checkpoint"), path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
               "model checkpoint")
    input_dim, n_hidden = r.unpack("<II")
    hidden = r.unpack(f"<{n_hidden}I")
    embed_dim, num_classes, seed, tau = r.unpack("<IIQd")
    cfg = EncoderConfig(input_dim=input_dim, hidden_dims=hidden,
                        embed_dim=embed_dim, num_classes=num_classes, seed=seed)
    shapes = _parameter_shapes(cfg)
    count, = r.unpack("<I")
    if count != len(shapes):
        raise TruncatedFile(f"{path}: expected {len(shapes)} tensors, found {count}")
    tensors = []
    for i, shape in enumerate(shapes):
        rank, = r.unpack("<I")
        dims = r.unpack(f"<{rank}I")
        if dims != shape:
            raise CorruptFile(f"{path}: tensor {i} has shape {dims}, header implies {shape}")
        arr = np.frombuffer(r.take(8 * math.prod(dims)), dtype="<f8").reshape(dims).copy()
        tensors.append(Tensor(arr, op="leaf"))
    r.finish()
    layers = [(tensors[2 * i], tensors[2 * i + 1]) for i in range(len(hidden))]
    k = 2 * len(hidden)
    return DualEncoder(cfg, layers, (tensors[k], tensors[k + 1]),
                       tensors[k + 2], tensors[k + 3], tau)
