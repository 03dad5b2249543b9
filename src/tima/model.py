"""Toy dual encoder: feed-forward image encoder + class-text embedding table.

The image side is a small tanh MLP; the text side is a learnable per-class
embedding table with a linear projection, standing in for a text encoder over
fixed per-class prompts. Both sides emit unit-norm rows, and classification
is nearest text embedding by cosine similarity.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import (
    BadMagic,
    CorruptFile,
    InvalidConfig,
    IoFailure,
    ShapeMismatch,
    TruncatedFile,
    UnsupportedVersion,
)
from .files import write_atomic
from .tensor import (
    Tensor,
    add_rowvec,
    check_finite,
    l2_normalize_rows,
    normalize_rows_backward,
    normalize_rows_forward,
)

Array = np.ndarray

CHECKPOINT_MAGIC = b"TIMM"
CHECKPOINT_VERSION = 1

DEFAULT_TAU = 0.01


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
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        dims = (self.input_dim, self.embed_dim, self.num_classes) + self.hidden_dims
        if any(d < 1 for d in dims):
            raise InvalidConfig(f"all dimensions must be >= 1: {self}")
        if self.embed_dim < 2:
            raise InvalidConfig(f"embed_dim must be >= 2, got {self.embed_dim}")


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
        """Batch of images -> unit-norm embeddings, differentiable in both
        the parameters and the input pixels (the latter drives the attack)."""
        xt = x if isinstance(x, Tensor) else Tensor(x, op="const")
        if xt.ndim != 2 or xt.shape[1] != self.cfg.input_dim:
            raise ShapeMismatch(
                f"expected (n, {self.cfg.input_dim}) images, got {xt.shape}")
        h = xt
        for w, b in self.layers:
            h = add_rowvec(h @ w, b).tanh()
        out = add_rowvec(h @ self.out_w, self.out_b)
        return l2_normalize_rows(out)

    def image_input_vjp(self, x) -> Tuple[Array, Callable[[Array], Array]]:
        """``encode_images`` on plain arrays, plus its pullback to the pixels.

        Returns ``(z, vjp)``: ``z`` equals ``encode_images(x).data`` bit for
        bit, with the same finiteness checks under the same op names, and
        ``vjp(g_z)`` is the input gradient ``backward`` would give for an
        embedding gradient ``g_z``, term for term in the tape's order. No
        weight gradient is formed.
        """
        x = check_finite(np.asarray(x, dtype=np.float64), "leaf")
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise ShapeMismatch(
                f"expected (n, {self.cfg.input_dim}) images, got {x.shape}")
        acts = []
        h = x
        for w, b in self.layers:
            pre = check_finite(check_finite(h @ w.data, "matmul") + b.data, "add_rowvec")
            h = check_finite(np.tanh(pre), "tanh")
            acts.append(h)
        out = check_finite(check_finite(h @ self.out_w.data, "matmul") + self.out_b.data,
                           "add_rowvec")
        z, norms = normalize_rows_forward(out)
        check_finite(z, "l2_normalize_rows")

        def vjp(g_z: Array) -> Array:
            g = normalize_rows_backward(g_z, z, norms) @ self.out_w.data.T
            for (w, _), a in zip(reversed(self.layers), reversed(acts)):
                g = (g * (1.0 - a * a)) @ w.data.T
            return g

        return z, vjp

    def encode_classes(self) -> Tensor:
        """Class-text embedding matrix (num_classes x embed_dim, unit rows)."""
        return l2_normalize_rows(self.class_table @ self.text_proj)

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
        t_hat = self.model.encode_classes().data
        t_hat.flags.writeable = False
        self.t_hat = t_hat

    def __reduce__(self):
        return TeacherSnapshot, (self.model,)

    def encode_images(self, x) -> Array:
        """Forward pass through the frozen weights; plain values, no graph."""
        return self.model.encode_images(np.asarray(x, dtype=np.float64)).data

    def encode_classes(self) -> Array:
        return self.t_hat

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
    chunks.append(struct.pack("<II", cfg.input_dim, len(cfg.hidden_dims)))
    for h in cfg.hidden_dims:
        chunks.append(struct.pack("<I", h))
    chunks.append(struct.pack("<IIQd", cfg.embed_dim, cfg.num_classes,
                              cfg.seed, model.tau))
    tensors = model.parameters()
    chunks.append(struct.pack("<I", len(tensors)))
    for t in tensors:
        arr = t.data
        chunks.append(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            chunks.append(struct.pack("<I", d))
        chunks.append(arr.astype("<f8").tobytes())
    write_atomic(path, b"".join(chunks), "checkpoint")


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedFile(f"{self.path}: expected {n} more bytes at offset {self.pos}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def done(self) -> bool:
        return self.pos == len(self.blob)


def _parameter_shapes(cfg: EncoderConfig) -> List[Tuple[int, ...]]:
    """Shapes of ``DualEncoder.parameters()`` for ``cfg``, in order."""
    widths = (cfg.input_dim,) + cfg.hidden_dims
    shapes: List[Tuple[int, ...]] = []
    for fan_in, width in zip(widths, widths[1:]):
        shapes += [(fan_in, width), (width,)]
    e = cfg.embed_dim
    return shapes + [(widths[-1], e), (e,), (cfg.num_classes, e), (e, e)]


def load_model(path) -> DualEncoder:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(blob, path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a model checkpoint")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersion(f"{path}: version {version}")
    input_dim = r.u32()
    hidden = tuple(r.u32() for _ in range(r.u32()))
    embed_dim = r.u32()
    num_classes = r.u32()
    seed = r.u64()
    tau = r.f64()
    cfg = EncoderConfig(input_dim=input_dim, hidden_dims=hidden,
                        embed_dim=embed_dim, num_classes=num_classes, seed=seed)
    shapes = _parameter_shapes(cfg)
    count = r.u32()
    if count != len(shapes):
        raise TruncatedFile(f"{path}: expected {len(shapes)} tensors, found {count}")
    tensors = []
    for i, shape in enumerate(shapes):
        dims = tuple(r.u32() for _ in range(r.u32()))
        if dims != shape:
            raise CorruptFile(f"{path}: tensor {i} has shape {dims}, header implies {shape}")
        arr = np.frombuffer(r.take(8 * int(np.prod(dims))), dtype="<f8").reshape(dims).copy()
        tensors.append(Tensor(arr, op="leaf"))
    if not r.done():
        raise CorruptFile(f"{path}: {len(blob) - r.pos} trailing bytes after offset {r.pos}")
    layers = [(tensors[2 * i], tensors[2 * i + 1]) for i in range(len(hidden))]
    k = 2 * len(hidden)
    return DualEncoder(cfg, layers, (tensors[k], tensors[k + 1]),
                       tensors[k + 2], tensors[k + 3], tau)
