"""Seeded synthetic image dataset with a superclass/subclass hierarchy.

Each superclass gets a random base pattern; subclasses perturb that base, so
classes sharing a superclass look alike. That gives the margin logic real
"semantically close" classes to trigger on, and gives the text-text
similarity matrices a block structure worth preserving.

Pixels are quantized to the 256-level grid at generation time, matching the
1/255 perturbation granularity and making the 8-bit on-disk format lossless.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptFile, InvalidSpec, LabelOutOfRange, UnstorableDataset
from .files import Reader, read_file, write_atomic

Array = np.ndarray

DATASET_MAGIC = b"TIMD"
DATASET_VERSION = 1
_SAVE_CHUNK = 1 << 16  # float64 elements quantized per step of save_dataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Sizes and scales have no defaults here: the config schema
    (``tima.config.SCHEMA``) is their one source."""

    num_superclasses: int
    subclasses_per_superclass: int
    image_side: int
    within_super_shift: float
    noise_sigma: float
    train_count: int
    test_count: int
    seed: int = 0

    def __post_init__(self):
        counts = (self.num_superclasses, self.subclasses_per_superclass,
                  self.image_side, self.train_count, self.test_count)
        if any(c < 1 for c in counts):
            raise InvalidSpec(f"counts must be >= 1: {self}")
        if not all(0 <= v < math.inf for v in (self.noise_sigma, self.within_super_shift)):
            raise InvalidSpec(f"noise/shift must be finite and >= 0: {self}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")

    @property
    def num_classes(self) -> int:
        return self.num_superclasses * self.subclasses_per_superclass

    @property
    def input_dim(self) -> int:
        return self.image_side * self.image_side


@dataclass
class Dataset:
    images: Array                # (n, side^2) float64 in [0, 1]
    labels: Array                # (n,) class ids
    superclass_of: Array         # (num_classes,) superclass ids
    image_side: int

    @property
    def num_classes(self) -> int:
        return len(self.superclass_of)

    @property
    def num_samples(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and self.image_side == other.image_side
                and np.array_equal(self.images, other.images)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.superclass_of, other.superclass_of))


def class_prototypes(spec: SyntheticSpec) -> Array:
    """The noiseless per-class patterns (num_classes x side^2)."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(3)[0])
    d = spec.input_dim
    protos = np.empty((spec.num_classes, d))
    for s in range(spec.num_superclasses):
        base = rng.uniform(0.0, 1.0, size=d)
        for k in range(spec.subclasses_per_superclass):
            c = s * spec.subclasses_per_superclass + k
            protos[c] = base + spec.within_super_shift * rng.standard_normal(d)
    return protos


def _balanced_counts(total: int, num_classes: int) -> Array:
    counts = np.full(num_classes, total // num_classes, dtype=np.int64)
    counts[: total % num_classes] += 1
    return counts


def _sample_split(protos: Array, spec: SyntheticSpec, rng, total: int) -> Dataset:
    """Each class's rows are drawn and quantized in place in the one image array."""
    counts = _balanced_counts(total, spec.num_classes)
    images = np.empty((total, spec.input_dim))
    start = 0
    for c, n_c in enumerate(counts):
        block = images[start:start + n_c]
        start += n_c
        rng.standard_normal(out=block)
        block *= spec.noise_sigma
        block += protos[c]
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        np.round(block, out=block)
        block /= 255.0
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), counts)
    superclass_of = np.repeat(np.arange(spec.num_superclasses, dtype=np.int64),
                              spec.subclasses_per_superclass)
    return Dataset(images=images, labels=labels, superclass_of=superclass_of,
                   image_side=spec.image_side)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) pair; the splits use disjoint seed streams."""
    _, train_ss, test_ss = np.random.SeedSequence(spec.seed).spawn(3)
    protos = class_prototypes(spec)
    train = _sample_split(protos, spec, np.random.default_rng(train_ss), spec.train_count)
    test = _sample_split(protos, spec, np.random.default_rng(test_ss), spec.test_count)
    return train, test


# -- on-disk format -------------------------------------------------------------
#
#   magic "TIMD" | u32 version | u32 num_classes | u32 num_superclasses
#   | u32 image_side | u32 n | u16*num_classes superclass map | u16*n labels
#   | u8*(n*side^2) pixels
#
# Little-endian throughout. Pixels are stored as round(p * 255); load widens
# back to float64 p/255, which is bit-exact because save rejects a pixel off
# that grid.


def _u16(values: Array, what: str) -> bytes:
    if len(values) and not (values.min() >= 0 and values.max() <= 0xFFFF):
        raise UnstorableDataset(f"{what} span [{values.min()}, {values.max()}], "
                                f"beyond the file's u16 range")
    return values.astype("<u2").tobytes()


def _reject_pixel(chunk: Array, start: int):
    q = np.round(chunk * 255.0)
    i = np.argwhere(~((q >= 0.0) & (q <= 255.0) & (q / 255.0 == chunk)))[0]
    raise UnstorableDataset(f"pixel {chunk[tuple(i)]} in row {start + i[0]} would load back "
                            f"as another value: pixels must lie on the 1/255 grid of [0, 1]")


def save_dataset(d: Dataset, path) -> None:
    """Raises UnstorableDataset, before anything is written, when the file
    would not load back as ``d``: images not shaped (samples, image_side^2),
    more than 65536 classes, a label or superclass id outside u16, or a pixel
    off the 1/255 grid of [0, 1]."""
    n, dim = d.num_samples, d.image_side ** 2
    if d.images.shape != (n, dim):
        raise UnstorableDataset(f"images shaped {d.images.shape}, not ({n}, {dim}) for "
                                f"{n} labels of side {d.image_side}")
    if d.num_classes > 0x10000:
        raise UnstorableDataset(f"{d.num_classes} classes; the file holds at most 65536")
    supers, labels = _u16(d.superclass_of, "superclass ids"), _u16(d.labels, "labels")
    num_supers = int(d.superclass_of.max()) + 1 if d.num_classes else 0
    head = struct.pack("<4sIIIII", DATASET_MAGIC, DATASET_VERSION, d.num_classes,
                       num_supers, d.image_side, n) + supers + labels
    # pixels are quantized a chunk of rows at a time straight into the file's bytes
    blob = bytearray(len(head) + n * dim)
    blob[:len(head)] = head
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=len(head)).reshape(n, dim)
    rows = max(1, _SAVE_CHUNK // max(1, dim))
    scaled = np.empty((rows, dim))
    for start in range(0, n, rows):
        chunk = d.images[start:start + rows]
        q = np.multiply(chunk, 255.0, out=scaled[:len(chunk)])
        np.round(q, out=q)
        in_range = q.min() >= 0.0 and q.max() <= 255.0  # False on NaN
        if in_range:
            pixels[start:start + len(chunk)] = q
            q /= 255.0
        if not (in_range and np.array_equal(q, chunk)):
            _reject_pixel(chunk, start)
    write_atomic(path, blob, "dataset")


def load_dataset(path) -> Dataset:
    r = Reader(read_file(path, "dataset"), path, DATASET_MAGIC, DATASET_VERSION, "dataset file")
    num_classes, num_supers, side, n = r.unpack("<IIII")
    superclass_of = np.frombuffer(r.take(2 * num_classes), dtype="<u2").astype(np.int64)
    labels = np.frombuffer(r.take(2 * n), dtype="<u2").astype(np.int64)
    images = np.frombuffer(r.take(n * side * side), dtype=np.uint8).astype(np.float64) / 255.0
    r.finish()
    if n and labels.max() >= num_classes:
        raise LabelOutOfRange(f"{path}: label {labels.max()} in a {num_classes}-class file")
    supers_used = int(superclass_of.max()) + 1 if num_classes else 0
    if supers_used != num_supers:
        raise CorruptFile(f"{path}: superclass ids span {supers_used} superclasses, "
                          f"header declares {num_supers}")
    return Dataset(images=images.reshape(n, side * side), labels=labels,
                   superclass_of=superclass_of, image_side=side)
