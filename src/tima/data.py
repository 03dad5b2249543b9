"""Seeded synthetic image dataset with a superclass/subclass hierarchy.

Each superclass gets a random base pattern; subclasses perturb that base, so
classes sharing a superclass look alike. That gives the margin logic real
"semantically close" classes to trigger on, and gives the text-text
similarity matrices a block structure worth preserving.

Pixels are quantized to the 256-level grid at generation time, matching the
1/255 perturbation granularity. A ``Dataset`` holds the 8-bit codes, one byte
per pixel in memory as in its file; ``pixels`` widens the rows a step reads
to float64, so no code path holds a float64 copy of a whole dataset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (CorruptFile, InvalidSpec, LabelNotInteger, LabelOutOfRange, ShapeMismatch,
                     UnstorableDataset, _is_int)
from .files import Reader, read_file, write_atomic

Array = np.ndarray

DATASET_MAGIC = b"TIMD"
DATASET_VERSION = 1


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
        if not all(_is_int(c) and c >= 1 for c in counts):
            raise InvalidSpec(f"counts must be integers >= 1: {self}")
        if not all(0 <= v < math.inf for v in (self.noise_sigma, self.within_super_shift)):
            raise InvalidSpec(f"noise/shift must be finite and >= 0: {self}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise InvalidSpec(f"seed must be an integer >= 0, got {self.seed!r}")

    @property
    def num_classes(self) -> int:
        return self.num_superclasses * self.subclasses_per_superclass

    @property
    def input_dim(self) -> int:
        return self.image_side * self.image_side


def pixels(codes: Array) -> Array:
    """The float64 pixels of 8-bit ``codes``: code q is q / 255, bit for bit
    the value the generator quantizes to (``round(v * 255) / 255``).
    Multiplying by 1/255 instead would differ on 24 of the 256 codes."""
    return np.divide(codes, 255.0, dtype=np.float64)


@dataclass
class Dataset:
    """A labelled image set. ``images`` are the 8-bit pixel codes, shaped
    (n, side^2) uint8; ``pixels`` widens the rows a step reads. Construction
    rejects images that are not such codes, one row per label, and labels
    that are not a 1-D integer array."""

    images: Array                # (n, side^2) uint8 codes; pixel = code / 255
    labels: Array                # (n,) class ids
    superclass_of: Array         # (num_classes,) superclass ids
    image_side: int

    def __post_init__(self):
        labels, images = self.labels, self.images
        if not (isinstance(labels, np.ndarray) and labels.ndim == 1
                and np.issubdtype(labels.dtype, np.integer)):
            raise LabelNotInteger(f"labels must be a 1-D integer array, got "
                                  f"{getattr(labels, 'dtype', type(labels).__name__)} "
                                  f"shaped {np.shape(labels)}")
        if not (isinstance(images, np.ndarray) and images.dtype == np.uint8):
            raise UnstorableDataset(f"images must be uint8 pixel codes (pixel = code / 255), "
                                    f"got {getattr(images, 'dtype', type(images).__name__)}")
        dim = self.image_side ** 2
        if images.shape != (len(labels), dim):
            raise ShapeMismatch(f"images shaped {images.shape}, not ({len(labels)}, {dim}) for "
                                f"{len(labels)} labels of side {self.image_side}")

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
    """The noiseless per-class patterns (num_classes x side^2). A shift
    large enough may overflow a pattern value to +-inf, which the sampled
    pixels clip to 0 or 1."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(3)[0])
    d = spec.input_dim
    protos = np.empty((spec.num_classes, d))
    for s in range(spec.num_superclasses):
        base = rng.uniform(0.0, 1.0, size=d)
        for k in range(spec.subclasses_per_superclass):
            c = s * spec.subclasses_per_superclass + k
            with np.errstate(over="ignore"):
                protos[c] = base + spec.within_super_shift * rng.standard_normal(d)
    return protos


def _balanced_counts(total: int, num_classes: int) -> Array:
    counts = np.full(num_classes, total // num_classes, dtype=np.int64)
    counts[: total % num_classes] += 1
    return counts


def _sample_split(protos: Array, spec: SyntheticSpec, rng, total: int) -> Dataset:
    """Each class's rows are drawn and quantized in one float64 scratch block;
    only their 8-bit codes are kept. Noise that overflows to +-inf clips to 0
    or 1; noise and a pattern value that overflow to opposite infinities
    leave a pixel undefined, and raise InvalidSpec before any code is stored."""
    counts = _balanced_counts(total, spec.num_classes)
    images = np.empty((total, spec.input_dim), dtype=np.uint8)
    scratch = np.empty((int(counts.max()), spec.input_dim))
    start = 0
    for c, n_c in enumerate(counts):
        block = scratch[:n_c]
        rng.standard_normal(out=block)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is the NaN checked next
            block *= spec.noise_sigma
            block += protos[c]
        if np.isnan(block).any():
            raise InvalidSpec(f"noise_sigma {spec.noise_sigma!r} and within_super_shift "
                              f"{spec.within_super_shift!r} overflow to opposite infinities: "
                              f"class {c} has an undefined pixel")
        np.clip(block, 0.0, 1.0, out=block)
        block *= 255.0
        np.round(block, out=block)
        images[start:start + n_c] = block
        start += n_c
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
# Little-endian throughout. The pixel bytes are the dataset's own 8-bit codes,
# so save and load copy them as they are.


def _u16(values: Array, what: str) -> bytes:
    if len(values) and not (values.min() >= 0 and values.max() <= 0xFFFF):
        raise UnstorableDataset(f"{what} span [{values.min()}, {values.max()}], "
                                f"beyond the file's u16 range")
    return values.astype("<u2").tobytes()


def save_dataset(d: Dataset, path) -> None:
    """Raises UnstorableDataset, before anything is written, when the file
    would not load back as ``d``: more than 65536 classes, or a label or
    superclass id outside u16. (``Dataset`` itself guarantees the codes.)"""
    if d.num_classes > 0x10000:
        raise UnstorableDataset(f"{d.num_classes} classes; the file holds at most 65536")
    supers, labels = _u16(d.superclass_of, "superclass ids"), _u16(d.labels, "labels")
    num_supers = int(d.superclass_of.max()) + 1 if d.num_classes else 0
    head = struct.pack("<4sIIIII", DATASET_MAGIC, DATASET_VERSION, d.num_classes,
                       num_supers, d.image_side, d.num_samples) + supers + labels
    write_atomic(path, head + d.images.tobytes(), "dataset")


def load_dataset(path) -> Dataset:
    r = Reader(read_file(path, "dataset"), path, DATASET_MAGIC, DATASET_VERSION, "dataset file")
    num_classes, num_supers, side, n = r.unpack("<IIII")
    superclass_of = np.frombuffer(r.take(2 * num_classes), dtype="<u2").astype(np.int64)
    labels = np.frombuffer(r.take(2 * n), dtype="<u2").astype(np.int64)
    images = np.frombuffer(r.take(n * side * side), dtype=np.uint8)
    r.finish()
    if n and labels.max() >= num_classes:
        raise LabelOutOfRange(f"{path}: label {labels.max()} in a {num_classes}-class file")
    supers_used = int(superclass_of.max()) + 1 if num_classes else 0
    if supers_used != num_supers:
        raise CorruptFile(f"{path}: superclass ids span {supers_used} superclasses, "
                          f"header declares {num_supers}")
    return Dataset(images=images.reshape(n, side * side), labels=labels,
                   superclass_of=superclass_of, image_side=side)
