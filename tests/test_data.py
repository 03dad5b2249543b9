import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tima.cli import main
from tima.config import parse_config
from tima.data import (
    Dataset,
    SyntheticSpec,
    class_prototypes,
    generate_synthetic,
    load_dataset,
    pixels,
    save_dataset,
)
from tima.errors import (
    BadMagic,
    CorruptFile,
    InvalidSpec,
    LabelNotInteger,
    LabelOutOfRange,
    ShapeMismatch,
    TruncatedFile,
    UnstorableDataset,
    UnsupportedVersion,
)

from test_golden import CLI_CONFIG


def small_spec(**kw):
    defaults = dict(num_superclasses=3, subclasses_per_superclass=2, image_side=4,
                    within_super_shift=0.1, noise_sigma=0.05,
                    train_count=40, test_count=17, seed=0)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestGenerate:
    def test_deterministic(self):
        a_train, a_test = generate_synthetic(small_spec())
        b_train, b_test = generate_synthetic(small_spec())
        assert a_train == b_train
        assert a_test == b_test

    def test_pixels_in_range(self):
        train, test = generate_synthetic(small_spec(noise_sigma=0.5))
        for d in (train, test):
            p = pixels(d.images)
            assert p.min() == 0.0 and p.max() == 1.0  # sigma 0.5 clips at both ends

    def test_counts_and_shapes(self):
        train, test = generate_synthetic(small_spec())
        assert train.num_samples == 40 and test.num_samples == 17
        assert train.images.shape == (40, 16) and train.images.dtype == np.uint8
        assert train.num_classes == 6

    def test_class_counts_balanced_within_one(self):
        train, _ = generate_synthetic(small_spec(train_count=41))
        counts = np.bincount(train.labels, minlength=train.num_classes)
        assert counts.max() - counts.min() <= 1

    def test_every_label_has_superclass(self):
        train, _ = generate_synthetic(small_spec())
        assert train.superclass_of.shape == (train.num_classes,)
        assert np.all(train.labels < train.num_classes)
        assert np.all(train.superclass_of[train.labels] >= 0)

    def test_train_test_disjoint_streams(self):
        train, test = generate_synthetic(small_spec(train_count=20, test_count=20))
        # same class blocks, different noise draws
        assert not np.array_equal(train.images, test.images)

    @pytest.mark.parametrize("shift,sigma", [(0.15, 0.08), (0.04, 0.05)])
    def test_prototype_correlation_hierarchy(self, shift, sigma):
        # within-superclass prototype correlation exceeds the cross correlation,
        # both on the documented hierarchy point and on the shipped defaults
        spec = SyntheticSpec(num_superclasses=4, subclasses_per_superclass=2,
                             image_side=16, within_super_shift=shift,
                             noise_sigma=sigma, train_count=10, test_count=10, seed=0)
        protos = class_prototypes(spec)
        supers = np.repeat(np.arange(4), 2)
        centered = protos - protos.mean(axis=1, keepdims=True)
        corr = np.corrcoef(centered)
        within, cross = [], []
        for i in range(len(protos)):
            for j in range(i + 1, len(protos)):
                (within if supers[i] == supers[j] else cross).append(corr[i, j])
        assert np.mean(within) > np.mean(cross)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            small_spec(train_count=0)
        with pytest.raises(InvalidSpec):
            small_spec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field,value", [("train_count", 2.5), ("image_side", 2.0),
                                             ("test_count", True), ("num_superclasses", 3.0),
                                             ("subclasses_per_superclass", 2.5),
                                             ("seed", 1.5), ("seed", True)])
    def test_non_integer_counts_rejected(self, field, value):
        # generate_synthetic raised a bare TypeError on these
        with pytest.raises(InvalidSpec, match="integer"):
            small_spec(**{field: value})

    @pytest.mark.parametrize("field", ["noise_sigma", "within_super_shift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, field, value):
        # a NaN scale made every pixel NaN, an infinite one every pixel 0 or 1
        with pytest.raises(InvalidSpec, match="finite"):
            small_spec(**{field: value})

    def test_unbalanced_split_is_pinned(self):
        # 2003 and 97 samples over 9 classes: the first classes get one more
        # sample each, so every class's rows start at a different offset
        spec = SyntheticSpec(num_superclasses=3, subclasses_per_superclass=3, image_side=8,
                             within_super_shift=0.1, noise_sigma=0.2,
                             train_count=2003, test_count=97, seed=5)
        h = hashlib.sha256()
        for d in generate_synthetic(spec):
            # the pixels, as the float64 images were hashed before they were held as codes
            h.update(pixels(d.images).tobytes() + d.labels.tobytes() + d.superclass_of.tobytes())
        assert h.hexdigest() == (
            "8979b71f674d9be79fa0363baf9f26492d61a7497c5849d453fc2f88cce76ce5")

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_label_superclass_totality(self, seed, supers, subs, count):
        spec = SyntheticSpec(num_superclasses=supers, subclasses_per_superclass=subs,
                             image_side=3, within_super_shift=0.1, noise_sigma=0.1,
                             train_count=count, test_count=1, seed=seed)
        train, _ = generate_synthetic(spec)
        counts = np.bincount(train.labels, minlength=train.num_classes)
        assert counts.max() - counts.min() <= 1
        assert np.all(train.superclass_of[train.labels] < supers)
        p = pixels(train.images)
        assert p.min() >= 0.0 and p.max() <= 1.0


class TestDatasetFile:
    def test_round_trip_bit_exact(self, tmp_path):
        train, _ = generate_synthetic(small_spec())
        path = tmp_path / "d.timd"
        save_dataset(train, path)
        loaded = load_dataset(path)
        assert loaded == train

    def test_file_level_round_trip(self, tmp_path):
        train, _ = generate_synthetic(small_spec(seed=3))
        p1, p2 = tmp_path / "a.timd", tmp_path / "b.timd"
        save_dataset(train, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.timd"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_dataset(path)

    def test_truncated_mid_pixels(self, tmp_path):
        train, _ = generate_synthetic(small_spec())
        path = tmp_path / "d.timd"
        save_dataset(train, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(TruncatedFile):
            load_dataset(path)

    def test_unsupported_version(self, tmp_path):
        train, _ = generate_synthetic(small_spec())
        path = tmp_path / "d.timd"
        save_dataset(train, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersion):
            load_dataset(path)

    def saved(self, tmp_path, **fields):
        train, _ = generate_synthetic(small_spec())
        path = tmp_path / "d.timd"
        save_dataset(dataclasses.replace(train, **fields), path)
        return train, path

    def test_label_out_of_range(self, tmp_path):
        train, _ = generate_synthetic(small_spec())
        labels = train.labels.copy()
        labels[3] = 40
        _, path = self.saved(tmp_path, labels=labels)
        with pytest.raises(LabelOutOfRange):
            load_dataset(path)

    @pytest.mark.parametrize("pixel", [0.5, 1.5, -0.2, float("nan"), float("inf")])
    def test_float_images_rejected(self, pixel):
        # a dataset holds 8-bit codes: float pixels are refused when it is
        # built, on the 1/255 grid or off it (0.5) or outside [0, 1] (the
        # rest), so none can reach a file as another value
        train, _ = generate_synthetic(small_spec())
        images = pixels(train.images)
        with pytest.raises(UnstorableDataset, match="uint8"):
            dataclasses.replace(train, images=images)
        images[5, 3] = pixel
        with pytest.raises(UnstorableDataset, match="uint8"):
            dataclasses.replace(train, images=images)

    def test_more_classes_than_u16_labels_rejected(self, tmp_path):
        # label 70000 of a 70001-class set used to load as 4464
        n = 70001
        d = Dataset(images=np.zeros((1, 1), dtype=np.uint8), labels=np.array([n - 1]),
                    superclass_of=np.zeros(n, dtype=np.int64), image_side=1)
        path = tmp_path / "d.timd"
        with pytest.raises(UnstorableDataset, match="70001 classes"):
            save_dataset(d, path)
        assert not path.exists()

    @pytest.mark.parametrize("field, value, what", [
        ("labels", 65542, "labels"), ("superclass_of", -1, "superclass ids")])
    def test_id_beyond_u16_rejected(self, tmp_path, field, value, what):
        # an out-of-range label that fits u16 stays writable (see
        # test_label_out_of_range); label 65542 used to be stored as label 6,
        # and superclass id -1 as 65535
        train, _ = generate_synthetic(small_spec())
        ids = getattr(train, field).copy()
        ids[0] = value
        path = tmp_path / "d.timd"
        with pytest.raises(UnstorableDataset, match=what):
            save_dataset(dataclasses.replace(train, **{field: ids}), path)
        assert not path.exists()

    @pytest.mark.parametrize("images", [np.zeros((40, 9), dtype=np.uint8),
                                        np.zeros((39, 16), dtype=np.uint8),
                                        np.zeros((41, 16), dtype=np.uint8)])
    def test_images_off_shape_rejected(self, images):
        # a side-4 set of 40 labels must hold 40 x 16 pixels. Such a file used
        # to be written and then fail to load as truncated, and a set with an
        # extra image row trained on the first 40 rows only
        train, _ = generate_synthetic(small_spec())
        with pytest.raises(ShapeMismatch, match="images shaped"):
            dataclasses.replace(train, images=images)

    @pytest.mark.parametrize("labels", [np.zeros(40), np.zeros((40, 1), dtype=np.int64),
                                        [0] * 40, np.zeros(40, dtype=bool)],
                             ids=["float", "2-D", "list", "bool"])
    def test_labels_not_a_1d_integer_array_rejected(self, labels):
        train, _ = generate_synthetic(small_spec())
        with pytest.raises(LabelNotInteger, match="1-D integer array"):
            dataclasses.replace(train, labels=labels)

    def test_65536_classes_round_trip(self, tmp_path):
        n = 65536
        d = Dataset(images=np.array([[0], [255]], dtype=np.uint8), labels=np.array([0, n - 1]),
                    superclass_of=np.arange(n) // 2, image_side=1)
        save_dataset(d, tmp_path / "d.timd")
        assert load_dataset(tmp_path / "d.timd") == d

    def test_superclass_ids_contradict_header(self, tmp_path):
        train, path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[12:16] = (int(train.superclass_of.max()) + 2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            load_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CorruptFile):
            load_dataset(path)


# the bytes gen-data writes for the golden CLI pipeline's config, whose own
# digests cover only the later stages' outputs
CLI_DATASETS = {
    "train.timd": "396a249214583bda82ec8a0e5c36dc7910b95acbd61aa9e33155aeef75c99393",
    "test.timd": "36714d580fb4d32cdcd56927ed7c8448e046e66fe0f3ba952445daf8215a228b",
}


def test_cli_datasets_are_pinned(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(CLI_CONFIG)
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in CLI_DATASETS} == CLI_DATASETS


def _traced_peak(fn):
    """(result, bytes the call allocated at its peak beyond what it started
    with and what it still holds on return, bytes it allocated at its peak
    beyond what it started with)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - max(start, held), peak - start


class TestOneFloat64Copy:
    """Generating, saving or loading a dataset holds no full-size float64 copy
    of its images: the peak stays under a fraction of the bytes such a copy
    of the training set takes (2000 x 256 x 8 = 4,096,000)."""

    spec = parse_config("").synthetic_spec()
    float64_copy = spec.train_count * spec.input_dim * 8

    def test_generate_synthetic(self):
        _, extra, _ = _traced_peak(lambda: generate_synthetic(self.spec))
        assert extra < self.float64_copy / 4

    def test_save_dataset(self, tmp_path):
        train, _ = generate_synthetic(self.spec)
        _, extra, _ = _traced_peak(lambda: save_dataset(train, tmp_path / "d.timd"))
        assert extra < self.float64_copy / 2

    def test_load_dataset(self, tmp_path):
        # the bound counts the loaded set too: load holds the file's bytes and
        # one copy of its codes, never a float64 copy of the images
        train, _ = generate_synthetic(self.spec)
        save_dataset(train, tmp_path / "d.timd")
        loaded, _, total = _traced_peak(lambda: load_dataset(tmp_path / "d.timd"))
        assert loaded == train
        assert total < self.float64_copy / 2


def test_pixels_are_the_generators_quantization():
    # every code widens to the value _sample_split's round(v * 255) / 255
    # gives, bit for bit; code * (1 / 255) differs on 24 of them
    codes = np.arange(256, dtype=np.uint8)
    on_grid = np.round(np.linspace(0.0, 1.0, 256) * 255.0) / 255.0
    widened = pixels(codes)
    assert widened.dtype == np.float64 and widened.shape == (256,)
    assert np.array_equal(widened.view(np.uint64), on_grid.view(np.uint64))
    assert np.array_equal(pixels(codes.reshape(16, 16)), on_grid.reshape(16, 16))
    assert np.count_nonzero(codes * (1.0 / 255.0) != widened) == 24
