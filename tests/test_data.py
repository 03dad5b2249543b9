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
    save_dataset,
)
from tima.errors import (
    BadMagic,
    CorruptFile,
    InvalidSpec,
    LabelOutOfRange,
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
            assert d.images.min() >= 0.0 and d.images.max() <= 1.0

    def test_counts_and_shapes(self):
        train, test = generate_synthetic(small_spec())
        assert train.num_samples == 40 and test.num_samples == 17
        assert train.images.shape == (40, 16)
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
            h.update(d.images.tobytes() + d.labels.tobytes() + d.superclass_of.tobytes())
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
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0


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
    def test_pixel_that_would_not_round_trip_rejected(self, tmp_path, pixel):
        # 0.5 is off the 1/255 grid; the rest are outside [0, 1]. Each used to
        # be written and loaded back as another value.
        train, _ = generate_synthetic(small_spec())
        images = train.images.copy()
        images[5, 3] = pixel
        path = tmp_path / "d.timd"
        with pytest.raises(UnstorableDataset, match="row 5 "):
            save_dataset(dataclasses.replace(train, images=images), path)
        assert not path.exists()

    def test_more_classes_than_u16_labels_rejected(self, tmp_path):
        # label 70000 of a 70001-class set used to load as 4464
        n = 70001
        d = Dataset(images=np.zeros((1, 1)), labels=np.array([n - 1]),
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

    @pytest.mark.parametrize("images", [np.zeros((40, 9)), np.zeros((39, 16))])
    def test_images_off_shape_rejected(self, tmp_path, images):
        # a side-4 set of 40 labels must hold 40 x 16 pixels; either file used
        # to be written and then fail to load as truncated
        train, _ = generate_synthetic(small_spec())
        path = tmp_path / "d.timd"
        with pytest.raises(UnstorableDataset, match="images shaped"):
            save_dataset(dataclasses.replace(train, images=images), path)
        assert not path.exists()

    def test_65536_classes_round_trip(self, tmp_path):
        n = 65536
        d = Dataset(images=np.array([[0.0], [1.0]]), labels=np.array([0, n - 1]),
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
    with and what it still holds on return)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - max(start, held)


class TestOneFloat64Copy:
    """Generating or saving a dataset holds no second full-size float64 copy of
    its images: the peak stays under a fraction of the training set's size."""

    spec = parse_config("").synthetic_spec()

    def test_generate_synthetic(self):
        (train, _), extra = _traced_peak(lambda: generate_synthetic(self.spec))
        assert extra < train.images.nbytes / 4

    def test_save_dataset(self, tmp_path):
        train, _ = generate_synthetic(self.spec)
        _, extra = _traced_peak(lambda: save_dataset(train, tmp_path / "d.timd"))
        assert extra < train.images.nbytes / 2
