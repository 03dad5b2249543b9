import pickle
import struct

import numpy as np
import pytest

from tima.errors import (
    BadMagic,
    CorruptFile,
    DegenerateRow,
    InvalidConfig,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedFile,
    UnsupportedVersion,
)
from tima.model import (
    EncoderConfig,
    init_model,
    load_model,
    save_model,
    snapshot_teacher,
)
from tima.tensor import Tensor, backward

from oracles import tape_encode_images


def tiny_cfg(seed=0, hidden=(5,)):
    return EncoderConfig(input_dim=6, hidden_dims=hidden, embed_dim=4,
                         num_classes=3, seed=seed)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_model(tiny_cfg(seed=7))
        b = init_model(tiny_cfg(seed=7))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = init_model(tiny_cfg(seed=1))
        b = init_model(tiny_cfg(seed=2))
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.parameters(), b.parameters()))

    def test_no_hidden_layers_is_single_linear(self):
        m = init_model(tiny_cfg(hidden=()))
        x = np.random.default_rng(0).uniform(0, 1, (5, 6))
        assert m.encode_images(x).shape == (5, 4)
        assert len(m.affine) == 1

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            EncoderConfig(input_dim=0, hidden_dims=(5,), embed_dim=4, num_classes=3)
        with pytest.raises(InvalidConfig):
            EncoderConfig(input_dim=6, hidden_dims=(5,), embed_dim=1, num_classes=3)

    def test_negative_seed_rejected(self):
        # before init_model hands it to default_rng
        with pytest.raises(InvalidConfig, match="seed"):
            EncoderConfig(input_dim=6, hidden_dims=(5,), embed_dim=4, num_classes=3, seed=-1)

    def test_seed_a_checkpoint_cannot_store_rejected(self):
        # before training: save_model packs the seed as a u64
        with pytest.raises(InvalidConfig, match="seed"):
            tiny_cfg(seed=2 ** 64)

    @pytest.mark.parametrize("field,value", [("hidden_dims", (1.5,)), ("hidden_dims", (True,)),
                                             ("embed_dim", 2.5), ("embed_dim", 4.0),
                                             ("input_dim", 6.0), ("num_classes", True),
                                             ("seed", 1.5), ("seed", False)])
    def test_non_integer_counts_rejected(self, field, value):
        # int() truncated a (1.5,) hidden width to a width-1 layer
        kw = dict(input_dim=6, hidden_dims=(5,), embed_dim=4, num_classes=3, seed=0)
        with pytest.raises(InvalidConfig, match="integers"):
            EncoderConfig(**{**kw, field: value})


class TestEncode:
    def setup_method(self):
        self.model = init_model(tiny_cfg())
        self.x = np.random.default_rng(1).uniform(0, 1, (8, 6))

    def test_unit_rows(self):
        z = self.model.encode_images(self.x).data
        assert np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) < 1e-12
        t = self.model.encode_classes().data
        assert np.max(np.abs(np.linalg.norm(t, axis=1) - 1.0)) < 1e-12

    def test_batch_equivariance(self):
        perm = np.random.default_rng(2).permutation(len(self.x))
        z = self.model.encode_images(self.x).data
        z_perm = self.model.encode_images(self.x[perm]).data
        assert np.array_equal(z[perm], z_perm)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            self.model.encode_images(np.ones((3, 7)))

    def test_encode_classes_deterministic(self):
        t1 = self.model.encode_classes().data
        t2 = self.model.encode_classes().data
        assert np.array_equal(t1, t2)

    def test_image_loss_gives_phi_zero_gradient(self):
        z = self.model.encode_images(self.x)
        loss = (z * z).sum()
        grads = backward(loss, self.model.parameters())
        for p in self.model.text_parameters():
            assert np.all(grads[p] == 0.0)
        assert any(np.any(grads[p] != 0.0) for p in self.model.image_parameters())

    def test_input_gradient_flows(self):
        xt = Tensor(self.x)
        loss = self.model.encode_images(xt).sum()
        assert np.any(backward(loss, [xt])[xt] != 0.0)


def encoder_case(hidden, seed):
    cfg = EncoderConfig(input_dim=6, hidden_dims=hidden, embed_dim=4, num_classes=3, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(0.05, 0.95, size=(9, 6))
    return init_model(cfg), x, rng.normal(size=(9, 4))


class TestEncodeImagesMatchesTape:
    """``encode_images`` is one closed-form node over the image weights and
    the pixels; the elementary tape composition is the reference, bit for
    bit."""

    @pytest.mark.parametrize("hidden", [(), (5,), (128,)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("requested", ["weights", "pixels", "both"])
    def test_value_and_gradients_bitwise(self, hidden, seed, requested):
        model, x, g_z = encoder_case(hidden, seed)
        xt = Tensor(x, op="leaf")
        leaves = {"weights": model.image_parameters(), "pixels": [xt],
                  "both": model.image_parameters() + [xt]}[requested]
        results = []
        for encode in (model.encode_images, lambda x: tape_encode_images(model, x)):
            z = encode(xt)
            grads = backward((z * Tensor(g_z, op="const")).sum(), leaves)
            results.append((z.data, [grads[leaf] for leaf in leaves]))
        (z_closed, g_closed), (z_tape, g_tape) = results
        assert np.array_equal(z_closed, z_tape)
        for a, b in zip(g_closed, g_tape):
            assert np.array_equal(a, b)

    def test_plain_array_input_has_no_pixel_parent(self):
        model, x, _ = encoder_case((5,), 0)
        z = model.encode_images(x)
        assert list(z.parents) == model.image_parameters()
        assert np.array_equal(z.data, tape_encode_images(model, x).data)

    def _both_raise(self, error, model, x):
        with pytest.raises(error) as closed_exc:
            model.encode_images(x)
        with pytest.raises(error) as tape_exc:
            tape_encode_images(model, x)
        assert str(closed_exc.value) == str(tape_exc.value)

    def test_inf_weight(self):
        model, x, _ = encoder_case((5,), 0)
        model.affine[0][0].data[0, 0] = np.inf
        self._both_raise(NonFiniteValue, model, x)

    def test_nan_pixel(self):
        model, x, _ = encoder_case((5,), 0)
        x[2, 1] = np.nan
        self._both_raise(NonFiniteValue, model, x)

    def test_zero_output_row(self):
        # a black image through a linear encoder with zero bias embeds to 0
        model, x, _ = encoder_case((), 0)
        x[3] = 0.0
        self._both_raise(DegenerateRow, model, x)

    def test_wrong_width(self):
        model, x, _ = encoder_case((5,), 0)
        self._both_raise(ShapeMismatch, model, x[:, :5])


class TestTeacherSnapshot:
    def test_student_updates_leave_teacher_unchanged(self):
        model = init_model(tiny_cfg(seed=3))
        teacher = snapshot_teacher(model)
        before = teacher.fingerprint()
        for p in model.parameters():
            p.data += 1.0
        assert teacher.fingerprint() == before

    def test_teacher_matches_student_at_snapshot(self):
        model = init_model(tiny_cfg(seed=4))
        teacher = snapshot_teacher(model)
        x = np.random.default_rng(5).uniform(0, 1, (4, 6))
        assert np.array_equal(teacher.encode_images(x), model.encode_images(x).data)
        assert np.array_equal(teacher.t_hat, model.encode_classes().data)

    def test_two_snapshots_identical(self):
        model = init_model(tiny_cfg(seed=6))
        assert snapshot_teacher(model).fingerprint() == snapshot_teacher(model).fingerprint()

    def test_snapshot_arrays_immutable(self):
        teacher = snapshot_teacher(init_model(tiny_cfg()))
        with pytest.raises(ValueError):
            teacher.t_hat[0, 0] = 5.0
        with pytest.raises(ValueError):
            teacher.model.class_table.data[0, 0] = 5.0

    def test_pickled_snapshot_stays_read_only(self):
        teacher = snapshot_teacher(init_model(tiny_cfg(seed=7)))
        copy = pickle.loads(pickle.dumps(teacher))
        assert copy.fingerprint() == teacher.fingerprint()
        assert np.array_equal(copy.t_hat, teacher.t_hat)
        assert not copy.t_hat.flags.writeable
        assert not any(p.data.flags.writeable for p in copy.model.parameters())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(tiny_cfg(seed=9), tau=0.02)
        path = tmp_path / "model.timm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.cfg == model.cfg
        assert loaded.tau == model.tau
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(pa.data, pb.data)
        assert loaded.fingerprint() == model.fingerprint()

    def test_round_trip_largest_seed(self, tmp_path):
        model = init_model(tiny_cfg(seed=2 ** 64 - 1))
        path = tmp_path / "model.timm"
        save_model(model, path)
        assert load_model(path).cfg.seed == 2 ** 64 - 1

    def test_round_trip_no_hidden(self, tmp_path):
        model = init_model(tiny_cfg(seed=9, hidden=()))
        path = tmp_path / "model.timm"
        save_model(model, path)
        assert load_model(path).fingerprint() == model.fingerprint()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.timm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            load_model(path)

    def test_truncated(self, tmp_path):
        model = init_model(tiny_cfg())
        path = tmp_path / "model.timm"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFile):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        model = init_model(tiny_cfg())
        path = tmp_path / "model.timm"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersion):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.timm"
        save_model(init_model(tiny_cfg()), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_tensor_shape_contradicts_header(self, tmp_path):
        # declare embed_dim 5 in the header; the tensors stay shaped for 4
        path = tmp_path / "model.timm"
        save_model(init_model(tiny_cfg(hidden=())), path)
        blob = bytearray(path.read_bytes())
        offset = 4 + 4 + 4 + 4  # magic, version, input_dim, hidden count
        assert struct.unpack_from("<I", blob, offset)[0] == 4
        struct.pack_into("<I", blob, offset, 5)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_tensor_size_past_int64_is_truncated(self, tmp_path):
        # input_dim = the hidden width = 2**32 - 1: tensor 0 declares
        # (2**32 - 1)**2 values, whose byte count no int64 holds
        big = 2**32 - 1
        path = tmp_path / "model.timm"
        path.write_bytes(b"TIMM" + struct.pack("<IIIIIIQdIIII", 1, big, 1, big, 4, 2, 0, 0.07,
                                               6, 2, big, big))
        with pytest.raises(TruncatedFile, match="expected 147573952520956936200 more bytes"):
            load_model(path)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature_rejected(self, tmp_path, tau):
        path = tmp_path / "model.timm"
        save_model(init_model(tiny_cfg(hidden=()), tau=0.02), path)
        blob = bytearray(path.read_bytes())
        # magic, version, input_dim, hidden count, embed_dim, num_classes, seed
        offset = 4 + 4 + 4 + 4 + 4 + 4 + 8
        assert struct.unpack_from("<d", blob, offset)[0] == 0.02
        struct.pack_into("<d", blob, offset, tau)
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidConfig):
            load_model(path)
