import dataclasses
import faulthandler
import json
import math
import os
import signal
import sys
import time

import numpy as np
import pytest

from tima import attacks, harness, losses, tensor
from tima.attacks import AttackConfig, robust_accuracy
from tima.config import parse_config
from tima.data import SyntheticSpec, generate_synthetic, pixels
from tima.errors import (
    AttackOutOfBounds,
    DegenerateRow,
    EmptyDataset,
    InvalidConfig,
    InvalidVariant,
    LabelOutOfRange,
    ReportSchemaError,
    ShapeMismatch,
    TooFewClasses,
    WorkerDied,
)
from tima.files import make_dir
from tima.harness import (
    BLAS_THREAD_VARS,
    EvalReport,
    TrainConfig,
    eval_clean,
    evaluate,
    export_similarity_matrices,
    finetune,
    interclass_stats,
    pretrain_clean,
    read_report,
    resolve_variant,
    run_cells,
    superclass_confusion,
    write_report,
)
from tima.losses import LossWeights
from tima.model import DualEncoder, EncoderConfig, TeacherSnapshot, init_model, snapshot_teacher
from tima.tensor import Tensor

from oracles import plain_momentum


def small_data(seed=0):
    spec = SyntheticSpec(num_superclasses=2, subclasses_per_superclass=2,
                         image_side=5, within_super_shift=0.08, noise_sigma=0.06,
                         train_count=160, test_count=60, seed=seed)
    return generate_synthetic(spec)


def small_model(seed=0):
    cfg = EncoderConfig(input_dim=25, hidden_dims=(), embed_dim=6,
                        num_classes=4, seed=seed)
    return init_model(cfg, tau=0.01)


def fast_train_cfg(variant="tima", **kw):
    """A short recipe; ``variant`` is resolved here, as ``RunConfig`` does."""
    defaults = dict(learning_rate=1e-3, momentum=0.9, epochs=3, batch_size=32,
                    loss_weights=LossWeights(),
                    train_attack=AttackConfig(eps=1 / 255, step_size=1 / 255,
                                              steps=2, restarts=0),
                    seed=0)
    defaults.update(kw)
    w, freeze_text, attack = resolve_variant(variant, defaults["loss_weights"],
                                             defaults.get("freeze_text", False),
                                             defaults["train_attack"])
    defaults.update(loss_weights=w, freeze_text=freeze_text, train_attack=attack)
    return TrainConfig(**defaults)


@pytest.mark.parametrize("lr", [0.0, float("nan"), float("inf")])
def test_train_config_rejects_bad_learning_rate(lr):
    with pytest.raises(InvalidConfig, match="learning_rate"):
        fast_train_cfg(learning_rate=lr)


def test_train_config_rejects_a_negative_seed():
    # before any batch is drawn from SeedSequence((seed, stream))
    with pytest.raises(InvalidConfig, match="seed"):
        fast_train_cfg(seed=-1)


@pytest.mark.parametrize("field,value", [("epochs", 2.0), ("epochs", True),
                                         ("batch_size", 2.5), ("seed", 1.5), ("seed", False)])
def test_train_config_rejects_non_integer_counts(field, value):
    # pretrain_clean raised a bare TypeError on these
    with pytest.raises(InvalidConfig, match=f"{field} must be an integer"):
        fast_train_cfg(**{field: value})


class TestPretrain:
    def test_loss_non_increasing_early(self):
        train, _ = small_data()
        model = small_model()
        _, trace = pretrain_clean(model, train, fast_train_cfg(epochs=3))
        assert trace[0] >= trace[1] >= trace[2]

    def test_deterministic(self):
        train, _ = small_data()
        a, _ = pretrain_clean(small_model(), train, fast_train_cfg())
        b, _ = pretrain_clean(small_model(), train, fast_train_cfg())
        assert a.fingerprint() == b.fingerprint()

    def test_learns_above_chance(self):
        train, test = small_data()
        model, _ = pretrain_clean(small_model(), train, fast_train_cfg(epochs=10))
        assert eval_clean(model, test) > 0.5  # chance is 0.25


class TestFinetuneVariants:
    def setup_method(self):
        self.train, self.test = small_data()
        model, _ = pretrain_clean(small_model(), self.train, fast_train_cfg(epochs=5))
        self.pretrained = model
        self.teacher = snapshot_teacher(model)

    def test_unknown_variant(self):
        with pytest.raises(InvalidVariant):
            resolve_variant("bogus", LossWeights(), False, AttackConfig())

    def test_variant_weight_semantics(self):
        w = LossWeights(m=0.1, lam=2.0, lam_t=3.0, lam_v=4.0)
        atk = AttackConfig()
        tecoa_w, freeze, tecoa_atk = resolve_variant("tecoa", w, False, atk)
        assert (tecoa_w.m, tecoa_w.lam, tecoa_w.lam_v) == (0.0, 0.0, 0.0)
        assert freeze and tecoa_atk.text_source == "teacher"
        iat_w, _, _ = resolve_variant("iat_only", w, False, atk)
        assert (iat_w.m, iat_w.lam_v) == (0.0, 0.0) and iat_w.lam == 2.0
        tai_w, freeze, _ = resolve_variant("tai_only", w, False, atk)
        assert tai_w.lam == 0.0 and tai_w.m == 0.1 and freeze
        mhe_w, _, _ = resolve_variant("mhe_only", w, False, atk)
        assert (mhe_w.m, mhe_w.lam_t, mhe_w.lam_v) == (0.0, 0.0, 0.0)
        assert mhe_w.lam == 2.0

    def test_tecoa_freezes_text_bits(self):
        student = self.pretrained.clone()
        before = [p.data.copy() for p in student.text_parameters()]
        finetune(student, self.teacher, self.train, fast_train_cfg(variant="tecoa", epochs=2))
        for prev, p in zip(before, student.text_parameters()):
            assert np.array_equal(prev, p.data)

    def test_tima_moves_both_encoders(self):
        student = self.pretrained.clone()
        before_img = [p.data.copy() for p in student.image_parameters()]
        before_txt = [p.data.copy() for p in student.text_parameters()]
        finetune(student, self.teacher, self.train, fast_train_cfg(variant="tima", epochs=1))
        assert any(not np.array_equal(a, p.data)
                   for a, p in zip(before_img, student.image_parameters()))
        assert any(not np.array_equal(a, p.data)
                   for a, p in zip(before_txt, student.text_parameters()))

    def test_teacher_encodes_each_sample_once(self, monkeypatch):
        rows = []
        original = TeacherSnapshot.encode_images

        def counting(teacher, x):
            rows.append(len(x))
            return original(teacher, x)

        monkeypatch.setattr(TeacherSnapshot, "encode_images", counting)
        finetune(self.pretrained.clone(), self.teacher, self.train,
                 fast_train_cfg(variant="tima", epochs=3))
        assert sum(rows) == self.train.num_samples

    @pytest.mark.parametrize("variant, per_batch", [("tima", 1), ("tecoa", 0)])
    def test_student_text_encoded_once_per_batch(self, monkeypatch, variant, per_batch):
        calls = []
        original = DualEncoder.text_forward

        def counting(model):
            calls.append(1)
            return original(model)

        monkeypatch.setattr(DualEncoder, "text_forward", counting)
        finetune(self.pretrained.clone(), self.teacher, self.train,
                 fast_train_cfg(variant=variant, epochs=3))
        batches = 3 * -(-self.train.num_samples // 32)
        assert len(calls) == per_batch * batches

    def test_teacher_unchanged_by_any_variant(self):
        before = self.teacher.fingerprint()
        for variant in ("tima", "tecoa", "iat_only", "tai_only", "mhe_only"):
            student = self.pretrained.clone()
            finetune(student, self.teacher, self.train,
                     fast_train_cfg(variant=variant, epochs=1))
            assert self.teacher.fingerprint() == before

    def test_tecoa_equals_explicit_reduction(self):
        # the variant switch must reproduce the manually reduced config bit-for-bit
        a = self.pretrained.clone()
        _, trace_a = finetune(a, self.teacher, self.train,
                              fast_train_cfg(variant="tecoa", epochs=2))
        b = self.pretrained.clone()
        reduced = dataclasses.replace(LossWeights(), m=0.0, lam=0.0, lam_v=0.0)
        cfg_b = fast_train_cfg(variant="tima", epochs=2, freeze_text=True,
                               loss_weights=reduced,
                               train_attack=AttackConfig(eps=1 / 255, step_size=1 / 255,
                                                         steps=2, restarts=0,
                                                         text_source="teacher"))
        _, trace_b = finetune(b, self.teacher, self.train, cfg_b)
        assert trace_a == trace_b
        assert a.fingerprint() == b.fingerprint()

    def test_finetune_deterministic(self):
        a = self.pretrained.clone()
        b = self.pretrained.clone()
        _, ta = finetune(a, self.teacher, self.train, fast_train_cfg(variant="tima", epochs=2))
        _, tb = finetune(b, self.teacher, self.train, fast_train_cfg(variant="tima", epochs=2))
        assert ta == tb and a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("stage", ["pretrain_clean", "finetune"])
def test_one_optimizer_step_per_batch(monkeypatch, stage):
    # 160 rows in batches of 48: 4 batches (the last of 16 rows) per epoch
    train, _ = small_data()
    model = small_model()
    steps = []
    original = harness._Momentum.step

    def spy(opt, grads):
        steps.append(1)
        return original(opt, grads)

    cfg = fast_train_cfg(epochs=2, batch_size=48)
    if stage == "pretrain_clean":
        monkeypatch.setattr(harness._Momentum, "step", spy)
        pretrain_clean(model, train, cfg)
    else:
        teacher = snapshot_teacher(model)
        monkeypatch.setattr(harness._Momentum, "step", spy)
        finetune(model.clone(), teacher, train, cfg)
    assert len(steps) == cfg.epochs * math.ceil(train.num_samples / cfg.batch_size) == 8


@pytest.mark.parametrize("stage", ("pretrain",) + harness.VARIANTS)
def test_training_builds_no_tape_node(monkeypatch, stage):
    # contrastive_ce's and tima_loss's closed forms: with every Tensor and
    # backward call failing, a stage gives the same weights and losses
    train, _ = small_data()
    cfg = fast_train_cfg(variant="tima" if stage == "pretrain" else stage,
                         epochs=2, batch_size=48)
    if stage == "pretrain":
        make_model, run = small_model, lambda model: pretrain_clean(model, train, cfg)
    else:
        pretrained = small_model()
        teacher = snapshot_teacher(pretrained)
        make_model, run = pretrained.clone, lambda model: finetune(model, teacher, train, cfg)
    want, want_trace = run(make_model())
    model = make_model()

    def no_tape(*args, **kwargs):
        raise AssertionError("a training step built a tape node")

    monkeypatch.setattr(Tensor, "__init__", no_tape)
    monkeypatch.setattr(tensor, "backward", no_tape)
    _, trace = run(model)
    monkeypatch.undo()
    assert trace == want_trace and model.fingerprint() == want.fingerprint()


def test_momentum_steps_in_place_as_the_plain_update():
    # v = mu v + g; w = w - lr v, out of place, is the reference bit for bit
    rng = np.random.default_rng(4)
    params = [Tensor(rng.normal(size=shape)) for shape in [(5, 3), (3,), (4, 4)]]
    start = [p.data.copy() for p in params]
    grads = [[rng.normal(size=p.shape) * 10.0 ** k for p in params] for k in range(-2, 4)]
    opt = harness._Momentum(params, 0.05, 0.9)
    for step in grads:
        opt.step(dict(zip(params, step)))
    for got, want in zip(params, plain_momentum(start, grads, 0.05, 0.9), strict=True):
        assert np.array_equal(got.data.view(np.uint64), want.view(np.uint64))


class TestEvalClean:
    def test_constant_predictor(self):
        # a model whose images all land on t_0's direction scores 1.0 on label-0 data
        train, _ = small_data()
        model = small_model()
        model.layers = []
        model.out_w = Tensor(np.zeros((25, 6)))
        model.out_b = Tensor(np.zeros(6))
        t0 = model.encode_classes().data[0]
        model.out_b = Tensor(t0 * 2.0)
        all_zero = dataclasses.replace(train, labels=np.zeros_like(train.labels))
        assert eval_clean(model, all_zero) == 1.0

    def test_overflowing_embeddings_raise_at_the_encoder(self):
        # an output bias of 1e160 squares to inf; normalizing by an inf norm
        # made every embedding a zero vector, which scored as class 0
        _, test = small_data()
        model = small_model()
        model.out_b.data[:] = 1e160
        teacher = snapshot_teacher(small_model())
        with pytest.raises(DegenerateRow, match="^row 0 has norm .*: its square overflows$"):
            eval_clean(model, test)
        with pytest.raises(DegenerateRow, match="its square overflows"):
            robust_accuracy(model, teacher, test, AttackConfig(eps=4 / 255, steps=2))

    def test_random_model_near_chance(self):
        spec = SyntheticSpec(num_superclasses=4, subclasses_per_superclass=2,
                             image_side=5, within_super_shift=0.1, noise_sigma=0.08,
                             train_count=8, test_count=500, seed=1)
        _, test = generate_synthetic(spec)
        cfg = EncoderConfig(input_dim=25, hidden_dims=(8,), embed_dim=6,
                            num_classes=8, seed=5)
        acc = eval_clean(init_model(cfg), test)
        assert 0.05 <= acc <= 0.25  # binomial band around 1/8

    def test_empty(self):
        train, _ = small_data()
        empty = dataclasses.replace(train, images=train.images[:0], labels=train.labels[:0])
        with pytest.raises(EmptyDataset):
            eval_clean(small_model(), empty)


class TestInterclassStats:
    def test_antipodal(self):
        mn, mean = interclass_stats(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert mn == pytest.approx(2.0, abs=1e-12)
        assert mean == pytest.approx(2.0, abs=1e-12)

    def test_coincident(self):
        mn, _ = interclass_stats(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert mn == 0.0

    def test_equilateral(self):
        t = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        mn, mean = interclass_stats(t)
        assert mn == pytest.approx(np.sqrt(3), abs=1e-12)
        assert mean == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewClasses):
            interclass_stats(np.array([[1.0, 0.0]]))


class TestSimilarityMatrices:
    def setup_method(self):
        self.train, self.test = small_data()
        model, _ = pretrain_clean(small_model(), self.train, fast_train_cfg(epochs=5))
        self.model = model
        self.teacher = snapshot_teacher(model)
        self.attack = AttackConfig(eps=1 / 255, step_size=1 / 255, steps=2)

    def test_matrix_contracts(self, tmp_path):
        eps_list = [("0", 0.0), ("1/255", 1 / 255)]
        manifest = export_similarity_matrices(self.model, self.teacher, self.test,
                                              eps_list, tmp_path, self.attack)
        c = self.test.num_classes
        for name, files in manifest.items():
            matrix = np.loadtxt(tmp_path / files["csv"], delimiter=",")
            assert matrix.shape == (c, c)
            if "text_text" in name or "adv_adv" in name:
                assert np.allclose(matrix, matrix.T, atol=1e-12)
            if "text_text" in name:
                assert np.allclose(np.diag(matrix), 1.0, atol=1e-9)
            pgm = (tmp_path / files["pgm"]).read_bytes()
            assert pgm.startswith(f"P5\n{c} {c}\n255\n".encode())
            assert len(pgm) == len(f"P5\n{c} {c}\n255\n") + c * c

    def test_teacher_matrices_independent_of_student(self, tmp_path):
        eps_list = [("1/255", 1 / 255)]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        export_similarity_matrices(self.model, self.teacher, self.test, eps_list,
                                   d1, self.attack)
        student = self.model.clone()
        finetune(student, self.teacher, self.train, fast_train_cfg(variant="tima", epochs=1))
        export_similarity_matrices(student, self.teacher, self.test, eps_list,
                                   d2, self.attack)
        for f in d1.glob("teacher_*"):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

    def test_confusion_shape(self):
        counts = np.array(superclass_confusion(self.model, self.test))
        assert counts.shape == (2, 2)
        assert counts.sum() == self.test.num_samples


class TestReports:
    def make_report(self):
        return EvalReport(
            clean_accuracy=0.9375,
            robust_accuracy={"0": 0.9375, "1/255": 0.5, "4/255": 0.125},
            text_min_distance={"student": 0.25, "teacher": 0.2},
            text_mean_distance={"student": 1.0, "teacher": 0.9},
            superclass_confusion=[[10, 2], [1, 12]],
            matrices={"student_text_text": {"csv": "a.csv", "pgm": "a.pgm"}},
            config={"seed": "0", "tau": "0.01"},
            seed=0,
        )

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(self.make_report(), path)
        payload = read_report(path)
        assert payload["clean_accuracy"] == 0.9375
        assert payload["robust_accuracy"] == {"0": 0.9375, "1/255": 0.5, "4/255": 0.125}
        assert payload["text_min_distance"]["student"] == 0.25
        assert payload["seed"] == 0

    def test_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(self.make_report(), p1)
        write_report(self.make_report(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(self.make_report(), path)
        payload = json.loads(path.read_text())
        del payload["robust_accuracy"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ReportSchemaError):
            read_report(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("not json {")
        with pytest.raises(ReportSchemaError):
            read_report(path)

    @pytest.mark.parametrize("blob", [
        b"5",
        json.dumps(list(harness.REPORT_KEYS)).encode("ascii"),
        b'{"seed": "\xff"}',
        b"[" * 100000,
    ], ids=["number", "list of the keys", "not UTF-8", "nested too deep"])
    def test_malformed_report_rejected(self, tmp_path, blob):
        path = tmp_path / "report.json"
        path.write_bytes(blob)
        with pytest.raises(ReportSchemaError):
            read_report(path)

    def test_value_checks_cover_exactly_the_report_keys(self):
        assert sorted(harness._REPORT_CHECKS) == sorted(harness.REPORT_KEYS)

    def test_report_of_fives_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({key: 5 for key in harness.REPORT_KEYS}))
        with pytest.raises(ReportSchemaError, match="'config'"):
            read_report(path)

    @pytest.mark.parametrize("key, value", [
        ("config", {"seed": 0}),
        ("config", ["seed"]),
        ("seed", True),
        ("seed", 0.0),
        ("seed", "0"),
        ("clean_accuracy", 1.5),
        ("clean_accuracy", -0.25),
        ("clean_accuracy", float("nan")),
        ("clean_accuracy", False),
        ("robust_accuracy", {"1/255": 2}),
        ("robust_accuracy", [0.5]),
        ("text_min_distance", {"student": -1.0}),
        ("text_min_distance", {"student": float("inf")}),
        ("text_mean_distance", {"teacher": "0.9"}),
        ("matrices", {"student_text_text": "a.csv"}),
        ("matrices", {"student_text_text": {"csv": 1}}),
        ("superclass_confusion", [[10, 2]]),
        ("superclass_confusion", [[10, -2], [1, 12]]),
        ("superclass_confusion", [[10.0, 2], [1, 12]]),
        ("superclass_confusion", [[True, 2], [1, 12]]),
        ("superclass_confusion", "10 2 1 12"),
        ("seed", -1),
        ("seed", 2 ** 70),
    ])
    def test_bad_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "report.json"
        write_report(self.make_report(), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ReportSchemaError, match=f"'{key}'"):
            read_report(path)

    def test_evaluate_full_report(self, tmp_path):
        train, test = small_data()
        model, _ = pretrain_clean(small_model(), train, fast_train_cfg(epochs=5))
        teacher = snapshot_teacher(model)
        eps_list = [("0", 0.0), ("1/255", 1 / 255)]
        report = evaluate(model, teacher, test, eps_list,
                          attack=AttackConfig(steps=2), matrices_dir=tmp_path / "m",
                          config_echo={"seed": "0"}, seed=0)
        assert set(report.robust_accuracy) == {"0", "1/255"}
        assert report.robust_accuracy["0"] == report.clean_accuracy
        assert 0.0 <= report.clean_accuracy <= 1.0
        assert report.text_min_distance["student"] == report.text_min_distance["teacher"]
        write_report(report, tmp_path / "report.json")
        assert read_report(tmp_path / "report.json")["seed"] == 0


class TestSingleAttackPass:
    """evaluate attacks each (model, eps) once: the student's robust numbers
    and adversarial matrices come from the same adversarial batches."""

    def setup_method(self):
        # 300 test rows: three 128-row attack batches with distinct seeds
        spec = SyntheticSpec(num_superclasses=2, subclasses_per_superclass=2,
                             image_side=5, within_super_shift=0.08, noise_sigma=0.06,
                             train_count=160, test_count=300, seed=0)
        self.train, self.test = generate_synthetic(spec)
        pretrained, _ = pretrain_clean(small_model(), self.train, fast_train_cfg(epochs=5))
        self.teacher = snapshot_teacher(pretrained)
        self.student, _ = finetune(pretrained.clone(), self.teacher, self.train,
                                   fast_train_cfg(variant="tima", epochs=1))
        self.eps_list = parse_config("").eval_eps()

    @pytest.fixture()
    def one_worker(self, monkeypatch):
        # the spies below count in this process: run every pass in it
        monkeypatch.setattr(harness, "_cell_workers", lambda count: 1)

    @pytest.mark.parametrize("text_source", ["student", "teacher"])
    def test_matches_separate_attacks(self, tmp_path, text_source):
        attack = AttackConfig(steps=2, restarts=1, seed=3, text_source=text_source)
        report = evaluate(self.student, self.teacher, self.test, self.eps_list,
                          attack=attack, matrices_dir=tmp_path / "joint")
        for eps_text, eps in self.eps_list:
            alone = robust_accuracy(self.student, self.teacher, self.test,
                                    dataclasses.replace(attack, eps=eps))
            assert report.robust_accuracy[eps_text] == alone
        export_similarity_matrices(self.student, self.teacher, self.test, self.eps_list,
                                   tmp_path / "alone", attack)
        joint = sorted((tmp_path / "joint").iterdir())
        alone = sorted((tmp_path / "alone").iterdir())
        assert [p.name for p in joint] == [p.name for p in alone]
        for a, b in zip(joint, alone):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.usefixtures("one_worker")
    def test_default_grid_attacks_each_batch_once(self, tmp_path, monkeypatch):
        # 500 rows = 4 batches; per batch one grid call for the student's 4
        # eps and one for the teacher's: 8 grids of 4 attacks, 32 distinct
        # (model, eps, batch seed) attacks, of which the 8 at eps 0 take no step
        spec = SyntheticSpec(num_superclasses=2, subclasses_per_superclass=2,
                             image_side=5, within_super_shift=0.08, noise_sigma=0.06,
                             train_count=1, test_count=500, seed=0)
        _, test = generate_synthetic(spec)
        grids, keys = [], []
        original = attacks.pgd_grid

        def spy(encoder, text, x, y, cfgs):
            grids.append(len(x))
            keys.extend((id(encoder), cfg.eps, cfg.seed) for cfg in cfgs)
            return original(encoder, text, x, y, cfgs)

        monkeypatch.setattr(attacks, "pgd_grid", spy)
        evaluate(self.student, self.teacher, test, self.eps_list,
                 attack=AttackConfig(steps=1), matrices_dir=tmp_path)
        assert grids == [128, 128, 128, 116] * 2
        assert len(keys) == 32
        assert len(set(keys)) == 32

    @pytest.mark.usefixtures("one_worker")
    def test_student_clean_set_encoded_once(self, tmp_path, monkeypatch):
        # 300 rows in batches of 128 + 128 + 44: each clean batch is forwarded
        # once, by the first attack step its 3 nonzero eps share (accuracy,
        # confusion, the clean class means and eps 0 all come from it), and
        # each attacked batch is encoded once per nonzero eps
        clean = {pixels(self.test.images[lo:lo + 128]).tobytes() for lo in (0, 128, 256)}
        calls = []
        original = DualEncoder.image_forward

        def spy(encoder, x):
            if encoder is self.student:
                calls.append(x.tobytes() in clean)
            return original(encoder, x)

        monkeypatch.setattr(DualEncoder, "image_forward", spy)
        attack = AttackConfig(steps=1)
        report = evaluate(self.student, self.teacher, self.test, self.eps_list,
                          attack=attack, matrices_dir=tmp_path)
        assert len(calls) == 3 + 3 * (len(self.eps_list) - 1)
        assert sum(calls) == 3
        monkeypatch.undo()
        assert report.clean_accuracy == eval_clean(self.student, self.test)
        assert report.superclass_confusion == superclass_confusion(self.student, self.test)

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("text_source, foreign", [("student", 0), ("teacher", 3)])
    def test_eps_zero_reuses_the_clean_pass(self, tmp_path, monkeypatch, text_source, foreign):
        # each model's 3 batches are each attacked at eps 0, which returns the
        # clean images: no PGD step and no encoding beyond each model's clean
        # 128 + 128 + 44 rows; against the teacher's text the student's 3
        # are scored against a text not its own, clean and at eps 0 alike
        zero_attacks, steps, encoded = [], [], []
        original_grid, original_grad = attacks.pgd_grid, attacks._ce_input_grad
        original_forward = DualEncoder.image_forward

        def spy_grid(encoder, text, x, y, cfgs):
            own = np.array_equal(text, encoder.text_forward().t)
            zero_attacks.extend(own for cfg in cfgs if cfg.eps == 0.0)
            return original_grid(encoder, text, x, y, cfgs)

        def spy_grad(*args):
            steps.append(1)
            return original_grad(*args)

        def spy_forward(encoder, x):
            encoded.append(len(x))
            return original_forward(encoder, x)

        monkeypatch.setattr(attacks, "pgd_grid", spy_grid)
        monkeypatch.setattr(attacks, "_ce_input_grad", spy_grad)
        monkeypatch.setattr(DualEncoder, "image_forward", spy_forward)
        report = evaluate(self.student, self.teacher, self.test, [("0", 0.0)],
                          attack=AttackConfig(text_source=text_source),
                          matrices_dir=tmp_path)
        assert len(zero_attacks) == 3 * 2
        assert zero_attacks.count(False) == foreign
        assert steps == []
        assert encoded == [128, 128, 44] * 2
        assert report.robust_accuracy["0"] == report.clean_accuracy

    def test_teacher_text_scores_the_clean_pass_too(self, tmp_path):
        # a student whose own text swaps classes 0 and 2, of two superclasses:
        # its clean and eps-0 numbers read the teacher's text, as every
        # attacked batch does
        student = self.student.clone()
        student.class_table.data[[0, 2]] = student.class_table.data[[2, 0]]
        attack = AttackConfig(steps=1, text_source="teacher")
        report = evaluate(student, self.teacher, self.test, self.eps_list,
                          attack=attack, matrices_dir=tmp_path)
        assert eval_clean(student, self.test) != report.clean_accuracy
        assert superclass_confusion(student, self.test) != report.superclass_confusion
        assert report.robust_accuracy["0"] == report.clean_accuracy
        assert report.clean_accuracy == robust_accuracy(
            student, self.teacher, self.test, AttackConfig(eps=0.0, text_source="teacher"))

    @pytest.mark.usefixtures("one_worker")
    def test_training_and_evaluation_never_call_cosine_sim_matrix(self, tmp_path, monkeypatch):
        # image embeddings are unit by construction: training and evaluation
        # score them against class text vetted once per call, with a matmul
        calls = []
        original = losses.cosine_sim_matrix

        def spy(a, b):
            calls.append(1)
            return original(a, b)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tima" and getattr(module, "cosine_sim_matrix", None) is original:
                monkeypatch.setattr(module, "cosine_sim_matrix", spy)
        finetune(self.student.clone(), self.teacher, self.train,
                 fast_train_cfg(variant="tima", epochs=1))
        evaluate(self.student, self.teacher, self.test, self.eps_list,
                 attack=AttackConfig(steps=1, restarts=1), matrices_dir=tmp_path)
        assert calls == []



def _workers(monkeypatch, workers):
    monkeypatch.setattr(harness, "_cell_workers", lambda count: min(count, workers))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="cells fork on Linux only")
class TestForkedPasses:
    """Every scoring entry point runs each (model, batch) as a job of
    ``scored_passes``; ``evaluate`` and export fork theirs: the bytes written,
    the scores and the errors raised do not depend on the worker count."""

    setup_method = TestSingleAttackPass.setup_method

    @pytest.fixture(autouse=True)
    def no_hang(self):
        # a hung pool fails the run instead of stalling it
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    @pytest.mark.parametrize("text_source", ["student", "teacher"])
    def test_one_worker_writes_the_bytes_of_two(self, tmp_path, monkeypatch, text_source):
        # restarts draw from each batch's seed, so a batch scored with another
        # batch's seed, or put in another batch's place, changes the bytes
        attack = AttackConfig(steps=2, restarts=1, seed=3, text_source=text_source)
        original = attacks.scored_batch

        def scored_batch(*args):
            (pids / str(os.getpid())).touch()
            return original(*args)

        monkeypatch.setattr(attacks, "scored_batch", scored_batch)
        written = []
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            out = tmp_path / str(workers)
            pids = make_dir(out / "pids")
            report = evaluate(self.student, self.teacher, self.test, self.eps_list,
                              attack=attack, matrices_dir=out / "evaluate",
                              config_echo={"seed": "0"}, seed=0)
            write_report(report, out / "report.json")
            export_similarity_matrices(self.student, self.teacher, self.test, self.eps_list,
                                       out / "export", attack)
            forked = {int(p.name) for p in pids.iterdir()} != {os.getpid()}
            assert forked == (workers > 1)
            written.append({p.relative_to(out).as_posix(): p.read_bytes()
                            for p in sorted(out.rglob("*"))
                            if p.is_file() and p.parent.name != "pids"})
        # 6 matrices per model at 4 eps, as CSV and PGM, twice, and the report
        assert len(written[0]) == 2 * 2 * 2 * 6 + 1
        assert written[0] == written[1]

    def test_clean_and_robust_scores_run_in_process(self, tmp_path, monkeypatch):
        # a clean pass takes far less time than starting the pool, and
        # attacks cannot import run_cells: no worker count forks these jobs
        attack = AttackConfig(steps=2, restarts=1, seed=3)
        original = attacks.scored_batch

        def scored_batch(*args):
            (pids / str(os.getpid())).touch()
            return original(*args)

        monkeypatch.setattr(attacks, "scored_batch", scored_batch)
        scores = []
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            pids = make_dir(tmp_path / str(workers))
            scores.append((eval_clean(self.student, self.test),
                           superclass_confusion(self.student, self.test),
                           robust_accuracy(self.student, self.teacher, self.test, attack)))
            assert {int(p.name) for p in pids.iterdir()} == {os.getpid()}
        assert scores[0] == scores[1]

    def test_pass_error_reraises_as_in_process(self, tmp_path, monkeypatch):
        # the student's and the teacher's 4/255 attacks both fail on every
        # batch: the student's error comes first, in a worker as in-process
        original = attacks.scored_batch

        def scored_batch(encoder, text, x, y, cfgs):
            if any(cfg.eps == 4 / 255 for cfg in cfgs):
                who = "student" if encoder is self.student else "teacher"
                raise AttackOutOfBounds(f"{who} pass at eps {4 / 255} failed")
            return original(encoder, text, x, y, cfgs)

        monkeypatch.setattr(attacks, "scored_batch", scored_batch)
        raised = []
        for workers in (1, 2):
            _workers(monkeypatch, workers)
            with pytest.raises(AttackOutOfBounds) as info:
                evaluate(self.student, self.teacher, self.test, self.eps_list,
                         attack=AttackConfig(steps=1), matrices_dir=tmp_path / str(workers))
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] == (AttackOutOfBounds,
                                          f"student pass at eps {4 / 255} failed")


class TestTestSetChecks:
    """A test set that cannot be scored is rejected before any pass runs."""

    def setup_method(self):
        self.train, self.test = small_data()
        model, _ = pretrain_clean(small_model(), self.train, fast_train_cfg(epochs=2))
        self.model = model
        self.teacher = snapshot_teacher(model)
        self.eps_list = [("0", 0.0), ("1/255", 1 / 255)]

    def with_matrices(self, model, teacher, test, out):
        return [lambda: evaluate(model, teacher, test, self.eps_list,
                                 attack=AttackConfig(steps=1), matrices_dir=out),
                lambda: export_similarity_matrices(model, teacher, test, self.eps_list, out,
                                                   AttackConfig(steps=1))]

    def spy_passes(self, monkeypatch):
        # the spy counts in this process: run every pass in it
        _workers(monkeypatch, 1)
        passes = []
        original = attacks.scored_batch

        def scored_batch(*args):
            passes.append(1)
            return original(*args)

        monkeypatch.setattr(attacks, "scored_batch", scored_batch)
        return passes

    @pytest.mark.parametrize("student_classes, teacher_classes, who",
                             [(8, 8, "student"), (4, 8, "teacher")])
    def test_other_class_count_rejected(self, tmp_path, monkeypatch,
                                        student_classes, teacher_classes, who):
        def model(classes):
            cfg = EncoderConfig(input_dim=25, hidden_dims=(), embed_dim=6,
                                num_classes=classes, seed=0)
            return init_model(cfg, tau=0.01)

        passes = self.spy_passes(monkeypatch)
        student, teacher = model(student_classes), snapshot_teacher(model(teacher_classes))
        message = f"the test set has 4 classes, the {who} model 8"
        calls = [lambda: evaluate(student, teacher, self.test, self.eps_list),
                 *self.with_matrices(student, teacher, self.test, tmp_path / "m")]
        for call in calls:
            with pytest.raises(ShapeMismatch) as info:
                call()
            assert str(info.value) == message
        assert passes == []
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("score", [eval_clean, superclass_confusion])
    def test_other_class_count_rejected_by_clean_scoring(self, monkeypatch, score):
        passes = self.spy_passes(monkeypatch)
        cfg = EncoderConfig(input_dim=25, hidden_dims=(), embed_dim=6, num_classes=8, seed=0)
        with pytest.raises(ShapeMismatch) as info:
            score(init_model(cfg, tau=0.01), self.test)
        assert str(info.value) == "the test set has 4 classes, the model 8"
        assert passes == []

    def test_one_class_rejected_by_export(self, tmp_path):
        # export is evaluate's matrices, so it needs two class texts for
        # the text-distance statistics, as evaluate does
        spec = SyntheticSpec(num_superclasses=1, subclasses_per_superclass=1, image_side=5,
                             within_super_shift=0.1, noise_sigma=0.08, train_count=8,
                             test_count=8, seed=0)
        _, test = generate_synthetic(spec)
        cfg = EncoderConfig(input_dim=25, hidden_dims=(), embed_dim=6, num_classes=1, seed=0)
        model = init_model(cfg, tau=0.01)
        with pytest.raises(TooFewClasses, match="need at least 2 embeddings, got 1"):
            export_similarity_matrices(model, snapshot_teacher(model), test, self.eps_list,
                                       tmp_path / "m", AttackConfig(steps=1))
        assert not (tmp_path / "m").exists()

    def test_class_without_sample_rejected_when_matrices_are_written(self, tmp_path,
                                                                     monkeypatch):
        keep = ~np.isin(self.test.labels, [1, 3])
        test = dataclasses.replace(self.test, images=self.test.images[keep],
                                   labels=self.test.labels[keep])
        passes = self.spy_passes(monkeypatch)
        for call in self.with_matrices(self.model, self.teacher, test, tmp_path / "m"):
            with pytest.raises(EmptyDataset, match=r"no sample of classes \[1, 3\]"):
                call()
        assert passes == []
        assert not (tmp_path / "m").exists()
        # without matrices there are no class means to take
        report = evaluate(self.model, self.teacher, test, self.eps_list,
                          attack=AttackConfig(steps=1))
        assert report.clean_accuracy == eval_clean(self.model, test)


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_training_on_no_sample_rejected(stage):
    train, _ = small_data()
    empty = dataclasses.replace(train, images=train.images[:0], labels=train.labels[:0])
    model = small_model()
    before = model.fingerprint()
    with pytest.raises(EmptyDataset, match="cannot train on an empty dataset"):
        if stage == "pretrain":
            pretrain_clean(model, empty, fast_train_cfg())
        else:
            finetune(model, snapshot_teacher(model), empty, fast_train_cfg())
    assert model.fingerprint() == before


def test_cell_workers_share_cpus_with_blas_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert harness._cell_workers(8) == 1  # BLAS may use every CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert harness._cell_workers(8) == 4
    assert harness._cell_workers(3) == 3
    assert harness._cell_workers(0) == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert harness._cell_workers(8) == 2


def test_one_worker_runs_in_process(monkeypatch):
    monkeypatch.setattr(harness, "_cell_workers", lambda count: 1)
    assert run_cells(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="cells fork on Linux only")
class TestForkedCells:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(harness, "_cell_workers", lambda count: min(count, 2))
        # a hung pool fails the run instead of stalling it
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_results_in_input_order(self):
        assert run_cells(lambda x: x * x, range(7)) == [x * x for x in range(7)]

    def test_cells_run_in_workers_and_do_not_nest(self):
        # the caller is one of the two workers; each sleeps in its cell, so
        # both claim one, and each inner list runs in its outer cell's process
        def cell(_):
            time.sleep(0.2)
            return os.getpid(), run_cells(lambda _: os.getpid(), range(3))

        ran = run_cells(cell, range(4))
        assert all(inner == [pid] * 3 for pid, inner in ran)
        pids = {pid for pid, _ in ran}
        assert os.getpid() in pids and len(pids) == 2

    def test_every_cell_runs_once_with_more_workers_than_cpus(self, monkeypatch, tmp_path):
        # a lost update of the shared claim counter would skip a cell or run one twice
        monkeypatch.setattr(harness, "_cell_workers", lambda count: min(count, 4))
        log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def cell(x):
            os.write(log, b"%d\n" % x)
            return x

        try:
            assert run_cells(cell, range(400)) == list(range(400))
        finally:
            os.close(log)
        assert sorted(map(int, (tmp_path / "ran").read_text().split())) == list(range(400))

    def test_tima_error_reraises_with_class_and_message(self):
        def cell(x):
            if x == 2:
                raise LabelOutOfRange(f"label {x} in cell")
            return x

        with pytest.raises(LabelOutOfRange) as info:
            run_cells(cell, range(4))
        assert str(info.value) == "label 2 in cell"

    def test_lowest_index_error_wins(self):
        # cell 1 fails at once and stops further claims; cell 0, claimed
        # first, fails later and is the one raised
        def cell(x):
            if x == 0:
                time.sleep(0.3)
                raise LabelOutOfRange("cell 0")
            if x == 1:
                raise InvalidConfig("cell 1")
            return x

        with pytest.raises(LabelOutOfRange, match="^cell 0$"):
            run_cells(cell, range(6))

    def test_plain_exception_in_a_child_reraises_with_class_and_message(self):
        caller = os.getpid()

        def cell(x):
            time.sleep(0.1)  # the child claims a cell meanwhile
            if os.getpid() != caller:
                raise ValueError(f"cell {x} in a child")
            return x

        with pytest.raises(ValueError, match=r"^cell \d in a child$"):
            run_cells(cell, range(6))

    def test_result_a_child_cannot_pickle_raises_the_pickling_error(self):
        caller = os.getpid()

        def cell(x):
            time.sleep(0.1)  # the child claims a cell meanwhile
            return x if os.getpid() == caller else (lambda: x)

        with pytest.raises(AttributeError, match="^Can't pickle local object"):
            run_cells(cell, range(6))

    @pytest.mark.parametrize("die", [lambda: os._exit(3),
                                     lambda: os.kill(os.getpid(), signal.SIGKILL)])
    def test_dead_worker_raises_and_cancels_pending_cells(self, tmp_path, die):
        caller = os.getpid()

        def cell(x):
            if os.getpid() != caller:
                die()
            time.sleep(0.5)
            (tmp_path / str(x)).touch()
            return x

        with pytest.raises(WorkerDied):
            run_cells(cell, range(10))
        assert len(list(tmp_path.iterdir())) < 9

    @pytest.mark.parametrize("where, error", [
        (None, None),
        ("child", LabelOutOfRange),
        ("caller", LabelOutOfRange),
        ("child", WorkerDied),
        ("caller", KeyboardInterrupt),
    ])
    def test_no_child_process_remains(self, where, error):
        caller = os.getpid()

        def cell(x):
            time.sleep(0.05)
            if where == ("caller" if os.getpid() == caller else "child"):
                if error is WorkerDied:
                    os.kill(os.getpid(), signal.SIGKILL)
                raise error(f"cell {x}")
            return x

        if error is None:
            assert run_cells(cell, range(6)) == list(range(6))
        else:
            with pytest.raises(error):
                run_cells(cell, range(6))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
