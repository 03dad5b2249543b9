import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tima import attacks
from tima.attacks import (
    AttackConfig,
    per_sample_ce,
    pgd_attack,
    pgd_grid,
    pgd_steps,
    robust_accuracy,
    scored_pass,
)
from tima.config import parse_config
from tima.data import Dataset, SyntheticSpec, generate_synthetic
from tima.errors import (
    AttackOutOfBounds,
    DegenerateRow,
    EmptyDataset,
    InvalidConfig,
    LabelNotInteger,
    LabelOutOfRange,
    NonFiniteValue,
    NotNormalized,
    ShapeMismatch,
)
from tima.model import DualEncoder, EncoderConfig, init_model, snapshot_teacher
from tima.tensor import Tensor, log_softmax_forward

from oracles import finite_diff_grad, tape_ce_input_grad


def linear_encoder(w, tau=1.0):
    """A real DualEncoder computing z = normalize(x W): no hidden layer, zero bias."""
    w = np.asarray(w, dtype=np.float64)
    d, e = w.shape
    cfg = EncoderConfig(input_dim=d, hidden_dims=(), embed_dim=e, num_classes=e)
    return DualEncoder(cfg, [], (Tensor(w), Tensor(np.zeros(e))),
                       Tensor(np.eye(e)), Tensor(np.eye(e)), tau)


def toy_model(seed=0):
    cfg = EncoderConfig(input_dim=6, hidden_dims=(5,), embed_dim=4, num_classes=3, seed=seed)
    return init_model(cfg, tau=0.1)


def toy_batch(seed=0, n=12):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n, 6))
    y = rng.integers(0, 3, size=n)
    return x, y


class TestAttackConfig:
    def test_defaults_follow_eval_protocol(self):
        cfg = AttackConfig()
        assert cfg.steps == 10 and cfg.step_size == pytest.approx(1 / 255)

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            AttackConfig(eps=-0.1)
        with pytest.raises(InvalidConfig):
            AttackConfig(steps=5, step_size=0.0)
        with pytest.raises(InvalidConfig):
            AttackConfig(restarts=-1)
        with pytest.raises(InvalidConfig):
            AttackConfig(text_source="both")

    @pytest.mark.parametrize("field", ["eps", "step_size"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match="finite"):
            AttackConfig(**{field: value})


# label fault -> (labels for the 12-sample, 3-class toy batch, expected error)
BAD_LABELS = {
    "num_classes": (np.full(12, 3), LabelOutOfRange),
    "negative": (np.full(12, -1), LabelOutOfRange),
    "float": (np.zeros(12), LabelNotInteger),
    "2-D": (np.zeros((12, 1), dtype=np.int64), ShapeMismatch),
    "one short": (np.zeros(11, dtype=np.int64), ShapeMismatch),
}

ATTACK_CALLS = {
    "pgd_attack": lambda model, text, x, y: pgd_attack(model, text, x, y,
                                                       AttackConfig(eps=2 / 255, steps=2)),
    # eps 0 returns the clean images, but only after the labels pass
    "pgd_attack_eps_0": lambda model, text, x, y: pgd_attack(model, text, x, y,
                                                             AttackConfig(eps=0.0)),
    "per_sample_ce": per_sample_ce,
    "pgd_steps": lambda model, text, x, y: pgd_steps(model, text, x, x, y, 2 / 255, 1 / 255, 2),
}


@pytest.mark.parametrize("call", sorted(ATTACK_CALLS))
@pytest.mark.parametrize("fault", sorted(BAD_LABELS))
def test_bad_labels_rejected(call, fault):
    model = toy_model()
    x, _ = toy_batch()
    y, error = BAD_LABELS[fault]
    with pytest.raises(error):
        ATTACK_CALLS[call](model, model.encode_classes().data, x, y)


class TestPgdAttack:
    def setup_method(self):
        self.model = toy_model()
        self.text = self.model.encode_classes().data
        self.x, self.y = toy_batch()

    def test_zero_eps_is_identity(self):
        cfg = AttackConfig(eps=0.0, steps=10)
        x_adv = pgd_attack(self.model, self.text, self.x, self.y, cfg)
        assert np.array_equal(x_adv, self.x)

    def test_single_step_matches_sign_of_gradient(self):
        # 2-pixel example on a hand-built linear encoder; oracle gradient by
        # central finite differences of the attacked cross-entropy
        stub = linear_encoder(np.array([[1.0, 0.2], [-0.3, 1.0]]))
        text = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([[0.4, 0.6]])
        y = np.array([0])
        eps = 8 / 255

        def ce(v):
            return float(per_sample_ce(stub, text, v.reshape(1, 2), y)[0])

        g = finite_diff_grad(ce, x.ravel(), h=1e-6).reshape(1, 2)
        expected = np.clip(np.clip(x + eps * np.sign(g), x - eps, x + eps), 0.0, 1.0)
        cfg = AttackConfig(eps=eps, step_size=eps, steps=1, restarts=0)
        x_adv = pgd_attack(stub, text, x, y, cfg)
        assert np.allclose(x_adv, expected, atol=1e-12)

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_ball_and_range_membership(self, restarts):
        cfg = AttackConfig(eps=4 / 255, step_size=1 / 255, steps=5, restarts=restarts, seed=3)
        x_adv = pgd_attack(self.model, self.text, self.x, self.y, cfg)
        assert np.max(np.abs(x_adv - self.x)) <= cfg.eps + 1e-9
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_deterministic_for_fixed_seed(self):
        cfg = AttackConfig(eps=2 / 255, step_size=1 / 255, steps=4, restarts=3, seed=11)
        a = pgd_attack(self.model, self.text, self.x, self.y, cfg)
        b = pgd_attack(self.model, self.text, self.x, self.y, cfg)
        assert np.array_equal(a, b)

    def test_steps_compose(self):
        # k steps then k' more equals a single k+k' run (memoryless iteration)
        eps, step = 4 / 255, 1 / 255
        mid = pgd_steps(self.model, self.text, self.x, self.x, self.y, eps, step, 3)
        cont = pgd_steps(self.model, self.text, self.x, mid, self.y, eps, step, 2)
        full = pgd_steps(self.model, self.text, self.x, self.x, self.y, eps, step, 5)
        assert np.array_equal(cont, full)

    def test_attack_effectiveness(self):
        # PGD-10 raises the mean cross-entropy over the clean batch
        cfg = AttackConfig(eps=4 / 255, step_size=1 / 255, steps=10)
        x_adv = pgd_attack(self.model, self.text, self.x, self.y, cfg)
        ce_clean = per_sample_ce(self.model, self.text, self.x, self.y).mean()
        ce_adv = per_sample_ce(self.model, self.text, x_adv, self.y).mean()
        assert ce_adv >= ce_clean

    def test_restarts_never_weaker(self):
        cfg0 = AttackConfig(eps=4 / 255, step_size=1 / 255, steps=5, restarts=0, seed=2)
        cfg5 = dataclasses.replace(cfg0, restarts=5)
        a0 = pgd_attack(self.model, self.text, self.x, self.y, cfg0)
        a5 = pgd_attack(self.model, self.text, self.x, self.y, cfg5)
        ce0 = per_sample_ce(self.model, self.text, a0, self.y)
        ce5 = per_sample_ce(self.model, self.text, a5, self.y)
        assert np.all(ce5 >= ce0 - 1e-12)

    def test_single_candidate_skips_scoring(self, monkeypatch):
        def no_scoring(*args):
            raise AssertionError("per_sample_ce called with a single candidate")

        cfg = AttackConfig(eps=4 / 255, step_size=1 / 255, steps=3, restarts=0)
        expected = pgd_steps(self.model, self.text, self.x, self.x, self.y,
                             cfg.eps, cfg.step_size, cfg.steps)
        monkeypatch.setattr(attacks, "per_sample_ce", no_scoring)
        assert np.array_equal(pgd_attack(self.model, self.text, self.x, self.y, cfg), expected)

    @pytest.mark.parametrize("restarts", [0, 1])
    def test_leaving_the_ball_raises(self, monkeypatch, restarts):
        monkeypatch.setattr(attacks, "pgd_steps",
                            lambda enc, t, xc, xs, y, eps, step, k: xc + 2.0 * eps)
        x = np.full((3, 6), 0.5)
        cfg = AttackConfig(eps=4 / 255, steps=1, restarts=restarts)
        with pytest.raises(AttackOutOfBounds):
            pgd_attack(self.model, self.text, x, self.y[:3], cfg)

    @pytest.mark.parametrize("restarts", [0, 1])
    def test_leaving_the_pixel_range_raises(self, monkeypatch, restarts):
        monkeypatch.setattr(attacks, "pgd_steps",
                            lambda enc, t, xc, xs, y, eps, step, k: xc + 0.5 * eps)
        x = np.full((3, 6), 1.0)
        cfg = AttackConfig(eps=4 / 255, steps=1, restarts=restarts)
        with pytest.raises(AttackOutOfBounds):
            pgd_attack(self.model, self.text, x, self.y[:3], cfg)

    @given(st.integers(min_value=0, max_value=1000),
           st.sampled_from([1 / 255, 4 / 255, 8 / 255]),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=15, deadline=None)
    def test_ball_membership_property(self, seed, eps, restarts):
        x, y = toy_batch(seed=seed, n=4)
        cfg = AttackConfig(eps=eps, step_size=1 / 255, steps=3, restarts=restarts, seed=seed)
        x_adv = pgd_attack(self.model, self.text, x, y, cfg)
        assert np.max(np.abs(x_adv - x)) <= eps + 1e-9
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0


@functools.lru_cache(maxsize=None)
def grid_case(hidden: str, rows: int = 128):
    """An untrained encoder of the shipped recipe (seed 11, hidden layers
    ``hidden``), its class text, a second model's text, and the first
    ``rows`` test images with their labels."""
    cfg = parse_config(f"hidden_dims = {hidden}\n").with_seed(11)
    _, test = generate_synthetic(cfg.synthetic_spec())
    model = init_model(cfg.encoder_config(), tau=cfg["tau"])
    other = init_model(dataclasses.replace(cfg.encoder_config(), seed=12), tau=cfg["tau"])
    return (model, model.encode_classes().data, snapshot_teacher(other).t_hat,
            test.images[:rows], test.labels[:rows])


# name -> (eps, step size) per config of a 10-step grid
GRIDS = {
    "default": [(e, 1 / 255) for e in (0.0, 1 / 255, 4 / 255, 8 / 255)],
    "duplicate": [(e, 1 / 255) for e in (4 / 255, 1 / 255, 4 / 255)],
    "unsorted": [(e, 1 / 255) for e in (8 / 255, 0.0, 1 / 255, 4 / 255)],
    # step 2.5 eps / steps: only the first step, from the clean batch, is shared
    "scaled steps": [(e, 2.5 * e / 10) for e in (1 / 255, 4 / 255, 8 / 255)],
}


def grid_cfgs(grid, steps=10, restarts=0):
    return [AttackConfig(eps=eps, step_size=step, steps=steps, restarts=restarts, seed=11)
            for eps, step in GRIDS[grid]]


def count_gradients(monkeypatch):
    calls = []
    original = attacks._ce_input_grad

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(attacks, "_ce_input_grad", spy)
    return calls


class TestPgdGrid:
    """pgd_grid is one pgd_attack per config, bit for bit, with every
    distinct PGD step computed once."""

    @pytest.mark.parametrize("hidden", ["", "5", "128"])
    @pytest.mark.parametrize("restarts", [0, 1])
    @pytest.mark.parametrize("text_source", ["student", "teacher"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_equals_one_attack_per_config(self, hidden, restarts, text_source, grid):
        model, own, other, x, y = grid_case(hidden, rows=64)
        text = own if text_source == "student" else other
        cfgs = grid_cfgs(grid, restarts=restarts)
        adv = pgd_grid(model, text, x, y, cfgs).adv
        assert len(adv) == len(cfgs)
        for cfg, got in zip(cfgs, adv):
            assert np.array_equal(got, pgd_attack(model, text, x, y, cfg))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("steps", [10, 2])
    def test_one_gradient_per_distinct_iterate(self, monkeypatch, grid, steps):
        # runs that share their iterates up to a step share its gradient:
        # one per distinct iterate history, as running each config alone shows
        model, text, _, x, y = grid_case("128")
        cfgs = grid_cfgs(grid, steps=steps)
        histories = set()
        for cfg in cfgs:
            if cfg.eps == 0.0:
                continue
            it, history = x, ()
            for _ in range(steps):
                history += (it.tobytes(),)
                histories.add(history)
                it = pgd_steps(model, text, x, it, y, cfg.eps, cfg.step_size, 1)
        calls = count_gradients(monkeypatch)
        pgd_grid(model, text, x, y, cfgs)
        assert len(calls) == len(histories)

    @pytest.mark.parametrize("steps, shared", [(10, 24), (2, 2)])
    def test_default_grid_gradients_per_batch(self, monkeypatch, steps, shared):
        # the three nonzero eps share steps 0-1; 4/255 and 8/255 share 2-3
        model, text, _, x, y = grid_case("128")
        calls = count_gradients(monkeypatch)
        pgd_grid(model, text, x, y, grid_cfgs("default", steps=steps))
        assert (len(calls), 3 * steps) == (shared, {10: 30, 2: 6}[steps])

    def test_clean_embeddings_of_the_shared_first_step(self):
        model, text, _, x, y = grid_case("5")
        clean = model.encode_images(x).data
        assert np.array_equal(pgd_grid(model, text, x, y, grid_cfgs("default")).clean_z, clean)
        # a run alone is handed to pgd_steps, which keeps no embeddings
        assert pgd_grid(model, text, x, y, grid_cfgs("default")[:2]).clean_z is None

    def test_results_never_share_the_input(self):
        model, text, _, x, y = grid_case("")
        cfgs = [AttackConfig(eps=0.0), AttackConfig(eps=4 / 255, steps=0),
                *grid_cfgs("duplicate", steps=1)]
        adv = pgd_grid(model, text, x, y, cfgs).adv
        assert not any(np.shares_memory(a, x) for a in adv)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(adv) for b in adv[i + 1:])

    def test_eps_zero_vets_the_text(self):
        model, text, _, x, y = grid_case("")
        with pytest.raises(NotNormalized):
            pgd_attack(model, 2.0 * text, x, y, AttackConfig(eps=0.0))


class TestRobustAccuracy:
    def setup_method(self):
        spec = SyntheticSpec(num_superclasses=4, subclasses_per_superclass=2,
                             image_side=4, within_super_shift=0.1, noise_sigma=0.08,
                             train_count=64, test_count=500, seed=0)
        self.train, self.test = generate_synthetic(spec)
        cfg = EncoderConfig(input_dim=16, hidden_dims=(8,), embed_dim=6,
                            num_classes=8, seed=0)
        self.model = init_model(cfg, tau=0.1)
        self.teacher = snapshot_teacher(self.model)

    def test_zero_eps_equals_clean_accuracy(self):
        from tima.harness import eval_clean
        cfg = AttackConfig(eps=0.0, steps=10)
        assert robust_accuracy(self.model, self.teacher, self.test, cfg) == \
            eval_clean(self.model, self.test)

    def test_untrained_model_near_chance(self):
        # 8 classes, 500 samples: binomial band around 1/8
        cfg = AttackConfig(eps=0.0, steps=0, step_size=1.0)
        acc = robust_accuracy(self.model, self.teacher, self.test, cfg)
        assert 0.05 <= acc <= 0.25

    def test_empty_dataset(self):
        empty = dataclasses.replace(
            self.test, images=self.test.images[:0], labels=self.test.labels[:0])
        with pytest.raises(EmptyDataset):
            robust_accuracy(self.model, self.teacher, empty, AttackConfig())

    def test_teacher_text_source(self):
        cfg = AttackConfig(eps=1 / 255, steps=2, step_size=1 / 255, text_source="teacher")
        acc = robust_accuracy(self.model, self.teacher, self.test, cfg)
        assert 0.0 <= acc <= 1.0

    def test_equals_the_mean_of_the_pass_predictions(self):
        cfg = AttackConfig(eps=4 / 255, steps=2, seed=5)
        preds, _ = scored_pass(self.model, self.model.encode_classes().data, self.test, cfg)
        assert robust_accuracy(self.model, self.teacher, self.test, cfg) == \
            np.mean(preds == self.test.labels)

    def test_eps_zero_pass_is_the_clean_pass(self):
        # against the model's own text the eps-0 attack returns the clean images
        text = self.model.encode_classes().data
        clean = scored_pass(self.model, text, self.test)
        zero = scored_pass(self.model, text, self.test, AttackConfig(eps=0.0))
        assert np.array_equal(clean[0], zero[0]) and np.array_equal(clean[1], zero[1])

    def test_classify_ties_break_low(self):
        encoder = linear_encoder(np.eye(2))
        text = np.array([[1.0, 0.0], [1.0, 0.0]])  # identical rows: tie
        one = Dataset(images=np.array([[0.5, 0.0]]), labels=np.array([1]),
                      superclass_of=np.array([0, 0]), image_side=1)
        preds, _ = scored_pass(encoder, text, one)
        assert preds[0] == 0


def grad_case(hidden, tau, seed=0, n=12):
    cfg = EncoderConfig(input_dim=6, hidden_dims=hidden, embed_dim=4, num_classes=3, seed=seed)
    model = init_model(cfg, tau=tau)
    x, y = toy_batch(seed=seed, n=n)
    return model, model.encode_classes().data, x, y


def closed_form_grad(model, text, x, y):
    return attacks._ce_input_grad(model, attacks._checked_text(model, text), x, y)[1]


class TestClosedFormInputGradient:
    """pgd_steps takes its input gradient without the tape; the tape is the
    reference, bit for bit."""

    @pytest.mark.parametrize("hidden", [(), (5,), (128,)])
    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_tape_bitwise(self, hidden, tau, seed):
        model, text, x, y = grad_case(hidden, tau, seed)
        assert np.array_equal(closed_form_grad(model, text, x, y),
                              tape_ce_input_grad(model, text, x, y))

    @pytest.mark.parametrize("hidden", [(), (5,), (128,)])
    @pytest.mark.parametrize("tau", [0.01, 0.001])
    def test_matches_tape_when_softmax_saturates(self, hidden, tau):
        # labels = predicted classes: at small tau the target probability
        # rounds to exactly 1 for some rows
        model, text, x, _ = grad_case(hidden, tau)
        s = model.encode_images(x).data @ text.T
        y = np.argmax(s, axis=1)
        assert np.any(np.exp(log_softmax_forward(s, tau)).max(axis=1) == 1.0)
        assert np.array_equal(closed_form_grad(model, text, x, y),
                              tape_ce_input_grad(model, text, x, y))

    def test_pgd_steps_matches_tape_iteration(self):
        model, text, x, y = grad_case((5,), 0.1)
        eps, step = 4 / 255, 1 / 255
        ref = x.copy()
        lo, hi = np.maximum(x - eps, 0.0), np.minimum(x + eps, 1.0)
        for _ in range(4):
            ref = np.clip(ref + step * np.sign(tape_ce_input_grad(model, text, ref, y)), lo, hi)
        assert np.array_equal(pgd_steps(model, text, x, x, y, eps, step, 4), ref)

    def test_against_finite_differences(self):
        model, text, x, y = grad_case((5,), 1.0, n=3)

        def total_ce(v):
            return float(per_sample_ce(model, text, v.reshape(x.shape), y).sum())

        numeric = finite_diff_grad(total_ce, x.ravel(), h=1e-6).reshape(x.shape)
        assert np.allclose(closed_form_grad(model, text, x, y), numeric, rtol=1e-5, atol=1e-8)

    def _both_raise(self, error, model, text, x, y):
        with pytest.raises(error) as tape_exc:
            tape_ce_input_grad(model, text, x, y)
        with pytest.raises(error) as new_exc:
            pgd_steps(model, text, x, x, y, 4 / 255, 1 / 255, 1)
        return str(tape_exc.value), str(new_exc.value)

    def test_inf_weight_raises_non_finite(self):
        model, text, x, y = grad_case((5,), 0.1)
        model.layers[0][0].data[0, 0] = np.inf
        tape_msg, new_msg = self._both_raise(NonFiniteValue, model, text, x, y)
        assert new_msg == tape_msg

    def test_non_finite_pixel_raises(self):
        model, text, x, y = grad_case((), 0.1)
        x[2, 1] = np.nan
        tape_msg, new_msg = self._both_raise(NonFiniteValue, model, text, x, y)
        assert new_msg == tape_msg

    def test_zero_embedding_raises_degenerate_row(self):
        model = linear_encoder(np.array([[1.0, 0.2], [-0.3, 1.0]]))
        text = np.eye(2)
        x = np.array([[0.4, 0.6], [0.0, 0.0]])
        self._both_raise(DegenerateRow, model, text, x, np.array([0, 1]))

    def test_wrong_image_width_raises_shape_mismatch(self):
        model, text, x, y = grad_case((5,), 0.1)
        self._both_raise(ShapeMismatch, model, text, x[:, :5], y)

    def test_non_unit_text_raises_not_normalized(self):
        model, text, x, y = grad_case((5,), 0.1)
        self._both_raise(NotNormalized, model, 1.5 * text, x, y)
