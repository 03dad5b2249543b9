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
    scored_passes,
)
from tima.config import parse_config
from tima.data import Dataset, SyntheticSpec, generate_synthetic, pixels
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
from tima.harness import pretrain_clean
from tima.model import DualEncoder, EncoderConfig, init_model, snapshot_teacher
from tima.tensor import Tensor, log_softmax_forward

from oracles import (
    finite_diff_grad,
    plain_bounds_error,
    plain_ce_logit_grad,
    plain_pgd,
    plain_pgd_attack,
    tape_ce_input_grad,
)


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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    def test_negative_seed_rejected(self):
        # before a restart hands it to SeedSequence
        with pytest.raises(InvalidConfig, match="seed"):
            AttackConfig(eps=4 / 255, steps=3, restarts=1, seed=-1)

    @pytest.mark.parametrize("field", ["eps", "step_size"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidConfig, match="finite"):
            AttackConfig(**{field: value})

    @pytest.mark.parametrize("field", ["steps", "restarts", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integer_counts_rejected(self, field, value):
        # a fractional step count would never run out
        with pytest.raises(InvalidConfig, match="integers"):
            AttackConfig(eps=4 / 255, **{field: value})


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
    # no step is taken, but only after the labels pass
    "pgd_steps_0_steps": lambda model, text, x, y: pgd_steps(model, text, x, x, y,
                                                             2 / 255, 1 / 255, 0),
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

    def test_no_steps_still_vets_the_text(self):
        with pytest.raises(NotNormalized):
            pgd_steps(self.model, 1.5 * self.text, self.x, self.x, self.y, 2 / 255, 1 / 255, 0)

    # (eps, step size, steps) pgd_steps must reject, as AttackConfig does
    BAD_STEPS = {
        "nan step size": (4 / 255, float("nan"), 1),  # an all-NaN batch
        "negative eps": (-4 / 255, 1 / 255, 1),  # a point 4/255 from the center
        "negative steps": (4 / 255, 1 / 255, -2),  # the start
        "fractional steps": (4 / 255, 1 / 255, 2.5),
    }

    @pytest.mark.parametrize("case", sorted(BAD_STEPS))
    def test_bad_step_parameters_rejected(self, case):
        with pytest.raises(InvalidConfig):
            pgd_steps(self.model, self.text, self.x, self.x, self.y, *self.BAD_STEPS[case])

    def test_start_rows_must_match_the_center(self):
        with pytest.raises(ShapeMismatch, match="start of shape"):
            pgd_steps(self.model, self.text, self.x[:4], self.x[:3], self.y[:3],
                      2 / 255, 1 / 255, 1)

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
            raise AssertionError("a single candidate was scored")

        cfg = AttackConfig(eps=4 / 255, step_size=1 / 255, steps=3, restarts=0)
        expected = pgd_steps(self.model, self.text, self.x, self.x, self.y,
                             cfg.eps, cfg.step_size, cfg.steps)
        monkeypatch.setattr(attacks, "per_sample_ce", no_scoring)
        monkeypatch.setattr(attacks, "_ce", no_scoring)
        assert np.array_equal(pgd_attack(self.model, self.text, self.x, self.y, cfg), expected)

    @staticmethod
    def step_past_the_top(monkeypatch):
        """Make every step of the step loop land ``step_size`` above the
        ball's upper bound, cut to [0, 1] or not."""
        steps = []

        def past(x, sign, step_size, lo, hi):
            steps.append(1)
            return hi + step_size

        monkeypatch.setattr(attacks, "_ascend", past)
        return steps

    @pytest.mark.parametrize("restarts", [0, 1])
    def test_leaving_the_ball_raises(self, monkeypatch, restarts):
        steps = self.step_past_the_top(monkeypatch)
        x = np.full((3, 6), 0.5)
        cfg = AttackConfig(eps=4 / 255, steps=1, restarts=restarts)
        with pytest.raises(AttackOutOfBounds, match="ball"):
            pgd_attack(self.model, self.text, x, self.y[:3], cfg)
        assert len(steps) == 1 + restarts

    @pytest.mark.parametrize("restarts", [0, 1])
    def test_leaving_the_pixel_range_raises(self, monkeypatch, restarts):
        # 1/255 past the top of [0, 1] stays inside the 4/255 ball
        steps = self.step_past_the_top(monkeypatch)
        x = np.full((3, 6), 1.0)
        cfg = AttackConfig(eps=4 / 255, steps=1, restarts=restarts)
        with pytest.raises(AttackOutOfBounds, match="pixel range"):
            pgd_attack(self.model, self.text, x, self.y[:3], cfg)
        assert len(steps) == 1 + restarts

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
            pixels(test.images[:rows]), test.labels[:rows])


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


def count_calls(monkeypatch, name):
    """Record every call of ``attacks.<name>`` and pass it through."""
    calls = []
    original = getattr(attacks, name)

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(attacks, name, spy)
    return calls


def count_gradients(monkeypatch):
    return count_calls(monkeypatch, "_ce_input_grad")


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
        # a run alone steps from the clean batch in the same loop
        assert np.array_equal(pgd_grid(model, text, x, y, grid_cfgs("default")[:2]).clean_z,
                              clean)
        # no run steps: no embeddings
        assert pgd_grid(model, text, x, y, grid_cfgs("default", steps=0)).clean_z is None

    def test_duplicate_grid_steps_in_the_sign_buffer(self, monkeypatch):
        # 4/255 runs twice, so a group holds two runs or more: its last run
        # steps in the gradient's sign buffer, the others in copies of it
        model, text, _, x, y = grid_case("5", rows=32)
        buffers, in_buffer = [], []
        take_grad, ascend = attacks._ce_input_grad, attacks._ascend

        def spy_grad(*args):
            z, grad = take_grad(*args)
            buffers.append(grad)
            return z, grad

        def spy_ascend(v, sign, *rest):
            in_buffer.append(any(sign is grad for grad in buffers))
            return ascend(v, sign, *rest)

        monkeypatch.setattr(attacks, "_ce_input_grad", spy_grad)
        monkeypatch.setattr(attacks, "_ascend", spy_ascend)
        cfgs = grid_cfgs("duplicate")
        adv = pgd_grid(model, text, x, y, cfgs).adv
        assert in_buffer.count(True) == len(buffers) < len(in_buffer)
        for cfg, got in zip(cfgs, adv, strict=True):
            want = plain_pgd(lambda v: tape_ce_input_grad(model, text, v, y), x, x,
                             cfg.eps, cfg.step_size, cfg.steps)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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


@functools.lru_cache(maxsize=None)
def pretrained_case(rows: int = 32):
    """An encoder of the shipped recipe with one hidden layer of 32 (seed
    11), pretrained 3 epochs on 500 images, its class text, and the first
    ``rows`` test images with their labels. Its PGD runs settle: the
    10-step run at 1/255 reaches a fixed point or a 2-cycle early."""
    cfg = parse_config("hidden_dims = 32\npretrain_epochs = 3\ntrain_count = 500\n").with_seed(11)
    train, test = generate_synthetic(cfg.synthetic_spec())
    model, _ = pretrain_clean(init_model(cfg.encoder_config(), tau=cfg["tau"]), train,
                              cfg.pretrain_config())
    return model, model.encode_classes().data, pixels(test.images[:rows]), test.labels[:rows]


CLOSED_FORM_GRAD = attacks._ce_input_grad


def oracle_of(model, text, y):
    """The plain loop's gradient and cross-entropy on ``model``'s batch."""
    checked = attacks._checked_text(model, text)
    return (lambda v: CLOSED_FORM_GRAD(model, checked, v, y)[1],
            lambda v: per_sample_ce(model, text, v, y))


def gradients_until_repeat(grad, x, eps, step, steps):
    """The gradient evaluations of one run of the step loop from ``x``: the plain
    loop's iterates cut at the first step k >= 1, with a step left after it,
    whose result repeats iterate k or k - 1."""
    its = [x]
    for _ in range(steps):
        its.append(plain_pgd(grad, x, its[-1], eps, step, 1))
    for k in range(1, steps - 1):
        if same_bits(its[k + 1], its[k]) or same_bits(its[k + 1], its[k - 1]):
            return k + 1
    return steps


class TestRepeatExit:
    """The step loop ends a run once its iterate repeats exactly, alone or in
    a group, and returns the bits the plain loop of every step reaches."""

    @given(st.lists(st.sampled_from([1 / 255, 2 / 255, 4 / 255]), min_size=1, max_size=3),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_equals_the_plain_loop(self, eps_list, steps, restarts, seed):
        model, text, x, y = pretrained_case()
        grad, ce = oracle_of(model, text, y)
        cfgs = [AttackConfig(eps=eps, step_size=1 / 255, steps=steps, restarts=restarts,
                             seed=seed) for eps in eps_list]
        expected = [plain_pgd_attack(grad, ce, x, cfg) for cfg in cfgs]
        adv = pgd_grid(model, text, x, y, cfgs).adv
        assert all(same_bits(a, b) for a, b in zip(adv, expected, strict=True))
        for cfg, want in zip(cfgs, expected):
            assert same_bits(pgd_attack(model, text, x, y, cfg), want)
            assert same_bits(pgd_steps(model, text, x, x, y, cfg.eps, 1 / 255, steps),
                             plain_pgd(grad, x, x, cfg.eps, 1 / 255, steps))

    def test_a_converging_run_stops_at_its_first_repeat(self, monkeypatch):
        model, text, x, y = pretrained_case()
        grad, _ = oracle_of(model, text, y)
        expected = gradients_until_repeat(grad, x, 1 / 255, 1 / 255, 10)
        calls = count_gradients(monkeypatch)
        got = pgd_steps(model, text, x, x, y, 1 / 255, 1 / 255, 10)
        assert len(calls) == expected < 10
        assert same_bits(got, plain_pgd(grad, x, x, 1 / 255, 1 / 255, 10))

    def test_the_training_attack_compares_nothing(self, monkeypatch):
        model, text, x, y = pretrained_case()
        attack = parse_config("").finetune_config().train_attack
        calls = count_gradients(monkeypatch)
        compared = count_calls(monkeypatch, "_same_bits")
        pgd_attack(model, text, x, y, attack)
        assert (len(calls), len(compared)) == (attack.steps, 0) == (2, 0)

    def test_iterates_compare_by_bits(self):
        # a value comparison would take -0.0 for a repeat of 0.0
        assert not attacks._same_bits(np.array([-0.0, 0.5]), np.array([0.0, 0.5]))
        assert attacks._same_bits(np.array([0.0, 0.5]), np.array([0.0, 0.5]))

    # a synthetic input gradient: step 1/255 is more than twice eps, so every
    # coordinate the sign moves lands on a face of the ball
    EPS = 0.4 / 255

    def synthetic(self, monkeypatch, rule):
        """Make the attack's input gradient ``rule(x, hi)``, after the real
        gradient's leaf check; returns the rule as the plain loop's gradient
        and the list of the attack's gradient calls."""
        model = toy_model()
        x, y = toy_batch()
        text = model.encode_classes().data
        hi = np.minimum(x + self.EPS, 1.0)
        calls = []

        def grad(v):
            CLOSED_FORM_GRAD(model, text, v, y)
            return rule(v, hi)

        def counted(*args):
            calls.append(1)
            return None, grad(args[2])

        monkeypatch.setattr(attacks, "_ce_input_grad", counted)
        return model, text, x, y, grad, calls

    @staticmethod
    def to_the_top(x, hi):
        return np.ones_like(x)

    @staticmethod
    def column_0_bounces(x, hi):
        # column 0 alternates between the faces, the others stay on top
        g = np.ones_like(x)
        g[:, 0] = np.where(x[:, 0] >= hi[:, 0], -1.0, 1.0)
        return g

    # (rule, steps, gradient evaluations): x_1 = top; the fixed point repeats
    # it at step 1, and the 2-cycle x_1, x_2, x_3 = x_1 closes at step 2 with
    # an even (5 steps) or odd (6 steps) number of steps left
    FORCED_REPEATS = [
        ("to_the_top", 10, 2), ("column_0_bounces", 5, 3), ("column_0_bounces", 6, 3),
        ("to_the_top", 2, 2), ("column_0_bounces", 3, 3),
    ]

    @pytest.mark.parametrize("rule, steps, gradients", FORCED_REPEATS)
    def test_forced_repeats(self, monkeypatch, rule, steps, gradients):
        model, text, x, y, grad, calls = self.synthetic(monkeypatch, getattr(self, rule))
        want = plain_pgd(grad, x, x, self.EPS, 1 / 255, steps)
        assert same_bits(pgd_steps(model, text, x, x, y, self.EPS, 1 / 255, steps), want)
        assert len(calls) == gradients
        cfg = AttackConfig(eps=self.EPS, step_size=1 / 255, steps=steps)
        assert same_bits(pgd_attack(model, text, x, y, cfg), want)

    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("rule, steps, gradients", FORCED_REPEATS)
    def test_forced_repeats_end_a_group(self, monkeypatch, rule, steps, gradients, extra):
        # two runs of one eps share every iterate, as in the "duplicate" grid
        # (or run one step longer): the repeat ends both inside their group,
        # which takes one gradient per step until then
        model, text, x, y, grad, calls = self.synthetic(monkeypatch, getattr(self, rule))
        cfgs = [AttackConfig(eps=self.EPS, step_size=1 / 255, steps=k)
                for k in (steps, steps + extra)]
        groups, split = [], attacks._split

        def spy(runs):
            got = split(runs)
            groups.append([len(group) for group in got])
            return got

        monkeypatch.setattr(attacks, "_split", spy)
        adv = pgd_grid(model, text, x, y, cfgs).adv
        for cfg, got in zip(cfgs, adv, strict=True):
            assert same_bits(got, plain_pgd(grad, x, x, self.EPS, 1 / 255, cfg.steps))
        assert len(calls) == gradients
        assert groups == [[2]] * gradients + [[]]

    @staticmethod
    def nan_on_top(x, hi):
        # a fixed point at the top, were the gradient there not NaN
        return np.where(x >= hi, np.nan, 1.0)

    def test_a_nan_gradient_with_steps_left_fails_the_leaf_check(self, monkeypatch):
        model, text, x, y, grad, calls = self.synthetic(monkeypatch, self.nan_on_top)
        with pytest.raises(NonFiniteValue) as got:
            pgd_attack(model, text, x, y, AttackConfig(eps=self.EPS, steps=5))
        with pytest.raises(NonFiniteValue) as want:
            plain_pgd(grad, x, x, self.EPS, 1 / 255, 5)
        assert (str(got.value), len(calls)) == (str(want.value), 3)

    def test_a_nan_gradient_on_the_last_step_leaves_the_ball(self, monkeypatch):
        model, text, x, y, grad, _ = self.synthetic(monkeypatch, self.nan_on_top)
        got = pgd_steps(model, text, x, x, y, self.EPS, 1 / 255, 2)
        assert np.array_equal(got, plain_pgd(grad, x, x, self.EPS, 1 / 255, 2), equal_nan=True)
        assert np.isnan(got).all()
        with pytest.raises(AttackOutOfBounds):
            pgd_attack(model, text, x, y, AttackConfig(eps=self.EPS, steps=2))


# entry point -> a call that vets its text once, however many runs it steps,
# with one run left alone or several
TEXT_VETS = {
    "pgd_attack 2 steps": lambda m, t, x, y: pgd_attack(m, t, x, y, AttackConfig(steps=2)),
    "pgd_attack restarts=2": lambda m, t, x, y: pgd_attack(
        m, t, x, y, AttackConfig(eps=4 / 255, steps=2, restarts=2)),
    "scored_batch one eps": lambda m, t, x, y: attacks.scored_batch(
        m, t, x, y, [AttackConfig(eps=4 / 255)]),
    "scored_batch default grid": lambda m, t, x, y: attacks.scored_batch(
        m, t, x, y, grid_cfgs("default")),
}


@pytest.mark.parametrize("call", sorted(TEXT_VETS))
def test_text_vetted_once_per_entry_and_lone_run(monkeypatch, call):
    model, text, _, x, y = grid_case("128")
    calls = count_calls(monkeypatch, "_checked_text")
    TEXT_VETS[call](model, text, x, y)
    assert len(calls) == 1


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
        [[_, (preds, _)]] = scored_passes([(self.model, self.model.encode_classes().data)],
                                          self.test, [cfg])
        assert robust_accuracy(self.model, self.teacher, self.test, cfg) == \
            np.mean(preds == self.test.labels)

    def test_eps_zero_pass_is_the_clean_pass(self):
        # against the model's own text the eps-0 attack returns the clean images
        models = [(self.model, self.model.encode_classes().data)]
        [[clean]] = scored_passes(models, self.test, [])
        [[_, zero]] = scored_passes(models, self.test, [AttackConfig(eps=0.0)])
        assert np.array_equal(clean[0], zero[0]) and np.array_equal(clean[1], zero[1])

    def test_other_class_count_rejected_before_any_job(self, monkeypatch):
        # an 8-class model on a 4-class test set: labels and predictions
        # disagree silently unless the class counts are compared first
        four = dataclasses.replace(self.test, labels=self.test.labels % 4,
                                   superclass_of=self.test.superclass_of[:4])
        jobs = count_calls(monkeypatch, "scored_batch")
        with pytest.raises(ShapeMismatch, match="^the test set has 4 classes, the model 8$"):
            robust_accuracy(self.model, self.teacher, four, AttackConfig(steps=1))
        assert jobs == []

    def test_other_teacher_class_count_rejected_under_teacher_text(self, monkeypatch):
        # the teacher's text scores the attack: its 8 rows against a 4-class
        # model and test set score no sample correctly unless checked
        four = dataclasses.replace(self.test, labels=self.test.labels % 4,
                                   superclass_of=self.test.superclass_of[:4])
        model = init_model(dataclasses.replace(self.model.cfg, num_classes=4), tau=0.1)
        jobs = count_calls(monkeypatch, "scored_batch")
        with pytest.raises(ShapeMismatch,
                           match="^the test set has 4 classes, the teacher model 8$"):
            robust_accuracy(model, self.teacher, four, AttackConfig(steps=1, text_source="teacher"))
        assert jobs == []
        assert robust_accuracy(model, self.teacher, four, AttackConfig(steps=1)) > 0.0

    def test_classify_ties_break_low(self):
        encoder = linear_encoder(np.eye(4, 2))  # the first two of four pixels
        text = np.array([[1.0, 0.0], [1.0, 0.0]])  # identical rows: tie
        one = Dataset(images=np.array([[128, 0, 0, 0]], dtype=np.uint8), labels=np.array([1]),
                      superclass_of=np.array([0, 0]), image_side=2)
        [[(preds, _)]] = scored_passes([(encoder, text)], one, [])
        assert preds[0] == 0


def grad_case(hidden, tau, seed=0, n=12):
    cfg = EncoderConfig(input_dim=6, hidden_dims=hidden, embed_dim=4, num_classes=3, seed=seed)
    model = init_model(cfg, tau=tau)
    x, y = toy_batch(seed=seed, n=n)
    return model, model.encode_classes().data, x, y


def closed_form_grad(model, text, x, y):
    return attacks._ce_input_grad(model, attacks._checked_text(model, text), x, y)[1]


class TestClosedFormInputGradient:
    """The step loop takes its input gradient without the tape; the tape is
    the reference, bit for bit."""

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logit_gradient_matches_the_log_softmax_pullback(self, seed):
        # random logits at tau = 0.01; rows 0-1 saturate at their label (p is
        # exactly one-hot, the gradient exactly 0), row 2 at another class
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1.0, 1.0, size=(16, 7))
        y = rng.integers(0, 7, size=16)
        s[:3] = -5.0
        s[[0, 1, 2], [y[0], y[1], (y[2] + 1) % 7]] = 5.0
        log_p = log_softmax_forward(s, 0.01)
        got = attacks._ce_logit_grad(log_p, y, 0.01)
        want = plain_ce_logit_grad(log_p, y, 0.01)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got[:2].view(np.uint64), np.zeros((2, 7)).view(np.uint64))
        assert sorted(got[2]) == [-100.0] + [0.0] * 5 + [100.0]

    def test_pgd_steps_matches_tape_iteration(self):
        model, text, x, y = grad_case((5,), 0.1)
        ref = plain_pgd(lambda v: tape_ce_input_grad(model, text, v, y), x, x, 4 / 255, 1 / 255, 4)
        assert same_bits(pgd_steps(model, text, x, x, y, 4 / 255, 1 / 255, 4), ref)

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

    @pytest.mark.parametrize("scale, message", [
        (1.5, "right row 1 deviates from unit norm by 5.000e-01"),
        # the squared norm overflows: the deviation is inf, not a
        # RuntimeWarning (which the suite turns into an error)
        (1e160, "right row 1 deviates from unit norm by inf"),
    ], ids=["finite", "overflow"])
    def test_non_unit_text_names_the_worst_row(self, scale, message):
        model, _, x, y = grad_case((), 0.1)
        text = np.eye(3, 4)
        text[0] *= 1.25
        text[1] *= scale
        tape_msg, new_msg = self._both_raise(NotNormalized, model, text, x, y)
        assert tape_msg == new_msg == message
        with pytest.raises(NotNormalized, match=f"^{message}$"):
            per_sample_ce(model, text, x, y)


class TestOneReductionKernels:
    """The attack's gradient sign, its result check and evaluation's per-class
    sums, each against the plain numpy form it replaces, bit for bit and
    error for error, NaN, inf and empty inputs included."""

    @pytest.mark.parametrize("fault", [None, (np.nan,), (np.inf,), (-np.inf,),
                                       (np.inf, -np.inf), (1e308, 1e308)],
                             ids=["clean", "nan", "inf", "-inf", "both_infs", "overflow"])
    @pytest.mark.parametrize("rows", [0, 1, 7, 128])
    def test_sign(self, fault, rows):
        # two of 1e308 are finite entries whose sum overflows; no case warns
        rng = np.random.default_rng(rows)
        g = rng.normal(size=(rows, 33)) * 10.0 ** rng.integers(-300, 300, size=(rows, 1))
        g[rng.uniform(size=g.shape) < 0.2] = 0.0
        g[rng.uniform(size=g.shape) < 0.1] = -0.0
        if fault is not None and rows:
            g[rows // 2, :2] = fault
        want = np.sign(g)
        got = attacks._sign(g)
        assert got is g and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("fault", ["clean", "nan", "inf", "outside_ball", "below_zero",
                                       "above_one", "empty"])
    def test_result_check(self, fault):
        rng = np.random.default_rng(3)
        eps = 4 / 255
        x = rng.uniform(0.0, 1.0, size=(16, 9))
        x[0, 0], x[1, 1] = 0.0, 1.0
        best = np.clip(x + rng.uniform(-eps, eps, size=x.shape), 0.0, 1.0)
        if fault == "nan":
            best[3, 4] = np.nan
        elif fault == "inf":
            best[3, 4] = np.inf
        elif fault == "outside_ball":
            best[5, 2] = x[5, 2] + 2 * eps
        elif fault == "below_zero":
            best[0, 0] = -1e-12
        elif fault == "above_one":
            best[1, 1] = 1.0 + 1e-12
        elif fault == "empty":
            x, best = x[:0], best[:0]
        want = plain_bounds_error(best, x, eps)
        assert (want is None) == (fault in ("clean", "empty"))
        with np.errstate(invalid="ignore"):  # inf - x in the ball check
            if want is None:
                assert attacks._strongest(None, None, x, None, eps, [best]) is best
            else:
                with pytest.raises(AttackOutOfBounds) as exc:
                    attacks._strongest(None, None, x, None, eps, [best])
                assert str(exc.value) == want

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=12), st.integers(min_value=2, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_class_sums_are_add_at(self, seed, rows, classes, width):
        # a label never drawn leaves its class empty: a row of +0.0
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-5, 5, size=(rows, 1))
        z[rng.uniform(size=z.shape) < 0.1] = -0.0
        labels = rng.integers(0, classes, size=rows) * (rng.uniform(size=rows) < 0.9)
        want = np.zeros((classes, width))
        np.add.at(want, labels, z)
        got = attacks._class_sums(z, labels, classes)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_class_sums_start_at_positive_zero(self):
        # add.at adds to +0.0: a column whose rows all hold -0.0 sums to +0.0
        z = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]])
        labels = np.array([1, 1, 2])
        want = np.zeros((4, 2))
        np.add.at(want, labels, z)
        got = attacks._class_sums(z, labels, 4)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
