import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tima.attacks import AttackConfig, per_sample_ce, pgd_attack
from tima.config import parse_config
from tima.data import generate_synthetic, pixels
from tima.errors import (
    DegenerateRow,
    InvalidConfig,
    InvalidEta,
    InvalidTemperature,
    LabelNotInteger,
    LabelOutOfRange,
    NonFiniteValue,
    NotNormalized,
    ShapeMismatch,
    TooFewClasses,
)
from tima.losses import (
    LossWeights,
    adaptive_margin,
    cosine_sim_matrix,
    iakd_loss,
    kl_rows,
    mhe_loss,
    takd_loss,
    tam_loss,
    teacher_targets,
    tima_loss,
)
from tima.harness import VARIANTS, contrastive_ce, resolve_variant
from tima.model import EncoderConfig, init_model, snapshot_teacher
from tima.tensor import Tensor, backward, l2_normalize_rows

from oracles import (
    finite_diff_grad,
    row_log_softmax,
    tape_contrastive_ce,
    tape_encode_classes,
    tape_tima_loss,
)

REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def assert_grads_close(analytic, numeric):
    denom = np.maximum(np.abs(numeric), ABS_FLOOR / REL_TOL)
    assert np.max(np.abs(analytic - numeric) / denom) < REL_TOL


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestLossWeights:
    def test_invalid_eta(self):
        with pytest.raises(InvalidEta):
            LossWeights(eta=1.0)
        with pytest.raises(InvalidEta):
            LossWeights(eta=0.0)

    def test_invalid_tau(self):
        with pytest.raises(InvalidTemperature):
            LossWeights(tau=0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidConfig):
            LossWeights(lam=-1.0)
        with pytest.raises(InvalidConfig):
            LossWeights(m=-0.1)

    @pytest.mark.parametrize("field", ["m", "lam", "lam_t", "lam_v"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_weights_rejected(self, field, value):
        with pytest.raises(InvalidConfig):
            LossWeights(**{field: value})


class TestCosineSimMatrix:
    def test_orthogonal(self):
        s = cosine_sim_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert s.data[0, 0] == 0.0

    def test_identical(self):
        s = cosine_sim_matrix(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert s.data[0, 0] == 1.0

    def test_hand_value(self):
        s = cosine_sim_matrix(np.array([[0.6, 0.8]]), np.array([[1.0, 0.0]]))
        assert s.data[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            cosine_sim_matrix(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))


class TestMheLoss:
    def test_antipodal_pair(self):
        assert mhe_loss(np.array([[1.0, 0.0], [-1.0, 0.0]])).item() == pytest.approx(0.2, abs=1e-12)

    def test_coincident_pair(self):
        assert mhe_loss(np.array([[1.0, 0.0], [1.0, 0.0]])).item() == pytest.approx(1.0, abs=1e-12)

    def test_equilateral_triple(self):
        t = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        assert mhe_loss(t).item() == pytest.approx(0.25, abs=1e-12)

    def test_too_few_classes(self):
        with pytest.raises(TooFewClasses):
            mhe_loss(np.array([[1.0, 0.0]]))

    def test_strictly_decreasing_as_one_moves_away(self):
        # push one embedding further from all others: energy must drop
        rng = np.random.default_rng(0)
        t = unit_rows(rng, 5, 8)
        base = mhe_loss(t).item()
        direction = t[0] - t[1:].mean(axis=0)
        moved = t.copy()
        moved[0] = t[0] + 0.5 * direction
        moved[0] /= np.linalg.norm(moved[0])
        d_old = np.linalg.norm(t[1:] - t[0], axis=1)
        d_new = np.linalg.norm(moved[1:] - moved[0], axis=1)
        assert np.all(d_new > d_old)  # premise: all pairwise distances grew
        assert mhe_loss(moved).item() < base

    def test_value_range_for_unit_rows(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = mhe_loss(unit_rows(rng, 6, 4)).item()
            assert 0.2 - 1e-12 <= v <= 1.0 + 1e-12


class TestKlRows:
    def test_identical_is_zero(self):
        logits = np.array([[1.0, -2.0, 0.5]])
        assert kl_rows(logits, logits, 0.5).item() == 0.0

    def test_ln2_hand_case(self):
        # near-degenerate p = (1, ~0) against uniform q
        v = kl_rows(np.array([[50.0, 0.0]]), np.array([[0.0, 0.0]]), 1.0).item()
        assert v == pytest.approx(np.log(2.0), abs=1e-6)

    def test_hand_value_symmetric_pair(self):
        v = kl_rows(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 1.0).item()
        assert v == pytest.approx(0.4621171572600098, abs=1e-6)

    def test_asymmetry(self):
        p = np.array([[2.0, 0.0]])
        q = np.array([[0.0, 1.0]])
        assert kl_rows(p, q, 1.0).item() != pytest.approx(kl_rows(q, p, 1.0).item(), abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kl_rows(np.zeros((1, 2)), np.zeros((1, 3)), 1.0)

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.01, 0.1, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed, tau):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-1, 1, size=(3, 4))
        q = rng.uniform(-1, 1, size=(3, 4))
        assert kl_rows(p, q, tau).item() >= -1e-12


class TestIakdTakd:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.tz = unit_rows(rng, 4, 6)
        self.tt = unit_rows(rng, 3, 6)
        self.st = unit_rows(rng, 3, 6)

    def test_identical_student_zero(self):
        assert iakd_loss(self.tz, self.tt, self.tt, 0.1).item() == 0.0
        assert takd_loss(self.tz, self.tt, self.tz, 0.1).item() == 0.0

    def test_hand_value(self):
        # one image, two classes, teacher sims (1, 0) vs student sims (0, 1)
        tz = np.array([[1.0, 0.0]])
        tt = np.array([[1.0, 0.0], [0.0, 1.0]])
        st_swapped = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert iakd_loss(tz, tt, st_swapped, 1.0).item() == pytest.approx(0.4621171572600098, abs=1e-6)
        adv_z = np.array([[0.0, 1.0]])
        assert takd_loss(tz, tt, adv_z, 1.0).item() == pytest.approx(0.4621171572600098, abs=1e-6)

    def test_teacher_inputs_get_zero_gradient(self):
        tz_leaf = Tensor(self.tz)
        tt_leaf = Tensor(self.tt)
        st_leaf = Tensor(self.st)
        loss = iakd_loss(tz_leaf, tt_leaf, st_leaf, 0.1)
        grads = backward(loss, [tz_leaf, tt_leaf, st_leaf])
        assert np.all(grads[tz_leaf] == 0.0)
        assert np.all(grads[tt_leaf] == 0.0)
        assert np.any(grads[st_leaf] != 0.0)

        adv_leaf = Tensor(self.tz)
        loss = takd_loss(Tensor(self.tz), tt_leaf, adv_leaf, 0.1)
        grads = backward(loss, [tt_leaf, adv_leaf])
        assert np.all(grads[tt_leaf] == 0.0)

    def test_gradients_match_finite_diff(self):
        tz, tt = self.tz, self.tt

        def f_iakd(v):
            return iakd_loss(tz, tt, l2_normalize_rows(Tensor(v)), 0.5).item()

        v0 = np.random.default_rng(9).normal(size=(3, 6))
        vt = Tensor(v0)
        analytic = backward(iakd_loss(tz, tt, l2_normalize_rows(vt), 0.5), [vt])[vt]
        assert_grads_close(analytic, finite_diff_grad(f_iakd, v0))


class TestAdaptiveMargin:
    def setup_method(self):
        self.s_tt = np.array([[1.0, 0.9, 0.2],
                              [0.9, 1.0, 0.3],
                              [0.2, 0.3, 1.0]])

    def test_hand_cases(self):
        # correct class 0 at sim 0.8; class 1 triggered (0.78 >= 0.76), class 2 not
        s_it = np.array([[0.8, 0.78, 0.5]])
        m = adaptive_margin(s_it, self.s_tt, np.array([0]), 0.1, 0.95)
        assert m[0, 0] == pytest.approx(0.1, abs=0)      # ground-truth column
        assert m[0, 1] == pytest.approx(0.09, abs=1e-15)  # 0.1 * 0.9
        assert m[0, 2] == 0.0                             # below threshold

    def test_an_exact_tie_reaches_the_threshold(self):
        # 0.25 is exactly 0.5 * 0.5: class 1 reaches eta times the true
        # class's similarity and gets its margin; class 2 falls short
        s_it = np.array([[0.5, 0.25, 0.2]])
        m = adaptive_margin(s_it, self.s_tt, np.array([0]), 0.1, 0.5)
        assert m[0, 1] == 0.1 * 0.9
        assert m[0, 2] == 0.0

    def test_invalid_eta(self):
        with pytest.raises(InvalidEta):
            adaptive_margin(np.array([[0.8, 0.7, 0.5]]), self.s_tt, np.array([0]), 0.1, 1.5)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            adaptive_margin(np.array([[0.8, 0.7, 0.5]]), self.s_tt, np.array([3]), 0.1, 0.95)

    def test_zero_margin_gives_zero_matrix(self):
        s_it = np.array([[0.8, 0.78, 0.5]])
        m = adaptive_margin(s_it, self.s_tt, np.array([0]), 0.0, 0.95)
        assert np.all(m == 0.0)

    def test_negate_negatives_flips_off_target(self):
        s_it = np.array([[0.8, 0.78, 0.5]])
        m = adaptive_margin(s_it, self.s_tt, np.array([0]), 0.1, 0.95,
                            margin_sign="negate_negatives")
        assert m[0, 0] == pytest.approx(0.1)
        assert m[0, 1] == pytest.approx(-0.09)
        assert m[0, 2] == 0.0

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_entries_bounded_when_sims_nonnegative(self, seed, m_val):
        rng = np.random.default_rng(seed)
        n, c = 4, 5
        s_it = rng.uniform(0.0, 1.0, size=(n, c))
        s_tt = rng.uniform(0.0, 1.0, size=(c, c))
        np.fill_diagonal(s_tt, 1.0)
        y = rng.integers(0, c, size=n)
        m = adaptive_margin(s_it, s_tt, y, m_val, 0.9)
        assert np.all(m >= 0.0) and np.all(m <= m_val + 1e-15)


class TestTamLoss:
    def test_hand_case(self):
        loss = tam_loss(np.array([[1.0, 0.0]]), np.zeros((1, 2)), np.array([0]), 1.0)
        assert loss.item() == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-4)

    def test_small_temperature_saturates(self):
        loss = tam_loss(np.array([[1.0, -1.0]]), np.zeros((1, 2)), np.array([0]), 0.01)
        assert abs(loss.item() - np.exp(-200.0)) < 1e-80

    def test_zero_margin_is_plain_cross_entropy_bitwise(self):
        rng = np.random.default_rng(17)
        s = unit_rows(rng, 6, 4) @ unit_rows(rng, 3, 4).T
        y = rng.integers(0, 3, size=6)
        via_tam = tam_loss(Tensor(s), np.zeros((6, 3)), y, 0.01).item()
        # same reduction in plain numpy: bit-for-bit
        log_p = row_log_softmax(Tensor(s), 0.01).data
        one_hot = np.zeros((6, 3))
        one_hot[np.arange(6), y] = 1.0
        assert via_tam == (log_p * one_hot).sum() * (-1.0 / 6.0)
        # independent selective-sum oracle: within 1e-12
        plain = -log_p[np.arange(6), y].sum() / 6.0
        assert via_tam == pytest.approx(plain, abs=1e-12)

    def test_monotone_in_target_margin(self):
        rng = np.random.default_rng(23)
        s = np.array([[0.9, 0.6, 0.1]])
        y = np.array([0])
        prev = -np.inf
        for m_target in (0.0, 0.05, 0.1, 0.2):
            margin = np.zeros((1, 3))
            margin[0, 0] = m_target
            val = tam_loss(s, margin, y, 0.1).item()
            assert val >= prev
            prev = val

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            tam_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.array([2]), 1.0)

    def test_float_labels_rejected_not_truncated(self):
        with pytest.raises(LabelNotInteger):
            tam_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.7]), 1.0)
        with pytest.raises(LabelNotInteger):
            tam_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.0]), 1.0)
        with pytest.raises(LabelNotInteger):
            adaptive_margin(np.zeros((1, 2)), np.eye(2), [0.0], 0.1, 0.9)

    def test_label_matrix_rejected(self):
        with pytest.raises(ShapeMismatch):
            tam_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.array([[1]]), 1.0)

    def test_gradient_matches_finite_diff(self):
        rng = np.random.default_rng(31)
        t_hat = unit_rows(rng, 3, 5)
        y = rng.integers(0, 3, size=4)
        margin = rng.uniform(0, 0.1, size=(4, 3))
        v0 = rng.normal(size=(4, 5))

        def f(v):
            s = cosine_sim_matrix(l2_normalize_rows(Tensor(v)), t_hat)
            return tam_loss(s, margin, y, 0.5).item()

        vt = Tensor(v0)
        s = cosine_sim_matrix(l2_normalize_rows(vt), t_hat)
        analytic = backward(tam_loss(s, margin, y, 0.5), [vt])[vt]
        assert_grads_close(analytic, finite_diff_grad(f, v0))


def tiny_setup(seed=0, n=4):
    cfg = EncoderConfig(input_dim=6, hidden_dims=(5,), embed_dim=4, num_classes=3, seed=seed)
    student = init_model(cfg, tau=0.5)
    teacher = snapshot_teacher(init_model(
        EncoderConfig(input_dim=6, hidden_dims=(5,), embed_dim=4, num_classes=3, seed=seed + 100),
        tau=0.5))
    rng = np.random.default_rng(seed + 5)
    x_clean = rng.uniform(0, 1, size=(n, 6))
    x_adv = np.clip(x_clean + rng.uniform(-0.01, 0.01, size=(n, 6)), 0, 1)
    y = rng.integers(0, 3, size=n)
    return student, teacher, x_clean, x_adv, y


class TestTimaLoss:
    def test_tecoa_reduction_equals_plain_ce(self):
        student, teacher, x_clean, x_adv, y = tiny_setup()
        w = LossWeights(tau=0.5, m=0.0, lam=0.0, lam_v=0.0)
        total, _, comps = tima_loss(student, teacher, x_clean, x_adv, y, w)
        z = student.encode_images(x_adv).data
        log_p = row_log_softmax(Tensor(z @ teacher.t_hat.T), 0.5).data
        plain = -log_p[np.arange(len(y)), y].sum() / len(y)
        assert abs(total - plain) < 1e-12
        assert comps.mhe == 0.0 and comps.iakd == 0.0 and comps.takd == 0.0

    def test_unit_weights_compose(self):
        student, teacher, x_clean, x_adv, y = tiny_setup(seed=2)
        w = LossWeights(tau=0.5, m=0.1, eta=0.95, lam=1.0, lam_t=1.0, lam_v=1.0)
        total, _, comps = tima_loss(student, teacher, x_clean, x_adv, y, w)
        assert total == pytest.approx(
            comps.tam + comps.takd + comps.mhe + comps.iakd, abs=1e-12)

    def test_weighted_sum_matches_components(self):
        student, teacher, x_clean, x_adv, y = tiny_setup(seed=3)
        w = LossWeights(tau=0.5, m=0.05, eta=0.9, lam=2.0, lam_t=0.5, lam_v=3.0)
        total, _, comps = tima_loss(student, teacher, x_clean, x_adv, y, w)
        expected = comps.tam + 3.0 * comps.takd + 2.0 * (comps.mhe + 0.5 * comps.iakd)
        assert total == pytest.approx(expected, abs=1e-12)

    def test_gradient_partition(self):
        # image params get zero grad through the text branch and vice versa
        student, teacher, x_clean, x_adv, y = tiny_setup(seed=4)
        w = LossWeights(tau=0.5, m=0.1, lam=1.0, lam_t=1.0, lam_v=1.0)

        text_only = dataclasses.replace(w, m=0.0, lam_v=0.0)
        _, grads, _ = tima_loss(student, teacher, x_clean, x_adv, y, text_only)
        assert list(grads) == student.parameters()
        # TAM still reaches theta; subtract it by evaluating the text branch alone
        from tima.losses import iakd_loss as _iakd, mhe_loss as _mhe
        st_t = student.encode_classes()
        branch = _mhe(st_t) + _iakd(teacher.encode_images(x_clean), teacher.t_hat, st_t, w.tau)
        text_grads = backward(branch, student.parameters())
        for p in student.image_parameters():
            assert np.all(text_grads[p] == 0.0)

        image_branch_w = dataclasses.replace(w, lam=0.0)
        _, img_grads, _ = tima_loss(student, teacher, x_clean, x_adv, y, image_branch_w)
        for p in student.text_parameters():
            assert np.all(img_grads[p] == 0.0)
        for p in student.image_parameters():
            assert np.any(img_grads[p] != 0.0) or p.data.size == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_full_loss_gradient_matches_finite_diff(self, seed):
        student, teacher, x_clean, x_adv, y = tiny_setup(seed=seed)
        w = LossWeights(tau=0.5, m=0.05, eta=0.9, lam=1.0, lam_t=1.0, lam_v=1.0)
        params = student.parameters()
        _, analytic, _ = tima_loss(student, teacher, x_clean, x_adv, y, w)
        for p in params:
            original = p.data.copy()

            def f(v):
                p.data = v.copy()
                try:
                    return tima_loss(student, teacher, x_clean, x_adv, y, w)[0]
                finally:
                    p.data = original.copy()

            assert_grads_close(analytic[p], finite_diff_grad(f, original, h=1e-6))


def chunk_case(hidden_dims):
    """300 samples, an untrained teacher and weights with a margin."""
    cfg = parse_config(f"train_count = 300\nhidden_dims = {hidden_dims}\n")
    train, _ = generate_synthetic(cfg.synthetic_spec())
    teacher = snapshot_teacher(init_model(cfg.encoder_config(), tau=cfg["tau"]))
    return train, teacher, LossWeights(tau=0.05, m=0.1, eta=0.5)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestTeacherTargets:
    """Once-per-sample teacher rows equal the rows each batch used to compute.

    The chunk tests pin a property of this BLAS build, not a numpy
    guarantee: a product against the transposed text gives the same bits
    for every chunk of 2-150 rows, and other last bits for one row and for
    151 rows or more. ``teacher_targets`` cuts the data into chunks of
    2-129 rows, so a sample's rows do not depend on how the data is cut.
    """

    @pytest.mark.parametrize("hidden_dims", ["", "128"])
    def test_chunked_rows_equal_per_batch_rows(self, hidden_dims):
        # the rows each permuted batch of a run computes for itself: finetune
        # hands teacher_targets the dataset's codes, and a batch its pixels
        train, teacher, w = chunk_case(hidden_dims)
        t_hat = teacher.t_hat
        s_tt = cosine_sim_matrix(t_hat, t_hat).data
        targets = teacher_targets(teacher, train.images, train.labels, w)
        assert np.any(targets.margin != 0.0)
        for size in (2, 7, 45, 128, 150):
            perm = np.random.default_rng(size).permutation(train.num_samples)
            for lo in range(0, train.num_samples, size):
                idx = perm[lo:lo + size]
                z = teacher.encode_images(pixels(train.images[idx]))
                s_it = cosine_sim_matrix(z, t_hat)
                margin = adaptive_margin(s_it.data, s_tt, train.labels[idx], w.m, w.eta)
                rows = targets.take(idx)
                assert same_bits(rows.z, z), (size, lo)
                assert same_bits(rows.margin, margin), (size, lo)
                assert same_bits(rows.log_probs, row_log_softmax(s_it, w.tau).data), (size, lo)

    @pytest.mark.parametrize("count", [129, 136])
    @pytest.mark.parametrize("hidden_dims", ["", "128"])
    def test_a_shorter_dataset_gives_the_first_rows(self, hidden_dims, count):
        # 129 rows are one chunk; 136 rows are chunks of 128 and 8
        train, teacher, w = chunk_case(hidden_dims)
        whole = teacher_targets(teacher, train.images, train.labels, w)
        first = teacher_targets(teacher, train.images[:count], train.labels[:count], w)
        for got, want in zip(first, whole):
            assert same_bits(got, want[:count])

    @pytest.mark.parametrize("hidden_dims", ["", "128"])
    def test_codes_give_the_rows_of_their_pixels(self, hidden_dims):
        # each chunk of codes is widened to the pixels a float caller passes
        train, teacher, w = chunk_case(hidden_dims)
        from_codes = teacher_targets(teacher, train.images, train.labels, w)
        from_pixels = teacher_targets(teacher, pixels(train.images), train.labels, w)
        for got, want in zip(from_codes, from_pixels):
            assert same_bits(got, want)

    def test_zero_margin_rows_are_zero(self):
        student, teacher, x_clean, _, y = tiny_setup(seed=6, n=5)
        targets = teacher_targets(teacher, x_clean, y, LossWeights(m=0.0))
        assert targets.margin.shape == (5, 3) and np.all(targets.margin == 0.0)

    @pytest.mark.parametrize("m", [0.0, 0.05])
    def test_tima_loss_with_targets_is_bit_identical(self, m):
        student, teacher, x_clean, x_adv, y = tiny_setup(seed=7, n=6)
        w = LossWeights(tau=0.5, m=m, eta=0.9, lam=1.0, lam_t=1.0, lam_v=1.0)
        params = student.parameters()
        plain, g_plain, plain_comps = tima_loss(student, teacher, x_clean, x_adv, y, w)
        rows = teacher_targets(teacher, x_clean, y, w)
        cached, g_cached, cached_comps = tima_loss(student, teacher, x_clean, x_adv, y, w,
                                                   targets=rows)
        assert plain == cached and plain_comps == cached_comps
        for p in params:
            assert np.array_equal(g_plain[p], g_cached[p])

    def test_row_count_mismatch_rejected(self):
        student, teacher, x_clean, x_adv, y = tiny_setup(seed=8, n=4)
        w = LossWeights(tau=0.5)
        rows = teacher_targets(teacher, x_clean[:3], y[:3], w)
        with pytest.raises(ShapeMismatch):
            tima_loss(student, teacher, x_clean, x_adv, y, w, targets=rows)

    @pytest.mark.parametrize("batch_size", [4, 128])
    def test_log_probs_equal_per_batch_rows(self, batch_size):
        # what tima_loss computed per batch on the tape, from the batch's
        # teacher rows
        train, teacher, w = chunk_case("16")
        targets = teacher_targets(teacher, train.images, train.labels, w)
        assert targets.log_probs.shape == (train.num_samples, train.num_classes)
        perm = np.random.default_rng(1).permutation(train.num_samples)
        for lo in range(0, train.num_samples, batch_size):
            rows = targets.take(perm[lo:lo + batch_size])
            want = row_log_softmax(cosine_sim_matrix(rows.z, teacher.t_hat), w.tau).data
            assert same_bits(rows.log_probs, want)

    @pytest.mark.parametrize("fault, error, message", [
        (lambda lp: np.where(lp == lp[1, 2], np.nan, lp), NonFiniteValue, "op 'const'"),
        (lambda lp: lp[:, :-1], ShapeMismatch, "teacher log-probabilities of shape"),
        (lambda lp: lp[:-1], ShapeMismatch, "teacher log-probabilities of shape"),
    ], ids=["nan", "columns", "rows"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_log_probs_are_vetted_where_read(self, fault, error, message, variant):
        # a variant with TAKD or IAKD reads them and rejects a faulty row;
        # the others never look at them
        student, teacher, x_clean, x_adv, y = fused_case((5,), 0.1, seed=3)
        w, _, _ = resolve_variant(variant, LossWeights(tau=0.1), False, AttackConfig())
        targets = teacher_targets(teacher, x_clean, y, w)
        faulty = targets._replace(log_probs=fault(targets.log_probs))
        if w.lam_v > 0.0 or (w.lam > 0.0 and w.lam_t > 0.0):
            with pytest.raises(error, match=message):
                tima_loss(student, teacher, x_clean, x_adv, y, w, targets=faulty)
        else:
            assert tima_loss(student, teacher, x_clean, x_adv, y, w, targets=faulty)[2] == \
                tima_loss(student, teacher, x_clean, x_adv, y, w, targets=targets)[2]


# -- the fused closed forms against the tape they replace ---------------------------


def fused_case(hidden, tau, seed=0, n=9):
    cfg = EncoderConfig(input_dim=12, hidden_dims=hidden, embed_dim=6, num_classes=5, seed=seed)
    student = init_model(cfg, tau=tau)
    teacher = snapshot_teacher(init_model(dataclasses.replace(cfg, seed=seed + 50), tau=tau))
    rng = np.random.default_rng(seed + 5)
    x_clean = rng.uniform(0, 1, size=(n, 12))
    x_adv = np.clip(x_clean + rng.uniform(-0.02, 0.02, size=(n, 12)), 0, 1)
    y = rng.integers(0, 5, size=n)
    return student, teacher, x_clean, x_adv, y


BASE_WEIGHTS = {
    "default": {},
    "reweighted": dict(m=0.3, eta=0.5, lam=2.0, lam_t=0.5, lam_v=3.0,
                       margin_sign="negate_negatives"),
}


class TestFusedMatchesTape:
    """``tima_loss`` and ``contrastive_ce`` are closed forms of the tape
    compositions in ``oracles``: the same value, loss components and
    parameter gradients, bit for bit."""

    @pytest.mark.parametrize("hidden", [(), (5,), (128,)])
    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("base", sorted(BASE_WEIGHTS))
    def test_tima_loss_bitwise(self, hidden, tau, base):
        student, teacher, x_clean, x_adv, y = fused_case(hidden, tau)
        base_w = LossWeights(tau=tau, **BASE_WEIGHTS[base])
        for variant in VARIANTS:
            w, _, _ = resolve_variant(variant, base_w, False, AttackConfig())
            for given in (False, True):
                targets = teacher_targets(teacher, x_clean, y, w) if given else None
                value, grads, comps = tima_loss(
                    student, teacher, x_clean, x_adv, y, w, targets=targets,
                    student_text=student.text_forward() if given else None)
                tape, tape_comps = tape_tima_loss(
                    student, teacher, x_clean, x_adv, y, w, targets=targets,
                    student_text=tape_encode_classes(student) if given else None)
                assert type(value) is float and same_bits(np.asarray(value), tape.data)
                assert dataclasses.astuple(comps) == dataclasses.astuple(tape_comps)
                assert list(grads) == student.parameters()
                # with frozen text the tape is asked for the image parameters only
                for params in (student.image_parameters(), student.parameters()):
                    tape_grads = backward(tape, params)
                    for p in params:
                        assert same_bits(grads[p], tape_grads[p])

    @pytest.mark.parametrize("hidden", [(), (5,), (128,)])
    @pytest.mark.parametrize("tau", [1.0, 0.1, 0.01])
    def test_contrastive_ce_bitwise(self, hidden, tau):
        # the closed form returns the value and every parameter's gradient
        student, _, x, _, y = fused_case(hidden, tau, seed=1)
        value, grads = contrastive_ce(student, x, y)
        tape = tape_contrastive_ce(student, x, y)
        params = student.parameters()
        assert type(value) is float and value == tape.item()
        assert list(grads) == params
        tape_grads = backward(tape, params)
        for p in params:
            assert np.array_equal(grads[p].view(np.uint64), tape_grads[p].view(np.uint64))


def _inf_image_weight(case):
    case["student"].affine[0][0].data[0, 0] = np.inf


def _inf_text_weight(case):
    case["student"].class_table.data[0, 0] = np.inf


# an infinite class-table weight makes the class-text matmul NaN, which numpy
# warns about before the finite check rejects it
INF_TEXT_WEIGHT = pytest.param(_inf_text_weight, NonFiniteValue, marks=pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul:RuntimeWarning"))


def _nan_pixel(case):
    case["x_adv"][2, 1] = np.nan


def _zero_embedding(case):
    # a black image through a linear encoder with zero bias embeds to 0
    student = case["student"]
    student.affine = student.affine[-1:]
    student.affine[0][0].data = np.ones((12, 6))
    case["x_adv"][3] = 0.0


def _nan_margin_row(case):
    case["targets"].margin[1] = np.nan


def _non_unit_teacher_z(case):
    case["targets"].z[0] *= 1.5


def _teacher_row_count(case):
    case["targets"] = case["targets"].take(np.arange(len(case["y"]) - 1))


def _label_out_of_range(case):
    case["y"][0] = 5


class TestFusedErrorParity:
    """A single fault raises the same TimaError, with the same message, from
    the fused ops as from the tape composition."""

    def make(self, fault):
        student, teacher, x_clean, x_adv, y = fused_case((5,), 0.1, seed=2)
        w = LossWeights(tau=0.1)
        case = dict(student=student, teacher=teacher, x_clean=x_clean, x_adv=x_adv, y=y, w=w,
                    targets=teacher_targets(teacher, x_clean, y, w))
        fault(case)
        return case

    def assert_same_error(self, error, fused_call, tape_call):
        with pytest.raises(error) as fused_exc:
            fused_call()
        with pytest.raises(error) as tape_exc:
            tape_call()
        assert str(fused_exc.value) == str(tape_exc.value)

    @pytest.mark.parametrize("fault, error", [
        (_inf_image_weight, NonFiniteValue),
        INF_TEXT_WEIGHT,
        (_nan_pixel, NonFiniteValue),
        (_nan_margin_row, NonFiniteValue),
        (_zero_embedding, DegenerateRow),
        (_non_unit_teacher_z, NotNormalized),
        (_teacher_row_count, ShapeMismatch),
        (_label_out_of_range, LabelOutOfRange),
    ])
    @pytest.mark.parametrize("variant", ["tima", "iat_only"])
    def test_tima_loss(self, fault, error, variant):
        c = self.make(fault)
        w, _, _ = resolve_variant(variant, c["w"], False, AttackConfig())
        args = (c["student"], c["teacher"], c["x_clean"], c["x_adv"], c["y"], w)
        self.assert_same_error(error, lambda: tima_loss(*args, targets=c["targets"]),
                               lambda: tape_tima_loss(*args, targets=c["targets"]))

    @pytest.mark.parametrize("fault, error", [
        (_inf_image_weight, NonFiniteValue),
        INF_TEXT_WEIGHT,
        (_nan_pixel, NonFiniteValue),
        (_zero_embedding, DegenerateRow),
    ])
    def test_contrastive_ce(self, fault, error):
        c = self.make(fault)
        self.assert_same_error(error, lambda: contrastive_ce(c["student"], c["x_adv"], c["y"]),
                               lambda: tape_contrastive_ce(c["student"], c["x_adv"], c["y"]))

    @pytest.mark.parametrize("label", [5, -1])
    def test_contrastive_ce_rejects_out_of_range_labels(self, label):
        # the tape composition raised IndexError for 5 and wrapped -1 silently
        student, _, x, _, y = fused_case((5,), 0.1, seed=2)
        y[0] = label
        with pytest.raises(LabelOutOfRange):
            contrastive_ce(student, x, y)


LABEL_COUNT_CALLS = {
    "tam_loss": lambda c, y: tam_loss(c["s"], np.zeros(c["s"].shape), y, 0.1),
    "adaptive_margin": lambda c, y: adaptive_margin(c["s"], c["s_tt"], y, 0.1, 0.5),
    "contrastive_ce": lambda c, y: contrastive_ce(c["student"], c["x"], y),
    "tima_loss": lambda c, y: tima_loss(c["student"], c["teacher"], c["x"], c["x"], y,
                                        LossWeights(tau=0.1)),
    "pgd_attack": lambda c, y: pgd_attack(c["student"], c["text"], c["x"], y,
                                          AttackConfig(eps=2 / 255, steps=2)),
    "per_sample_ce": lambda c, y: per_sample_ce(c["student"], c["text"], c["x"], y),
}


@pytest.mark.parametrize("call", sorted(LABEL_COUNT_CALLS))
@pytest.mark.parametrize("count", [1, 3])
def test_label_count_must_match_rows(call, count):
    # 5 rows; too few labels used to broadcast or index past the end
    student, teacher, x, _, y = fused_case((5,), 0.1, seed=2, n=5)
    text = student.encode_classes().data
    s = student.encode_images(x).data @ text.T
    case = dict(student=student, teacher=teacher, x=x, text=text, s=s, s_tt=text @ text.T)
    with pytest.raises(ShapeMismatch, match=f"{count} labels for 5 images"):
        LABEL_COUNT_CALLS[call](case, y[:count])
