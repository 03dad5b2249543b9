"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time

import numpy as np
import pytest

from tima.attacks import AttackConfig, pgd_attack, robust_accuracy
from tima.harness import eval_clean, interclass_stats
from tima.losses import (
    LossWeights,
    adaptive_margin,
    cosine_sim_matrix,
    iakd_loss,
    kl_rows,
    mhe_loss,
    takd_loss,
    tam_loss,
    tima_loss,
)
from tima.model import EncoderConfig, init_model, snapshot_teacher
from tima.tensor import Tensor, backward, l2_normalize_rows

from oracles import finite_diff_grad

REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def rel_err(analytic, numeric):
    denom = np.maximum(np.abs(numeric), ABS_FLOOR / REL_TOL)
    return float(np.max(np.abs(analytic - numeric) / denom))


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestCriterion1GradientOracle:
    def test_all_losses_match_finite_differences(self):
        t0 = time.time()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, c, d = 3, 4, 6
            tau = float(rng.choice([1.0, 0.5, 0.1]))
            teacher_z = unit_rows(rng, n, d)
            teacher_t = unit_rows(rng, c, d)
            y = rng.integers(0, c, size=n)

            # mhe_loss through row normalization
            v0 = rng.normal(size=(c, d))
            vt = Tensor(v0)
            analytic = backward(mhe_loss(l2_normalize_rows(vt)), [vt])[vt]
            numeric = finite_diff_grad(
                lambda v: mhe_loss(l2_normalize_rows(Tensor(v))).item(), v0)
            worst = max(worst, rel_err(analytic, numeric))

            # iakd_loss wrt student text
            vt = Tensor(v0)
            analytic = backward(
                iakd_loss(teacher_z, teacher_t, l2_normalize_rows(vt), tau), [vt])[vt]
            numeric = finite_diff_grad(
                lambda v: iakd_loss(teacher_z, teacher_t,
                                    l2_normalize_rows(Tensor(v)), tau).item(), v0)
            worst = max(worst, rel_err(analytic, numeric))

            # takd_loss wrt adversarial image embeddings
            z0 = rng.normal(size=(n, d))
            zt = Tensor(z0)
            analytic = backward(
                takd_loss(teacher_z, teacher_t, l2_normalize_rows(zt), tau), [zt])[zt]
            numeric = finite_diff_grad(
                lambda v: takd_loss(teacher_z, teacher_t,
                                    l2_normalize_rows(Tensor(v)), tau).item(), z0)
            worst = max(worst, rel_err(analytic, numeric))

            # tam_loss wrt pre-normalized embeddings
            margin = adaptive_margin(unit_rows(rng, n, d) @ teacher_t.T,
                                     teacher_t @ teacher_t.T, y, 0.1, 0.9)
            zt = Tensor(z0)
            s = cosine_sim_matrix(l2_normalize_rows(zt), teacher_t)
            analytic = backward(tam_loss(s, margin, y, tau), [zt])[zt]

            def f_tam(v):
                s = cosine_sim_matrix(l2_normalize_rows(Tensor(v)), teacher_t)
                return tam_loss(s, margin, y, tau).item()

            worst = max(worst, rel_err(analytic, finite_diff_grad(f_tam, z0)))

        report("criterion 1a (loss gradients, 20 seeds)", worst < REL_TOL,
               f"worst rel err {worst:.2e}")
        report("criterion 1 runtime", time.time() - t0 < 60.0,
               f"{time.time() - t0:.1f}s < 60s")

    def test_tima_loss_and_encoder_match_finite_differences(self):
        worst = 0.0
        for seed in range(20):
            cfg = EncoderConfig(input_dim=5, hidden_dims=(4,), embed_dim=4,
                                num_classes=3, seed=seed)
            student = init_model(cfg, tau=0.5)
            teacher = snapshot_teacher(init_model(
                dataclasses.replace(cfg, seed=seed + 77), tau=0.5))
            rng = np.random.default_rng(seed + 11)
            x_clean = rng.uniform(0.1, 0.9, size=(3, 5))
            x_adv = np.clip(x_clean + rng.uniform(-0.02, 0.02, size=(3, 5)), 0, 1)
            y = rng.integers(0, 3, size=3)
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

                worst = max(worst, rel_err(analytic[p],
                                           finite_diff_grad(f, original, h=1e-6)))

            # encode_images wrt input pixels, via a random linear probe
            probe = rng.normal(size=(3, 4))
            xt = Tensor(x_clean)
            loss = (student.encode_images(xt) * Tensor(probe, op="const")).sum()
            analytic_x = backward(loss, [xt])[xt]
            numeric_x = finite_diff_grad(
                lambda v: (student.encode_images(Tensor(v))
                           * Tensor(probe, op="const")).sum().item(), x_clean, h=1e-6)
            worst = max(worst, rel_err(analytic_x, numeric_x))

        report("criterion 1b (combined loss + encoder gradients, 20 seeds)",
               worst < REL_TOL, f"worst rel err {worst:.2e}")


class TestCriterion2AnalyticValues:
    def test_hand_computed_losses(self):
        checks = []
        checks.append(abs(mhe_loss(np.array([[1.0, 0.0], [-1.0, 0.0]])).item() - 0.2) < 1e-12)
        checks.append(abs(mhe_loss(np.array([[1.0, 0.0], [1.0, 0.0]])).item() - 1.0) < 1e-12)
        tri = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        checks.append(abs(mhe_loss(tri).item() - 0.25) < 1e-12)

        tam = tam_loss(np.array([[1.0, 0.0]]), np.zeros((1, 2)), np.array([0]), 1.0).item()
        checks.append(abs(tam - 0.3133) < 1e-4)

        checks.append(kl_rows(np.array([[1.0, 0.5]]), np.array([[1.0, 0.5]]), 1.0).item() == 0.0)
        ln2 = kl_rows(np.array([[50.0, 0.0]]), np.array([[0.0, 0.0]]), 1.0).item()
        checks.append(abs(ln2 - np.log(2.0)) < 1e-6)

        m = adaptive_margin(np.array([[0.8, 0.78, 0.5]]),
                            np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.3], [0.2, 0.3, 1.0]]),
                            np.array([0]), 0.1, 0.95)
        checks.append(m[0, 1] == 0.1 * 0.9)
        checks.append(m[0, 2] == 0.0)
        checks.append(m[0, 0] == 0.1)

        report("criterion 2 (analytic loss values)", all(checks),
               f"{sum(checks)}/{len(checks)} hand cases exact")


class TestCriterion3SimplexConvergence:
    @staticmethod
    def _minimize_energy(n, d, seed, lr=0.8, momentum=0.9, iters=600):
        rng = np.random.default_rng(seed)
        v = Tensor(rng.normal(size=(n, d)))
        velocity = np.zeros_like(v.data)
        for _ in range(iters):
            loss = mhe_loss(l2_normalize_rows(v))
            g = backward(loss, [v])[v]
            velocity = momentum * velocity + g
            v.data -= lr * velocity
        t = l2_normalize_rows(v).data
        return t @ t.T

    def test_gradient_descent_reaches_regular_simplex(self):
        t0 = time.time()
        worst = 0.0
        for n, d in ((3, 2), (4, 3)):
            target = -1.0 / (n - 1)
            for start in range(10):
                gram = self._minimize_energy(n, d, seed=start)
                off_diag = gram[~np.eye(n, dtype=bool)]
                worst = max(worst, float(np.max(np.abs(off_diag - target))))
        elapsed = time.time() - t0
        report("criterion 3 (simplex convergence from 10 starts)",
               worst < 1e-2, f"worst |gram - target| {worst:.2e}")
        report("criterion 3 runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s")


class TestCriterion4TecoaReduction:
    def test_reduction_equals_plain_cross_entropy(self):
        worst = 0.0
        for seed in range(100):
            cfg = EncoderConfig(input_dim=5, hidden_dims=(4,), embed_dim=4,
                                num_classes=3, seed=seed)
            student = init_model(cfg, tau=0.1)
            teacher = snapshot_teacher(init_model(
                dataclasses.replace(cfg, seed=seed + 1000), tau=0.1))
            rng = np.random.default_rng(seed)
            x_clean = rng.uniform(0, 1, size=(4, 5))
            x_adv = np.clip(x_clean + rng.uniform(-0.05, 0.05, size=(4, 5)), 0, 1)
            y = rng.integers(0, 3, size=4)
            w = LossWeights(tau=0.1, m=0.0, lam=0.0, lam_v=0.0)
            total = tima_loss(student, teacher, x_clean, x_adv, y, w)[0]

            # independent oracle: stabilized log-softmax cross-entropy in numpy
            z = student.encode_images(x_adv).data
            logits = (z @ teacher.t_hat.T) / 0.1
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            plain = -log_p[np.arange(4), y].mean()
            worst = max(worst, abs(total - plain))
        report("criterion 4 (TeCoA reduction on 100 batches)", worst < 1e-12,
               f"worst |diff| {worst:.2e}")


class TestCriterion5PgdContracts:
    def test_ball_range_identity_determinism(self):
        cfg = EncoderConfig(input_dim=6, hidden_dims=(5,), embed_dim=4,
                            num_classes=3, seed=0)
        model = init_model(cfg, tau=0.1)
        text = model.encode_classes().data
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(16, 6))
        y = rng.integers(0, 3, size=16)

        ok, details = True, []
        for eps in (1 / 255, 4 / 255, 8 / 255):
            for restarts in (0, 2):
                atk = AttackConfig(eps=eps, step_size=1 / 255, steps=5,
                                   restarts=restarts, seed=42)
                x_adv = pgd_attack(model, text, x, y, atk)
                ok &= float(np.max(np.abs(x_adv - x))) <= eps + 1e-9
                ok &= x_adv.min() >= 0.0 and x_adv.max() <= 1.0
                ok &= np.array_equal(x_adv, pgd_attack(model, text, x, y, atk))
        identity = pgd_attack(model, text, x, y,
                              AttackConfig(eps=0.0, step_size=1 / 255, steps=5))
        ok &= np.array_equal(identity, x)
        report("criterion 5 (PGD ball/range/identity/determinism)", ok,
               "all attack contracts hold")


class TestCriterion6EndToEndTrend:
    def test_robust_gap_at_4_255(self, trend_runs):
        t0 = time.time()
        eval_attack = AttackConfig(eps=4 / 255, step_size=1 / 255, steps=10, restarts=0)
        tima_rob, tecoa_rob, tima_clean, tecoa_clean = [], [], [], []
        for seed in (0, 1, 2):
            run = trend_runs[seed]
            tima_rob.append(robust_accuracy(run.students["tima"], run.teacher,
                                            run.test, eval_attack))
            tecoa_rob.append(robust_accuracy(run.students["tecoa"], run.teacher,
                                             run.test, eval_attack))
            tima_clean.append(eval_clean(run.students["tima"], run.test))
            tecoa_clean.append(eval_clean(run.students["tecoa"], run.test))
        gap = float(np.mean(tima_rob) - np.mean(tecoa_rob))
        clean_diff = float(np.mean(tima_clean) - np.mean(tecoa_clean))
        elapsed = trend_runs["train_seconds"] + (time.time() - t0)
        report("criterion 6 (robust-accuracy gap at eps=4/255, 3-seed mean)",
               gap >= 0.05,
               f"tima {np.mean(tima_rob):.3f} vs tecoa {np.mean(tecoa_rob):.3f} "
               f"(gap {100 * gap:+.1f}pp, per-seed "
               + " ".join(f"{100 * (a - b):+.1f}" for a, b in zip(tima_rob, tecoa_rob)) + ")")
        report("criterion 6 (clean accuracy within 5 points)",
               abs(clean_diff) <= 0.05,
               f"tima {np.mean(tima_clean):.3f} vs tecoa {np.mean(tecoa_clean):.3f} "
               f"({100 * clean_diff:+.1f}pp)")
        report("criterion 6 runtime", elapsed < 600.0, f"{elapsed:.0f}s < 600s")


class TestCriterion7GeometryTrend:
    def test_text_geometry_and_ablation(self, trend_runs):
        run = trend_runs[0]
        supers = run.train.superclass_of

        def block_gap(t):
            sims = t @ t.T
            c = len(t)
            within, cross = [], []
            for i in range(c):
                for j in range(i + 1, c):
                    (within if supers[i] == supers[j] else cross).append(sims[i, j])
            return float(np.mean(within) - np.mean(cross))

        teacher_min, _ = interclass_stats(run.teacher.t_hat)
        student_t = run.students["tima"].encode_classes().data
        student_min, _ = interclass_stats(student_t)
        report("criterion 7 (student min text distance exceeds teacher)",
               student_min > teacher_min,
               f"student {student_min:.4f} > teacher {teacher_min:.4f}")

        tima_block = block_gap(student_t)
        report("criterion 7 (superclass block structure preserved)",
               tima_block > 0.0, f"within-minus-cross similarity {tima_block:+.4f}")

        mhe_block = block_gap(run.students["mhe_only"].encode_classes().data)
        tima_clean = eval_clean(run.students["tima"], run.test)
        mhe_clean = eval_clean(run.students["mhe_only"], run.test)
        degenerated = (mhe_block <= 0.0) or (tima_clean - mhe_clean > 0.05)
        report("criterion 7 (mhe_only ablation degenerates without distillation)",
               degenerated,
               f"mhe_only block {mhe_block:+.4f}, clean drop "
               f"{100 * (tima_clean - mhe_clean):+.1f}pp")


class TestShippedRecipe:
    """Recipe-level spot checks that ride on the trained acceptance fixture."""

    def test_teacher_clean_accuracy(self, trend_runs):
        run = trend_runs[0]
        acc = eval_clean(run.pretrained, run.test)
        report("shipped recipe (pretrained clean accuracy >= 0.9)",
               acc >= 0.9, f"measured {acc:.3f}")

    def test_pretrain_loss_non_increasing_early(self, trend_runs):
        trace = trend_runs[0].pre_trace
        ok = trace[0] >= trace[1] >= trace[2]
        report("shipped recipe (pretrain loss non-increasing, first 3 epochs)",
               ok, " -> ".join(f"{v:.3f}" for v in trace[:3]))

    def test_robust_accuracy_monotone_in_eps(self, trend_runs):
        run = trend_runs[0]
        accs = []
        for eps in (1 / 255, 4 / 255, 8 / 255):
            atk = AttackConfig(eps=eps, step_size=1 / 255, steps=10)
            accs.append(robust_accuracy(run.students["tima"], run.teacher,
                                        run.test, atk))
        ok = accs[0] >= accs[1] >= accs[2]
        report("shipped recipe (robust accuracy non-increasing in eps)",
               ok, " >= ".join(f"{a:.3f}" for a in accs))


class TestCriterion8Determinism:
    def test_cli_pipeline_byte_identical(self, tmp_path):
        from tima.cli import main

        config = tmp_path / "run.cfg"
        config.write_text(
            "num_superclasses = 2\nsubclasses_per_superclass = 2\n"
            "image_side = 5\nwithin_super_shift = 0.08\nnoise_sigma = 0.06\n"
            "train_count = 120\ntest_count = 40\nhidden_dims =\nembed_dim = 6\n"
            "pretrain_lr = 0.001\npretrain_epochs = 3\nfinetune_epochs = 2\n"
            "batch_size = 32\neval_steps = 2\neval_eps_list = 0,1/255,4/255,8/255\n")

        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            for argv in (["gen-data"], ["pretrain"], ["finetune"], ["eval"]):
                code = main(argv + ["--config", str(config), "--out", str(out)])
                assert code == 0
            blobs = {"report.json": (out / "report.json").read_bytes()}
            for f in sorted((out / "matrices").iterdir()):
                blobs[f.name] = f.read_bytes()
            outputs.append(blobs)
        same_names = sorted(outputs[0]) == sorted(outputs[1])
        same_bytes = same_names and all(outputs[0][k] == outputs[1][k] for k in outputs[0])
        report("criterion 8 (byte-identical reports, CSVs, PGM heatmaps)",
               same_bytes, f"{len(outputs[0])} files compared")
