import dataclasses
import json
import os
import signal
import struct
import sys
import time

import numpy as np
import pytest

from tima import attacks, harness
from tima.attacks import robust_accuracy
from tima.cli import main
from tima.config import load_config
from tima.data import load_dataset, save_dataset
from tima.errors import InvalidConfig
from tima.harness import TREND_SEEDS, TREND_VARIANTS, run_grid
from tima.model import load_model, save_model

# small, fast recipe: linear encoder, tiny images, short training
FAST_CONFIG = """
num_superclasses = 2
subclasses_per_superclass = 2
image_side = 5
within_super_shift = 0.08
noise_sigma = 0.06
train_count = 120
test_count = 40
hidden_dims =
embed_dim = 6
pretrain_lr = 0.001
pretrain_epochs = 3
finetune_epochs = 2
batch_size = 32
eval_eps_list = 0,1/255,4/255,8/255
eval_steps = 2
sweep_m = 0.1
sweep_eta = 0.95
sweep_eps = 1/255
"""


# trend recipe: like FAST_CONFIG, but trained far enough above chance that the
# robust numbers differ across seeds, variants and eps
TREND_CONFIG = """
num_superclasses = 2
subclasses_per_superclass = 2
image_side = 8
train_count = 200
test_count = 300
hidden_dims =
embed_dim = 6
pretrain_epochs = 10
finetune_epochs = 2
batch_size = 32
eval_steps = 2
"""


@pytest.fixture()
def trend_config(tmp_path):
    path = tmp_path / "trend.cfg"
    path.write_text(TREND_CONFIG)
    return path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG)
    return path


def run_pipeline(cfg_path, out_dir, variant="tima"):
    for argv in (["gen-data"], ["pretrain"],
                 ["finetune", "--variant", variant], ["eval", "--variant", variant]):
        code = main(argv + ["--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0, f"{argv} failed"


class TestSubcommands:
    def test_gen_data_outputs(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(config_file), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["test.timd", "train.timd"]
        for name in ("train.timd", "test.timd"):
            d = load_dataset(out / name)
            assert d.num_samples > 0

    def test_full_pipeline(self, config_file, tmp_path):
        out = tmp_path / "out"
        run_pipeline(config_file, out)
        assert (out / "pretrained.timm").exists()
        assert (out / "finetuned_tima.timm").exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report["robust_accuracy"]) == {"0", "1/255", "4/255", "8/255"}
        assert report["robust_accuracy"]["0"] == report["clean_accuracy"]
        assert (out / "matrices").is_dir()
        for files in report["matrices"].values():
            assert (out / "matrices" / files["csv"]).exists()
            assert (out / "matrices" / files["pgm"]).exists()

    def test_tecoa_keeps_teacher_text_distance(self, config_file, tmp_path):
        out = tmp_path / "out"
        run_pipeline(config_file, out, variant="tecoa")
        report = json.loads((out / "report.json").read_text())
        assert report["text_min_distance"]["student"] == report["text_min_distance"]["teacher"]
        assert report["text_mean_distance"]["student"] == report["text_mean_distance"]["teacher"]

    def test_unknown_subcommand_usage(self, capsys):
        code = main(["frobnicate", "--out", "x"])
        assert code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_out_flag(self):
        assert main(["gen-data"]) != 0

    def test_eval_without_pretrain_errors(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["gen-data", "--config", str(config_file), "--out", str(out)])
        code = main(["eval", "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_bad_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta = 1.5\n")
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_seed_override(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", str(config_file), "--out", str(out1),
                     "--seed", "7"]) == 0
        assert main(["gen-data", "--config", str(config_file), "--out", str(out2),
                     "--seed", "8"]) == 0
        a = load_dataset(out1 / "train.timd")
        b = load_dataset(out2 / "train.timd")
        assert not np.array_equal(a.images, b.images)

    def test_export_matrices_is_no_subcommand(self, tmp_path, capsys):
        # `eval` writes the matrices; there is no second entry into evaluate
        out = tmp_path / "out"
        code = main(["export-matrices", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid choice: 'export-matrices'" in err
        assert not out.exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_trend(self, trend_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["trend", "--config", str(trend_config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        reports = sorted((out / "trend").rglob("report.json"))
        assert len(reports) == len(TREND_SEEDS) * len(TREND_VARIANTS) == 6
        cfg = load_config(trend_config)
        for eps_text, _ in cfg.eval_eps():
            assert f"tima - tecoa robust gap @ {eps_text}: " in printed
        robust = set()
        for seed in TREND_SEEDS:
            cell = run_grid(cfg.with_seed(seed), TREND_VARIANTS)
            for variant, student in cell.students.items():
                point = out / "trend" / f"seed{seed}_{variant}"
                payload = json.loads((point / "report.json").read_text())
                assert payload["config"]["variant"] == variant
                for eps_text, eps in cell.cfg.eval_eps():
                    attack = dataclasses.replace(cell.cfg.eval_attack(), eps=eps)
                    assert payload["robust_accuracy"][eps_text] == \
                        robust_accuracy(student, cell.teacher, cell.test, attack)
                    robust.add(payload["robust_accuracy"][eps_text])
        assert len(robust) > 6

    def test_trend_seed_runs_one_seed(self, trend_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["trend", "--config", str(trend_config), "--out", str(out),
                     "--seed", "5"]) == 0
        assert "means over seeds [5]" in capsys.readouterr().out
        assert sorted(p.name for p in (out / "trend").iterdir()) == \
            ["seed5_tecoa", "seed5_tima"]

    def test_sweep_reports(self, config_file, tmp_path):
        out = tmp_path / "out"
        for argv in (["gen-data"], ["pretrain"]):
            assert main(argv + ["--config", str(config_file), "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        reports = sorted((out / "sweep").rglob("report.json"))
        assert len(reports) == 1  # 1 m x 1 eta x 1 eps
        payload = json.loads(reports[0].read_text())
        assert set(payload["robust_accuracy"]) == {"1/255"}

    def test_sweep_trains_the_resolved_variant(self, tmp_path, monkeypatch):
        # each (m, eta) point is the variant's recipe with that margin: a
        # tai_only point keeps lambda 0 and the frozen text
        cfg = tmp_path / "tai.cfg"
        cfg.write_text(FAST_CONFIG.replace("sweep_m = 0.1", "sweep_m = 0.3")
                       + "variant = tai_only\n")
        out = tmp_path / "out"
        run_stages(cfg, out, ["gen-data"], ["pretrain"])
        trained = []
        original = harness.finetune

        def finetune(model, teacher, train, train_cfg):
            trained.append(train_cfg)
            return original(model, teacher, train, train_cfg)

        monkeypatch.setattr(harness, "finetune", finetune)
        run_stages(cfg, out, ["sweep"])
        base = load_config(cfg).finetune_config()
        assert trained == [dataclasses.replace(
            base, loss_weights=dataclasses.replace(base.loss_weights, m=0.3, eta=0.95))]
        assert trained[0].loss_weights.lam == 0.0 and trained[0].freeze_text


def run_stages(cfg_path, out_dir, *stages):
    for argv in stages:
        assert main([*argv, "--config", str(cfg_path), "--out", str(out_dir)]) == 0, argv


def failed_stage(cfg_path, out_dir, capsys, *argv):
    """Run one stage that must fail: its exit code is 1 and it prints one
    error line, no traceback and nothing on stdout."""
    capsys.readouterr()
    code = main([*argv, "--config", str(cfg_path), "--out", str(out_dir)])
    printed = capsys.readouterr()
    assert code == 1
    assert printed.out == ""
    assert printed.err.startswith("error: ") and printed.err.count("\n") == 1
    assert "Traceback" not in printed.err
    return printed.err


class TestRejectedInputs:
    def test_eval_on_another_class_count(self, config_file, tmp_path, capsys):
        out, other = tmp_path / "out", tmp_path / "other"
        run_stages(config_file, out, ["gen-data"], ["pretrain"], ["finetune"])
        eight = tmp_path / "eight.cfg"
        eight.write_text(FAST_CONFIG + "num_superclasses = 4\n")
        run_stages(eight, other, ["gen-data"])
        err = failed_stage(config_file, out, capsys, "eval", "--data", str(other / "test.timd"))
        assert err == "error: the test set has 8 classes, the student model 4\n"
        assert not (out / "report.json").exists()

    def test_eval_with_a_class_without_sample(self, tmp_path, capsys):
        # 3 test samples for 4 classes: class 3 has none
        cfg = tmp_path / "three.cfg"
        cfg.write_text(FAST_CONFIG.replace("test_count = 40", "test_count = 3"))
        out = tmp_path / "out"
        run_stages(cfg, out, ["gen-data"], ["pretrain"], ["finetune"])
        err = failed_stage(cfg, out, capsys, "eval")
        assert err.startswith("error: the test set has no sample of classes [3]")
        assert not (out / "report.json").exists()
        assert not (out / "matrices").exists()

    def test_eval_on_a_model_whose_embeddings_overflow(self, config_file, tmp_path, capsys):
        # the encoder names the row whose squared norm overflows, instead of a
        # RuntimeWarning and a zero class mean's "norm 0.000e+00" afterwards
        out = tmp_path / "out"
        run_stages(config_file, out, ["gen-data"], ["pretrain"], ["finetune"])
        ckpt = out / "finetuned_tima.timm"
        student = load_model(ckpt)
        student.out_b.data[:] = 1e160
        save_model(student, ckpt)
        err = failed_stage(config_file, out, capsys, "eval", "--model", str(ckpt))
        assert err.startswith("error: row 0 has norm ")
        assert err.endswith(": its square overflows\n")
        assert not (out / "report.json").exists()

    def test_finetune_on_a_checkpoint_whose_size_overflows(self, config_file, tmp_path, capsys):
        # tensor 0 declares (2**32 - 1)**2 values: the read fails as truncated
        out = tmp_path / "out"
        run_stages(config_file, out, ["gen-data"])
        big = 2**32 - 1
        (out / "pretrained.timm").write_bytes(b"TIMM" + struct.pack(
            "<IIIIIIQdIIII", 1, big, 1, big, 4, 2, 0, 0.07, 6, 2, big, big))
        err = failed_stage(config_file, out, capsys, "finetune")
        assert "expected 147573952520956936200 more bytes at offset 60" in err
        assert not list(out.glob("finetuned_*.timm"))

    def test_gen_data_whose_arrays_cannot_be_allocated(self, tmp_path, capsys):
        # 10**14 pixels per image: numpy refuses the first array (5.68 PiB,
        # past any address space) before it touches memory
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("image_side = 10000000\n")
        out = tmp_path / "out"
        err = failed_stage(cfg, out, capsys, "gen-data")
        assert err.startswith("error: out of memory: Unable to allocate ")
        assert not list(out.glob("*.timd"))

    @pytest.mark.parametrize("stage", ["gen-data", "pretrain", "finetune", "eval", "sweep"])
    def test_a_failed_stage_leaves_no_out_directory(self, config_file, tmp_path, capsys, stage):
        # gen-data makes --out only once both datasets exist; the other stages
        # read their inputs from --out and never make it. gen-data fails on a
        # legal spec whose pixels overflow to opposite infinities, the others
        # on the missing inputs of a fresh directory.
        if stage == "gen-data":
            config_file.write_text(FAST_CONFIG.replace("within_super_shift = 0.08",
                                                       "within_super_shift = 1e308")
                                   .replace("noise_sigma = 0.06", "noise_sigma = 1e308"))
        out = tmp_path / "out"
        failed_stage(config_file, out, capsys, stage)
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["pretrain", "finetune"])
    def test_training_on_no_sample(self, config_file, tmp_path, capsys, stage):
        out = tmp_path / "out"
        run_stages(config_file, out, ["gen-data"], ["pretrain"])
        train = load_dataset(out / "train.timd")
        save_dataset(dataclasses.replace(train, images=train.images[:0],
                                         labels=train.labels[:0]), out / "train.timd")
        err = failed_stage(config_file, out, capsys, stage)
        assert err == "error: cannot train on an empty dataset\n"

    @pytest.mark.parametrize("variant", ["tecoa", "iat_only", "mhe_only"])
    def test_sweep_under_a_variant_without_the_margin(self, tmp_path, capsys, variant):
        # every (m, eta) point would train the same student: the sweep fails
        # before it reads a dataset or makes its output directory
        cfg = tmp_path / "variant.cfg"
        cfg.write_text(FAST_CONFIG + f"variant = {variant}\n")
        out = tmp_path / "out"
        err = failed_stage(cfg, out, capsys, "sweep")
        assert err == (f"error: sweep traces the margin (m, eta), which variant {variant!r} "
                       f"does not train; use one of tima, tai_only\n")
        assert not out.exists()

    @pytest.mark.parametrize("stage", [["finetune"], ["eval"],
                                       ["eval", "--data", "absent.timd"],
                                       ["eval", "--model", "absent.timm"]])
    def test_unknown_variant(self, config_file, tmp_path, capsys, stage):
        # eval rejects the variant as finetune does, even with --data or
        # --model, before it reads a file or makes the output directory
        out = tmp_path / "out"
        err = failed_stage(config_file, out, capsys, *stage, "--variant", "bogus")
        assert err.startswith("error: unknown variant 'bogus'; expected one of (")
        assert not out.exists()

    def test_seed_a_checkpoint_cannot_store(self, config_file, tmp_path, capsys):
        # the checkpoint stores the seed as a u64: the seed fails before training
        out = tmp_path / "out"
        run_stages(config_file, out, ["gen-data"])
        err = failed_stage(config_file, out, capsys, "pretrain", "--seed", str(2 ** 64))
        assert err.startswith("error: seed must lie in [0, 2**64)")
        assert not (out / "pretrained.timm").exists()

    def test_gen_data_rejects_a_seed_a_checkpoint_cannot_store(self, config_file, tmp_path,
                                                                capsys):
        # the --seed override is checked as the config file's seed is: no dataset is written
        out = tmp_path / "out"
        err = failed_stage(config_file, out, capsys, "gen-data", "--seed", str(2 ** 64))
        assert err.startswith("error: seed must lie in [0, 2**64)")
        assert not list(tmp_path.rglob("*.timd"))

    def test_interrupt_is_one_error_line_and_exit_code_130(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C in a stage whose cells fork: every child is reaped, and the
        # CLI prints one line instead of a traceback
        def run_grid(*args):
            time.sleep(0.1)
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run_grid", run_grid)
        monkeypatch.setattr(harness, "_cell_workers", lambda count: min(count, 2))
        code = main(["trend", "--out", str(tmp_path / "out")])
        printed = capsys.readouterr()
        assert code == 130
        assert printed.out == "" and printed.err == "error: interrupted\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="cells fork on Linux only")
    def test_killed_pass_worker_during_eval(self, config_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        run_stages(config_file, out, ["gen-data"], ["pretrain"], ["finetune"])
        parent = os.getpid()
        original = attacks.scored_batch

        def scored_batch(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.2)  # the caller runs jobs too: a child claims one meanwhile
            return original(*args)

        monkeypatch.setattr(attacks, "scored_batch", scored_batch)
        monkeypatch.setattr(harness, "_cell_workers", lambda count: min(count, 2))
        err = failed_stage(config_file, out, capsys, "eval")
        assert err.startswith("error: a cell worker process died")
        assert not (out / "report.json").exists()


class TestDeterminism:
    def test_pipeline_byte_identical(self, config_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_pipeline(config_file, out1)
        run_pipeline(config_file, out2)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        m1 = sorted((out1 / "matrices").iterdir())
        m2 = sorted((out2 / "matrices").iterdir())
        assert [p.name for p in m1] == [p.name for p in m2]
        for a, b in zip(m1, m2):
            assert a.read_bytes() == b.read_bytes()
        assert (out1 / "pretrained.timm").read_bytes() == (out2 / "pretrained.timm").read_bytes()
        assert (out1 / "finetuned_tima.timm").read_bytes() == (out2 / "finetuned_tima.timm").read_bytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="cells fork on Linux only")
class TestSweepCells:
    """`tima sweep` runs one cell per (m, eta); four cells here."""

    @pytest.fixture()
    def pretrained_out(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_CONFIG.replace("sweep_m = 0.1\n", "sweep_m = 0.05,0.1\n")
                       .replace("sweep_eta = 0.95\n", "sweep_eta = 0.9,0.95\n"))
        out = tmp_path / "out"
        for argv in (["gen-data"], ["pretrain"]):
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        return ["sweep", "--config", str(cfg), "--out", str(out)], out

    def sweep(self, monkeypatch, capsys, argv, out, workers):
        monkeypatch.setattr(harness, "_cell_workers", lambda count: min(count, workers))
        code = main(argv)
        printed = capsys.readouterr()
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted((out / "sweep").rglob("*")) if p.is_file()}
        return code, printed, files

    def test_one_worker_matches_forked_workers(self, pretrained_out, monkeypatch, capsys):
        forked = self.sweep(monkeypatch, capsys, *pretrained_out, workers=2)
        in_process = self.sweep(monkeypatch, capsys, *pretrained_out, workers=1)
        assert forked[0] == in_process[0] == 0
        assert forked[1].out == in_process[1].out
        assert len(forked[2]) == 4
        assert forked[2] == in_process[2]

    def failing_cell(self, monkeypatch, fail):
        original = harness.finetune

        def finetune(model, teacher, train, cfg):
            if cfg.loss_weights.m == 0.1:
                fail()
            return original(model, teacher, train, cfg)

        monkeypatch.setattr(harness, "finetune", finetune)

    def test_cell_error_reaches_cli(self, pretrained_out, monkeypatch, capsys):
        def fail():
            raise InvalidConfig("bad cell m=0.1")

        self.failing_cell(monkeypatch, fail)
        code, printed, _ = self.sweep(monkeypatch, capsys, *pretrained_out, workers=2)
        assert code == 1
        assert printed.err == "error: bad cell m=0.1\n"
        assert printed.out == ""

    def test_killed_worker_reaches_cli(self, pretrained_out, monkeypatch, capsys):
        # the caller runs cells too: only a forked child dies
        caller = os.getpid()
        original = harness.finetune

        def finetune(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(harness, "finetune", finetune)
        code, printed, _ = self.sweep(monkeypatch, capsys, *pretrained_out, workers=2)
        assert code == 1
        assert printed.err.startswith("error: a cell worker process died")
        assert "Traceback" not in printed.err
