import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from tima import config, data, harness, model

from layers import PER_LAYER
from runner import END_TO_END, OpLog, traced_run, untraced_run
from workloads import WORKLOADS, Workload, tree_digest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

TINY_CONFIG = """
num_superclasses = 2
subclasses_per_superclass = 2
image_side = 5
train_count = 64
test_count = 40
embed_dim = 6
pretrain_epochs = 2
finetune_epochs = 2
batch_size = 32
eval_steps = 2
"""


def _tiny_setup(seed, work):
    cfg = config.parse_config(TINY_CONFIG).with_seed(seed)
    train, test = data.generate_synthetic(cfg.synthetic_spec())
    return SimpleNamespace(cfg=cfg, train=train, test=test), "tiny"


def _tiny_operation(state, out, tracer):
    cfg = state.cfg
    student = model.init_model(cfg.encoder_config(), tau=cfg["tau"])
    student, _ = harness.pretrain_clean(student, state.train, cfg.pretrain_config())
    teacher = model.snapshot_teacher(student)
    student, _ = harness.finetune(student, teacher, state.train, cfg.finetune_config())
    report = harness.evaluate(student, teacher, state.test, cfg.eval_eps(),
                              attack=cfg.eval_attack(), matrices_dir=out / "matrices",
                              config_echo=cfg.echo(), seed=cfg["seed"])
    harness.write_report(report, out / "report.json")
    return tree_digest(out)


TINY = Workload("tiny", _tiny_setup, _tiny_operation)


def _flaky(outputs):
    it = iter(outputs)

    def operation():
        out = next(it)
        if isinstance(out, Exception):
            raise out
        return out
    return operation


def test_fail_frac_counts_an_exception_and_a_mismatch():
    log = OpLog(reference="good")
    operation = _flaky(["good", RuntimeError("injected"), "bad", "good"])
    for _ in range(4):
        log.run(operation)
    assert (log.attempted, log.failed) == (4, 2)
    assert log.fail_frac == pytest.approx(0.5)


def test_without_a_reference_the_first_output_is_expected():
    log = OpLog()
    operation = _flaky([RuntimeError("injected"), "first", "first", "other"])
    for _ in range(4):
        log.run(operation)
    assert log.expected == "first"
    assert (log.attempted, log.failed) == (4, 2)


def _tima_attributes():
    owners = [m for name, m in sys.modules.items() if name == "tima" or name.startswith("tima.")]
    owners += [model.DualEncoder, model.TeacherSnapshot, harness._Momentum]
    return {(id(o), attr): value for o in owners for attr, value in list(vars(o).items())}


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_traced_run_restores_wrappers_and_matches_untraced_output(tmp_path):
    before = _tima_attributes()
    result = traced_run(TINY, 4, 0.0, tmp_path, reference=None)
    after = _tima_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    # one untraced and one traced operation whose outputs must agree
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["attacks.pgd_attack.calls"] > 0
    assert metrics["fail_frac"] == 0.0
    # eps = 0 returns early, so restart selection runs once per attack with eps > 0
    assert metrics["attacks.per_sample_ce.calls"] < metrics["attacks.pgd_attack.calls"]
    assert metrics["losses.tam_loss.fwd_bwd_us"] > 0.0
    spec = _benchmark_spec()["per_layer"]
    assert [(m["name"], m["unit"]) for m in spec] == [(n, result["metrics"][n]["unit"])
                                                      for n in result["metrics"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec] == list(PER_LAYER)


def test_traced_output_mismatch_fails_the_run(tmp_path):
    result = traced_run(TINY, 4, 0.0, tmp_path, reference="0" * 64)
    assert (result["correct"], result["failed"]) == (False, 2)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = untraced_run(TINY, 4, 0.0, tmp_path, reference=None,
                          import_seconds=lambda: 0.1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1
    spec = _benchmark_spec()["end_to_end"]
    assert [(m["name"], m["unit"]) for m in spec] == list(END_TO_END)
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_names_the_shipped_workloads():
    spec = _benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_references_cover_every_workload():
    refs = json.loads((BENCH / "references.json").read_text())
    assert set(refs) == set(WORKLOADS)
    assert all(len(digest) == 64 for seeds in refs.values() for digest in seeds.values())


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-tima",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
