"""The benchmark's workloads: a set-up, a timed operation, and its output digest.

Each workload builds its inputs from the seed alone; tima only ever sees the
generated data and config. Operations call tima through module attributes
(``harness.finetune``, ``cli.main``) so the traced run's wrappers apply.
README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Sequence, Tuple

from tima import cli, config, data, harness, model

from tracing import Tracer

# Only the fine-tuning length departs from the shipped defaults: at 10 epochs
# a 30 s run holds about 25 operations for the median and the repeated-output
# check, while one call still spans 10 epochs over the same rows.
TRAIN_TIMA_CONFIG = "finetune_epochs = 10\n"
EVAL_MLP_CONFIG = "hidden_dims = 128\n"
EVAL_MLP_SETUP_FINETUNE_EPOCHS = 2
CLI_SWEEP_CONFIG = "finetune_epochs = 2\n"
CLI_STAGES = (("gen-data",), ("pretrain",), ("finetune", "--variant", "tecoa"),
              ("eval", "--variant", "tecoa"), ("sweep",))


class StageFailed(Exception):
    """A CLI stage returned a non-zero exit code."""


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, work dir) -> (state, digest of what set-up produced)
    setup: Callable[[int, Path], Tuple[object, str]]
    # (state, fresh output dir, tracer or None) -> digest of the output
    operation: Callable[[object, Path, Optional[Tracer]], str]


def tree_digest(root: Path, tops: Optional[Sequence[str]] = None) -> str:
    """sha256 over every file under ``root`` (path and bytes, in path order),
    limited to the top-level entries ``tops`` when given."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        if tops is not None and rel.parts[0] not in tops:
            continue
        blob = path.read_bytes()
        h.update(f"{rel.as_posix()}\0{len(blob)}\0".encode())
        h.update(blob)
    return h.hexdigest()


def _dataset_digest(d: data.Dataset) -> str:
    return hashlib.sha256(d.images.tobytes() + d.labels.tobytes()).hexdigest()


# -- train-tima: pretrain, then one long fine-tune of the full method --------------


def _train_tima_setup(seed: int, work: Path):
    cfg = config.parse_config(TRAIN_TIMA_CONFIG).with_seed(seed)
    train, _ = data.generate_synthetic(cfg.synthetic_spec())
    return SimpleNamespace(cfg=cfg, train=train), _dataset_digest(train)


def _train_tima_operation(state, out: Path, tracer: Optional[Tracer]) -> str:
    cfg = state.cfg
    student = model.init_model(cfg.encoder_config(), tau=cfg["tau"])
    student, _ = harness.pretrain_clean(student, state.train, cfg.pretrain_config())
    teacher = model.snapshot_teacher(student)
    student, _ = harness.finetune(student, teacher, state.train,
                                  cfg.finetune_config(variant="tima"))
    return student.fingerprint()


# -- eval-mlp: PGD-10 evaluation with matrices on a tanh MLP encoder ------------------


def _eval_mlp_setup(seed: int, work: Path):
    cfg = config.parse_config(EVAL_MLP_CONFIG).with_seed(seed)
    train, test = data.generate_synthetic(cfg.synthetic_spec())
    student = model.init_model(cfg.encoder_config(), tau=cfg["tau"])
    student, _ = harness.pretrain_clean(student, train, cfg.pretrain_config())
    teacher = model.snapshot_teacher(student)
    brief = dataclasses.replace(cfg.finetune_config(), epochs=EVAL_MLP_SETUP_FINETUNE_EPOCHS)
    student, _ = harness.finetune(student, teacher, train, brief)
    state = SimpleNamespace(cfg=cfg, test=test, student=student, teacher=teacher)
    return state, student.fingerprint()


def _eval_mlp_operation(state, out: Path, tracer: Optional[Tracer]) -> str:
    cfg = state.cfg
    report = harness.evaluate(state.student, state.teacher, state.test, cfg.eval_eps(),
                              attack=cfg.eval_attack(), matrices_dir=out / "matrices",
                              config_echo=cfg.echo(), seed=cfg["seed"])
    harness.write_report(report, out / "report.json")
    return tree_digest(out)


# -- cli-sweep: the five CLI stages in a fresh directory -------------------------


def _cli_sweep_setup(seed: int, work: Path):
    path = work / "cli-sweep.cfg"
    path.write_text(CLI_SWEEP_CONFIG)
    return SimpleNamespace(config=path, seed=seed), hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_sweep_operation(state, out: Path, tracer: Optional[Tracer]) -> str:
    for stage in CLI_STAGES:
        argv = [*stage, "--config", str(state.config), "--out", str(out),
                "--seed", str(state.seed)]
        span = tracer.span(f"cli.{stage[0]}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
            if code != 0:
                raise StageFailed(f"tima {stage[0]} exited with {code}")
    return tree_digest(out, ("report.json", "matrices", "sweep"))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("train-tima", _train_tima_setup, _train_tima_operation),
        Workload("eval-mlp", _eval_mlp_setup, _eval_mlp_operation),
        Workload("cli-sweep", _cli_sweep_setup, _cli_sweep_operation),
    )
}
