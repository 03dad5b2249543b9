"""Desk-scale lab for adversarially fine-tuning a toy image/text dual encoder.

Pipeline: synthetic hierarchical data -> clean contrastive pretraining (the
frozen teacher) -> adversarial fine-tuning with the four-component loss
(hyperspherical-energy text repulsion, image-aware text distillation,
text-distance adaptive margin, text-aware image distillation) -> clean/robust
accuracy and embedding-geometry diagnostics.
"""

from .attacks import AttackConfig, pgd_attack, robust_accuracy
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, pixels, save_dataset
from .harness import EvalReport, TrainConfig, eval_clean, evaluate, finetune, pretrain_clean
from .losses import LossComponents, LossWeights, adaptive_margin, tima_loss
from .model import (
    DualEncoder,
    EncoderConfig,
    TeacherSnapshot,
    init_model,
    load_model,
    save_model,
    snapshot_teacher,
)

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "pgd_attack", "robust_accuracy",
    "Dataset", "SyntheticSpec", "generate_synthetic", "load_dataset", "pixels", "save_dataset",
    "EvalReport", "TrainConfig", "eval_clean", "evaluate", "finetune", "pretrain_clean",
    "LossComponents", "LossWeights", "adaptive_margin", "tima_loss",
    "DualEncoder", "EncoderConfig", "TeacherSnapshot", "init_model",
    "load_model", "save_model", "snapshot_teacher",
]
