"""Golden bits: student fingerprints of short default-recipe runs.

Any change to the tape, the losses, the attack or the training loop that is
meant to be a pure speed-up must leave these digests unchanged. A short run is
the default config at seed 0 with 2 pretrain and 2 fine-tune epochs.
"""

import pytest

from tima.config import parse_config
from tima.data import generate_synthetic
from tima.harness import VARIANTS, finetune, pretrain_clean
from tima.model import init_model, snapshot_teacher

SHORT_RUN = "pretrain_epochs = 2\nfinetune_epochs = 2\n"

GOLDEN = {
    "tima": "0809d445c2d00650b46012370162a9fbe2288b46719d1c98bcf1d07e0f32b960",
    "tecoa": "c1cc30dc05714dabb3564d76d03f5541042757e15ef7f5a969c8e3154f03b0c8",
    "iat_only": "41bb6d7c2746589aa80ddb3b7587ad9787c299b55d8c54d32e4654ca3dd9155f",
    "tai_only": "735a4247603ff6884a8328f4c5117db97a6866351b8e7c7dbb01c4bf58039dfc",
    "mhe_only": "ab0eb687b23565cb12bd5afff0cb9d8b4d3165ac5c9f2f445f030b5cc18c2b81",
}
GOLDEN_MLP_TIMA = "e16665e1954f68989007f8ea2fec9a6b3ff1887f64a32b05fcfec41a27789bca"


def short_run(extra_config, variants):
    cfg = parse_config(SHORT_RUN + extra_config).with_seed(0)
    train, _ = generate_synthetic(cfg.synthetic_spec())
    model = init_model(cfg.encoder_config(), tau=cfg["tau"])
    model, _ = pretrain_clean(model, train, cfg.pretrain_config())
    teacher = snapshot_teacher(model)
    out = {}
    for variant in variants:
        student, _ = finetune(model.clone(), teacher, train,
                              cfg.finetune_config(variant=variant))
        out[variant] = student.fingerprint()
    return out


@pytest.fixture(scope="module")
def linear_fingerprints():
    return short_run("", VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_linear_encoder_fingerprint(linear_fingerprints, variant):
    assert linear_fingerprints[variant] == GOLDEN[variant]


def test_mlp_encoder_fingerprint():
    assert short_run("hidden_dims = 128\n", ("tima",))["tima"] == GOLDEN_MLP_TIMA
