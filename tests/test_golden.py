"""Golden bits: student fingerprints of short default-recipe runs, and the
output bytes of a tiny CLI pipeline.

Any change to the tape, the losses, the attack, the training loop or the
evaluation that is meant to keep results unchanged must leave these digests
unchanged. A short run is the default config at seed 0 with 2 pretrain and 2
fine-tune epochs.
"""

import hashlib
from pathlib import Path

import pytest

from tima.config import parse_config
from tima.harness import VARIANTS, run_grid

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
    cell = run_grid(parse_config(SHORT_RUN + extra_config).with_seed(0), variants)
    return {variant: student.fingerprint() for variant, student in cell.students.items()}


@pytest.fixture(scope="module")
def linear_fingerprints():
    return short_run("", VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_linear_encoder_fingerprint(linear_fingerprints, variant):
    assert linear_fingerprints[variant] == GOLDEN[variant]


def test_mlp_encoder_fingerprint():
    assert short_run("hidden_dims = 128\n", ("tima",))["tima"] == GOLDEN_MLP_TIMA


# Batches cut the data otherwise than the teacher's 128-row chunks: batches
# of 160 rows, and 136 samples at 45 rows, whose last batch has one row.
# Every sample's teacher rows stay those of the default cut.
GOLDEN_CUTS = {
    "batch_size = 160\n": {
        "tima": "9da913338b40a5cbb79dd5c3bb2d86f69c81cddb1ed199991b284e2210cee059",
        "iat_only": "2fa93932a3e594a0d8146b3d4af7ab9edbd5130591d09760b93b069e6b7d6b1b",
    },
    "train_count = 136\nbatch_size = 45\n": {
        "tima": "e29bcb636161bec604c59c1ae7104b50beb9667d0d6510687c1e18829ad1b00d",
        "iat_only": "de5db85baf53ce6707a7ba87c828170592104ecfeb80593c3df83f93725d5dfd",
    },
}


@pytest.mark.parametrize("extra_config", GOLDEN_CUTS, ids=["batch160", "n136-batch45"])
def test_fingerprint_under_another_cut(extra_config):
    assert short_run(extra_config, tuple(GOLDEN_CUTS[extra_config])) == GOLDEN_CUTS[extra_config]


# A tiny CLI pipeline: three test batches of the 128-row attack, one restart,
# and a 2 x 1 x 2 sweep, so per-batch seeds, restarts and the per-point
# reports all feed the digests below.
CLI_CONFIG = """
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
eval_eps_list = 0,1/255,4/255,8/255
eval_steps = 2
eval_restarts = 1
sweep_m = 0.05,0.1
sweep_eta = 0.95
sweep_eps = 1/255,4/255
"""

GOLDEN_CLI = {
    "report.json": "5013fc05d8c83206a5ad3194d63f678fbbfe0d49fc80f5ff82db32557bfc3b2c",
    "matrices": "9ac2098a5f53b2dd416038518deb0c60e5e5fdbae0ee128009a39f90cf318f4d",
    "sweep": "8a662ff32494f2ab5499d34a7fa710803a24f241b409e204f626b68edfbfab3a",
}


def tree_sha256(root):
    """sha256 over every file under ``root`` (relative path and bytes, in path
    order); a plain file hashes as a one-file tree."""
    root = Path(root)
    files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for path in files:
        blob = path.read_bytes()
        h.update(f"{path.relative_to(root.parent).as_posix()}\0{len(blob)}\0".encode())
        h.update(blob)
    return h.hexdigest()


def test_cli_pipeline_digests(tmp_path):
    from tima.cli import main

    config = tmp_path / "run.cfg"
    config.write_text(CLI_CONFIG)
    out = tmp_path / "out"
    for argv in (["gen-data"], ["pretrain"], ["finetune"], ["eval"], ["sweep"]):
        assert main(argv + ["--config", str(config), "--out", str(out)]) == 0
    assert {name: tree_sha256(out / name) for name in GOLDEN_CLI} == GOLDEN_CLI
