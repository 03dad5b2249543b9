"""The file boundary: a failed save leaves the previous file intact and no temp
file, and a path that cannot be read or created is an IoFailure naming it."""

import os
import re

import numpy as np
import pytest

from tima import files, harness
from tima.cli import main
from tima.config import load_config
from tima.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from tima.errors import IoFailure
from tima.files import write_atomic
from tima.harness import EvalReport, write_report
from tima.model import EncoderConfig, init_model, load_model, save_model


def _model(seed):
    cfg = EncoderConfig(input_dim=4, hidden_dims=(3,), embed_dim=2, num_classes=2, seed=seed)
    return init_model(cfg)


def _dataset(seed):
    spec = SyntheticSpec(num_superclasses=1, subclasses_per_superclass=2, image_side=2,
                         within_super_shift=0.1, noise_sigma=0.1, train_count=5,
                         test_count=1, seed=seed)
    return generate_synthetic(spec)[0]


def _report(seed):
    return EvalReport(clean_accuracy=0.5 + seed, robust_accuracy={"1/255": 0.25},
                      text_min_distance={"student": 1.0, "teacher": 1.0},
                      text_mean_distance={"student": 1.0, "teacher": 1.0},
                      superclass_confusion=[[seed]], matrices={}, config={}, seed=seed)


# writer name -> (path name, write version `seed` of its output to a path)
WRITERS = {
    "save_model": ("m.timm", lambda seed, path: save_model(_model(seed), path)),
    "save_dataset": ("d.timd", lambda seed, path: save_dataset(_dataset(seed), path)),
    "write_report": ("report.json", lambda seed, path: write_report(_report(seed), path)),
    "matrix_csv": ("m.csv", lambda seed, path: harness._write_csv(np.eye(2) * seed, path)),
    "matrix_pgm": ("m.pgm", lambda seed, path: harness._write_pgm(np.eye(2) * seed, path)),
}


def _fail_replace(src, dst):
    raise OSError("injected failure before replace")


def _fail_mid_write(monkeypatch):
    real_open = open

    def torn_open(path, mode):
        with real_open(path, mode) as fh:
            fh.write(b"torn")
        raise OSError("injected failure mid-write")

    monkeypatch.setattr(files, "open", torn_open, raising=False)


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("fault", ["replace", "write"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, writer, fault):
    name, write = WRITERS[writer]
    path = tmp_path / name
    write(0, path)
    old = path.read_bytes()
    if fault == "replace":
        monkeypatch.setattr(files.os, "replace", _fail_replace)
    else:
        _fail_mid_write(monkeypatch)
    with pytest.raises(IoFailure):
        write(1, path)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == [name]
    write(1, path)
    assert path.read_bytes() != old
    assert os.listdir(tmp_path) == [name]


def test_missing_directory_is_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="cannot write thing"):
        write_atomic(tmp_path / "absent" / "f.bin", b"x", "thing")
    assert os.listdir(tmp_path) == []


# reader name -> (reader, what its IoFailure says it was reading)
READERS = {
    "load_model": (load_model, "checkpoint"),
    "load_dataset": (load_dataset, "dataset"),
    "load_config": (load_config, "config"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_path_is_io_failure(tmp_path, reader, where):
    load, what = READERS[reader]
    path = tmp_path / "absent" if where == "missing" else tmp_path
    with pytest.raises(IoFailure, match=f"^cannot read {what} {re.escape(str(path))}: "):
        load(path)


@pytest.mark.parametrize("case", ["missing config", "out is a file"])
def test_cli_reports_unusable_paths_in_one_line(tmp_path, capsys, case):
    if case == "missing config":
        argv = ["--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")]
        start = "error: cannot read config "
    else:
        (tmp_path / "out").write_text("")
        argv = ["--out", str(tmp_path / "out")]
        start = "error: cannot create "
    assert main(["gen-data"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(start)
    assert err.count("\n") == 1 and "Traceback" not in err
