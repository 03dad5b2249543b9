"""Fuzzing the two binary formats: any truncation or single-byte flip of a
saved `.timm` checkpoint or `.timd` dataset either loads a value that saves
back to exactly the damaged bytes, or raises a TimaError; never any other
exception."""

import pytest
from hypothesis import given, settings, strategies as st

from tima.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from tima.errors import TimaError
from tima.model import EncoderConfig, init_model, load_model, save_model

FORMATS = {
    "timm": (load_model, save_model),
    "timd": (load_dataset, save_dataset),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small saved file per format, and a scratch path to damage it in."""
    root = tmp_path_factory.mktemp("fuzz")
    model = init_model(EncoderConfig(input_dim=4, hidden_dims=(3,), embed_dim=2,
                                     num_classes=3, seed=1), tau=0.05)
    save_model(model, root / "m.timm")
    train, _ = generate_synthetic(SyntheticSpec(
        num_superclasses=2, subclasses_per_superclass=2, image_side=2,
        within_super_shift=0.1, noise_sigma=0.05, train_count=6, test_count=1))
    save_dataset(train, root / "d.timd")
    blobs = {"timm": (root / "m.timm").read_bytes(), "timd": (root / "d.timd").read_bytes()}
    return root, blobs


def damaged(blob: bytes, data) -> bytes:
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    return blob[:pos] + bytes([blob[pos] ^ mask]) + blob[pos + 1:]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_exactly_or_raises_tima_error(files, fmt, data):
    root, blobs = files
    load, save = FORMATS[fmt]
    blob = damaged(blobs[fmt], data)
    path = root / f"damaged.{fmt}"
    path.write_bytes(blob)
    try:
        value = load(path)
    except TimaError:
        return
    save(value, root / f"resaved.{fmt}")
    assert (root / f"resaved.{fmt}").read_bytes() == blob


def test_every_truncation_is_rejected(files):
    root, blobs = files
    for fmt, (load, _) in FORMATS.items():
        blob = blobs[fmt]
        for length in range(len(blob)):
            path = root / f"cut.{fmt}"
            path.write_bytes(blob[:length])
            with pytest.raises(TimaError):
                load(path)

