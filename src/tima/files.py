"""Atomic file output: a reader sees the old file or the new one, never a torn one."""

from __future__ import annotations

import os
from pathlib import Path

from .errors import IoFailure


def write_atomic(path, blob: bytes, what: str) -> None:
    """Write ``blob`` to a sibling temp file, then ``os.replace`` it onto
    ``path``. On any OS error the temp file is removed, ``path`` is left as it
    was, and IoFailure names ``what`` was being written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc
