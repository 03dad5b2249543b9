"""The one file boundary: every read, directory and binary header goes through
here, and every way a file can fail becomes a TimaError. Writes are atomic: a
reader sees the old file or the new one, never a torn one."""

from __future__ import annotations

import os
import struct
from pathlib import Path

from .errors import BadMagic, CorruptFile, IoFailure, TruncatedFile, UnsupportedVersion


def read_file(path, what: str) -> bytes:
    """The bytes of ``path``; any OS error becomes IoFailure naming ``what``
    was being read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc


def make_dir(path) -> Path:
    """Create ``path`` and its parents unless it is a directory already."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    return path


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


class Reader:
    """A cursor over the bytes of a binary file that starts with ``magic``
    and a little-endian u32 ``version``; both are checked on construction.
    Reading past the end raises TruncatedFile; ``finish`` raises CorruptFile
    when bytes remain."""

    def __init__(self, blob: bytes, path, magic: bytes, version: int, what: str):
        self.blob = blob
        self.path = path
        self.pos = 0
        if self.take(len(magic)) != magic:
            raise BadMagic(f"{path}: not a {what}")
        found, = self.unpack("<I")
        if found != version:
            raise UnsupportedVersion(f"{path}: version {found}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedFile(f"{self.path}: expected {n} more bytes at offset {self.pos}")
        self.pos += n
        return self.blob[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def finish(self) -> None:
        if self.pos != len(self.blob):
            raise CorruptFile(f"{self.path}: {len(self.blob) - self.pos} trailing bytes "
                              f"after offset {self.pos}")
