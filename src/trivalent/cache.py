"""On-disk JSON cache for per-k derived data (bases, relations, echelon forms).

Location precedence: explicit directory argument, then the GC_CACHE
environment variable, then ~/.cache/trivalent.  Files carry a format_version
and are ignored on mismatch, as are unreadable files and payloads of the
wrong shape, so stale or damaged caches degrade to recomputation.  Every
file carries a CRC-32 of its payload's JSON text and is ignored when the
text read does not match it, so an edit that keeps the shape is a miss
too.  Files that index a basis by position (relations, rref) also carry a
checksum of the basis keys they were built against and are ignored when
it differs.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from fractions import Fraction
from pathlib import Path

FORMAT_VERSION = 1
# store writes the payload last, after this key, so that load can
# checksum the payload's text as read, without serialising it again
_PAYLOAD_KEY = '"payload": '


def _list_of(x, kind) -> bool:
    """x is a list whose items all have exactly the given type."""
    return type(x) is list and set(map(type, x)) <= {kind}


def _sparse_row(r, kind) -> bool:
    return (
        type(r) is dict
        and _list_of(r.get("cols"), int)
        and _list_of(r.get("vals"), kind)
        and len(r["cols"]) == len(r["vals"])
    )


def _graph(g) -> bool:
    return (
        type(g) is dict
        and type(g.get("vertices")) is int
        and _list_of(g.get("edges"), list)
        and all(len(e) == 2 and type(e[0]) is type(e[1]) is int for e in g["edges"])
    )


def _rref_rows(p):
    """An rref payload as {pivot: {column: Fraction}}, or None if it is not
    one: each value is parsed once, here."""
    if type(p) is not dict:
        return None
    rows = {}
    for piv, r in p.items():
        if not (piv.isdecimal() and _sparse_row(r, str)):
            return None
        try:
            rows[int(piv)] = {c: Fraction(v) for c, v in zip(r["cols"], r["vals"])}
        except (ValueError, ZeroDivisionError):
            return None
    return rows


def _shaped(shape):
    """A loader that hands back the payload itself if shape(payload) holds."""
    return lambda p: p if shape(p) else None


# the payload loader of each kind: its value as GraphSpace uses it, or None
# for a payload not of the shape GraphSpace writes
_LOADERS = {
    "basis": _shaped(lambda p: type(p) is list and all(_graph(g) for g in p)),
    "zeros": _shaped(lambda p: _list_of(p, str)),
    "relations": _shaped(lambda p: type(p) is list and all(_sparse_row(r, int) for r in p)),
    "rref": _rref_rows,
}
KINDS = tuple(_LOADERS)


def _basis_crc32(keys) -> int:
    """CRC-32 of the newline-joined basis keys."""
    return zlib.crc32("\n".join(keys).encode())


def default_dir() -> Path:
    env = os.environ.get("GC_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "trivalent"


class Cache:
    def __init__(self, directory=None):
        self.directory = Path(directory) if directory else default_dir()

    def path(self, k: int, kind: str) -> Path:
        assert kind in KINDS
        return self.directory / f"{kind}-k{k}.json"

    def load(self, k: int, kind: str, basis_keys=None):
        """The stored payload, or None for a missing or unusable file.  An
        rref payload comes back parsed, as {pivot: {column: Fraction}}.

        With basis_keys, a file not stored against those same keys is
        unusable too.
        """
        p = self.path(k, kind)
        try:
            with open(p, "rb") as f:
                raw = f.read()
            data = json.loads(raw)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("format_version") != FORMAT_VERSION:
            return None
        if basis_keys is not None and data.get("basis_crc32") != _basis_crc32(basis_keys):
            return None
        start = raw.find(_PAYLOAD_KEY.encode()) + len(_PAYLOAD_KEY)
        if data.get("payload_crc32") != zlib.crc32(raw[start:-1]):
            return None
        return _LOADERS[kind](data.get("payload"))

    def store(self, k: int, kind: str, payload, basis_keys=None) -> None:
        """Write a payload atomically through a temp file of this writer's own.

        The file gets the mode a plain open would give it (0o666 less the
        umask), so other users of a shared cache directory can read it.
        With basis_keys, the file records their checksum for load to match.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps(payload)
        data = {"format_version": FORMAT_VERSION}
        if basis_keys is not None:
            data["basis_crc32"] = _basis_crc32(basis_keys)
        data["payload_crc32"] = zlib.crc32(text.encode())
        umask = os.umask(0)
        os.umask(umask)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                os.chmod(tmp, 0o666 & ~umask)
                f.write(json.dumps(data)[:-1] + ", " + _PAYLOAD_KEY + text + "}")
            os.replace(tmp, self.path(k, kind))
        except BaseException:
            os.unlink(tmp)
            raise

    def status(self):
        """Sorted (filename, size in bytes) pairs for present cache files."""
        if not self.directory.is_dir():
            return []
        out = []
        for p in sorted(self.directory.iterdir()):
            if p.suffix == ".json":
                out.append((p.name, p.stat().st_size))
        return out

    def clear(self) -> int:
        removed = 0
        if self.directory.is_dir():
            for p in list(self.directory.iterdir()):
                if p.suffix == ".json":
                    p.unlink()
                    removed += 1
        return removed
