"""On-disk JSON cache for per-k derived data (bases, relations, weight systems).

Each kind's file format lives here: store takes the value GraphSpace uses
and load gives it back.  A basis is its tuple of class keys; its file holds
the graph each key spells, and load derives the keys back from them.  The
rref kind holds the weight systems W that normal forms are read from, in
the relations format: sparse integer rows.  The directory is the explicit
argument, else GC_CACHE, else ~/.cache/trivalent.  A cache file is named
<kind>-k<k>.json; status and clear see no other file in the directory.

One rule decides what is read: a file is read only if the CRC-32 of its
bytes is the pin (_PINS) of its k and kind, that of the file a cold build
writes there; any other file is ignored and its data recomputed.  So a file
in use holds a cold build's bytes: a class dropped or slipped in, an extra
relation row, a functional scaled, a file from another build or in an
earlier format all miss.  Pins exist at k=1..8; at any other k store writes
nothing, since load would read nothing, so a run at k >= 9 caches nothing.
The pin is checked before the JSON is parsed.  It catches accidental edits,
not a forged CRC-32 collision; behind it each decoder still checks its
payload's shape, so that a forged file of the wrong shape is ignored too,
not a traceback: the format_version, a position outside the basis, a basis
graph that is not trivalent on 2k vertices, basis keys that do not increase
strictly, a row whose columns do not increase strictly or that holds a zero
or a value that is not an int, and rref rows that are not in echelon form
(linalg.in_echelon), two of them sharing a top column, say.  JSON nested
past the decoder's recursion limit is ignored like any unreadable file.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import zlib
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, ge, lt
from pathlib import Path

from .graphs import canonical_key, graph_of_key
from .linalg import in_echelon

FORMAT_VERSION = 1
# CRC-32 of the bytes of each kind's file that a cold build writes, at each
# k from 1 to 8: the one rule that load applies before it parses a file
_PINS = {
    1: {"basis": 0xAAFD31CC, "zeros": 0x1E4DBD87, "relations": 0xAAFD31CC, "rref": 0xAAFD31CC},
    2: {"basis": 0xA62D3995, "zeros": 0xA7472371, "relations": 0xEE62E280, "rref": 0x01305461},
    3: {"basis": 0x5DE4570F, "zeros": 0x442A0D8B, "relations": 0x8637BB02, "rref": 0xAAFD31CC},
    4: {"basis": 0x940EE311, "zeros": 0xBB3E6A45, "relations": 0x74066440, "rref": 0xAAFD31CC},
    5: {"basis": 0x8114F3F6, "zeros": 0x3D3EEF1B, "relations": 0x5148A50C, "rref": 0x6FDAD15D},
    6: {"basis": 0x95E2C3F7, "zeros": 0xDBA79B24, "relations": 0x1FBF7A61, "rref": 0xAAFD31CC},
    7: {"basis": 0xF23D8C74, "zeros": 0x50734312, "relations": 0x3BA1BB24, "rref": 0xAAFD31CC},
    8: {"basis": 0x9F614A5F, "zeros": 0xF869144B, "relations": 0x4681FCA9, "rref": 0xAAFD31CC},
}


def _check(ok) -> None:
    if not ok:
        raise ValueError("cache payload of the wrong shape")


def _list_of(x, kind) -> list:
    """x, a list whose items all have exactly the given type."""
    _check(type(x) is list and set(map(type, x)) <= {kind})
    return x


def _fields(items, name, kind) -> list:
    """Field name of each dict in the list items, each of the given type."""
    return _list_of([r.get(name) for r in _list_of(items, dict)], kind)


def _basis_keys(p, k, size) -> tuple:
    """The basis: the class key of each graph of the payload.  Each graph
    has 2k vertices, each of them the end of exactly three edges."""
    ns, edge_lists = _fields(p, "vertices", int), _fields(p, "edges", list)
    edges = _list_of(list(chain.from_iterable(edge_lists)), list)
    _check(set(map(len, edges)) <= {2})
    _list_of(list(chain.from_iterable(edges)), int)  # ints, before they are sorted
    trivalent = sorted([*range(2 * k)] * 3)  # [0, 0, 0, 1, 1, 1, ...]
    _check(set(ns) <= {2 * k})
    _check(all(map(eq, map(sorted, map(chain.from_iterable, edge_lists)), repeat(trivalent))))
    keys = tuple(map(canonical_key, ns, edge_lists))
    _check(all(map(lt, keys, keys[1:])))  # as classify sorts them
    return keys


def _zero_keys(p, k, size) -> frozenset:
    return frozenset(_list_of(p, str))


def _relation_rows(p, k, size) -> list:
    """Sparse integer rows [{"cols": [...], "vals": [...]}], each with
    columns that increase strictly and no zero value."""
    cols, vals = _fields(p, "cols", list), _fields(p, "vals", list)
    lengths = list(map(len, cols))
    _check(lengths == list(map(len, vals)))
    flat = _list_of(list(chain.from_iterable(cols)), int)
    _check(not flat or (min(flat) >= 0 and max(flat) < size))
    # a column no larger than the one before it in the flat list must start
    # a row: its index there must be a running total of the row lengths
    starts = set(accumulate(lengths))
    _check(starts.issuperset(compress(count(1), map(ge, flat, islice(flat, 1, None)))))
    _check(0 not in _list_of(list(chain.from_iterable(vals)), int))
    return list(map(dict, map(zip, cols, vals)))


def _weight_rows(p, k, size) -> list:
    rows = _relation_rows(p, k, size)
    _check(in_echelon(rows))
    return rows


def _sorted_rows(rows) -> list:
    return [{"cols": sorted(r), "vals": [v for _, v in sorted(r.items())]} for r in rows]


# each kind's (encoder, decoder): the encoder turns the value GraphSpace
# uses into a payload, and the decoder turns a payload back into that value,
# given k, which a basis checks its graphs against, and the size of the
# basis that relations and rref index by position, or raises ValueError.
# Decoders check over flat lists, a few C-level calls a payload, not item
# by item.
_FORMATS = {
    "basis": (lambda keys: [graph_of_key(key).to_json() for key in keys], _basis_keys),
    "zeros": (sorted, _zero_keys),
    "relations": (_sorted_rows, _relation_rows),
    "rref": (_sorted_rows, _weight_rows),
}
KINDS = tuple(_FORMATS)
# the names store writes, and the only files status and clear see
_FILE_NAME = re.compile(rf"(?:{'|'.join(KINDS)})-k[1-9][0-9]*\.json")


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

    def load(self, k: int, kind: str, size: int = 0):
        """The stored value, or None for a missing or unusable file: one
        whose bytes do not give the pin of its k and kind, or, behind a
        forged pin, of the wrong shape, a relations or rref position of size
        or more included.
        """
        try:
            with open(self.path(k, kind), "rb") as f:
                raw = f.read()
            _check(zlib.crc32(raw) == _PINS.get(k, {}).get(kind))
            data = json.loads(raw)
            _check(isinstance(data, dict) and data.get("format_version") == FORMAT_VERSION)
            return _FORMATS[kind][1](data.get("payload"), k, size)
        except (OSError, ValueError, RecursionError):
            return None

    def store(self, k: int, kind: str, value) -> None:
        """Write a value atomically through a temp file of this writer's own;
        at a k without pins, write nothing, since load would not read it.

        The file gets the mode a plain open would give it (0o666 less the
        umask), so other users of a shared cache directory can read it.
        """
        if k not in _PINS:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps({"format_version": FORMAT_VERSION, "payload": _FORMATS[kind][0](value)})
        umask = os.umask(0)
        os.umask(umask)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                os.chmod(tmp, 0o666 & ~umask)
                f.write(text)
            os.replace(tmp, self.path(k, kind))
        except BaseException:
            os.unlink(tmp)
            raise

    def _files(self) -> list:
        """The cache files present, sorted by name."""
        if not self.directory.is_dir():
            return []
        return sorted(p for p in self.directory.iterdir() if _FILE_NAME.fullmatch(p.name))

    def status(self):
        """Sorted (filename, size in bytes) pairs for present cache files."""
        return [(p.name, p.stat().st_size) for p in self._files()]

    def clear(self) -> int:
        """Remove the cache files; how many there were."""
        files = self._files()
        for p in files:
            p.unlink()
        return len(files)
