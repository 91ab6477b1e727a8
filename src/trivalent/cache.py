"""On-disk JSON cache for per-k derived data (bases, relations, echelon forms).

Each kind's file format lives here: store takes the value GraphSpace uses
and load gives it back.  A basis is its tuple of class keys; its file
holds the graph each key spells, and load derives the keys back from
them.  The directory is the explicit argument, else GC_CACHE, else
~/.cache/trivalent.  A cache file is named <kind>-k<k>.json; status and
clear see no other file in the directory.  A file is ignored, and the data
recomputed, when it is unreadable (JSON nested past the decoder's recursion
limit included), of another format_version or of the
wrong shape, or when the CRC-32 of its payload's JSON text, as read, does
not match the one it carries.  Files that index a basis by position
(relations, rref) also carry basis_crc32, the CRC-32 of the basis keys
they were built against (_keys_crc32), and are ignored when it differs.
Wrong shapes include a position outside that basis, a basis graph that is
not trivalent on 2k vertices, basis keys that do not increase strictly, a
row whose columns do not increase strictly or that holds a zero, an rref
pivot key other than str(int(key)), and an rref row without 1 at its pivot
column.  At a k with pinned class keys (_CLASS_DIGESTS), a basis or zeros
file whose keys do not give the pinned CRC-32 is ignored too; the basis pin
is the basis_crc32 that the relations and rref files at that k carry.  At
any other k a basis of the right shape is not yet trusted: when its
relation rows are rebuilt, GraphSpace reclassifies it with the cold build's
classify, which must give back its keys.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import zlib
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, ge, getitem, lt
from pathlib import Path

from .graphs import canonical_key, graph_of_key

FORMAT_VERSION = 1
# store writes the payload last, after this key, so that load can
# checksum the payload's text as read, without serialising it again
_PAYLOAD_KEY = '"payload": '
# CRC-32 (_keys_crc32) of the basis keys and of the sorted zero keys at each
# k from 1 to 7, from a cold build: a basis or zeros file at one of these k
# whose keys give another, say with a class missing or one slipped in, is a
# miss and is rebuilt.  The basis value is the basis_crc32 that the
# relations and rref files at that k carry.
_CLASS_DIGESTS = {
    1: (0x00000000, 0xB898604C),
    2: (0x74BAE6C6, 0x6B2E941A),
    3: (0x1538D237, 0x75AFC61C),
    4: (0x30EB5E3D, 0x1D70B688),
    5: (0x7527EFBA, 0x8DD35B7C),
    6: (0xCA3DB87D, 0x460AF7C7),
    7: (0xA3344E00, 0x992BF5F9),
}


def _check(ok) -> None:
    if not ok:
        raise ValueError("cache payload of the wrong shape")


def _list_of(x, kind) -> list:
    """x, a list whose items all have exactly the given type."""
    _check(type(x) is list and set(map(type, x)) <= {kind})
    return x


def _positions(x, size) -> list:
    """x, a list of ints in range(size)."""
    _check(not _list_of(x, int) or (min(x) >= 0 and max(x) < size))
    return x


def _fields(items, name, kind) -> list:
    """Field name of each dict in the list items, each of the given type."""
    return _list_of([r.get(name) for r in _list_of(items, dict)], kind)


def _keys_crc32(keys) -> int:
    """CRC-32 of the newline-joined keys: the pins, and basis_crc32."""
    return zlib.crc32("\n".join(keys).encode())


def _pinned(k, kind, keys) -> bool:
    """Whether the keys give the CRC-32 pinned for kind, 0 for the basis
    and 1 for the zeros, at k; at a k without pins, True."""
    digests = _CLASS_DIGESTS.get(k)
    return digests is None or _keys_crc32(keys) == digests[kind]


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
    _check(_pinned(k, 0, keys))
    return keys


def _zero_keys(p, k, size) -> frozenset:
    _check(_pinned(k, 1, _list_of(p, str)))  # as stored: sorted
    return frozenset(p)


def _rows(p, size, kind):
    """Column and value lists of sparse rows [{"cols": [...], "vals": [...]}],
    and the values as one flat list; each row's columns increase strictly."""
    cols, vals = _fields(p, "cols", list), _fields(p, "vals", list)
    lengths = list(map(len, cols))
    _check(lengths == list(map(len, vals)))
    flat = _positions(list(chain.from_iterable(cols)), size)
    # a column no larger than the one before it in the flat list must start
    # a row: its index there must be a running total of the row lengths
    starts = set(accumulate(lengths))
    _check(starts.issuperset(compress(count(1), map(ge, flat, islice(flat, 1, None)))))
    return cols, vals, _list_of(list(chain.from_iterable(vals)), kind)


def _relation_rows(p, k, size) -> list:
    cols, vals, flat = _rows(p, size, int)
    _check(0 not in flat)
    return list(map(dict, map(zip, cols, vals)))


def _rref_rows(p, k, size) -> dict:
    """Each pivot key is str(int(key)) and its row holds 1 at that column."""
    _check(type(p) is dict)
    pivots = _positions(list(map(int, p)), size)
    _check(list(map(str, pivots)) == list(p))
    cols, vals, flat = _rows(list(p.values()), size, str)
    value = {s: Fraction(s) for s in set(flat)}  # one Fraction per distinct text
    _check(all(value.values()))
    # list.index raises ValueError for a row without its pivot column
    at_pivot = set(map(getitem, vals, map(list.index, cols, pivots)))
    _check(all(value[s] == 1 for s in at_pivot))
    return {piv: dict(zip(c, map(value.__getitem__, v))) for piv, c, v in zip(pivots, cols, vals)}


def _sorted_row(row, value=lambda v: v) -> dict:
    cols = sorted(row)
    return {"cols": cols, "vals": [value(row[c]) for c in cols]}


# each kind's (encoder, decoder): the encoder turns the value GraphSpace
# uses into a payload, and the decoder turns a payload back into that value,
# given k, which a basis checks its graphs against and which picks the
# pinned digests of the basis and zeros, and the size of the
# basis that relations and rref index by position, or raises ValueError
# (ZeroDivisionError for an rref value "1/0").  Decoders check over flat
# lists, a few C-level calls a payload, not item by item.
_FORMATS = {
    "basis": (lambda keys: [graph_of_key(key).to_json() for key in keys], _basis_keys),
    "zeros": (sorted, _zero_keys),
    "relations": (lambda rows: [_sorted_row(r) for r in rows], _relation_rows),
    "rref": (lambda rows: {str(p): _sorted_row(r, str) for p, r in rows.items()}, _rref_rows),
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

    def load(self, k: int, kind: str, basis_keys=None):
        """The stored value, or None for a missing or unusable file.

        With basis_keys, a file not stored against those same keys is
        unusable too, as is a relations or rref file with a position
        outside that basis.
        """
        try:
            with open(self.path(k, kind), "rb") as f:
                raw = f.read()
            data = json.loads(raw)
            start = raw.find(_PAYLOAD_KEY.encode()) + len(_PAYLOAD_KEY)
            _check(
                isinstance(data, dict)
                and data.get("format_version") == FORMAT_VERSION
                and (basis_keys is None or data.get("basis_crc32") == _keys_crc32(basis_keys))
                and data.get("payload_crc32") == zlib.crc32(raw[start:-1])
            )
            return _FORMATS[kind][1](data.get("payload"), k, len(basis_keys or ()))
        except (OSError, ValueError, ZeroDivisionError, RecursionError):
            return None

    def store(self, k: int, kind: str, value, basis_keys=None) -> None:
        """Write a value atomically through a temp file of this writer's own.

        The file gets the mode a plain open would give it (0o666 less the
        umask), so other users of a shared cache directory can read it.
        With basis_keys, the file records their checksum for load to match.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps(_FORMATS[kind][0](value))
        data = {"format_version": FORMAT_VERSION}
        if basis_keys is not None:
            data["basis_crc32"] = _keys_crc32(basis_keys)
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
