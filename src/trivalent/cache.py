"""On-disk JSON cache for per-k derived data (bases, relations, weight systems).

Each kind's file format lives here: store takes the value GraphSpace uses
and load gives it back.  A basis is its tuple of class keys; its file holds
the graph each key spells as one flat list of ints, the key's pairs in
order, and load spells the keys back from them, one table lookup per
pair (graphs._keys_of_codes).  The relations kind holds the relation rows,
and the rref kind the weight systems W that normal forms are read from,
both as (n, rows), sparse integer rows over a basis of size n, stored as
columns: {"size": n, "cols": [...], "vals": [...]}, one list of columns and
one of values per row.  A relation row is that (cols, vals) pair as it is,
so load builds nothing per row; a functional in W is a dict.  So the
relations file alone gives a dimension, n minus the rank of its rows.  The
directory is the explicit argument, else GC_CACHE, else
~/.cache/trivalent.  A cache file is named <kind>-k<k>.json; status and
clear see no other file in the directory.

One rule decides what is read: a file is read only if the CRC-32 of its
bytes is the pin (_PINS) of its k and kind, that of the file a cold build
writes there; any other file is ignored and its data recomputed.  So a file
in use holds a cold build's bytes: a class dropped or slipped in, an extra
relation row, a functional scaled, a file from another build or in an
earlier format all miss.  Pins exist at k=1..8; at any other k store writes
nothing, since load would read nothing, so a run at k >= 9 caches nothing.
The pin is checked before the JSON is parsed.  It catches accidental edits,
not a forged CRC-32 collision; behind it each decoder still checks its
file's shape, so that a forged file of the wrong shape is ignored too, not
a traceback.  Types are checked on the bytes, before the parse: a basis,
relations or rref file must be the header json.dumps writes, then, for the
row kinds, {"size": <digits>, "cols": ..., "vals": ...}, with nothing but
digits, "[", "]", "," and " " inside the lists, and "-" as well in vals,
and it must hold one "[" per list of its shape (1 plus the number of
graphs, or 2 plus the number of rows of cols and of vals) with each item of
the top-level lists a list.  So every scalar is an int, at least 0 outside
vals, and the lists nest exactly two deep, with no check per item.  Values
are checked after the parse: a basis size that is not the size load was
given, a position outside the basis, a basis graph that is not trivalent on
2k vertices or whose pairs are out of order, basis keys that do not
increase strictly, a row whose columns do not increase strictly or that
holds a zero, and rref rows that are not in echelon form
(linalg.in_echelon), two of them sharing a top column, say.  The zeros file
is checked after the parse alone: its format_version, and a payload of
strings.  JSON nested past the decoder's recursion limit is ignored like
any unreadable file.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, ge, le, lt, mul
from pathlib import Path

from .graphs import _keys_of_codes, graph_of_key
from .linalg import as_dicts, as_pair, in_echelon

FORMAT_VERSION = 1
# CRC-32 of the bytes of each kind's file that a cold build writes, at each
# k from 1 to 8: the one rule that load applies before it parses a file
_PINS = {
    1: {"basis": 0xAAFD31CC, "zeros": 0x1E4DBD87, "relations": 0xDB6F5E73, "rref": 0xDB6F5E73},
    2: {"basis": 0xF564D44B, "zeros": 0xA7472371, "relations": 0xAB71707D, "rref": 0xCE164B3B},
    3: {"basis": 0x2E6C2F0E, "zeros": 0x442A0D8B, "relations": 0xE8A1F1C9, "rref": 0x067768F1},
    4: {"basis": 0xD65A377F, "zeros": 0xBB3E6A45, "relations": 0x59CFF882, "rref": 0xBA2E3536},
    5: {"basis": 0xDA7E236D, "zeros": 0x3D3EEF1B, "relations": 0xBFDA66AF, "rref": 0xFBD97CB3},
    6: {"basis": 0x01298010, "zeros": 0xDBA79B24, "relations": 0x240E3C12, "rref": 0x389AED96},
    7: {"basis": 0x010F1608, "zeros": 0x50734312, "relations": 0x92A2480C, "rref": 0xB1C749E4},
    8: {"basis": 0x06E33278, "zeros": 0xF869144B, "relations": 0x2188FFA1, "rref": 0x2E550763},
}


def _check(ok) -> None:
    if not ok:
        raise ValueError("cache payload of the wrong shape")


def _list_of(x, kind) -> list:
    """x, a list whose items all have exactly the given type."""
    _check(type(x) is list and set(map(type, x)) <= {kind})
    return x


# the header json.dumps writes before each payload
_HEAD = b'{"format_version": %d, "payload": ' % FORMAT_VERSION


def _check_bytes(raw: bytes, payload: re.Pattern) -> None:
    """raw is the bytes of a file that json.dumps wrote: the header, then
    the payload and the closing brace as the given pattern spells them.
    The header is compared, not compiled, and the pattern reads raw from
    where the header ends, without a copy."""
    _check(raw.startswith(_HEAD) and payload.fullmatch(raw, len(_HEAD)))


# nested lists of ints, spelled in digits, "[", "]", "," and " " alone,
# and with "-" as well where an int may be negative
_LISTS = rb"[0-9\[\], ]*"
_SIGNED_LISTS = rb"[-0-9\[\], ]*"
_BASIS_BYTES = re.compile(_LISTS + rb"\}")
_ROWS_BYTES = re.compile(
    rb'\{"size": [0-9]+, "cols": ' + _LISTS + rb', "vals": ' + _SIGNED_LISTS + rb"\}\}"
)


def _basis_keys(raw, k, size) -> tuple:
    """The basis: the class key each graph of the payload spells.  A graph
    is the flat list of its key's pairs, in order: 6k ints, each vertex of
    the 2k the end of exactly three edges."""
    _check_bytes(raw, _BASIS_BYTES)
    graphs = _list_of(json.loads(raw)["payload"], list)
    # one "[" for the payload and one for each graph: no graph holds a
    # list, so, by the bytes, each holds ints of at least 0
    _check(raw.count(b"[") == 1 + len(graphs))
    flat = list(chain.from_iterable(graphs))
    trivalent = sorted([*range(2 * k)] * 3)  # [0, 0, 0, 1, 1, 1, ...]
    # which also makes each graph 6k long, so that a graph starts every 3k pairs
    _check(all(map(eq, map(sorted, graphs), repeat(trivalent))))
    # each pair (a, b) as the int 2k*a + b, which orders them as the pairs
    # are ordered: each code but a graph's first is at least the one before
    codes = list(map(add, map(mul, flat[::2], repeat(2 * k)), flat[1::2]))
    before = [-1, *codes]  # the code before each, or -1 where a graph starts
    before[:: 3 * k] = repeat(-1, len(graphs) + 1)
    _check(all(map(le, before, codes)))
    keys = _keys_of_codes(2 * k, codes, 3 * k)
    _check(all(map(lt, keys, keys[1:])))  # as classify sorts them
    return keys


def _zero_keys(raw, k, size) -> frozenset:
    data = json.loads(raw)
    _check(isinstance(data, dict) and data.get("format_version") == FORMAT_VERSION)
    return frozenset(_list_of(data.get("payload"), str))


def _relation_rows(raw, k, size) -> tuple:
    """(n, rows) from {"size": n, "cols": [...], "vals": [...]}: sparse
    integer rows over a basis of size n, size itself unless that is None,
    each row the (cols, vals) pair of parallel lists the file holds, the
    columns positions in the basis that increase strictly, and no value
    zero."""
    _check_bytes(raw, _ROWS_BYTES)
    p = json.loads(raw)["payload"]
    n, cols, vals = p["size"], _list_of(p["cols"], list), _list_of(p["vals"], list)
    # one "[" for each of the two lists and one for each row: no row holds
    # a list, so, by the bytes, each holds ints, columns of at least 0
    _check(raw.count(b"[") == 2 + len(cols) + len(vals))
    _check(size in (None, n))
    lengths = list(map(len, cols))
    _check(lengths == list(map(len, vals)))
    flat = list(chain.from_iterable(cols))
    _check(not flat or max(flat) < n)
    # a column no larger than the one before it in the flat list must start
    # a row: its index there must be a running total of the row lengths
    starts = set(accumulate(lengths))
    _check(starts.issuperset(compress(count(1), map(ge, flat, islice(flat, 1, None)))))
    _check(0 not in chain.from_iterable(vals))
    return n, list(zip(cols, vals))


def _weight_rows(raw, k, size) -> tuple:
    """(n, W), each functional in W a dict, column -> value."""
    n, rows = _relation_rows(raw, k, size)
    rows = as_dicts(rows)
    _check(in_echelon(rows))
    return n, rows


def _flat_graphs(keys) -> list:
    return [[*chain.from_iterable(graph_of_key(key).edges)] for key in keys]


def _columns(value) -> dict:
    n, rows = value
    return {"size": n, "cols": [c for c, _ in rows], "vals": [v for _, v in rows]}


def _weight_columns(value) -> dict:
    n, rows = value
    return _columns((n, list(map(as_pair, rows))))


# each kind's (encoder, decoder): the encoder turns the value GraphSpace
# uses into a payload, and the decoder turns a file's bytes back into that
# value, given k, which a basis checks its graphs against, and the basis
# size that the relations and rref rows must record, or None to take the
# one they record; it raises ValueError on a file of the wrong shape.  The
# value of relations and rref is the pair (n, rows).  Decoders check types
# on the bytes and values over flat lists, a few C-level calls a file, not
# item by item.
_FORMATS = {
    "basis": (_flat_graphs, _basis_keys),
    "zeros": (sorted, _zero_keys),
    "relations": (_columns, _relation_rows),
    "rref": (_weight_columns, _weight_rows),
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

    def load(self, k: int, kind: str, size: int | None = None):
        """The stored value, or None for a missing or unusable file: one
        whose bytes do not give the pin of its k and kind, or, behind a
        forged pin, of the wrong shape, relations or rref rows that record
        a basis size other than size included (any size if it is None).
        """
        try:
            with open(self.path(k, kind), "rb") as f:
                raw = f.read()
            _check(zlib.crc32(raw) == _PINS.get(k, {}).get(kind))
            return _FORMATS[kind][1](raw, k, size)
        except (OSError, ValueError, RecursionError):
            return None

    def store(self, k: int, kind: str, value) -> None:
        """Write a value atomically through a temp file of this writer's own;
        at a k without pins, write nothing, since load would not read it.

        The temp file is created new (O_EXCL) under a random name, with mode
        0o666 less the umask, which the kernel applies, as a plain open
        would; so other users of a shared cache directory can read it, and
        the process umask is never changed.
        """
        if k not in _PINS:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        text = json.dumps({"format_version": FORMAT_VERSION, "payload": _FORMATS[kind][0](value)})
        tmp = self.directory / f"tmp{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
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
