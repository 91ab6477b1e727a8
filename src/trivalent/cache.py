"""On-disk JSON cache for per-k derived data (bases, relations, weight systems).

Each kind's file format lives here: store takes the value GraphSpace uses
and load gives it back.  A basis is its tuple of class keys; its file holds
one flat list of pair codes 2k*a + b, 3k for each key, in key order, the
code of each pair (a, b) of the key in the key's order: at k=2, K4's key
cub:4:0-1,0-2,0-3,1-2,1-3,2-3 is [1, 2, 3, 6, 7, 11].  Load spells the
keys back from the codes, one table lookup per code
(graphs._keys_of_codes).  The relations kind holds the relation rows,
and the rref kind the weight systems W that normal forms are read from,
both as (n, rows), sparse integer rows over a basis of size n, stored
flat: {"size": n, "lens": [...], "cols": [...], "vals": [...]}, each
row's entry count, then the columns and the values of every row, row
after row.  At k=2 the one relation row, 1 at column 0, is {"size": 2,
"lens": [1], "cols": [0], "vals": [1]}.  The relation rows are those three
lists as they are (linalg.Rows), so load builds nothing per row; a
functional in W is a dict.  So the relations file alone gives a
dimension, n minus the rank of its rows.  The directory is the explicit
argument, else GC_CACHE, else ~/.cache/trivalent.  A cache file is named
<kind>-k<k>.json; status and clear see no other file in the directory.

One rule decides what is read: a file is read only if the CRC-32 of its
bytes is the pin (_PINS) of its k and kind, that of the file a cold build
writes there; any other file is ignored and its data recomputed.  So a file
in use holds a cold build's bytes: a class dropped or slipped in, an extra
relation row, a functional scaled, a file from another build or in an
earlier format all miss.  Pins exist at k=1..8; at any other k store writes
nothing, since load would read nothing, so a run at k >= 9 caches nothing.
Store leaves a file that already holds the bytes it would write as it is.
The pin is checked before the JSON is parsed.  It catches accidental edits,
not a forged CRC-32 collision; behind it each decoder still checks its
file's shape, so that a forged file of the wrong shape is ignored too, not
a traceback.  Types are checked on the bytes, before the parse: a basis,
relations or rref file must be the header json.dumps writes, then, for a
basis, one "[" and one "]" with nothing but digits, "," and " " between
them, so that the payload is one flat list of ints of at least 0; for the
row kinds, {"size": <digits>, "lens": [...], "cols": [...], "vals": [...]},
each list one "[" and one "]" with nothing but digits, "," and " "
between them, and "-" as well in vals, so that every scalar is an int, at
least 0 outside vals, and no list holds a list.  No item is checked one by
one.  Values are checked after the parse: a basis code count other than 3k
times n, the cold build's basis size at k (_SIZES), rows that record a size
other than n, a position outside the basis, a code of (2k)^2 or more, a
basis graph whose codes decrease, that holds a pair (a, b) with a > b or
that is not trivalent (its degrees are checked exactly, as the digits of
one running sum, in which such a pair counts no ends), basis keys that do
not increase strictly, a row length of 0, row lengths whose sum is not the
length of both cols and vals, a row whose columns do not increase strictly
or that holds a zero, and rref rows that are not in echelon form
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
from itertools import accumulate, compress, count, islice, repeat
from operator import ge, le, lt
from pathlib import Path

from .graphs import _keys_of_codes, graph_of_key
from .linalg import Rows, as_dicts, as_rows, in_echelon

FORMAT_VERSION = 1
# CRC-32 of the bytes of each kind's file that a cold build writes, at each
# k from 1 to 8: the one rule that load applies before it parses a file
_PINS = {
    1: {"basis": 0xAAFD31CC, "zeros": 0x1E4DBD87, "relations": 0xB7CBA5A0, "rref": 0xB7CBA5A0},
    2: {"basis": 0xEC55BE8E, "zeros": 0xA7472371, "relations": 0x7AD6A40B, "rref": 0xFD706F48},
    3: {"basis": 0xC65764DA, "zeros": 0x442A0D8B, "relations": 0x56421A32, "rref": 0x2AD9B2F2},
    4: {"basis": 0x983F9B68, "zeros": 0xBB3E6A45, "relations": 0xE3F2C40B, "rref": 0x569E8D45},
    5: {"basis": 0xCA45EE3C, "zeros": 0x3D3EEF1B, "relations": 0x09AB0F2E, "rref": 0xF1124D2C},
    6: {"basis": 0x59C9454A, "zeros": 0xDBA79B24, "relations": 0x36B375A2, "rref": 0x544A3329},
    7: {"basis": 0x551D9B70, "zeros": 0x50734312, "relations": 0x1997317D, "rref": 0x5B835E64},
    8: {"basis": 0x0C580062, "zeros": 0xF869144B, "relations": 0x9DA390AA, "rref": 0x1B903FD9},
}
# the cold build's basis size at each pinned k, which each of its files holds
_SIZES = {1: 0, 2: 2, 3: 2, 4: 4, 5: 37, 6: 243, 7: 2069, 8: 21807}


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


# one "[" and one "]" with digits, "," and " " alone between them: of
# these bytes json.loads reads nothing but one flat list of ints >= 0
_BASIS_BYTES = re.compile(rb"\[[0-9, ]*\]\}")
# the three flat lists of the row kinds, each of ints >= 0 as a basis is,
# with "-" as well in vals, where an int may be negative
_ROWS_BYTES = re.compile(
    rb'\{"size": [0-9]+, "lens": \[[0-9, ]*\], "cols": \[[0-9, ]*\], "vals": \[[-0-9, ]*\]\}\}'
)


def _basis_keys(raw, k) -> tuple:
    """The basis: the class key each graph of the payload spells.  The
    payload is one flat list of pair codes 2k*a + b, 3k a graph in key
    order, each graph's codes in its key's order: K4 is [1, 2, 3, 6, 7, 11]
    at k=2.  Each vertex of the 2k is the end of exactly three edges."""
    _check_bytes(raw, _BASIS_BYTES)
    codes = json.loads(raw)["payload"]  # by the bytes, a list of ints >= 0
    n, per_graph = 2 * k, 3 * k
    graphs = _SIZES[k]
    _check(len(codes) == graphs * per_graph)
    _check(not codes or max(codes) < n * n)
    # each code but a graph's first is at least the one before it, as the
    # pairs of a key are sorted
    before = [-1, *codes]  # the code before each, or -1 where a graph starts
    before[::per_graph] = repeat(-1, graphs + 1)
    _check(all(map(le, before, codes)))
    # the degrees of a graph's vertices as the digits of one int: a code
    # adds one in the digits of its two ends, and a vertex meets at most
    # 6k ends in a graph, so a digit wider than 6k never carries.  The
    # running sum at the end of the j-th graph is j times the sum of a
    # trivalent graph exactly when every graph is trivalent.  A pair (a, b)
    # with a > b, which no key holds, adds nothing, so its graph falls short
    width = (6 * k).bit_length()
    ends = [(1 << width * a) + (1 << width * b) if a <= b else 0 for a in range(n) for b in range(n)]
    trivalent = 3 * sum(1 << width * v for v in range(n))
    totals = accumulate(map(ends.__getitem__, codes))
    totals = list(islice(totals, per_graph - 1, None, per_graph))
    _check(totals == list(range(trivalent, trivalent * (graphs + 1), trivalent)))
    keys = _keys_of_codes(n, codes, per_graph)
    _check(all(map(lt, keys, keys[1:])))  # as classify sorts them
    return keys


def _zero_keys(raw, k) -> frozenset:
    data = json.loads(raw)
    _check(isinstance(data, dict) and data.get("format_version") == FORMAT_VERSION)
    return frozenset(_list_of(data.get("payload"), str))


def _relation_rows(raw, k) -> tuple:
    """(n, rows) from {"size": n, "lens": [...], "cols": [...], "vals":
    [...]}: sparse integer rows over a basis of size n, the size of the
    cold build's basis at k, the three flat lists as linalg.Rows, each row
    at least one entry long, its columns positions in the basis that
    increase strictly, and no value zero."""
    _check_bytes(raw, _ROWS_BYTES)
    p = json.loads(raw)["payload"]  # by the bytes, flat lists of ints
    n, lens, cols, vals = p["size"], p["lens"], p["cols"], p["vals"]
    _check(n == _SIZES[k])
    _check(0 not in lens and sum(lens) == len(cols) == len(vals))
    _check(not cols or max(cols) < n)
    # a column no larger than the one before it must start a row: its index
    # must be a running total of the row lengths
    starts = set(accumulate(lens))
    _check(starts.issuperset(compress(count(1), map(ge, cols, islice(cols, 1, None)))))
    _check(0 not in vals)
    return n, Rows(lens, cols, vals)


def _weight_rows(raw, k) -> tuple:
    """(n, W), each functional in W a dict, column -> value."""
    n, rows = _relation_rows(raw, k)
    rows = as_dicts(rows)
    _check(in_echelon(rows))
    return n, rows


def _basis_codes(keys) -> list:
    """The pair code num_vertices * a + b of each pair (a, b) of each key, in order."""
    codes = []
    for key in keys:
        graph = graph_of_key(key)
        codes += [graph.num_vertices * a + b for a, b in graph.edges]
    return codes


def _flat_rows(value) -> dict:
    n, rows = value
    return {"size": n, "lens": rows.lens, "cols": rows.cols, "vals": rows.vals}


def _flat_weights(value) -> dict:
    n, weights = value
    return _flat_rows((n, as_rows(weights)))


# each kind's (encoder, decoder): the encoder turns the value GraphSpace
# uses into a payload, and the decoder turns a file's bytes back into that
# value, given k, which a basis checks its graphs and their count against,
# and the relations and rref rows their recorded size (_SIZES); it raises
# ValueError on a file of the wrong shape.  The value of relations and rref
# is the pair (n, rows).  Decoders check types on the bytes and values over
# flat lists, a few C-level calls a file, not item by item.
_FORMATS = {
    "basis": (_basis_codes, _basis_keys),
    "zeros": (sorted, _zero_keys),
    "relations": (_flat_rows, _relation_rows),
    "rref": (_flat_weights, _weight_rows),
}
KINDS = tuple(_FORMATS)
# the names store writes, and the only files status and clear see
_FILE_NAME = re.compile(rf"(?:{'|'.join(KINDS)})-k[1-9][0-9]*\.json")


def _holds(path: Path, data: bytes) -> bool:
    """Whether the file at path holds exactly these bytes."""
    try:
        return path.stat().st_size == len(data) and path.read_bytes() == data
    except OSError:
        return False


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

    def load(self, k: int, kind: str):
        """The stored value, or None for a missing or unusable file: one
        whose bytes do not give the pin of its k and kind, or, behind a
        forged pin, of the wrong shape, a basis or rows of a size other
        than the cold build's (_SIZES) included."""
        try:
            with open(self.path(k, kind), "rb") as f:
                raw = f.read()
            _check(zlib.crc32(raw) == _PINS.get(k, {}).get(kind))
            return _FORMATS[kind][1](raw, k)
        except (OSError, ValueError, RecursionError):
            return None

    def store(self, k: int, kind: str, value) -> None:
        """Write a value atomically through a temp file of this writer's own;
        at a k without pins, write nothing, since load would not read it,
        and leave a file that already holds the bytes as it is, so that a
        rebuild over a file it did not miss leaves its inode and mtime.

        The temp file is created new (O_EXCL) under a random name, with mode
        0o666 less the umask, which the kernel applies, as a plain open
        would; so other users of a shared cache directory can read it, and
        the process umask is never changed.
        """
        if k not in _PINS:
            return
        payload = _FORMATS[kind][0](value)
        data = json.dumps({"format_version": FORMAT_VERSION, "payload": payload}).encode()
        path = self.path(k, kind)
        if _holds(path, data):
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.directory / f"tmp{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
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
