"""On-disk JSON cache for per-k derived data (bases, relations, weight systems).

Each kind's file format lives here: store takes the value GraphSpace uses
and load gives it back.  A basis is the list of its graphs' ranked strings
in key order, one character a pair (graphs._pair_order), which compare as
the keys they spell, so that a class is looked up with no key spelled; its
file holds one string of two lowercase hex digits for each pair code
2k*a + b, 3k codes a graph, in key order, the code of each pair (a, b) of
the key in the key's order: at k=2, K4's key cub:4:0-1,0-2,0-3,1-2,1-3,2-3
is "01020306070b".  Every pinned k is at most 8, so every code is below
(2k)^2 <= 256, two digits.  Load ranks the codes with one bytes.translate
call (_rank_tables).  The relations kind holds the relation rows,
and the rref kind the weight systems W that normal forms are read from,
both stored as sparse integer rows over a basis of size n, flat: {"size":
n, "lens": [...], "cols": [...], "vals": [...]}, each row's entry count,
then the columns and the values of every row, row after row.  At k=2 the
one relation row, 1 at column 0, is {"size": 2, "lens": [1], "cols": [0],
"vals": [1]}.  The relation rows are n and those three lists as they are
(linalg.Rows), so load builds nothing per row, and the relations file
alone gives a dimension, n minus the rank of its rows; W is a list of
functionals, each a dict, whose n the rref encoder writes as the cold
build's basis size at k (_SIZES).  The directory is the explicit
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
basis, one string of lowercase hex digits, which is read with no JSON
parse; for the row kinds, {"size": <digits>, "lens": [...], "cols": [...],
"vals": [...]}, each list one "[" and one "]" with nothing but digits, ","
and " " between them, and "-" as well in vals, so that every scalar is an
int, at least 0 outside vals, and no list holds a list.  No item is
checked one by one.  Values are checked after the parse: a basis digit
count other than 2 * 3k times n, the cold build's basis size at k
(_SIZES), rows that record a size other than n, a position outside the
basis, a code of (2k)^2 or more, a basis graph whose codes decrease, that
holds a pair (a, b) with a > b or that is not trivalent (its degrees are
checked exactly, as the digits of one running sum, in which such a pair
counts no ends), basis graphs whose ranked strings, so keys, do not
increase strictly, a row length of 0, row lengths whose sum is not the
length of both cols and vals, a row whose columns do not increase strictly
or that holds a zero, and rref rows that are not in echelon form
(linalg.in_echelon), two of them sharing a top column, say.  The zeros file
is checked after the parse alone: its format_version, and a payload of
strings.  JSON nested past the decoder's recursion limit is ignored like
any unreadable file.
"""

from __future__ import annotations

import functools
import json
import os
import re
import zlib
from itertools import accumulate, compress, count, islice
from operator import ge, lt
from pathlib import Path

from .graphs import _pair_order
from .linalg import Rows, as_dicts, as_rows, in_echelon

FORMAT_VERSION = 1
# CRC-32 of the bytes of each kind's file that a cold build writes, at each
# k from 1 to 8: the one rule that load applies before it parses a file
_PINS = {
    1: {"basis": 0x597A072A, "zeros": 0x1E4DBD87, "relations": 0xB7CBA5A0, "rref": 0xB7CBA5A0},
    2: {"basis": 0x85CB2B6D, "zeros": 0xA7472371, "relations": 0x7AD6A40B, "rref": 0xFD706F48},
    3: {"basis": 0x302D1B97, "zeros": 0x442A0D8B, "relations": 0x56421A32, "rref": 0x2AD9B2F2},
    4: {"basis": 0xFCFABAB3, "zeros": 0xBB3E6A45, "relations": 0xE3F2C40B, "rref": 0x569E8D45},
    5: {"basis": 0xCE1ABB32, "zeros": 0x3D3EEF1B, "relations": 0x09AB0F2E, "rref": 0xF1124D2C},
    6: {"basis": 0xAE935EC7, "zeros": 0xDBA79B24, "relations": 0x36B375A2, "rref": 0x544A3329},
    7: {"basis": 0x01F0141C, "zeros": 0x50734312, "relations": 0x1997317D, "rref": 0x5B835E64},
    8: {"basis": 0xC4E69E88, "zeros": 0xF869144B, "relations": 0x9DA390AA, "rref": 0x1B903FD9},
}
# the cold build's basis size at each pinned k, which each of its files holds
_SIZES = {1: 0, 2: 2, 3: 2, 4: 4, 5: 37, 6: 243, 7: 2069, 8: 21807}


def _check(ok) -> None:
    if not ok:
        raise ValueError("cache payload of the wrong shape")


# the header json.dumps writes before each payload
_HEAD = b'{"format_version": %d, "payload": ' % FORMAT_VERSION


def _check_bytes(raw: bytes, payload: re.Pattern) -> None:
    """raw is the bytes of a file that json.dumps wrote: the header, then
    the payload and the closing brace as the given pattern spells them.
    The header is compared, not compiled, and the pattern reads raw from
    where the header ends, without a copy."""
    _check(raw.startswith(_HEAD) and payload.fullmatch(raw, len(_HEAD)))


# one string of lowercase hex digits, which bytes.fromhex reads whole once
# their count is even
_BASIS_BYTES = re.compile(rb'"[0-9a-f]*"\}')
# the three flat lists of the row kinds, each one "[" and one "]" with
# digits, "," and " " alone between them, so of ints >= 0, with "-" as well
# in vals, where an int may be negative
_ROWS_BYTES = re.compile(
    rb'\{"size": [0-9]+, "lens": \[[0-9, ]*\], "cols": \[[0-9, ]*\], "vals": \[[-0-9, ]*\]\}\}'
)


@functools.cache
def _rank_tables(n: int) -> tuple:
    """(to rank, to code): the bytes.translate tables that send the code
    n*a + b of each pair of n <= 16 vertices to its rank in the string
    order of the pairs' texts (graphs._pair_order), and back."""
    codes = _pair_order(n)[0]
    to_rank = bytearray(256)
    for rank, code in enumerate(codes):
        to_rank[code] = rank
    return bytes(to_rank), bytes(codes).ljust(256, b"\0")


def _basis_graphs(raw, k) -> list:
    """The basis: each graph's ranked string (graphs._pair_order), in key
    order.  The payload is one string of two lowercase hex digits for each
    pair code 2k*a + b, 3k codes a graph in key order, each graph's codes
    in its key's order: K4 is "01020306070b" at k=2.  Each vertex of the
    2k is the end of exactly three edges."""
    _check_bytes(raw, _BASIS_BYTES)
    digits = raw[len(_HEAD) + 1 : -2]  # by the bytes, lowercase hex digits
    n, per_graph, size = 2 * k, 3 * k, _SIZES[k]
    _check(len(digits) == 2 * per_graph * size)
    codes = bytes.fromhex(digits.decode())
    _check(not codes.translate(None, bytes(range(n * n))))  # every code below (2k)^2
    # each code but a graph's first is at least the one before it, as the
    # pairs of a key are sorted.  With one 16-bit lane a code, lane i of
    # now - before is 256 + c_i - c_(i-1), from 1 to 511, so no lane borrows
    # from the next, and its bit 8 is set exactly when c_i >= c_(i-1)
    lanes = bytearray(2 * len(codes))
    lanes[::2] = codes
    now = int.from_bytes(lanes, "little") | int.from_bytes(b"\0\1" * len(codes), "little")
    before = int.from_bytes(b"\0\0" + lanes[:-2], "little")
    inner = int.from_bytes((b"\0\0" + b"\0\1" * (per_graph - 1)) * size, "little")  # a graph's first lane clear
    _check((now - before) & inner == inner)
    width = (6 * k).bit_length()
    ends = [(1 << width * a) + (1 << width * b) if a <= b else 0 for a in range(n) for b in range(n)]
    trivalent = 3 * sum(1 << width * v for v in range(n))
    totals = accumulate([ends[c] for c in codes])
    totals = list(islice(totals, per_graph - 1, None, per_graph))
    _check(totals == list(range(trivalent, trivalent * (size + 1), trivalent)))
    # ranked strings compare as the keys they spell (graphs._pair_order)
    ranked = codes.translate(_rank_tables(n)[0]).decode("latin-1")
    graphs = [ranked[i : i + per_graph] for i in range(0, len(ranked), per_graph)]
    _check(all(map(lt, graphs, graphs[1:])))  # as classify sorts the keys
    return graphs


def _zero_keys(raw, k) -> frozenset:
    data = json.loads(raw)
    _check(isinstance(data, dict) and data.get("format_version") == FORMAT_VERSION)
    keys = data.get("payload")
    _check(type(keys) is list and set(map(type, keys)) <= {str})
    return frozenset(keys)


def _relation_rows(raw, k) -> Rows:
    """The linalg.Rows of {"size": n, "lens": [...], "cols": [...], "vals":
    [...]}: sparse integer rows over a basis of size n, the size of the
    cold build's basis at k, each row at least one entry long, its columns
    positions in the basis that increase strictly, and no value zero."""
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
    return Rows(n, lens, cols, vals)


def _weight_rows(raw, k) -> list:
    """W, each functional a dict, column -> value, in echelon form."""
    weights = as_dicts(_relation_rows(raw, k))
    _check(in_echelon(weights))
    return weights


def _basis_hex(graphs, k) -> str:
    """The pair codes of the basis graphs' ranked strings, two hex digits each."""
    return "".join(graphs).encode("latin-1").translate(_rank_tables(2 * k)[1]).hex()


def _flat_rows(rows, k) -> dict:
    return {"size": rows.size, "lens": rows.lens, "cols": rows.cols, "vals": rows.vals}


def _flat_weights(weights, k) -> dict:
    return _flat_rows(as_rows(weights, _SIZES[k]), k)


# each kind's (encoder, decoder): given k, the encoder turns the value
# GraphSpace uses into a payload, and the decoder turns a file's bytes back
# into that value, checking a basis's graphs and their count, and the size
# the relations and rref rows record, against the cold build's (_SIZES); it
# raises ValueError on a file of the wrong shape.  The value of a basis is
# its graphs' ranked strings, that of zeros a set of keys, that of
# relations linalg.Rows, which carry their basis size, and that of rref W,
# a list of dicts.  Decoders check types on the bytes and values over flat
# lists or whole ints, each call over all of a file's items; only the
# basis's running degree sum takes one Python step a code.
_FORMATS = {
    "basis": (_basis_hex, _basis_graphs),
    "zeros": (lambda keys, k: sorted(keys), _zero_keys),
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
        """The stored value, as store took it (_FORMATS), or None for a
        missing or unusable file: one whose bytes do not give the pin of
        its k and kind, or, behind a forged pin, of the wrong shape, a
        basis or rows of a size other than the cold build's (_SIZES)
        included.  Relation rows come back as linalg.Rows, whose size is
        the basis size n, and W as its functionals alone."""
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
        payload = _FORMATS[kind][0](value, k)
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
