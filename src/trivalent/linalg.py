"""Exact linear algebra over the rationals and over prime fields.

Rows are sparse dicts (column -> int), except the relation rows, which
keep the form of the relations file: Rows, their column count, the basis
size, then three flat lists, each row's entry count, then every row's
columns and every row's values, row after row, the columns of a row
strictly increasing, no value zero and no row empty.  There is one exact
elimination, and it is fraction-free: it takes integer rows only, as
every row the package passes is, and clears them as primitive integer
vectors, so its inner loops add and multiply ints.  (A
row holding a Fraction makes gcd raise TypeError, or, with one entry, is
scaled to +-1: it never gives a wrong answer.)  Exact rank counts its pivots, solve_exact reads its integer
pivot rows directly and answers with an integer matrix over a denominator,
and exact_rref reads the same rows as Fractions.  Fractions appear only in
exact_rref's answer and in reduce_vector, which works against it.  Nothing
in the package calls those two: normal forms are read off the kernel
vectors, and the two are the tests' reference for them.  They stay in this
module because the benchmark's span list (bench/spans.py) looks both names
up here when it installs.
rank_mod_p takes integer dict rows; it is at most their rank over the
rationals.  The integer singleton peel (peel_singletons) reads the flat
lists of the relation rows and serves both bounds of a dimension: the
count it peels plus rank_mod_p of the dict rows it leaves is at most the
rows' rank (spaces.GraphSpace._certificate says why), and kernel_vectors
reads integer vectors that vanish on the rows (vanishes_on checks each
against every row, again on the flat lists) off the exact elimination of
the rows it leaves, in the echelon form that in_echelon checks.  as_rows
gives dict rows the flat form, for the rref encoder, and as_dicts turns
Rows into dicts, for the rref decoder and for exact_rank, which does not
use the peel, so it stays a check of it.
Dense matrices are row-major lists of rows; nonzeros lists a dense matrix
as the (column, value) pairs of each row's nonzero entries.
sub_product is the one matrix-product loop: it subtracts s * A * B from a
dense matrix in place, with A and B listed, so no zero of either factor is
visited, as most entries of the boundaries and propagators are zero.
mat_mul lists its operands and runs it over a zero matrix, and morse's
residuals run it into a scaled identity.
An empty matrix does not record its column count, and zero-rank degrees
produce such matrices, so mat_mul takes the product's column count and
solve_exact the number of unknowns; every other shape is read off the
arguments.  Everything here is deterministic: pivot choice is always the
smallest column, and no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, islice, repeat, starmap
from math import gcd, lcm
from operator import mul


class Rows:
    """Sparse integer rows held flat, as the relations and rref files store
    them: size is the column count, the basis size the rows index, lens[i]
    is the entry count of row i, and cols and vals hold the columns and
    the values of every row, row after row.  Within a row the columns
    increase strictly; no value is zero and no row is empty.  Its length is
    the row count, and iterating it gives each row's (cols, vals) pair of
    lists, sliced as it is read: the certificate reads the flat lists, so
    neither a build nor a load makes an object per row."""

    __slots__ = ("size", "lens", "cols", "vals")

    def __init__(self, size=0, lens=None, cols=None, vals=None):
        self.size = size
        self.lens = [] if lens is None else lens
        self.cols = [] if cols is None else cols
        self.vals = [] if vals is None else vals

    def append(self, row: dict) -> None:
        """Add a dict row's nonzero entries in column order, unless it has none."""
        items = sorted((c, v) for c, v in row.items() if v)
        if items:
            self.lens.append(len(items))
            self.cols += [c for c, _ in items]
            self.vals += [v for _, v in items]

    def __len__(self) -> int:
        return len(self.lens)

    def __iter__(self):
        cols, vals, end = self.cols, self.vals, 0
        for m in self.lens:
            start, end = end, end + m
            yield cols[start:end], vals[start:end]

    def __eq__(self, other) -> bool:
        return type(other) is Rows and (self.size, self.lens, self.cols, self.vals) == (
            other.size, other.lens, other.cols, other.vals
        )

    def __repr__(self) -> str:
        return f"Rows({self.size!r}, {self.lens!r}, {self.cols!r}, {self.vals!r})"


def rank_mod_p(rows, p: int) -> int:
    """Rank of the sparse integer row list over GF(p)."""
    pivots: dict = {}
    for row in rows:
        r = {c: m for c, v in row.items() if (m := v % p)}
        while r:
            col = min(r)
            if col not in pivots:
                inv = pow(r[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in r.items()}
                break
            coef = r[col]
            for c, v in pivots[col].items():
                nv = (r.get(c, 0) - coef * v) % p
                if nv:
                    r[c] = nv
                elif c in r:
                    del r[c]
    return len(pivots)


def peel_singletons(rows: Rows) -> tuple:
    """The singleton peel of structured Gaussian elimination, over the
    integers: (peeled, rest).

    A row with one live entry v pivots its column: peeled maps that column
    to v, and the column leaves every other row, which may leave new
    singletons to peel in turn.  rest holds, as dicts, the rows left
    nonempty when none is a singleton.  The peel reads the flat lists of
    rows and modifies none: each row keeps a count of its live entries,
    and its live columns are those not peeled.
    """
    lens, cols, vals = rows.lens, rows.cols, rows.vals
    starts = list(accumulate(lens, initial=0))  # where each row's entries start
    # at each column, the indices of the rows it appears in
    holders = [[] for _ in range(1 + max(cols, default=-1))]
    entries = iter(cols)
    for i, m in enumerate(lens):
        if m == 1:  # about half the relation rows
            holders[next(entries)].append(i)
        else:
            for c in islice(entries, m):
                holders[c].append(i)
    left = lens[:]  # the live entries of each row
    peeled: dict = {}
    todo = [i for i, m in enumerate(left) if m == 1]
    while todo:
        i = todo.pop()
        if left[i] != 1:  # emptied by a singleton of the same column
            continue
        t = starts[i]
        while cols[t] in peeled:  # its one live entry is the first not peeled
            t += 1
        col = cols[t]
        peeled[col] = vals[t]
        for j in holders[col]:
            left[j] -= 1
            if left[j] == 1:
                todo.append(j)
    rest = [
        {c: v for c, v in zip(cols[s : s + m], vals[s : s + m]) if c not in peeled}
        for s, m in compress(zip(starts, lens), left)
    ]
    return peeled, rest


def kernel_vectors(n: int, peel: tuple) -> list:
    """Integer vectors w over columns 0..n-1 that vanish on the rows,
    given their peel_singletons: one per free column f, primitive, w[f] > 0.

    A singleton row forces w to be zero on its column, so w is read off the
    fraction-free elimination of the rows the peel leaves.  A free column is
    neither peeled nor a pivot there, and w_f is zero on every other free
    column, so the vectors are independent.
    """
    peeled, rest = peel
    pivots = _integer_rref(rest)
    vectors = []
    for f in range(n):
        if f in peeled or f in pivots:
            continue
        hits = [(col, r) for col, r in pivots.items() if f in r]
        den = reduce(lcm, (r[col] for col, r in hits), 1)
        w = {f: den} | {col: -r[f] * (den // r[col]) for col, r in hits}
        g = reduce(gcd, w.values())
        vectors.append({c: v // g for c, v in sorted(w.items())})
    return vectors


def in_echelon(vectors) -> bool:
    """Whether the top (largest) columns of the nonempty sparse vectors are
    distinct and each is absent from every other vector, as kernel_vectors
    builds them: then the vectors are independent, and each one's top column
    reads its coefficient in any combination of them."""
    tops = {max(w) for w in vectors if w}
    return len(tops) == len(vectors) and all(len(tops.intersection(w)) == 1 for w in vectors)


def vanishes_on(rows: Rows, w: dict) -> bool:
    """Whether sum(vals[i] * w[cols[i]]) is zero over every row, in
    integers: the running sum of those products over the flat lists is
    zero at the last entry of each row."""
    totals = list(accumulate(map(mul, rows.vals, map(w.get, rows.cols, repeat(0)))))
    return not any(map(totals.__getitem__, islice(accumulate(rows.lens, initial=-1), 1, None)))


def as_rows(rows, size: int = 0) -> Rows:
    """Sparse dict rows over size columns as Rows, in order: each row's
    columns sorted, its zero entries dropped, and a row with no nonzero
    entry dropped."""
    flat = Rows(size)
    for row in rows:
        flat.append(row)
    return flat


def as_dicts(rows: Rows) -> list:
    """Rows as sparse dicts, the columns in increasing order."""
    return list(map(dict, starmap(zip, rows)))


def _sub_scaled(r: dict, coef, pivot_row: dict) -> None:
    for c, v in pivot_row.items():
        nv = r.get(c, 0) - coef * v
        if nv:
            r[c] = nv
        elif c in r:
            del r[c]


def _eliminate(r: dict, col: int, prow: dict) -> None:
    """Clear column col of the integer row r with the integer row prow,
    whose entry there is positive, and make r primitive; in place.

    r becomes a * r - b * prow with a, b the smallest integers that cancel
    the column, so its nonzero pattern, and the order its keys gain and lose
    entries in, is that of r - (r[col] / prow[col]) * prow.
    """
    lead, v = prow[col], r[col]
    g = gcd(lead, v)
    a, b = lead // g, v // g
    if a != 1:
        for c in r:
            r[c] *= a
    _sub_scaled(r, b, prow)
    # reduce, not gcd(*r.values()): a star-args tuple per row raised the
    # exact_kernels benchmark's peak RSS by about 1 MB
    g = reduce(gcd, r.values(), 0)
    if g > 1:
        for c in r:
            r[c] //= g


def exact_rank(rows) -> int:
    """Rank over the rationals."""
    return len(_integer_rref(rows))


def _integer_rref(rows) -> dict:
    """The fraction-free elimination of integer rows: column -> pivot row,
    fully reduced, each row a primitive integer vector with a positive
    pivot entry.

    Each row is copied, without its zeros if it has any.  A row of the
    reduced form is unique up to scale, so each row over its pivot entry is
    the Gauss-Jordan row over the rationals, with its keys in the order that
    elimination inserts them.
    """
    pivots: dict = {}
    for row in rows:
        r = row.copy() if 0 not in row.values() else {c: v for c, v in row.items() if v}
        for col in sorted(r):
            if col in pivots and col in r:
                _eliminate(r, col, pivots[col])
        if not r:
            continue
        col = min(r)
        g = reduce(gcd, r.values())
        if r[col] < 0:
            g = -g
        if g != 1:
            for c in r:
                r[c] //= g
        for prow in pivots.values():
            if col in prow:
                _eliminate(prow, col, r)
        pivots[col] = r
    return pivots


def exact_rref(rows) -> dict:
    """Reduced row echelon form: column -> unit-pivot row, fully reduced.

    Reducing any vector against the result is linear, idempotent, and kills
    exactly the row span of the input.  It is the integer elimination's
    answer read as Fractions: each row over its pivot entry.
    """
    return {
        col: {c: Fraction(v, r[col]) for c, v in r.items()}
        for col, r in _integer_rref(rows).items()
    }


def reduce_vector(vec: dict, pivots: dict) -> dict:
    """Residual of a sparse vector against an exact_rref pivot set."""
    r = {c: Fraction(v) for c, v in vec.items() if v}
    for col in sorted(r):
        if col in pivots and col in r:
            _sub_scaled(r, r[col], pivots[col])
    return r


def solve_exact(a, b, n: int):
    """Solve A X = B for the n x q unknown X over the rationals: (X, den)
    with X an integer matrix and A X = den B, den the least such; None if
    inconsistent.

    a is a list of m rows of length n, b a list of m rows of length q.
    Free variables are set to zero, so the answer is deterministic.  The
    reduced echelon form of [A | B] pivots on a column of B exactly when the
    system is inconsistent; otherwise each pivot row's B part over its
    pivot entry is that variable's value.  The integer pivot rows are read
    directly, so no Fraction is made.
    """
    q = len(b[0]) if b else 0
    pivots = _integer_rref(
        {j: v for j, v in enumerate([*ra, *rb]) if v} for ra, rb in zip(a, b)
    )
    if any(col >= n for col in pivots):
        return None
    den = reduce(lcm, (r[col] for col, r in pivots.items()), 1)
    x = [[0] * q for _ in range(n)]
    for col, r in pivots.items():
        f, row = den // r[col], x[col]
        for c, v in r.items():
            if c >= n:
                row[c - n] = v * f
    g = reduce(gcd, (v for row in x for v in row if v), den)
    if g > 1:
        den //= g
        x = [[v // g for v in row] for row in x]
    return x, den


def identity_matrix(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def nonzeros(m) -> list:
    """The nonzero entries of each row of a dense matrix, as (column,
    value) lists: the form sub_product takes its operands in."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in m]


def sub_product(out, a, b, s) -> None:
    """out -= s * a * b, in place: the one matrix product.

    a and b are listed (see nonzeros), so each nonzero entry of a row of a
    walks only the nonzero entries of its row of b, and no zero of either
    factor is visited.  out is dense, with a's row count and b's column
    count.
    """
    for oi, ai in zip(out, a):
        for t, v in ai:
            v *= s
            for j, w in b[t]:
                oi[j] -= v * w


def mat_mul(a, b, cols: int):
    """a times b, which has cols columns; an empty b does not record them."""
    out = [[0] * cols for _ in a]
    sub_product(out, nonzeros(a), nonzeros(b), -1)
    return out
