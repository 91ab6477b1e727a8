"""Exact linear algebra over the rationals and over prime fields.

Rows are sparse dicts (column -> value).  exact_rref is the one exact
elimination: exact rank and dense solving are readings of its pivots.  It
is fraction-free: rows are cleared as primitive integer vectors and become
Fractions only in its answer, so its inner loops add and multiply ints.
reduce_vector, which reads that answer, works in Fractions.
rank_mod_p is the independent modular check; it takes integer rows, which
is what the relation rows are.  The modular ranks at several primes share
one integer singleton peel (peel_singletons), which exact_rref does not
use, so a fault in the peel shows as modular and exact ranks that differ.
Dense matrices are row-major lists of rows.
sub_product is the one matrix-product loop: it subtracts s * A * B from a
matrix in place, visiting only the nonzero entries of B's rows, as most
entries of the boundaries and propagators are zero.  mat_mul runs it over a
zero matrix, and morse's residuals run it into a scaled identity.
An empty matrix does not record its column count, and zero-rank degrees
produce such matrices, so mat_mul takes the product's column count and
solve_exact the number of unknowns; every other shape is read off the
arguments.  Everything here is deterministic: pivot choice is always the
smallest column, prime generation is seeded, and no floating point appears
anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm


# Deterministic Miller-Rabin witnesses for every n below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


PRIME_LOW, PRIME_HIGH = 1 << 30, 1 << 31


@cache
def gen_primes(count: int, seed: int) -> tuple:
    """count distinct primes in [PRIME_LOW, PRIME_HIGH), reproducible from
    the seed.  The answer depends on (count, seed) alone, so each pair is
    searched once per process: GraphSpace.dimension asks for the same
    primes on every call."""
    rng = random.Random(seed)
    found: list = []
    while len(found) < count:
        c = rng.randrange(PRIME_LOW | 1, PRIME_HIGH, 2)
        if c not in found and is_probable_prime(c):
            found.append(c)
    return tuple(found)


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


def _nonzero(row: dict) -> dict:
    """A copy of the row without its zero entries; a row with none, as the
    relation rows are, is copied whole."""
    return row.copy() if 0 not in row.values() else {c: v for c, v in row.items() if v}


def peel_singletons(rows) -> tuple:
    """The singleton peel of structured Gaussian elimination, over the
    integers: (peeled, rest).

    A row with one nonzero entry v pivots its column: peeled maps that
    column to v, and the column is deleted from every other row, which may
    leave new singletons to peel in turn.  rest holds the rows left
    nonempty when none is a singleton.  The rows are not modified.
    """
    live = [r for r in map(_nonzero, rows) if r]
    holders: dict = {}  # column -> indices of the live rows it appears in
    for i, r in enumerate(live):
        for c in r:
            holders.setdefault(c, []).append(i)
    peeled: dict = {}
    todo = [i for i, r in enumerate(live) if len(r) == 1]
    while todo:
        r = live[todo.pop()]
        if len(r) != 1:  # emptied by a singleton of the same column
            continue
        ((col, v),) = r.items()
        peeled[col] = v
        for j in holders.pop(col):
            rj = live[j]
            del rj[col]
            if len(rj) == 1:
                todo.append(j)
    return peeled, [r for r in live if r]


def peeled_rank_mod_p(rows, peel: tuple, p: int) -> int:
    """rank_mod_p(rows, p), given peel_singletons(rows).

    Each peeled column adds one to the rank over GF(p) when its entry is a
    unit there; if any is divisible by p, the rows are eliminated whole.
    """
    peeled, rest = peel
    if all(v % p for v in peeled.values()):
        return len(peeled) + rank_mod_p(rest, p)
    return rank_mod_p(rows, p)


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
    return len(exact_rref(rows))


def exact_rref(rows) -> dict:
    """Reduced row echelon form: column -> unit-pivot row, fully reduced.

    Reducing any vector against the result is linear, idempotent, and kills
    exactly the row span of the input.

    The elimination is fraction-free: each row is cleared over the integers
    as a primitive integer vector with a positive pivot entry, and the unit
    row is that vector over its pivot entry.  A row of the reduced form is
    unique up to scale, so this is the Gauss-Jordan answer over the
    rationals, with each row's keys in the order that elimination inserts
    them.
    """
    pivots: dict = {}
    for row in rows:
        den = reduce(lcm, (v.denominator for v in row.values()), 1)
        r = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
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
    return {col: {c: Fraction(v, r[col]) for c, v in r.items()} for col, r in pivots.items()}


def reduce_vector(vec: dict, pivots: dict) -> dict:
    """Residual of a sparse vector against an exact_rref pivot set."""
    r = {c: Fraction(v) for c, v in vec.items() if v}
    for col in sorted(r):
        if col in pivots and col in r:
            _sub_scaled(r, r[col], pivots[col])
    return r


def solve_exact(a, b, n: int):
    """Solve A X = B for the n x q unknown X over the rationals; None if
    inconsistent.

    a is a list of m rows of length n, b a list of m rows of length q.
    Free variables are set to zero, so the answer is deterministic.  The
    reduced echelon form of [A | B] pivots on a column of B exactly when the
    system is inconsistent; otherwise each pivot row's B part is that
    variable's value.
    """
    q = len(b[0]) if b else 0
    pivots = exact_rref(
        {j: v for j, v in enumerate([*ra, *rb]) if v} for ra, rb in zip(a, b)
    )
    if any(col >= n for col in pivots):
        return None
    x = [[0] * q for _ in range(n)]
    for col, row in pivots.items():
        x[col] = [row.get(n + j, 0) for j in range(q)]
    return x


def identity_matrix(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def sub_product(out, a, b, s) -> None:
    """out -= s * a * b, in place: the one matrix product.

    The nonzero entries of each row of b are listed once per call, and each
    nonzero entry of a row of a walks only those of its row of b, so a
    zero costs nothing past the listing.  out has a's row count and b's
    column count.
    """
    nonzero = [[(j, w) for j, w in enumerate(bt) if w] for bt in b]
    for oi, ai in zip(out, a):
        for v, bt in zip(ai, nonzero):
            if v:
                v *= s
                for j, w in bt:
                    oi[j] -= v * w


def mat_mul(a, b, cols: int):
    """a times b, which has cols columns; an empty b does not record them."""
    out = [[0] * cols for _ in a]
    sub_product(out, a, b, -1)
    return out
