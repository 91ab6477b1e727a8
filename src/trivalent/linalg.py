"""Exact linear algebra over the rationals and over prime fields.

Rows are sparse dicts (column -> value).  exact_rref is the one exact
elimination: exact rank and dense solving are readings of its pivots.
rank_mod_p is the independent modular check.  Everything here is
deterministic: pivot choice is always the smallest column, prime generation
is seeded, and no floating point appears anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction


class BadPrimeError(Exception):
    """A denominator in the input vanishes modulo the chosen prime."""


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


def gen_primes(count: int, seed: int, low: int = 1 << 30, high: int = 1 << 31) -> tuple:
    """count distinct primes in [low, high), reproducible from the seed."""
    rng = random.Random(seed)
    found: list = []
    while len(found) < count:
        c = rng.randrange(low | 1, high, 2)
        if c not in found and is_probable_prime(c):
            found.append(c)
    return tuple(found)


def row_mod_p(row: dict, p: int) -> dict:
    """Reduce a sparse rational row modulo p; zero entries are dropped."""
    out = {}
    for col, val in row.items():
        if isinstance(val, Fraction):
            num, den = val.numerator, val.denominator
        else:
            num, den = val, 1
        if den % p == 0:
            raise BadPrimeError(f"denominator {den} vanishes mod {p}")
        r = num % p
        if den != 1:
            r = r * pow(den, -1, p) % p
        if r:
            out[col] = r
    return out


def rank_mod_p(rows, p: int) -> int:
    """Rank of the sparse row list over GF(p)."""
    pivots: dict = {}
    for row in rows:
        r = row_mod_p(row, p)
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


def _sub_scaled(r: dict, coef, pivot_row: dict) -> None:
    for c, v in pivot_row.items():
        nv = r.get(c, 0) - coef * v
        if nv:
            r[c] = nv
        elif c in r:
            del r[c]


def exact_rank(rows) -> int:
    """Rank over the rationals."""
    return len(exact_rref(rows))


def exact_rref(rows) -> dict:
    """Reduced row echelon form: column -> unit-pivot row, fully reduced.

    Reducing any vector against the result is linear, idempotent, and kills
    exactly the row span of the input.
    """
    pivots: dict = {}
    for row in rows:
        r = reduce_vector(row, pivots)
        if not r:
            continue
        col = min(r)
        inv = 1 / r[col]
        new_row = {c: v * inv for c, v in r.items()}
        for prow in pivots.values():
            if col in prow:
                _sub_scaled(prow, prow[col], new_row)
        pivots[col] = new_row
    return pivots


def reduce_vector(vec: dict, pivots: dict) -> dict:
    """Residual of a sparse vector against an exact_rref pivot set."""
    r = {c: Fraction(v) for c, v in vec.items() if v}
    for col in sorted(r):
        if col in pivots and col in r:
            _sub_scaled(r, r[col], pivots[col])
    return r


def solve_exact(a, b):
    """Solve A X = B over the rationals; None if inconsistent.

    a is a list of m rows of length n, b a list of m rows of length q.
    Free variables are set to zero, so the answer is deterministic.  The
    reduced echelon form of [A | B] pivots on a column of B exactly when the
    system is inconsistent; otherwise each pivot row's B part is that
    variable's value.
    """
    n = len(a[0]) if a else 0
    q = len(b[0]) if a else 0
    pivots = exact_rref(
        {j: v for j, v in enumerate([*ra, *rb]) if v} for ra, rb in zip(a, b)
    )
    if any(col >= n for col in pivots):
        return None
    x = zero_matrix(n, q)
    for col, row in pivots.items():
        x[col] = [row.get(n + j, Fraction(0)) for j in range(q)]
    return x


def zero_matrix(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity_matrix(n: int):
    m = zero_matrix(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_mul(a, b, rows: int, inner: int, cols: int):
    """a (rows x inner) times b (inner x cols).

    The shapes are explicit because an empty matrix does not record its
    column count, and zero-rank degrees produce such matrices.
    """
    out = zero_matrix(rows, cols)
    for i in range(rows):
        ai, oi = a[i], out[i]
        for t in range(inner):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out
