"""Exact and modular elimination, kernel vectors, dense solving."""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent import linalg as la

import oracles


def sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda m: len({len(r) for r in m}) == 1)


class TestRank:
    def test_simple(self):
        rows = sparse([[1, 2], [2, 4], [0, 1]])
        assert la.exact_rank(rows) == 2

    def test_rational_entries(self):
        """The elimination takes integer rows.  A row holding a Fraction is
        refused by gcd, or, with one entry on a new column, scaled to a
        unit: it never gives a wrong rank."""
        with pytest.raises(TypeError):
            la.exact_rank([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: 3, 1: 2}])
        with pytest.raises(TypeError):
            la.exact_rank([{0: 3, 1: 2}, {0: Fraction(1, 2)}])
        assert la.exact_rank([{0: Fraction(1, 2)}, {0: 3, 1: 2}]) == 2

    @given(small_matrix)
    @settings(max_examples=200, deadline=None)
    def test_modular_agrees_with_exact(self, m):
        rows = sparse(m)
        p = 2147483647
        assert la.rank_mod_p(rows, p) == la.exact_rank(rows)

    def test_rational_row_is_refused(self):
        with pytest.raises(TypeError):
            la.rank_mod_p([{0: Fraction(1, 2)}], 7)


@st.composite
def peelable_rows(draw):
    """Sparse integer rows with zero entries, a singleton chain (each link
    holds the column the row before it peels and one new one) and repeated
    singletons in one column, shuffled.  Entries include multiples of the
    small primes, so some peeled entries vanish modulo some primes."""
    value = st.sampled_from((0, 1, -1, 2, -3, 5, 7, 14, 35))
    rows = draw(st.lists(st.dictionaries(st.integers(0, 7), value, max_size=4), max_size=8))
    chain = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    rows.append({chain[0]: draw(value)})
    rows += [{a: draw(value), b: draw(value)} for a, b in zip(chain, chain[1:])]
    rows += [{chain[-1]: draw(value)} for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows))


def random_peel_rows(rng):
    """Seeded rows for the peel, as linalg.Rows: random rows, singleton
    chains (each link holds the column the row before it peels and one
    new one, so the peel empties it), two singletons on one column (one
    of them emptied by the other) and a row all of whose columns other
    singletons peel, shuffled."""
    value = [-3, -1, 1, 2, 5, 7]
    rows = [
        {rng.randrange(12): rng.choice(value) for _ in range(rng.randint(1, 4))}
        for _ in range(rng.randint(0, 10))
    ]
    for _ in range(rng.randint(1, 3)):
        chain = rng.sample(range(14), rng.randint(1, 5))
        rows.append({chain[0]: rng.choice(value)})
        rows += [{a: rng.choice(value), b: rng.choice(value)} for a, b in zip(chain, chain[1:])]
    a, b = rng.sample(range(14), 2)
    rows += [{a: rng.choice(value)}, {a: rng.choice(value)}, {b: 1}, {a: 1, b: 1}]
    rng.shuffle(rows)
    return la.as_rows(rows)


class TestPeel:
    PRIMES = (2, 3, 5, 7, 2147483647)

    @given(peelable_rows())
    @settings(max_examples=300, deadline=None)
    def test_peel_bounds_the_exact_rank(self, rows):
        """The peel reads the rows as linalg.Rows, zero entries dropped,
        and modifies none.  Its count plus the rank mod p of the rows it
        leaves is at most the exact rank at every p, the bound the
        certificate reads, and is the rank mod p when every peeled entry is
        a unit there."""
        flat = la.as_rows(rows)
        before = la.Rows(flat.size, flat.lens[:], flat.cols[:], flat.vals[:])
        peeled, rest = la.peel_singletons(flat)
        assert flat == before
        assert all(len(r) > 1 and not peeled.keys() & r.keys() for r in rest)
        rank = la.exact_rank(rows)
        for p in self.PRIMES:
            bound = len(peeled) + la.rank_mod_p(rest, p)
            assert bound <= rank
            if all(v % p for v in peeled.values()):
                assert bound == la.rank_mod_p(rows, p)

    def test_peeled_entry_divisible_by_p_keeps_the_bound(self):
        """7 peels column 0 over the integers but is zero modulo 7, where
        the two rows span one dimension, not two: the bound is still the
        exact rank, 2, above the rank mod 7."""
        rows = la.Rows(2, [1, 2], [0, 0, 1], [7, 1, 1])
        peeled, rest = la.peel_singletons(rows)
        assert (peeled, rest) == ({0: 7, 1: 1}, [])
        assert len(peeled) + la.rank_mod_p(rest, 7) == la.exact_rank(la.as_dicts(rows)) == 2
        assert la.rank_mod_p(la.as_dicts(rows), 7) == 1

    def test_matches_the_reference_on_random_rows(self):
        """Over 300 seeds, which between them leave rows to the elimination
        and empty rows that peel nothing themselves."""
        left = emptied = 0
        for seed in range(300):
            rows = random_peel_rows(random.Random(seed))
            peeled, rest = peel = la.peel_singletons(rows)
            oracles.assert_same_peel(peel, rows)
            left += len(rest)
            emptied += len(rows) - len(peeled) - len(rest)
        assert left and emptied

    def test_as_rows_and_as_dicts(self):
        """as_rows sorts each row's columns and drops zero entries and a
        row with no other, and Rows iterate as (cols, vals) pairs; as_dicts
        undoes it."""
        rows = la.as_rows([{3: -1, 0: 2, 1: 0}, {2: 0}, {1: 4}])
        assert rows == la.Rows(0, [2, 1], [0, 3, 1], [2, -1, 4])
        assert len(rows) == 2 and list(rows) == [([0, 3], [2, -1]), ([1], [4])]
        assert la.as_dicts(rows) == [{0: 2, 3: -1}, {1: 4}]
        assert rows != [([0, 3], [2, -1]), ([1], [4])]


class TestKernelVectors:
    @given(peelable_rows())
    @settings(max_examples=300, deadline=None)
    def test_a_basis_of_the_kernel(self, rows):
        """There are n - rank vectors, and each vanishes on every row and is
        primitive.  Its free column is its largest (a pivot row's pivot is
        its smallest column), where it is positive and the others are zero,
        so they are independent."""
        n = 1 + max((c for r in rows for c in r), default=-1)
        flat = la.as_rows(rows)
        ws = la.kernel_vectors(n, la.peel_singletons(flat))
        assert len(ws) == n - la.exact_rank(rows)
        for w in ws:
            f = max(w)
            assert la.vanishes_on(flat, w)
            assert w[f] > 0 and reduce(gcd, w.values()) == 1
            assert not any(f in x for x in ws if x is not w)
        assert la.in_echelon(ws)

    def test_in_echelon_refuses_a_shared_or_held_top(self):
        assert la.in_echelon([]) and la.in_echelon([{0: 1, 2: 1}, {1: 1}])
        assert not la.in_echelon([{1: 1}, {0: 1, 1: 1}])  # the same top column
        assert not la.in_echelon([{0: 1}, {0: 1, 1: 1}])  # a top held by another vector
        assert not la.in_echelon([{}])

    def test_no_rows_gives_the_unit_vectors(self):
        assert la.kernel_vectors(2, la.peel_singletons(la.Rows())) == [{0: 1}, {1: 1}]

    def test_vanishes_on_reads_every_row(self):
        """Each row's sum must vanish, not only the sum over all rows:
        (1, 1, 1) kills both rows, and (2, 0, 1) leaves 2 and -2, which
        cancel across the two rows but not within either."""
        rows = la.as_rows([{0: 1, 1: -1}, {1: 2, 2: -2}])
        assert la.vanishes_on(rows, {0: 1, 1: 1, 2: 1})
        assert not la.vanishes_on(rows, {0: 1, 1: 1})
        assert not la.vanishes_on(rows, {0: 1, 1: 1, 2: 2})
        assert not la.vanishes_on(rows, {0: 2, 2: 1})
        assert la.vanishes_on(la.Rows(), {0: 1})


class TestRref:
    @given(small_matrix)
    @settings(max_examples=100, deadline=None)
    def test_kills_row_span_and_is_idempotent(self, m):
        rows = sparse(m)
        piv = la.exact_rref(rows)
        for r in rows:
            assert la.reduce_vector(r, piv) == {}
        for r in rows:
            res = la.reduce_vector(r, piv)
            assert la.reduce_vector(res, piv) == res

    def test_rank_matches(self):
        rows = sparse([[1, 1, 0], [0, 1, 1], [1, 0, -1]])
        assert len(la.exact_rref(rows)) == la.exact_rank(rows) == 2

    def test_reduction_is_linear(self):
        rows = sparse([[1, 2, 0], [0, 0, 3]])
        piv = la.exact_rref(rows)
        u, v = {1: Fraction(5)}, {2: Fraction(7), 1: Fraction(-1)}
        ru = la.reduce_vector(u, piv)
        rv = la.reduce_vector(v, piv)
        w = dict(u)
        for c, val in v.items():
            w[c] = w.get(c, 0) + val
        rw = la.reduce_vector(w, piv)
        combo = dict(ru)
        for c, val in rv.items():
            combo[c] = combo.get(c, 0) + val
        combo = {c: v for c, v in combo.items() if v}
        assert rw == combo


entry = st.integers(-6, 6)


@st.composite
def sparse_rows(draw):
    """Sparse integer rows (zeros included, keys in any order), then some
    combinations of them, which reduce to zero."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, 7), entry, max_size=5), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        combo: dict = {}
        for r in rows:
            a = draw(st.sampled_from((0, 1, -1, 2, -3)))
            for c, v in r.items():
                combo[c] = combo.get(c, 0) + a * v
        rows.append({c: v for c, v in combo.items() if v})
    return rows


class TestAgainstFractionElimination:
    """The integer elimination against the Fraction Gauss-Jordan reference
    in tests/oracles.py."""

    @given(sparse_rows())
    @settings(max_examples=300, deadline=None)
    def test_same_rref(self, rows):
        got, want = la.exact_rref(rows), oracles.exact_rref(rows)
        assert list(got) == list(want)
        for col in want:
            assert list(got[col].items()) == list(want[col].items())
            assert all(type(v) is Fraction for v in got[col].values())

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_solution(self, m, n, q, data):
        """X / den is the solution read off the reference elimination of
        [A | B]: each pivot row's B part, free variables zero."""
        a = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
        b = [data.draw(st.lists(entry, min_size=q, max_size=q)) for _ in range(m)]
        assert_reference_solution(a, b, n)


class TestMixedRows:
    """Rows with a zero entry, which is dropped, rows with their keys out
    of order and a multiple of another row, met in one elimination: the
    answers are the Fraction reference's."""

    ROWS = [
        {0: 0, 1: 3, 3: -1},  # a zero, which must not pivot
        {0: 2, 1: -4, 3: 6},
        {3: 3, 0: 1, 1: -2},  # half the second
        {0: 3, 1: 3, 2: 4},
        {2: 5, 0: 7},
    ]

    def test_rank_and_rref(self):
        before = [dict(r) for r in self.ROWS]
        want = oracles.exact_rref(self.ROWS)
        assert la.exact_rank(self.ROWS) == len(want) == 4
        got = la.exact_rref(self.ROWS)
        assert [(p, list(r.items())) for p, r in got.items()] == [
            (p, list(r.items())) for p, r in want.items()
        ]
        assert self.ROWS == before

    def test_solve(self):
        a = [[2, 0, 4], [1, 2, 0], [0, 9, -3], [6, 9, 9]]
        b = [[6, -2], [2, 0], [2, 15], [20, 9]]
        assert_reference_solution(a, b, 3)
        assert la.solve_exact(a, b, 3) == ([[10, -54], [7, 27], [13, 21]], 12)
        b[3][1] = 12  # the last row is no longer three times the first plus the third
        assert_reference_solution(a, b, 3)
        assert la.solve_exact(a, b, 3) is None


def assert_reference_solution(a, b, n):
    """solve_exact(a, b, n) gives None exactly when the reference
    elimination of [A | B] pivots on a column of B, and otherwise X / den
    with each pivot row's B part, free variables zero, in least form."""
    q = len(b[0]) if b else 0
    got = la.solve_exact(a, b, n)
    pivots = oracles.exact_rref(
        [{j: v for j, v in enumerate(ra + rb) if v} for ra, rb in zip(a, b)]
    )
    if any(col >= n for col in pivots):
        assert got is None
        return
    want = [[0] * q for _ in range(n)]
    for col, row in pivots.items():
        want[col] = [row.get(n + j, 0) for j in range(q)]
    x, den = got
    assert all(type(v) is int for row in x for v in row)
    assert [[Fraction(v, den) for v in row] for row in x] == want
    assert least_denominator(x, den)


def least_denominator(x, den) -> bool:
    """den > 0 shares no factor with every entry of X at once, so no
    smaller den gives an integer X."""
    return den > 0 and reduce(gcd, (v for row in x for v in row), den) == 1


def scaled(m, den):
    return [[den * v for v in row] for row in m]


class TestSolve:
    """solve_exact gives (X, den) with A X = den B."""

    def test_exact_solution(self):
        a = [[1, 2], [3, 4]]
        b = [[5], [6]]
        x, den = la.solve_exact(a, b, 2)
        assert (x, den) == ([[-8], [9]], 2)
        assert la.mat_mul(a, x, 1) == scaled(b, den)

    def test_inconsistent(self):
        assert la.solve_exact([[1, 1], [1, 1]], [[0], [1]], 2) is None

    def test_underdetermined_picks_free_zero(self):
        assert la.solve_exact([[1, 1]], [[2]], 2) == ([[2], [0]], 1)

    @given(small_matrix, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_constructed_systems_solve(self, a, qcols):
        n = len(a[0])
        q = qcols + 1
        x0 = [[(i + j) % 3 - 1 for j in range(q)] for i in range(n)]
        b = la.mat_mul(a, x0, q)
        sol = la.solve_exact(a, b, n)
        assert sol is not None
        x, den = sol
        assert la.mat_mul(a, x, q) == scaled(b, den)
        assert least_denominator(x, den)

    @given(small_matrix, st.data())
    @settings(max_examples=200, deadline=None)
    def test_inconsistent_exactly_when_augmented_rank_grows(self, m, data):
        # entries in [-4, 4] and at most 7 rows: every minor's Hadamard bound,
        # (4 * 7^0.5)^7 < 1.5e7, is below p, so the modular ranks are exact
        if data.draw(st.booleans()):
            m = m + [m[0]]  # a repeated row, so that some systems are inconsistent
        q = data.draw(st.integers(0, 3))
        b = [data.draw(st.lists(st.integers(-4, 4), min_size=q, max_size=q)) for _ in m]
        n = len(m[0])
        p = 2147483647
        aug = sparse([ra + rb for ra, rb in zip(m, b)])
        grows = la.rank_mod_p(aug, p) > la.rank_mod_p(sparse(m), p)
        sol = la.solve_exact(m, b, n)
        assert (sol is None) == grows
        if sol is not None:
            x, den = sol
            assert la.mat_mul(m, x, q) == scaled(b, den)
            assert least_denominator(x, den)


class TestHelpers:
    def test_identity_and_transpose(self):
        i3 = la.identity_matrix(3)
        assert la.mat_mul(i3, i3, 3) == i3
        # an empty factor keeps the product's shape
        assert la.mat_mul([[], []], [], 3) == [[0, 0, 0], [0, 0, 0]]


# mostly zeros, as in the boundaries and propagators
sparse_entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 9))


@st.composite
def product_shapes(draw):
    """(out, a, b, s): an m x q starting matrix, not zero in general, an
    m x n and an n x q factor, and a scale; any of m, n, q may be 0, as for
    the zero-rank degrees of a complex."""
    m, n, q = (draw(st.integers(0, 5)) for _ in range(3))

    def matrix(rows, cols):
        return [draw(st.lists(sparse_entry, min_size=cols, max_size=cols)) for _ in range(rows)]

    return matrix(m, q), matrix(m, n), matrix(n, q), draw(st.integers(-4, 4))


class TestSubProduct:
    """The one product loop against the dense triple loop in tests/oracles.py."""

    @given(product_shapes())
    @settings(max_examples=300, deadline=None)
    def test_is_the_dense_product(self, case):
        out, a, b, s = case
        want = oracles.sub_product(out, a, b, s)
        listed_a, listed_b = la.nonzeros(a), la.nonzeros(b)
        assert all(v for row in listed_a + listed_b for _, v in row)
        before = [list(row) for row in listed_b]
        la.sub_product(out, listed_a, listed_b, s)
        assert out == want
        assert listed_b == before
