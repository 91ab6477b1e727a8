"""Graded complexes, propagators, duals, transport, split-edge bookkeeping."""

import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent import linalg as la
from trivalent import morse as M
from trivalent.graphs import validate

import complexes
import oracles


def pair_complex():
    """One generator in degree 1 mapped identically to one in degree 0."""
    return M.GradedComplex(
        (1, 1, 0, 0, 0), {1: [[1]], 2: [[]], 3: [], 4: []}
    )


def zero_complex():
    return M.GradedComplex((0, 0, 0, 0, 0), {1: [], 2: [], 3: [], 4: []})


class TestCheckComplex:
    def test_zero_complex_ok(self):
        M.check_complex(zero_complex())

    def test_single_pair_ok(self):
        M.check_complex(pair_complex())

    def test_nonzero_composite_rejected(self):
        c = M.GradedComplex(
            (1, 1, 1, 0, 0), {1: [[1]], 2: [[1]], 3: [[]], 4: []}
        )
        with pytest.raises(M.NotAComplexError) as e:
            M.check_complex(c)
        assert (e.value.degree, e.value.row, e.value.col, e.value.value) == (2, 0, 0, 1)

    def test_first_bad_entry_is_named(self):
        """∂∂ is nonzero at degrees 2 and 3, at several entries of each: the
        error names degree 2's first nonzero entry in row-major order, which
        is not the first in column-major order."""
        c = M.GradedComplex(
            (2, 2, 3, 1, 0),
            {
                1: [[1, 0], [0, 1]],
                2: [[0, 0, 7], [0, 5, 6]],  # ∂1∂2 = ∂2
                3: [[1], [1], [1]],  # ∂2∂3 = [[7], [11]]
                4: [[]],
            },
        )
        with pytest.raises(M.NotAComplexError) as e:
            M.check_complex(c)
        assert (e.value.degree, e.value.row, e.value.col, e.value.value) == (2, 0, 2, 7)

    def test_rows_before_the_bad_one_are_passed_over(self):
        """∂1's row 0 holds no nonzero and row 1's product row vanishes, so
        the first nonzero entry of ∂1∂2 is in row 2."""
        c = M.GradedComplex(
            (3, 2, 1, 0, 0),
            {1: [[0, 0], [1, -1], [0, 1]], 2: [[1], [1]], 3: [[]], 4: []},
        )
        with pytest.raises(M.NotAComplexError) as e:
            M.check_complex(c)
        assert (e.value.degree, e.value.row, e.value.col, e.value.value) == (2, 2, 0, 1)

    def test_shape_validation(self):
        with pytest.raises(M.MorseError):
            M.GradedComplex((1, 1, 0, 0, 0), {1: [[1, 1]], 2: [[]], 3: [], 4: []})
        with pytest.raises(M.MorseError):
            M.GradedComplex((1, 1, 0, 0), {1: [[1]], 2: [[]], 3: [], 4: []})

    def test_json_round_trip(self):
        c = pair_complex()
        assert M.GradedComplex.from_json(c.to_json()) == M.GradedComplex.from_json(
            c.to_json()
        )
        assert c.to_json() == M.GradedComplex.from_json(c.to_json()).to_json()


class TestPropagator:
    def test_single_pair(self):
        g = M.compute_propagator(pair_complex())
        assert g.g(0) == [[Fraction(1)]]
        assert M.contraction_identity_holds(pair_complex(), g)

    def test_invertible_block_inverts(self):
        # two generators in degrees 2 and 1 paired by an invertible matrix
        mat = [[2, 1], [1, 1]]
        c = M.GradedComplex(
            (0, 2, 2, 0, 0), {1: [], 2: mat, 3: [[], []], 4: []}
        )
        g = M.compute_propagator(c)
        # g_1 must be the exact inverse of the block
        assert g.g(1) == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]

    def test_torsion_pair_is_rationally_fine(self):
        c = M.GradedComplex((1, 1, 0, 0, 0), {1: [[2]], 2: [[]], 3: [], 4: []})
        g = M.compute_propagator(c)
        assert g.g(0) == [[Fraction(1, 2)]]

    def test_homology_detected_in_degree_zero(self):
        c = M.GradedComplex((1, 0, 0, 0, 0), {1: [[]], 2: [], 3: [], 4: []})
        with pytest.raises(M.NotAcyclicError) as e:
            M.compute_propagator(c)
        assert (e.value.degree, e.value.defect) == (0, 1)

    def test_homology_detected_at_top(self):
        c = M.GradedComplex((0, 0, 0, 0, 1), {1: [], 2: [], 3: [], 4: []})
        with pytest.raises(M.NotAcyclicError) as e:
            M.compute_propagator(c)
        assert (e.value.degree, e.value.defect) == (4, 1)

    @pytest.mark.parametrize("degree", [0, M.TOP_DEGREE])
    def test_wide_degree_fails_before_its_residual(self, degree):
        """A degree of rank 3,000 between two of rank 0 has homology, and the
        file spells out no entry of its boundaries: the error comes before
        a 3,000 x 3,000 residual is built."""
        ranks = [0] * (M.TOP_DEGREE + 1)
        ranks[degree] = 3000
        c = M.GradedComplex.from_json(
            {"ranks": ranks, "boundaries": {"1": [[]] * ranks[0], "2": [], "3": [], "4": []}}
        )
        tracemalloc.start()
        try:
            with pytest.raises(M.NotAcyclicError) as e:
                M.compute_propagator(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == f"homology at degree {degree} has dimension 3000"
        assert peak < 5_000_000

    def test_idempotents(self):
        c, _ = complexes.random_complex(7)
        g = M.compute_propagator(c)
        for d in range(M.TOP_DEGREE):
            dg = la.mat_mul(c.boundaries[d + 1], g.g(d), c.ranks[d])
            assert la.mat_mul(dg, dg, c.ranks[d]) == dg


def two_torsion_pairs():
    """A degree-1 generator hit twice by a degree-0 one and a degree-2 one
    hitting another degree-1 generator three times: g_0 has denominator 2
    and g_1 denominator 3."""
    return M.GradedComplex(
        (1, 2, 1, 0, 0), {1: [[2, 0]], 2: [[0], [3]], 3: [[]], 4: []}
    )


def _denominators(g):
    return [g.dens[d] for d in range(M.TOP_DEGREE)]


class TestIntegerIdentityCheck:
    """The contraction identity is tested as an integer zero test over the
    lcm of two denominators; it must still see a change of 1/7 anywhere."""

    @pytest.mark.parametrize(
        "c,dens",
        [(two_torsion_pairs(), [2, 3, 1, 1]), (complexes.random_complex(32)[0], [1, 4, 2, 3])],
    )
    def test_any_entry_off_by_a_seventh_fails(self, c, dens):
        g = M.compute_propagator(c)
        assert _denominators(g) == dens
        assert M.contraction_identity_holds(c, g)
        entries = [
            (d, i, j) for d in range(M.TOP_DEGREE) for i, row in enumerate(g.mats[d]) for j in range(len(row))
        ]
        assert entries
        for d, i, j in entries:
            # g_d + E_ij / 7 is (7 M + den E_ij) / (7 den)
            mats = dict(g.mats)
            mats[d] = [[7 * v for v in row] for row in g.mats[d]]
            mats[d][i][j] += g.dens[d]
            dens = {**g.dens, d: 7 * g.dens[d]}
            assert not M.contraction_identity_holds(c, M.Propagator(c.ranks, mats, dens)), (d, i, j)

    def test_products_are_of_integers(self, monkeypatch):
        """Every matrix product morse asks for, in the solve and in the
        check, is of integer matrices, and both factors come listed: rows
        of (column, nonzero int) pairs.  All of them run the one product
        loop: check_complex with scale -1, the residuals with a positive
        scale."""
        seen, scales = [], set()
        sub_product = la.sub_product

        def listed_ints(m):
            return all(type(j) is int and type(v) is int and v for row in m for j, v in row)

        def int_only_sub_product(out, a, b, s):
            dense = all(type(v) is int for row in out for v in row)
            seen.append(dense and listed_ints(a) and listed_ints(b))
            scales.add(s > 0)
            sub_product(out, a, b, s)

        monkeypatch.setattr(la, "sub_product", int_only_sub_product)
        monkeypatch.setattr(M, "sub_product", int_only_sub_product)
        for c in (two_torsion_pairs(), complexes.random_complex(22)[0], complexes.random_complex(32)[0]):
            g = M.compute_propagator(c)
            assert M.contraction_identity_holds(c, g)
            assert M.contraction_identity_holds(*M.dual_propagator(c, g))
        assert seen and all(seen)
        assert scales == {False, True}

    def test_solve_needs_no_fraction_rref(self, monkeypatch):
        """compute_propagator reads the integer elimination directly: with
        exact_rref unavailable it gives the same propagators and the same
        obstructions."""
        cases = [two_torsion_pairs(), pair_complex()]
        cases += [complexes.random_complex(seed)[0] for seed in (7, 22, 32)]
        cases += [complexes.random_complex(100 + i, homology=OBSTRUCTED_PROFILES[i])[0] for i in range(3)]

        def outcome(c):
            try:
                return M.compute_propagator(c).to_json()
            except M.NotAcyclicError as e:
                return e.degree, e.defect

        want = [outcome(c) for c in cases]

        def no_rref(rows):
            raise AssertionError("exact_rref was called")

        monkeypatch.setattr(la, "exact_rref", no_rref)
        assert [outcome(c) for c in cases] == want

    @pytest.mark.parametrize(
        "entry",
        [
            st.integers(-9, 9),
            st.fractions(min_value=-4, max_value=4, max_denominator=12),
            st.sampled_from((0, Fraction(0))),
        ],
        ids=["ints", "fractions", "zeros"],
    )
    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_over_lcm_is_the_fraction_reading(self, entry, rows, cols, data):
        """A matrix m of ints and Fractions (with int zeros among them, as
        in a solution), all-zero or empty, held as M = m * den over den,
        the lcm of every entry's denominator, is in least form (gcd of den
        and the entries is 1), and Propagator.g(d) reads it back as m, with
        a Fraction for each nonzero entry and the int 0 for a zero one."""
        values = st.one_of(st.just(0), entry)
        m = [data.draw(st.lists(values, min_size=cols, max_size=cols)) for _ in range(rows)]
        den = lcm(*(Fraction(v).denominator for row in m for v in row))
        big = [[int(Fraction(v) * den) for v in row] for row in m]
        assert all(Fraction(v) * den == w for row, brow in zip(m, big) for v, w in zip(row, brow))
        assert gcd(den, *(v for row in big for v in row)) == 1
        degrees = range(M.TOP_DEGREE)
        p = M.Propagator((rows,) * 5, {d: big for d in degrees}, {d: den for d in degrees})
        for d in degrees:
            got = p.g(d)
            assert got == m
            assert all(type(x) is (Fraction if x else int) for row in got for x in row)
        assert p.g(-1) == p.g(M.TOP_DEGREE) == []

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_mats_are_least_integer_forms(self, seed):
        """Every g_d a propagator or its dual holds is an int matrix of
        g_d's shape over an int den > 0 with gcd(den, entries) = 1, and
        g(d) reads it as Fractions with the int 0 for a zero entry."""
        c, _ = complexes.random_complex(seed)
        g = M.compute_propagator(c)
        for cx, p in ((c, g), M.dual_propagator(c, g)):
            for d in range(M.TOP_DEGREE):
                m, den = p.mats[d], p.dens[d]
                assert type(den) is int and den > 0
                assert len(m) == cx.ranks[d + 1]
                assert all(len(row) == cx.ranks[d] for row in m)
                assert all(type(v) is int for row in m for v in row)
                assert gcd(den, *(v for row in m for v in row)) == 1
                got = p.g(d)
                assert got == [[Fraction(v, den) for v in row] for row in m]
                assert all(type(x) is (Fraction if x else int) for row in got for x in row)

    def test_exact_kernel_makes_no_fraction(self, monkeypatch):
        """The solve, the dual and both identity checks run on integers
        alone: with Fraction unavailable to morse they still succeed."""

        def no_fraction(*args):
            raise AssertionError("a Fraction was made")

        monkeypatch.setattr(M, "Fraction", no_fraction)
        for c in [two_torsion_pairs()] + [complexes.random_complex(seed)[0] for seed in range(40)]:
            g = M.compute_propagator(c)
            assert M.contraction_identity_holds(c, g)
            assert M.contraction_identity_holds(*M.dual_propagator(c, g))


class TestListedOnce:
    """Each boundary and each g_d is turned into its nonzeros lists once per
    solve and once per check, however many products read it."""

    def test_each_matrix_is_listed_once_per_call(self, monkeypatch):
        c = complexes.random_complex(22)[0]
        counts = Counter()

        def counting_nonzeros(m):
            counts[id(m)] += 1
            return la.nonzeros(m)

        monkeypatch.setattr(M, "nonzeros", counting_nonzeros)
        g = M.compute_propagator(c)
        matrices = [c.boundaries[d] for d in range(1, M.TOP_DEGREE + 1)]
        matrices += [g.mats[d] for d in range(M.TOP_DEGREE)]
        assert all(matrices)
        once = Counter(map(id, matrices))
        assert len(once) == 2 * M.TOP_DEGREE
        assert counts == once
        counts.clear()
        assert M.contraction_identity_holds(c, g)
        assert counts == once


class TestRandomComplexes:
    def test_acyclic_sweep(self):
        for seed in range(60):
            c, hom = complexes.random_complex(seed)
            assert hom == (0, 0, 0, 0, 0)
            assert oracles.rational_homology_dims(
                c.ranks, {d: c.boundaries[d] for d in range(1, 5)}
            ) == [0, 0, 0, 0, 0]
            g = M.compute_propagator(c)
            assert M.contraction_identity_holds(c, g)

    def test_homological_sweep_matches_oracle(self):
        cases = [
            (100, (1, 0, 0, 0, 0)),
            (101, (0, 1, 0, 0, 0)),
            (102, (0, 0, 1, 0, 0)),
            (103, (0, 0, 0, 1, 0)),
            (104, (0, 0, 0, 0, 1)),
            (105, (0, 2, 0, 1, 0)),
            (106, (0, 0, 3, 0, 0)),
            (107, (1, 0, 1, 0, 1)),
        ]
        for seed, hom in cases:
            c, _ = complexes.random_complex(seed, homology=hom)
            dims = oracles.rational_homology_dims(
                c.ranks, {d: c.boundaries[d] for d in range(1, 5)}
            )
            assert tuple(dims) == hom
            with pytest.raises(M.NotAcyclicError) as e:
                M.compute_propagator(c)
            first = min(d for d, h in enumerate(hom) if h)
            assert e.value.degree == first
            assert e.value.defect == hom[first]

    def test_unimodular_helper(self):
        import random

        rng = random.Random(3)
        for n in (0, 1, 2, 5):
            u, uinv = complexes.random_unimodular(rng, n)
            assert complexes._imatmul(u, uinv) == [
                [int(i == j) for j in range(n)] for i in range(n)
            ]


# criterion 3's homology profiles, in its order
OBSTRUCTED_PROFILES = [
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 2, 0, 0, 0),
    (1, 0, 0, 0, 1),
    (0, 1, 0, 1, 0),
]


def test_propagator_golden_digest():
    """The exact bytes of every propagator, dual propagator and obstruction
    on criterion 3's 260 complexes, so a change of elimination that moves
    any free-variable choice or Fraction shows here."""
    cases = [complexes.random_complex(seed)[0] for seed in range(230)]
    cases += [
        complexes.random_complex(1000 + i, homology=OBSTRUCTED_PROFILES[i % 8])[0]
        for i in range(30)
    ]
    digest = hashlib.sha256()
    for c in cases:
        try:
            g = M.compute_propagator(c)
        except M.NotAcyclicError as e:
            digest.update(repr(("obs", e.degree, e.defect)).encode())
            continue
        digest.update(repr(g.to_json()).encode())
        digest.update(repr(M.dual_propagator(c, g)[1].to_json()).encode())
    assert digest.hexdigest() == (
        "975738f8e7b7324fd10ceebced6144b9dee2e017d9e6d82818cab788182aa91d"
    )


class TestDual:
    def test_single_pair_dual(self):
        c = pair_complex()
        g = M.compute_propagator(c)
        dc, dg = M.dual_propagator(c, g)
        assert dc.ranks == (0, 0, 0, 1, 1)
        assert dc.boundaries[4] == [[-1]]
        assert dg.g(3) == [[Fraction(-1)]]
        assert M.contraction_identity_holds(dc, dg)

    def test_involution(self):
        c, _ = complexes.random_complex(21)
        g = M.compute_propagator(c)
        dc, dg = M.dual_propagator(c, g)
        ddc, ddg = M.dual_propagator(dc, dg)
        assert ddc == M.GradedComplex(c.ranks, c.boundaries)
        assert (ddg.mats, ddg.dens) == (g.mats, g.dens)

    def test_random_duals_contract(self):
        for seed in range(200, 230):
            c, _ = complexes.random_complex(seed)
            g = M.compute_propagator(c)
            dc, dg = M.dual_propagator(c, g)
            M.check_complex(dc)
            assert M.contraction_identity_holds(dc, dg)


def ref(d, i):
    return M.BasisRef(d, i)


class TestTransport:
    def test_empty_is_identity(self):
        out = M.transport([], (2, 1, 0, 0, 0))
        assert out[0] == [[1, 0], [0, 1]]
        assert out[1] == [[1]]

    def test_single_event(self):
        ev = M.HandleSlideEvent(ref(0, 0), ref(0, 1), 1)
        out = M.transport([ev], (2, 0, 0, 0, 0))
        assert out[0] == [[1, 0], [1, 1]]

    def test_event_then_inverse_cancels(self):
        a = M.HandleSlideEvent(ref(1, 0), ref(1, 1), 1)
        b = M.HandleSlideEvent(ref(1, 0), ref(1, 1), -1)
        out = M.transport([a, b], (0, 2, 0, 0, 0))
        assert out[1] == [[1, 0], [0, 1]]

    def test_order_matters(self):
        a = M.HandleSlideEvent(ref(0, 0), ref(0, 1), 1)
        b = M.HandleSlideEvent(ref(0, 1), ref(0, 0), 1)
        ab = M.transport([a, b], (2, 0, 0, 0, 0))
        ba = M.transport([b, a], (2, 0, 0, 0, 0))
        assert ab != ba

    def test_determinant_is_one(self):
        events = [
            M.HandleSlideEvent(ref(0, 0), ref(0, 1), 1),
            M.HandleSlideEvent(ref(0, 2), ref(0, 0), -1),
            M.HandleSlideEvent(ref(0, 1), ref(0, 2), 1),
        ]
        phi = M.transport(events, (3, 0, 0, 0, 0))[0]
        det = (
            phi[0][0] * (phi[1][1] * phi[2][2] - phi[1][2] * phi[2][1])
            - phi[0][1] * (phi[1][0] * phi[2][2] - phi[1][2] * phi[2][0])
            + phi[0][2] * (phi[1][0] * phi[2][1] - phi[1][1] * phi[2][0])
        )
        assert det == 1

    def test_rejects_same_element(self):
        with pytest.raises(M.MorseError):
            M.HandleSlideEvent(ref(0, 0), ref(0, 0), 1)

    def test_rejects_mixed_degrees(self):
        with pytest.raises(M.MorseError):
            M.HandleSlideEvent(ref(0, 0), ref(1, 0), 1)


def k4():
    return validate(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestSplitClose:
    def test_split_none(self):
        c = M.split_edges(k4(), [], {})
        assert c.num_white == 0
        assert M.close(c) == k4()

    def test_round_trip_all_subsets(self):
        g = k4()
        import itertools

        for size in range(len(g.edges) + 1):
            for subset in itertools.combinations(range(len(g.edges)), size):
                decs = {i: (ref(1, 0), ref(0, 0)) for i in subset}
                c = M.split_edges(g, subset, decs)
                assert c.num_white == 2 * size
                assert M.close(c) == g

    def test_split_all_edges(self):
        g = k4()
        decs = {i: (ref(2, 0), ref(1, 0)) for i in range(6)}
        c = M.split_edges(g, range(6), decs)
        assert c.num_white == 12
        assert c.num_black == 4
        assert M.close(c) == g

    def test_edge_degrees(self):
        g = k4()
        c = M.split_edges(g, [0, 1], {0: (ref(3, 0), ref(1, 0)), 1: (ref(2, 0), ref(2, 0))})
        assert c.edge_degree(0) == 2
        assert c.edge_degree(1) == 0
        assert c.edge_degree(5) == 1

    def test_invalid_decorations(self):
        g = k4()
        with pytest.raises(M.InvalidDecorationError):
            M.split_edges(g, [9], {9: (ref(1, 0), ref(0, 0))})
        with pytest.raises(M.InvalidDecorationError):
            M.split_edges(g, [0], {})
        with pytest.raises(M.InvalidDecorationError):
            M.split_edges(g, [0], {0: (ref(1, 0), ref(0, 0)), 1: (ref(1, 0), ref(0, 0))})
        with pytest.raises(M.InvalidDecorationError):
            M.BasisRef(5, 0)


class TestTrace:
    def test_no_split_edges(self):
        coeff, closed = M.trace_tr_g({}, M.split_edges(k4(), [], {}))
        assert coeff == 1
        assert closed == k4()

    def test_single_edge_sign(self):
        g = M.compute_propagator(pair_complex())
        c = M.split_edges(k4(), [0], {0: (ref(1, 0), ref(0, 0))})
        coeff, closed = M.trace_tr_g({0: g}, c)
        assert coeff == -1  # g(q) = p contributes a bare minus
        assert closed == k4()

    def test_two_edges_multiply(self):
        c1 = M.GradedComplex((1, 1, 0, 0, 0), {1: [[2]], 2: [[]], 3: [], 4: []})
        c2 = M.GradedComplex((1, 1, 0, 0, 0), {1: [[3]], 2: [[]], 3: [], 4: []})
        g1, g2 = M.compute_propagator(c1), M.compute_propagator(c2)
        c = M.split_edges(
            k4(), [0, 4], {0: (ref(1, 0), ref(0, 0)), 4: (ref(1, 0), ref(0, 0))}
        )
        coeff, _ = M.trace_tr_g({0: g1, 4: g2}, c)
        assert coeff == Fraction(-1, 2) * Fraction(-1, 3)

    def test_degree_mismatch(self):
        g = M.compute_propagator(pair_complex())
        c = M.split_edges(k4(), [0], {0: (ref(2, 0), ref(0, 0))})
        with pytest.raises(M.DegreeMismatchError):
            M.trace_tr_g({0: g}, c)

    def test_missing_propagator(self):
        c = M.split_edges(k4(), [0], {0: (ref(1, 0), ref(0, 0))})
        with pytest.raises(M.InvalidDecorationError):
            M.trace_tr_g({}, c)

    def test_out_of_range_position(self):
        g = M.compute_propagator(pair_complex())
        c = M.split_edges(k4(), [0], {0: (ref(1, 5), ref(0, 0))})
        with pytest.raises(M.InvalidDecorationError):
            M.trace_tr_g({0: g}, c)


class TestSurvivingIndices:
    def test_counts(self):
        assert len(M.surviving_indices(M.TYPE_I)) == 11
        assert len(M.surviving_indices(M.TYPE_II)) == 11

    def test_type_one_list(self):
        expect = {
            ((2, 3, 3), ()),
            ((), (0, 2, 2)),
            ((), (1, 1, 2)),
            ((1, 3), (0,)),
            ((2, 2), (0,)),
            ((2, 3), (1,)),
            ((3, 3), (2,)),
            ((1,), (0, 1)),
            ((2,), (0, 2)),
            ((2,), (1, 1)),
            ((3,), (1, 2)),
        }
        assert set(M.surviving_indices(M.TYPE_I)) == expect

    def test_type_two_list(self):
        expect = {
            ((1, 3, 3), ()),
            ((2, 2, 3), ()),
            ((), (1, 2, 2)),
            ((1, 2), (0,)),
            ((1, 3), (1,)),
            ((2, 2), (1,)),
            ((2, 3), (2,)),
            ((1,), (0, 2)),
            ((1,), (1, 1)),
            ((2,), (1, 2)),
            ((3,), (2, 2)),
        }
        assert set(M.surviving_indices(M.TYPE_II)) == expect

    def test_brute_force_scan(self):
        # independent enumeration over all sorted 3-part splits
        import itertools

        for vt, target in ((M.TYPE_I, 4), (M.TYPE_II, 5)):
            found = set()
            for n_in in range(4):
                for ins in itertools.combinations_with_replacement((1, 2, 3), n_in):
                    for outs in itertools.combinations_with_replacement(
                        (0, 1, 2), 3 - n_in
                    ):
                        if sum(4 - a for a in ins) + sum(outs) == target:
                            found.add((ins, outs))
            assert set(M.surviving_indices(vt)) == found

    def test_lists_disjoint(self):
        assert not set(M.surviving_indices(M.TYPE_I)) & set(
            M.surviving_indices(M.TYPE_II)
        )

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            M.surviving_indices("III")
