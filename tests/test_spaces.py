"""Enumeration, relation rows, dimensions, and quotient normal forms."""

import hashlib
import itertools
import json
import os
import random
import stat
import sys
import zlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent import cache as cache_module
from trivalent import canon
from trivalent import classes as C
from trivalent import graphs as G
from trivalent import spaces as S
from trivalent.cache import KINDS, Cache
from trivalent.linalg import (
    as_dicts,
    exact_rref,
    kernel_vectors,
    peel_singletons,
    reduce_vector,
    vanishes_on,
)
from trivalent.hubs import _canonical_hub
from trivalent.spaces import GraphSpace, classify, enumerate_graphs

import oracles


def space(k):
    return GraphSpace(k)


def labelled(graphs):
    """Each graph with a fresh canonical labelling, as classify takes them."""
    return [(g, canon.canonicalize(g.num_vertices, g.edges)) for g in graphs]


def _sites(edges):
    """The digons, as their two vertices, and the loops, as their vertex."""
    mult = Counter(edges)
    return [p for p, m in mult.items() if m == 2] + [(u,) for u, v in mult if u == v]


# the classes at k <= 4 with two or more digons or two or more loops
_MANY_SITES = [
    g
    for k in (2, 3, 4)
    for g in enumerate_graphs(k)
    if max(Counter(len(site) for site in _sites(g.edges)).values(), default=0) >= 2
]


def _is_simple(g):
    return all(u != v for u, v in g.edges) and not G.has_parallel_edge(g)


# the simple classes at k <= 5; one of the 19 at k = 5 has a bridge
_SIMPLE = [g for k in (2, 3, 4, 5) for g in enumerate_graphs(k) if _is_simple(g)]


# a simple graph at k = 7 whose only edge with the largest _layer_profile
# is a bridge
_TOP_BRIDGE_K7 = [
    (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (4, 5), (1, 5), (4, 6), (5, 6), (7, 8),
    (8, 9), (7, 9), (6, 10), (10, 11), (7, 11), (8, 12), (9, 12), (10, 13), (11, 13), (12, 13),
]


def _without(edges, i):
    return edges[:i] + edges[i + 1 :]


def _reduce_edge(g, i):
    """The cubic graph left by deleting edge i, x - y, of a simple graph and
    joining the other two neighbours of x, and those of y, relabelled onto
    0..n-3 with each pair low end first."""
    x, y = g.edges[i]
    rest = _without(g.edges, i)
    joined = [tuple(a + b - z for a, b in rest if z in (a, b)) for z in (x, y)]
    kept = [e for e in rest if x not in e and y not in e] + joined
    label = {v: j for j, v in enumerate(v for v in range(g.num_vertices) if v not in (x, y))}
    return G.validate(g.num_vertices - 2, [tuple(sorted((label[a], label[b]))) for a, b in kept])


class TestEnumeration:
    def test_k1_classes(self):
        keys, zeros, _ = classify(labelled(enumerate_graphs(1)))
        assert keys == ()
        theta = G.validate(2, [(0, 1), (0, 1), (0, 1)])
        dumbbell = G.validate(2, [(0, 0), (0, 1), (1, 1)])
        assert zeros == {G.reduce(theta).key, G.reduce(dumbbell).key}

    @pytest.mark.parametrize("k,count", [(1, 2), (2, 5), (3, 17), (4, 71)])
    def test_class_counts(self, k, count):
        assert space(k).num_classes == count

    def test_representatives_are_valid_and_distinct(self):
        sp = space(3)
        keys = [G.reduce(g).key for g in sp.basis]
        assert len(set(keys)) == len(keys)
        for g in sp.basis:
            G.validate(g.num_vertices, g.edges)

    def test_classify_canonicalizes_each_graph_once(self, monkeypatch):
        """classify reads each class off the labelling paired with its
        graph and computes none of its own, so a graph is canonicalized
        once, where its pair is built."""
        graphs = enumerate_graphs(4)
        expected = {r.key for r in map(G.reduce, graphs) if not r.is_zero}
        calls = []
        canonicalize = G.canonicalize

        def counted(n, edges):
            calls.append(n)
            return canonicalize(n, edges)

        monkeypatch.setattr(C, "canonicalize", counted)
        monkeypatch.setattr(G, "canonicalize", counted)
        keys, _, _ = classify((g, counted(g.num_vertices, g.edges)) for g in graphs)
        assert len(calls) == len(graphs)
        assert keys == tuple(sorted(expected))

    @pytest.mark.parametrize("k,count", [(1, 2), (2, 5), (3, 17), (4, 71), (5, 388)])
    def test_one_valid_graph_per_class(self, k, count):
        """The enumerator builds its graphs without validate: each one is
        valid, and it yields exactly one graph per class."""
        graphs = enumerate_graphs(k)
        assert len(graphs) == space(k).num_classes == count
        assert len({G.reduce(g).key for g in graphs}) == count
        for g in graphs:
            assert G.validate(g.num_vertices, g.edges) == g

    def test_canonicalize_calls_pin_the_search(self, monkeypatch):
        """One canonicalize call each for the dumbbell and the theta graph
        at k=1; at k >= 2, the whole enumeration at k-1, then one per
        insertion candidate that passes its score filter: a digon or a
        lollipop on one edge per edge orbit of a class at k-1, and an edge
        joining two distinct edges, one pair per pair orbit of a class
        with no loop, where the result is simple.  So the counts pin the
        candidates canonicalized, not only the output."""
        calls = []
        canonicalize = C.canonicalize

        def counted(n, edges):
            calls.append(n)
            return canonicalize(n, edges)

        monkeypatch.setattr(C, "canonicalize", counted)
        counts = []
        for k in range(1, 6):
            calls.clear()
            enumerate_graphs(k)
            counts.append(len(calls))
        assert counts == [2, 7, 24, 98, 493]

    @pytest.mark.parametrize("k,count", [(1, 0), (2, 1), (3, 2), (4, 5), (5, 19), (6, 85)])
    def test_search_lists_the_simple_cubic_graphs(self, k, count):
        """The listing yields each connected simple cubic graph on 2k
        vertices once: OEIS A002851 counts 0, 1, 2, 5, 19, 85 of them."""
        finals = [g for g, _ in C.labelled_graphs(k) if _is_simple(g)]
        assert len(finals) == count
        assert len({G.reduce(g).key for g in finals}) == count
        for g in finals:
            assert G.validate(g.num_vertices, g.edges) == g

    @pytest.mark.parametrize("k", range(1, 7))
    def test_simple_classes_match_the_search(self, k):
        """The simple classes of the listing are those the partial-state
        search (oracles.simple_search_finals) finds."""
        keys = {G.reduce(g, res).key for g, res in C.labelled_graphs(k) if _is_simple(g)}
        assert keys == {G.reduce(g).key for g in oracles.simple_search_finals(k)}

    @pytest.mark.parametrize("k", range(2, 6))
    def test_edge_insertions_reach_every_simple_class(self, k):
        """One pair per pair orbit, the classes with a loop skipped and the
        score filter lose no class: the insertion pass yields, once each,
        the classes of every simple edge insertion candidate."""
        keys = [G.reduce(g).key for g, _ in C.labelled_graphs(k) if _is_simple(g)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == oracles.edge_insertion_classes(enumerate_graphs(k - 1))

    def test_a_bridge_with_the_top_profile_hides_no_class(self):
        """At k=7 one simple graph has a bridge whose profile beats every
        other edge's.  The score filter passes over bridges, so the edge
        insertions into the graph left by reducing its best other edge
        still yield its class."""
        g = G.validate(14, _TOP_BRIDGE_K7)
        adj = G._adjacency(14, g.edges)
        profiles = [C._layer_profile(adj, e) for e in g.edges]
        cycle = [i for i in range(len(g.edges)) if G._connected(14, _without(g.edges, i))]
        assert max(profiles) > max(profiles[i] for i in cycle)
        best = max(cycle, key=profiles.__getitem__)
        h = _reduce_edge(g, best)
        res = G.canonicalize(h.num_vertices, h.edges)
        keys = {
            G.reduce(G.LabelledTrivalentGraph(14, edges)).key
            for edges in C._edge_candidates(h, res, 14)
        }
        assert G.reduce(g).key in keys

    @pytest.mark.parametrize("k", range(2, 6))
    def test_insertions_reach_every_candidate_class(self, k):
        """One edge per orbit, lollipops with a parallel pair dropped and
        the score filter lose no class: the insertion pass yields, once
        each, the classes of every digon and lollipop candidate, besides
        the simple classes of its edge insertions."""
        keys = [G.reduce(g).key for g, _ in C.labelled_graphs(k) if not _is_simple(g)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == oracles.insertion_classes(enumerate_graphs(k - 1))

    @pytest.mark.parametrize("k", range(1, 5))
    def test_orbit_walker_takes_the_first_of_each_orbit(self, k):
        """On the edges and on the pairs of distinct edges of each class,
        with the generators of its labelling, the walker gives the label of
        the first item of each orbit of the whole group, in input order."""

        def image(phi, item):
            return tuple(sorted(tuple(sorted((phi[a], phi[b]))) for a, b in item))

        for h, res in C.labelled_graphs(k):
            group = canon.close_group(h.num_vertices, res.aut_generators)
            edges = [(i, (e,)) for i, e in enumerate(h.edges)]
            pairs = [
                ((i, j), tuple(sorted((p, q))))
                for (i, p), (j, q) in itertools.combinations(enumerate(h.edges), 2)
            ]
            for items in (edges, pairs):
                orbits, firsts = set(), []
                for label, item in items:
                    orbit = frozenset(image(phi, item) for phi in group)
                    if orbit not in orbits:
                        orbits.add(orbit)
                        firsts.append(label)
                assert G._orbits(items, res.aut_generators) == firsts

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_site_profiles_survive_relabelling(self, data):
        """The score of each digon and each loop is an isomorphism
        invariant: relabelling the graph and the site alike keeps it."""
        g = data.draw(st.sampled_from(_MANY_SITES))
        perm = data.draw(st.permutations(range(g.num_vertices)))
        h = [(perm[u], perm[v]) for u, v in g.edges]
        for site in _sites(g.edges):
            image = tuple(perm[x] for x in site)
            assert C._layer_profile(G._adjacency(g.num_vertices, g.edges), site) == (
                C._layer_profile(G._adjacency(g.num_vertices, h), image)
            )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edge_scores_survive_relabelling(self, data):
        """The score of each edge of a simple graph, its profile from its
        two ends and whether it is a bridge, is an isomorphism invariant:
        relabelling the graph and the edge alike keeps it."""
        g = data.draw(st.sampled_from(_SIMPLE))
        n = g.num_vertices
        perm = data.draw(st.permutations(range(n)))
        h = [(perm[u], perm[v]) for u, v in g.edges]
        for i, (a, b) in enumerate(g.edges):
            assert C._layer_profile(G._adjacency(n, g.edges), (a, b)) == (
                C._layer_profile(G._adjacency(n, h), h[i])
            )
            assert G._connected(n, g.edges[:i] + g.edges[i + 1 :]) == (
                G._connected(n, h[:i] + h[i + 1 :])
            )

    @pytest.mark.parametrize("k", range(1, 6))
    def test_space_classes_match_classify(self, k):
        """The build classifies from the enumerator's own labellings; the
        classes are those of classify over fresh labellings of
        enumerate_graphs(k)."""
        keys, zeros, _ = classify(labelled(enumerate_graphs(k)))
        sp = space(k)
        assert sp.keys == keys
        assert sp.zero_keys == zeros

    @pytest.mark.parametrize("k", range(1, 5))
    def test_given_labelling_reduces_as_a_fresh_one(self, k):
        """reduce reads the same class off the labelling the enumerator
        computed as off one of its own."""
        for g, res in C.labelled_graphs(k):
            assert G.reduce(g, res) == G.reduce(g)

    @pytest.mark.parametrize("k,matchings", [(1, 15), (2, 10395)])
    def test_matches_stub_matching_sweep(self, k, matchings):
        """Completeness oracle: classes found by pairing stubs directly."""
        seen = set()
        total = 0
        for m in oracles.stub_matchings(k):
            total += 1
            if oracles.is_connected(2 * k, m):
                seen.add(G.reduce(G.validate(2 * k, m)).key)
        assert total == matchings
        sp = space(k)
        ours = {G.reduce(g).key for g in sp.basis} | set(sp.zero_keys)
        assert ours == seen


@pytest.mark.parametrize(
    "k,mass",
    [
        (1, Fraction(5, 24)),
        (2, Fraction(5, 16)),
        (3, Fraction(1105, 1152)),
        (4, Fraction(565, 128)),
        (5, Fraction(82825, 3072)),
        (6, Fraction(19675, 96)),
        (7, Fraction(1282031525, 688128)),
    ],
)
def test_listing_has_the_configuration_mass(k, mass, request):
    """The listing's classes, each weighed by its |Aut_v| from
    automorphisms, sum to the configuration model's total.  Every term is
    positive, so a class missing or listed twice, or a wrong |Aut_v|,
    moves the sum.  The k=7 listing is the one the digest test reads."""
    listing = request.getfixturevalue("classes7") if k == 7 else C.labelled_graphs(k)
    total = sum(oracles.class_mass(g, G.automorphisms(g, res)[3]) for g, res in listing)
    assert total == oracles.configuration_mass(k) == mass


@pytest.mark.parametrize("k", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_listing_has_the_burnside_counts(k, request):
    """The classes and the signed ones, and the simple ones among each,
    number what the sign-twisted Burnside sum counts with no listing.  A
    class put on the wrong side of the signed/zero split moves the signed
    counts.  The k=7 space classifies the shared listing, and k=8 is
    space8, shared with the other slow tests."""
    sp = cold_space(k, request)
    simple = set()
    for key in (*sp.keys, *sp.zero_keys):
        g = G.graph_of_key(key)
        if all(u != v for u, v in g.edges) and not G.has_parallel_edge(g):
            simple.add(key)
    counts = [sp.num_classes, len(sp.keys), len(simple), len(simple.intersection(sp.keys))]
    assert counts == [
        oracles.burnside_count(k, simple=s, signed=t)
        for s, t in ((False, False), (False, True), (True, False), (True, True))
    ]


class TestClassVector:
    def test_zero_class(self):
        sp = space(1)
        assert sp.class_vector(G.validate(2, [(0, 1), (0, 1), (0, 1)])) == {}

    def test_signed_class(self):
        sp = space(2)
        k4 = G.validate(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        vec = sp.class_vector(k4)
        assert len(vec) == 1
        ((i, s),) = vec.items()
        assert s in (1, -1)
        swapped = G.validate(4, (k4.edges[1], k4.edges[0]) + k4.edges[2:])
        assert sp.class_vector(swapped) == {i: -s}

    def test_wrong_k_rejected(self):
        with pytest.raises(ValueError):
            space(2).class_vector(G.validate(2, [(0, 1), (0, 1), (0, 1)]))

    def test_parallel_edge_is_zero_without_reduce(self, monkeypatch):
        sp = space(2)
        g = G.validate(4, [(0, 1), (2, 3), (0, 2), (1, 3), (3, 2), (0, 1)])

        def fail(g):
            raise AssertionError("reduce called")

        monkeypatch.setattr(S, "reduce", fail)
        assert sp.class_vector(g) == {}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_parallel_edge_classes_reduce_to_zero(self, k):
        graphs = enumerate_graphs(k)
        parallel = [g for g in graphs if G.has_parallel_edge(g)]
        assert 0 < len(parallel) < len(graphs)
        for g in parallel:
            assert G.reduce(g).is_zero


class TestDimensions:
    @pytest.mark.parametrize("k,dim", [(1, 0), (2, 1), (3, 0), (4, 0)])
    def test_small_k(self, k, dim):
        sp = space(k)
        assert sp.dimension() == dim
        assert sp.exact_dimension() == dim

    def test_k5(self):
        sp = space(5)
        assert sp.dimension() == sp.exact_dimension() == 1

    @pytest.mark.parametrize("k,peeled,left", [(3, 2, 0), (4, 4, 0), (5, 32, 8)])
    def test_singleton_peel(self, k, peeled, left):
        """The columns the peel resolves and the rows it leaves to the
        per-prime eliminations."""
        got, rest = peel_singletons(space(k).relation_rows())
        assert (len(got), len(rest)) == (peeled, left)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_peel_matches_the_reference(self, k, request):
        """The peel of the relation rows at k=1..7 is the reference dict
        peel's (oracles.peel_singletons); k=6 and k=7 read the shared
        spaces."""
        rows = cold_space(k, request).relation_rows()
        oracles.assert_same_peel(peel_singletons(rows), rows)

    def test_module_function(self):
        assert S.dimension(2) == 1


def weight_systems(sp):
    """The kernel vectors dimension() counts: integer functionals on the
    basis that vanish on every relation row."""
    return kernel_vectors(len(sp.keys), peel_singletons(sp.relation_rows()))


class TestCertificate:
    """dimension() returns d only when d checked kernel vectors meet
    n - len(peeled) - rank mod p of the rows the peel leaves; both bounds
    can fail."""

    K5 = {25: -1, 27: 2, 28: 2, 29: -1, 30: 1}

    def test_k5_functional(self):
        assert weight_systems(space(5)) == [self.K5]

    def test_one_entry_changed_fails_the_row_check(self):
        """Adding 1 at any column breaks the k=5 functional: every column
        meets a relation row.  (Scaling would not do: the k=2 functional
        has support 1.)"""
        sp = space(5)
        rows = sp.relation_rows()
        assert vanishes_on(rows, self.K5)
        for c in range(len(sp.keys)):
            assert not vanishes_on(rows, {**self.K5, c: self.K5.get(c, 0) + 1}), c

    @pytest.mark.parametrize("off", [1, -1])
    def test_modular_rank_off_by_one_is_refused(self, monkeypatch, off):
        rank = S.rank_mod_p
        monkeypatch.setattr(S, "rank_mod_p", lambda *a: rank(*a) + off)
        with pytest.raises(S.PrimeDisagreementError, match="bounds do not meet"):
            space(2).dimension()

    @pytest.mark.parametrize("k,dim", [(1, 0), (2, 1), (3, 0), (4, 0), (5, 1), (6, 0)])
    def test_small_primes_keep_every_dimension(self, k, dim, monkeypatch, request):
        """The upper bound holds at every p, also where p divides a peeled
        entry, as 2 does at k=5 and 6: with 2 and 3 tried first, every
        dimension is the one the large primes prove, and 2 closes it."""
        sp = cold_space(k, request)
        peeled, _ = peel_singletons(sp.relation_rows())
        assert any(v % 2 == 0 for v in peeled.values()) == (k >= 5)
        tried = []
        rank = S.rank_mod_p
        monkeypatch.setattr(S, "PRIMES", (2, 3, *S.PRIMES))
        monkeypatch.setattr(S, "rank_mod_p", lambda rows, p: tried.append(p) or rank(rows, p))
        assert sp.dimension() == dim
        assert tried == [2]

    def test_failed_functional_is_refused(self, monkeypatch):
        monkeypatch.setattr(S, "vanishes_on", lambda rows, w: False)
        with pytest.raises(S.PrimeDisagreementError, match="at least 0, at most 1 mod"):
            space(2).dimension()

    def test_later_prime_closes(self, monkeypatch):
        """A first prime whose rank is short does not decide: the next one
        in PRIMES closes the bounds."""
        rank = S.rank_mod_p
        monkeypatch.setattr(S, "rank_mod_p", lambda rows, p: rank(rows, p) - (p == S.PRIMES[0]))
        assert space(5).dimension() == 1

    def test_kernel_vectors_out_of_echelon_form_are_refused(self, monkeypatch):
        """The k=2 vector twice vanishes on every row, but the two are not
        independent: the certificate refuses them before any bound."""
        vectors = S.kernel_vectors
        monkeypatch.setattr(S, "kernel_vectors", lambda n, peel: vectors(n, peel) * 2)
        with pytest.raises(S.PrimeDisagreementError, match="not in echelon form"):
            space(2).dimension()
        with pytest.raises(S.PrimeDisagreementError, match="not in echelon form"):
            space(2).normal_form({})

    def test_cold_build_proves_once(self, tmp_path, monkeypatch):
        """A cold dimension() then normal_form run the proof once, and the
        rref file holds what it proved; a reopened space proves its
        dimension from the rows again, and reads W for normal forms."""
        calls = []
        vectors = S.kernel_vectors

        def counted(n, peel):
            calls.append(n)
            return vectors(n, peel)

        monkeypatch.setattr(S, "kernel_vectors", counted)
        cold = GraphSpace(5, Cache(tmp_path))
        assert (cold.dimension(), cold.normal_form({30: 1}), len(calls)) == (1, {30: 1}, 1)
        assert Cache(tmp_path).load(5, "rref", len(cold.keys)) == (len(cold.keys), [self.K5])
        warm = GraphSpace(5, Cache(tmp_path))
        assert (warm.normal_form({25: 1}), len(calls)) == ({30: -1}, 1)
        assert (warm.dimension(), len(calls)) == (1, 2)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_survival(self, k):
        """"This class survives", two ways: some functional is nonzero at
        basis index i exactly when e_i has a nonzero residual against the
        exact rref of the relation rows."""
        sp = space(k)
        ws = weight_systems(sp)
        piv = exact_rref(as_dicts(sp.relation_rows()))
        for i in range(len(sp.keys)):
            assert any(w.get(i) for w in ws) == (reduce_vector({i: 1}, piv) != {}), i


@pytest.mark.parametrize("k", range(1, 7))
def test_normal_form_is_the_rref_residual(k, request):
    """A second path for normal forms: read off the weight systems, they
    equal the residual against the exact rref of the relation rows on every
    basis class, every relation row and 200 seeded random integer
    vectors."""
    sp = cold_space(k, request)
    rows, n = as_dicts(sp.relation_rows()), len(sp.keys)
    piv = exact_rref(rows)
    rng = random.Random(k)
    randoms = [
        {rng.randrange(n): rng.randint(-9, 9) for _ in range(rng.randint(1, 6))} if n else {}
        for _ in range(200)
    ]
    for v in [*({i: 1} for i in range(n)), *rows, *randoms]:
        assert sp.normal_form(v) == reduce_vector(v, piv), v


class TestNormalForm:
    def test_kills_relation_rows(self):
        for k in (2, 3):
            sp = space(k)
            for row in as_dicts(sp.relation_rows()):
                assert sp.normal_form(row) == {}

    def test_idempotent_and_linear(self):
        sp = space(3)
        vecs = [{i: 1} for i in range(len(sp.basis))]
        for v in vecs:
            nf = sp.normal_form(v)
            assert sp.normal_form(nf) == nf
        a, b = vecs[0], vecs[-1]
        combo = dict(a)
        for c, val in b.items():
            combo[c] = combo.get(c, 0) + 3 * val
        nf_combo = sp.normal_form(combo)
        expect = {}
        for c, val in sp.normal_form(a).items():
            expect[c] = expect.get(c, 0) + val
        for c, val in sp.normal_form(b).items():
            expect[c] = expect.get(c, 0) + 3 * val
        assert nf_combo == {c: v for c, v in expect.items() if v}

    def test_loop_classes_vanish_at_k2(self):
        """No special-casing of loops anywhere: the triple relation alone
        sends every loop-bearing class at k=2 to zero."""
        sp = space(2)
        for g in sp.basis:
            has_loop = any(u == v for u, v in g.edges)
            nf = sp.reduce_graph(g)
            if has_loop:
                assert nf == {}
            else:
                assert nf != {}

    def test_k4_survives(self):
        sp = space(2)
        k4 = G.validate(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert sp.reduce_graph(k4) != {}


class TestBasisKeys:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_keys_are_reduced_keys_in_increasing_order(self, k, tmp_path, monkeypatch):
        cache = Cache(tmp_path)
        built = GraphSpace(k, cache)
        built.basis
        reopened = GraphSpace(k, cache)
        monkeypatch.setattr(
            "trivalent.spaces.labelled_graphs", lambda k: pytest.fail("reopen rebuilt")
        )
        for sp in (built, reopened):
            assert sp.keys == tuple(G.reduce(b).key for b in sp.basis)
            assert all(a < b for a, b in zip(sp.keys, sp.keys[1:]))


class TestRelationRows:
    @pytest.mark.parametrize(
        "k", [*range(1, 7), *(pytest.param(k, marks=pytest.mark.slow) for k in (7, 8))]
    )
    def test_rows_are_expansion_rows_of_each_hub(self, k, request):
        """Row for row, entries in column order: oracles.expansion_row
        (three reduces per hub) on each canonical hub in first-reach order,
        zero rows dropped.  k=6 (1,181 rows) takes about 4 s on the shared
        space6; k=7 (12,759 rows) about 50 s with its listing, so -m slow;
        k=8 (156,932 rows from 250,307 hubs) about 5 minutes beyond the
        shared space8.  Every hub is checked: a sample that held each hub
        with a nontrivial automorphism group would hold most of them (96%
        at k=7), as a loop's flip is one.  A hub is remembered by its key,
        much smaller than its edge tuple."""
        sp = cold_space(k, request)
        expected = []
        seen = set()
        for g in sp.basis:
            for e, (u, v) in enumerate(g.edges):
                if u == v:
                    continue
                four = _canonical_hub(G.contract_edge(g, e))[0]
                key = G.canonical_key(four.num_vertices, four.edges)
                if key not in seen:
                    seen.add(key)
                    row = oracles.expansion_row(sp, four)
                    if row:
                        expected.append(sorted(row.items()))
        assert [list(zip(*row)) for row in sp.relation_rows()] == expected

    def test_cold_build_canonicalize_calls(self, monkeypatch):
        """The enumerator's calls (the insertion candidates, as pinned
        above) and one per contraction, one edge per edge orbit of each
        basis graph: no splitting is reduced, and a basis classified in the
        build is not classified again."""
        calls = []
        canonicalize = C.canonicalize

        def counted(n, edges):
            calls.append(n)
            return canonicalize(n, edges)

        for name, module in list(sys.modules.items()):
            if name.startswith("trivalent") and getattr(module, "canonicalize", 0) is canonicalize:
                monkeypatch.setattr(module, "canonicalize", counted)
        counts = []
        for k in range(1, 6):
            calls.clear()
            GraphSpace(k).relation_rows()
            counts.append(len(calls))
        assert counts == [2, 9, 29, 123, 783]

    def test_deterministic(self):
        a = GraphSpace(3).relation_rows()
        b = GraphSpace(3).relation_rows()
        assert a == b

    def test_integer_entries(self):
        """Each row is a (cols, vals) pair of int lists, the columns
        increasing strictly and no value zero."""
        for cols, vals in space(4).relation_rows():
            assert len(cols) == len(vals)
            assert all(type(x) is int for x in (*cols, *vals))
            assert all(a < b for a, b in zip(cols, cols[1:])) and 0 not in vals

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tagging_saturation(self, k):
        """Rows built from any stub ordering of a hub stay in the span of
        the rows built from the canonical ordering."""
        sp = space(k)
        piv = exact_rref(as_dicts(sp.relation_rows()))
        fours = {}
        for g in sp.basis:
            for e, (u, v) in enumerate(g.edges):
                if u != v:
                    f = _canonical_hub(G.contract_edge(g, e))[0]
                    fours.setdefault(f.edges, f)
        for f in fours.values():
            for perm in itertools.permutations(range(4)):
                tagged = G.FourValentGraph(
                    f.num_vertices, f.edges, f.hub, tuple(f.tagging[i] for i in perm)
                )
                row = oracles.expansion_row(sp, tagged)
                assert reduce_vector(row, piv) == {}


def _contraction_hubs(max_k):
    """canonical hub edges -> (hub graph, the distinct splitting maps of
    its action) over every contraction of every enumerated graph with
    k <= max_k, zero classes included, so that hub loops and parallel hub
    edges occur."""
    hubs: dict = {}
    for k in range(1, max_k + 1):
        for g in enumerate_graphs(k):
            for e, (u, v) in enumerate(g.edges):
                if u != v:
                    four, _, action = _canonical_hub(G.contract_edge(g, e))
                    hubs.setdefault(four.edges, (four, []))[1].append(tuple(action))
    return hubs


def _closure(maps):
    """Every composite of the (images, sign) maps, the identity included."""
    group = {((0, 1, 2), 1)}
    frontier = list(group)
    while frontier:
        images, sign = frontier.pop()
        for m, s in maps:
            composite = (tuple(m[q] for q in images), sign * s)
            if composite not in group:
                group.add(composite)
                frontier.append(composite)
    return group


def _inversion_sign(perm):
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _stub_automorphism_maps(four):
    """The (images, sign) of every automorphism of the hub graph, found by
    brute force: every vertex permutation fixing the hub that keeps the
    edge multiset, every edge bijection over it, and every way to lay each
    hub edge's two ends onto its image's ends."""
    n, edges, hub = four.num_vertices, four.edges, four.hub
    stubs = list(four.tagging)
    pairings = [
        {frozenset((stubs[a], stubs[b])), frozenset((stubs[c], stubs[d]))}
        for a, b, c, d in G.IHX_PAIRINGS
    ]
    hub_edges = sorted({label for label, _ in stubs})
    out = set()
    others = [v for v in range(n) if v != hub]
    for images in itertools.permutations(others):
        phi = dict(zip(others, images))
        phi[hub] = hub
        moved = [tuple(sorted((phi[a], phi[b]))) for a, b in edges]
        if sorted(moved) != sorted(edges):
            continue
        targets = [[j for j, f in enumerate(edges) if f == pair] for pair in moved]
        for eperm in itertools.product(*targets):
            if len(set(eperm)) != len(eperm):
                continue
            ends = []
            for label in hub_edges:
                a, b = edges[label]
                ta, tb = edges[eperm[label]]
                ends.append([o for o in (0, 1) if (phi[a], phi[b]) == ((ta, tb), (tb, ta))[o]])
            for orient in itertools.product(*ends):
                flip = dict(zip(hub_edges, orient))
                sigma = {(label, end): (eperm[label], end ^ flip[label]) for label, end in stubs}
                split = []
                for pairing in pairings:
                    image = {frozenset(sigma[x] for x in pair) for pair in pairing}
                    split.append(pairings.index(image))
                out.add((tuple(split), _inversion_sign(eperm)))
    return out


class TestSplittingMaps:
    @pytest.fixture(scope="class")
    def hubs(self):
        return _contraction_hubs(4)

    def test_sample_has_hub_loops_and_parallel_hub_edges(self, hubs):
        def at_hub(four):
            return [four.edges[label] for label, _ in four.tagging]

        assert any(a == b for four, _ in hubs.values() for a, b in at_hub(four))
        assert any(
            len(set(at_hub(four))) < len(at_hub(four)) and all(a != b for a, b in at_hub(four))
            for four, _ in hubs.values()
        )

    def test_maps_carry_classes_with_their_sign(self, hubs):
        """reduce(h_images[p]) is sign * reduce(h_p), and one is zero
        exactly when the other is."""
        for four, actions in hubs.values():
            classes = [G.reduce(h) for _, h in G.ihx_expansions(four, len(four.edges))]
            for images, sign in set(itertools.chain(*actions)):
                for p, q in enumerate(images):
                    assert classes[q].key == classes[p].key
                    assert classes[q].is_zero == classes[p].is_zero
                    if not classes[p].is_zero:
                        assert classes[q].sign == sign * classes[p].sign

    def test_maps_generate_the_whole_action(self, hubs):
        """Each contraction's maps generate the action on the splittings of
        every automorphism of the hub graph, loop flips included."""
        for four, actions in hubs.values():
            expected = _stub_automorphism_maps(four)
            for action in set(actions):
                assert _closure(action) == expected


@pytest.fixture(scope="module")
def space6():
    return GraphSpace(6)


class TestK6:
    """The default --max-k, cold: dimension 0 on both rank paths, and the
    relation rows, each as its (column, value) pairs in column order,
    pinned by digest."""

    ROWS_DIGEST = "96590fb215201dd0991383719a6485dd4d65dad6bc14c3b3db7bbbc65aef26ed"
    # sha256 of the sorted signed and zero key lists, as recorded for the benchmark
    KEY_DIGEST = "efd2f85ae8cdf33e35827a699e26324f8c2bf3085a438e9bae0b725df57390f3"

    def test_dimension_zero_both_ways(self, space6):
        assert space6.dimension() == space6.exact_dimension() == 0
        assert weight_systems(space6) == []

    def test_singleton_peel_resolves_every_column(self, space6):
        peeled, rest = peel_singletons(space6.relation_rows())
        assert (len(peeled), rest) == (243, [])

    def test_key_digest(self, space6):
        keys = {"signed": sorted(space6.keys), "zero": sorted(space6.zero_keys)}
        text = json.dumps(keys, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.KEY_DIGEST

    def test_rows_digest(self, space6):
        text = repr([list(zip(*row)) for row in space6.relation_rows()])
        assert hashlib.sha256(text.encode()).hexdigest() == self.ROWS_DIGEST

    def test_rref_matches_fraction_elimination(self, space6):
        assert_same_rref(as_dicts(space6.relation_rows()))


def assert_same_rref(rows):
    """exact_rref and the Fraction reference agree in pivots, pivot order,
    each row's key order and values."""
    got, want = exact_rref(rows), oracles.exact_rref(rows)
    assert [(p, list(r.items())) for p, r in got.items()] == [
        (p, list(r.items())) for p, r in want.items()
    ]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_rref_matches_fraction_elimination(k):
    assert_same_rref(as_dicts(space(k).relation_rows()))


@pytest.fixture(scope="module")
def classes7():
    """The k=7 listing, each graph with its canonical labelling, listed
    once for the class digests and the configuration mass."""
    return list(C.labelled_graphs(7))


@pytest.fixture(scope="module")
def space7(classes7):
    """GraphSpace(7), classified once over the shared listing."""
    sp = GraphSpace(7)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(S, "labelled_graphs", lambda k: classes7)
        sp.keys
    return sp


@pytest.fixture(scope="module")
def space8():
    """GraphSpace(8), cold: its classes take about a minute and a half and
    its rows about two minutes more, so only slow tests ask for it, and
    they share it."""
    return GraphSpace(8)


@pytest.mark.slow
def test_k8_dimension_zero_both_ways(space8):
    """KNOWN_DIMENSIONS[8]: the certificate proves 0, and the exact rank,
    which reads no peel, agrees."""
    assert space8.dimension() == space8.exact_dimension() == 0


def cold_space(k, request):
    return request.getfixturevalue(f"space{k}") if k in (6, 7, 8) else space(k)


class TestKeysAreTheBasis:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_keys_spell_their_graphs(self, k, request):
        """graph_of_key is canonical_key's inverse on every class key, and
        the graph a key spells reduces to that key: with sign +1, as the
        class's canonical representative, for a signed key."""
        sp = cold_space(k, request)
        for keys, sign in ((sp.keys, 1), (sorted(sp.zero_keys), None)):
            for key in keys:
                g = G.graph_of_key(key)
                assert G.canonical_key(g.num_vertices, g.edges) == key
                assert G.reduce(g) == G.GraphClass(key, sign)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_keys_of_codes_is_canonical_key(self, k, request):
        """The basis decoder's spelling, one "a-b" string per pair code
        2k * a + b, is canonical_key's for every basis graph, two-digit
        vertex labels included from k=6 on."""
        sp = cold_space(k, request)
        graphs = list(map(G.graph_of_key, sp.keys))
        codes = [2 * k * a + b for g in graphs for a, b in g.edges]
        want = tuple(G.canonical_key(2 * k, g.edges) for g in graphs)
        assert G._keys_of_codes(2 * k, codes, 3 * k) == want == sp.keys

    def test_vector_by_key(self):
        """A vector over basis positions maps to one over the class keys,
        in key order, without its zero entries."""
        sp = space(5)
        by_key = sp._by_key({7: 2, 3: 0, 1: Fraction(-1, 2)})
        assert list(by_key.items()) == [(sp.keys[1], Fraction(-1, 2)), (sp.keys[7], 2)]

    @pytest.mark.parametrize(
        "k,kinds",
        [
            *(pytest.param(k, KINDS, id=str(k)) for k in range(1, 7)),
            pytest.param(7, ("basis", "zeros"), id="7"),
            pytest.param(7, ("relations", "rref"), id="7-rows"),
            pytest.param(8, KINDS, id="8", marks=pytest.mark.slow),
        ],
    )
    def test_pinned_class_digests(self, k, kinds, request, tmp_path):
        """Each pin is the CRC-32 of the file the cache writes for a cold
        build's value of its kind, the classes and their rows, recomputed
        here with zlib.  The k=7 space classifies the shared listing, and
        its rows and W take a few seconds more; the k=8 build takes a few
        minutes, so that case is slow, and shares space8 with the k=8
        dimension test."""
        sp = cold_space(k, request)
        n = len(sp.keys)
        values = {"basis": sp.keys, "zeros": sp.zero_keys}
        if "rref" in kinds:
            values.update(relations=(n, sp.relation_rows()), rref=(n, sp._certificate()))
        cache = Cache(tmp_path)
        for kind in kinds:
            cache.store(k, kind, values[kind])
        assert sorted(cache_module._PINS) == list(range(1, 9))
        assert all(list(pins) == list(KINDS) for pins in cache_module._PINS.values())
        crcs = {kind: zlib.crc32(cache.path(k, kind).read_bytes()) for kind in kinds}
        assert crcs == {kind: cache_module._PINS[k][kind] for kind in kinds}


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = Cache(tmp_path)
        warm = GraphSpace(2, cache)
        basis = warm.basis
        rows = warm.relation_rows()
        nf = warm.normal_form({0: 1})
        dim = warm.dimension()
        assert {p for p, _ in [(n, s) for n, s in cache.status()]} == {
            "basis-k2.json",
            "zeros-k2.json",
            "relations-k2.json",
            "rref-k2.json",
        }
        cold = GraphSpace(2, cache)
        assert cold.basis == basis
        assert cold.relation_rows() == rows
        assert cold.normal_form({0: 1}) == nf
        assert cold.dimension() == dim

    @pytest.mark.parametrize("k", range(1, 7))
    def test_warm_rows_are_the_cold_rows(self, k, request, tmp_path):
        """Rows read back from the relations file are the built rows as
        lists, row for row: each a (cols, vals) tuple of two lists."""
        cold = cold_space(k, request)
        cache = Cache(tmp_path)
        cache.store(k, "relations", (len(cold.keys), cold.relation_rows()))
        warm = GraphSpace(k, cache)
        assert warm.relation_rows() == cold.relation_rows()
        for row in (*warm.relation_rows(), *cold.relation_rows()):
            assert type(row) is tuple and list(map(type, row)) == [list, list]

    # SHA-256 of the cache files a cold dimension() and normal_form({}) write
    # for k=1..4, as json.dumps({name: text}) with names sorted
    FILES_DIGEST = "5b66cd8fbdced50fac58452e38bb9f1d8378b65bc08fa1a31343f110839ac775"

    def test_file_bytes_pinned(self, tmp_path):
        for k in range(1, 5):
            space = GraphSpace(k, Cache(tmp_path))
            space.dimension()
            space.normal_form({})
        files = {p.name: p.read_text() for p in sorted(tmp_path.iterdir())}
        assert len(files) == 16
        text = json.dumps(files, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.FILES_DIGEST

    def test_store_then_load_each_kind(self, tmp_path):
        cache = Cache(tmp_path)
        space = GraphSpace(5)
        space.normal_form({})
        n = len(space.keys)
        values = {
            "basis": space.keys,
            "zeros": space.zero_keys,
            "relations": (n, space.relation_rows()),
            "rref": (n, space._weights),
        }
        assert set(values) == set(KINDS)
        for kind, value in values.items():
            cache.store(5, kind, value)
            assert cache.load(5, kind, n) == value
            assert cache.load(5, kind) == value
        size, rref = cache.load(5, "rref", n)
        assert rref == [TestCertificate.K5]
        assert all(type(v) is int for w in rref for v in w.values())

    def test_rows_of_another_basis_size_are_rebuilt(self, tmp_path, monkeypatch):
        """Relations behind a forged pin that record a basis size other
        than the basis's are ignored wherever both are read, and rebuilt.
        Read after the basis, they are not read.  Read before it, by
        dimension(), which takes n from them, they give 3 - 1; then
        exact_dimension(), which counts the basis, as criterion 1 does,
        rereads them, turns them away and gives the 2 - 1 of a fresh cache."""
        cache = Cache(tmp_path)
        GraphSpace(2, cache).normal_form({})
        path = cache.path(2, "relations")
        fresh = path.read_bytes()
        doc = json.loads(fresh)
        doc["payload"]["size"] = 3
        forged = json.dumps(doc)
        monkeypatch.setitem(cache_module._PINS[2], "relations", zlib.crc32(forged.encode()))
        path.write_text(forged)
        sp = GraphSpace(2, cache)
        assert (len(sp.keys), sp.dimension()) == (2, 1)
        assert path.read_bytes() == fresh
        path.write_text(forged)
        sp = GraphSpace(2, cache)
        assert sp.dimension() == 2
        assert sp.exact_dimension() == 1
        assert path.read_bytes() == fresh
        assert sp.dimension() == 1

    def test_version_mismatch_ignored(self, tmp_path):
        cache = Cache(tmp_path)
        GraphSpace(2, cache).basis
        p = cache.path(2, "basis")
        p.write_text('{"format_version": 999, "payload": []}')
        assert cache.load(2, "basis") is None
        sp = GraphSpace(2, cache)
        assert len(sp.basis) == 2

    def test_corrupt_file_ignored(self, tmp_path):
        cache = Cache(tmp_path)
        cache.path(2, "basis").parent.mkdir(parents=True, exist_ok=True)
        texts = (
            "{not json",
            "[1, 2]",
            '{"format_version": 1, "payload": [1, 2]}',
            '{"format_version": 1, "payload": {"a": 1}}',
        )
        for kind in KINDS:
            for text in texts:
                cache.path(2, kind).write_text(text)
                assert cache.load(2, kind) is None

    def test_failed_store_keeps_previous_file(self, tmp_path):
        cache = Cache(tmp_path)
        cache.store(2, "zeros", ["cub:4:0-0,0-1,1-2,2-3,3-3"])
        before = cache.path(2, "zeros").read_text()
        with pytest.raises(TypeError):
            cache.store(2, "zeros", ["a", object()])
        assert cache.path(2, "zeros").read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["zeros-k2.json"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)])
    def test_store_mode_follows_umask(self, tmp_path, monkeypatch, umask, mode):
        """The file gets 0o666 less the umask, and store never calls
        os.umask to learn it: while the umask is changed, a file that
        another thread creates would get the wrong mode."""

        def no_umask(mask):
            raise AssertionError("store changed the umask")

        cache = Cache(tmp_path)
        old = os.umask(umask)
        try:
            with monkeypatch.context() as m:
                m.setattr(os, "umask", no_umask)
                cache.store(2, "zeros", [])
        finally:
            os.umask(old)
        assert stat.S_IMODE(cache.path(2, "zeros").stat().st_mode) == mode

    def test_clear(self, tmp_path):
        cache = Cache(tmp_path)
        GraphSpace(2, cache).basis
        assert cache.clear() == 2
        assert cache.status() == []
