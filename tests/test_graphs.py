"""Core graph layer: validation, reduction signs, automorphisms, IHX moves."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trivalent.canon import close_group, perm_parity
from trivalent import graphs as G
from trivalent.spaces import enumerate_graphs


def theta():
    return G.validate(2, [(0, 1), (0, 1), (0, 1)])


def dumbbell():
    return G.validate(2, [(0, 0), (0, 1), (1, 1)])


def k4():
    return G.validate(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def clover():
    # hub 0 joined to three vertices that each carry a loop
    return G.validate(4, [(0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)])


def matching_graphs(k):
    """All connected trivalent graphs from perfect matchings of 6k stubs."""
    stubs = [v for v in range(2 * k) for _ in range(3)]

    def matchings(items):
        if not items:
            yield []
            return
        first = items[0]
        for j in range(1, len(items)):
            rest = items[1:j] + items[j + 1 :]
            for m in matchings(rest):
                yield [(first, items[j])] + m

    for m in matchings(stubs):
        try:
            yield G.validate(2 * k, m)
        except G.DisconnectedError:
            continue


class TestValidate:
    def test_accepts_fixtures(self):
        for g in (theta(), dumbbell(), k4(), clover()):
            assert g.k in (1, 2)

    def test_rejects_odd_vertex_count(self):
        with pytest.raises(G.NonTrivalentError):
            G.validate(3, [(0, 1), (1, 2), (2, 0), (0, 1)])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(G.WrongEdgeCountError):
            G.validate(2, [(0, 1), (0, 1)])

    def test_rejects_wrong_degree(self):
        with pytest.raises(G.NonTrivalentError, match=r"^vertex 0 has degree 4$"):
            G.validate(2, [(0, 0), (0, 1), (0, 1)])
        # vertices 0 and 1 have degree 3; the message names 2, not 3 (degree 4)
        with pytest.raises(G.NonTrivalentError, match=r"^vertex 2 has degree 2$"):
            G.validate(4, [(0, 0), (0, 1), (1, 1), (2, 3), (2, 3), (3, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(G.DisconnectedError):
            G.validate(4, [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3)])

    def test_json_round_trip(self):
        g = k4()
        assert G.LabelledTrivalentGraph.from_json(g.to_json()) == g


class TestReduce:
    def test_theta_is_zero(self):
        # any two of the three parallel edges swap under an automorphism
        assert G.reduce(theta()).is_zero

    def test_dumbbell_is_zero(self):
        # swapping the endpoints swaps the two loop labels: odd
        assert G.reduce(dumbbell()).is_zero

    def test_k4_survives(self):
        r = G.reduce(k4())
        assert not r.is_zero
        assert r.sign in (1, -1)

    def test_clover_survives(self):
        assert not G.reduce(clover()).is_zero

    def test_key_separates_k4_from_clover(self):
        assert G.reduce(k4()).key != G.reduce(clover()).key

    def test_edge_swap_flips_sign(self):
        g = k4()
        swapped = G.validate(4, (g.edges[1], g.edges[0]) + g.edges[2:])
        a, b = G.reduce(g), G.reduce(swapped)
        assert a.key == b.key
        assert a.sign == -b.sign

    def test_vertex_relabel_keeps_sign(self):
        g = k4()
        perm = (2, 0, 3, 1)
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        a, b = G.reduce(g), G.reduce(G.validate(4, edges))
        assert (a.key, a.sign) == (b.key, b.sign)

    def test_canonical_representative_fixed_point(self):
        """The graph a key spells reduces to that key, with sign +1 for a
        signed class, and spells it again."""
        for g in (k4(), clover()):
            r = G.reduce(g)
            c = G.graph_of_key(r.key)
            assert G.reduce(c) == G.GraphClass(r.key, None if r.is_zero else 1)
            assert G.graph_of_key(G.reduce(c).key) == c


@st.composite
def edge_lists(draw):
    """Unsorted pair lists over up to 30 vertices, so that labels reach two
    digits, with loops and repeated (parallel) pairs drawn often."""
    n = draw(st.integers(1, 30))
    end = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(end, end), max_size=24))
    loops = draw(st.lists(end.map(lambda v: (v, v)), max_size=4))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return n, draw(st.permutations(pairs + loops + repeats))


class TestCanonicalKey:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_one_format_equals_the_joined_pairs(self, drawn):
        n, pairs = drawn
        assert G.canonical_key(n, pairs) == oracles.join_key(n, pairs)
        assert G.canonical_key(n, [list(p) for p in pairs]) == oracles.join_key(n, pairs)

    def test_examples(self):
        assert G.canonical_key(4, []) == "cub:4:"
        pairs = [(10, 11), (0, 10), (3, 3), (0, 10), (2, 1)]
        assert G.canonical_key(12, pairs) == "cub:12:0-10,0-10,2-1,3-3,10-11"
        assert G.canonical_key(12, pairs) == oracles.join_key(12, pairs)


def brute_force_vertex_group(g):
    """All vertex permutations preserving the edge multiset. Small n only."""
    pairs = sorted(tuple(sorted(e)) for e in g.edges)
    out = []
    for p in itertools.permutations(range(g.num_vertices)):
        mapped = sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges)
        if mapped == pairs:
            out.append(p)
    return sorted(out)


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "make,counts",
        [
            (theta, (12, 6, 2)),
            (dumbbell, (2, 1, 2)),
            (k4, (24, 1, 24)),
            (clover, (6, 1, 6)),
        ],
    )
    def test_fixture_orders(self, make, counts):
        _, total, aut_e, aut_v = G.automorphisms(make())
        assert (total, aut_e, aut_v) == counts

    def test_group_matches_brute_force_on_fixtures(self):
        for make in (theta, dumbbell, k4, clover):
            g = make()
            auts, _, _, _ = G.automorphisms(g)
            found = sorted({a.vertex_perm for a in auts})
            assert found == brute_force_vertex_group(g)

    def test_group_matches_brute_force_k2_sweep(self):
        # every trivalent graph on 4 vertices, via stub matchings
        seen = set()
        for g in matching_graphs(2):
            key = G.reduce(g).key
            if key in seen:
                continue
            seen.add(key)
            auts, _, _, _ = G.automorphisms(g)
            assert sorted({a.vertex_perm for a in auts}) == brute_force_vertex_group(g)

    def test_elements_number_the_order_k_le_3(self):
        # the orders are products; the listing must give that many elements
        seen = set()
        for k in (1, 2, 3):
            for g in enumerate_graphs(k):
                key = G.reduce(g).key
                if key in seen:
                    continue
                seen.add(key)
                elements, order, _, _ = G.automorphisms(g)
                assert len({(a.vertex_perm, a.edge_perm) for a in elements}) == order

    def test_edge_perms_are_automorphisms(self):
        g = clover()
        auts, _, _, _ = G.automorphisms(g)
        for a in auts:
            for i, (u, v) in enumerate(g.edges):
                img = tuple(sorted((a.vertex_perm[u], a.vertex_perm[v])))
                assert img == tuple(sorted(g.edges[a.edge_perm[i]]))

    def test_zero_iff_some_edge_perm_is_odd(self):
        # reduce()'s zero test against the full group, across the k=2 sweep
        seen = set()
        for g in matching_graphs(2):
            key = G.reduce(g).key
            if key in seen:
                continue
            seen.add(key)
            auts, _, _, _ = G.automorphisms(g)
            any_odd = any(a.edge_parity < 0 for a in auts)
            assert G.reduce(g).is_zero == any_odd


class TestIsoSign:
    def test_non_isomorphic(self):
        assert oracles.iso_sign(k4(), clover()) is None

    def test_zero_class(self):
        g = theta()
        h = G.validate(2, [(1, 0), (0, 1), (0, 1)])
        assert oracles.iso_sign(g, h) == 0

    def test_composition(self):
        g = k4()
        e = list(g.edges)
        e[0], e[3] = e[3], e[0]
        h = G.validate(4, e)
        assert oracles.iso_sign(g, h) == -1
        assert oracles.iso_sign(g, g) == 1
        assert oracles.iso_sign(h, h) == 1


@st.composite
def relabelled_pair(draw):
    pool = [theta(), dumbbell(), k4(), clover()]
    g = draw(st.sampled_from(pool))
    vperm = draw(st.permutations(range(g.num_vertices)))
    eperm = draw(st.permutations(range(len(g.edges))))
    edges = [g.edges[i] for i in eperm]
    edges = [(vperm[u], vperm[v]) for u, v in edges]
    return g, G.validate(g.num_vertices, edges), tuple(eperm)


class TestRelabellingProperty:
    @given(relabelled_pair())
    @settings(max_examples=150, deadline=None)
    def test_reduce_respects_relabelling(self, data):
        g, h, eperm = data
        a, b = G.reduce(g), G.reduce(h)
        assert a.key == b.key
        if a.is_zero:
            assert b.is_zero
        else:
            assert b.sign == a.sign * perm_parity(eperm)


class TestContraction:
    def test_loop_contraction_rejected(self):
        with pytest.raises(G.LoopContractionError):
            G.contract_edge(dumbbell(), 0)

    def test_theta_contraction_shape(self):
        c = G.contract_edge(theta(), 0)
        assert c.num_vertices == 1
        assert c.edges == ((0, 0), (0, 0))
        assert len(c.tagging) == 4

    def test_expansions_of_contracted_theta(self):
        c = G.contract_edge(theta(), 0)
        rows = G.ihx_expansions(c, 0)
        assert [coeff for coeff, _ in rows] == [1, 1, 1]
        keys = [G.reduce(h) for _, h in rows]
        # straight and crossed give back a theta, the middle a dumbbell
        assert keys[0].key == G.reduce(theta()).key
        assert keys[1].key == G.reduce(dumbbell()).key
        assert keys[2].key == G.reduce(theta()).key

    def test_expansion_round_trip_on_k4(self):
        g = k4()
        for e in range(len(g.edges)):
            c = G.contract_edge(g, e)
            rows = G.ihx_expansions(c, e)
            # the pairing that keeps the original split reproduces g's class
            assert any(G.reduce(h).key == G.reduce(g).key for _, h in rows)

    def test_expansions_are_valid_graphs(self):
        for g in (k4(), clover()):
            for e, (u, v) in enumerate(g.edges):
                if u == v:
                    continue
                for _, h in G.ihx_expansions(G.contract_edge(g, e), e):
                    assert h.num_vertices == g.num_vertices
                    assert len(h.edges) == len(g.edges)


class TestArrows:
    def test_theta_orientation(self):
        a = G.find_arrow_orientation(theta())
        for v in (0, 1):
            out, inn = a.out_in_counts(v)
            assert out >= 1 and inn >= 1

    def test_loops_force_direction(self):
        a = G.find_arrow_orientation(dumbbell())
        assert a.directions[0] == (0, 0)
        assert a.directions[2] == (1, 1)

    def test_every_fixture_has_orientation(self):
        for make in (theta, dumbbell, k4, clover):
            a = G.find_arrow_orientation(make())
            for v in range(a.graph.num_vertices):
                out, inn = a.out_in_counts(v)
                assert out >= 1 and inn >= 1

    def test_all_orientations_theta(self):
        # 8 direction choices, minus the two with a source and sink
        assert len(G.all_arrow_orientations(theta())) == 6

    def test_all_orientations_dumbbell(self):
        # loops are forced, the bridge can point either way
        assert len(G.all_arrow_orientations(dumbbell())) == 2

    def test_orientations_match_brute_force_k_le_3(self):
        for k in (1, 2, 3):
            for g in enumerate_graphs(k):
                expected = oracles.arrow_orientations(g)
                assert G.all_arrow_orientations(g) == expected
                assert G.find_arrow_orientation(g) == expected[0]

    def test_rejects_source(self):
        with pytest.raises(G.GraphError):
            G.make_arrow(theta(), [(0, 1), (0, 1), (0, 1)])

    def test_rejects_mismatched_direction(self):
        with pytest.raises(G.GraphError):
            G.make_arrow(theta(), [(0, 1), (0, 1), (1, 2)])


class TestCanonSearch:
    def test_parity_helper(self):
        assert perm_parity((0, 1, 2)) == 1
        assert perm_parity((1, 0, 2)) == -1
        assert perm_parity((1, 2, 0)) == 1

    def test_close_group_identity_only(self):
        assert close_group(3, []) == [(0, 1, 2)]

    def test_close_group_s3(self):
        """Two transpositions give S3, sorted; generators already in the
        group, the identity and repeats included, change nothing."""
        gens = [(1, 0, 2), (0, 2, 1)]
        group = sorted(itertools.permutations(range(3)))
        assert close_group(3, gens) == group
        assert close_group(3, group[::-1] + gens + group) == group
