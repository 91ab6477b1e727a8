"""The canonicalizer's output, frozen: enc, perm and generators byte for byte.

The golden corpus pins every field of `CanonResult` on 7,555 graphs (one
labelled graph per class for k <= 5, two relabellings of each, and every
hub graph from a non-loop contraction), so any change to the search tree,
its node order or its generator collection shows up here before it reaches
a class key.  It has three digests: (enc, perm), which class keys and
caches rest on; the order of the group each item's generators generate,
which no valid prune can move; and the generators themselves, which a
change to the automorphism pruning moves.  The class graphs are frozen in
canon_corpus.json, so the corpus does not move when the enumerator picks
other labelled representatives; test_class_key_digest pins the classes the
live enumerator produces.  The property tests check what a canonical
labelling and its generators must satisfy on random multigraphs with loops
and vertices of degree up to 4, and on connected cubic multigraphs with up
to 14 vertices, where the generators' stabilizer-chain product is checked
against a brute-force count.
"""

import gc
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivalent import graphs as G
from trivalent import spaces
from trivalent.canon import canonicalize, close_group, group_order

CORPUS_SEED = 181202448
STUB_SEED = 1
CORPUS_ITEMS = 7555
CORPUS_DIGESTS = {
    "enc_perm": "7c08fa67437bfd266d192d3f6a5507f31855cc1a10bc1b1ab1b6b4ef39fb6435",
    "group_order": "de5e9cdbcba619a1d09e356b5a1064941a5a0d3da082344693e6d68344ca30ae",
    "generators": "d35d531bf8ff682a3a252fb750dd8bc33b421210fc73b64f1ae1e1c689e5e87f",
}

# sha256 of the sorted signed and zero key lists, as recorded for the benchmark
KEY_DIGESTS = {
    3: "02f20c83507535a1fd63eba6cc5dd43bcd687df73d5f96bb8f88312327b279e4",
    4: "17333a963cc7d8414ed351afca1104c9cd2da9f7074b1a37ccde7ce73f6b3fcc",
    5: "9a9b3747451636805b15440700f3a5c850c92de748bd1c3233ff2137270768db",
}


# one labelled graph per class for k = 1..5, as [vertex count, edges]
FROZEN = [
    G.validate(n, [tuple(e) for e in edges])
    for n, edges in json.loads((Path(__file__).parent / "canon_corpus.json").read_text())
]


@pytest.fixture(scope="module")
def enumerated():
    return {k: spaces.enumerate_graphs(k) for k in KEY_DIGESTS}


def corpus():
    rng = random.Random(CORPUS_SEED)
    for g in FROZEN:
        n = g.num_vertices
        yield n, g.edges
        for _ in range(2):
            verts = list(range(n))
            rng.shuffle(verts)
            edges = [(verts[u], verts[v]) for u, v in g.edges]
            rng.shuffle(edges)
            yield n, edges
        for e, (u, v) in enumerate(g.edges):
            if u != v:
                c = G.contract_edge(g, e)
                yield c.num_vertices, c.edges


@pytest.fixture(scope="module")
def golden():
    return [(n, canonicalize(n, edges)) for n, edges in corpus()]


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def test_golden_corpus(golden):
    assert len(golden) == CORPUS_ITEMS
    assert _digest((r.enc, r.perm) for _, r in golden) == CORPUS_DIGESTS["enc_perm"]


def test_golden_group_orders(golden):
    """The listed order is frozen, and the stabilizer-chain product that
    automorphisms returns equals it on every item."""
    orders = [len(close_group(n, r.aut_generators)) for n, r in golden]
    assert _digest(orders) == CORPUS_DIGESTS["group_order"]
    assert [group_order(r) for _, r in golden] == orders


def _assert_no_repeat(n, gens):
    """canonicalize keeps each tie's generator as found, so none may be the
    identity or equal another (canon's "Why no generator repeats")."""
    assert tuple(range(n)) not in gens
    assert len(set(gens)) == len(gens)


def test_golden_generators(golden):
    for n, r in golden:
        _assert_no_repeat(n, r.aut_generators)
    assert sum(len(r.aut_generators) for _, r in golden) == 7934
    assert _digest(r.aut_generators for _, r in golden) == CORPUS_DIGESTS["generators"]


def test_leaves_no_cyclic_garbage():
    """Every call's search state is freed on return, so a cold build does
    not hand hundreds of thousands of objects to the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        for n, edges in corpus():
            canonicalize(n, edges)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("k", sorted(KEY_DIGESTS))
def test_class_key_digest(enumerated, k):
    labelled = ((g, canonicalize(g.num_vertices, g.edges)) for g in enumerated[k])
    signed, zeros, _ = spaces.classify(labelled)
    text = json.dumps({"signed": sorted(signed), "zero": sorted(zeros)}, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == KEY_DIGESTS[k]


# -- properties ---------------------------------------------------------------


@st.composite
def multigraphs(draw, max_n=8):
    """A multigraph with loops whose vertex degrees stay at most 4."""
    n = draw(st.integers(1, max_n))
    deg = [0] * n
    edges = []
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16)):
        if deg[u] == 4 or deg[v] == 4 or (u == v and deg[u] > 2):
            continue
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return n, edges


HUBS = [
    G.contract_edge(g, e)
    for g in FROZEN
    if g.k in (2, 3)
    for e, (u, v) in enumerate(g.edges)
    if u != v
]

graphs_and_hubs = st.one_of(
    multigraphs(),
    st.sampled_from(HUBS).map(lambda c: (c.num_vertices, list(c.edges))),
)


@st.composite
def relabelled(draw):
    n, edges = draw(graphs_and_hubs)
    vperm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(edges))))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    moved = []
    for i, flip in zip(order, flips):
        u, v = vperm[edges[i][0]], vperm[edges[i][1]]
        moved.append((v, u) if flip else (u, v))
    return n, edges, moved


def _connected(n, edges):
    reached = {0}
    for _ in range(n):
        reached |= {v for e in edges for u, v in (e, e[::-1]) if u in reached}
    return len(reached) == n


def stub_matchings(seed, count):
    """count connected cubic multigraphs with loops and parallel edges on 8
    to 14 vertices: random matchings of their 3n stubs, under a random
    relabelling.  A disconnected draw is drawn again, as it can have 645,120
    automorphisms (seven dumbbells), which _automorphism_count visits one
    by one."""
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < count:
        n = rng.choice([8, 10, 12, 14])
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        vperm = list(range(n))
        rng.shuffle(vperm)
        edges = [(vperm[u], vperm[v]) for u, v in zip(stubs[::2], stubs[1::2])]
        if _connected(n, edges):
            drawn.append((n, edges))
    return drawn


def _encode(n, edges):
    """The lower-triangular encoding of a labelled multigraph in label order."""
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u][v] += 1
        if u != v:
            m[v][u] += 1
    return tuple(x for t in range(n) for x in m[t][: t + 1])


def _multiset(edges):
    return sorted((u, v) if u <= v else (v, u) for u, v in edges)


def _automorphism_count(n, edges):
    """The vertex permutations that keep the edge multiset, counted by brute
    force.  The vertices are taken in breadth-first order, so each one after
    its component's first has a neighbour before it; a map of the first t is
    extended to the next, u, by every unused vertex whose multiplicities to
    the images of the first t and to itself are u's."""
    m = [[0] * n for _ in range(n)]
    for u, v in edges:
        m[u][v] += 1
        if u != v:
            m[v][u] += 1
    seq = []
    for root in range(n):
        if root in seq:
            continue
        i = len(seq)
        seq.append(root)
        while i < len(seq):
            seq += [u for u in range(n) if m[seq[i]][u] and u not in seq]
            i += 1

    def extend(phi):
        t = len(phi)
        if t == n:
            return 1
        u = seq[t]
        return sum(
            extend(phi + [w])
            for w in range(n)
            if w not in phi
            and all(m[u][seq[s]] == m[w][x] for s, x in enumerate(phi + [w]))
        )

    return extend([])


class TestCanonicalizeProperties:
    @given(relabelled())
    @settings(max_examples=200, deadline=None)
    def test_enc_invariant_under_relabelling(self, data):
        n, edges, moved = data
        assert canonicalize(n, moved).enc == canonicalize(n, edges).enc

    @given(graphs_and_hubs)
    @settings(max_examples=200, deadline=None)
    def test_perm_reproduces_enc(self, data):
        n, edges = data
        r = canonicalize(n, edges)
        assert sorted(r.perm) == list(range(n))
        assert _encode(n, [(r.perm[u], r.perm[v]) for u, v in edges]) == r.enc

    @given(graphs_and_hubs)
    @settings(max_examples=200, deadline=None)
    def test_generators_are_automorphisms(self, data):
        n, edges = data
        target = _multiset(edges)
        for phi in canonicalize(n, edges).aut_generators:
            assert sorted(phi) == list(range(n))
            assert phi != tuple(range(n))
            assert _multiset([(phi[u], phi[v]) for u, v in edges]) == target

    @given(multigraphs(max_n=6))
    @settings(max_examples=200, deadline=None)
    def test_generators_generate_the_group(self, data):
        """The generators close to every vertex permutation that keeps the
        edge multiset, and their stabilizer-chain product counts them."""
        n, edges = data
        order = _automorphism_count(n, edges)
        res = canonicalize(n, edges)
        _assert_no_repeat(n, res.aut_generators)
        assert group_order(res) == len(close_group(n, res.aut_generators)) == order

    def test_cubic_generators_are_a_strong_generating_set(self):
        """On cubic graphs large enough for the search to find generators
        deep in a node's subtree, the product along the stabilizer chain
        and the listed group both count the automorphisms, and no generator
        repeats.  A search that refreshes a node's orbits only before its
        first child repeats generators on 7 of these 300 draws (6 to 12 at
        seeds 1 to 3)."""
        for n, edges in stub_matchings(STUB_SEED, 300):
            res = canonicalize(n, edges)
            _assert_no_repeat(n, res.aut_generators)
            order = _automorphism_count(n, edges)
            assert group_order(res) == len(close_group(n, res.aut_generators)) == order

    def test_orbits_are_those_of_the_node_stabilizer(self):
        """On this cubic graph with 6 vertex automorphisms, pruning a node's
        children by a generator that moves one of its placed vertices would
        drop half the group; the small graphs above do not show it."""
        edges = [(1, 7), (0, 8), (4, 7), (9, 3), (5, 2), (3, 4), (9, 4), (1, 6)]
        edges += [(8, 1), (2, 3), (2, 6), (0, 9), (6, 7), (5, 8), (5, 0)]
        assert _automorphism_count(10, edges) == 6
        res = canonicalize(10, edges)
        assert group_order(res) == len(close_group(10, res.aut_generators)) == 6

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_rejected(self, n):
        with pytest.raises(ValueError):
            canonicalize(n, [])
