"""The canonicalizer's output, frozen: enc, perm and generators byte for byte.

The golden corpus pins every field of `CanonResult` on 7,555 graphs (one
labelled graph per class for k <= 5, two relabellings of each, and every
hub graph from a non-loop contraction), so any change to the search tree,
its node order or its generator collection shows up here before it reaches
a class key.  The class graphs are frozen in canon_corpus.json, so the
corpus does not move when the enumerator picks other labelled
representatives; test_class_key_digest pins the classes the live
enumerator produces.  The property tests check what a canonical labelling must satisfy on
random multigraphs with loops and vertices of degree up to 4.
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
from trivalent.canon import canonicalize

CORPUS_SEED = 181202448
CORPUS_ITEMS = 7555
CORPUS_DIGEST = "b4f772c334f7f40745677c50ac1ba9a7817eb1f9bac7425492750262d3fccb04"

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


def test_golden_corpus():
    digest = hashlib.sha256()
    count = 0
    for n, edges in corpus():
        r = canonicalize(n, edges)
        digest.update(repr((r.enc, r.perm, r.aut_generators)).encode())
        count += 1
    assert count == CORPUS_ITEMS
    assert digest.hexdigest() == CORPUS_DIGEST


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
def multigraphs(draw):
    """A multigraph with loops whose vertex degrees stay at most 4."""
    n = draw(st.integers(1, 8))
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_rejected(self, n):
        with pytest.raises(ValueError):
            canonicalize(n, [])
