"""The classes at one k: listing them, and splitting them into signed and zero.

The classes are the isomorphism classes of connected trivalent multigraphs
on 2k vertices; a class whose automorphisms act oddly on edge labels is
zero.  One pass over the classes at k - 1 inserts into each a digon, a
lollipop (a looped vertex hung on a new vertex of an edge) or an edge
joining two of its edges, and the results, deduplicated, are the classes
at k (labelled_graphs, enumerate_graphs).  Each graph comes with the
canonical labelling its deduplication computed, and classify reads the
signed and zero class keys and each signed class's automorphism generators
off those labellings, so no graph is canonicalized twice.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations

from .canon import canonicalize
from .graphs import (
    LabelledTrivalentGraph,
    _adjacency,
    _canonical_generators,
    _connected,
    _orbits,
    reduce,
)


def _layer_profile(adj, sources) -> list:
    """For each breadth-first layer around the vertex set sources, its size
    and the number of half-edges joining two of its vertices (a loop gives
    two).  Relabelling the graph and the sources alike keeps the profile."""
    depth = dict.fromkeys(sources, 0)
    layer = list(depth)
    profile = []
    while layer:
        d = depth[layer[0]]
        inner = 0
        following = []
        for x in layer:
            for y in adj[x]:
                if y not in depth:
                    depth[y] = d + 1
                    following.append(y)
                elif depth[y] == d:
                    inner += 1
        profile.append((len(layer), inner))
        layer = following
    return profile


def _inserted_scores_highest(n: int, edges, sites) -> bool:
    """Whether no site (a digon as its two vertices, a loop as its vertex)
    has a larger _layer_profile than the last one, the inserted site."""
    if len(sites) == 1:
        return True
    adj = _adjacency(n, edges)
    best = _layer_profile(adj, sites[-1])
    return all(_layer_profile(adj, site) <= best for site in sites[:-1])


def _inserted_edge_scores_highest(n: int, edges) -> bool:
    """Whether no edge that is not a bridge has a larger _layer_profile,
    from its two ends, than the last one, the inserted edge."""
    adj = _adjacency(n, edges)
    best = _layer_profile(adj, edges[-1])
    return not any(
        _layer_profile(adj, edge) > best and _connected(n, edges[:i] + edges[i + 1:])
        for i, edge in enumerate(edges[:-1])
    )


def _site_candidates(h, res, n: int):
    """The digon and lollipop insertions into h, on 2k = n vertices, whose
    inserted site scores highest: a digon, and a lollipop where it leaves
    no parallel pair, inserted into one edge per edge orbit of Aut(h)."""
    u, v = n - 2, n - 1
    mult = Counter(h.edges)
    loops = [(x,) for x, y in mult if x == y]
    # each edge as an item of one vertex pair
    for i in _orbits(enumerate(zip(h.edges)), res.aut_generators):
        a, b = pair = h.edges[i]
        rest = h.edges[:i] + h.edges[i + 1:]
        # non-loop multiplicities of h with edge i removed
        left = [(p, m - (p == pair)) for p, m in mult.items() if p[0] != p[1]]
        digons = [p for p, m in left if m == 2]
        candidates = [(rest + ((a, u), (u, v), (u, v), (b, v)), digons + [(u, v)])]
        if a != b and all(m < 2 for _, m in left):
            candidates.append((rest + ((a, u), (b, u), (u, v), (v, v)), loops + [(v,)]))
        for edges, sites in candidates:
            if _inserted_scores_highest(n, edges, sites):
                yield edges


def _edge_candidates(h, res, n: int):
    """The simple edge insertions into h, on 2k = n vertices, whose
    inserted edge scores highest: for one pair of distinct edges a - b and
    c - d per orbit of Aut(h) on such pairs, the graph with a - u - b,
    c - v - d and the inserted u - v in their place, if it is simple."""
    if any(a == b for a, b in h.edges) or len(h.edges) - len(set(h.edges)) > 2:
        return  # a loop, or a repeat the two edges cannot both take away
    u, v = n - 2, n - 1
    pairs = (
        ((i, j), (p, q) if p <= q else (q, p))
        for (i, p), (j, q) in combinations(enumerate(h.edges), 2)
    )
    for i, j in _orbits(pairs, res.aut_generators):
        rest = h.edges[:i] + h.edges[i + 1:j] + h.edges[j + 1:]
        if len(set(rest)) < len(rest):
            continue
        (a, b), (c, d) = h.edges[i], h.edges[j]
        edges = rest + ((a, u), (b, u), (c, v), (d, v), (u, v))
        if _inserted_edge_scores_highest(n, edges):
            yield edges


# the two classes at k = 1: the dumbbell and the theta graph
_K1_EDGES = (((0, 0), (0, 1), (1, 1)), ((0, 1),) * 3)


def labelled_graphs(k: int):
    """enumerate_graphs, yielding each graph with its canonical labelling:
    at k = 1 the dumbbell and the theta graph, and at k >= 2 the digon,
    lollipop and edge insertions into each class at k - 1 whose inserted
    site or edge scores highest, deduplicated by canonical form."""
    n = 2 * k
    if k == 1:
        candidates = _K1_EDGES
    else:
        candidates = (
            edges
            for h, res in labelled_graphs(k - 1)
            for edges in chain(_site_candidates(h, res, n), _edge_candidates(h, res, n))
        )
    seen = set()  # each enc as bytes, a sixth of a tuple's memory
    for edges in candidates:
        labelling = canonicalize(n, edges)
        key = bytes(labelling.enc)
        if key not in seen:
            seen.add(key)
            yield LabelledTrivalentGraph(n, edges), labelling


def enumerate_graphs(k: int):
    """One labelled representative per isomorphism class of connected
    trivalent multigraphs on 2k vertices.  At k = 1 they are the dumbbell
    and the theta graph, listed directly.  For k >= 2 they come from one
    pass over the classes at k - 1, which inserts into a class H, on two
    new vertices u and v:
    - a digon: an edge a - b becomes a - u, u = v, v - b;
    - a lollipop: a non-loop edge a - b becomes a - u - b, and v, with a
      loop, hangs on u;
    - an edge: two distinct edges a - b and c - d become a - u - b and
      c - v - d, and the inserted edge u - v joins them.

    Every class G at k >= 2 is reached:
    - Take G with a non-loop parallel edge.  A triple edge would make G the
      theta graph, so its parallel pair is a digon u = v, and the third
      edges of u and v go to vertices a and b (a = b allowed), neither of
      them u or v.  Deleting u and v and joining a to b (a loop if a = b)
      leaves a connected cubic graph H at k - 1, and replacing that edge of
      H by a - u, u = v, v - b gives G back.
    - Take G with a loop at v and no parallel pair.  The other edge at v
      goes to a vertex w.  w has no loop, or G would be the dumbbell at
      k = 1, so its two other edges go to vertices x and y, neither of them
      v or w, and x != y, as G has no parallel pair.  Deleting v and w and
      joining x to y leaves a cubic graph H at k - 1, connected because a
      path through w ran x - w - y.  Replacing that edge of H, no loop, by
      x - w - y with the lollipop w - v and the loop at v gives G back.
    - Take G simple.  G has a cycle, as it has 3k edges on 2k vertices, so
      some edge x - y of G is not a bridge.  The other neighbours a, b of
      x are distinct, as are those c, d of y, and none of them is x or y.
      Deleting x - y and replacing a - x - b by a - b and c - y - d by
      c - d leaves a cubic graph H at k - 1: connected, because x - y was
      no bridge, and with no loop, as a != b and c != d.  It may have
      parallel edges (K4 at k = 2 gives the theta graph).  Inserting an
      edge into a - b and c - d of H gives G back.
    So inserting a digon into every edge of every class at k - 1, a
    lollipop into every non-loop one, and an edge into every pair of
    distinct edges of every class with no loop reaches every class.
    Isomorphic choices give isomorphic graphs, so one edge per orbit of
    Aut(H) on edges, and one pair per orbit on unordered pairs of distinct
    edges, is enough; parallel edges count as one, as swapping them is an
    automorphism.  The results are deduplicated by canonical form.  A class
    with a loop and a parallel pair comes from the digon step, so a
    lollipop candidate with a parallel pair is dropped before it is
    canonicalized, and every class that is not simple comes from those two
    steps, so an edge candidate with a loop or a parallel pair is dropped
    too (all of them, when H has a loop).  The digon candidates have a
    parallel pair, the lollipop candidates kept have a loop and no parallel
    pair, and the edge candidates kept are simple, so the three steps list
    disjoint classes.  The simple ones number 0, 1, 2, 5, 19 and 85 for
    k = 1..6 (OEIS A002851).

    Most candidates that repeat a class are dropped before they are
    canonicalized, by a score that is an isomorphism invariant.
    - Call the digons of a digon candidate, or the loops of a lollipop
      candidate, its sites.  A candidate with two or more sites is
      canonicalized only if no site has a larger _layer_profile than the
      inserted one.  This keeps every class G.  Pick a site s of G with the
      largest profile, and remove it as above: the graph H_s left is
      isomorphic to a listed class H at k - 1 by a map that sends the
      joined edge into the orbit of the edge e that stands for it.
      Following that map and an automorphism of H, the candidate that
      inserts the same kind of site at e is isomorphic to G by a map that
      sends its inserted site to s.  A profile is an isomorphism invariant,
      so the inserted site's profile is the largest of the candidate's, and
      the candidate is canonicalized.
    - An edge candidate is canonicalized only if no edge that is not a
      bridge has a larger _layer_profile, from its two ends, than the
      inserted edge, which is itself no bridge: H stays connected with its
      two edges subdivided.  This keeps every simple class G in the same
      way.  Pick, among the edges of G that are not bridges, one s with the
      largest profile, and reduce it as above: the graph H_s left is
      isomorphic to a listed class H by a map that sends its two joined
      edges into the orbit of the pair that stands for them, and the
      candidate inserting an edge into that pair is isomorphic to G by a
      map that sends its inserted edge to s.  Being a bridge is an
      isomorphism invariant too, so the candidate is canonicalized.
    Candidates whose inserted site or edge ties for the largest profile are
    all canonicalized and deduplicated as before.

    Which labelled graph represents a class, and the order, follow the
    insertions; neither is part of the contract, only the classes are.
    """
    return [g for g, _ in labelled_graphs(k)]


def classify(labelled):
    """(signed class keys, sorted, as a tuple; zero keys; generators) from
    (graph, canonical labelling or None) pairs; generators holds, for each
    signed key, the Aut generators of the labelling it was read off, in the
    labels of the graph the key spells (graphs.graph_of_key).  A missing
    labelling is computed."""
    signed: dict = {}
    zeros = set()
    for g, res in labelled:
        if res is None:
            res = canonicalize(g.num_vertices, g.edges)
        r = reduce(g, res)
        if r.is_zero:
            zeros.add(r.key)
        elif r.key not in signed:
            signed[r.key] = _canonical_generators(res)
    keys = tuple(sorted(signed))
    return keys, frozenset(zeros), [signed[key] for key in keys]
