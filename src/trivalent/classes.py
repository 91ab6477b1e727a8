"""The classes at one k: listing them, and splitting them into signed and zero.

The classes are the isomorphism classes of connected trivalent multigraphs
on 2k vertices; a class whose automorphisms act oddly on edge labels is
zero.  A search lists the simple classes, and inserting a digon or a
lollipop (a looped vertex hung on a new vertex of an edge) into the classes
at k - 1 gives the others (labelled_graphs, enumerate_graphs).  Each graph
comes with the canonical labelling its deduplication computed, and classify
reads the signed class reps, the zero keys and each rep's automorphism
generators off those labellings, so no graph is canonicalized twice.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .canon import canonicalize
from .graphs import (
    LabelledTrivalentGraph,
    _canonical_generators,
    _edge_orbits,
    reduce_with_representative,
)


def _simple_finals(k: int):
    """The search of enumerate_graphs: each connected simple cubic graph on
    2k vertices, once, with the canonical labelling its deduplication
    computed."""
    n = 2 * k
    seen = set()
    stack = [((), [0], None)]
    while stack:
        edges, deg, res = stack.pop()
        t = len(deg)
        deficient = [v for v in range(t) if deg[v] < 3]
        if not deficient:
            yield LabelledTrivalentGraph(n, edges), res
            continue
        v = max(deficient, key=lambda u: (deg[u], -u))
        need = 3 - deg[v]
        others = [u for u in deficient if u != v]
        for s_old in range(max(0, need - (n - t)), min(need, len(others)) + 1):
            for chosen in combinations(others, s_old):
                new_edges = list(edges)
                new_deg = deg.copy()
                new_deg[v] = 3
                for u in chosen:
                    new_edges.append((u, v) if u < v else (v, u))
                    new_deg[u] += 1
                for _ in range(need - s_old):
                    new_edges.append((v, len(new_deg)))
                    new_deg.append(1)
                nt = len(new_deg)
                if nt == n and len(new_edges) == 3 * k - 1:
                    # two stubs left: the last edge is forced, so dedup the
                    # final, not this state; on one vertex it is a loop
                    short = [u for u in range(n) if new_deg[u] < 3]
                    if len(short) == 1:
                        continue
                    new_edges.append(tuple(short))
                    new_deg = [3] * n
                complete = 2 * len(new_edges) == 3 * nt
                if nt < n and complete:
                    continue  # complete but short of 2k vertices: dead
                res = canonicalize(nt, new_edges)
                key = (nt, res.enc)
                if key in seen:
                    continue
                seen.add(key)
                # only a final needs its labelling after the dedup
                stack.append((tuple(new_edges), new_deg, res if complete else None))



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
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    best = _layer_profile(adj, sites[-1])
    return all(_layer_profile(adj, site) <= best for site in sites[:-1])


def _insertions(k: int):
    """Each class at k >= 2 with a loop or a parallel pair, once, with its
    canonical labelling: a digon, and a lollipop where it leaves no parallel
    pair, inserted into one edge per edge orbit of each class at k - 1.  A
    candidate is canonicalized only if its inserted site scores highest."""
    n = 2 * k
    u, v = n - 2, n - 1
    seen = set()
    for h, res in labelled_graphs(k - 1):
        mult = Counter(h.edges)
        loops = [(x,) for x, y in mult if x == y]
        for i in _edge_orbits(h.edges, res.aut_generators):
            a, b = pair = h.edges[i]
            rest = h.edges[:i] + h.edges[i + 1:]
            # non-loop multiplicities of h with edge i removed
            left = [(p, m - (p == pair)) for p, m in mult.items() if p[0] != p[1]]
            digons = [p for p, m in left if m == 2]
            candidates = [(rest + ((a, u), (u, v), (u, v), (b, v)), digons + [(u, v)])]
            if a != b and all(m < 2 for _, m in left):
                candidates.append((rest + ((a, u), (b, u), (u, v), (v, v)), loops + [(v,)]))
            for edges, sites in candidates:
                if not _inserted_scores_highest(n, edges, sites):
                    continue
                labelling = canonicalize(n, edges)
                if labelling.enc not in seen:
                    seen.add(labelling.enc)
                    yield LabelledTrivalentGraph(n, edges), labelling


# the two classes at k = 1: the dumbbell and the theta graph
_K1_EDGES = (((0, 0), (0, 1), (1, 1)), ((0, 1),) * 3)


def labelled_graphs(k: int):
    """enumerate_graphs, yielding each graph with its canonical labelling."""
    yield from _simple_finals(k)
    if k == 1:
        for edges in _K1_EDGES:
            yield LabelledTrivalentGraph(2, edges), canonicalize(2, edges)
    else:
        yield from _insertions(k)


def enumerate_graphs(k: int):
    """One labelled representative per isomorphism class of connected
    trivalent multigraphs on 2k vertices: the simple classes from a search,
    the others by inserting a digon or a lollipop into the classes at k - 1.

    The search grows partial graphs by completing one deficient vertex at
    a time (largest degree first, smallest index on ties), deduplicating
    partial states by canonical form.  Untouched vertices are
    interchangeable, so a state is just the graph on the touched ones,
    kept with its degree list.

    The touched graph is always connected: it starts as vertex 0, each step
    adds edges only at the vertex v being completed, and each fresh vertex
    is attached to v.  A state with no deficient vertex can therefore never
    grow again: it is a final when it touches all 2k vertices and dead
    otherwise.

    The search makes no loop and no state that repeats an edge: completing
    v joins it to distinct deficient vertices and to distinct fresh ones,
    one edge each.  Nothing else can repeat an edge, because every edge is
    added while one of its ends is completed, so two deficient vertices are
    never adjacent: a new edge (u, v), or a forced last edge (below), is
    never already there.  Adding edges never removes a loop or a parallel
    pair, and having one is an isomorphism invariant, so every state on the
    way to a simple final is itself simple, and the search reaches every
    simple class.

    A state that touches all 2k vertices with two stubs left has one
    completion.  With the stubs on two vertices u < v it is the edge
    (u, v), which is what completing the state would add: the state is
    completed at once and the final deduplicated in its place.  With both
    on one vertex it is a loop, which no simple graph has: the state ends.
    Being such a state is an isomorphism invariant and isomorphic states
    have isomorphic completions, so the classes are unchanged; the state's
    own canonicalization is saved.  The search thus lists the connected
    simple cubic graphs: 0, 1, 2, 5, 19 and 85 of them for k = 1..6 (OEIS
    A002851).

    The other classes come from k - 1.  At k = 1 they are the dumbbell and
    the theta graph, listed directly.  For k >= 2:
    - Take a class G with a non-loop parallel edge.  A triple edge would
      make G the theta graph, so its parallel pair is a digon u = v, and
      the third edges of u and v go to vertices a and b (a = b allowed),
      neither of them u or v.  Deleting u and v and joining a to b (a loop
      if a = b) leaves a connected cubic graph H at k - 1, and replacing
      that edge of H by a - u, u = v, v - b gives G back.
    - Take a class G with a loop at v and no parallel pair.  The other
      edge at v goes to a vertex w.  w has no loop, or G would be the
      dumbbell at k = 1, so its two other edges go to vertices x and y,
      neither of them v or w, and x != y, as G has no parallel pair.
      Deleting v and w and joining x to y leaves a cubic graph H at k - 1,
      connected because a path through w ran x - w - y.  Replacing that
      edge of H, no loop, by x - w - y with the lollipop w - v and the loop
      at v gives G back.  A class with a loop and a parallel pair comes
      from the digon step, so a lollipop candidate with a parallel pair is
      dropped before it is canonicalized.
    So inserting a digon into every edge of every class at k - 1, and a
    lollipop into every non-loop one, reaches every class that is not
    simple.  Isomorphic choices give isomorphic graphs, so one edge per
    orbit of Aut(H) on edges is enough, and the results are deduplicated by
    canonical form.  The digon candidates have a parallel pair, the
    lollipop candidates kept have a loop and no parallel pair, and the
    search's finals have neither, so the three parts are disjoint.

    Most candidates that repeat a class are dropped before they are
    canonicalized.  Call the digons of a digon candidate, or the loops of a
    lollipop candidate, its sites.  A candidate with two or more sites is
    canonicalized only if no site has a larger _layer_profile than the
    inserted one.  This keeps every class G.  Pick a site s of G with the
    largest profile, and remove it as above: the graph H_s left is
    isomorphic to a listed class H at k - 1 by a map that sends the joined
    edge into the orbit of the edge e that stands for it.  Following that
    map and an automorphism of H, the candidate that inserts the same kind
    of site at e is isomorphic to G by a map that sends its inserted site
    to s.  A profile is an isomorphism invariant, so the inserted site's
    profile is the largest of the candidate's, and the candidate is
    canonicalized.  Candidates whose inserted site ties for the largest
    profile are all canonicalized and deduplicated as before.

    Which labelled graph represents a class, and the order, follow the
    search and the insertions; neither is part of the contract, only the
    classes are.
    """
    return [g for g, _ in labelled_graphs(k)]


def classify(labelled):
    """(signed class reps sorted by key, zero keys, generators) from
    (graph, canonical labelling or None) pairs; generators holds, for each
    rep, the Aut generators of the labelling it was read off, in the rep's
    labels.  A missing labelling is computed."""
    signed: dict = {}
    zeros = set()
    for g, res in labelled:
        if res is None:
            res = canonicalize(g.num_vertices, g.edges)
        r, rep = reduce_with_representative(g, res)
        if r.is_zero:
            zeros.add(r.key)
        elif r.key not in signed:
            signed[r.key] = rep, _canonical_generators(res)
    keys = sorted(signed)
    return [signed[key][0] for key in keys], frozenset(zeros), [signed[key][1] for key in keys]
