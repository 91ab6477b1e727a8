"""The span of trivalent graph classes modulo the local triple relation.

For each k the space is spanned by isomorphism classes of connected
trivalent multigraphs on 2k vertices, with classes whose automorphisms act
oddly on edge labels already zero.  A search lists the simple classes,
and inserting a digon or a lollipop (a looped vertex hung on a new vertex
of an edge) into the classes at k - 1 gives the others (enumerate_graphs).
Contracting any non-loop edge produces a graph with one 4-valent hub; the
plain sum of its three trivalent splittings (graphs.IHX_COEFFS are all 1)
gives one relation row per hub graph.  The alternating sign of the
classical relation is not lost: the class signs charge every edge-label
transposition and so carry the middle splitting's minus.  The contraction
that reaches a hub already fixes the class of the splitting that undoes
it, and the hub's automorphisms carry that class over its orbit, so no
splitting is reduced, and one edge per edge orbit of each basis graph is
contracted (GraphSpace.relation_rows).  Dimensions come from modular ranks
at several large random primes, cross-checked exactly at small k by the
tests.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .cache import Cache
from .canon import canonicalize, perm_parity
from .graphs import (
    IHX_PAIRINGS,
    FourValentGraph,
    LabelledTrivalentGraph,
    _canonical_edges,
    _canonical_generators,
    _edge_maps,
    canonical_key,
    contract_edge,
    half_edges_at,
    has_parallel_edge,
    reduce,
    reduce_with_representative,
)
from .linalg import exact_rref, gen_primes, rank_mod_p, reduce_vector


class PrimeDisagreementError(Exception):
    """Modular ranks kept disagreeing across retries."""


DEFAULT_SEED = 74207281
DEFAULT_PRIME_COUNT = 3


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


def _edge_orbits(edges, generators):
    """The index of the first edge of each orbit of the vertex permutations
    in generators on the distinct edges, in edge order; each edge must have
    a <= b, as the enumerator builds them.  Parallel edges are one pair, so
    they share an orbit, as the edge maps over the identity swap them."""
    reps = []
    seen = set()
    for i, pair in enumerate(edges):
        if pair in seen:
            continue
        reps.append(i)
        seen.add(pair)
        todo = [pair]
        while todo:
            a, b = todo.pop()
            for phi in generators:
                x, y = phi[a], phi[b]
                image = (x, y) if x <= y else (y, x)
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
    return reps


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
    for h, res in _labelled_finals(k - 1):
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


def _labelled_finals(k: int):
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
    return [g for g, _ in _labelled_finals(k)]


def _classify(labelled):
    """classify over (graph, canonical labelling or None) pairs; the middle
    list holds, for each rep, the labelling of the graph it came from."""
    signed: dict = {}
    zeros = set()
    for g, res in labelled:
        r, rep = reduce_with_representative(g, res)
        if r.is_zero:
            zeros.add(r.key)
        elif r.key not in signed:
            signed[r.key] = rep, res
    keys = sorted(signed)
    return [signed[key][0] for key in keys], [signed[key][1] for key in keys], frozenset(zeros)


def classify(graphs):
    """Split labelled graphs into (signed class reps sorted by key, zero keys)."""
    reps, _, zeros = _classify((g, None) for g in graphs)
    return reps, zeros


# a pair of tagged hub stubs, as a bit mask -> the splitting that pairs them
_SPLITTING_OF_PAIR = {
    1 << a | 1 << b: p for p, pairing in enumerate(IHX_PAIRINGS)
    for a, b in (pairing[:2], pairing[2:])
}


def _splitting_map(four: FourValentGraph, eperm, flip=None):
    """(images, sign) for the automorphism of the hub graph four that maps
    edge j to edge eperm[j] and, if flip is a hub loop, swaps its two ends.

    It carries the splitting IHX_PAIRINGS[p] onto IHX_PAIRINGS[images[p]],
    relabelling vertices and permuting edge labels by eperm, the new edge
    keeping the last label; so it multiplies the class by sign, the parity
    of eperm."""
    slot = {stub: t for t, stub in enumerate(four.tagging)}
    sigma = []
    for label, end in four.tagging:
        image = eperm[label]
        a, b = four.edges[image]
        if a != b:
            end = 0 if a == four.hub else 1
        elif label == flip:
            end = 1 - end
        sigma.append(slot[image, end])
    images = tuple(
        _SPLITTING_OF_PAIR[1 << sigma[a] | 1 << sigma[b]] for a, b, _, _ in IHX_PAIRINGS
    )
    return images, perm_parity(eperm)


def _canonical_hub(c: FourValentGraph):
    """(four, labels, action) for a hub graph c.

    four is c relabelled canonically, its edges sorted, its tagging the
    hub's stubs in (edge label, end) order.  labels[i] is the canonical
    label of c's edge i: the sort of the canonical pairs is stable, so tied
    (parallel) edges keep c's order.  action holds the _splitting_map of
    each generator of four's automorphism group, as a graph whose loops
    have two ends:
    - each vertex automorphism generator of the canonical labelling,
      conjugated into canonical labels, with the edge map that keeps the
      order of parallel edges (a hub loop keeps its ends);
    - each transposition of two parallel edges, sign -1;
    - the flip of each loop at the hub, sign +1.
    The vertex generators generate the vertex automorphisms, and the
    automorphisms over the identity permute parallel edges and flip loops,
    so these generate the whole group, except for the flips of loops away
    from the hub, which move no hub stub and keep every edge label.
    """
    res = canonicalize(c.num_vertices, c.edges)
    edges, order = _canonical_edges(c.edges, res.perm)
    labels = [0] * len(order)
    for j, i in enumerate(order):
        labels[i] = j
    hub = res.perm[c.hub]
    four = FourValentGraph(c.num_vertices, edges, hub, tuple(half_edges_at(edges, hub)))
    action = [_splitting_map(four, m) for m in _edge_maps(edges, _canonical_generators(res))]
    ident = list(range(len(edges)))
    for j in range(1, len(edges)):
        if edges[j - 1] == edges[j]:
            swap = ident[:]
            swap[j - 1], swap[j] = j, j - 1
            action.append(_splitting_map(four, swap))
    for j, (a, b) in enumerate(edges):
        if a == b == hub:
            action.append(_splitting_map(four, ident, flip=j))
    return four, labels, action


def _spread(named: list, p: int, action) -> None:
    """Give each splitting in the orbit of splitting p under the maps in
    action its class, from named[p] = (basis index, sign)."""
    todo = [p]
    while todo:
        q = todo.pop()
        i, sign = named[q]
        for images, s in action:
            r = images[q]
            if named[r] is None:
                named[r] = (i, sign * s)
                todo.append(r)


def _rebuilt_splitting(e: int, c: FourValentGraph, four: FourValentGraph, labels):
    """(p, parity): the splitting IHX_PAIRINGS[p] of the canonical hub four
    of c = contract_edge(g, e) that rebuilds g, and the parity of the map
    from g's edge labels to that splitting's (edge e is the new edge, the
    last label).  g must have no edge parallel to e, so that each hub edge
    label belongs to one endpoint of e: a signed class has none."""
    m = len(labels) + 1
    # contract_edge tags the two stubs of e's lower endpoint first
    low = {labels[c.tagging[0][0]], labels[c.tagging[1][0]]}
    side = [label in low for label, _ in four.tagging]
    # IHX_PAIRINGS[p] keeps tagged stub 0 with stub p + 1
    partner = next(s for s in (1, 2, 3) if side[s] == side[0])
    sigma = [labels[i - (i > e)] if i != e else m - 1 for i in range(m)]
    return partner - 1, perm_parity(sigma)


class GraphSpace:
    """All classes at one k: basis, relation rows, rank, reduction."""

    def __init__(self, k: int, cache: Cache | None = None):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._cache = cache
        self._basis = None
        self._generators = None  # Aut generators of a basis built here, not read
        self._keys = None
        self._zeros = None
        self._rows = None
        self._rref = None
        self._index = None

    # -- basis ------------------------------------------------------------

    def _set_classes(self, basis, zeros) -> bool:
        """Adopt a basis unless its keys fail to increase strictly, as
        classify writes them; basis positions index every row and vector."""
        keys = tuple(canonical_key(g.num_vertices, g.edges) for g in basis)
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return False
        self._basis, self._keys, self._zeros = tuple(basis), keys, frozenset(zeros)
        return True

    def _load(self, kind: str, basis_keys=None):
        return None if self._cache is None else self._cache.load(self.k, kind, basis_keys)

    def _store(self, kind: str, value, basis_keys=None) -> None:
        if self._cache is not None:
            self._cache.store(self.k, kind, value, basis_keys)

    def _cached(self, kind: str, build):
        """A kind that indexes the basis, read from the cache or built and stored."""
        value = self._load(kind, self.keys)
        if value is None:
            value = build()
            self._store(kind, value, self.keys)
        return value

    def _ensure_classes(self):
        if self._basis is not None:
            return
        basis, zeros = self._load("basis"), self._load("zeros")
        if basis is not None and zeros is not None and self._set_classes(basis, zeros):
            return
        reps, labellings, zeros = _classify(_labelled_finals(self.k))
        self._set_classes(reps, zeros)  # classify sorts by key, so this holds
        self._generators = [_canonical_generators(res) for res in labellings]
        self._store("basis", reps)
        self._store("zeros", zeros)

    @property
    def basis(self):
        self._ensure_classes()
        return self._basis

    @property
    def keys(self):
        """The class key of each basis representative, in basis order."""
        self._ensure_classes()
        return self._keys

    @property
    def zero_keys(self):
        self._ensure_classes()
        return self._zeros

    @property
    def num_classes(self) -> int:
        return len(self.basis) + len(self.zero_keys)

    def _key_index(self):
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self.keys)}
        return self._index

    # -- vectors ----------------------------------------------------------

    def class_vector(self, g: LabelledTrivalentGraph) -> dict:
        """Sparse coefficient vector of the class of a labelled graph."""
        if g.k != self.k:
            raise ValueError(f"graph has {g.num_vertices} vertices, space expects {2 * self.k}")
        if has_parallel_edge(g):
            return {}
        return self._vector(reduce(g))

    def _vector(self, r) -> dict:
        """class_vector from the graph's reduction r."""
        if r.is_zero:
            return {}
        idx = self._key_index()
        if r.key not in idx:
            raise ValueError("graph class missing from the enumerated basis")
        return {idx[r.key]: r.sign}

    def _basis_generators(self, i: int, g: LabelledTrivalentGraph):
        """Generators of the vertex automorphisms of basis graph i, g, in
        g's labels.  A cached basis graph must be its class's canonical
        representative (class_vector gives exactly {i: 1}); the labelling
        that checks it gives the generators."""
        if self._generators is not None:
            return self._generators[i]
        if g.k == self.k and not has_parallel_edge(g):
            res = canonicalize(g.num_vertices, g.edges)
            if self._vector(reduce(g, res)) == {i: 1}:
                return res.aut_generators
        raise ValueError(f"basis graph {i} is not a canonical class representative")

    # -- relations ----------------------------------------------------------

    def relation_rows(self):
        """One row per contracted hub class, zero rows dropped, in the order
        the hubs are first reached (basis order, then edge order).

        One pass contracts one non-loop edge e per orbit of Aut(g) on the
        edges of each basis graph g (_edge_orbits; the orbit's first edge)
        and groups the contractions by canonical hub.  Each contraction names
        the splitting of its hub that rebuilds g, and the parity of the
        edge-label map from g to that splitting (_rebuilt_splitting).
        Relabelling vertices keeps a class and permuting edge labels
        multiplies it by the permutation's sign, so the named splitting's
        class is g's basis vector times the parity.  That class spreads
        over the splitting's orbit under the hub's automorphisms
        (_canonical_hub, _spread): an automorphism a of the hub graph H
        with edge map eps carries h_P onto h_a(P), relabelling vertices
        and permuting edge labels by eps while the new edge keeps the last
        label, so the class of h_a(P) is sign(eps) times that of h_P.  A
        splitting the spread never reaches is zero.  No splitting is
        reduced.

        Why the unreached splittings are zero.  Let the splitting h_P of
        the canonical hub graph H have a nonzero class.  Then h_P is
        isomorphic to a basis graph g, by a map f that sends h_P's new edge
        to an edge e of g; e is no loop, as the new edge joins two
        vertices.  Contracting h_P at its new edge gives H back, so
        contract_edge(g, e) is isomorphic to H and the pass groups (g, e)
        under H.  Following f, the contraction and the canonical labelling
        of contract_edge(g, e) maps H onto itself: an automorphism a of H,
        which fixes the hub, its only 4-valent vertex.  a carries the stubs
        P keeps at the hub to the stubs of one end of e, so (g, e) names
        the splitting a(P), and P lies in its orbit.  The maps in action
        come from generators of the finite group Aut(H), so following them
        forward from a splitting reaches its whole orbit.  A splitting is
        only ever reached by a contraction, which spreads it, or by a
        spread over an orbit it shares; so P is reached.  A rigid hub (no
        automorphism moves a hub stub) is the case of singleton orbits:
        each of its nonzero splittings is named by a contraction.

        Why one edge per orbit is enough.  Let a be a vertex automorphism
        of g that maps the non-loop edge e to e'.  It maps contract_edge(g,
        e) onto contract_edge(g, e'), so both group under the same canonical
        hub H, and with the two canonical labellings it gives an automorphism
        b of H.  b carries the stubs of each end of e to the stubs of an end
        of e', so the splitting (g, e') names is b of the one (g, e) names:
        the two share an orbit, and a spread from either reaches the other.
        So in the proof above, the contraction (g, e) may be replaced by
        (g, e0), e0 the first edge of e's orbit, which the pass contracts.
        A hub first reached at (g, e) is reached at (g, e0) no later, so the
        hubs are first reached in the order of the pass over every edge, and
        each splitting reached gets its own class either way: the rows and
        their order are those of contracting every edge.  The generators of
        Aut(g) are those of the labelling the enumerator computed for the
        graph g came from, conjugated into g's labels, or, for a basis read
        from the cache, those of the labelling that checks it.

        The rule needs each basis graph to be its class's canonical
        representative, as classify writes it: class_vector must give
        basis graph i exactly {i: 1}.  A basis read from the cache is
        checked, and one that fails is a ValueError, not a row set with a
        column missing; a basis classified here holds by construction.
        """
        if self._rows is None:
            self._rows = self._cached("relations", self._hub_rows)
        return self._rows

    def _hub_rows(self):
        """The pass of relation_rows over one edge per edge orbit."""
        # canonical hub edges, flattened to half the memory of the pairs
        # -> the (basis index, sign) class of each splitting reached so far
        hubs: dict = {}
        for i, g in enumerate(self.basis):
            for e in _edge_orbits(g.edges, self._basis_generators(i, g)):
                u, v = g.edges[e]
                if u == v:
                    continue
                c = contract_edge(g, e)
                four, labels, action = _canonical_hub(c)
                named = hubs.setdefault(sum(four.edges, ()), [None] * 3)
                p, parity = _rebuilt_splitting(e, c, four, labels)
                if named[p] is None:
                    named[p] = (i, parity)
                    _spread(named, p, action)
        rows = []
        for named in hubs.values():
            row: dict = {}
            for term in named:
                if term is not None:
                    i, v = term
                    row[i] = row.get(i, 0) + v
            row = {i: v for i, v in row.items() if v}
            if row:
                rows.append(row)
        return rows

    # -- rank and dimension -------------------------------------------------

    def dimension(self, primes: int = DEFAULT_PRIME_COUNT, seed: int = DEFAULT_SEED) -> int:
        rows = self.relation_rows()
        if not rows:
            return len(self.basis)
        for attempt in range(3):
            ranks = [rank_mod_p(rows, p) for p in gen_primes(primes, seed + attempt)]
            if len(set(ranks)) == 1:
                return len(self.basis) - ranks[0]
        raise PrimeDisagreementError(f"ranks still disagree after retries: {ranks}")

    def exact_dimension(self) -> int:
        """Dimension via fraction-exact elimination: the pivots of the rref
        that normal_form uses.  Slower than the modular ranks; a check."""
        return len(self.basis) - len(self._ensure_rref())

    # -- normal form ----------------------------------------------------------

    def _ensure_rref(self):
        if self._rref is None:
            self._rref = self._cached("rref", lambda: exact_rref(self.relation_rows()))
        return self._rref

    def normal_form(self, vec: dict) -> dict:
        """Residual of a coefficient vector against the relation span.

        Linear and idempotent; vanishes exactly on combinations of relation
        rows, so equal normal forms mean equal classes in the quotient.
        """
        return reduce_vector(vec, self._ensure_rref())

    def reduce_graph(self, g: LabelledTrivalentGraph) -> dict:
        return self.normal_form(self.class_vector(g))


def dimension(k: int, cache: Cache | None = None, **kw) -> int:
    return GraphSpace(k, cache).dimension(**kw)
