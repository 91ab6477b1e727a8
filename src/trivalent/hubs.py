"""The relation rows: one per hub graph reached by contracting a basis edge.

Contracting any non-loop edge produces a graph with one 4-valent hub; the
plain sum of its three trivalent splittings (graphs.IHX_COEFFS are all 1)
gives one relation row per hub graph.  The alternating sign of the
classical relation is not lost: the class signs charge every edge-label
transposition and so carry the middle splitting's minus.  The contraction
that reaches a hub already fixes the class of the splitting that undoes
it, and the hub's automorphisms carry that class over its orbit, so no
splitting is reduced, and one edge per edge orbit of each basis graph is
contracted (hub_rows).
"""

from __future__ import annotations

from .canon import canonicalize, perm_parity
from .graphs import (
    IHX_PAIRINGS,
    FourValentGraph,
    _canonical_edges,
    _canonical_generators,
    _edge_maps,
    _orbits,
    contract_edge,
    half_edges_at,
)


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


def hub_rows(basis, generators) -> list:
    """One row per contracted hub class, zero rows dropped, in the order
    the hubs are first reached (basis order, then edge order).  generators
    gives, for each basis graph in turn, its Aut generators in its labels.

    One pass contracts one non-loop edge e per orbit of Aut(g) on the
    edges of each basis graph g (graphs._orbits; the orbit's first edge)
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
    Aut(g) are read off a canonical labelling (graphs._canonical_generators),
    conjugated into the canonical labels, which are g's: in a cold build
    the labelling the enumerator computed for the graph g came from
    (classes.classify), and for a pinned basis read from the cache, a
    fresh labelling of g itself.  There the conjugating permutation maps
    g onto its canonical form, g, so it is an automorphism of g, and the
    conjugated generators generate Aut(g) too: the orbits, and so the
    rows, do not change.
    """
    # canonical hub edges, flattened into bytes (about a sixth of the memory
    # of a tuple; a vertex label over 255 raises rather than collides)
    # -> the (basis index, sign) class of each splitting reached so far
    hubs: dict = {}
    for i, (g, gens) in enumerate(zip(basis, generators)):
        for e in _orbits(enumerate(zip(g.edges)), gens):  # each edge as a one-pair item
            u, v = g.edges[e]
            if u == v:
                continue
            c = contract_edge(g, e)
            four, labels, action = _canonical_hub(c)
            named = hubs.setdefault(bytes(sum(four.edges, ())), [None] * 3)
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
