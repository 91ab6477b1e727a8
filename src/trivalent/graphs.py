"""Labelled trivalent multigraphs: validation, reduction, contraction, arrows.

A graph on 2k vertices carries 3k labelled edges (the list position is the
label).  Loops and parallel edges are allowed; loops contribute 2 to the
degree of their vertex.  Reduction sends a labelled graph to its class under
relabelling: swapping two edge labels flips the sign, swapping two vertex
labels keeps it, and a class is zero exactly when some automorphism induces
an odd permutation of the edge labels.
"""

from __future__ import annotations

import functools
import itertools
from math import factorial, prod

from ._record import Record
from .canon import CanonResult, canonicalize, close_group, perm_parity


class GraphError(Exception):
    """Base class for graph-domain errors."""


class NonTrivalentError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class WrongEdgeCountError(GraphError):
    pass


class LoopContractionError(GraphError):
    pass


class LabelledTrivalentGraph(Record):
    """Connected trivalent multigraph; edge-list position is the edge label."""

    num_vertices: int
    edges: tuple

    @property
    def k(self) -> int:
        return self.num_vertices // 2

    def to_json(self) -> dict:
        return {"vertices": self.num_vertices, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data: dict) -> "LabelledTrivalentGraph":
        return validate(data["vertices"], data["edges"])


def _adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _connected(num_vertices: int, edges) -> bool:
    if num_vertices == 0:
        return False
    adj = _adjacency(num_vertices, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == num_vertices


def strict_int(value, field: str) -> int:
    """value itself if it is an int; a bool, float or str is a ValueError
    naming the field, so that no input number is silently truncated."""
    if type(value) is not int:
        raise ValueError(f"{field} {value!r} is not an integer")
    return value


def strict_pair(value, field: str) -> tuple:
    """value as a pair of ints if it is a two-item list or tuple of ints;
    anything else is a ValueError naming the field."""
    if type(value) not in (list, tuple) or len(value) != 2:
        raise ValueError(f"{field} {value!r} is not a pair")
    return strict_int(value[0], f"{field} end"), strict_int(value[1], f"{field} end")


def validate(num_vertices: int, edges) -> LabelledTrivalentGraph:
    """Check degrees, connectivity and the edge count; return the graph."""
    num_vertices = strict_int(num_vertices, "vertex count")
    edges = tuple(strict_pair(e, "edge") for e in edges)
    if num_vertices <= 0 or num_vertices % 2 != 0:
        raise NonTrivalentError(f"vertex count {num_vertices} is not a positive even number")
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise NonTrivalentError(f"edge ({u},{v}) out of range")
    if len(edges) != 3 * num_vertices // 2:
        raise WrongEdgeCountError(
            f"expected {3 * num_vertices // 2} edges for {num_vertices} vertices, got {len(edges)}"
        )
    deg = [0] * num_vertices
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for v, d in enumerate(deg):
        if d != 3:
            raise NonTrivalentError(f"vertex {v} has degree {d}")
    if not _connected(num_vertices, edges):
        raise DisconnectedError("graph is not connected")
    return LabelledTrivalentGraph(num_vertices, edges)


class GraphClass(Record):
    """Reduction of a labelled graph: canonical key plus sign, or zero."""

    key: str
    sign: int | None

    @property
    def is_zero(self) -> bool:
        return self.sign is None


class Automorphism(Record):
    """Compatible pair of a vertex permutation and an edge permutation."""

    vertex_perm: tuple
    edge_perm: tuple

    @property
    def edge_parity(self) -> int:
        return perm_parity(self.edge_perm)


@functools.cache
def _pair_texts(num_vertices: int) -> tuple:
    """The "a-b" text of each pair of vertices, at its code num_vertices * a + b."""
    return tuple([f"{a}-{b}" for a in range(num_vertices) for b in range(num_vertices)])


def canonical_key(num_vertices: int, pairs) -> str:
    """The class key cub:<n>:<a>-<b>,... of the sorted pairs of vertices,
    each pair's text looked up in one table (_pair_texts)."""
    table = _pair_texts(num_vertices)
    texts = [table[num_vertices * a + b] for a, b in sorted(pairs)]
    return f"cub:{num_vertices}:" + ",".join(texts)


def _keys_of_codes(num_vertices: int, codes, num_pairs: int) -> tuple:
    """canonical_key of consecutive graphs of num_pairs sorted pairs each,
    from the code num_vertices * a + b of each pair (a, b) on num_vertices
    vertices: each pair's text is looked up in one table (_pair_texts), and
    no format runs per key."""
    texts = list(map(_pair_texts(num_vertices).__getitem__, codes))
    head = f"cub:{num_vertices}:"
    starts = range(0, len(texts), num_pairs)
    return tuple([head + ",".join(texts[i : i + num_pairs]) for i in starts])


def graph_of_key(key: str) -> LabelledTrivalentGraph:
    """The graph a class key spells, canonical_key's inverse: the key's
    pairs, in order, are its edge list.  For a key reduce gave, that is the
    class's canonical representative, which reduces back to the key, with
    sign +1 for a signed class."""
    _, n, text = key.split(":")
    ends = list(map(int, text.replace("-", ",").split(",")))
    return LabelledTrivalentGraph(int(n), tuple(zip(ends[::2], ends[1::2])))


def _canonical_edges(edges, perm):
    """(pairs, order): the edges relabelled by the vertex map perm, low end
    first, stable-sorted, and the sort order, so pairs[j] is the image of
    edge order[j] and tied (parallel) edges keep their order."""
    pairs = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        pairs.append((a, b) if a <= b else (b, a))
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    return tuple(pairs[i] for i in order), order


def _canonical_generators(res: CanonResult):
    """res.aut_generators conjugated into the canonical labels res.perm
    gives, as lists."""
    perm = res.perm
    out = []
    for phi in res.aut_generators:
        psi = [0] * len(phi)
        for v, w in enumerate(phi):
            psi[perm[v]] = perm[w]
        out.append(psi)
    return out


def _signed_generators(pairs, res: CanonResult):
    """Yield (eperm, flip, sign) for each generator of the automorphism
    group of the graph whose edges are the sorted pairs in res's canonical
    labels, its loops having two ends: the generator maps edge j to edge
    eperm[j], swaps the ends of the loop flip if flip is not None, and
    multiplies the graph's class by sign.  In this order, so that a test
    for a sign -1 seldom reads past the first:
    - each transposition of two parallel edges (or loops), sign -1;
    - each vertex generator of res, conjugated into canonical labels, by
      its edge map (parallel edges kept in order, loop ends kept), sign
      the map's parity;
    - the flip of each loop, sign +1.
    These generate the whole group: the vertex generators give every vertex
    automorphism, and the transpositions and flips every one over the
    identity."""
    ident = list(range(len(pairs)))
    for j in range(1, len(pairs)):
        if pairs[j - 1] == pairs[j]:
            swap = ident[:]
            swap[j - 1], swap[j] = j, j - 1
            yield swap, None, -1
    first: dict = {}
    for j, pair in enumerate(pairs):
        first.setdefault(pair, j)
    for psi in _canonical_generators(res):
        eperm = []
        for j, (a, b) in enumerate(pairs):
            x, y = psi[a], psi[b]
            eperm.append(first[(x, y) if x <= y else (y, x)] + j - first[a, b])
        yield eperm, None, perm_parity(eperm)
    for j, (a, b) in enumerate(pairs):
        if a == b:
            yield ident, j, 1


def _orbits(items, generators):
    """The label of the first item of each orbit of the vertex permutations
    in generators, in input order, from (label, item) pairs.  An item is a
    sorted tuple of vertex pairs (a, b), a <= b, as the enumerator builds
    them: one pair for an edge, two for a pair of distinct edges.  Parallel
    edges are the same pair, so they are one edge, and two of them make one
    edge pair (p, p), as the edge maps over the identity swap them."""
    reps = []
    seen = set()
    for label, item in items:
        if item in seen:
            continue
        reps.append(label)
        seen.add(item)
        orbit = [item]
        for item in orbit:  # the orbit grows as it is walked
            for phi in generators:
                image = []
                for a, b in item:
                    x, y = phi[a], phi[b]
                    image.append((x, y) if x <= y else (y, x))
                image.sort()
                image = tuple(image)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return reps


def has_parallel_edge(g: LabelledTrivalentGraph) -> bool:
    """Whether two edges join the same two distinct vertices.  Relabelling
    keeps multiplicities, so such a graph reduces to zero."""
    pairs = sorted((u, v) if u <= v else (v, u) for u, v in g.edges)
    return any(p == q and p[0] != p[1] for p, q in zip(pairs, pairs[1:]))


def reduce(g: LabelledTrivalentGraph, res: CanonResult | None = None) -> GraphClass:
    """Canonical key plus the sign of the edge relabelling, or zero.

    res is the canonical labelling canonicalize(g.num_vertices, g.edges) if
    the caller has it; without it a fresh one is computed.  Zero happens
    exactly when some automorphism permutes the edge labels oddly, that is
    when one of the generators _signed_generators lists has sign -1 (the
    sign is multiplicative, so generators suffice).
    """
    if res is None:
        res = canonicalize(g.num_vertices, g.edges)
    pairs, order = _canonical_edges(g.edges, res.perm)
    odd = any(sign < 0 for _, _, sign in _signed_generators(pairs, res))
    return GraphClass(canonical_key(g.num_vertices, pairs), None if odd else perm_parity(order))


def automorphisms(g: LabelledTrivalentGraph, res: CanonResult | None = None):
    """Full automorphism group as (elements, |Aut|, |Aut_e|, |Aut_v|).

    Aut_e (vertex-fixing automorphisms) permutes each parallel class
    freely, so |Aut_e| is the product of m! over the edge multiplicities m;
    a loop has no flip of its own.  Each vertex automorphism lifts to
    |Aut_e| of them, so |Aut| = |Aut_e| * |Aut_v|, and no order is counted
    off a listing.  elements is an iterator over the Automorphism pairs,
    vertex permutation by vertex permutation, built only as it is read, so
    it can be read once.  res is g's canonical labelling if the caller has
    it, as for reduce.
    """
    if res is None:
        res = canonicalize(g.num_vertices, g.edges)
    vgroup = close_group(g.num_vertices, res.aut_generators)
    classes: dict = {}
    for i, (u, v) in enumerate(g.edges):
        classes.setdefault((u, v) if u <= v else (v, u), []).append(i)
    class_pairs = sorted(classes)
    aut_e = prod(factorial(len(members)) for members in classes.values())

    def elements():
        for phi in vgroup:
            targets = []
            for p in class_pairs:
                a, b = phi[p[0]], phi[p[1]]
                targets.append(classes[(a, b) if a <= b else (b, a)])
            for assignment in itertools.product(
                *[itertools.permutations(t) for t in targets]
            ):
                eperm = [0] * len(g.edges)
                for p, images in zip(class_pairs, assignment):
                    for src, dst in zip(classes[p], images):
                        eperm[src] = dst
                yield Automorphism(phi, tuple(eperm))

    return elements(), aut_e * len(vgroup), aut_e, len(vgroup)


class FourValentGraph(Record):
    """Multigraph with one 4-valent hub, the rest trivalent.

    tagging lists the hub's four half-edges as (edge_label, end) pairs in a
    fixed order; end 0/1 names the first/second entry of the stored pair.
    """

    num_vertices: int
    edges: tuple
    hub: int
    tagging: tuple


def half_edges_at(edges, v, skip=None):
    out = []
    for i, (a, b) in enumerate(edges):
        if i == skip:
            continue
        if a == v:
            out.append((i, 0))
        if b == v:
            out.append((i, 1))
    return out


def contract_edge(g: LabelledTrivalentGraph, e: int) -> FourValentGraph:
    """Contract the non-loop edge e, merging its endpoints into a 4-valent hub.

    The tagging lists the two stubs formerly at the lower-labelled endpoint
    first (in edge-label order), then the two formerly at the other endpoint.
    """
    if not (0 <= e < len(g.edges)):
        raise GraphError(f"no edge {e}")
    a, b = g.edges[e]
    if a == b:
        raise LoopContractionError(f"edge {e} is a loop")
    lo, hi = (a, b) if a < b else (b, a)
    stubs = half_edges_at(g.edges, lo, skip=e) + half_edges_at(g.edges, hi, skip=e)

    def vmap(w):
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    new_edges = []
    for i, (u, v) in enumerate(g.edges):
        if i == e:
            continue
        new_edges.append((vmap(u), vmap(v)))
    new_tagging = tuple((i - 1 if i > e else i, end) for i, end in stubs)
    return FourValentGraph(g.num_vertices - 1, tuple(new_edges), lo, new_tagging)


# The three splittings of a 4-valent hub pair the tagged stubs as
# {1,2|3,4}, {1,3|2,4}, {1,4|2,3}.  Because reduce() already charges a sign
# for every edge-label transposition, the classical alternating form of the
# triple relation becomes a plain sum here: the middle splitting's minus is
# carried by the class signs themselves.
IHX_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
IHX_COEFFS = (1, 1, 1)


def ihx_expansions(c: FourValentGraph, new_edge_label: int):
    """The three trivalent expansions of the hub with their coefficients.

    The hub keeps its index and takes the first pair of stubs; the second
    pair moves to a fresh vertex appended at the end; the new edge joining
    them is inserted at new_edge_label.  Vertex labels never affect signs.
    """
    out = []
    w = c.num_vertices
    for coeff, pairing in zip(IHX_COEFFS, IHX_PAIRINGS):
        edges = [list(e) for e in c.edges]
        for slot in pairing[2:]:
            ei, end = c.tagging[slot]
            edges[ei][end] = w
        edges = [tuple(e) for e in edges]
        edges.insert(new_edge_label, (c.hub, w))
        out.append((coeff, validate(c.num_vertices + 1, edges)))
    return out


class ArrowGraph(Record):
    """Trivalent graph with one direction per edge; no vertex is a source
    or a sink (a loop supplies its vertex with both an inflow and an
    outflow)."""

    graph: LabelledTrivalentGraph
    directions: tuple

    def to_json(self) -> dict:
        return {**self.graph.to_json(), "directions": [list(d) for d in self.directions]}

    def out_in_counts(self, v: int):
        out = inn = 0
        for t, h in self.directions:
            if t == v:
                out += 1
            if h == v:
                inn += 1
        return out, inn


def make_arrow(g: LabelledTrivalentGraph, directions) -> ArrowGraph:
    directions = tuple(strict_pair(d, "direction") for d in directions)
    if len(directions) != len(g.edges):
        raise GraphError("one direction per edge required")
    for (t, h), (u, v) in zip(directions, g.edges):
        if {t, h} != {u, v}:
            raise GraphError(f"direction ({t},{h}) does not match edge ({u},{v})")
    a = ArrowGraph(g, directions)
    for v in range(g.num_vertices):
        out, inn = a.out_in_counts(v)
        if out == 0 or inn == 0:
            raise GraphError(f"vertex {v} is a source or sink")
    return a


def _arrow_orientations(g: LabelledTrivalentGraph):
    """Every orientation leaving each vertex an outgoing and an incoming
    end, in label order with the stored direction first.

    A depth-first search over the edges abandons a partial orientation as
    soon as some vertex can no longer get both; a vertex's last edge is
    placed only if it then has both, so every leaf is valid.  The search
    keeps its own stack, one entry per placed edge, so a graph of any size
    stays within the interpreter's recursion limit.
    """
    n = g.num_vertices
    m = len(g.edges)
    options = [((u, v),) if u == v else ((u, v), (v, u)) for u, v in g.edges]
    remaining = [3] * n
    out = [0] * n
    inn = [0] * n
    chosen: list = []
    tried = [0]  # tried[i]: how many directions of edge i have been placed

    def feasible(v):
        return out[v] + remaining[v] >= 1 and inn[v] + remaining[v] >= 1

    def shift(t, h, step):
        out[t] += step
        inn[h] += step
        remaining[t] -= step
        remaining[h] -= step  # a loop spends both of its ends here

    while tried:
        i = len(chosen)
        if i < m and tried[i] < len(options[i]):
            t, h = options[i][tried[i]]
            tried[i] += 1
            shift(t, h, 1)
            if feasible(t) and feasible(h):
                chosen.append((t, h))
                tried.append(0)
            else:
                shift(t, h, -1)
            continue
        if i == m:
            yield ArrowGraph(g, tuple(chosen))
        # no edge i is left to place, or no direction of it to try: take
        # back edge i - 1's direction and try its next
        tried.pop()
        if chosen:
            shift(*chosen.pop(), -1)


def find_arrow_orientation(g: LabelledTrivalentGraph) -> ArrowGraph:
    """The first of all_arrow_orientations(g)."""
    a = next(_arrow_orientations(g), None)
    if a is None:
        raise GraphError("no source/sink-free orientation exists")
    return a


def all_arrow_orientations(g: LabelledTrivalentGraph):
    """Every valid edge orientation, in label order with the stored
    direction first."""
    return list(_arrow_orientations(g))
