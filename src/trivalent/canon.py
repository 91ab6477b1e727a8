"""Canonical labelling of small multigraphs.

Vertices are 0..n-1.  Edges are unordered pairs (u, v); u == v is a loop and
parallel edges are allowed.  Canonicalization is by iterative colour
refinement plus individualization with backtracking, minimizing the
by-placement lower-triangular adjacency encoding.  Each encoding tie gives
an automorphism, and the automorphisms found prune the rest of the search;
those returned generate the full vertex automorphism group, no two alike.

Each search node costs little:

- The graph is an n x n multiplicity matrix with the loop counts on the
  diagonal, so encoding row t is the t-th placed vertex's matrix row read
  at the placed vertices 0..t.
- Nodes carry their cells.  A colouring is the ordered cell list, each cell
  stored at its first slot in that order, and a vertex's colour is that
  slot.  Individualizing v splits its cell into [v] and the rest; no other
  cell moves.  Slots number the cells in the order dense ranks do, so
  signatures compare as they would under ranks.
- Refinement re-signs only what can change.  Each pass re-signs the
  non-singleton cells with a neighbour in a cell that split in the pass
  before; the other cells were equitable and stay whole.  A cell's pieces
  take signature order (sorted neighbour colour and multiplicity pairs,
  all from the colours the pass started with), which is the order a full
  re-ranking by (old colour, signature) gives them.
- A child's leading singletons extend its parent's, so the child extends
  the parent's encoding prefix in place and compares it with the best
  encoding so far as one list.

The search tree and its node order are those of the plain algorithm
(re-rank every vertex every pass, rebuild the prefix at every node).  A
node's placed vertices are its leading singletons; its children
individualize, in turn, the vertices of its first cell that is not a
singleton.  Every step is invariant under relabelling, so an automorphism g
that fixes the placed vertices of a node N maps N to itself, its child N.w
to N.g(w), and the subtree below N.w onto the one below N.g(w), leaf for
leaf with equal encodings.  The search skips three kinds of subtree (McKay
and Piperno, "Practical graph isomorphism, II", 2014):

1. A node whose encoding prefix is larger than the best leaf's.
2. A child N.v with v in the orbit of a child N.w tried before it, under
   the generators found so far that fix every placed vertex of N.  At the
   root every generator fixes them.
3. After a leaf L ties the best leaf B, with the generator phi mapping B's
   t-th placed vertex to L's: the rest of the subtree below D.v, where D
   is the node at which L's path leaves B's (the node of L's path with as
   many placed vertices as the two placement orders share) and v is the
   child on L's path.  phi fixes D's placed vertices and maps B's child of
   D to D.v, and the search goes on with D's next child.

Why enc and perm do not move.  They are read off the best leaf, which only
a strictly smaller leaf replaces, so they are those of L*, the first leaf
in node order with the least encoding, as long as the search visits L*.
Each skipped subtree has an earlier leaf of equal encoding for every leaf
in it: in 1 every leaf is larger; in 2 the subtree is g's image of the one
below the earlier child N.w; in 3 the rest of the subtree below D.v is
phi's image of the subtree below B's child of D, which came first.  So no
prune skips L*.

Why the generators generate Aut_v.  Let N_0, ..., N_m = L* be the path to
L*, x the vertex N_i individualizes on it, O the orbit of x in N_i's target
cell under Gamma_i, the automorphisms fixing N_i's placed vertices, and
H_i the group of the returned generators that fix them.  Downward from
Gamma_m = 1, suppose Gamma_(i+1) = H_(i+1), which lies in H_i.
- x comes first in O: for an earlier y = g(x), g(L*) would be an earlier
  leaf of equal encoding.
- N_i reaches each later y in O after L* has become the best leaf.  From
  then on a tie below N_i leaves L*'s path at N_i or below, so no return
  passes N_i; and N_i.y, whose prefix is L*'s, is not skipped by 1.
- If N_i.y is tried, its subtree holds g(L*), and the argument above,
  applied inside it, shows that the search below N_i.y reaches a leaf that
  ties L*, unless a return cuts it short, which also needs a tie below
  N_i.y.  The first such tie leaves L*'s path at N_i, and its generator
  maps x to y.
- If 2 skips N_i.y, y is in the H_i-orbit of a tried child in O, so of x.
So O is x's orbit under H_i.  An h in H_i mapping x to g(x) for a g in
Gamma_i leaves h^-1 g in the stabilizer of x in Gamma_i, which is
Gamma_(i+1) because refinement is invariant.  So Gamma_i = H_i, and at
i = 0 the generators generate Aut_v.

So the generators are a strong generating set for the base of L*'s
placement order (Sims; Seress, "Permutation Group Algorithms", 2003): for
each t, those fixing the first t placed vertices generate the group G_t
that fixes them.  Let N_i place p_i vertices.  At t <= p_0, G_t is
Gamma_0 = H_0, as every automorphism fixes the root's singletons.  At
p_i < t <= p_(i+1), the first t placed vertices include x, and G_t lies in
x's stabilizer in Gamma_i, which is Gamma_(i+1) and fixes N_(i+1)'s placed
vertices, so G_t = Gamma_(i+1) = H_(i+1); the generators fixing the first
t lie between H_(i+1) and G_t.  So |Aut_v| is the product over t of the
orbit size of the t-th placed vertex under them (orbit-stabilizer at each
step), which group_order computes without listing the group.

Why no generator repeats, so each tie's is kept as found.  Two distinct
leaves place different vertex sequences, so none is the identity.  Let a
tie at L against the best leaf B give phi, with D and D.v as in 3 and D.b
B's child of D, so v = phi(b).  B has been the best leaf since it was
found, as the best leaf only gets smaller, so a tie after that giving phi
was at phi(B) = L, which is visited once.  A tie before that came before
the loop at D left D.b for D.v; then 2 put v in b's orbit under phi, which
fixes D's placed vertices, and skipped D.v, so L was not reached.

tests/test_canon.py freezes enc and perm on a golden corpus, so class keys
and caches do not move, and checks the generators' group order, listed and
as the product, and that none repeats.

Everything here is deliberately dependency-free and works at "desk scale"
(n <= 14 or so); the heavy callers cache aggressively.
"""

from __future__ import annotations

from ._record import Record


class CanonResult(Record):
    """Canonical labelling of one multigraph.

    enc:  flattened lower-triangular multiplicity encoding, row t listing the
          multiplicities from the t-th placed vertex to earlier placed ones,
          then its loop count.  Equal enc <=> identical labelled adjacency.
    perm: original vertex -> canonical position.
    aut_generators: vertex permutations generating the automorphism group
          (original labels); empty tuple for the identity-only group.
    """

    enc: tuple
    perm: tuple
    aut_generators: tuple


def _refine(nbrs, base, cells, col, split):
    """Refine a colouring to equitability, in place.

    cells[s] is the vertex list of the cell whose first slot in the cell
    order is s (None inside a cell), col[v] is the first slot of v's cell,
    and split lists the vertices of the cells that split last.  Each pass
    re-signs, from the colours it started with, the cells with a neighbour
    in split, and lays the pieces of a cell out in signature order.  A
    signature entry col * base + m (multiplicity m < base) sorts as the
    pair (col, m).
    """
    while split:
        touched = {col[u] for v in split for u, _ in nbrs[v]}
        split = []
        moved = []
        for start in touched:
            cell = cells[start]
            if len(cell) == 1:
                continue
            pieces: dict = {}
            for v in cell:
                sig = tuple(sorted([col[u] * base + m for u, m in nbrs[v]]))
                pieces.setdefault(sig, []).append(v)
            if len(pieces) > 1:
                at = start
                for sig in sorted(pieces):
                    moved.append((at, pieces[sig]))
                    at += len(pieces[sig])
                split.extend(cell)
        for start, piece in moved:
            cells[start] = piece
            for v in piece:
                col[v] = start


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


def canonicalize(n: int, edges) -> CanonResult:
    """Canonicalize the multigraph on n vertices with the given edge list."""
    if n <= 0:
        raise ValueError("need at least one vertex")
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] += 1
        if u != v:
            adj[v][u] += 1
    nbrs = [[(u, m) for u, m in enumerate(row) if m and u != v] for v, row in enumerate(adj)]
    base = max(map(max, adj)) + 1

    # initial cells by (degree, loops); a loop adds 2 to the degree
    init: dict = {}
    for v, row in enumerate(adj):
        init.setdefault((sum(row) + row[v], row[v]), []).append(v)
    cells = [None] * n
    col = [0] * n
    start = 0
    for key in sorted(init):
        cells[start] = init[key]
        for v in init[key]:
            col[v] = start
        start += len(init[key])
    _refine(nbrs, base, cells, col, range(n))

    best_enc = None
    best_placed = None
    back = None
    placed: list = []
    pref: list = []
    gens: list = []

    def search(cells, col):
        """Visit the node whose colouring is (cells, col); placed and pref
        hold the parent's leading singletons and their encoding rows."""
        nonlocal best_enc, best_placed, back
        top, width = len(placed), len(pref)
        at = top
        while at < n and len(cells[at]) == 1:
            v = cells[at][0]
            placed.append(v)
            row = adj[v]
            pref.extend([row[w] for w in placed])
            at += 1
        if best_enc is not None and pref > best_enc[: len(pref)]:
            pass  # no leaf below can tie or beat the best encoding
        elif at == n:
            if best_enc is None or pref < best_enc:
                best_enc = pref[:]
                best_placed = placed[:]
            elif pref == best_enc:
                phi = [0] * n
                for i, v in enumerate(best_placed):
                    phi[v] = placed[i]
                gens.append(tuple(phi))
                # return to the node where this path leaves the best leaf's
                back = 0
                while placed[back] == best_placed[back]:
                    back += 1
        else:
            target = cells[at]
            tried: list = []
            orbit = list(range(n))  # union-find: orbits of the generators fixing placed
            done = 0
            for v in target:
                for g in gens[done:]:
                    if all([g[w] == w for w in placed]):
                        for w in target:
                            _union(orbit, w, g[w])
                done = len(gens)
                if any(_find(orbit, v) == _find(orbit, w) for w in tried):
                    continue
                tried.append(v)
                rest = [w for w in target if w != v]
                child_cells = cells[:]
                child_cells[at] = [v]
                child_cells[at + 1] = rest
                child_col = col[:]
                for w in rest:
                    child_col[w] = at + 1
                _refine(nbrs, base, child_cells, child_col, target)
                search(child_cells, child_col)
                if back is not None:
                    if back < at:
                        break
                    back = None
        del placed[top:]
        del pref[width:]

    search(cells, col)
    # search refers to itself, so drop it here: the search state is then
    # freed on return instead of left as a cycle for the cyclic collector
    del search
    perm = [0] * n
    for i, v in enumerate(best_placed):
        perm[v] = i
    return CanonResult(tuple(best_enc), tuple(perm), tuple(gens))


def group_order(res: CanonResult) -> int:
    """Order of the vertex automorphism group, as a product.

    The generators are a strong generating set for the base of L*'s
    placement order (see "Why the generators generate Aut_v"), so the
    order is the product over t of the orbit size of the t-th placed
    vertex under the generators that fix the t placed before it."""
    order = 1
    gens = res.aut_generators
    for x in sorted(range(len(res.perm)), key=res.perm.__getitem__):
        if not gens:
            break
        orbit = {x}
        queue = [x]
        for v in queue:
            for g in gens:
                if g[v] not in orbit:
                    orbit.add(g[v])
                    queue.append(g[v])
        order *= len(orbit)
        gens = [g for g in gens if g[x] == x]
    return order


def close_group(n: int, generators) -> list:
    """All elements of the permutation group generated by a sequence of
    permutations, sorted.  A breadth-first closure from the identity
    composes each new element with every generator, so it costs the group
    order times the generator count."""
    seen = {tuple(range(n))}
    queue = list(seen)
    for h in queue:
        for s in generators:
            comp = tuple(map(s.__getitem__, h))
            if comp not in seen:
                seen.add(comp)
                queue.append(comp)
    return sorted(seen)


def perm_parity(perm) -> int:
    """Parity sign (+1/-1) of a permutation given as a sequence."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
