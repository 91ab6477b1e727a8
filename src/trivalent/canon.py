"""Canonical labelling of small multigraphs.

Vertices are 0..n-1.  Edges are unordered pairs (u, v); u == v is a loop and
parallel edges are allowed.  Canonicalization is by iterative colour
refinement plus individualization with backtracking, minimizing the
by-placement lower-triangular adjacency encoding.  Automorphism generators
are collected from encoding ties, which is enough to recover the full vertex
automorphism group by closure.

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

The search tree, its node order, the prune test and the generators are
those of the plain algorithm (re-rank every vertex every pass, rebuild the
prefix at every node).  tests/test_canon.py freezes every field of
`CanonResult` on a golden corpus, so class keys and caches do not move.

Everything here is deliberately dependency-free and works at "desk scale"
(n <= 14 or so); the heavy callers cache aggressively.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CanonResult:
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
    placed: list = []
    pref: list = []
    gens: list = []
    gen_seen: set = set()
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    def search(cells, col, depth):
        """Visit the node whose colouring is (cells, col); placed and pref
        hold the parent's leading singletons and their encoding rows."""
        nonlocal best_enc, best_placed
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
                phi = tuple(phi)
                if phi not in gen_seen and phi != tuple(range(n)):
                    gen_seen.add(phi)
                    gens.append(phi)
                    for v in range(n):
                        union(v, phi[v])
        else:
            target = cells[at]
            tried: list = []
            for v in target:
                if depth == 0 and any(find(v) == find(w) for w in tried):
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
                search(child_cells, child_col, depth + 1)
        del placed[top:]
        del pref[width:]

    search(cells, col, 0)
    # search refers to itself, so drop it here: the search state is then
    # freed on return instead of left as a cycle for the cyclic collector
    del search
    perm = [0] * n
    for i, v in enumerate(best_placed):
        perm[v] = i
    return CanonResult(enc=tuple(best_enc), perm=tuple(perm), aut_generators=tuple(gens))


def close_group(n: int, generators) -> list:
    """All elements of the permutation group generated by the given tuples.
    A generator already in the group so far is skipped, and the group is
    closed again after each one kept, so at most log2 of its order are kept
    (canonicalize gives about half the order on some symmetric graphs)."""
    seen = {tuple(range(n))}
    gens: list = []
    for g in map(tuple, generators):
        if g in seen:
            continue
        gens.append(g)
        frontier = list(seen)
        while frontier:
            nxt = []
            for s in gens:
                for h in frontier:
                    comp = tuple(map(s.__getitem__, h))
                    if comp not in seen:
                        seen.add(comp)
                        nxt.append(comp)
            frontier = nxt
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
