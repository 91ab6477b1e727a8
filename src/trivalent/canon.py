"""Canonical labelling of small multigraphs.

Vertices are 0..n-1.  Edges are unordered pairs (u, v); u == v is a loop and
parallel edges are allowed.  Canonicalization is by iterative colour
refinement plus individualization with backtracking, minimizing the
by-placement lower-triangular adjacency encoding.  Automorphism generators
are collected from encoding ties, which is enough to recover the full vertex
automorphism group by closure.

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


def _refine(n: int, nbrs, colors):
    """Refine a colouring to equitability; cell order follows signature order."""
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[u], m) for u, m in nbrs[v])))
            for v in range(n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(order[s] for s in sigs)
        if new == colors:
            return new
        colors = new


def canonicalize(n: int, edges) -> CanonResult:
    """Canonicalize the multigraph on n vertices with the given edge list."""
    if n <= 0:
        raise ValueError("need at least one vertex")
    mult: dict = {}
    loops = [0] * n
    for u, v in edges:
        if u == v:
            loops[u] += 1
        else:
            a, b = (u, v) if u < v else (v, u)
            mult[(a, b)] = mult.get((a, b), 0) + 1
    nbr_acc: list = [dict() for _ in range(n)]
    for (a, b), m in mult.items():
        nbr_acc[a][b] = m
        nbr_acc[b][a] = m
    nbrs = [tuple(sorted(d.items())) for d in nbr_acc]
    deg = [sum(m for _, m in nbrs[v]) + 2 * loops[v] for v in range(n)]

    init_keys = [(deg[v], loops[v]) for v in range(n)]
    rank = {key: i for i, key in enumerate(sorted(set(init_keys)))}
    start = _refine(n, nbrs, tuple(rank[k] for k in init_keys))

    def mult_uv(u, v):
        if u == v:
            return loops[u]
        return mult.get((u, v) if u < v else (v, u), 0)

    best_enc = [None]
    best_placed = [None]
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

    def cells_of(cols):
        buckets: dict = {}
        for v in range(n):
            buckets.setdefault(cols[v], []).append(v)
        return [buckets[c] for c in sorted(buckets)]

    def enc_of(placed):
        out = []
        for t, v in enumerate(placed):
            for s in range(t):
                out.append(mult_uv(v, placed[s]))
            out.append(loops[v])
        return tuple(out)

    def search(cols, depth):
        cells = cells_of(cols)
        placed = []
        for cell in cells:
            if len(cell) == 1:
                placed.append(cell[0])
            else:
                break
        pref = enc_of(placed)
        if best_enc[0] is not None and pref > tuple(best_enc[0][: len(pref)]):
            return
        if len(placed) == n:
            if best_enc[0] is None or pref < best_enc[0]:
                best_enc[0] = pref
                best_placed[0] = tuple(placed)
            elif pref == best_enc[0]:
                phi = [0] * n
                for i, v in enumerate(best_placed[0]):
                    phi[v] = placed[i]
                phi = tuple(phi)
                if phi not in gen_seen and phi != tuple(range(n)):
                    gen_seen.add(phi)
                    gens.append(phi)
                    for v in range(n):
                        union(v, phi[v])
            return
        target = cells[len(placed)]
        tried: list = []
        for v in sorted(target):
            if depth == 0 and any(find(v) == find(w) for w in tried):
                continue
            tried.append(v)
            keyed = []
            for u in range(n):
                if u == v:
                    keyed.append((cols[u], 0))
                elif cols[u] == cols[v]:
                    keyed.append((cols[u], 1))
                else:
                    keyed.append((cols[u], 0))
            order = {key: i for i, key in enumerate(sorted(set(keyed)))}
            search(_refine(n, nbrs, tuple(order[k] for k in keyed)), depth + 1)

    search(start, 0)
    placed = best_placed[0]
    perm = [0] * n
    for i, v in enumerate(placed):
        perm[v] = i
    return CanonResult(enc=best_enc[0], perm=tuple(perm), aut_generators=tuple(gens))


def close_group(n: int, generators) -> list:
    """All elements of the permutation group generated by the given tuples."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                comp = tuple(g[h[i]] for i in range(n))
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
