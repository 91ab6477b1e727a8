"""Seeded input generators for the benchmark.

Everything here is plain Python driven by a `random.Random`, so one seed
always gives the same inputs.  Graphs come from stub matching, never from
the program's own enumerator; chain complexes follow the construction the
morse tests use (invertible integer blocks pairing adjacent degrees, plus
optional homology generators, disguised by unimodular basis changes).
"""

from __future__ import annotations

import random

TOP_DEGREE = 4


def parity(perm) -> int:
    """+1 for an even permutation, -1 for an odd one."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def stub_matched_graph(rng: random.Random, k: int, simple: bool) -> list:
    """Connected trivalent graph on 2k vertices from a uniform stub matching.

    With simple=False loops and parallel edges are kept, which makes most
    classes zero; with simple=True matchings that produce them are redrawn.
    """
    n = 2 * k
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        edges = [(stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2)]
        if simple:
            pairs = {(min(e), max(e)) for e in edges}
            if len(pairs) < len(edges) or any(u == v for u, v in edges):
                continue
        if _connected(n, edges):
            return edges


def relabel(rng: random.Random, n: int, edges):
    """Random vertex and edge relabelling; returns (edges, edge parity).

    Position j of the result holds old edge order[j] with both ends renamed,
    so the class sign changes by the parity of `order` alone.
    """
    vperm = list(range(n))
    rng.shuffle(vperm)
    order = list(range(len(edges)))
    rng.shuffle(order)
    out = []
    for j in order:
        u, v = edges[j]
        a, b = vperm[u], vperm[v]
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    return out, parity(order)


def valid_orientation(n: int, edges, directions) -> bool:
    """Each direction matches its edge and no vertex is a source or sink."""
    if len(directions) != len(edges):
        return False
    outs = [0] * n
    ins = [0] * n
    for (t, h), (u, v) in zip(directions, edges):
        if sorted((t, h)) != sorted((u, v)):
            return False
        outs[t] += 1
        ins[h] += 1
    return all(outs[v] and ins[v] for v in range(n))


def random_orientation(rng: random.Random, n: int, edges) -> list:
    """A uniformly drawn source- and sink-free orientation, by rejection."""
    for _ in range(100_000):
        dirs = [(u, v) if u == v or rng.random() < 0.5 else (v, u) for u, v in edges]
        if valid_orientation(n, edges, dirs):
            return dirs
    raise RuntimeError("no valid orientation found")


# -- chain complexes ---------------------------------------------------------


def _matmul(a, b, inner: int, cols: int):
    out = [[0] * cols for _ in range(len(a))]
    for i, ai in enumerate(a):
        oi = out[i]
        for t in range(inner):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(cols):
                    oi[j] += v * bt[j]
    return out


def _unimodular(rng: random.Random, n: int):
    """(U, U^-1) over the integers from random elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return u, uinv
    for _ in range(2 * n + 2):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:  # add a multiple of row i to row j
            c = rng.choice((-2, -1, 1, 2))
            u[j] = [x + c * y for x, y in zip(u[j], u[i])]
            for row in uinv:
                row[i] -= c * row[j]
        elif kind == 1:  # swap rows i and j
            u[i], u[j] = u[j], u[i]
            for row in uinv:
                row[i], row[j] = row[j], row[i]
        else:  # negate row i
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]
    return u, uinv


def _invertible(rng: random.Random, n: int):
    """Integer block with nonzero determinant, sometimes not unimodular."""
    m, _ = _unimodular(rng, n)
    if n and rng.random() < 0.4:
        i = rng.randrange(n)
        scale = rng.choice((2, 3))
        m[i] = [scale * x for x in m[i]]
    return m


def chain_complex(rng: random.Random, blocks, homology):
    """(ranks, boundaries) of a disguised five-term complex.

    blocks[d - 1] is the size of the invertible block inside boundary d
    (d = 1..4), pairing part of degree d with part of degree d - 1;
    homology[d] adds that many generators that survive in degree d.
    """
    p = [0] + list(blocks) + [0]  # p[d]: block of boundary d; none at 0 and 5
    ranks = [p[d] + p[d + 1] + homology[d] for d in range(TOP_DEGREE + 1)]
    plain = {}
    for d in range(1, TOP_DEGREE + 1):
        m = [[0] * ranks[d] for _ in range(ranks[d - 1])]
        block = _invertible(rng, p[d])
        for i in range(p[d]):
            # rows after the part of degree d - 1 already paired downwards
            m[p[d - 1] + i][: p[d]] = block[i]
        plain[d] = m
    us = [_unimodular(rng, r) for r in ranks]
    boundaries = {}
    for d in range(1, TOP_DEGREE + 1):
        left = _matmul(us[d - 1][0], plain[d], ranks[d - 1], ranks[d])
        boundaries[d] = _matmul(left, us[d][1], ranks[d], ranks[d])
    return ranks, boundaries
