"""Independent brute-force checks the test suite measures the package against.

Nothing here imports package internals beyond the public graph and
canonical-labelling functions, so agreement is evidence rather than
circularity.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from trivalent.canon import canonicalize
from trivalent.graphs import (
    GraphError,
    LabelledTrivalentGraph,
    has_parallel_edge,
    ihx_expansions,
    make_arrow,
    reduce,
    validate,
)


def join_key(num_vertices, pairs):
    """The class key written as it first was, one "%d-%d" per sorted pair,
    joined; graphs.canonical_key must give the same text."""
    return "cub:%d:" % num_vertices + ",".join("%d-%d" % p for p in sorted(pairs))


def vertex_group(g):
    """All vertex permutations that map g's edge multiset onto itself, in
    increasing order.  It walks all n! of them, so small n only."""
    pairs = sorted((u, v) if u <= v else (v, u) for u, v in g.edges)
    return [
        p
        for p in itertools.permutations(range(g.num_vertices))
        if sorted((p[u], p[v]) if p[u] <= p[v] else (p[v], p[u]) for u, v in pairs) == pairs
    ]


def iso_sign(g, h):
    """None if not isomorphic; 0 if the common class is zero; else the
    relative sign of the edge relabelling carrying g to h."""
    rg, rh = reduce(g), reduce(h)
    if rg.key != rh.key:
        return None
    if rg.is_zero:
        return 0
    return rg.sign * rh.sign


def _sub_scaled(r, coef, pivot_row):
    for c, v in pivot_row.items():
        nv = r.get(c, 0) - coef * v
        if nv:
            r[c] = nv
        elif c in r:
            del r[c]


def exact_rref(rows):
    """Gauss-Jordan elimination in Fraction arithmetic: column -> unit-pivot
    row, fully reduced.  Each row is reduced against the pivots so far, in
    column order, scaled to a unit pivot on its smallest column, and cleared
    from the earlier pivot rows; the package's integer elimination must give
    the same pivots, rows, values and key order."""
    pivots = {}
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items() if v}
        for col in sorted(r):
            if col in pivots and col in r:
                _sub_scaled(r, r[col], pivots[col])
        if not r:
            continue
        col = min(r)
        inv = 1 / r[col]
        new_row = {c: v * inv for c, v in r.items()}
        for prow in pivots.values():
            if col in prow:
                _sub_scaled(prow, prow[col], new_row)
        pivots[col] = new_row
    return pivots


def peel_singletons(rows):
    """The singleton peel over dict rows, by copying: (peeled, rest).

    Each row is copied without its zero entries, and a singleton's column
    is deleted from the copies of the rows that hold it; the singletons
    are peeled last in, first out, so linalg.peel_singletons, which counts
    live entries instead, must give the same peeled columns in the same
    order, the same values, and the same leftover rows."""
    live = [r for r in ({c: v for c, v in row.items() if v} for row in rows) if r]
    holders = {}
    for i, r in enumerate(live):
        for c in r:
            holders.setdefault(c, []).append(i)
    peeled = {}
    todo = [i for i, r in enumerate(live) if len(r) == 1]
    while todo:
        r = live[todo.pop()]
        if len(r) != 1:  # emptied by a singleton of the same column
            continue
        ((col, v),) = r.items()
        peeled[col] = v
        for j in holders.pop(col):
            rj = live[j]
            del rj[col]
            if len(rj) == 1:
                todo.append(j)
    return peeled, [r for r in live if r]


def assert_same_peel(got, rows):
    """got, the package's peel of the rows (linalg.Rows), is peel_singletons'
    of the same rows as dicts: the peeled columns in the same order, their
    values, and the leftover rows with their entries in the same order."""
    peeled, rest = got
    want_peeled, want_rest = peel_singletons([dict(zip(c, v)) for c, v in rows])
    assert list(peeled.items()) == list(want_peeled.items())
    assert [list(r.items()) for r in rest] == [list(r.items()) for r in want_rest]


def sub_product(out, a, b, s):
    """out - s * a * b by the dense triple loop over every entry, zeros
    included, as a new matrix; out is m x q, a m x n and b n x q."""
    return [
        [out[i][j] - s * sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(out[i]))]
        for i in range(len(out))
    ]


def perfect_matchings(items):
    """All perfect matchings of a list, as lists of pairs."""
    if not items:
        yield []
        return
    first = items[0]
    for j in range(1, len(items)):
        rest = items[1:j] + items[j + 1 :]
        for m in perfect_matchings(rest):
            yield [(first, items[j])] + m


def stub_matchings(k):
    """Every perfect matching of the 6k half-edge stubs of 2k vertices.

    Each matching is a labelled trivalent multigraph (possibly disconnected);
    there are (6k-1)!! of them.
    """
    stubs = [v for v in range(2 * k) for _ in range(3)]
    return perfect_matchings(stubs)


def configuration_mass(k):
    """[y^k] log A(y), A(y) = sum_j (6j-1)!! / (6^{2j} (2j)!) y^j.

    In the configuration model a labelled multigraph on 2k vertices comes
    from 6^{2k} / (prod m! * prod l! 2^l) of the (6k-1)!! stub matchings,
    m over its non-loop edge multiplicities and l over its loop counts at
    each vertex, and a class G has (2k)! / |Aut_v(G)| labelled copies.  So
    by the exponential formula this is the sum of class_mass over the
    connected classes at k, with no canonical labelling needed.
    """
    a = [
        Fraction(math.prod(range(6 * j - 1, 0, -2)), 6 ** (2 * j) * math.factorial(2 * j))
        for j in range(k + 1)
    ]
    c = [Fraction(0)] * (k + 1)  # log A, from n a_n = sum_{j=1..n} j c_j a_{n-j}
    for n in range(1, k + 1):
        c[n] = (n * a[n] - sum(j * c[j] * a[n - j] for j in range(1, n))) / n
    return c[k]


def class_mass(g, aut_v):
    """1 / (|Aut_v| * prod m! * prod l! 2^l) for g, as in configuration_mass."""
    den = aut_v
    for (u, v), m in Counter(tuple(sorted(e)) for e in g.edges).items():
        den *= math.factorial(m) * (2**m if u == v else 1)
    return Fraction(1, den)


def burnside_count(k, simple=False, signed=False):
    """The number of connected classes at k, with no canonical labelling:
    all classes, or only the signed ones, of all cubic multigraphs on 2k
    vertices or only of the simple ones (no loop, no parallel pair).

    Twisted count.  For a group acting on a finite set X and, at each
    point x, a character chi_x of its stabilizer with chi_{sx}(s t s^-1) =
    chi_x(t), orthogonality of characters gives
        (1/|G|) sum_{s in G} sum_{x fixed by s} chi_x(s)
          = sum over orbits of (1/|Stab|) sum_{t in Stab} chi(t)
          = the number of orbits on whose stabilizer chi is trivial.
    Take S_2k acting on the cubic multigraphs on the vertices 0..2k-1.  With
    chi = 1 this is the number of classes.  For the signed count take X the
    graphs without a parallel pair (a graph with one is zero, as swapping
    the pair is odd); each edge of such a graph is its two ends, so its
    automorphisms are vertex permutations, and chi_x(t) is the parity of
    the permutation t induces on the edges of x.  The orbits counted are
    then the classes with no odd automorphism: the signed classes.

    Fixed graphs.  A graph fixed by s is a multiplicity on each orbit of s
    on loops and vertex pairs, and the sum groups the s by cycle type, z
    of them sharing a count.  On one l-cycle lie the loop orbit (size l,
    adding 2 to the degree of each of its vertices), an orbit of chords at
    each distance d < l/2 (size l, +2) and, for even l, the diameter orbit
    at d = l/2 (size l/2, +1).  Between an l-cycle and an l'-cycle lie
    g = gcd(l, l') orbits of size lcm(l, l'), each adding l'/g to the first
    cycle's vertices and l/g to the second's.  Every vertex of a cycle
    gets the same degree, 3 for all of them.  An orbit of size L is one
    L-cycle of s on the edges it holds, of parity (-1)^(L-1), and chi_x(s)
    is the product of those over the orbits chosen.  The signed and simple
    counts allow multiplicities 0 and 1, the others any; the simple ones
    leave out the loop orbits.  A memoized search over the cycles, each
    completed in turn, its state the (length, degree still missing) of the
    cycles not yet completed, sums the fixed graphs of one cycle type.

    Connected counts.  The sums count possibly disconnected graphs, a_k at
    2k vertices.  A class is the multiset of its components' classes, so
    sum a_k x^k = prod_j (1 - x^j)^(-c_j), c_j the connected classes at j.
    A signed graph's components are signed, and swapping two copies of a
    component on 2j vertices swaps 3j pairs of edges, odd for odd j: so a
    signed graph holds each component with odd j at most once, and then
    sum a_k x^k = prod_{j odd} (1 + x^j)^(c_j) prod_{j even} (1 - x^j)^(-c_j).
    Either factor for j adds c_j to [x^j], so c_k is a_k less [x^k] of the
    product over j < k (the plethystic logarithm, one k at a time).
    """
    max_mult = 1 if simple or signed else 3

    def choices(orbits, room):
        """{degree added: summed sign} over multiplicities for the orbits,
        (size, degree) pairs, adding at most room."""
        out = {0: 1}
        for size, degree in orbits:
            new: dict = {}
            for d, w in out.items():
                for m in range(min(max_mult, (room - d) // degree) + 1):
                    sign = (-1) ** ((size - 1) * m) if signed else 1
                    new[d + m * degree] = new.get(d + m * degree, 0) + w * sign
            out = new
        return out

    @functools.cache
    def complete(cycles):
        """The fixed graphs on cycles, a sorted tuple of (length, degree
        still missing > 0): the first cycle's own orbits, then its orbits
        to each later cycle."""
        if not cycles:
            return 1
        (l, r), rest = cycles[0], cycles[1:]
        # the chords at d < l/2 and, unless simple, the loops; the diameter
        own = [(l, 2)] * ((l - 1) // 2 + (not simple)) + [(l // 2, 1)] * (l % 2 == 0)
        return sum(w * join(l, r - d, rest, ()) for d, w in choices(own, r).items())

    def join(l, need, rest, done):
        """The ways to add need to the degree of an l-cycle by orbits to
        the cycles rest, each weighed by complete() on what is left of
        those cycles; done holds the ones already joined."""
        if not rest:
            return complete(tuple(sorted(c for c in done if c[1]))) if need == 0 else 0
        (l2, r2), rest = rest[0], rest[1:]
        g = math.gcd(l, l2)
        a, b = l2 // g, l // g
        between = choices([(l * l2 // g, a)] * g, min(need, r2 // b * a))
        return sum(w * join(l, need - d, rest, done + ((l2, r2 - d // a * b),))
                   for d, w in between.items())

    def fixed_sum(n):
        total = Fraction(0)
        for cycle_type in _partitions(n, n):
            z = math.prod(l ** m * math.factorial(m) for l, m in Counter(cycle_type).items())
            total += Fraction(complete(tuple((l, 3) for l in reversed(cycle_type))), z)
        assert total.denominator == 1
        return int(total)

    running = [1] + [0] * k  # the product over the j found so far, to x^k
    for j in range(1, k + 1):
        c = fixed_sum(2 * j) - running[j]
        if signed and j % 2:
            series = [math.comb(c, i) for i in range(k // j + 1)]
        else:
            series = [math.comb(c + i - 1, i) if i else 1 for i in range(k // j + 1)]
        running = [sum(series[i] * running[m - i * j] for i in range(m // j + 1)) for m in range(k + 1)]
    return c


def _partitions(n, largest):
    """The partitions of n into parts of at most largest, as non-increasing
    tuples."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def expansion_row(space, four):
    """The relation row of a hub graph the long way: the three splittings
    (ihx_expansions, the new edge last), each reduced by space.class_vector,
    summed with their coefficients in splitting order, zeros dropped."""
    row: dict = {}
    for coeff, h in ihx_expansions(four, len(four.edges)):
        for i, v in space.class_vector(h).items():
            row[i] = row.get(i, 0) + coeff * v
    return {i: v for i, v in row.items() if v}


def insertion_classes(classes_below):
    """The class key of every digon and every lollipop insertion into the
    given classes at k - 1, the long way: every edge of every class, no
    orbit, no score filter, each candidate validated and reduced.  A digon
    replaces the edge a - b by a - u, u = v, v - b; a lollipop replaces a
    non-loop edge a - b by a - u, u - b and hangs v, with a loop, on u."""
    keys = set()
    for h in classes_below:
        n = h.num_vertices + 2
        u, v = n - 2, n - 1
        for i, (a, b) in enumerate(h.edges):
            rest = h.edges[:i] + h.edges[i + 1 :]
            inserted = [((a, u), (u, v), (u, v), (b, v))]
            if a != b:
                inserted.append(((a, u), (b, u), (u, v), (v, v)))
            for edges in inserted:
                keys.add(reduce(validate(n, rest + edges)).key)
    return keys


def edge_insertion_classes(classes_below):
    """The class key of every simple edge insertion into the given classes
    at k - 1, the long way: every pair of distinct edges of every class, no
    orbit, no score filter, each candidate validated and reduced if it has
    no loop and no parallel pair.  An edge insertion replaces the edges
    a - b and c - d by a - u - b and c - v - d and joins u to v."""
    keys = set()
    for h in classes_below:
        n = h.num_vertices + 2
        u, v = n - 2, n - 1
        for i, j in itertools.combinations(range(len(h.edges)), 2):
            (a, b), (c, d) = h.edges[i], h.edges[j]
            rest = [e for x, e in enumerate(h.edges) if x not in (i, j)]
            g = validate(n, rest + [(a, u), (u, b), (c, v), (v, d), (u, v)])
            if all(x != y for x, y in g.edges) and not has_parallel_edge(g):
                keys.add(reduce(g).key)
    return keys


def simple_search_finals(k):
    """Each connected simple cubic graph on 2k vertices, once, by a search
    over partial graphs deduplicated by canonical form.

    A state is the graph on the vertices touched so far with its degree
    list; untouched vertices are interchangeable.  Each step completes one
    deficient vertex v (largest degree first, smallest index on ties) by
    joining it to distinct deficient vertices and to distinct fresh ones,
    so the touched graph stays connected and never gets a loop or a
    repeated edge: two deficient vertices are never adjacent.  A state with
    no deficient vertex is a final if it touches all 2k vertices and dead
    otherwise; one that touches them all with two stubs left has its last
    edge forced, and ends if that edge would be a loop."""
    n = 2 * k
    seen = set()
    stack = [((), [0])]
    while stack:
        edges, deg = stack.pop()
        t = len(deg)
        deficient = [v for v in range(t) if deg[v] < 3]
        if not deficient:
            yield LabelledTrivalentGraph(n, edges)
            continue
        v = max(deficient, key=lambda u: (deg[u], -u))
        need = 3 - deg[v]
        others = [u for u in deficient if u != v]
        for s_old in range(max(0, need - (n - t)), min(need, len(others)) + 1):
            for chosen in itertools.combinations(others, s_old):
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
                    short = [u for u in range(n) if new_deg[u] < 3]
                    if len(short) == 1:
                        continue
                    new_edges.append(tuple(short))
                    new_deg = [3] * n
                if nt < n and 2 * len(new_edges) == 3 * nt:
                    continue
                key = (nt, canonicalize(nt, new_edges).enc)
                if key not in seen:
                    seen.add(key)
                    stack.append((tuple(new_edges), new_deg))


def arrow_orientations(g):
    """Every orientation that make_arrow accepts, by filtering the product
    of each edge's directions (the stored one first; a loop has one only)."""
    out = []
    for dirs in itertools.product(*[((u, v),) if u == v else ((u, v), (v, u)) for u, v in g.edges]):
        try:
            out.append(make_arrow(g, dirs))
        except GraphError:
            pass
    return out


def is_connected(n, edges):
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


def smith_rank(matrix):
    """Rank of an integer matrix via Smith-style elimination.

    Row/column operations over the integers only; the rank over the
    rationals is the number of nonzero diagonal entries produced.
    """
    m = [list(map(int, row)) for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    r = c = 0
    while r < rows and c < cols:
        # find the smallest nonzero entry to pivot on
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[r], m[bi] = m[bi], m[r]
        for row in m:
            row[c], row[bj] = row[bj], row[c]
        again = True
        while again:
            again = False
            for i in range(r + 1, rows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        again = True
            for j in range(c + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][c]
                    for i in range(rows):
                        m[i][j] -= q * m[i][c]
                    if m[r][j]:
                        for i in range(rows):
                            m[i][c], m[i][j] = m[i][j], m[i][c]
                        again = True
        rank += 1
        r += 1
        c += 1
    return rank


def rational_homology_dims(ranks, boundaries):
    """dim H_d over the rationals for a chain complex given as integer
    matrices; boundaries[d] maps degree d to d-1, shape (ranks[d-1], ranks[d])."""
    top = len(ranks) - 1
    br = {}
    for d in range(1, top + 1):
        br[d] = smith_rank(boundaries[d]) if ranks[d] and ranks[d - 1] else 0
    dims = []
    for d in range(top + 1):
        rin = br.get(d + 1, 0)
        rout = br.get(d, 0)
        dims.append(ranks[d] - rout - rin)
    return dims


def dense_from_rows(rows, ncols):
    out = []
    for r in rows:
        row = [Fraction(0)] * ncols
        for c, v in r.items():
            row[c] = Fraction(v)
        out.append(row)
    return out
