"""GraphSpace: the span of the classes at one k modulo the relation rows.

A GraphSpace holds the basis, the signed classes in key order, as each
graph's ranked string, one character a pair (graphs._pair_order), the form
the basis file decodes to and a cold build ranks classify's keys into
once; ranked strings compare as the keys they spell, so a class is found
by bisecting on its own, and only the keys a caller reads are spelled
(graphs._keys_of_ranked).  It holds the zero class keys (classes.classify
over classes.labelled_graphs), the relation rows (hubs.hub_rows) as
linalg.Rows, the basis size n they index and three flat lists, each row's
entry count, then every row's columns and values, the form the relations
file stores, and the weight systems W, integer functionals (dicts) that
vanish on every row, each kind the value the cache loads, else built and
stored.  A basis graph is read off its ranked string only when the rows
are built.  The relations file records n, so a warm dimension() reads no
basis; the cache reads no basis or rows of another size than the cold
build's (cache._SIZES).  One certificate proves W from the rows: its
vectors vanish on every row and are in echelon form, so the dimension is
at least their count, and n minus a lower bound on the rank (the peel plus
a modular rank), an upper bound, meets it.  dimension() runs that proof on
every call.  Normal forms are read off W, which the rref cache kind holds:
the top columns of W are the free columns of the rows' reduced echelon
form, and each vector pairs a class vector to its coefficient there.
"""

from __future__ import annotations

from fractions import Fraction

from .cache import Cache
from .canon import CanonResult, canonicalize
# enumerate_graphs stays importable from here, beside classify
from .classes import classify, enumerate_graphs, labelled_graphs
from .graphs import LabelledTrivalentGraph, _canonical_generators, _graphs_of_ranked
from .graphs import _keys_of_ranked, _ranked_key, has_parallel_edge, reduce
from .hubs import hub_rows
from .linalg import as_dicts, exact_rank, in_echelon, kernel_vectors, peel_singletons
from .linalg import rank_mod_p, vanishes_on


class PrimeDisagreementError(Exception):
    """The dimension certificate did not hold: its kernel vectors are not
    in echelon form, or no listed prime closed the dimension bounds."""


# 2^31 - 1 and the two primes below it, tried in order
PRIMES = (2147483647, 2147483629, 2147483587)


class GraphSpace:
    """All classes at one k: basis, relation rows, rank, reduction."""

    def __init__(self, k: int, cache: Cache | None = None):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self._cache = cache
        self._basis = None
        self._generators = None  # Aut generators of the basis, from classify
        self._graphs = None  # the basis: each graph's ranked string, in key order
        self._keys = None
        self._zeros = None
        self._rows = None
        self._proved = None  # W, as dimension() last proved it
        self._weights = None  # W, as normal_form reads it

    # -- basis ------------------------------------------------------------

    def _load(self, kind: str):
        return None if self._cache is None else self._cache.load(self.k, kind)

    def _store(self, kind: str, value) -> None:
        if self._cache is not None:
            self._cache.store(self.k, kind, value)

    def _cached(self, kind: str, build):
        """The value of a kind as the cache loads it, else as build() gives
        it, then stored."""
        value = self._load(kind)
        if value is None:
            value = build()
            self._store(kind, value)
        return value

    def _ensure_classes(self):
        """The basis graphs' ranked strings, from the cache, which reads
        only a file with a cold build's bytes (cache._PINS) and graph count
        (cache._SIZES), or from a cold build; basis positions index every
        row and vector."""
        if self._graphs is None:
            self._graphs = self._load("basis")
            if self._graphs is None:
                self._build_classes()

    def _build_classes(self) -> None:
        """The cold build: classify the enumerator's labelled graphs, rank
        the keys' pairs once (graphs._ranked_key) and keep only the ranked
        strings, then store the basis and the zero keys.  The cache leaves
        a file that already holds the bytes it would write, such as a basis
        read from it, as it is; at a k without pins it stores nothing.  The listing streams into
        classify, which is looked up here at call time, so a tracer that
        rebinds spaces.classify times the build."""
        keys, self._zeros, self._generators = classify(labelled_graphs(self.k))
        self._graphs = list(map(_ranked_key, keys))
        self._store("basis", self._graphs)
        self._store("zeros", self._zeros)

    @property
    def basis(self):
        """The class representatives, the graphs the keys spell, read off
        the ranked strings on first read.  A warm dim, reduce, surgery or
        enum never reads them."""
        if self._basis is None:
            self._basis = _graphs_of_ranked(2 * self.k, self._key_index())
        return self._basis

    @property
    def keys(self):
        """The signed class keys, sorted: the basis, spelled from its ranked
        strings on first read, which enum makes."""
        if self._keys is None:
            self._keys = _keys_of_ranked(2 * self.k, self._key_index())
        return self._keys

    @property
    def zero_keys(self):
        """Read on first use: dim, reduce and surgery never need them."""
        self._ensure_classes()
        if self._zeros is None:
            self._zeros = self._load("zeros")
            if self._zeros is None:
                self._build_classes()
        return self._zeros

    @property
    def num_classes(self) -> int:
        return len(self._key_index()) + len(self.zero_keys)

    def _key_index(self):
        """The basis as each graph's ranked string (graphs._pair_order), a
        list in key order, which compares as the keys do: a class is found
        by bisecting on its own ranked string, and no other key is spelled."""
        self._ensure_classes()
        return self._graphs

    # -- vectors ----------------------------------------------------------

    def class_vector(self, g: LabelledTrivalentGraph, res: CanonResult | None = None) -> dict:
        """Sparse coefficient vector of the class of a labelled graph; res
        is g's canonical labelling if the caller has it (graphs.reduce)."""
        if g.k != self.k:
            raise ValueError(f"graph has {g.num_vertices} vertices, space expects {2 * self.k}")
        if has_parallel_edge(g) or (r := reduce(g, res)).is_zero:
            return {}
        graphs, ranked = self._key_index(), _ranked_key(r.key)
        # a bisection by hand: bisect's C module takes longer to load than
        # a warm reduce takes to search
        lo, hi = 0, len(graphs)
        while lo < hi:
            mid = (lo + hi) // 2
            if graphs[mid] < ranked:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(graphs) or graphs[lo] != ranked:
            raise ValueError("graph class missing from the enumerated basis")
        return {lo: r.sign}

    def _by_key(self, vec: dict) -> dict:
        """A vector over the basis positions as one over the class keys, in
        basis order, zero entries dropped.  Only the keys of its positions
        are spelled, and a vector of none reads no basis."""
        items = [(i, v) for i, v in sorted(vec.items()) if v]
        if not items:
            return {}
        graphs = self._key_index()
        keys = _keys_of_ranked(2 * self.k, [graphs[i] for i, _ in items])
        return dict(zip(keys, [v for _, v in items]))

    # -- relations ----------------------------------------------------------

    def relation_rows(self):
        """One row per contracted hub class, zero rows dropped, in the order
        the hubs are first reached (hubs.hub_rows), as linalg.Rows, whose
        length is the row count and whose iteration gives each row's (cols,
        vals) pair, the columns increasing; read from the cache and built
        alike, and held as the relations file stores them.

        The rule needs each basis graph to be its class's canonical
        representative, the graph its key spells, and its Aut generators.
        A basis classified here has both.  A basis read from the cache has
        a cold build's bytes, so each graph its keys spell is canonical, and
        its generators are read off a fresh canonical labelling of it
        (hubs.hub_rows says why the rows are the same).  Rows read from the
        cache are a cold build's too, byte for byte (cache._PINS), and carry
        the basis size they index, which the file records and the cache
        checks (cache._SIZES), so the basis is not read.
        """
        if self._rows is None:
            self._rows = self._cached("relations", self._hub_rows)
        return self._rows

    def _hub_rows(self):
        basis = self.basis  # first: a cold build of the basis sets _generators
        generators = self._generators or [
            _canonical_generators(canonicalize(g.num_vertices, g.edges)) for g in basis
        ]
        return hub_rows(basis, generators)

    # -- rank and dimension -------------------------------------------------

    def _certificate(self) -> list:
        """W, proved from the relation rows: the kernel vectors that vanish
        on every row, in echelon form, so independent, and as many as the
        basis size n the rows carry (their size) minus a lower bound on
        their rank, which bounds the dimension above, for the first of
        PRIMES that closes the gap.  Both bounds read one singleton peel:
        (peeled, rest).

        The bound len(peeled) + rank_mod_p(rest, p) is at most the rank of
        the rows over the rationals at every p.  Each row the peel pivots
        has its other entries on columns peeled before it, so in peel order
        those rows are triangular on the peeled columns, with a nonzero
        diagonal, and zero off them; a row the peel empties lies in their
        span.  So the rank of the rows is len(peeled) plus the rank of rest,
        the other rows without their peeled columns, and the rank mod p of
        integer rows never exceeds their rank over the rationals (a minor
        that is nonzero mod p is a nonzero integer).
        """
        rows = self.relation_rows()
        n = rows.size
        peeled, rest = peel = peel_singletons(rows)
        weights = [w for w in kernel_vectors(n, peel) if vanishes_on(rows, w)]
        if not in_echelon(weights):
            raise PrimeDisagreementError("kernel vectors are not in echelon form")
        for p in PRIMES:
            high = n - len(peeled) - rank_mod_p(rest, p)
            if high == len(weights):
                return weights
        raise PrimeDisagreementError(
            f"dimension bounds do not meet: at least {len(weights)}, at most {high} mod {p}"
        )

    def _proof(self) -> list:
        """W as dimension() last proved it, else proved now."""
        return self._certificate() if self._proved is None else self._proved

    def dimension(self) -> int:
        """Basis size minus the rank of the relation rows, proved by the
        certificate from the rows on every call.  The basis size n is the
        one the rows carry: on a warm cache, that recorded in the relations
        file, which is all this reads."""
        self._proved = self._certificate()
        return len(self._proved)

    def exact_dimension(self) -> int:
        """Basis size minus the exact rank of the relation rows, as dicts.
        It reads no peel, so it is the check of the peel that the
        certificate's two bounds share."""
        return len(self._key_index()) - exact_rank(as_dicts(self.relation_rows()))

    # -- normal form ----------------------------------------------------------

    def normal_form(self, vec: dict) -> dict:
        """Residual of a coefficient vector against the relation span: the
        one vector supported on the free columns that every w in W pairs
        as it pairs vec, {max(w): <w, vec> / w[max(w)]}.  W is read from
        the rref cache kind, else taken as dimension() proved it, else
        proved now, and stored unless it was read.

        Linear and idempotent; vanishes exactly on combinations of relation
        rows, so equal normal forms mean equal classes in the quotient.
        """
        if self._weights is None:
            self._weights = self._cached("rref", self._proof)
        pairings = ((w, sum(v * w[c] for c, v in vec.items() if c in w)) for w in self._weights)
        return {max(w): Fraction(s, w[max(w)]) for w, s in pairings if s}

    def reduce_graph(self, g: LabelledTrivalentGraph, res: CanonResult | None = None) -> dict:
        """The normal form of g's class; {} for a zero class, which reads
        nothing from the cache and builds nothing.  res as for class_vector."""
        vec = self.class_vector(g, res)
        return vec and self.normal_form(vec)


def dimension(k: int, cache: Cache | None = None) -> int:
    return GraphSpace(k, cache).dimension()
