"""GraphSpace: the span of the classes at one k modulo the relation rows.

A GraphSpace holds the basis as the sorted keys of the signed classes, and
the zero class keys (classes.classify over classes.labelled_graphs), the
relation rows (hubs.hub_rows), and the weight systems W, integer
functionals that vanish on every row, each read from the cache when it has
them, else built and stored.  A basis graph is read off its key
(graphs.graph_of_key) only when the rows are built.  One certificate proves
W from the rows: its vectors vanish on every row and are in echelon form,
so the dimension is at least their count, and the basis size minus a
modular rank, an upper bound, meets it.  dimension() runs that proof on
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
from .graphs import LabelledTrivalentGraph, _canonical_generators, graph_of_key
from .graphs import has_parallel_edge, reduce
from .hubs import hub_rows
from .linalg import exact_rank, in_echelon, kernel_vectors, peel_singletons, peeled_rank_mod_p
from .linalg import vanishes_on


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
        self._keys = None
        self._zeros = None
        self._rows = None
        self._proved = None  # W, as dimension() last proved it
        self._weights = None  # W, as normal_form reads it
        self._index = None

    # -- basis ------------------------------------------------------------

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
        """The basis keys, from the cache, which reads only a basis that
        gives its k's pinned CRC-32, or from a cold build; basis positions
        index every row and vector."""
        if self._keys is None:
            self._keys = self._load("basis")
            if self._keys is None:
                self._build_classes()

    def _build_classes(self) -> None:
        """The cold build: classify the enumerator's labelled graphs, then
        store the zero keys, and the basis unless one was read from the cache.
        A basis read from the cache is pinned, so it is the build's.  The
        listing streams into classify, which is looked up here at call time,
        so a tracer that rebinds spaces.classify times the build."""
        keys, zeros, generators = classify(labelled_graphs(self.k))
        if self._keys is None:
            self._store("basis", keys)
        self._keys, self._zeros, self._generators = keys, zeros, generators
        self._store("zeros", zeros)

    @property
    def basis(self):
        """The class representatives, read off the keys on first read.  A
        warm dim, reduce, surgery or enum never reads them."""
        if self._basis is None:
            self._basis = tuple(map(graph_of_key, self.keys))
        return self._basis

    @property
    def keys(self):
        """The signed class keys, sorted: the basis."""
        self._ensure_classes()
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
        return len(self.keys) + len(self.zero_keys)

    def _key_index(self):
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self.keys)}
        return self._index

    # -- vectors ----------------------------------------------------------

    def class_vector(self, g: LabelledTrivalentGraph, res: CanonResult | None = None) -> dict:
        """Sparse coefficient vector of the class of a labelled graph; res
        is g's canonical labelling if the caller has it (graphs.reduce)."""
        if g.k != self.k:
            raise ValueError(f"graph has {g.num_vertices} vertices, space expects {2 * self.k}")
        if has_parallel_edge(g) or (r := reduce(g, res)).is_zero:
            return {}
        idx = self._key_index()
        if r.key not in idx:
            raise ValueError("graph class missing from the enumerated basis")
        return {idx[r.key]: r.sign}

    def _by_key(self, vec: dict) -> dict:
        """A vector over the basis positions as one over the class keys, in
        basis order, zero entries dropped."""
        return {self.keys[i]: v for i, v in sorted(vec.items()) if v}

    # -- relations ----------------------------------------------------------

    def relation_rows(self):
        """One row per contracted hub class, zero rows dropped, in the order
        the hubs are first reached (hubs.hub_rows).

        The rule needs each basis graph to be its class's canonical
        representative, the graph its key spells, and its Aut generators.
        A basis classified here has both.  A basis read from the cache is
        pinned: its keys are a cold build's, byte for byte, so each graph
        they spell is canonical, and its generators are read off a fresh
        canonical labelling of it (hubs.hub_rows says why the rows are the
        same).
        """
        if self._rows is None:
            self._rows = self._cached("relations", self._hub_rows)
        return self._rows

    def _hub_rows(self):
        generators = self._generators or [
            _canonical_generators(canonicalize(g.num_vertices, g.edges)) for g in self.basis
        ]
        return hub_rows(self.basis, generators)

    # -- rank and dimension -------------------------------------------------

    def _certificate(self) -> list:
        """W, proved from the relation rows: the kernel vectors that vanish
        on every row, in echelon form, so independent, and as many as the
        basis size n minus the rank mod p, an upper bound on the dimension,
        for the first of PRIMES that closes the gap.  Both bounds read one
        singleton peel."""
        rows, n = self.relation_rows(), len(self.keys)
        peel = peel_singletons(rows)
        weights = [w for w in kernel_vectors(n, peel) if vanishes_on(rows, w)]
        if not in_echelon(weights):
            raise PrimeDisagreementError("kernel vectors are not in echelon form")
        for p in PRIMES:
            high = n - peeled_rank_mod_p(rows, peel, p)
            if high == len(weights):
                return weights
        raise PrimeDisagreementError(
            f"dimension bounds do not meet: at least {len(weights)}, at most {high} mod {p}"
        )

    def dimension(self) -> int:
        """Basis size minus the rank of the relation rows, proved by the
        certificate from the rows on every call."""
        self._proved = self._certificate()
        return len(self._proved)

    def exact_dimension(self) -> int:
        """Basis size minus the exact rank of the relation rows.  It reads
        no peel, so it is the check of the peel that the certificate's two
        bounds share."""
        return len(self.keys) - exact_rank(self.relation_rows())

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
            self._weights = self._cached(
                "rref", lambda: self._certificate() if self._proved is None else self._proved
            )
        pairings = ((w, sum(v * w[c] for c, v in vec.items() if c in w)) for w in self._weights)
        return {max(w): Fraction(s, w[max(w)]) for w, s in pairings if s}

    def reduce_graph(self, g: LabelledTrivalentGraph, res: CanonResult | None = None) -> dict:
        """The normal form of g's class; {} for a zero class, which reads
        nothing from the cache and builds nothing.  res as for class_vector."""
        vec = self.class_vector(g, res)
        return vec and self.normal_form(vec)


def dimension(k: int, cache: Cache | None = None) -> int:
    return GraphSpace(k, cache).dimension()
