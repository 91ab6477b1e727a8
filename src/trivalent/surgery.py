"""Linking data for Y-shaped surgery components and the two evaluators.

Every edge of an arrow graph contributes one Hopf pair of handle slots; a
vertex's three slots carry degrees 1 (outgoing) and 2 (incoming), making
vertices with two outgoing half-edges one type and vertices with two
incoming the other.  ylink builds those slots and their linking matrix,
and block_degrees and block_sign read them; the evaluators need neither.
Both evaluators run one body, which returns the normal form of the input
class with its automorphism counts.  The orbit evaluator uses the
automorphism-counting closed form.  The full evaluator, at small k, lists
the labelled copies of the graph in one pass over the vertex bijections,
multiplies in the edge sequences, orientations and slot matchings every
copy shares with the input, and checks the total against the
representative count that the automorphism group gives.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from ._record import Record
from .canon import canonicalize
from .graphs import ArrowGraph, GraphError, automorphisms, half_edges_at, make_arrow
from .morse import TYPE_I, TYPE_II
from .spaces import GraphSpace


class SurgeryError(Exception):
    pass


class ResourceLimitError(SurgeryError):
    """The literal sum is gated to small k."""


CONVENTION_DEFAULT = "default"
CONVENTION_FLIPPED = "flipped"
CONVENTIONS = (CONVENTION_DEFAULT, CONVENTION_FLIPPED)


class HandleSlot(Record):
    """One handle of a Y-component, bound to one half-edge."""

    vertex: int
    position: int  # 0..2 within the vertex
    edge: int
    end: int
    outgoing: bool
    degree: int  # 1 or 2

    @property
    def index(self) -> int:
        return 3 * self.vertex + self.position


class YLinkData(Record):
    vertex_types: tuple
    slots: tuple
    hopf_pairs: tuple  # per edge: (tail-side slot index, head-side slot index)
    convention: str

    def slots_at(self, v: int):
        return self.slots[3 * v : 3 * v + 3]


class LinkingMatrix(Record):
    size: int
    entries: tuple

    def row_sums(self):
        return tuple(sum(row) for row in self.entries)


class BlockDegrees(Record):
    """Per vertex: its three slot degrees and the resulting parity."""

    degrees: tuple
    parities: tuple


def _tail_end(arrow: ArrowGraph, e: int) -> int:
    u, v = arrow.graph.edges[e]
    if u == v:
        return 0  # a loop's stored order is its direction
    return 0 if arrow.directions[e][0] == u else 1


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown type convention {convention!r}")


def ylink(arrow: ArrowGraph, convention: str = CONVENTION_DEFAULT):
    """Handle slots, vertex types and the Hopf-pair linking matrix."""
    _check_convention(convention)
    g = arrow.graph
    out_degree = 1 if convention == CONVENTION_DEFAULT else 2
    in_degree = 3 - out_degree
    slots = []
    types = []
    slot_of = {}  # (edge, end) -> global slot index
    for v in range(g.num_vertices):
        halves = half_edges_at(g.edges, v)
        assert len(halves) == 3
        outs = 0
        for pos, (e, end) in enumerate(halves):
            outgoing = end == _tail_end(arrow, e)
            outs += outgoing
            slot = HandleSlot(
                v, pos, e, end, outgoing, out_degree if outgoing else in_degree
            )
            slots.append(slot)
            slot_of[(e, end)] = slot.index
        if (outs, 3 - outs) == (2, 1):
            types.append(TYPE_I if convention == CONVENTION_DEFAULT else TYPE_II)
        elif (outs, 3 - outs) == (1, 2):
            types.append(TYPE_II if convention == CONVENTION_DEFAULT else TYPE_I)
        else:
            raise GraphError(f"vertex {v} has no valid in/out split")
    pairs = []
    for e in range(len(g.edges)):
        t = _tail_end(arrow, e)
        pairs.append((slot_of[(e, t)], slot_of[(e, 1 - t)]))
    n = len(slots)
    entries = [[0] * n for _ in range(n)]
    for a, b in pairs:
        entries[a][b] = 1
        entries[b][a] = 1
    data = YLinkData(tuple(types), tuple(slots), tuple(pairs), convention)
    return data, LinkingMatrix(n, tuple(tuple(r) for r in entries))


def block_degrees(data: YLinkData) -> BlockDegrees:
    degs = []
    for v in range(len(data.vertex_types)):
        degs.append(tuple(s.degree for s in data.slots_at(v)))
    return BlockDegrees(tuple(degs), tuple(sum(d) % 2 for d in degs))


def block_sign(degrees: BlockDegrees, sigma) -> int:
    """Sign from rearranging the vertex blocks into the order sigma.

    Swapping two blocks costs a sign exactly when both have odd parity, so
    the sign counts inversions of sigma between odd-parity blocks.
    """
    par = degrees.parities
    n = len(sigma)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j] and par[sigma[i]] and par[sigma[j]]:
                sign = -sign
    return sign


class EvaluationReport(Record, unhashed=("input_json", "result", "diagnostics")):
    mode: str
    input_json: dict
    result: dict  # canonical class key -> Fraction
    diagnostics: dict  # integer strings
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "input": self.input_json,
            "result": {key: str(self.result[key]) for key in sorted(self.result)},
            "diagnostics": dict(sorted(self.diagnostics.items())),
            "notes": list(self.notes),
        }


_FOLD_NOTE = (
    "sign average folded: the 2^(3k) equal orientation-sign summands collapse "
    "into a single (-1)^(3k) factor"
)
_CONSTANT_TERM_NOTE = (
    "per-term class constancy applied: each surviving assignment contributes "
    "the class of the closed input graph"
)


def _evaluate(
    mode: str, arrow: ArrowGraph, space: GraphSpace | None, convention: str
) -> EvaluationReport:
    """The body both evaluators share: the normal form of the input class,
    the automorphism counts and the representative count L(G), and in full
    mode the one check that can fail, the loop-weighted copy count.

    The arrow is checked as make_arrow checks a parsed one, so a hand-built
    arrow with a source or sink vertex is a GraphError.  Nothing else is
    checked, because nothing else can fail.  Each vertex then has two
    outgoing ends and one incoming, or one and two, and ylink gives every
    slot its degree by whether it is outgoing, so each vertex realizes a
    surviving tuple of its type and each Hopf pair has the degrees {1, 2}.
    |Aut_v| is the order of a group of permutations of the 2k vertices and
    |Aut_e| = prod m! with sum m = 3k, so by Lagrange |Aut| divides
    2^(3k) (2k)! (3k)! and L(G) is the integer quotient.
    """
    _check_convention(convention)
    make_arrow(arrow.graph, arrow.directions)
    g = arrow.graph
    k = g.k
    space = space or GraphSpace(k)
    res = canonicalize(g.num_vertices, g.edges)
    _, aut, aut_e, aut_v = automorphisms(g, res)
    order = 2 ** (3 * k) * factorial(2 * k) * factorial(3 * k)
    reps = order // aut
    diagnostics = {
        "aut": str(aut),
        "aut_e": str(aut_e),
        "aut_v": str(aut_v),
        "representatives": str(reps),
    }
    notes = (_FOLD_NOTE,)
    if mode == "full":
        pairs = [(u, v) if u <= v else (v, u) for u, v in g.edges]
        copies = {
            tuple(sorted((p[u], p[v]) if p[u] <= p[v] else (p[v], p[u]) for u, v in pairs))
            for p in itertools.permutations(range(g.num_vertices))
        }
        sequences = factorial(3 * k) // prod(factorial(pairs.count(e)) for e in set(pairs))
        # 2^(3k - loops) orientations times 2^loops loop slot matchings
        weighted = len(copies) * sequences * 2 ** (3 * k)
        if weighted != reps:
            raise SurgeryError(f"loop-weighted copy count {weighted} differs from L = {reps}")
        diagnostics["assignments"] = str(order)
        notes += (_CONSTANT_TERM_NOTE,)
    return EvaluationReport(
        mode=mode,
        input_json=arrow.to_json(),
        result=space._by_key(space.reduce_graph(g, res)),
        diagnostics=diagnostics,
        notes=notes,
    )


def evaluate_orbit(
    arrow: ArrowGraph,
    space: GraphSpace | None = None,
    convention: str = CONVENTION_DEFAULT,
) -> EvaluationReport:
    """Closed-form evaluation through the representative-count identity.

    The sum over vertex assignments, labellings and orientations contributes
    the input class once per (representative, assignment, slot matching)
    triple; there are L(G) * |Aut_v| * |Aut_e| = 2^(3k) (2k)! (3k)! of
    those, each with the folded sign (-1)^(3k), and the normalization
    (-1)^(3k) / (2^(3k) (2k)! (3k)!) divides the same number back out.  The
    result is therefore the normal form of the input class itself.
    """
    return _evaluate("orbit", arrow, space, convention)


def evaluate_full(
    arrow: ArrowGraph,
    space: GraphSpace | None = None,
    convention: str = CONVENTION_DEFAULT,
) -> EvaluationReport:
    """Literal sum over labellings, orientations and vertex assignments.

    Gated to k <= 2.  One pass over the (2k)! vertex bijections collects the
    distinct labelled copies of the underlying graph.  Every copy is
    isomorphic to the input, so every copy has the same (3k)! / prod m!
    edge sequences (m running over the edge multiplicities), 2^(3k - loops)
    orientations of each, and 2^loops slot matchings of its loops: one
    product, read off the input graph.  The loop-weighted count of labelled
    oriented copies, copies times that product, must equal the
    representative count L(G) computed from the automorphism group; the
    pass never reads that group, so a wrong group fails the check.  With
    it, the prefactor is 1 as in evaluate_orbit.  The `assignments`
    diagnostic reports the 2^(3k) (2k)! (3k)! surviving assignments the
    closed form divides back out.
    """
    if arrow.graph.k > 2:
        raise ResourceLimitError(f"full evaluation is gated to k <= 2, got k = {arrow.graph.k}")
    return _evaluate("full", arrow, space, convention)
