"""Finite graded chain complexes, contractions, transport, split-edge graphs.

Degrees run 0..4 throughout.  Boundary matrices are integer, propagators
rational.  A propagator holds each g as an integer matrix over its least
denominator, the form the solve answers in, so the solve, the identity
check and the dual all work on it as it is: every product is of integer
matrices and every identity is an exact integer zero test.  Fractions are
made only where a g is read entry by entry (Propagator.g, to_json and
trace_tr_g).  Every product runs linalg's one product loop, sub_product,
on listed factors (the nonzero entries of each row); each boundary and
each g is listed once per solve or check, and the listings live only for
that call.  A residual starts as its denominator times the identity and
each term is subtracted straight into it.  Matrices are dense row-major
lists, entry (row=target, col=source), and shapes follow the rank vector
so zero-rank degrees work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd, lcm

from ._record import Record
from .graphs import LabelledTrivalentGraph, strict_int, validate
from .linalg import exact_rank, identity_matrix, nonzeros, solve_exact, sub_product

TOP_DEGREE = 4
# the boundary keys of a complex file, exactly: "02" or "9" would alias or
# add a degree
_DEGREE_KEYS = tuple(str(d) for d in range(1, TOP_DEGREE + 1))


class MorseError(Exception):
    pass


class NotAComplexError(MorseError):
    """Some composite boundary entry is nonzero; carries the first one."""

    def __init__(self, degree, row, col, value):
        self.degree, self.row, self.col, self.value = degree, row, col, value
        super().__init__(
            f"boundary composite at degree {degree} has entry {value} at ({row},{col})"
        )


class NotAcyclicError(MorseError):
    """No contraction exists; carries the offending degree and rank defect."""

    def __init__(self, degree, defect):
        self.degree, self.defect = degree, defect
        super().__init__(f"homology at degree {degree} has dimension {defect}")


class DegreeMismatchError(MorseError):
    pass


class InvalidDecorationError(MorseError):
    pass


class GradedComplex(Record, unhashed=("boundaries",)):
    """ranks[d] basis elements in degree d; boundaries[d] maps d to d-1."""

    ranks: tuple
    boundaries: dict

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.ranks) != TOP_DEGREE + 1 or any(r < 0 for r in self.ranks):
            raise MorseError("ranks must be five non-negative integers")
        for d in range(1, TOP_DEGREE + 1):
            m = self.boundaries.get(d)
            if m is None:
                raise MorseError(f"missing boundary for degree {d}")
            if len(m) != self.ranks[d - 1] or any(len(row) != self.ranks[d] for row in m):
                raise MorseError(
                    f"boundary {d} must be {self.ranks[d - 1]} x {self.ranks[d]}"
                )

    def to_json(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "boundaries": {
                str(d): [[int(x) for x in row] for row in self.boundaries[d]]
                for d in range(1, TOP_DEGREE + 1)
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "GradedComplex":
        ranks = tuple(strict_int(r, "rank") for r in data["ranks"])
        bnd = {}
        for d, m in data["boundaries"].items():
            if d not in _DEGREE_KEYS:
                raise ValueError(f"boundary degree {d!r} is not one of 1 to {TOP_DEGREE}")
            bnd[int(d)] = [[strict_int(x, "boundary entry") for x in row] for row in m]
        return cls(ranks, bnd)


def _is_zero(m) -> bool:
    return not any(map(any, m))


def _listed_boundaries(c: GradedComplex) -> dict:
    return {d: nonzeros(c.boundaries[d]) for d in range(1, TOP_DEGREE + 1)}


def check_complex(c: GradedComplex, listed: dict | None = None) -> GradedComplex:
    """Verify ∂∘∂ = 0 in every degree; raises with the first bad entry.

    listed is c's boundaries as nonzeros lists, if the caller has them.
    Each product is built one dense row at a time, and only at the rows of
    ∂_(d-1) that hold a nonzero, so it takes the memory of one row whatever
    the ranks; the first nonzero entry in row-major order is the one
    reported.
    """
    if listed is None:
        listed = _listed_boundaries(c)
    for d in range(2, TOP_DEGREE + 1):
        for i, a in enumerate(listed[d - 1]):
            if not a:
                continue
            row = [0] * c.ranks[d]
            sub_product([row], [a], listed[d], -1)
            if any(row):
                j = next(j for j, v in enumerate(row) if v)
                raise NotAComplexError(d, i, j, row[j])
    return c


class Propagator(Record, unhashed=("mats", "dens")):
    """Rational g_d: degree d -> degree d+1, for d = 0..3, as
    mats[d] / dens[d]: mats[d] is a dense integer matrix and dens[d] > 0
    its least denominator, so the gcd of dens[d] and the entries is 1."""

    ranks: tuple
    mats: dict
    dens: dict

    def g(self, d: int):
        """g_d as Fractions, with the int 0 for a zero entry."""
        if d < 0 or d >= TOP_DEGREE:
            return []
        den = self.dens[d]
        return [[Fraction(v, den) if v else 0 for v in row] for row in self.mats[d]]

    def to_json(self) -> dict:
        return {
            "ranks": list(self.ranks),
            "gs": {
                str(d): [[str(x) for x in row] for row in self.g(d)]
                for d in range(TOP_DEGREE)
            },
        }


def _homology_defect(c: GradedComplex, d: int) -> int:
    def rank_of(deg):
        if deg < 1 or deg > TOP_DEGREE:
            return 0
        rows = [
            {j: v for j, v in enumerate(row) if v} for row in c.boundaries[deg]
        ]
        return exact_rank(rows)

    return c.ranks[d] - rank_of(d) - rank_of(d + 1)


def _check_width(c: GradedComplex, d: int) -> None:
    """NotAcyclic at degree d if its rank exceeds its neighbours' sum, which
    leaves it homology, checked before its dense residual is built.  If the
    check passes, ranks[d] ** 2 is at most the entry count of ∂_d and
    ∂_(d+1), so the residual is no larger than the input spells out."""
    ranks = (0, *c.ranks, 0)
    if ranks[d + 1] > ranks[d] + ranks[d + 2]:
        raise NotAcyclicError(d, _homology_defect(c, d))


def _residual(c: GradedComplex, listed: dict, gs: dict, d: int):
    """(R, den) with R / den = id − ∂_{d+1} g_d − g_{d−1} ∂_d in degree d,
    each term only if gs holds its degree.

    listed holds c's boundaries as nonzeros lists, and gs maps each degree
    d that g holds to (g_d listed the same way, its denominator), so every
    product is of integer matrices, and den is the lcm of the denominators
    present.  R is dense: it starts as den times the identity, and each
    term is subtracted straight into it (sub_product), scaled to den.  The
    contraction identity holds in degree d exactly when R is zero; before
    g_d exists, R / den is the right-hand side that ∂_{d+1} g_d must equal.
    """
    rd = c.ranks[d]
    terms = []
    if d in gs:
        gd, gden = gs[d]
        terms.append((listed[d + 1], gd, gden))
    if d - 1 in gs:
        gd, gden = gs[d - 1]
        terms.append((gd, listed[d], gden))
    den = lcm(*(t for _, _, t in terms))
    out = [[0] * rd for _ in range(rd)]
    for i, row in enumerate(out):
        row[i] = den
    for a, b, tden in terms:
        sub_product(out, a, b, den // tden)
    return out, den


def compute_propagator(c: GradedComplex) -> Propagator:
    """A chain contraction: ∂g + g∂ = id in every degree, or NotAcyclic.

    Solved degree by degree from the bottom, over the integers: the
    right-hand side is the integer residual R over its denominator den, and
    solve_exact gives ∂_{d+1} X = xden R with X an integer matrix in least
    form, so g_d is X over xden den.  X shares no factor with xden, so only
    a factor of den can be common to X and xden den; brought to that least
    denominator, X is what the propagator holds, and it is listed once for
    the residuals that read it.  No Fraction is made.  The boundaries are
    listed once, for check_complex and every residual.  The elimination
    order is fixed and free variables are zeroed, so the answer is
    deterministic.
    """
    listed = _listed_boundaries(c)
    check_complex(c, listed)
    g = Propagator(c.ranks, {}, {})
    gs: dict = {}
    for d in range(TOP_DEGREE):
        _check_width(c, d)
        rhs, den = _residual(c, listed, gs, d)
        sol = solve_exact(c.boundaries[d + 1], rhs, c.ranks[d + 1])
        if sol is None:
            raise NotAcyclicError(d, _homology_defect(c, d))
        x, xden = sol
        if den > 1:
            common = reduce(gcd, (v for row in x for v in row if v), den)
            if common > 1:
                x = [[v // common for v in row] for row in x]
                den //= common
        den *= xden
        g.mats[d], g.dens[d] = x, den
        gs[d] = nonzeros(x), den
    # top degree: g_3 ∂_4 = id follows from exactness; verify outright
    _check_width(c, TOP_DEGREE)
    if not _is_zero(_residual(c, listed, gs, TOP_DEGREE)[0]):
        raise NotAcyclicError(TOP_DEGREE, _homology_defect(c, TOP_DEGREE))
    return g


def contraction_identity_holds(c: GradedComplex, g: Propagator) -> bool:
    """Exact check of ∂_{d+1} g_d + g_{d-1} ∂_d = id for d = 0..4, as an
    integer zero test on the integer matrices and denominators g holds, so
    the check reads exactly what the propagator holds.  Each boundary and
    each g is listed once per call."""
    listed = _listed_boundaries(c)
    gs = {d: (nonzeros(m), g.dens[d]) for d, m in g.mats.items()}
    return all(_is_zero(_residual(c, listed, gs, d)[0]) for d in range(TOP_DEGREE + 1))


def _neg_transpose(m, cols: int):
    return [[-row[j] for row in m] for j in range(cols)]


def dual_propagator(c: GradedComplex, g: Propagator):
    """Degree-reversed complex with ∂* = −∂^T and its contraction −g^T,
    which keeps each g's denominator."""
    ranks = tuple(reversed(c.ranks))
    bnd = {}
    for d in range(1, TOP_DEGREE + 1):
        src = TOP_DEGREE + 1 - d  # ∂*_d is -(∂_{5-d})^T
        bnd[d] = _neg_transpose(c.boundaries[src], c.ranks[src])
    dual_c = GradedComplex(ranks, bnd)
    dual_g = Propagator(ranks, {}, {})
    for d in range(TOP_DEGREE):
        src = TOP_DEGREE - 1 - d  # g*_d is -(g_{3-d})^T
        dual_g.mats[d] = _neg_transpose(g.mats[src], c.ranks[src])
        dual_g.dens[d] = g.dens[src]
    return dual_c, dual_g


class BasisRef(Record):
    """A basis element of a graded complex: degree 0..4 plus position."""

    degree: int
    position: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not (0 <= self.degree <= TOP_DEGREE) or self.position < 0:
            raise InvalidDecorationError(f"bad basis reference {self}")


class HandleSlideEvent(Record):
    """Elementary basis slide between two distinct same-degree elements."""

    p: BasisRef
    q: BasisRef
    sign: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.p.degree != self.q.degree or self.p == self.q:
            raise MorseError("handle slides need two distinct same-degree elements")
        if self.sign not in (1, -1):
            raise MorseError("sign must be +1 or -1")


def transport(events, ranks):
    """Product of elementary matrices, one factor per event in order.

    Per degree d the result is (1 + s_1 E_{q_1 p_1}) ... (1 + s_n E_{q_n p_n})
    over the degree-d events; each factor has determinant 1, so the product
    is invertible over the integers.
    """
    ranks = tuple(ranks)
    out = {d: identity_matrix(ranks[d]) for d in range(TOP_DEGREE + 1)}
    for ev in events:
        d = ev.p.degree
        n = ranks[d]
        if ev.p.position >= n or ev.q.position >= n:
            raise MorseError(f"event {ev} is out of range for rank {n}")
        phi = out[d]
        # right-multiply by I + sign * unit(q row, p col): add sign*col_q to col_p
        col_p, col_q = ev.p.position, ev.q.position
        for i in range(n):
            phi[i][col_p] += ev.sign * phi[i][col_q]
    return out


class CGraph(Record, unhashed=("decorations", "arcs")):
    """Trivalent graph with some edges split into two decorated arcs.

    Splitting edge i = (u, v) inserts white endpoints: arcs (u, w_{i,0}) and
    (w_{i,1}, v).  The decoration of a split edge is a pair of basis
    references (p_i, q_i); a compact edge keeps degree 1.
    """

    underlying: LabelledTrivalentGraph
    split: tuple
    decorations: dict
    arcs: dict

    @property
    def num_black(self) -> int:
        return self.underlying.num_vertices

    @property
    def num_white(self) -> int:
        return 2 * len(self.split)

    def edge_degree(self, i: int) -> int:
        if i in self.decorations:
            p, q = self.decorations[i]
            return p.degree - q.degree
        return 1


def split_edges(g: LabelledTrivalentGraph, subset, decorations) -> CGraph:
    """Split the chosen edges into decorated arc pairs."""
    subset = tuple(sorted(set(int(i) for i in subset)))
    for i in subset:
        if not (0 <= i < len(g.edges)):
            raise InvalidDecorationError(f"no edge {i} to split")
    decs = {}
    for i in subset:
        if i not in decorations:
            raise InvalidDecorationError(f"split edge {i} lacks a decoration")
        p, q = decorations[i]
        if not isinstance(p, BasisRef) or not isinstance(q, BasisRef):
            raise InvalidDecorationError(f"decoration of edge {i} must be basis references")
        decs[i] = (p, q)
    extra = set(decorations) - set(subset)
    if extra:
        raise InvalidDecorationError(f"decorations for unsplit edges {sorted(extra)}")
    arcs = {}
    for i in subset:
        u, v = g.edges[i]
        arcs[i] = ((u, ("w", i, 0)), (("w", i, 1), v))
    return CGraph(g, subset, decs, arcs)


def close(c: CGraph) -> LabelledTrivalentGraph:
    """Rejoin every split edge by identifying its two white endpoints."""
    edges = []
    for i, (u, v) in enumerate(c.underlying.edges):
        if i in c.arcs:
            (a, w0), (w1, b) = c.arcs[i]
            # identify w0 with w1: the arc pair reconnects a to b
            edges.append((a, b))
        else:
            edges.append((u, v))
    return validate(c.underlying.num_vertices, edges)


def trace_tr_g(gs, c: CGraph):
    """(product of −g-coefficients over split edges, closed graph).

    gs maps each split edge label to the Propagator used for it; the factor
    for edge i with decoration (p, q) is −(entry of p in g(q)), which needs
    |p| = |q| + 1.
    """
    coeff = Fraction(1)
    for i in c.split:
        p, q = c.decorations[i]
        if p.degree != q.degree + 1:
            raise DegreeMismatchError(
                f"edge {i}: need degree(p) = degree(q) + 1, got {p.degree}, {q.degree}"
            )
        try:
            g = gs[i]
        except (KeyError, IndexError):
            raise InvalidDecorationError(f"no propagator for split edge {i}")
        mat = g.mats[q.degree]
        if p.position >= len(mat) or (mat and q.position >= len(mat[0])):
            raise InvalidDecorationError(f"decoration of edge {i} is out of range")
        coeff *= -Fraction(mat[p.position][q.position], g.dens[q.degree])
    return coeff, close(c)


# the two admissible vertex kinds for the counting formula
TYPE_I = "I"
TYPE_II = "II"


def surviving_indices(vertex_type: str):
    """Index tuples (inputs | outputs) whose weighted sum hits the target.

    A trivalent vertex carries three half-edge indices: inputs from {1,2,3}
    weighted 4−a, outputs from {0,1,2} weighted a, summing to 4 for type I
    and 5 for type II.  Tuples are sorted within each side, and the pairs
    come in increasing order.
    """
    if vertex_type == TYPE_I:
        target = 4
    elif vertex_type == TYPE_II:
        target = 5
    else:
        raise ValueError(f"unknown vertex type {vertex_type!r}")
    return [
        (ins, outs)
        for n_in in range(4)
        for ins in combinations_with_replacement((1, 2, 3), n_in)
        for outs in combinations_with_replacement((0, 1, 2), 3 - n_in)
        if sum(4 - a for a in ins) + sum(outs) == target
    ]
