"""Exact-arithmetic spaces of trivalent graphs, Morse-complex propagators
and the Y-link surgery evaluators, with a small command-line front end."""

from .graphs import (
    ArrowGraph,
    DisconnectedError,
    GraphClass,
    GraphError,
    LabelledTrivalentGraph,
    NonTrivalentError,
    all_arrow_orientations,
    automorphisms,
    find_arrow_orientation,
    ihx_expansions,
    make_arrow,
    reduce,
    validate,
)
from .morse import (
    GradedComplex,
    MorseError,
    NotAComplexError,
    NotAcyclicError,
    Propagator,
    check_complex,
    compute_propagator,
    dual_propagator,
    surviving_indices,
    trace_tr_g,
)
from .spaces import GraphSpace, PrimeDisagreementError, dimension, enumerate_graphs
from .surgery import (
    EvaluationReport,
    ResourceLimitError,
    SurgeryError,
    evaluate_full,
    evaluate_orbit,
    ylink,
)

__version__ = "0.1.0"

__all__ = [
    "ArrowGraph",
    "DisconnectedError",
    "EvaluationReport",
    "GradedComplex",
    "GraphClass",
    "GraphError",
    "GraphSpace",
    "LabelledTrivalentGraph",
    "MorseError",
    "NonTrivalentError",
    "NotAComplexError",
    "NotAcyclicError",
    "PrimeDisagreementError",
    "Propagator",
    "ResourceLimitError",
    "SurgeryError",
    "all_arrow_orientations",
    "automorphisms",
    "check_complex",
    "compute_propagator",
    "dimension",
    "dual_propagator",
    "enumerate_graphs",
    "evaluate_full",
    "evaluate_orbit",
    "find_arrow_orientation",
    "ihx_expansions",
    "make_arrow",
    "reduce",
    "surviving_indices",
    "trace_tr_g",
    "validate",
    "ylink",
]
