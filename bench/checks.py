"""Output checks for every workload.

Each checker returns None when an output is right and a short reason when it
is not, so the runner can count a mismatch instead of stopping.  The expected
values either come from a path the program does not share (the benchmark's
own relabelling parity, known dimensions, digests recorded from the seed
code) or compare two of the program's paths that could disagree.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial

from inputs import valid_orientation

# k -> (signed classes, zero classes, relation rows, SHA-256 of the sorted key
# lists), recorded from the seed code.  The digest freezes the canonical keys:
# a canonicalizer rewrite must reproduce them byte for byte.
CLASSES = {
    3: (2, 15, 3, "02f20c83507535a1fd63eba6cc5dd43bcd687df73d5f96bb8f88312327b279e4"),
    4: (4, 67, 10, "17333a963cc7d8414ed351afca1104c9cd2da9f7074b1a37ccde7ce73f6b3fcc"),
    5: (37, 351, 124, "9a9b3747451636805b15440700f3a5c850c92de748bd1c3233ff2137270768db"),
    6: (243, 2349, 1181, "efd2f85ae8cdf33e35827a699e26324f8c2bf3085a438e9bae0b725df57390f3"),
}
DIMENSIONS = {1: 0, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0}


def key_digest(signed, zero) -> str:
    text = json.dumps({"signed": sorted(signed), "zero": sorted(zero)}, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def assignment_count(k: int) -> int:
    """2^(3k) (2k)! (3k)!: vertex assignments the literal sum must visit."""
    return 2 ** (3 * k) * factorial(2 * k) * factorial(3 * k)


def _parse(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_build(k, dim, exact_dim, signed_keys, zero_keys, rows):
    """A cold GraphSpace build: both dimensions, class counts, keys, rows."""
    signed, zero, nrows, digest = CLASSES[k]
    if dim != DIMENSIONS[k] or exact_dim != DIMENSIONS[k]:
        return f"k={k}: dimensions {dim}/{exact_dim}, expected {DIMENSIONS[k]}"
    if (len(signed_keys), len(zero_keys), rows) != (signed, zero, nrows):
        return (
            f"k={k}: {len(signed_keys)} signed, {len(zero_keys)} zero, {rows} rows;"
            f" expected {signed}, {zero}, {nrows}"
        )
    if key_digest(signed_keys, zero_keys) != digest:
        return f"k={k}: class keys differ from the recorded digest"
    return None


def check_dim(out: str, k: int):
    if _parse(out) != {"k": k, "dimension": DIMENSIONS[k]}:
        return f"dim -k {k}: got {out.strip()!r}"
    return None


def check_enum(out: str, k: int):
    data = _parse(out)
    if not isinstance(data, dict) or data.get("k") != k:
        return f"enum -k {k}: malformed output"
    signed, zero, _, digest = CLASSES[k]
    if data.get("classes") != signed + zero:
        return f"enum -k {k}: {data.get('classes')} classes, expected {signed + zero}"
    if key_digest(data.get("signed", []), data.get("zero", [])) != digest:
        return f"enum -k {k}: class keys differ from the recorded digest"
    return None


def check_warm(out: str, k: int, files: int):
    if _parse(out) != {"warmed": k, "files": files}:
        return f"cache warm -k {k}: got {out.strip()!r}"
    return None


def expected_reduction(base_key, base_sign, base_form: dict, parity: int):
    """What `gc reduce` must print for a relabelled copy of a base graph.

    Relabelling vertices keeps the class sign and permuting edge labels
    multiplies it by the permutation's parity, so the sign and the normal
    form of the copy are the base graph's times that parity.
    """
    if base_sign is None:
        return {"class": "zero"}
    return {
        "class": {"key": base_key, "sign": parity * base_sign},
        "normal_form": {key: str(parity * v) for key, v in sorted(base_form.items())},
    }


def check_reduce(out: str, expected: dict):
    data = _parse(out)
    if data != expected:
        return f"reduce: got {out.strip()[:120]!r}, expected {json.dumps(expected)[:120]!r}"
    return None


def check_surgery(out: str, graph: dict, expected: dict):
    """The orbit evaluation echoes its input and equals the reduced class."""
    data = _parse(out)
    if not isinstance(data, dict) or data.get("mode") != "orbit":
        return "surgery: malformed output"
    if data.get("input") != graph:
        return "surgery: input echo differs from the file"
    want = expected.get("normal_form", {})
    if data.get("result") != want:
        return f"surgery: result {data.get('result')} differs from the reduced class {want}"
    return None


def check_aut(out: str, k: int, expected: tuple):
    data = _parse(out)
    if not isinstance(data, dict):
        return "aut: malformed output"
    got = (data.get("order"), data.get("edge_order"), data.get("vertex_order"))
    if got != expected:
        return f"aut: counts {got}, expected {expected} from the unrelabelled graph"
    order = data["order"]
    if order != data["edge_order"] * data["vertex_order"] or assignment_count(k) % order:
        return f"aut: order {order} breaks |Aut| = |Aut_e||Aut_v| or the counting identity"
    return None


def check_orient(out: str, graph: dict):
    data = _parse(out)
    if not isinstance(data, dict):
        return "orient: malformed output"
    if data.get("vertices") != graph["vertices"] or data.get("edges") != graph["edges"]:
        return "orient: graph differs from the input"
    dirs = [tuple(d) for d in data.get("directions", [])]
    if not valid_orientation(graph["vertices"], [tuple(e) for e in graph["edges"]], dirs):
        return "orient: directions leave a source or a sink"
    return None


def check_propagator(identity: bool, dual_identity: bool):
    if not identity:
        return "propagator: dg + gd = id fails"
    if not dual_identity:
        return "propagator: the dual contraction identity fails"
    return None


def check_obstruction(degree, defect, expected_degree: int):
    """An obstructed complex must stop at its homology generator."""
    if degree is None:
        return f"obstruction: no NotAcyclicError, expected degree {expected_degree}"
    if (degree, defect) != (expected_degree, 1):
        return f"obstruction: degree {degree} defect {defect}, expected {expected_degree} and 1"
    return None


def check_literal(k: int, full: dict, orbit: dict, reduced: dict):
    """Literal sum = closed form = reduced class, with the full assignment count."""
    if full["result"] != orbit["result"] or orbit["result"] != reduced:
        return f"literal sum: full {full['result']}, orbit {orbit['result']}, reduced {reduced}"
    if full["diagnostics"].get("assignments") != str(assignment_count(k)):
        return f"literal sum: {full['diagnostics'].get('assignments')} assignments at k={k}"
    return None
