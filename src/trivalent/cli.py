"""Command-line front end.

JSON on stdout is the canonical output; --format table is a display layer
over the same data.  Exit codes: 0 success, 1 domain error, 2 usage error.

Dispatch.  argparse's top-level parse of `gc <command> ...` only finds the
command: its subparsers action takes argv[0] and everything after it, and
hands the rest to that command's own parser, which fills a fresh namespace;
then the top-level parse copies that namespace over its own, in which only
--format and the command are set, and refuses any argument the command's
parser left.  So main skips the top-level pass when argv[0] is a command's
name: that command's parser reads argv[1:] into a namespace that holds the
--format default and the command, the same namespace by the same parser.
The top-level parse runs whenever argv[0] is not a command's name (no
argv, --format or -h first, an unknown or abbreviated command) or the
command's parser left arguments, so that every help text, usage error and
exit code is argparse's own: an error in the command's own arguments prints
that command's usage (usage: gc dim ...), and any other the top-level usage
(usage: gc ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cache import Cache
from .graphs import (
    GraphError,
    LabelledTrivalentGraph,
    automorphisms,
    find_arrow_orientation,
    make_arrow,
)
from .morse import (
    TYPE_I,
    TYPE_II,
    GradedComplex,
    MorseError,
    compute_propagator,
    contraction_identity_holds,
    dual_propagator,
    surviving_indices,
)
from .spaces import GraphSpace, PrimeDisagreementError
from .surgery import (
    CONVENTION_DEFAULT,
    CONVENTIONS,
    SurgeryError,
    evaluate_full,
    evaluate_orbit,
)

# 7: 0 from a cold GraphSpace(7): 21,096 classes, 2,069 of them signed, and
# 12,759 relation rows; the peel resolves every column, so the certificate
# (rank 2,069 mod 2^31 - 1) and the exact rank both give dimension 0
# 8: 0 by the same path, the full space: a cold GraphSpace(8) has 204,638
# classes, 21,807 of them signed, and 156,932 relation rows; the peel
# resolves every column, so the certificate (rank 21,807 mod 2^31 - 1)
# gives 0, and the exact rank, the check, agrees
KNOWN_DIMENSIONS = {1: 0, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 0}


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _prime_count(text: str) -> int:
    value = _positive(text)
    if value < 3:
        raise argparse.ArgumentTypeError("prime count must be at least 3")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gc parser, built once per process and never changed after:
    building it costs more than a warm query, and callers such as the
    tests run many commands in one process.  Its commands attribute maps
    each command's name to that command's own parser, which main calls
    directly (see the module docstring).  In process, on a 2-vCPU shared
    host under Python 3.11, building it takes about 0.95 ms; a top-level
    parse of `dim -k 4 --cache DIR` 0.031 ms, and the parse of
    `-k 4 --cache DIR` by dim's parser alone 0.015 ms; for `aut FILE`,
    0.015 and 0.007 ms (medians of 2,000)."""
    parser = argparse.ArgumentParser(
        prog="gc",
        description="Spaces of trivalent graphs, propagators and surgery evaluation.",
    )
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="output style"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, by name, for main

    def add_max_k(p, default=6):
        p.add_argument(
            "--max-k",
            type=_positive,
            default=default,
            help="refuse computations beyond this k",
        )

    def add_k(p):
        p.add_argument("-k", type=_positive, required=True, help="half the vertex count")
        add_max_k(p)

    def add_cache(p):
        p.add_argument("--cache", help="cache directory (default: $GC_CACHE or user cache)")

    def add_jobs(p):
        p.add_argument(
            "--jobs",
            type=_positive,
            default=1,
            help="accepted for compatibility; has no effect",
        )

    p = sub.add_parser("enum", help="list graph classes at a given k")
    add_k(p)
    add_cache(p)

    p = sub.add_parser("dim", help="dimension of the quotient space at a given k")
    add_k(p)
    add_cache(p)
    add_jobs(p)
    p.add_argument(
        "--primes",
        type=_prime_count,
        help="accepted for compatibility; has no effect",
    )

    p = sub.add_parser("reduce", help="class and normal form of a graph file")
    p.add_argument("file")
    add_max_k(p)
    add_cache(p)

    p = sub.add_parser("aut", help="automorphism counts of a graph file")
    p.add_argument("file")

    p = sub.add_parser("orient", help="find a source- and sink-free orientation")
    p.add_argument("file")

    p = sub.add_parser("surgery", help="evaluate the surgery sum for a graph file")
    p.add_argument("file")
    p.add_argument("--mode", choices=("orbit", "full"), default="orbit")
    p.add_argument(
        "--type-convention",
        choices=CONVENTIONS,
        default=CONVENTION_DEFAULT,
        help="which in/out pattern counts as type I",
    )
    add_max_k(p)
    add_cache(p)
    add_jobs(p)

    p = sub.add_parser("morse-propagator", help="contraction of an acyclic complex")
    p.add_argument("file")

    p = sub.add_parser("surviving", help="admissible index tuples per vertex type")

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    add_max_k(p, 3)
    add_cache(p)
    add_jobs(p)

    p = sub.add_parser("cache", help="inspect or manage the result cache")
    p.add_argument("action", choices=("status", "clear", "warm"))
    p.add_argument("-k", type=_positive, help="k to warm")
    add_max_k(p)
    add_cache(p)

    return parser


def _load_json(path: str, kind: str):
    """The file's JSON; text that is not UTF-8 JSON, nested past the
    decoder's recursion limit, or with a key repeated in one object
    (json.load would silently keep only its last value), is a ValueError
    naming the file."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: key {key!r} is repeated")
            obj[key] = value
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not a {kind} file ({exc})") from None


def _read_graph_file(path: str, read):
    """read(data) on a graph file's JSON; a missing, mistyped or malformed
    field is a ValueError naming the file."""
    data = _load_json(path, "graph")
    try:
        return read(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a graph file ({exc})")


def _arrow(data):
    """The file's graph, and its directions as an ArrowGraph if it has
    them, else None."""
    g = LabelledTrivalentGraph.from_json(data)
    return g, make_arrow(g, data["directions"]) if "directions" in data else None


def _cache_from(args) -> Cache:
    return Cache(getattr(args, "cache", None))


def _open_space(args, k: int) -> GraphSpace:
    """The space at k over the cache; a k beyond --max-k is refused before
    anything is built."""
    if k > args.max_k:
        raise ValueError(f"k = {k} exceeds --max-k = {args.max_k}")
    return GraphSpace(k, _cache_from(args))


def cmd_enum(args):
    space = _open_space(args, args.k)
    return {
        "k": args.k,
        "classes": space.num_classes,
        "signed": list(space.keys),
        "zero": sorted(space.zero_keys),
    }


def cmd_dim(args):
    space = _open_space(args, args.k)
    d = space.dimension()
    return {"k": args.k, "dimension": d}


def cmd_reduce(args):
    g = _read_graph_file(args.file, LabelledTrivalentGraph.from_json)
    space = _open_space(args, g.k)
    vec = space.class_vector(g)
    if not vec:
        return {"class": "zero"}
    # a nonzero class is ± one basis graph, whose key the space holds
    ((key, sign),) = space._by_key(vec).items()
    nf = space._by_key(space.normal_form(vec))
    return {
        "class": {"key": key, "sign": sign},
        "normal_form": {key: str(v) for key, v in nf.items()},
    }


def cmd_aut(args):
    g = _read_graph_file(args.file, LabelledTrivalentGraph.from_json)
    _, order, edge_order, vertex_order = automorphisms(g)
    return {
        "order": order,
        "edge_order": edge_order,
        "vertex_order": vertex_order,
        "generators": order,  # the group order; the key stays for output compatibility
    }


def cmd_orient(args):
    g = _read_graph_file(args.file, LabelledTrivalentGraph.from_json)
    return find_arrow_orientation(g).to_json()


def cmd_surgery(args):
    g, a = _read_graph_file(args.file, _arrow)
    space = _open_space(args, g.k)  # refuses a k beyond --max-k before the search
    a = a or find_arrow_orientation(g)
    evaluate = evaluate_orbit if args.mode == "orbit" else evaluate_full
    return evaluate(a, space, args.type_convention).to_json()


def cmd_morse_propagator(args):
    data = _load_json(args.file, "complex")
    try:
        c = GradedComplex.from_json(data)
    # a "boundaries" that is not an object fails as an AttributeError
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.file}: not a complex file ({exc})")
    return compute_propagator(c).to_json()  # checks d∘d = 0 first


def cmd_surviving(args):
    def encode(t):
        return [[list(ins), list(outs)] for ins, outs in surviving_indices(t)]

    return {"I": encode(TYPE_I), "II": encode(TYPE_II)}


def _selftest_checks(args):
    for k in range(1, args.max_k + 1):
        expected = KNOWN_DIMENSIONS.get(k)
        got = _open_space(args, k).dimension()
        yield f"dimension k={k}", expected is None or got == expected

    if args.max_k >= 2:
        space = _open_space(args, 2)
        k4 = LabelledTrivalentGraph(
            4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        )
        nf = space.reduce_graph(k4)
        yield "complete graph class survives", nf != {}
        rpt = evaluate_orbit(find_arrow_orientation(k4), space)
        yield "surgery matches reduction", rpt.result == space._by_key(nf)

    theta = LabelledTrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))
    rpt = evaluate_orbit(find_arrow_orientation(theta), _open_space(args, 1))
    yield "triple edge evaluates to zero", rpt.result == {}
    _, order, _, _ = automorphisms(theta)
    yield "representative count", order * 8 == 2 ** 3 * 2 * 6

    c = GradedComplex((2, 2, 0, 0, 0), {1: [[2, 1], [1, 1]], 2: [[], []], 3: [], 4: []})
    g = compute_propagator(c)
    yield "contraction identity", contraction_identity_holds(c, g)
    dual = dual_propagator(c, g)
    yield "dual contraction identity", contraction_identity_holds(*dual)
    # ∂_1 g_0 = id with ∂_1 invertible: g_0 is its exact inverse
    yield "propagator entries exact", g.g(0) == [[1, -1], [-1, 2]]

    one = surviving_indices(TYPE_I)
    two = surviving_indices(TYPE_II)
    yield "surviving tuple counts", len(one) == len(two) == 11
    yield "surviving tuples disjoint", not set(one) & set(two)


def cmd_selftest(args):
    checks = [{"name": name, "ok": ok} for name, ok in _selftest_checks(args)]
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def cmd_cache(args):
    cache = _cache_from(args)
    if args.action == "status":
        return {
            "directory": str(cache.directory),
            "entries": [{"file": name, "size": size} for name, size in cache.status()],
        }
    if args.action == "clear":
        return {"removed": cache.clear()}
    if args.k is None:
        raise ValueError("cache warm requires -k")
    space = _open_space(args, args.k)
    space.zero_keys
    space.relation_rows()
    space.normal_form({})
    return {
        "warmed": args.k,
        "files": len(cache.status()),
    }


_HANDLERS = {
    "enum": cmd_enum,
    "dim": cmd_dim,
    "reduce": cmd_reduce,
    "aut": cmd_aut,
    "orient": cmd_orient,
    "surgery": cmd_surgery,
    "morse-propagator": cmd_morse_propagator,
    "surviving": cmd_surviving,
    "selftest": cmd_selftest,
    "cache": cmd_cache,
}


def _render_table(payload) -> str:
    def cell(v):
        return v if isinstance(v, str) else json.dumps(v, separators=(",", ":"))

    items = payload.items() if isinstance(payload, dict) else enumerate(payload)
    rows = [(str(k), cell(v)) for k, v in items]
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # the module docstring says why this gives the top-level parse's result
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        top = argparse.Namespace(format=parser.get_default("format"), command=argv[0])
        args, extras = command.parse_known_args(argv[1:], top)
    if command is None or extras:
        args = parser.parse_args(argv)
    return _run(args)


def _run(args) -> int:
    """Run a parsed command: print its output, or its error on stderr, and
    return the exit code."""
    try:
        payload = _HANDLERS[args.command](args)
    except (
        GraphError,
        SurgeryError,
        MorseError,
        PrimeDisagreementError,
        ValueError,  # json.JSONDecodeError included
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "table":
        print(_render_table(payload))
    else:
        print(json.dumps(payload, separators=(",", ":")))
    if args.command == "selftest" and not payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
