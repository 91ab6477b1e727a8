"""Self-check of the output checkers, run by `python3 bench/run.py --self-check`.

Every checker gets one genuine output, which it must accept, and one
corrupted copy, which it must reject; a checker that cannot fail would let a
wrong answer through unnoticed.  The genuine outputs come from small inputs
(k <= 3, rank-16 complexes) so the whole check takes seconds.  It also
confirms that BENCHMARK.json declares exactly the metrics the code reports.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import tempfile
from pathlib import Path

from trivalent import cache, graphs, morse, spaces, surgery

import checks
import inputs
import spans
from workloads import PROPERTIES, keyed, run_cli

K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _edit(text: str, change) -> str:
    data = json.loads(text)
    change(data)
    return json.dumps(data)


def _cases(tmp):
    """Yield (checker, verdict on the genuine output, verdict on a corrupted one)."""
    rng = random.Random(0)
    cdir = str(tmp / "cache")

    space = spaces.GraphSpace(3, cache.Cache(cdir))
    dims = (space.dimension(), space.exact_dimension())
    keys = [graphs.reduce(g).key for g in space.basis]
    zeros = sorted(space.zero_keys)
    rows = len(space.relation_rows())
    yield "check_build (dimension)", checks.check_build(3, *dims, keys, zeros, rows), \
        checks.check_build(3, 1, dims[1], keys, zeros, rows)
    yield "check_build (key digest)", checks.check_build(3, *dims, keys, zeros, rows), \
        checks.check_build(3, *dims, keys, zeros[:-1] + [zeros[-1] + "0"], rows)

    _, out, _ = run_cli(["dim", "-k", "3", "--cache", cdir])
    yield "check_dim", checks.check_dim(out, 3), \
        checks.check_dim(_edit(out, lambda d: d.update(dimension=1)), 3)

    def swap_one(d):
        d["signed"][0], d["zero"][0] = d["zero"][0], d["signed"][0]

    _, out, _ = run_cli(["enum", "-k", "3", "--cache", cdir])
    yield "check_enum", checks.check_enum(out, 3), checks.check_enum(_edit(out, swap_one), 3)

    _, out, _ = run_cli(["cache", "warm", "-k", "2", "--cache", str(tmp / "warm")])
    yield "check_warm", checks.check_warm(out, 2, 4), checks.check_warm(out, 2, 3)

    # a relabelled complete graph: signed, with a nonzero normal form at k=2
    edges, parity = inputs.relabel(rng, 4, K4)
    graph = {"vertices": 4, "edges": [list(e) for e in edges],
             "directions": [list(d) for d in inputs.random_orientation(rng, 4, edges)]}
    path = tmp / "k4.json"
    path.write_text(json.dumps(graph))
    base = graphs.validate(4, K4)
    cls = graphs.reduce(base)
    space2 = spaces.GraphSpace(2, cache.Cache(cdir))
    expected = checks.expected_reduction(cls.key, cls.sign, keyed(space2, space2.reduce_graph(base)), parity)

    _, out, _ = run_cli(["reduce", str(path), "--cache", cdir])
    yield "check_reduce", checks.check_reduce(out, expected), \
        checks.check_reduce(_edit(out, lambda d: d["class"].update(sign=-d["class"]["sign"])), expected)

    def negate_result(d):
        key = next(iter(d["result"]))
        d["result"][key] = str(-int(d["result"][key]))

    _, out, _ = run_cli(["surgery", str(path), "--cache", cdir])
    yield "check_surgery", checks.check_surgery(out, graph, expected), \
        checks.check_surgery(_edit(out, negate_result), graph, expected)

    counts = graphs.automorphisms(base)[1:]
    _, out, _ = run_cli(["aut", str(path)])
    yield "check_aut", checks.check_aut(out, 2, counts), \
        checks.check_aut(_edit(out, lambda d: d.update(order=2 * d["order"], edge_order=2 * d["edge_order"])), 2, counts)

    def make_source(d):
        d["directions"] = [[0, v] if u == 0 else [0, u] if v == 0 else [u, v] for u, v in d["edges"]]

    _, out, _ = run_cli(["orient", str(path)])
    yield "check_orient", checks.check_orient(out, graph), \
        checks.check_orient(_edit(out, make_source), graph)

    ranks, bnd = inputs.chain_complex(rng, [2, 2, 2, 2], [0] * 5)
    c = morse.GradedComplex(tuple(ranks), bnd)
    g = morse.compute_propagator(c)
    bad = copy.deepcopy(g)
    bad.mats[1][0][0] += 1

    def verdict(p):
        return checks.check_propagator(
            morse.contraction_identity_holds(c, p), morse.contraction_identity_holds(*morse.dual_propagator(c, p)))

    yield "check_propagator", verdict(g), verdict(bad)

    ranks, bnd = inputs.chain_complex(rng, [2, 2, 2, 2], [0, 0, 1, 0, 0])
    try:
        morse.compute_propagator(morse.GradedComplex(tuple(ranks), bnd))
        found = (None, None)
    except morse.NotAcyclicError as exc:
        found = (exc.degree, exc.defect)
    yield "check_obstruction", checks.check_obstruction(*found, 2), \
        checks.check_obstruction(found[0] + 1, found[1], 2)

    arrow = graphs.make_arrow(base, inputs.random_orientation(rng, 4, K4))
    full = surgery.evaluate_full(arrow, space2).to_json()
    orbit = surgery.evaluate_orbit(arrow, space2).to_json()
    reduced = {key: str(v) for key, v in keyed(space2, space2.reduce_graph(base)).items()}
    wrong = copy.deepcopy(full)
    wrong["diagnostics"]["assignments"] = str(int(wrong["diagnostics"]["assignments"]) - 1)
    yield "check_literal", checks.check_literal(2, full, orbit, reduced), \
        checks.check_literal(2, wrong, orbit, reduced)


def declared_metrics(root, end_to_end: dict):
    """Mismatches between BENCHMARK.json and the metrics the code reports."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    reported = {"end_to_end": dict(end_to_end),
                "per_layer": {name: unit for name, (_, unit) in spans.layer_metrics([], 1.0, 1.0).items()}}
    for name in PROPERTIES:
        reported["per_layer"][f"workload.{name}"] = "ratio"
    for kind, names in reported.items():
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if declared != names:
            problems.append(f"{kind}: BENCHMARK.json declares {sorted(set(declared) ^ set(names))} "
                            "differently from the code")
    return problems


def main(root, work, end_to_end) -> int:
    work.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selfcheck-", dir=work)
    failed = 0
    try:
        for name, genuine, corrupted in _cases(Path(tmp)):
            ok = genuine is None and corrupted is not None
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine {'accepted' if genuine is None else 'rejected: ' + genuine}; "
                  f"corrupted {'rejected: ' + corrupted if corrupted else 'accepted'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in declared_metrics(root, end_to_end):
        failed += 1
        print(f"FAIL {problem}")
    print(f"self-check: {failed} failure(s)")
    return 1 if failed else 0
