"""The three workloads.

Every workload has the same shape, which the runner drives:

    prepare()     make the seeded inputs (part of set-up);
    job_items()   the fixed, expensive job, as a list of items;
    op_items()    one round of the closed loop, as a list of items; called
                  after the job, whose output (a warm cache) it may use.

An item is a pair (fn, check): fn() does one timed piece of work and returns
its output, check(output) returns None or the reason the output is wrong.
Each call of fn starts from fresh state, so an item can be repeated.  Checks
run outside the timed regions.  The program is reached only through module
attributes looked up at call time (`cli.main`, `spaces.GraphSpace`, ...), so
the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

from trivalent import cache, cli, graphs, morse, spaces, surgery

import checks
import inputs


def run_cli(argv):
    """One in-process `gc` invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_failure(out):
    rc, _, err = out
    return f"exit code {rc}: {err.strip()[:200]}" if rc else None


def keyed(space, vec: dict) -> dict:
    """A sparse vector over the basis, indexed by class key instead."""
    keys = [graphs.reduce(b).key for b in space.basis]
    return {keys[i]: v for i, v in vec.items() if v}


# Shares of the inputs that are signed graph classes and obstructed complexes.
PROPERTIES = ("signed_share", "obstructed_share")


class Workload:
    name = ""
    job_rounds = 1  # times the job is repeated; job_s sums each item's median time

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.dir))

    def properties(self) -> dict:
        """Input properties a gain may depend on: name -> share."""
        return {name: getattr(self, name) for name in PROPERTIES}


# A simple cubic graph on 12 vertices whose class is signed (nonzero).
BASE_K6 = (
    (11, 7), (0, 10), (6, 9), (7, 5), (11, 3), (3, 6), (1, 0), (3, 10), (11, 9),
    (7, 4), (8, 0), (9, 1), (2, 8), (4, 6), (5, 4), (8, 10), (2, 5), (1, 2),
)
REOPENS = 4  # relabelled copies of BASE_K6, one reopen each per loop round


class ColdK6(Workload):
    """Cold k=6 build to a checked answer, then warm reopens of its cache.

    One loop operation is a reopen: `dim -k 6` then `reduce <k=6 graph>`,
    each a fresh in-process `gc` run on the cache the last build wrote.
    """

    name = "cold_k6"
    job_rounds = 2
    signed_share = 1.0
    obstructed_share = 0.0

    def prepare(self):
        rng = random.Random(self.seed)
        self.inputs = []
        for j in range(REOPENS):
            edges, parity = inputs.relabel(rng, 12, BASE_K6)
            path = self.dir / f"k6-{j}.json"
            path.write_text(json.dumps({"vertices": 12, "edges": edges}))
            self.inputs.append((str(path), parity))
        self.base = None

    def job_items(self):
        return [(self.build, self.check_build)]

    def build(self):
        self.cache_dir = str(self.fresh_dir("cache-"))
        space = spaces.GraphSpace(6, cache.Cache(self.cache_dir))
        dims = (space.dimension(), space.exact_dimension())
        space.normal_form({})  # exact rref; writes the last cache kind
        return space, dims

    def check_build(self, out):
        space, dims = out
        keys = [graphs.reduce(g).key for g in space.basis]
        if self.base is None:
            base = graphs.validate(12, BASE_K6)
            r = graphs.reduce(base)
            self.base = (r.key, r.sign, keyed(space, space.reduce_graph(base)))
        return checks.check_build(6, *dims, keys, space.zero_keys, len(space.relation_rows()))

    def op_items(self):
        return [(functools.partial(self.reopen, path), functools.partial(self.check_reopen, parity))
                for path, parity in self.inputs]

    def reopen(self, path):
        return (
            run_cli(["dim", "-k", "6", "--cache", self.cache_dir]),
            run_cli(["reduce", path, "--cache", self.cache_dir]),
        )

    def check_reopen(self, parity, out):
        dim, reduction = out
        return (
            _cli_failure(dim)
            or checks.check_dim(dim[1], 6)
            or _cli_failure(reduction)
            or checks.check_reduce(reduction[1], checks.expected_reduction(*self.base, parity))
        )


# Every command runs once per pool input at each k, so the mix is equal;
# `dim` and `enum` take no input and repeat the same arguments.
QUERY_COMMANDS = ("reduce", "surgery", "aut", "orient", "dim", "enum")
QUERY_KS = (3, 4, 5)
# Per k: (stub-matched multigraphs, of them signed), (simple graphs, of them
# signed).  The signed counts follow the natural rates of each generator
# (measured over 400 draws: 6%, 8%, 17% of multigraphs and 0%, 0%, 48% of
# simple graphs at k = 3, 4, 5), fixed so every seed has the same mix.
QUERY_POOL = {3: ((12, 1), (4, 0)), 4: ((12, 1), (4, 0)), 5: ((12, 2), (4, 2))}


class WarmQueries(Workload):
    """Per-invocation latency of `gc` queries on a warm k=3..5 cache.

    The job warms a fresh cache with `gc cache warm -k 3`, `-k 4`, `-k 5`;
    every query is then a fresh in-process `gc` run that opens a new
    GraphSpace on the last cache warmed.
    """

    name = "warm_queries"
    job_rounds = 3  # one warm-up takes 2 to 3 s
    obstructed_share = 0.0

    def prepare(self):
        rng = random.Random(self.seed)
        pool = []
        for k in QUERY_KS:
            for simple, (size, signed) in zip((False, True), QUERY_POOL[k]):
                want = {False: signed, True: size - signed}  # keyed by "is zero"
                while want[False] or want[True]:
                    base = inputs.stub_matched_graph(rng, k, simple)
                    cls = graphs.reduce(graphs.validate(2 * k, base))
                    if not want[cls.is_zero]:
                        continue
                    want[cls.is_zero] -= 1
                    edges, parity = inputs.relabel(rng, 2 * k, base)
                    graph = {
                        "vertices": 2 * k,
                        "edges": [list(e) for e in edges],
                        "directions": [list(d) for d in inputs.random_orientation(rng, 2 * k, edges)],
                    }
                    path = self.dir / f"k{k}-{len(pool)}.json"
                    path.write_text(json.dumps(graph))
                    pool.append({"k": k, "base": base, "parity": parity, "graph": graph,
                                 "file": str(path), "class": cls})
        self.signed_share = sum(not q["class"].is_zero for q in pool) / len(pool)
        self.plan = [(cmd, q) for cmd in QUERY_COMMANDS for q in pool]
        random.Random(self.seed + 1).shuffle(self.plan)
        self.spaces = None
        self.reference = {}

    def job_items(self):
        return [(self.warm, self.check_warm)]

    def warm(self):
        self.cache_dir = str(self.fresh_dir("cache-"))
        return [run_cli(["cache", "warm", "-k", str(k), "--cache", self.cache_dir]) for k in QUERY_KS]

    def check_warm(self, out):
        for n, (k, warmed) in enumerate(zip(QUERY_KS, out), 1):
            reason = _cli_failure(warmed) or checks.check_warm(warmed[1], k, 4 * n)
            if reason:
                return reason
        if self.spaces is None:
            self.spaces = {k: spaces.GraphSpace(k, cache.Cache(self.cache_dir)) for k in QUERY_KS}
        return None

    def op_items(self):
        return [(functools.partial(self.query, cmd, q), functools.partial(self.check_query, cmd, q))
                for cmd, q in self.plan]

    def query(self, cmd, q):
        k = str(q["k"])
        if cmd == "dim" or cmd == "enum":
            return run_cli([cmd, "-k", k, "--cache", self.cache_dir])
        if cmd == "reduce" or cmd == "surgery":
            return run_cli([cmd, q["file"], "--cache", self.cache_dir])
        return run_cli([cmd, q["file"]])

    def _expected(self, q):
        """Reference reduction and automorphism counts of the base graph."""
        key = q["file"]
        if key not in self.reference:
            k = q["k"]
            space = self.spaces[k]
            base = graphs.validate(2 * k, q["base"])
            cls = q["class"]
            form = {} if cls.is_zero else keyed(space, space.reduce_graph(base))
            _, order, edge_order, vertex_order = graphs.automorphisms(base)
            self.reference[key] = (
                checks.expected_reduction(cls.key, cls.sign, form, q["parity"]),
                (order, edge_order, vertex_order),
            )
        return self.reference[key]

    def check_query(self, cmd, q, out):
        failure = _cli_failure(out)
        if failure:
            return failure
        text, k = out[1], q["k"]
        if cmd == "dim":
            return checks.check_dim(text, k)
        if cmd == "enum":
            return checks.check_enum(text, k)
        if cmd == "orient":
            return checks.check_orient(text, q["graph"])
        reduction, counts = self._expected(q)
        if cmd == "reduce":
            return checks.check_reduce(text, reduction)
        if cmd == "surgery":
            return checks.check_surgery(text, q["graph"], reduction)
        return checks.check_aut(text, k, counts)


# Propagator pool: total ranks spread evenly over [16, 96]; every fourth
# complex carries one homology generator, in degrees 0..4 in turn, so the
# obstructed share and the degrees where the propagator stops are the same
# for every seed (the cost of an obstructed complex depends on that degree).
COMPLEX_COUNT = 80
COMPLEX_RANKS = (16, 96)


def _split(total: int, parts: int):
    return [total // parts + (j < total % parts) for j in range(parts)]


class ExactKernels(Workload):
    """Exact dense arithmetic with no enumeration and no cache.

    The job is the literal surgery sum over every k <= 2 class, valid
    orientation and type convention, one item per sum; the loop runs seeded
    chain complexes through the propagator, both contraction identities and
    the dual.
    """

    name = "exact_kernels"

    def prepare(self):
        rng = random.Random(self.seed)
        lo, hi = COMPLEX_RANKS
        self.complexes = []
        for i in range(COMPLEX_COUNT):
            total = lo + round((hi - lo) * i / (COMPLEX_COUNT - 1))
            homology = [0] * (inputs.TOP_DEGREE + 1)
            degree = None
            if i % 4 == 0:
                degree = i // 4 % (inputs.TOP_DEGREE + 1)
                homology[degree] = 1
            ranks, boundaries = inputs.chain_complex(rng, _split(total // 2, 4), homology)
            self.complexes.append((morse.GradedComplex(tuple(ranks), boundaries), degree))
        random.Random(self.seed + 1).shuffle(self.complexes)
        self.obstructed_share = sum(d is not None for _, d in self.complexes) / COMPLEX_COUNT

        self.spaces = {k: spaces.GraphSpace(k) for k in (1, 2)}
        self.arrows = []
        signed = 0
        for k, space in self.spaces.items():
            space.normal_form({})  # build basis and rref now, outside the job
            for g in spaces.enumerate_graphs(k):
                is_zero = graphs.reduce(g).is_zero
                flips = [(0,) if u == v else (0, 1) for u, v in g.edges]
                for bits in itertools.product(*flips):
                    dirs = [(v, u) if b else (u, v) for b, (u, v) in zip(bits, g.edges)]
                    if inputs.valid_orientation(g.num_vertices, g.edges, dirs):
                        self.arrows.append((k, graphs.make_arrow(g, dirs)))
                        signed += not is_zero
        self.signed_share = signed / len(self.arrows)
        self.reference = {}

    def job_items(self):
        cases = [(k, a, conv) for k, a in self.arrows for conv in surgery.CONVENTIONS]
        return [(functools.partial(self.literal_sum, *case), functools.partial(self.check_literal, *case))
                for case in cases]

    def literal_sum(self, k, a, conv):
        return surgery.evaluate_full(a, self.spaces[k], conv).to_json()

    def check_literal(self, k, a, conv, full):
        if len(self.arrows) != 90:
            return f"literal sum: {len(self.arrows)} orientations at k <= 2, expected 90"
        if (id(a), conv) not in self.reference:
            space = self.spaces[k]
            orbit = surgery.evaluate_orbit(a, space, conv).to_json()
            reduced = {key: str(v) for key, v in keyed(space, space.reduce_graph(a.graph)).items()}
            self.reference[id(a), conv] = orbit, reduced
        return checks.check_literal(k, full, *self.reference[id(a), conv])

    def op_items(self):
        return [(functools.partial(self.propagate, c), functools.partial(self.check_propagate, degree))
                for c, degree in self.complexes]

    def propagate(self, c):
        try:
            g = morse.compute_propagator(c)
        except morse.NotAcyclicError as exc:
            return "obstructed", exc.degree, exc.defect
        dual = morse.dual_propagator(c, g)
        return "acyclic", morse.contraction_identity_holds(c, g), morse.contraction_identity_holds(*dual)

    def check_propagate(self, degree, out):
        kind, *values = out
        if degree is not None:
            return checks.check_obstruction(*(values if kind == "obstructed" else (None, None)), degree)
        if kind == "obstructed":
            return f"propagator: unexpected NotAcyclicError at degree {values[0]}"
        return checks.check_propagator(*values)


WORKLOADS = {w.name: w for w in (ColdK6, WarmQueries, ExactKernels)}
