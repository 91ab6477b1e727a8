"""End-to-end command-line behaviour: bytes, exit codes, cache, workers."""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

from trivalent import cache as cache_module
from trivalent import canon, cli, morse, spaces
from trivalent import graphs as G
from trivalent.cache import KINDS, Cache
from trivalent.cli import main
from trivalent.spaces import GraphSpace


def theta_json():
    return G.LabelledTrivalentGraph(2, ((0, 1), (0, 1), (0, 1))).to_json()


def k4_json():
    return G.LabelledTrivalentGraph(
        4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    ).to_json()


def clover_json():
    return G.LabelledTrivalentGraph(
        4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3))
    ).to_json()


def digon_ring(k):
    """A necklace of k digons: digon i joins vertices 2i and 2i + 1, and a
    single edge joins 2i + 1 to the next digon.  |Aut_e| = 2^k, and the
    vertex group is dihedral of order 2k."""
    edges = []
    for i in range(k):
        edges += [[2 * i, 2 * i + 1]] * 2 + [[2 * i + 1, (2 * i + 2) % (2 * k)]]
    return {"vertices": 2 * k, "edges": edges}


def gadget_necklace(m):
    """A cycle c_0 .. c_{m-1} where each c_i carries a pendant block: s_i
    joined to c_i, and K4 on a_i, b_i, x_i, y_i with its edge a_i - b_i
    replaced by a_i - s_i - b_i.  6m vertices; each block swaps a_i with
    b_i and x_i with y_i, so |Aut_v| = 4^m * 2m."""
    edges = []
    for i in range(m):
        c, s, a, b, x, y = range(6 * i, 6 * i + 6)
        edges += [[c, 6 * ((i + 1) % m)], [c, s], [s, a], [s, b]]
        edges += [[a, x], [a, y], [b, x], [b, y], [x, y]]
    return {"vertices": 6 * m, "edges": edges}


def prism(n):
    """The prism over an n-cycle: 2n vertices and 3n edges."""
    cycles = [[h + i, h + (i + 1) % n] for h in (0, n) for i in range(n)]
    return {"vertices": 2 * n, "edges": cycles + [[i, n + i] for i in range(n)]}


# JSON nested far past the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def restamp(monkeypatch, k, kind, text):
    """Pin the CRC-32 of a cache file's text at its k and kind, as a forged
    pin would, so that Cache.load reads the file through to the kind's
    decoder."""
    monkeypatch.setitem(cache_module._PINS[k], kind, zlib.crc32(text.encode()))


def edited(edit):
    """An edit of a cache file's payload."""
    return lambda d: {**d, "payload": edit(d["payload"])}


def restamped_k2(payload):
    """A k=2 relations or rref file with the given payload, in the earlier
    format: a header with the CRC-32 of the k=2 basis keys and that of the
    payload's JSON text, the two checks that format made on load."""
    crc = zlib.crc32(json.dumps(payload).encode())
    header = {"format_version": 1, "basis_crc32": 1958405830, "payload_crc32": crc}
    return json.dumps({**header, "payload": payload})


def flat(graph):
    """A graph's JSON as a basis payload stores it: its edge list, flat."""
    return [end for edge in graph["edges"] for end in edge]


def pairs_of(b):
    """The pairs of a basis payload graph, the edge list of its key."""
    return list(zip(b[::2], b[1::2]))


def basis_key(b):
    """The class key of a basis payload graph, by which the basis is sorted."""
    return G.canonical_key(len(b) // 3, pairs_of(b))


def inserted(graph):
    """An edit of a basis payload that slots graph's JSON in at its key's place."""
    return edited(lambda p: sorted(p + [flat(graph)], key=basis_key))


def without(graph):
    """An edit of a basis payload that drops graph's JSON."""

    def edit(payload):
        assert flat(graph) in payload
        return [b for b in payload if b != flat(graph)]

    return edited(edit)


def relabelled_copy(payload):
    """A relabelled copy of the first graph of a k=2 basis payload whose
    key is not in the payload, as graph JSON."""
    keys = [basis_key(b) for b in payload]
    for perm in itertools.permutations(range(4)):
        edges = sorted(sorted((perm[u], perm[v])) for u, v in pairs_of(payload[0]))
        if basis_key(flat({"edges": edges})) not in keys:
            return {"vertices": 4, "edges": edges}


def rows_edit(edit):
    """An edit of a relations or rref payload's rows, given as its two
    lists, cols and vals."""

    def edit_rows(payload):
        cols, vals = edit(payload["cols"], payload["vals"])
        return {**payload, "cols": cols, "vals": vals}

    return edited(edit_rows)


def with_rows(cols, vals):
    """An edit of a relations or rref payload that puts these rows in."""
    return rows_edit(lambda c, v: (cols, vals))


# a graph with vertex degrees 2, 3, 3, 4 in canonical form
ODD_DEGREES = {"vertices": 4, "edges": [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [3, 3]]}
# two disjoint copies of K4, each trivalent, in canonical form
TWO_K4 = {
    "vertices": 8,
    "edges": [list(e) for h in (0, 4) for e in itertools.combinations(range(h, h + 4), 2)],
}


# an rref-k2.json as an earlier format wrote it: the echelon form of the
# relation rows, pivot column -> row of Fraction texts, validly checksummed
FRACTION_RREF_K2 = (
    '{"format_version": 1, "basis_crc32": 1958405830, "payload_crc32": 2808998286, '
    '"payload": {"0": {"cols": [0], "vals": ["1"]}}}'
)
# the k=2 files a cold build wrote in the format before the pins, each with
# the CRC-32 of its payload's JSON text, and the relations and rref files
# with that of the basis keys too
EARLIER_FILES_K2 = {
    "basis-k2.json": (
        '{"format_version": 1, "payload_crc32": 259455955, "payload": [{"vertices": 4, '
        '"edges": [[0, 1], [0, 2], [0, 3], [1, 1], [2, 2], [3, 3]]}, {"vertices": 4, '
        '"edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}]}'
    ),
    "relations-k2.json": (
        '{"format_version": 1, "basis_crc32": 1958405830, "payload_crc32": 1014360510, '
        '"payload": [{"cols": [0], "vals": [1]}]}'
    ),
    "rref-k2.json": (
        '{"format_version": 1, "basis_crc32": 1958405830, "payload_crc32": 3151176445, '
        '"payload": [{"cols": [1], "vals": [1]}]}'
    ),
    "zeros-k2.json": (
        '{"format_version": 1, "payload_crc32": 2187571858, "payload": '
        '["cub:4:0-1,0-1,0-2,1-3,2-2,3-3", "cub:4:0-1,0-2,0-2,1-3,1-3,2-3", '
        '"cub:4:0-1,0-2,0-3,1-2,1-2,3-3"]}'
    ),
}
# the k=2 files a cold build wrote when the pins came in, before the rows
# were stored as columns beside the basis size and a basis graph as a flat
# list; the zeros file has not changed since
PINNED_FILES_K2 = {
    "basis-k2.json": (
        '{"format_version": 1, "payload": [{"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], '
        '[1, 1], [2, 2], [3, 3]]}, {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], '
        '[1, 3], [2, 3]]}]}'
    ),
    "relations-k2.json": '{"format_version": 1, "payload": [{"cols": [0], "vals": [1]}]}',
    "rref-k2.json": '{"format_version": 1, "payload": [{"cols": [1], "vals": [1]}]}',
}


class TestDim:
    def test_exact_bytes_k2(self, tmp_path, capsys):
        code, out, err = run(capsys, "dim", "-k", "2", "--cache", str(tmp_path))
        assert code == 0
        assert out == '{"k":2,"dimension":1}\n'
        assert err == ""

    def test_small_table(self, tmp_path, capsys):
        for k, d in ((1, 0), (2, 1), (3, 0)):
            code, out, _ = run(capsys, "dim", "-k", str(k), "--cache", str(tmp_path))
            assert code == 0
            assert json.loads(out) == {"k": k, "dimension": d}

    def test_worker_count_leaves_bytes_alone(self, tmp_path, capsys):
        outs = set()
        for jobs in ("1", "4", "8"):
            code, out, _ = run(
                capsys, "dim", "-k", "2", "--jobs", jobs, "--cache", str(tmp_path)
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_primes_has_no_effect(self, tmp_path, capsys):
        for primes in ("3", "5"):
            code, out, _ = run(
                capsys, "dim", "-k", "2", "--primes", primes, "--cache", str(tmp_path)
            )
            assert (code, out) == (0, '{"k":2,"dimension":1}\n')

    def test_bounds_that_do_not_meet_exit_1(self, tmp_path, capsys, monkeypatch):
        """A modular rank off by one leaves the certificate open: one error
        line, no traceback, no output."""
        rank = spaces.rank_mod_p
        monkeypatch.setattr(spaces, "rank_mod_p", lambda *a: rank(*a) + 1)
        code, out, err = run(capsys, "dim", "-k", "2", "--cache", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: dimension bounds do not meet: at least 1, at most 0 mod 2147483587"
        ]

    def test_max_k_guard(self, tmp_path, capsys):
        """Every command that can start a build refuses a k beyond --max-k
        before building anything."""
        path = write(tmp_path, "prism.json", prism(7))
        cache = tmp_path / "cache"
        for argv in (
            ("dim", "-k", "7"),
            ("reduce", path),
            ("surgery", path),
            ("cache", "warm", "-k", "7"),
        ):
            code, out, err = run(capsys, *argv, "--cache", str(cache))
            assert (code, out) == (1, "")
            assert err.startswith("error: k = 7 exceeds --max-k = 6")
        assert not cache.exists() or not any(cache.iterdir())


class TestEnum:
    def test_counts_k2(self, tmp_path, capsys):
        code, out, _ = run(capsys, "enum", "-k", "2", "--cache", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 2
        assert data["classes"] == 5
        assert len(data["signed"]) == 2
        assert len(data["zero"]) == 3


class TestReduce:
    def test_zero_class_exact_bytes(self, tmp_path, capsys):
        path = write(tmp_path, "theta.json", theta_json())
        code, out, _ = run(capsys, "reduce", path, "--cache", str(tmp_path))
        assert code == 0
        assert out == '{"class":"zero"}\n'

    def test_surviving_class(self, tmp_path, capsys):
        path = write(tmp_path, "k4.json", k4_json())
        code, out, _ = run(capsys, "reduce", path, "--cache", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["class"]["sign"] in (-1, 1)
        assert data["normal_form"] != {}

    def test_surgery_agrees_with_reduce(self, tmp_path, capsys):
        path = write(tmp_path, "k4.json", k4_json())
        _, out_reduce, _ = run(capsys, "reduce", path, "--cache", str(tmp_path))
        _, out_surgery, _ = run(
            capsys, "surgery", path, "--mode", "orbit", "--cache", str(tmp_path)
        )
        nf = json.loads(out_reduce)["normal_form"]
        assert json.loads(out_surgery)["result"] == nf

    def test_warm_reduce_canonicalizes_once(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "k4.json", k4_json())
        run(capsys, "cache", "warm", "-k", "2", "--cache", str(tmp_path))
        before = run(capsys, "reduce", path, "--cache", str(tmp_path))
        calls = []
        canonicalize = G.canonicalize
        monkeypatch.setattr(G, "canonicalize", lambda *a: calls.append(a) or canonicalize(*a))
        assert run(capsys, "reduce", path, "--cache", str(tmp_path)) == before
        assert before[0] == 0
        assert len(calls) == 1

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run(capsys, "reduce", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error:" in err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nonsense": true}')
        code, _, err = run(capsys, "reduce", str(path))
        assert code == 1
        assert "error:" in err


class TestAutOrient:
    def test_aut_counts(self, tmp_path, capsys):
        # "generators" has always been the group order
        cases = [
            (k4_json(), (24, 1, 24)),
            (theta_json(), (12, 6, 2)),
            (digon_ring(10), (20480, 1024, 20)),
        ]
        for graph, (order, edge_order, vertex_order) in cases:
            path = write(tmp_path, "g.json", graph)
            expected = (
                f'{{"order":{order},"edge_order":{edge_order},'
                f'"vertex_order":{vertex_order},"generators":{order}}}\n'
            )
            assert run(capsys, "aut", path) == (0, expected, "")

    def test_gadget_necklace(self, tmp_path, capsys):
        """The canonical labelling of the gadget necklace at m = 5 carries
        4,095 generators of its 10,240 vertex automorphisms.  The group is
        closed over only the generators that grow it, so gc aut answers in
        about a second, where composing every generator with every element
        takes minutes; the bound leaves a wide margin for a slow host."""
        necklace = G.LabelledTrivalentGraph.from_json(gadget_necklace(5))
        assert len(canon.canonicalize(30, necklace.edges).aut_generators) == 4095
        path = write(tmp_path, "necklace.json", gadget_necklace(5))
        expected = '{"order":10240,"edge_order":1,"vertex_order":10240,"generators":10240}\n'
        start = time.perf_counter()
        assert run(capsys, "aut", path) == (0, expected, "")
        assert time.perf_counter() - start < 30

    def test_counts_build_no_automorphism(self, tmp_path, capsys, monkeypatch):
        """gc aut and both surgery evaluators read only the group orders,
        so none of them lists the group."""

        def refuse(*args):
            raise AssertionError("an automorphism was built")

        monkeypatch.setattr(G, "Automorphism", refuse)
        surgery = ("surgery", "--cache", str(tmp_path), "--mode")
        for graph in (k4_json(), theta_json()):
            path = write(tmp_path, "g.json", graph)
            for argv in (("aut",), (*surgery, "orbit"), (*surgery, "full")):
                code, _, err = run(capsys, *argv, path)
                assert (code, err) == (0, "")

    def test_orient_feeds_surgery(self, tmp_path, capsys):
        path = write(tmp_path, "theta.json", theta_json())
        code, out, _ = run(capsys, "orient", path)
        assert code == 0
        arrow = json.loads(out)
        assert len(arrow["directions"]) == 3
        arrow_path = write(tmp_path, "theta_arrow.json", arrow)
        code, out, _ = run(
            capsys, "surgery", arrow_path, "--cache", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["result"] == {}

    def test_large_prism(self, tmp_path, capsys, monkeypatch):
        """The orientation search keeps its own stack, so a prism with 1,200
        edges orients; gc surgery refuses its k before searching at all."""
        graph = prism(400)
        path = write(tmp_path, "prism.json", graph)
        code, out, err = run(capsys, "orient", path)
        assert (code, err) == (0, "")
        arrow = json.loads(out)
        assert arrow["edges"] == graph["edges"]
        g = G.validate(arrow["vertices"], arrow["edges"])
        G.make_arrow(g, arrow["directions"])  # raises on a source or a sink

        def refuse(g):
            raise AssertionError("searched for an orientation")

        monkeypatch.setattr(cli, "find_arrow_orientation", refuse)
        code, out, err = run(capsys, "surgery", path, "--cache", str(tmp_path))
        assert (code, out, err) == (1, "", "error: k = 400 exceeds --max-k = 6\n")


class TestSurgery:
    def test_full_matches_orbit(self, tmp_path, capsys):
        path = write(tmp_path, "clover.json", clover_json())
        _, orbit, _ = run(capsys, "surgery", path, "--cache", str(tmp_path))
        _, full, _ = run(
            capsys, "surgery", path, "--mode", "full", "--cache", str(tmp_path)
        )
        assert json.loads(orbit)["result"] == json.loads(full)["result"]

    def test_full_gate_exits_1(self, tmp_path, capsys):
        g = G.validate(
            6,
            ((0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 4), (4, 5), (4, 5), (0, 5)),
        )
        path = write(tmp_path, "k3.json", g.to_json())
        code, out, err = run(
            capsys, "surgery", path, "--mode", "full", "--cache", str(tmp_path)
        )
        assert code == 1
        assert "error:" in err

    def test_full_jobs_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "clover.json", clover_json())
        outs = set()
        for jobs in ("1", "2", "4"):
            code, out, _ = run(
                capsys,
                "surgery",
                path,
                "--mode",
                "full",
                "--jobs",
                jobs,
                "--cache",
                str(tmp_path),
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_type_convention_flag(self, tmp_path, capsys):
        path = write(tmp_path, "k4.json", k4_json())
        _, a, _ = run(capsys, "surgery", path, "--cache", str(tmp_path))
        _, b, _ = run(
            capsys,
            "surgery",
            path,
            "--type-convention",
            "flipped",
            "--cache",
            str(tmp_path),
        )
        assert json.loads(a)["result"] == json.loads(b)["result"]


class TestMorsePropagator:
    def test_torsion_pair(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "c.json",
            {
                "ranks": [1, 1, 0, 0, 0],
                "boundaries": {"1": [[2]], "2": [[]], "3": [], "4": []},
            },
        )
        code, out, _ = run(capsys, "morse-propagator", path)
        assert code == 0
        assert json.loads(out)["gs"]["0"] == [["1/2"]]

    def test_checks_the_complex_once(self, tmp_path, capsys, monkeypatch):
        """compute_propagator checks d∘d = 0 itself; the command adds no
        second check, and a failing check still ends in an error line."""
        calls = []
        check = morse.check_complex

        def counted(c, *listed):
            calls.append(c)
            return check(c, *listed)

        for module in (morse, cli):
            if hasattr(module, "check_complex"):
                monkeypatch.setattr(module, "check_complex", counted)
        good = torsion_pair()
        bad = {
            "ranks": [1, 1, 1, 0, 0],
            "boundaries": {"1": [[1]], "2": [[1]], "3": [[]], "4": []},
        }
        for payload, code in ((good, 0), (bad, 1)):
            calls.clear()
            assert run(capsys, "morse-propagator", write(tmp_path, "c.json", payload))[0] == code
            assert len(calls) == 1

    def test_not_a_complex(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "c.json",
            {
                "ranks": [1, 1, 1, 0, 0],
                "boundaries": {"1": [[1]], "2": [[1]], "3": [[]], "4": []},
            },
        )
        code, _, err = run(capsys, "morse-propagator", path)
        assert code == 1
        assert "error:" in err

    def test_not_acyclic(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "c.json",
            {
                "ranks": [1, 0, 0, 0, 0],
                "boundaries": {"1": [], "2": [], "3": [], "4": []},
            },
        )
        code, _, err = run(capsys, "morse-propagator", path)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "ranks,boundaries,code,out,err",
        [
            # the rank-0 degree 0 gives g_0 the shape 2 x 0
            (
                [0, 2, 2, 0, 0],
                {"1": [], "2": [[2, 1], [1, 1]], "3": [[], []], "4": []},
                0,
                '{"ranks":[0,2,2,0,0],"gs":{"0":[[],[]],'
                '"1":[["1","-1"],["-1","2"]],"2":[],"3":[]}}\n',
                "",
            ),
            (
                [1, 0, 0, 0, 0],
                {"1": [[]], "2": [], "3": [], "4": []},
                1,
                "",
                "error: homology at degree 0 has dimension 1\n",
            ),
            (
                [1, 1, 1, 0, 0],
                {"1": [[1]], "2": [[1]], "3": [[]], "4": []},
                1,
                "",
                "error: boundary composite at degree 2 has entry 1 at (0,0)\n",
            ),
        ],
        ids=["invertible-block", "homology", "not-a-complex"],
    )
    def test_exact_bytes(self, tmp_path, capsys, ranks, boundaries, code, out, err):
        path = write(tmp_path, "c.json", {"ranks": ranks, "boundaries": boundaries})
        assert run(capsys, "morse-propagator", path) == (code, out, err)


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "command,payload",
        [
            ("surgery", {**theta_json(), "directions": 5}),
            ("surgery", {**theta_json(), "directions": [5, 5, 5]}),
            ("morse-propagator", {"ranks": [1, 1, 0, 0, 0], "boundaries": []}),
        ],
    )
    def test_error_line_not_traceback(self, tmp_path, capsys, command, payload):
        code, out, err = run(capsys, command, write(tmp_path, "bad.json", payload))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["aut", "reduce", "surgery", "orient", "morse-propagator"])
    def test_deep_nesting_names_file(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("GC_CACHE", str(tmp_path / "cache"))
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        kind = "complex" if command == "morse-propagator" else "graph"
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not a {kind} file (maximum recursion depth")


def with_edge(graph, i, edge):
    return {**graph, "edges": [*graph["edges"][:i], edge, *graph["edges"][i + 1:]]}


def torsion_pair(**changes):
    bnd = {"1": [[2]], "2": [[]], "3": [], "4": []}
    return {"ranks": [1, 1, 0, 0, 0], "boundaries": bnd, **changes}


class TestStrictIntegers:
    """A number that is not an int, or an edge that is not a pair, is an
    error naming the file and the field, never a truncated value."""

    @pytest.mark.parametrize(
        "command,payload,message",
        [
            ("reduce", with_edge(theta_json(), 2, [0, 1.5]), "edge end 1.5 is not"),
            ("reduce", with_edge(theta_json(), 2, [0, True]), "edge end True is not"),
            ("reduce", with_edge(theta_json(), 2, [0, "1"]), "edge end '1' is not"),
            ("reduce", {**theta_json(), "vertices": 2.0}, "vertex count 2.0 is not"),
            ("reduce", with_edge(theta_json(), 2, [0, 1, 1]), "edge [0, 1, 1] is not a pair"),
            ("aut", with_edge(k4_json(), 0, [0.0, 1]), "edge end 0.0 is not"),
            (
                "surgery",
                {**theta_json(), "directions": [[0, 1], [0, 1], [1, False]]},
                "direction end False is not",
            ),
            (
                "morse-propagator",
                torsion_pair(boundaries={"1": [[2.5]], "2": [[]], "3": [], "4": []}),
                "boundary entry 2.5 is not",
            ),
            ("morse-propagator", torsion_pair(ranks=[1.0, 1, 0, 0, 0]), "rank 1.0 is not"),
            (
                "morse-propagator",
                torsion_pair(boundaries={"1": [[2]], "2": [[]], "3": [], "4": [], "x": []}),
                "boundary degree 'x' is not",
            ),
            ("reduce", with_edge(theta_json(), 2, 5), "edge 5 is not a pair"),
            ("aut", with_edge(k4_json(), 3, [1]), "edge [1] is not a pair"),
            (
                "surgery",
                {**theta_json(), "directions": [[0, 1], [0, 1], [1, 0, 1]]},
                "direction [1, 0, 1] is not a pair",
            ),
            ("surgery", {**theta_json(), "directions": [5, 5, 5]}, "direction 5 is not a pair"),
            (
                "morse-propagator",
                {
                    "ranks": [0, 1, 1, 0, 0],
                    "boundaries": {"1": [], "2": [[1]], "02": [[2]], "3": [[]], "4": []},
                },
                "boundary degree '02' is not one of 1 to 4",
            ),
            (
                "morse-propagator",
                torsion_pair(boundaries={"1": [[2]], "2": [[]], "3": [], "4": [], "9": [[5]]}),
                "boundary degree '9' is not one of 1 to 4",
            ),
            # bytes are the file's raw contents: text that is not JSON, or not UTF-8
            ("reduce", b'{"vertices": 2,', "Expecting property name"),
            ("morse-propagator", b'{"vertices": 2,', "Expecting property name"),
            ("reduce", b"\xff{}", "can't decode byte 0xff"),
            ("morse-propagator", b"\xff{}", "can't decode byte 0xff"),
        ],
    )
    def test_error_names_file_and_field(
        self, tmp_path, capsys, monkeypatch, command, payload, message
    ):
        monkeypatch.setenv("GC_CACHE", str(tmp_path / "cache"))
        if isinstance(payload, bytes):
            path = str(tmp_path / "bad.json")
            Path(path).write_bytes(payload)
        else:
            path = write(tmp_path, "bad.json", payload)
        kind = "complex" if command == "morse-propagator" else "graph"
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not a {kind} file (")
        assert message in err

    @pytest.mark.parametrize(
        "command,text,key",
        [
            (
                "morse-propagator",
                '{"ranks": [1, 1, 0, 0, 0], "boundaries": '
                '{"1": [[2]], "1": [[3]], "2": [[]], "3": [], "4": []}}',
                "1",
            ),
            (
                "reduce",
                '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]], "vertices": 4}',
                "vertices",
            ),
        ],
    )
    def test_repeated_key_names_file(self, tmp_path, capsys, monkeypatch, command, text, key):
        """A repeated key is an error, not whichever value came last."""
        monkeypatch.setenv("GC_CACHE", str(tmp_path / "cache"))
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (1, "", f"error: {path}: key {key!r} is repeated\n")


class TestMisc:
    def test_surviving(self, capsys):
        code, out, _ = run(capsys, "surviving")
        assert code == 0
        data = json.loads(out)
        assert len(data["I"]) == 11
        assert len(data["II"]) == 11

    def test_selftest(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "selftest", "--max-k", "2", "--cache", str(tmp_path)
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["checks"])

    def test_selftest_propagator_check_can_fail(self, tmp_path, capsys, monkeypatch):
        """A g_0 off by one in one entry fails "propagator entries exact"
        and the whole selftest."""
        solve = cli.compute_propagator

        def off_by_one(c):
            g = solve(c)
            g.mats[0][0][0] += g.dens[0]
            return g

        monkeypatch.setattr(cli, "compute_propagator", off_by_one)
        code, out, _ = run(capsys, "selftest", "--max-k", "1", "--cache", str(tmp_path))
        data = json.loads(out)
        assert (code, data["ok"]) == (1, False)
        assert {c["name"]: c["ok"] for c in data["checks"]}["propagator entries exact"] is False

    def test_table_format(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "--format", "table", "dim", "-k", "2", "--cache", str(tmp_path)
        )
        assert code == 0
        assert "dimension" in out
        assert "{" not in out

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        bad_calls = [
            ["frobnicate"],
            ["dim"],
            ["dim", "-k", "0"],
            ["dim", "-k", "2", "--jobs", "0"],
            ["dim", "-k", "2", "--primes", "2"],
            ["surgery", "x.json", "--mode", "sideways"],
        ]
        for argv in bad_calls:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()


class TestCache:
    def test_lifecycle(self, tmp_path, capsys):
        """status, warm and clear count only the files the cache writes: a
        foreign notes.json in the directory is not listed and survives."""
        d = str(tmp_path / "store")
        code, out, _ = run(capsys, "cache", "status", "--cache", d)
        assert code == 0
        assert json.loads(out)["entries"] == []

        (tmp_path / "store").mkdir()
        notes = write(tmp_path / "store", "notes.json", {"keep": True})
        code, out, _ = run(capsys, "cache", "warm", "-k", "2", "--cache", d)
        assert code == 0
        assert json.loads(out)["files"] == 4

        code, out, _ = run(capsys, "cache", "status", "--cache", d)
        names = {e["file"] for e in json.loads(out)["entries"]}
        assert names == {
            "basis-k2.json",
            "zeros-k2.json",
            "relations-k2.json",
            "rref-k2.json",
        }

        code, out, _ = run(capsys, "cache", "clear", "--cache", d)
        assert json.loads(out)["removed"] == 4
        code, out, _ = run(capsys, "cache", "status", "--cache", d)
        assert json.loads(out)["entries"] == []
        assert json.loads(Path(notes).read_text()) == {"keep": True}

    def test_warm_requires_k(self, tmp_path, capsys):
        code, _, err = run(capsys, "cache", "warm", "--cache", str(tmp_path))
        assert code == 1
        assert "error:" in err

    def test_cold_and_warm_agree(self, tmp_path, capsys):
        cold = str(tmp_path / "cold")
        warm = str(tmp_path / "warm")
        _, out_cold, _ = run(capsys, "dim", "-k", "2", "--cache", cold)
        run(capsys, "cache", "warm", "-k", "2", "--cache", warm)
        _, out_warm, _ = run(capsys, "dim", "-k", "2", "--cache", warm)
        assert out_cold == out_warm

        k4 = write(tmp_path, "k4.json", k4_json())
        _, s_cold, _ = run(capsys, "surgery", k4, "--cache", str(tmp_path / "c2"))
        run(capsys, "cache", "warm", "-k", "2", "--cache", str(tmp_path / "w2"))
        _, s_warm, _ = run(capsys, "surgery", k4, "--cache", str(tmp_path / "w2"))
        assert s_cold == s_warm

    def test_warm_queries_skip_zero_classes(self, tmp_path, capsys, monkeypatch):
        """dim, reduce and surgery never read the zero classes, so on a
        warm cache they load no zeros file; enum loads it and prints what a
        cold enum prints, and rebuilds it when it is gone."""
        k4 = write(tmp_path, "k4.json", k4_json())
        warm = tmp_path / "warm"
        run(capsys, "cache", "warm", "-k", "2", "--cache", str(warm))
        loaded = []
        load = Cache.load

        def recorded(self, k, kind, size=None):
            value = load(self, k, kind, size)
            loaded.append((kind, value is not None))
            return value

        monkeypatch.setattr(Cache, "load", recorded)
        queries = ((("dim", "-k", "2"), "relations"), (("reduce", k4), "basis"), (("surgery", k4), "basis"))
        for argv, read in queries:
            loaded.clear()
            code, _, err = run(capsys, *argv, "--cache", str(warm))
            assert (code, err) == (0, "")
            assert (read, True) in loaded
            assert all(kind != "zeros" for kind, _ in loaded)
        cold = tmp_path / "cold"
        _, enum_cold, _ = run(capsys, "enum", "-k", "2", "--cache", str(cold))
        loaded.clear()
        _, enum_warm, _ = run(capsys, "enum", "-k", "2", "--cache", str(warm))
        assert ("zeros", True) in loaded
        assert enum_warm == enum_cold
        (warm / "zeros-k2.json").unlink()
        assert run(capsys, "enum", "-k", "2", "--cache", str(warm))[1] == enum_cold
        assert (warm / "zeros-k2.json").read_bytes() == (cold / "zeros-k2.json").read_bytes()

    def test_warm_reopen_reads_only_what_it_needs(self, tmp_path, capsys, monkeypatch):
        """On a warm k=4 cache, dim loads the relations alone, which record
        the basis size, and reduce the basis and the echelon form with one
        canonicalize call,
        for its own graph.  Neither reads a basis graph off its key: the
        keys suffice.  Surgery on a simple graph whose class is zero loads
        nothing, and on a cold cache it builds and writes nothing."""
        warm = tmp_path / "warm"
        run(capsys, "cache", "warm", "-k", "4", "--cache", str(warm))
        first = json.loads((warm / "basis-k4.json").read_text())["payload"][0]
        graph = write(tmp_path, "g.json", {"vertices": 8, "edges": pairs_of(first)})
        zeros = json.loads((warm / "zeros-k4.json").read_text())["payload"]

        def simple(g):  # so that surgery canonicalizes it to find it zero
            return all(u != v for u, v in g.edges) and not G.has_parallel_edge(g)

        zero = next(filter(simple, map(G.graph_of_key, zeros)))
        zero = write(tmp_path, "zero.json", zero.to_json())
        loaded, canonicalized, built = [], [], []
        load, canonicalize, graph_of_key = Cache.load, canon.canonicalize, G.graph_of_key

        def recorded(self, k, kind, size=None):
            value = load(self, k, kind, size)
            loaded.append((kind, value is not None))
            return value

        def counted(*args):
            canonicalized.append(args)
            return canonicalize(*args)

        def basis_graph(key):
            built.append(key)
            return graph_of_key(key)

        monkeypatch.setattr(Cache, "load", recorded)
        for name, module in list(sys.modules.items()):
            if not name.startswith("trivalent"):
                continue
            if getattr(module, "canonicalize", 0) is canonicalize:
                monkeypatch.setattr(module, "canonicalize", counted)
            if getattr(module, "graph_of_key", 0) is graph_of_key:
                monkeypatch.setattr(module, "graph_of_key", basis_graph)
        for argv, kinds, calls in (
            (("dim", "-k", "4"), ["relations"], 0),
            (("surgery", zero), [], 1),  # its Aut and its class share one
            (("reduce", graph), ["basis", "rref"], 1),
        ):
            loaded.clear()
            canonicalized.clear()
            code, out, err = run(capsys, *argv, "--cache", str(warm))
            assert (code, err) == (0, "")
            assert loaded == [(kind, True) for kind in kinds]
            assert len(canonicalized) == calls
        assert json.loads(out)["class"]["sign"] == 1  # a basis graph, not zero
        assert built == []
        cold = tmp_path / "cold"
        code, out, err = run(capsys, "surgery", zero, "--cache", str(cold))
        assert (code, err, json.loads(out)["result"]) == (0, "", {})
        assert not cold.exists()
        # reading the basis reads each graph off its key through the wrapped name
        assert len(GraphSpace(4, Cache(warm)).basis) == len(built) > 0

    def test_warm_dim_reads_no_basis(self, tmp_path, capsys):
        """The relations file records the basis size, so a warm dim reads
        no other file: with the basis file gone, dim -k 5 prints the same
        bytes and writes no basis file."""
        warm = tmp_path / "warm"
        run(capsys, "cache", "warm", "-k", "5", "--cache", str(warm))
        before = run(capsys, "dim", "-k", "5", "--cache", str(warm))
        (warm / "basis-k5.json").unlink()
        assert run(capsys, "dim", "-k", "5", "--cache", str(warm)) == before
        assert before[0] == 0
        assert not (warm / "basis-k5.json").exists()

    def test_bad_payload_is_rebuilt(self, tmp_path, capsys, monkeypatch):
        k4 = write(tmp_path, "k4.json", k4_json())
        clover = write(tmp_path, "clover.json", clover_json())
        k2 = (("reduce", k4), ("reduce", clover), ("enum", "-k", "2"), ("dim", "-k", "2"))

        def far_end(g):
            return g[:-1] + [9]

        def with_end(g, end):
            assert g[:2] == [0, 1]
            return [0, end] + g[2:]

        def swapped(g):
            """The last two pairs of g swapped: the key g then spells is
            larger, so the keys still increase."""
            return g[:-4] + g[-2:] + g[-4:-2]

        # (k, kind, file text or an edit of a warm cache's file, commands):
        # files whose bytes are not the pinned ones, so that the pin alone
        # turns them away
        wrong_bytes = [
            # the earlier rref format, a dict of Fraction texts
            (2, "rref", FRACTION_RREF_K2, k2),
            # well-shaped edits: an extra relation row, a row dropped, a
            # functional scaled, one that pairs the clover with K4
            (2, "relations", rows_edit(lambda c, v: (c + [[1]], v + [[1]])), k2),
            (2, "relations", rows_edit(lambda c, v: (c[:-1], v[:-1])), k2),
            (2, "rref", with_rows([[1]], [[2]]), k2),
            (2, "rref", with_rows([[0, 1]], [[1, 1]]), k2),
            # a class missing or slipped in: K4 dropped, no class at all, a
            # zero class dropped, and two disjoint K4s (a cold run lists 71
            # classes at k=4, dimension 0)
            (2, "basis", without(k4_json()), k2),
            (2, "basis", edited(lambda p: []), k2),
            (2, "zeros", edited(lambda p: p[1:]), k2),
            (4, "basis", inserted(TWO_K4), (("enum", "-k", "4"), ("dim", "-k", "4"))),
        ]
        # files behind a forged pin (restamp), which each kind's decoder
        # turns away by their shape
        forged = [
            (3, "basis", text, (("dim", "-k", "3"),))
            for text in (
                '{"format_version":1,"payload":[1,2]}',
                "[1,2]",
                '{"format_version":1,"payload":{"a":1}}',
            )
        ]
        forged += [(2, kind, DEEP, (("dim", "-k", "2"),)) for kind in ("basis", "relations")]
        # a file in the format the pins came in with
        forged += [(2, name.split("-")[0], text, k2) for name, text in PINNED_FILES_K2.items()]
        forged += [
            (2, "basis", edited(lambda p: p[::-1]), k2),
            # a position past the basis, or a basis graph that is not
            # trivalent on 2k vertices
            (2, "relations", rows_edit(lambda c, v: (c + [[7]], v + [[1]])), k2),
            (2, "rref", rows_edit(lambda c, v: ([r + [9] for r in c], [r + [1] for r in v])), k2),
            (2, "basis", edited(lambda p: p[:-1] + [far_end(p[-1])]), k2),
            # a graph that is not trivalent, or not on 2k vertices, in key order
            (2, "basis", inserted(ODD_DEGREES), k2),
            (2, "basis", inserted(prism(3)), k2),
            # a graph list of the wrong length: an edge dropped
            (2, "basis", edited(lambda p: [p[0][:-2]] + p[1:]), k2),
            # an edge end that %d would format as 1
            (2, "basis", edited(lambda p: [with_end(p[0], True)] + p[1:]), k2),
            (2, "basis", edited(lambda p: [with_end(p[0], 1.0)] + p[1:]), k2),
            # a graph with two of its pairs out of order, each vertex still
            # met three times and the keys still increasing
            (2, "basis", edited(lambda p: p[:-1] + [swapped(p[-1])]), k2),
            # a zero key that is not a string
            (2, "zeros", edited(lambda p: p + [1]), k2),
            # rows that load to a wrong answer unless their shape is strict:
            # columns that do not increase strictly, a zero value, a value
            # that is not an int, and kernel vectors out of echelon form,
            # two of them with the same top column
            (2, "relations", with_rows([[0, 0]], [[1, 0]]), k2),
            (2, "relations", with_rows([[0]], [[0]]), k2),
            (2, "relations", with_rows([[1, 0]], [[1, 1]]), k2),
            # no columns, a row of values that is not a list, more values
            # than columns, and a column that is not an int
            (2, "relations", edited(lambda p: {"size": p["size"], "vals": p["vals"]}), k2),
            (2, "relations", with_rows([[0]], [1]), k2),
            (2, "relations", with_rows([[1]], [[1, 1]]), k2),
            (2, "relations", with_rows([[True]], [[1]]), k2),
            (2, "rref", with_rows([[1, 1]], [[1, 1]]), k2),
            (2, "rref", with_rows([[0, 1]], [[0, 1]]), k2),
            (2, "rref", with_rows([[1]], [["1"]]), k2),
            (2, "rref", rows_edit(lambda c, v: (c + [[0, 1]], v + [[1, 1]])), k2),
            # a column equal to the basis size, which dim reads from the
            # file: 2 at k=2
            (2, "relations", with_rows([[2]], [[1]]), k2),
            (2, "rref", with_rows([[2]], [[1]]), k2),
            # a basis size that is missing, a bool (the rows of dim -k 2
            # would give dimension 0 over 1 class), negative (-1 with no
            # rows) or not an int
            (2, "relations", edited(lambda p: {"cols": p["cols"], "vals": p["vals"]}), k2),
            (2, "relations", edited(lambda p: {**p, "size": True}), k2),
            (2, "relations", edited(lambda p: {"size": -1, "cols": [], "vals": []}), k2),
            (2, "relations", edited(lambda p: {**p, "size": 2.0}), k2),
            (2, "relations", edited(lambda p: {**p, "size": "2"}), k2),
            (2, "rref", edited(lambda p: {**p, "size": None}), k2),
            # W for a basis of another size, which reduce reads beside the basis
            (2, "rref", edited(lambda p: {**p, "size": 3}), k2),
        ]
        cases = [(case, False) for case in wrong_bytes] + [(case, True) for case in forged]
        for i, ((k, kind, bad, commands), pin) in enumerate(cases):
            cold = [run(capsys, *c, "--cache", str(tmp_path / f"cold{i}")) for c in commands]
            assert all(code == 0 and err == "" for code, _, err in cold)
            d = tmp_path / f"bad{i}"
            d.mkdir()
            path = d / f"{kind}-k{k}.json"
            if callable(bad):
                run(capsys, "cache", "warm", "-k", str(k), "--cache", str(d))
                bad = json.dumps(bad(json.loads(path.read_text())))
            path.write_text(bad)
            with monkeypatch.context() as m:
                if pin:
                    restamp(m, k, kind, bad)
                assert [run(capsys, *c, "--cache", str(d)) for c in commands] == cold
            assert path.read_text() != bad

    @pytest.mark.parametrize(
        "kind,payload,argv,out",
        [
            (
                "rref",
                [{"cols": [0, 1], "vals": [1, 1]}],
                ("reduce", "clover.json"),
                '"normal_form":{}',
            ),
            (
                "relations",
                [{"cols": [0], "vals": [1]}, {"cols": [1], "vals": [1]}],
                ("dim", "-k", "2"),
                '{"k":2,"dimension":1}',
            ),
        ],
        ids=["rref", "relations"],
    )
    def test_restamped_rows_are_rebuilt(self, tmp_path, capsys, monkeypatch, kind, payload, argv, out):
        """A relations or rref file edited and restamped in the earlier
        format, its checksums recomputed, holds no cold build's bytes, so it
        is not read: the clover reduces to {} and dim -k 2 prints 1, as on a
        fresh cache, where reading the file would give the clover the
        normal form K4 and the dimension 0.  The file is rewritten."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "clover.json", clover_json())
        fresh = run(capsys, *argv, "--cache", "fresh")
        assert fresh[0] == 0 and out in fresh[1]
        run(capsys, "cache", "warm", "-k", "2", "--cache", "warm")
        path = tmp_path / "warm" / f"{kind}-k2.json"
        path.write_text(restamped_k2(payload))
        assert run(capsys, *argv, "--cache", "warm") == fresh
        assert path.read_bytes() == (tmp_path / "fresh" / f"{kind}-k2.json").read_bytes()

    def test_earlier_format_is_rebuilt_once(self, tmp_path, capsys, monkeypatch):
        """The files of a cache written before the pins, each with its
        checksum header, and those written when the pins came in, are
        rebuilt once, to a fresh cache's bytes, with a fresh cache's
        answers, and then read."""
        k4 = write(tmp_path, "k4.json", k4_json())
        commands = (("cache", "warm", "-k", "2"), ("dim", "-k", "2"), ("reduce", k4))
        fresh = [run(capsys, *c, "--cache", str(tmp_path / "fresh")) for c in commands]
        loaded = []
        load = Cache.load

        def recorded(self, k, kind, size=None):
            value = load(self, k, kind, size)
            loaded.append((kind, value is not None))
            return value

        monkeypatch.setattr(Cache, "load", recorded)
        for i, files in enumerate((EARLIER_FILES_K2, PINNED_FILES_K2)):
            old = tmp_path / f"old{i}"
            old.mkdir()
            for name, text in files.items():
                (old / name).write_text(text)
            loaded.clear()
            assert [run(capsys, *c, "--cache", str(old)) for c in commands] == fresh
            # one miss a kind; the zero keys come with the basis that is rebuilt
            assert sorted(kind for kind, hit in loaded if not hit) == ["basis", "relations", "rref"]
            for name in files:
                assert (old / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
            loaded.clear()
            assert [run(capsys, *c, "--cache", str(old)) for c in commands] == fresh
            assert {kind for kind, _ in loaded} == set(KINDS)
            assert all(hit for _, hit in loaded)

    @pytest.mark.parametrize(
        "k,edit",
        [
            (2, lambda payload: inserted(relabelled_copy(payload))),
            (4, lambda payload: inserted(TWO_K4)),
            (2, lambda payload: without(k4_json())),
        ],
        ids=["relabelled-copy", "two-k4", "k4-dropped"],
    )
    def test_unpinned_basis_is_rebuilt(self, tmp_path, capsys, monkeypatch, k, edit):
        """At a k without pins, as k is here with its entry dropped, a
        cached basis is not read, nor the rows beside it: dim rebuilds them,
        prints what a fresh cache prints and leaves the file as it was.
        Each edit keeps the keys increasing: a relabelled copy of a basis
        graph, a column no row reaches (dim -k 2 would print 2); two
        disjoint K4s, trivalent but not connected (dim -k 4 would print 1,
        not 0); K4 dropped (dim -k 2 would print 0, not 1)."""
        fresh = run(capsys, "dim", "-k", str(k), "--cache", str(tmp_path / "fresh"))
        warm = tmp_path / "warm"
        run(capsys, "cache", "warm", "-k", str(k), "--cache", str(warm))
        path = warm / f"basis-k{k}.json"
        doc = json.loads(path.read_text())
        bad = json.dumps(edit(doc["payload"])(doc))
        path.write_text(bad)
        monkeypatch.delitem(cache_module._PINS, k)
        assert run(capsys, "dim", "-k", str(k), "--cache", str(warm)) == fresh
        assert fresh[0] == 0
        assert path.read_text() == bad

    def test_short_cached_basis_is_rebuilt(self, tmp_path, capsys, monkeypatch):
        """At a k without pins a cached basis with a class dropped is not
        read, nor are the zero keys beside it: enum rebuilds both and prints
        the 388 classes of a fresh cache, not 387, and leaves the file as
        it was."""
        fresh = run(capsys, "enum", "-k", "5", "--cache", str(tmp_path))
        assert (fresh[0], json.loads(fresh[1])["classes"]) == (0, 388)
        path = tmp_path / "basis-k5.json"
        bad = json.dumps(edited(lambda p: p[1:])(json.loads(path.read_text())))
        path.write_text(bad)
        monkeypatch.delitem(cache_module._PINS, 5)
        assert run(capsys, "enum", "-k", "5", "--cache", str(tmp_path)) == fresh
        assert path.read_text() == bad

    def test_unpinned_k_caches_nothing(self, tmp_path, capsys, monkeypatch):
        """At a k without pins a cold run prints a fresh cache's answer and
        writes no cache file, since none would be read."""
        fresh = [run(capsys, c, "-k", "3", "--cache", str(tmp_path / "fresh")) for c in ("dim", "enum")]
        monkeypatch.delitem(cache_module._PINS, 3)
        cold = tmp_path / "cold"
        assert [run(capsys, c, "-k", "3", "--cache", str(cold)) for c in ("dim", "enum")] == fresh
        assert run(capsys, "cache", "warm", "-k", "3", "--cache", str(cold))[1] == '{"warmed":3,"files":0}\n'
        assert not cold.exists()

    def test_rebuilt_rows_equal_cold_ones(self, tmp_path, capsys, monkeypatch):
        """Relation rows rebuilt over a cached basis, which is pinned, read
        each basis graph's Aut generators off a fresh canonical labelling,
        with no listing run: they are those of a cold build, and so is
        their echelon form, every file byte-identical."""

        def refuse(labelled):
            raise AssertionError("the classes were listed")

        for k in range(1, 6):
            paths = {kind: tmp_path / f"{kind}-k{k}.json" for kind in cache_module.KINDS}
            run(capsys, "cache", "warm", "-k", str(k), "--cache", str(tmp_path))
            cold = {kind: p.read_bytes() for kind, p in paths.items()}
            paths["relations"].unlink()
            paths["rref"].unlink()
            with monkeypatch.context() as m:
                m.setattr(spaces, "classify", refuse)
                assert run(capsys, "cache", "warm", "-k", str(k), "--cache", str(tmp_path))[0] == 0
            assert {kind: p.read_bytes() for kind, p in paths.items()} == cold


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        # the package under test, also when pytest alone puts src/ on the path
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "trivalent", "dim", "-k", "1", "--cache", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"k":1,"dimension":0}\n'

    def test_cli_import_loads_no_hashlib(self):
        """Every checksum in the cache is a zlib CRC-32, so importing the CLI
        loads neither hashlib nor the OpenSSL module behind it."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, trivalent.cli; print({'hashlib', '_hashlib'} & set(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "set()\n")

    def test_cli_import_loads_no_dataclasses(self):
        """The record classes are plain classes (trivalent._record), so a
        gc process started without site imports neither dataclasses nor
        the inspect module behind it."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "import sys, trivalent.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_console_script(self, tmp_path):
        """The installed gc script, or where it is not on PATH, the
        module:function target that pyproject.toml declares for it, called
        as the script's wrapper calls it."""
        argv = ["dim", "-k", "1", "--cache", str(tmp_path)]
        env = None
        exe = shutil.which("gc")
        if exe is None:
            root = Path(__file__).resolve().parent.parent
            text = (root / "pyproject.toml").read_text()
            module, function = re.search(r'^gc = "([\w.]+):(\w+)"$', text, re.M).groups()
            call = f"import sys; from {module} import {function}; sys.exit({function}())"
            exe, argv = sys.executable, ["-c", call, *argv]
            path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([exe, *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"k":1,"dimension":0}\n'
