"""Surgery data and both evaluators, cross-checked against the quotient."""

import itertools
import json

import pytest

import oracles
from trivalent import graphs as G
from trivalent import surgery as S
from trivalent.morse import TYPE_I, TYPE_II, surviving_indices
from trivalent.spaces import GraphSpace, enumerate_graphs


def theta():
    return G.LabelledTrivalentGraph(2, ((0, 1), (0, 1), (0, 1)))


def dumbbell():
    return G.LabelledTrivalentGraph(2, ((0, 0), (0, 1), (1, 1)))


def k4():
    return G.LabelledTrivalentGraph(
        4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    )


def clover():
    return G.LabelledTrivalentGraph(
        4, ((0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3))
    )


def arrow(g):
    return G.find_arrow_orientation(g)


def class_reps(k):
    """One labelled representative per class, zero classes included."""
    reps = {}
    for g in enumerate_graphs(k):
        r = G.reduce(g)
        reps.setdefault(r.key, g)
    return [reps[key] for key in sorted(reps)]


def keyed(space, vec):
    keys = [G.reduce(b).key for b in space.basis]
    return {keys[i]: v for i, v in vec.items() if v}


class TestYLink:
    def test_theta_layout(self):
        a = arrow(theta())
        assert a.directions == ((0, 1), (0, 1), (1, 0))
        data, mat = S.ylink(a)
        assert len(data.slots) == 6
        assert data.hopf_pairs == ((0, 3), (1, 4), (5, 2))
        assert data.vertex_types == (TYPE_I, TYPE_II)
        # tail-side slots carry degree 1, head-side degree 2
        assert [data.slots[i].degree for i in (0, 3, 5, 2)] == [1, 2, 1, 2]
        assert mat.size == 6

    def test_slot_indexing(self):
        for g in (theta(), dumbbell(), k4(), clover()):
            data, _ = S.ylink(arrow(g))
            for i, slot in enumerate(data.slots):
                assert slot.index == i == 3 * slot.vertex + slot.position
            for v in range(g.num_vertices):
                ordering = [(s.edge, s.end) for s in data.slots_at(v)]
                assert ordering == sorted(ordering)
                assert ordering == G.half_edges_at(g.edges, v)

    def test_one_hopf_pair_per_edge(self):
        for conv, g in itertools.product(S.CONVENTIONS, (theta(), dumbbell(), k4(), clover())):
            data, mat = S.ylink(arrow(g), conv)
            assert len(data.hopf_pairs) == len(g.edges)
            used = [s for pair in data.hopf_pairs for s in pair]
            assert sorted(used) == list(range(len(data.slots)))
            for a_, b_ in data.hopf_pairs:
                assert {data.slots[a_].degree, data.slots[b_].degree} == {1, 2}
                assert data.slots[a_].outgoing and not data.slots[b_].outgoing

    def test_linking_matrix(self):
        for g in (theta(), dumbbell(), k4()):
            data, mat = S.ylink(arrow(g))
            n = mat.size
            assert n == len(data.slots) == 3 * g.num_vertices
            assert mat.row_sums() == (1,) * n
            for i in range(n):
                for j in range(n):
                    assert mat.entries[i][j] == mat.entries[j][i]
                    assert mat.entries[i][j] in (0, 1)
            ones = {(i, j) for i in range(n) for j in range(n) if mat.entries[i][j]}
            expected = set()
            for a_, b_ in data.hopf_pairs:
                expected.add((a_, b_))
                expected.add((b_, a_))
            assert ones == expected

    def test_loop_pairs_stay_at_their_vertex(self):
        data, _ = S.ylink(arrow(dumbbell()))
        for e, (u, v) in enumerate(dumbbell().edges):
            if u != v:
                continue
            a_, b_ = data.hopf_pairs[e]
            assert a_ != b_
            assert data.slots[a_].vertex == data.slots[b_].vertex == u

    def test_flip_swaps_every_type(self):
        for g in (theta(), dumbbell(), k4(), clover()):
            a = arrow(g)
            default, _ = S.ylink(a)
            flipped, _ = S.ylink(a, S.CONVENTION_FLIPPED)
            for t, f in zip(default.vertex_types, flipped.vertex_types):
                assert {t, f} == {TYPE_I, TYPE_II}

    def test_parity_tracks_type(self):
        for conv in S.CONVENTIONS:
            for g in (theta(), dumbbell(), k4(), clover()):
                data, _ = S.ylink(arrow(g), conv)
                degs = S.block_degrees(data)
                for t, p, d in zip(data.vertex_types, degs.parities, degs.degrees):
                    assert sum(d) % 2 == p
                    assert p == (0 if t == TYPE_I else 1)

    def test_realized_tuples_survive(self):
        """Each vertex realizes a surviving (inputs | outputs) tuple of its
        type: its incoming slots are the inputs under the default
        convention and its outgoing ones under the flipped convention."""
        realized = {TYPE_I: ((2,), (1, 1)), TYPE_II: ((2, 2), (1,))}
        for conv in S.CONVENTIONS:
            for g in (theta(), dumbbell(), k4(), clover()):
                data, _ = S.ylink(arrow(g), conv)
                for v, t in enumerate(data.vertex_types):
                    ins, outs = [], []
                    for s in data.slots_at(v):
                        is_input = s.outgoing == (conv == S.CONVENTION_FLIPPED)
                        (ins if is_input else outs).append(s.degree)
                    tup = tuple(sorted(ins)), tuple(sorted(outs))
                    assert tup == realized[t]
                    assert tup in surviving_indices(t)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            S.ylink(arrow(theta()), "sideways")


def _degrees_with_parities(parities):
    blocks = tuple((1, 2, 2) if p else (1, 1, 2) for p in parities)
    return S.BlockDegrees(blocks, tuple(parities))


class TestBlockSign:
    def test_identity(self):
        d = _degrees_with_parities((1, 0, 1))
        assert S.block_sign(d, (0, 1, 2)) == 1

    def test_odd_swap(self):
        d = _degrees_with_parities((1, 1))
        assert S.block_sign(d, (1, 0)) == -1

    def test_even_swaps_are_free(self):
        assert S.block_sign(_degrees_with_parities((0, 0)), (1, 0)) == 1
        assert S.block_sign(_degrees_with_parities((0, 1)), (1, 0)) == 1
        assert S.block_sign(_degrees_with_parities((1, 0)), (1, 0)) == 1

    def test_all_odd_reduces_to_permutation_sign(self):
        d = _degrees_with_parities((1, 1, 1, 1))
        for sigma in itertools.permutations(range(4)):
            inversions = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if sigma[i] > sigma[j]
            )
            assert S.block_sign(d, sigma) == (-1) ** inversions

    def test_homomorphism_on_parity_preserving_maps(self):
        parities = (0, 1, 0, 1)
        d = _degrees_with_parities(parities)
        preserving = [
            s
            for s in itertools.permutations(range(4))
            if all(parities[s[i]] == parities[i] for i in range(4))
        ]
        assert len(preserving) == 4
        for s in preserving:
            for r in preserving:
                comp = tuple(s[r[i]] for i in range(4))
                assert S.block_sign(d, comp) == S.block_sign(d, s) * S.block_sign(d, r)

    def test_parity_mixing_breaks_homomorphism(self):
        # the restriction above is necessary: mixing maps need not compose
        d = _degrees_with_parities((1, 0, 1))
        broken = 0
        for s in itertools.permutations(range(3)):
            for r in itertools.permutations(range(3)):
                comp = tuple(s[r[i]] for i in range(3))
                if S.block_sign(d, comp) != S.block_sign(d, s) * S.block_sign(d, r):
                    broken += 1
        assert broken > 0


class TestOrbitEvaluation:
    def test_matches_quotient_class_small_k(self):
        for k in (1, 2, 3):
            space = GraphSpace(k)
            for rep in class_reps(k):
                rpt = S.evaluate_orbit(arrow(rep), space)
                assert rpt.mode == "orbit"
                assert rpt.result == keyed(space, space.reduce_graph(rep))

    def test_k4_survives_theta_does_not(self):
        space = GraphSpace(2)
        assert S.evaluate_orbit(arrow(k4()), space).result != {}
        assert S.evaluate_orbit(arrow(clover()), space).result == {}
        space1 = GraphSpace(1)
        assert S.evaluate_orbit(arrow(theta()), space1).result == {}
        assert S.evaluate_orbit(arrow(dumbbell()), space1).result == {}

    def test_diagnostics(self):
        cases = [
            (theta(), "12", "6", "2", "8"),
            (dumbbell(), "2", "1", "2", "48"),
            (k4(), "24", "1", "24", "46080"),
            (clover(), "6", "1", "6", "184320"),
        ]
        for g, aut, aut_e, aut_v, reps in cases:
            d = S.evaluate_orbit(arrow(g)).diagnostics
            assert d["aut"] == aut
            assert d["aut_e"] == aut_e
            assert d["aut_v"] == aut_v
            assert d["representatives"] == reps

    def test_orientation_invariance_k4(self):
        space = GraphSpace(2)
        orientations = G.all_arrow_orientations(k4())
        assert len(orientations) == 24
        results = {
            json.dumps(S.evaluate_orbit(a, space).to_json()["result"])
            for a in orientations
        }
        assert len(results) == 1

    def test_convention_invariance(self):
        space2 = GraphSpace(2)
        for g, space in ((theta(), GraphSpace(1)), (k4(), space2), (clover(), space2)):
            a = arrow(g)
            default = S.evaluate_orbit(a, space)
            flipped = S.evaluate_orbit(a, space, S.CONVENTION_FLIPPED)
            assert default.result == flipped.result

    def test_report_json_shape(self):
        rpt = S.evaluate_orbit(arrow(k4()))
        blob = rpt.to_json()
        assert set(blob) == {"mode", "input", "result", "diagnostics", "notes"}
        assert blob["input"]["vertices"] == 4
        assert blob["input"]["directions"] == [list(d) for d in arrow(k4()).directions]
        for v in blob["result"].values():
            assert isinstance(v, str) and "." not in v
        for v in blob["diagnostics"].values():
            int(v)
        json.loads(json.dumps(blob))


class TestEvaluatorInputs:
    @pytest.mark.parametrize("evaluate", [S.evaluate_orbit, S.evaluate_full])
    def test_unknown_convention_rejected(self, evaluate):
        with pytest.raises(ValueError, match="unknown type convention 'sideways'"):
            evaluate(arrow(theta()), GraphSpace(1), "sideways")

    @pytest.mark.parametrize("evaluate", [S.evaluate_orbit, S.evaluate_full])
    def test_source_vertex_rejected(self, evaluate):
        """A hand-built arrow, which make_arrow did not check: every edge of
        the theta graph leaves vertex 0, a source, and enters vertex 1."""
        a = G.ArrowGraph(theta(), ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(G.GraphError, match="vertex 0 is a source or sink"):
            evaluate(a, GraphSpace(1))


class TestFullEvaluation:
    def test_matches_orbit_every_class_k_le_2(self):
        for k in (1, 2):
            space = GraphSpace(k)
            for rep in class_reps(k):
                a = arrow(rep)
                full = S.evaluate_full(a, space)
                orbit = S.evaluate_orbit(a, space)
                assert full.result == orbit.result
                assert (
                    full.diagnostics["representatives"]
                    == orbit.diagnostics["representatives"]
                )

    def test_assignment_counts(self):
        assert S.evaluate_full(arrow(theta())).diagnostics["assignments"] == "96"
        assert S.evaluate_full(arrow(dumbbell())).diagnostics["assignments"] == "96"
        d = S.evaluate_full(arrow(k4())).diagnostics
        assert d["assignments"] == "1105920"
        assert d["representatives"] == "46080"

    def test_orientation_sample_k4(self):
        space = GraphSpace(2)
        orientations = G.all_arrow_orientations(k4())
        expected = S.evaluate_orbit(orientations[0], space).result
        for a in (orientations[5], orientations[17]):
            assert S.evaluate_full(a, space).result == expected

    def test_convention_flip(self):
        for g, space in ((theta(), GraphSpace(1)), (clover(), GraphSpace(2))):
            a = arrow(g)
            assert (
                S.evaluate_full(a, space).result
                == S.evaluate_full(a, space, S.CONVENTION_FLIPPED).result
            )

    def test_wrong_automorphism_group_fails_the_copy_count(self, monkeypatch):
        # |Aut| = 6 divides 2^3 2! 3! = 96, so the orbit checks pass with
        # L = 16, but theta has one labelled copy of weight 2^3 = 8
        monkeypatch.setattr(S, "automorphisms", lambda g, res: ([], 6, 6, 1))
        a, space = arrow(theta()), GraphSpace(1)
        assert S.evaluate_orbit(a, space).diagnostics["representatives"] == "16"
        with pytest.raises(S.SurgeryError, match="copy count 8 differs from L = 16"):
            S.evaluate_full(a, space)

    def test_resource_gate(self):
        rep = class_reps(3)[0]
        with pytest.raises(S.ResourceLimitError):
            S.evaluate_full(arrow(rep), GraphSpace(3))


def brute_force_copies(g):
    """Loop-weighted count of distinct labelled oriented copies, by listing."""
    n = g.num_vertices
    base = [tuple(sorted(e)) for e in g.edges]
    seen = set()
    for perm in itertools.permutations(range(n)):
        relabelled = [tuple(sorted((perm[u], perm[v]))) for u, v in base]
        for seq in itertools.permutations(relabelled):
            choices = [((u, v),) if u == v else ((u, v), (v, u)) for u, v in seq]
            for oriented in itertools.product(*choices):
                seen.add(oriented)
    return sum(
        2 ** sum(1 for u, v in h if u == v) for h in seen
    )


class TestRepresentativeCounts:
    def test_divisibility_k_le_3(self):
        for k in (1, 2, 3):
            order = 2 ** (3 * k) * S.factorial(2 * k) * S.factorial(3 * k)
            for rep in class_reps(k):
                _, aut, _, aut_v = G.automorphisms(rep)
                assert aut_v == len(oracles.vertex_group(rep))
                assert order % aut == 0

    def test_brute_force_matches_closed_form_k_le_2(self):
        for k in (1, 2):
            order = 2 ** (3 * k) * S.factorial(2 * k) * S.factorial(3 * k)
            for rep in class_reps(k):
                _, aut, _, _ = G.automorphisms(rep)
                assert brute_force_copies(rep) == order // aut

    def test_fixture_values(self):
        assert brute_force_copies(theta()) == 8
        assert brute_force_copies(dumbbell()) == 48
