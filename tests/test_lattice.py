"""Graph connections: holonomy, Wilson observables, gauge symmetry."""

import numpy as np
import pytest

from skeinlab.characters import (
    character_point,
    commutator_trace,
    phi_evaluate,
    random_rep,
    random_sl2,
    sl2_inverse,
)
from skeinlab.lattice import (
    CiliatedGraph,
    bouquet,
    bowtie_graph,
    gauge_act,
    holonomy,
    is_flat,
    peripheral_path,
    punctured_torus_graph,
    rep_connection_on_bouquet,
    rep_to_connection,
    spanning_tree,
    triangle_graph,
    trivial_connection,
    wilson_loop,
)
from skeinlab.torus_skein import CommPoly


def random_connection(graph, rng) -> dict:
    return {e: random_sl2(rng) for e in graph.edges}


def boundary_cycles(graph) -> list[list[tuple[int, int]]]:
    """Boundary cycles of the ribbon surface, as closed edge paths: run along
    an end's edge, then turn to the end before the far one in cilial order."""
    before = {}
    for ends in graph.ciliation.values():
        for i, end in enumerate(ends):
            before[end] = ends[i - 1]
    cycles, seen = [], set()
    for end in before:
        path = []
        while end not in seen:
            seen.add(end)
            e, side = end
            path.append((e, 1 if side == 0 else -1))
            end = before[(e, 1 - side)]
        if path:
            cycles.append(path)
    return cycles


class TestGraphs:
    def test_punctured_torus_is_the_one_holed_torus(self):
        assert len(boundary_cycles(bouquet(2))) == 3
        (cycle,) = boundary_cycles(punctured_torus_graph())
        path = peripheral_path()
        reverse = [(e, -d) for e, d in reversed(path)]
        assert any(cycle == p[k:] + p[:k] for p in (path, reverse) for k in range(len(p)))

    def test_standard_graphs_validate(self):
        for g in (bouquet(1), bouquet(3), triangle_graph(), bowtie_graph()):
            assert set(g.ciliation) == set(g.vertices)

    def test_cilial_position_is_the_index_in_the_cilial_order(self):
        for g in (bouquet(1), bouquet(3), punctured_torus_graph(), triangle_graph(),
                  bowtie_graph()):
            for v, ends in g.ciliation.items():
                for end in ends:
                    assert g.cilial_position(v, end) == ends.index(end)
                    for w in g.vertices:
                        if w != v:
                            with pytest.raises(ValueError):
                                g.cilial_position(w, end)
            with pytest.raises(ValueError):
                g.cilial_position(g.vertices[0], (max(g.edges) + 1, 0))

    def test_every_edge_end_listed_once(self):
        with pytest.raises(ValueError):
            CiliatedGraph(["u", "v"], {1: ("u", "v")}, {"u": [(1, 0)], "v": []})
        with pytest.raises(ValueError):
            CiliatedGraph(["u", "v"], {1: ("u", "v")},
                          {"u": [(1, 0), (1, 0)], "v": [(1, 1)]})

    def test_path_validation(self):
        g = triangle_graph()
        with pytest.raises(ValueError):
            holonomy(g, trivial_connection(g), [(1, 1), (3, 1)])


class TestHolonomy:
    def test_ordered_product_with_inverses(self):
        g = bowtie_graph()
        rng = np.random.default_rng(21)
        conn = random_connection(g, rng)
        # Walk e4 forward then e5 backward: x4 * x5^-1.
        got = holonomy(g, conn, [(4, 1), (5, -1)])
        assert np.allclose(got, conn[4] @ sl2_inverse(conn[5]), atol=1e-12)

    def test_triangle_cycle(self):
        g = triangle_graph()
        rng = np.random.default_rng(22)
        conn = random_connection(g, rng)
        got = holonomy(g, conn, [(1, 1), (2, 1), (3, 1)])
        assert np.allclose(got, conn[1] @ conn[2] @ conn[3], atol=1e-12)

    def test_backtracking_cancels(self):
        g = triangle_graph()
        conn = random_connection(g, np.random.default_rng(23))
        got = holonomy(g, conn, [(1, 1), (1, -1)])
        assert np.allclose(got, np.eye(2), atol=1e-10)


class TestWilson:
    def test_minus_trace(self):
        g = bouquet(1)
        conn = random_connection(g, np.random.default_rng(24))
        assert abs(wilson_loop(g, conn, [(1, 1)]) + np.trace(conn[1])) < 1e-12

    def test_trivial_connection_scores_minus_two(self):
        g = triangle_graph()
        conn = trivial_connection(g)
        assert abs(wilson_loop(g, conn, [(1, 1), (2, 1), (3, 1)]) + 2) < 1e-12

    def test_cyclic_rotation_invariance(self):
        g = triangle_graph()
        conn = random_connection(g, np.random.default_rng(25))
        loop = [(1, 1), (2, 1), (3, 1)]
        vals = [wilson_loop(g, conn, loop[k:] + loop[:k]) for k in range(3)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-10

    def test_gauge_invariance(self):
        rng = np.random.default_rng(26)
        for g, loop in (
            (triangle_graph(), [(1, 1), (2, 1), (3, 1)]),
            (bouquet(2), peripheral_path()),
            (bowtie_graph(), [(1, 1), (2, 1), (3, 1)]),
        ):
            conn = random_connection(g, rng)
            before = wilson_loop(g, conn, loop)
            for _ in range(5):
                gauge = {v: random_sl2(rng) for v in g.vertices}
                after = wilson_loop(g, gauge_act(g, gauge, conn), loop)
                assert abs(after - before) < 1e-10


class TestGaugeAction:
    def test_identity_fixes_everything(self):
        g = bowtie_graph()
        conn = random_connection(g, np.random.default_rng(27))
        same = gauge_act(g, {v: np.eye(2) for v in g.vertices}, conn)
        for e in g.edges:
            assert np.allclose(same[e], conn[e], atol=1e-12)

    def test_composition(self):
        g = triangle_graph()
        rng = np.random.default_rng(28)
        conn = random_connection(g, rng)
        g1 = {v: random_sl2(rng) for v in g.vertices}
        g2 = {v: random_sl2(rng) for v in g.vertices}
        combined = {v: g1[v] @ g2[v] for v in g.vertices}
        a = gauge_act(g, g1, gauge_act(g, g2, conn))
        b = gauge_act(g, combined, conn)
        for e in g.edges:
            assert np.allclose(a[e], b[e], atol=1e-10)


class TestFlatness:
    def test_gauge_images_of_trivial_are_flat(self):
        g = bowtie_graph()
        rng = np.random.default_rng(29)
        gauge = {v: random_sl2(rng) for v in g.vertices}
        conn = gauge_act(g, gauge, trivial_connection(g))
        assert is_flat(g, conn)

    def test_generic_connection_is_not_flat(self):
        g = triangle_graph()
        conn = random_connection(g, np.random.default_rng(30))
        assert not is_flat(g, conn)

    def test_no_faces_means_no_conditions(self):
        g = bouquet(2)
        conn = random_connection(g, np.random.default_rng(31))
        assert is_flat(g, conn)


class TestRepresentationConnections:
    def test_spanning_tree_size(self):
        for g in (triangle_graph(), bowtie_graph()):
            assert len(spanning_tree(g)) == len(g.vertices) - 1
        assert spanning_tree(bouquet(2)) == set()

    def test_tree_edges_carry_identity(self):
        g = bowtie_graph()
        tree = spanning_tree(g)
        rng = np.random.default_rng(32)
        images = {e: random_sl2(rng) for e in g.edges if e not in tree}
        conn = rep_to_connection(g, images, tree)
        for e in tree:
            assert np.allclose(conn[e], np.eye(2), atol=1e-12)
        with pytest.raises(KeyError):
            rep_to_connection(g, {}, tree)

    def test_loop_traces_reproduce_the_evaluation_map(self):
        # Wilson observables of the two loops and their product on the spine
        # of the punctured torus equal the evaluation of x, y, z at the
        # matrix pair.
        rep = random_rep("ab", np.random.default_rng(33))
        g = punctured_torus_graph()
        conn = rep_connection_on_bouquet(rep)
        pairs = [
            ([(1, 1)], CommPoly.x()),
            ([(2, 1)], CommPoly.y()),
            ([(1, 1), (2, 1)], CommPoly.z()),
        ]
        for loop, coord in pairs:
            assert abs(wilson_loop(g, conn, loop) - phi_evaluate(coord, rep)) < 1e-10

    def test_peripheral_holonomy_is_the_commutator(self):
        rep = random_rep("ab", np.random.default_rng(34))
        g = punctured_torus_graph()
        conn = rep_connection_on_bouquet(rep)
        got = holonomy(g, conn, peripheral_path())
        want = (rep["a"] @ rep["b"] @ sl2_inverse(rep["a"]) @ sl2_inverse(rep["b"]))
        assert np.allclose(got, want, atol=1e-10)
        assert abs(wilson_loop(g, conn, peripheral_path()) + commutator_trace(rep)) < 1e-10

    def test_peripheral_wilson_in_coordinates(self):
        rep = random_rep("ab", np.random.default_rng(35))
        g = punctured_torus_graph()
        conn = rep_connection_on_bouquet(rep)
        x, y, z = character_point(rep)
        want = -(x * x + y * y + z * z + x * y * z - 2)
        assert abs(wilson_loop(g, conn, peripheral_path()) - want) < 1e-9
