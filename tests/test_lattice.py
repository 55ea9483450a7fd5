"""Graph connections: holonomy, Wilson observables, gauge symmetry."""

from fractions import Fraction

import numpy as np
import pytest

from skeinlab.characters import (
    character_point,
    phi_evaluate,
    random_rep,
    random_sl2,
    trace_word,
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


def matrix(m) -> np.ndarray:
    """The numpy 2x2 array of an entry tuple, for an independent oracle."""
    return np.reshape(m, (2, 2))


# T, S, (TS)^-1, U, T, (UT^-1)^-1 on the bowtie's edges 1..6 for
# T = [[1,1],[0,1]], S = [[0,-1],[1,0]], U = [[1,0],[1,1]]: flat around both faces
EXACT_BOWTIE = {1: (1, 1, 0, 1), 2: (0, -1, 1, 0), 3: (0, 1, -1, 1),
                4: (1, 0, 1, 1), 5: (1, 1, 0, 1), 6: (0, 1, -1, 1)}


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
        assert np.allclose(matrix(got), matrix(conn[4]) @ np.linalg.inv(matrix(conn[5])),
                           atol=1e-12)

    def test_triangle_cycle(self):
        g = triangle_graph()
        rng = np.random.default_rng(22)
        conn = random_connection(g, rng)
        got = holonomy(g, conn, [(1, 1), (2, 1), (3, 1)])
        assert np.allclose(matrix(got), matrix(conn[1]) @ matrix(conn[2]) @ matrix(conn[3]),
                           atol=1e-12)

    def test_backtracking_cancels(self):
        g = triangle_graph()
        conn = random_connection(g, np.random.default_rng(23))
        got = holonomy(g, conn, [(1, 1), (1, -1)])
        assert np.allclose(matrix(got), np.eye(2), atol=1e-10)

    def test_numpy_arrays_and_rows_are_read(self):
        g = triangle_graph()
        conn = random_connection(g, np.random.default_rng(36))
        want = holonomy(g, conn, [(1, 1), (2, 1), (3, 1)])
        for convert in (matrix, lambda m: matrix(m).tolist()):
            other = {e: convert(m) for e, m in conn.items()}
            assert holonomy(g, other, [(1, 1), (2, 1), (3, 1)]) == want

    def test_a_missing_edge_is_named(self):
        g = triangle_graph()
        conn = trivial_connection(g)
        del conn[2]
        for call in (lambda: holonomy(g, conn, [(1, 1), (2, 1)]),
                     lambda: wilson_loop(g, conn, [(1, 1), (2, 1), (3, 1)]),
                     lambda: is_flat(g, conn),
                     lambda: gauge_act(g, {}, conn)):
            with pytest.raises(KeyError, match="edge 2 missing from connection"):
                call()


class TestExactConnections:
    def test_integer_bowtie_is_exact(self):
        g = bowtie_graph()
        conn = EXACT_BOWTIE
        assert holonomy(g, conn, [(1, 1), (2, 1)]) == (1, -1, 1, 0)
        for loop in g.faces + [[(1, 1), (2, 1), (3, 1), (4, 1), (5, -1), (6, 1)]]:
            assert holonomy(g, conn, loop) == (1, 0, 0, 1)
            value = wilson_loop(g, conn, loop)
            assert value == -2 and type(value) is int
        assert is_flat(g, conn, tol=0)
        bent = {**conn, 3: (1, 0, 1, 1)}
        assert not is_flat(g, bent, tol=0)
        assert wilson_loop(g, bent, g.faces[0]) == 0
        gauge = {v: (2, 1, 1, 1) for v in g.vertices}
        moved = gauge_act(g, gauge, conn)
        assert all(type(v) is int for m in moved.values() for v in m)
        assert is_flat(g, moved, tol=0)

    def test_fraction_entries_stay_fractions(self):
        g = bowtie_graph()
        h = (Fraction(2), Fraction(1, 3), Fraction(0), Fraction(1, 2))
        conn = gauge_act(g, {"v1": h}, EXACT_BOWTIE)
        got = holonomy(g, conn, [(1, 1)])
        assert got == (Fraction(1, 2), Fraction(5, 3), 0, 2)
        assert all(type(v) is Fraction for v in got)
        assert holonomy(g, conn, [(1, 1), (2, 1)]) == (1, -1, 1, 0)
        assert is_flat(g, conn, tol=0)
        value = wilson_loop(g, conn, g.faces[0])
        assert value == -2 and type(value) is Fraction


class TestWilson:
    def test_minus_trace(self):
        g = bouquet(1)
        conn = random_connection(g, np.random.default_rng(24))
        assert abs(wilson_loop(g, conn, [(1, 1)]) + np.trace(matrix(conn[1]))) < 1e-12

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
        combined = {v: matrix(g1[v]) @ matrix(g2[v]) for v in g.vertices}
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
            assert np.allclose(matrix(conn[e]), np.eye(2), atol=1e-12)
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
        a, b = matrix(rep["a"]), matrix(rep["b"])
        want = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
        assert np.allclose(matrix(got), want, atol=1e-10)
        assert abs(wilson_loop(g, conn, peripheral_path()) + trace_word(rep, "abAB")) < 1e-10

    def test_peripheral_wilson_in_coordinates(self):
        rep = random_rep("ab", np.random.default_rng(35))
        g = punctured_torus_graph()
        conn = rep_connection_on_bouquet(rep)
        x, y, z = character_point(rep)
        want = -(x * x + y * y + z * z + x * y * z - 2)
        assert abs(wilson_loop(g, conn, peripheral_path()) - want) < 1e-9
