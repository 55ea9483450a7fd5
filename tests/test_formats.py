"""JSON serialization round trips for every object kind."""

import json
import random
import re

import numpy as np
import pytest

from skeinlab.characters import random_rep, random_sl2
from skeinlab.diagram import corpus, parse_braid, random_braid_diagram
from skeinlab.formats import (
    complex_from_json,
    complex_to_json,
    connection_from_json,
    connection_to_json,
    diagram_from_json,
    diagram_to_json,
    graph_from_json,
    graph_to_json,
    matrix_from_json,
    matrix_to_json,
    qconnection_from_json,
    qconnection_to_json,
    qlink_from_json,
    qlink_to_json,
    rep_from_json,
    rep_to_json,
)
from skeinlab.lattice import bouquet, bowtie_graph, triangle_graph
from skeinlab.qlattice import UqWord, W_CHARM, W_E, bowtie_qlinks


class TestDiagrams:
    def test_round_trip_corpus(self):
        for name, d in corpus().items():
            blob = json.dumps(diagram_to_json(d))
            back = diagram_from_json(json.loads(blob))
            assert back.same_diagram(d), name

    def test_round_trip_random(self):
        rng = random.Random(81)
        for _ in range(25):
            d = random_braid_diagram(rng, max_crossings=8, max_strands=4)
            assert diagram_from_json(diagram_to_json(d)).same_diagram(d)

    def test_over_pair_marks_positions_one_and_three(self):
        d = parse_braid([1], 2)
        obj = diagram_to_json(d)
        (ends,) = obj["crossings"]
        (over,) = obj["over"]
        assert over == [ends[1], ends[3]]

    def test_braid_schema_accepted(self):
        d = diagram_from_json({"strands": 2, "word": [1, 1, 1]})
        assert d.same_diagram(parse_braid([1, 1, 1], 2))

    def test_ambiguous_over_pair_rejected(self):
        obj = diagram_to_json(parse_braid([1], 2))
        obj["over"] = [[99, 98]]
        with pytest.raises(ValueError):
            diagram_from_json(obj)


class TestNumbers:
    def test_complex_round_trip(self):
        for z in (0, 1.5, -2 + 3j, 1j):
            assert complex_from_json(complex_to_json(z)) == complex(z)

    def test_complex_accepts_scalars_and_strings(self):
        assert complex_from_json(2) == 2
        assert complex_from_json("1+2j") == 1 + 2j
        assert complex_from_json([1, -1]) == 1 - 1j

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, 1e400, float("nan"), "1e400",
                                       "inf", "nan+1j", [1e400, 0], [0, -10 ** 400]],
                             ids=["huge int", "huge negative int", "1e400", "nan", "text 1e400",
                                  "text inf", "text nan", "pair inf", "pair huge int"])
    def test_non_finite_values_are_refused_and_named(self, value):
        with pytest.raises(ValueError, match="^a complex value must be finite, not ") as info:
            complex_from_json(value)
        assert str(info.value).endswith(repr(value))

    @pytest.mark.parametrize("value", [True, False, [True, 0], [0, False]])
    def test_booleans_are_refused(self, value):
        with pytest.raises(ValueError, match="^a complex value must be a number, not "):
            complex_from_json(value)
        with pytest.raises(ValueError, match="^a complex value must be a number, not "):
            qconnection_from_json({"1": [{"coeff": value, "word": []}]})

    def test_matrix_round_trip(self):
        m = random_sl2(np.random.default_rng(82))
        back = matrix_from_json(matrix_to_json(m))
        assert np.allclose(back, m, atol=1e-15)


class TestRepsAndGraphs:
    def test_rep_round_trip(self):
        rep = random_rep("ab", np.random.default_rng(83))
        back = rep_from_json(json.loads(json.dumps(rep_to_json(rep))))
        for name in rep:
            assert np.allclose(back[name], rep[name], atol=1e-15)

    def test_graph_round_trip(self):
        for g in (triangle_graph(), bowtie_graph(), bouquet(2)):
            blob = json.dumps(graph_to_json(g))
            back = graph_from_json(json.loads(blob))
            assert back.edges == g.edges
            assert list(back.vertices) == list(g.vertices)
            assert back.ciliation == g.ciliation
            assert back.faces == g.faces

    def test_connection_round_trip(self):
        g = triangle_graph()
        rng = np.random.default_rng(84)
        conn = {e: random_sl2(rng) for e in g.edges}
        back = connection_from_json(json.dumps(connection_to_json(conn)))
        for e in conn:
            assert np.allclose(back[e], conn[e], atol=1e-15)


class TestDeterminant:
    """Connections and representations hold SL(2) matrices."""

    def test_integer_entries_are_checked_exactly(self):
        assert np.array_equal(connection_from_json({"1": [[2, 3], [1, 2]]})[1], [[2, 3], [1, 2]])
        with pytest.raises(ValueError, match="^edge 1's matrix must have determinant 1, not 4$"):
            connection_from_json({"1": [[2, 0], [0, 2]]})
        # as floats the determinant 0 would be within the tolerance of 1
        with pytest.raises(ValueError, match="^edge 2's matrix must have determinant 1, not 0$"):
            connection_from_json({"2": [[10 ** 17, 1], [10 ** 17, 1]]})

    def test_float_entries_within_the_tolerance(self):
        rng = np.random.default_rng(85)
        for _ in range(20):
            a, b = random_sl2(rng), random_sl2(rng)
            m = connection_from_json(json.loads(json.dumps(connection_to_json({1: a @ b}))))[1]
            assert np.allclose(m, a @ b, atol=1e-12)
        assert rep_from_json({"a": [[0.1, 0], [0, 10]]})["a"][1, 1] == 10
        for rows in ([[2.0, 0], [0, 2]], [[1, 0], [0, [1, 1e-6]]], [["1+1j", 0], [0, 1]]):
            with pytest.raises(ValueError, match="^generator 'a' must have determinant 1, not "):
                rep_from_json({"a": rows})


class TestQuantumObjects:
    def test_qlink_round_trip(self):
        for q in bowtie_qlinks():
            back = qlink_from_json(json.loads(json.dumps(qlink_to_json(q))))
            assert back.loops == q.loops
            assert back.crossings == q.crossings

    def test_qconnection_round_trip(self):
        conn = {
            1: W_E,
            2: W_CHARM,
            3: UqWord({(): 1 + 2j, ("E", "F"): -0.5j}),
        }
        blob = json.dumps(qconnection_to_json(conn))
        back = qconnection_from_json(json.loads(blob))
        for e, w in conn.items():
            assert back[e].diff_norm(w) < 1e-15


# One document per integer field of a reader; "@" stands for the field's JSON
# text, quoted where the field is an object key.
INTEGER_FIELDS = [
    (diagram_from_json, '{"crossings": [[1, 2, 2, @]]}', "crossing 0's arc label"),
    (diagram_from_json, '{"crossings": [[1, 2, 2, 1]], "over": [[2, @]]}',
     "over pair 0's arc label"),
    (diagram_from_json, '{"crossings": [], "free_loops": @}', '"free_loops"'),
    (graph_from_json, '{"vertices": ["a"], "edges": {"@": ["a", "a"]}, "ciliation": {}}',
     "an edge id"),
    (graph_from_json, '{"vertices": ["a"], "edges": {"1": ["a", "a"]}, '
                      '"ciliation": {"a": [[@, 0], [1, 1]]}}', "a ciliation edge id"),
    (graph_from_json, '{"vertices": ["a"], "edges": {"1": ["a", "a"]}, '
                      '"ciliation": {"a": [[1, @], [1, 1]]}}', "a ciliation end"),
    (graph_from_json, '{"vertices": ["a"], "edges": {"1": ["a", "a"]}, '
                      '"ciliation": {"a": [[1, 0], [1, 1]]}, "faces": [[[@, 1]]]}',
     "a face edge id"),
    (graph_from_json, '{"vertices": ["a"], "edges": {"1": ["a", "a"]}, '
                      '"ciliation": {"a": [[1, 0], [1, 1]]}, "faces": [[[1, @]]]}',
     "a face direction"),
    (connection_from_json, '{"@": [[1, 0], [0, 1]]}', "a connection edge id"),
    (qlink_from_json, '{"loops": [[[@, 1]]]}', "a q-link edge id"),
    (qlink_from_json, '{"loops": [[[1, @]]]}', "a q-link direction"),
    (qconnection_from_json, '{"@": [{"coeff": 1, "word": []}]}',
     "a quantum connection edge id"),
]


class TestIntegerFields:
    @pytest.mark.parametrize("reader, template, field", INTEGER_FIELDS,
                             ids=[field.strip('"') for *_, field in INTEGER_FIELDS])
    @pytest.mark.parametrize("value", ["1e400", "-1e400", "NaN", "1.5", "true", "null"])
    def test_refused_with_the_field_named(self, reader, template, field, value):
        with pytest.raises(ValueError, match=f"^{re.escape(field)} must be an integer, not "):
            reader(template.replace("@", value))

    def test_integral_floats_and_integer_text_are_read(self):
        assert diagram_from_json('{"crossings": [], "free_loops": 2.0}').free_loops == 2
        assert diagram_from_json({"crossings": [], "free_loops": "3"}).free_loops == 3
        d = diagram_from_json({"crossings": [[1.0, 2, 2, 1]], "over": [["2", 1]]})
        assert d.same_diagram(diagram_from_json({"crossings": [[1, 2, 2, 1]]}))
        assert list(connection_from_json({"-4": [[1, 0], [0, 1]]})) == [-4]
