"""Quantum connections: the word Hopf algebra, R-states, Wilson observables."""

import functools
import itertools
import random

import numpy as np
import pytest

from skeinlab.characters import random_sl2, sl2_inverse
from skeinlab.lattice import (
    CiliatedGraph,
    bowtie_graph,
    gauge_act,
    triangle_graph,
    trivial_connection,
    wilson_loop,
)
from skeinlab.qlattice import (
    QLink,
    UqWord,
    W_CHARM,
    W_E,
    W_F,
    W_K,
    W_KI,
    W_ONE,
    _antipode_matrix,
    _iterate_probes,
    _r_matrix_legs,
    bowtie_qlinks,
    charmed_k_matrix,
    classical_to_quantum,
    decorated_words,
    fundamental_tangle,
    gauge_act_q,
    nabla_coassociativity_residual,
    nabla_vertex,
    r_matrix,
    r_matrix_terms,
    skein_residual,
    uq_antipode,
    uq_coproduct,
    uq_coproduct_n,
    uq_counit,
    uq_fundamental,
    uq_trace,
    wilson_qlink,
    yang_baxter_residual,
)

GENERIC_T = (0.83 + 0.41j, 1.317, -0.64 + 0.73j, 0.5)


def random_word(rng: random.Random, max_len: int = 4) -> UqWord:
    letters = tuple(rng.choice(["E", "F", "K", "Ki"])
                    for _ in range(rng.randint(0, max_len)))
    return UqWord.from_word(letters, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))


def tensor_table(pairs):
    """Collapse a list of (left UqWord, right UqWord) to word-pair -> coeff."""
    out: dict = {}
    for left, right in pairs:
        for wl, cl in left.items():
            for wr, cr in right.items():
                key = (wl, wr)
                out[key] = out.get(key, 0) + cl * cr
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


def tensor_close(a, b, tol=1e-10):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0) - b.get(k, 0)) < tol for k in keys)


@functools.lru_cache(maxsize=None)
def word_matrix(word: tuple, t) -> np.ndarray:
    """A reduced word in the fundamental representation: its letter matrices'
    product.  Shared between callers, so never modified."""
    letters = {"K": np.diag([t, 1 / t]), "Ki": np.diag([1 / t, t]),
               "E": np.array([[0, 1], [0, 0]]), "F": np.array([[0, 0], [1, 0]])}
    return functools.reduce(np.matmul, [letters[ch] for ch in word], np.eye(2))


def symbolic_wilson(graph, qlink, conn, t) -> complex:
    """Slow reference for wilson_qlink: traces of the expanded decorated words."""
    total = sum(np.prod([uq_trace(word, t) for word in products])
                for products in decorated_words(graph, qlink, conn, t))
    for e in set(graph.edges) - set(qlink.used_edges()):
        total *= uq_counit(conn[e])
    return complex((-1) ** len(qlink.loops) * total)


def collapse_tensors(terms) -> dict:
    """Combine pure tensors of single-term words into a word-tuple -> coeff map."""
    table: dict = {}
    for factors in terms:
        coeff = 1
        words = []
        for f in factors:
            items = f.items()
            assert len(items) == 1, "expected single-term tensor factors"
            word, c = items[0]
            coeff *= c
            words.append(word)
        key = tuple(words)
        table[key] = table.get(key, 0) + coeff
    return table


def symbolic_iterate_probes(graph, vertex, inputs, t, probes):
    """Slow reference for _iterate_probes: expand both iterates of the
    vertex split into pure tensors of words, then contract slot by slot."""
    n = len(graph.ciliation[vertex])
    left_terms, right_terms = [], []
    for factors in nabla_vertex(graph, vertex, inputs, t):
        for again in nabla_vertex(graph, vertex, factors[:n], t):
            left_terms.append(tuple(again) + tuple(factors[n:]))
        for again in nabla_vertex(graph, vertex, factors[n:], t):
            right_terms.append(tuple(factors[:n]) + tuple(again))
    cache: dict = {}

    def contract(table) -> complex:
        total = 0
        for words, coeff in table.items():
            prod = coeff
            for slot, word in enumerate(words):
                if (slot, word) not in cache:
                    u, v = probes[slot]
                    cache[slot, word] = complex(
                        u @ word_matrix(word, t) @ v)
                prod *= cache[slot, word]
            total += prod
        return total

    return contract(collapse_tensors(left_terms)), contract(collapse_tensors(right_terms))


def draw_probes(rng: np.random.Generator, count: int) -> list:
    return [(rng.standard_normal(2) + 1j * rng.standard_normal(2),
             rng.standard_normal(2) + 1j * rng.standard_normal(2))
            for _ in range(count)]


def rel_close(got: complex, want: complex, tol: float = 1e-10) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def star_graph() -> CiliatedGraph:
    return CiliatedGraph(
        ["w", "u1", "u2", "u3"],
        {1: ("w", "u1"), 2: ("w", "u2"), 3: ("w", "u3")},
        {"w": [(1, 0), (2, 0), (3, 0)],
         "u1": [(1, 1)], "u2": [(2, 1)], "u3": [(3, 1)]},
    )


def triangle_chain(k: int) -> tuple[CiliatedGraph, list]:
    """k + 1 triangles in a row, neighbours sharing the vertex x_i, and a
    loop that runs around the two end triangles and along both sides of the
    middle ones, crossing itself transversally at x_1, ..., x_k."""
    edges: dict = {}

    def edge(u, v):
        edges[len(edges) + 1] = (u, v)
        return len(edges)

    first = [edge("x1", "a0"), edge("a0", "b0"), edge("b0", "x1")]
    side_a = [edge(f"x{i}", f"x{i + 1}") for i in range(1, k)]
    last = [edge(f"x{k}", f"a{k}"), edge(f"a{k}", f"b{k}"), edge(f"b{k}", f"x{k}")]
    side_b = {i: (edge(f"x{i + 1}", f"m{i}"), edge(f"m{i}", f"x{i}"))
              for i in range(k - 1, 0, -1)}
    loop = [(e, 1) for e in first + side_a + last]
    loop += [(e, 1) for i in range(k - 1, 0, -1) for e in side_b[i]]
    vertices = sorted({v for uv in edges.values() for v in uv})
    cil: dict = {v: [] for v in vertices}
    for e, (u, v) in edges.items():
        cil[u].append((e, 0))
        cil[v].append((e, 1))
    for i in range(1, k + 1):
        # in from the left, out to the left, out to the right, in from the right
        cil[f"x{i}"] = [
            (first[2], 1) if i == 1 else (side_a[i - 2], 1),
            (first[0], 0) if i == 1 else (side_b[i - 1][0], 0),
            (last[0], 0) if i == k else (side_a[i - 1], 0),
            (last[2], 1) if i == k else (side_b[i][1], 1),
        ]
    return CiliatedGraph(vertices, edges, cil), loop


def passage_ends(loop) -> list[tuple[tuple, tuple]]:
    """(arrival end, departure end) at the vertex after each step."""
    out = []
    for (e, d), (e2, d2) in zip(loop, loop[1:] + loop[:1]):
        out.append(((e, 1) if d == 1 else (e, 0), (e2, 0) if d2 == 1 else (e2, 1)))
    return out


def resolutions(graph, link: QLink, vertex) -> tuple[QLink, QLink]:
    """The orientation-reversing (one loop) and orientation-preserving (two
    loops) smoothings of a one-loop q-link at a crossing vertex.  The other
    crossings keep their over strands; their signs are re-read in the new
    traversal order."""
    loop = link.loops[0]
    ends = passage_ends(loop)
    over = {}
    for v, sign in link.crossings:
        ps = [set(p) for p in ends if graph.end_vertex(p[0]) == v]
        over[v] = ps[0] if sign == "+" else ps[1]
    i1, i2 = [i for i, p in enumerate(ends) if graph.end_vertex(p[0]) == vertex]
    arc1, arc2 = loop[i1 + 1:i2 + 1], loop[i2 + 1:] + loop[:i1 + 1]
    out = []
    for loops in ([arc1 + [(e, -d) for e, d in reversed(arc2)]], [arc1, arc2]):
        signs = {}
        for lp in loops:
            for p in passage_ends(lp):
                v = graph.end_vertex(p[0])
                if v in over and v != vertex and v not in signs:
                    signs[v] = "+" if set(p) == over[v] else "-"
        out.append(QLink(loops, list(signs.items())))
    return out[0], out[1]


class TestWordAlgebra:
    def test_k_pair_cancellation(self):
        assert UqWord.from_word(("K", "Ki")) == W_ONE
        assert UqWord.from_word(("E", "Ki", "K", "F")) == UqWord.from_word(("E", "F"))
        assert W_K * W_KI == W_ONE

    def test_charmed_element(self):
        assert W_CHARM == UqWord.from_word(("K", "K"))
        for t in GENERIC_T:
            m = charmed_k_matrix(t)
            assert np.allclose(m, np.diag([t ** 2, t ** -2]))
            assert abs(uq_trace(W_CHARM, t) - (t ** 2 + t ** -2)) < 1e-12

    def test_fundamental_is_an_algebra_map(self):
        rng = random.Random(61)
        t = GENERIC_T[0]
        for _ in range(20):
            v, w = random_word(rng), random_word(rng)
            assert np.allclose(
                uq_fundamental(v * w, t),
                uq_fundamental(v, t) @ uq_fundamental(w, t),
                atol=1e-10,
            )

    def test_diff_norm_and_scalars(self):
        w = 2 * W_E - W_E
        assert w.diff_norm(W_E) < 1e-15
        assert (W_E - W_E).diff_norm(UqWord.zero()) < 1e-15


class TestHopfStructure:
    def test_antipode_on_generators(self):
        assert uq_antipode(W_K) == W_KI
        assert uq_antipode(W_KI) == W_K
        assert uq_antipode(W_E) == UqWord.from_word(("K", "E", "Ki"), -1)
        assert uq_antipode(W_F) == UqWord.from_word(("K", "F", "Ki"), -1)

    def test_antipode_is_an_antihomomorphism(self):
        rng = random.Random(62)
        for _ in range(20):
            v, w = random_word(rng), random_word(rng)
            assert uq_antipode(v * w).diff_norm(
                uq_antipode(w) * uq_antipode(v)) < 1e-12

    def test_antipode_squared_is_charmed_conjugation(self):
        rng = random.Random(63)
        kinv = UqWord.from_word(("Ki", "Ki"))
        for _ in range(20):
            w = random_word(rng)
            assert uq_antipode(uq_antipode(w)).diff_norm(
                W_CHARM * w * kinv) < 1e-12

    def test_trace_is_antipode_invariant(self):
        rng = random.Random(64)
        for t in GENERIC_T:
            for _ in range(10):
                w = random_word(rng)
                assert abs(uq_trace(uq_antipode(w), t) - uq_trace(w, t)) < 1e-10

    def test_coproduct_on_generators(self):
        assert tensor_close(
            tensor_table(uq_coproduct(W_K)), {(("K",), ("K",)): 1})
        assert tensor_close(
            tensor_table(uq_coproduct(W_E)),
            {(("E",), ("K",)): 1, (("Ki",), ("E",)): 1})
        assert tensor_close(
            tensor_table(uq_coproduct(W_F)),
            {(("F",), ("K",)): 1, (("Ki",), ("F",)): 1})

    def test_coproduct_is_multiplicative(self):
        rng = random.Random(65)
        for _ in range(15):
            v, w = random_word(rng), random_word(rng)
            direct = tensor_table(uq_coproduct(v * w))
            paired = []
            for lv, rv in uq_coproduct(v):
                for lw, rw in uq_coproduct(w):
                    paired.append((lv * lw, rv * rw))
            assert tensor_close(direct, tensor_table(paired))

    def test_counit_axiom(self):
        rng = random.Random(66)
        for _ in range(15):
            w = random_word(rng)
            recovered = UqWord.zero()
            for left, right in uq_coproduct(w):
                recovered = recovered + uq_counit(left) * right
            assert recovered.diff_norm(w) < 1e-12

    def test_antipode_axiom(self):
        rng = random.Random(67)
        for _ in range(15):
            w = random_word(rng)
            left_sum = UqWord.zero()
            right_sum = UqWord.zero()
            for left, right in uq_coproduct(w):
                left_sum = left_sum + uq_antipode(left) * right
                right_sum = right_sum + left * uq_antipode(right)
            unit_part = uq_counit(w) * W_ONE
            assert left_sum.diff_norm(unit_part) < 1e-12
            assert right_sum.diff_norm(unit_part) < 1e-12

    def test_iterated_coproduct_letter_structure(self):
        got = {words: coeff for coeff, words in uq_coproduct_n(W_E, 3)
               if abs(coeff) > 1e-12}
        assert got == {
            (("E",), ("K",), ("K",)): 1,
            (("Ki",), ("E",), ("K",)): 1,
            (("Ki",), ("Ki",), ("E",)): 1,
        }

    def test_iterated_coproduct_matches_nesting(self):
        rng = random.Random(68)
        for _ in range(10):
            w = random_word(rng, max_len=3)
            triple: dict = {}
            for left, right in uq_coproduct(w):
                for ll, lr in uq_coproduct(left):
                    for wl, cl in ll.items():
                        for wm, cm in lr.items():
                            for wr, cr in right.items():
                                key = (wl, wm, wr)
                                triple[key] = triple.get(key, 0) + cl * cm * cr
            direct: dict = {}
            for coeff, words in uq_coproduct_n(w, 3):
                direct[words] = direct.get(words, 0) + coeff
            keys = set(triple) | set(direct)
            assert all(abs(triple.get(k, 0) - direct.get(k, 0)) < 1e-10
                       for k in keys)


class TestRMatrix:
    def test_matrix_form_at_generic_t(self):
        for t in GENERIC_T:
            want = np.array([
                [t, 0, 0, 0],
                [0, 1 / t, t - t ** -3, 0],
                [0, 0, 1 / t, 0],
                [0, 0, 0, t],
            ])
            assert np.allclose(r_matrix(t), want, atol=1e-10)

    def test_matrix_unit_legs_sum_to_r_matrix(self):
        for t in GENERIC_T:
            alphas, betas = _r_matrix_legs(t)
            got = sum(np.kron(a, b) for a, b in zip(alphas, betas))
            assert np.allclose(got, r_matrix(t), atol=1e-12)

    def test_yang_baxter(self):
        rng = np.random.default_rng(69)
        for _ in range(8):
            t = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            assert yang_baxter_residual(t) < 1e-10

    def test_degenerate_t_values(self):
        # At t^4 = 1 the generic coefficients blow up; the scalar and
        # charmed substitutes still satisfy the braid relation.
        for t in (1, -1, 1j, -1j):
            assert yang_baxter_residual(t) < 1e-12
        assert len(r_matrix_terms(1)) == 1
        assert len(r_matrix_terms(1j)) == 1

    def test_trace_splitting_identity(self):
        # Contracting the R-state sum against arbitrary matrices splits a
        # transverse crossing into the two smoothings: the parallel one
        # weighted t, the charmed-adjugate one weighted 1/t.
        rng = np.random.default_rng(70)
        for t in GENERIC_T:
            terms = [(uq_fundamental(a, t), uq_fundamental(b, t))
                     for a, b in r_matrix_terms(t)]
            for _ in range(5):
                zm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                wm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                got = sum(np.trace(am @ zm) * np.trace(bm @ wm)
                          for am, bm in terms)
                twisted = np.array([
                    [zm[1, 1], -t ** 2 * zm[0, 1]],
                    [-t ** -2 * zm[1, 0], zm[0, 0]],
                ])
                want = t * np.trace(zm @ wm) + (1 / t) * np.trace(twisted @ wm)
                assert abs(got - want) < 1e-10


class TestQLinkValidation:
    def test_bowtie_links_validate(self):
        g = bowtie_graph()
        for q in bowtie_qlinks():
            q.validate(g)

    def test_missing_crossing_sign_rejected(self):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        with pytest.raises(ValueError):
            QLink(d.loops, []).validate(g)

    def test_sign_at_smooth_vertex_rejected(self):
        g = bowtie_graph()
        _, da, _ = bowtie_qlinks()
        with pytest.raises(ValueError):
            QLink(da.loops, [("v3", "+")]).validate(g)

    def test_edge_reuse_rejected(self):
        g = triangle_graph()
        with pytest.raises(ValueError):
            QLink([[(1, 1), (1, -1)]]).validate(g)

    def test_bad_sign_string_rejected(self):
        with pytest.raises(ValueError):
            QLink([], [("v", "x")])


class TestWilsonObservable:
    def test_contractible_triangle_loop(self):
        g = triangle_graph()
        conn = {e: W_ONE for e in g.edges}
        loop = QLink([[(1, 1), (2, 1), (3, 1)]])
        for t in GENERIC_T:
            got = wilson_qlink(g, loop, conn, t)
            assert abs(got + (t ** 2 + t ** -2)) < 1e-12

    def test_bowtie_closed_forms(self):
        g = bowtie_graph()
        d, da, db = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        for t in GENERIC_T:
            assert abs(wilson_qlink(g, d, conn, t)
                       + (t ** 3 - t ** -1 + 2 * t ** -5)) < 1e-10
            assert abs(wilson_qlink(g, da, conn, t) + (t ** 2 + t ** -2)) < 1e-10
            assert abs(wilson_qlink(g, db, conn, t)
                       - 2 * (t ** 4 + t ** -4)) < 1e-10

    def test_closed_forms_near_t_fourth_one(self):
        # Next to t^4 = 1 the word legs' coefficients grow like 1/(t^4 - 1);
        # the matrix-unit legs keep W(d) and the residual at rounding level.
        g = bowtie_graph()
        d, da, db = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        for t in (1 + 1e-8, 1 - 1e-9, 1j * (1 + 1e-8)):
            want = -(t ** 3 - t ** -1 + 2 * t ** -5)
            assert abs(wilson_qlink(g, d, conn, t) - want) <= 1e-13 * abs(want), t
            assert abs(skein_residual(g, d, da, db, conn, t)) <= 1e-13, t

    def test_crossing_skein_relation_trivial_connection(self):
        g = bowtie_graph()
        d, da, db = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        for t in GENERIC_T:
            assert abs(skein_residual(g, d, da, db, conn, t)) < 1e-10

    def test_crossing_skein_relation_flat_connection(self):
        g = bowtie_graph()
        d, da, db = bowtie_qlinks()
        rng = np.random.default_rng(71)
        gauge = {v: random_sl2(rng) for v in g.vertices}
        conn = classical_to_quantum(gauge_act(g, gauge, trivial_connection(g)))
        for t in GENERIC_T[:2]:
            assert abs(skein_residual(g, d, da, db, conn, t)) < 1e-8

    def test_base_point_rotation_with_sign_bookkeeping(self):
        # Rotating the starting point is invisible until the rotation swaps
        # which passage through the double point comes first; then the
        # stored sign refers to the other strand and must flip.
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        t = GENERIC_T[0]
        base = wilson_qlink(g, d, conn, t)
        loop = d.loops[0]
        for k in (1, 2):
            rot = QLink([loop[k:] + loop[:k]], [("v3", "+")])
            assert abs(wilson_qlink(g, rot, conn, t) - base) < 1e-12
        for k in (3, 4, 5):
            rot = QLink([loop[k:] + loop[:k]], [("v3", "-")])
            assert abs(wilson_qlink(g, rot, conn, t) - base) < 1e-12

    def test_orientation_reversal_invariance(self):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        rev = QLink([[(e, -s) for e, s in reversed(d.loops[0])]], d.crossings)
        for t in GENERIC_T[:2]:
            assert abs(wilson_qlink(g, rev, conn, t)
                       - wilson_qlink(g, d, conn, t)) < 1e-10

    def test_unused_edges_contribute_counits(self):
        # The right triangle of the bowtie crosses no cilium, so its bare
        # value is -2; the scaled unit on unused edge 5 enters through the
        # counit factor.
        g = bowtie_graph()
        _, _, db = bowtie_qlinks()
        right_only = QLink([db.loops[0]])
        conn = {e: W_ONE for e in g.edges}
        conn[5] = 3 * W_ONE
        t = GENERIC_T[0]
        got = wilson_qlink(g, right_only, conn, t)
        assert abs(got - 3 * (-2)) < 1e-10


class TestStructuralWords:
    def test_bowtie_decoration_sequence(self):
        # The decorated product around the self-crossing loop must read, per
        # R-state (alpha, beta): beta x1 x2 (x3 S(alpha)) (x4 k)
        # (S(x5 k) k) (x6 k), with k charms inserted at the three cilial
        # backtrack transitions and S(. k) on the one edge run backwards.
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        rng = np.random.default_rng(72)
        x = classical_to_quantum({e: random_sl2(rng) for e in g.edges})
        t = GENERIC_T[0]
        k = W_CHARM
        got = decorated_words(g, d, x, t)
        assert len(got) == len(r_matrix_terms(t))
        for (alpha, beta), prods in zip(r_matrix_terms(t), got):
            expected = (beta * x[1] * x[2] * (x[3] * uq_antipode(alpha))
                        * (x[4] * k) * (uq_antipode(x[5] * k) * k)
                        * (x[6] * k))
            assert prods[0].diff_norm(expected) < 1e-9


class TestClassicalQuantumBridge:
    def test_encoding_reproduces_the_matrix_at_every_t(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            m = random_sl2(rng)
            enc = classical_to_quantum({1: m})[1]
            for t in GENERIC_T:
                assert np.allclose(uq_fundamental(enc, t), m, atol=1e-12)

    def test_antipode_of_encoding_is_the_inverse_at_t_one(self):
        rng = np.random.default_rng(74)
        m = random_sl2(rng)
        enc = classical_to_quantum({1: m})[1]
        assert np.allclose(uq_fundamental(uq_antipode(enc), 1),
                           sl2_inverse(m), atol=1e-10)

    def test_wilson_at_t_one_is_classical(self):
        g = bowtie_graph()
        rng = np.random.default_rng(75)
        gauge = {v: random_sl2(rng) for v in g.vertices}
        conn = gauge_act(g, gauge, trivial_connection(g))
        qconn = classical_to_quantum(conn)
        _, da, db = bowtie_qlinks()
        got = wilson_qlink(g, da, qconn, 1)
        want = wilson_loop(g, conn, da.loops[0])
        assert abs(got - want) < 1e-10
        got2 = wilson_qlink(g, db, qconn, 1)
        want2 = wilson_loop(g, conn, db.loops[0]) * wilson_loop(g, conn, db.loops[1])
        assert abs(got2 - want2) < 1e-10


class TestGaugeSymmetry:
    def test_counit_invariance_of_wilson(self):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        t = GENERIC_T[0]
        base = wilson_qlink(g, d, conn, t)
        for y in (W_K, W_E, W_F, W_E * W_F):
            total = sum(wilson_qlink(g, d, c2, t)
                        for c2 in gauge_act_q(g, y, "v3", conn))
            assert abs(total - uq_counit(y) * base) < 1e-8

    def test_gauge_action_at_valence_one_vertex(self):
        g = star_graph()
        conn = {e: W_ONE for e in g.edges}
        acted = gauge_act_q(g, W_K, "u1", conn)
        assert len(acted) == 1
        # The u1 end is the target of edge 1, so K acts by S(K) on the right.
        assert acted[0][1].diff_norm(W_KI) < 1e-12


class TestVertexSplitting:
    def test_tangle_permutations(self):
        g2 = triangle_graph()
        tg = fundamental_tangle(g2, "v1")
        assert tg.n == 2
        assert tg.permutation == (1, 3, 2, 4)
        assert len(tg.crossings) == 1
        assert tg.crossings[0][1] % 2 == 0     # the over strand is a second copy

        g3 = star_graph()
        tg3 = fundamental_tangle(g3, "w")
        assert tg3.permutation == (1, 4, 2, 5, 3, 6)
        assert len(tg3.crossings) == 3

        tg1 = fundamental_tangle(g3, "u1")
        assert tg1.n == 1
        assert tg1.permutation == (1, 2)
        assert tg1.crossings == ()

    def test_split_output_arity(self):
        g = triangle_graph()
        out = nabla_vertex(g, "v1", [W_K, W_E], GENERIC_T[0])
        assert all(len(factors) == 4 for factors in out)

    def test_coassociativity_valence_two(self):
        g = triangle_graph()
        rng = np.random.default_rng(76)
        for t in GENERIC_T[:2]:
            for inputs in ([W_K, W_E], [W_E, W_F], [W_F, W_KI]):
                res = nabla_coassociativity_residual(g, "v1", inputs, t, rng)
                assert res < 1e-8, (inputs, t, res)

    def test_coassociativity_valence_three(self):
        g = star_graph()
        rng = np.random.default_rng(77)
        res = nabla_coassociativity_residual(g, "w", [W_K, W_E, W_F],
                                             GENERIC_T[0], rng)
        assert res < 1e-8

    def test_input_arity_checked(self):
        g = triangle_graph()
        with pytest.raises(ValueError):
            nabla_vertex(g, "v1", [W_K], GENERIC_T[0])


class TestRepresentationAgainstWords:
    """The fundamental-representation evaluators against the symbolic word
    expansion they replace."""

    def test_fundamental_matches_letter_matrix_products(self):
        rng = random.Random(85)
        for t in GENERIC_T + (1,):
            for _ in range(20):
                w = random_word(rng, max_len=6) + random_word(rng) + random_word(rng)
                want = sum(c * word_matrix(word, t) for word, c in w.items())
                assert np.allclose(uq_fundamental(w, t), want, atol=1e-12)

    def test_antipode_matrix_is_the_word_antipode(self):
        rng = random.Random(78)
        for t in GENERIC_T + (1,):
            for _ in range(20):
                w = random_word(rng) + random_word(rng) + random_word(rng)
                assert np.allclose(_antipode_matrix(uq_fundamental(w, t), t),
                                   uq_fundamental(uq_antipode(w), t), atol=1e-10)

    def test_wilson_matches_decorated_word_traces(self):
        g = bowtie_graph()
        links = bowtie_qlinks()
        rng = np.random.default_rng(79)
        for t in GENERIC_T[:2] + (1,):
            conn = classical_to_quantum({e: random_sl2(rng) for e in g.edges})
            for link in links:
                assert rel_close(wilson_qlink(g, link, conn, t),
                                 symbolic_wilson(g, link, conn, t))

    def test_wilson_matches_on_gauge_transformed_connections(self):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        rng = np.random.default_rng(80)
        base = classical_to_quantum({e: random_sl2(rng) for e in g.edges})
        for y in (W_K, W_E, W_F):
            for c2 in gauge_act_q(g, y, "v3", base):
                for t in (GENERIC_T[0], 1):
                    assert rel_close(wilson_qlink(g, d, c2, t),
                                     symbolic_wilson(g, d, c2, t))

    def test_coassociativity_iterates_valence_two(self):
        g = triangle_graph()
        rng = np.random.default_rng(81)
        for t in GENERIC_T[:2]:
            for pair in itertools.product(("E", "F", "K", "Ki"), repeat=2):
                inputs = [UqWord.letter(ch) for ch in pair]
                probes = draw_probes(rng, 6)
                got = _iterate_probes(g, "v1", inputs, t, probes)
                want = symbolic_iterate_probes(g, "v1", inputs, t, probes)
                assert all(rel_close(a, b) for a, b in zip(got, want)), (pair, t)

    def test_coassociativity_iterates_valence_three(self):
        g = star_graph()
        rng = np.random.default_rng(82)
        for letters in (("K", "Ki", "K"), ("Ki", "Ki", "K")):
            inputs = [UqWord.letter(ch) for ch in letters]
            probes = draw_probes(rng, 9)
            got = _iterate_probes(g, "w", inputs, GENERIC_T[0], probes)
            want = symbolic_iterate_probes(g, "w", inputs, GENERIC_T[0], probes)
            assert all(rel_close(a, b) for a, b in zip(got, want)), letters

    def test_coassociativity_near_t_fourth_one(self):
        # The generic R-matrix coefficients grow like 1/(t^4 - 1) here; the
        # symbolic expansion lost digits up to 8.6e-8 at these probe seeds.
        g = star_graph()
        t = 0.978 - 0.023j
        for seed in range(5):
            res = nabla_coassociativity_residual(g, "w", [W_K, W_KI, W_K], t,
                                                 np.random.default_rng(seed))
            assert res < 1e-8, (seed, res)


class TestMultiCrossingLinks:
    def test_wilson_matches_decorated_word_traces(self):
        rng = random.Random(83)
        for k in (2, 3):
            g, loop = triangle_chain(k)
            conn = {e: random_word(rng, max_len=2) for e in g.edges}
            for signs in itertools.product("+-", repeat=k):
                link = QLink([loop], [(f"x{i + 1}", s) for i, s in enumerate(signs)])
                assert rel_close(wilson_qlink(g, link, conn, GENERIC_T[0]),
                                 symbolic_wilson(g, link, conn, GENERIC_T[0])), signs

    def test_skein_relation_at_every_crossing(self):
        # With the first passage under ('-'), the roles of the two
        # smoothings in W(d) + t W(d_a) + t^-1 W(d_b) = 0 swap.
        g, loop = triangle_chain(3)
        rng = np.random.default_rng(84)
        gauge = {v: random_sl2(rng) for v in g.vertices}
        flat = classical_to_quantum(gauge_act(g, gauge, trivial_connection(g)))
        unit = {e: W_ONE for e in g.edges}
        for signs in ("+++", "+-+", "--+"):
            d = QLink([loop], [(f"x{i + 1}", s) for i, s in enumerate(signs)])
            for vertex, sign in d.crossings:
                d_a, d_b = resolutions(g, d, vertex)
                if sign == "-":
                    d_a, d_b = d_b, d_a
                for conn in (unit, flat):
                    for t in GENERIC_T[:2]:
                        assert abs(skein_residual(g, d, d_a, d_b, conn, t)) < 1e-8
