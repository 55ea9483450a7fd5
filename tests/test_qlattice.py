"""Quantum connections: the word Hopf algebra, R-states, Wilson observables."""

import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from skeinlab import qlattice
from skeinlab.characters import random_sl2
from skeinlab.lattice import (
    CiliatedGraph,
    bouquet,
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
    _decorations,
    _iterate_probes,
    _r_matrix_legs,
    bowtie_qlinks,
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


def fundamental(w: UqWord, t) -> np.ndarray:
    """uq_fundamental's entry tuple as a numpy 2x2 array, for matrix oracles."""
    return np.reshape(uq_fundamental(w, t), (2, 2))


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


def _antipode_matrix(m: np.ndarray, t: complex) -> np.ndarray:
    """rho(S(x)) from m = rho(x), on the last two axes of a stack of matrices.

    rho(S(x)) = M rho(x)^T M^-1 with M = [[0, -t^2], [1, 0]], that is
    [[a, b], [c, d]] -> [[d, -t^2 b], [-c / t^2, a]]; it agrees with the
    antipode's letter images on K, Ki, E and F and reverses products.
    """
    t2 = complex(t) ** 2
    out = np.empty(np.shape(m), dtype=complex)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -t2 * m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0] / t2
    out[..., 1, 1] = m[..., 0, 0]
    return out


def broadcast_wilson(graph, qlink, conn, t) -> complex:
    """Reference for wilson_qlink that enumerates every R-state: crossing x's
    matrix-unit legs are stacked along axis x of the decorated edge matrices,
    so one broadcast product per loop covers all 5^c R-states."""
    words = _decorations(graph, qlink)
    unit = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)     # unit[i, j] = E_ij
    legs = _r_matrix_legs(t)
    stacks = {"alpha": np.array([c * unit[i, j] for i, j, _, _, c in legs]),
              "beta": np.array([unit[i, j] for _, _, i, j, _ in legs])}

    def factor(w, n):
        if type(w) is tuple:
            x, _, leg = w
            shape = [1] * len(qlink.crossings) + [2, 2]
            shape[x] = len(legs)
            m = stacks[leg].reshape(shape)
        else:
            m = fundamental(W_CHARM if w == "k" else conn[w], t)
        for _ in range(n):
            m = _antipode_matrix(m, t)
        return m

    dec = {e: functools.reduce(np.matmul, [factor(w, n) for w, n in items])
           for e, items in words.items()}
    states = 1
    for loop in qlink.loops:
        prod = functools.reduce(np.matmul, [dec[e] for e, _ in loop])
        states = states * np.trace(prod, axis1=-2, axis2=-1)
    total = complex(np.sum(states))
    for e in set(graph.edges) - set(qlink.used_edges()):
        total *= uq_counit(conn[e])
    return (-1) ** len(qlink.loops) * total


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


def numpy_split_matrix(w: UqWord, n: int, t) -> np.ndarray:
    """rho^(x n) of the iterated coproduct D^(n-1)(w), a 2^n x 2^n matrix."""
    return sum((c * functools.reduce(np.kron, [fundamental(UqWord.from_word(x), t)
                                               for x in words])
                for c, words in uq_coproduct_n(w, n)),
               np.zeros((2 ** n, 2 ** n), dtype=complex))


def numpy_apply(psi: np.ndarray, op: np.ndarray, axes) -> np.ndarray:
    """Act with a 2^k x 2^k operator on k axes of a state in (C^2)^(x m)."""
    k = len(axes)
    psi = np.tensordot(op.reshape((2,) * (2 * k)), psi, axes=(range(k, 2 * k), axes))
    return np.moveaxis(psi, range(k), axes)


def numpy_iterate_probes(graph, vertex, inputs, t, probes):
    """Reference for _iterate_probes with numpy arrays: the product state of
    the v_s in (C^2)^(x 3n), acted on by Kronecker-product operators along
    tensor axes, then contracted with the u_s."""
    tangle = fundamental_tangle(graph, vertex)
    n, perm = tangle.n, tangle.permutation
    rterms = r_matrix_terms(t)
    values = []
    for base in (0, n):
        def slots(strand):
            pos = perm[strand - 1]
            if base < pos <= base + n:
                j = pos - base
                return (base + perm[2 * j - 2] - 1, base + perm[2 * j - 1] - 1)
            return (pos - 1 + n - base,)

        psi = np.array(1, dtype=complex)
        for _, v in probes:
            psi = np.multiply.outer(psi, v)
        for i, w in enumerate(inputs, start=1):
            axes = slots(2 * i - 1) + slots(2 * i)
            psi = numpy_apply(psi, numpy_split_matrix(w, len(axes), t), axes)
        outer = [(slots(over), slots(under)) for _, over, under in tangle.crossings]
        inner = [((base + perm[over - 1] - 1,), (base + perm[under - 1] - 1,))
                 for _, over, under in tangle.crossings]
        for ao, au in outer + inner:
            r = sum(np.kron(numpy_split_matrix(a, len(ao), t), numpy_split_matrix(b, len(au), t))
                    for a, b in rterms)
            psi = numpy_apply(psi, r, ao + au)
        for u, _ in probes:
            psi = np.tensordot(u, psi, axes=(0, 0))
        values.append(complex(psi))
    return values[0], values[1]


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


def flipped_bowtie(flips) -> CiliatedGraph:
    """The bowtie graph with each edge in `flips` reversed: its two vertices
    and its two ends in the ciliation swap, and its face steps are negated."""
    g = bowtie_graph()
    edges = {e: (v, u) if e in flips else (u, v) for e, (u, v) in g.edges.items()}
    cil = {v: [(e, 1 - end if e in flips else end) for e, end in ends]
           for v, ends in g.ciliation.items()}
    faces = [[(e, -d if e in flips else d) for e, d in face] for face in g.faces]
    return CiliatedGraph(g.vertices, edges, cil, faces)


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
            m = uq_fundamental(W_CHARM, t)
            assert np.allclose(m, [t ** 2, 0, 0, t ** -2])
            assert abs(uq_trace(W_CHARM, t) - (t ** 2 + t ** -2)) < 1e-12

    def test_fundamental_is_an_algebra_map(self):
        rng = random.Random(61)
        t = GENERIC_T[0]
        for _ in range(20):
            v, w = random_word(rng), random_word(rng)
            assert np.allclose(
                fundamental(v * w, t),
                fundamental(v, t) @ fundamental(w, t),
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
        def closed_form(t):
            return np.array([
                [t, 0, 0, 0],
                [0, 1 / t, t - t ** -3, 0],
                [0, 0, 1 / t, 0],
                [0, 0, 0, t],
            ])

        for t in GENERIC_T:
            assert np.allclose(r_matrix(t), closed_form(t), atol=1e-10)
        # near t^4 = 1, where the word legs carry coefficients ~1/(t^4 - 1)
        for t in (1 + 1e-8, 1j * (1 + 1e-8)):
            assert np.abs(r_matrix(t) - closed_form(t)).max() < 1e-13

    def test_matrix_unit_legs_sum_to_r_matrix(self):
        # the matrix legs (Wilson values) against the word legs (coassociativity)
        for t in GENERIC_T:
            unit = np.eye(4).reshape(2, 2, 2, 2)       # unit[i, j] = E_ij
            got = sum(c * np.kron(unit[i, j], unit[k, l])
                      for i, j, k, l, c in _r_matrix_legs(t))
            want = sum(np.kron(fundamental(a, t), fundamental(b, t))
                       for a, b in r_matrix_terms(t))
            assert np.allclose(got, want, atol=1e-12)

    def test_yang_baxter(self):
        rng = np.random.default_rng(69)
        for _ in range(8):
            t = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            assert yang_baxter_residual(t) < 1e-10

    @pytest.mark.parametrize("t", [0, float("nan"), float("inf"), complex(0, -float("inf")),
                                   1e300, 1e-300, -1e-300j])
    def test_unusable_t_is_refused(self, t):
        # t = 0, a t that is not finite, and a t whose t^4 or t^-4 is not
        # finite are refused by every public function that evaluates at t
        g = bowtie_graph()
        d, d_a, d_b = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        message = "^t must be nonzero$" if t == 0 else "t\\^4 and t\\^-4 must be finite$"
        for call in (lambda: uq_fundamental(W_K, t), lambda: uq_trace(W_K, t),
                     lambda: r_matrix_terms(t), lambda: r_matrix(t),
                     lambda: wilson_qlink(g, d, conn, t),
                     lambda: skein_residual(g, d, d_a, d_b, conn, t)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_extreme_usable_t(self):
        for t in (1e70, 1e-70, -1e-70j):
            assert np.isfinite(r_matrix(t)).all()
            assert np.isfinite(uq_fundamental(W_K * W_K, t)).all()

    def test_yang_baxter_against_numpy(self):
        # the sparse matrix-unit products against 8x8 numpy matrices
        swap23 = np.kron(np.eye(2), np.eye(4)[[0, 2, 1, 3]])
        for t in GENERIC_T + (1, 1j, 1 + 1e-8):
            r = np.array(r_matrix(t), dtype=complex)
            r12, r23 = np.kron(r, np.eye(2)), np.kron(np.eye(2), r)
            r13 = swap23 @ r12 @ swap23
            want = np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12).max()
            assert abs(yang_baxter_residual(t) - want) < 1e-14

    def test_yang_baxter_sees_a_wrong_leg(self, monkeypatch):
        legs = qlattice._r_matrix_legs

        def wrong(t):
            return [(i, j, k, l, c * 2 if (i, j) == (0, 1) else c)
                    for i, j, k, l, c in legs(t)]

        monkeypatch.setattr(qlattice, "_r_matrix_legs", wrong)
        assert yang_baxter_residual(GENERIC_T[0]) > 1

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
            terms = [(fundamental(a, t), fundamental(b, t))
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

    _D_LOOP = [(1, 1), (2, 1), (3, 1), (4, 1), (5, -1), (6, 1)]
    _DA_LOOP = [(1, 1), (2, 1), (3, 1), (6, -1), (5, 1), (4, -1)]

    @pytest.mark.parametrize("graph, loops, crossings, message", [
        (triangle_graph, [[(1, 1), (1, -1)]], [],
         "an edge is traversed more than once"),
        (lambda: bouquet(3), [[(1, 1), (2, 1), (3, 1)]], [],
         "a vertex is visited more than twice"),
        (bowtie_graph, [_D_LOOP], [("v3", "+"), ("v3", "-")],
         "duplicate crossing vertex"),
        (bowtie_graph, [_D_LOOP], [],
         "crossing signs must be given exactly at transverse double points; "
         "expected ['v3'], got []"),
        (bowtie_graph, [_DA_LOOP], [("v3", "+")],
         "crossing signs must be given exactly at transverse double points; "
         "expected [], got ['v3']"),
        (bowtie_graph, [[(1, 1), (2, 1)]], [], "path is not closed"),
        (bowtie_graph, [[(1, 1), (3, 1)]], [], "path breaks at edge 3: 'v1' != 'v2'"),
        (bowtie_graph, [[(9, 1)]], [], "bad step (9, 1)"),
    ], ids=["edge_twice", "vertex_thrice", "duplicate_crossing", "missing_sign",
            "sign_at_smooth_vertex", "open_path", "broken_path", "unknown_edge"])
    def test_error_messages(self, graph, loops, crossings, message):
        g = graph()
        q = QLink(loops, crossings)
        with pytest.raises(ValueError) as info:
            q.validate(g)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            wilson_qlink(g, q, {e: W_ONE for e in g.edges}, 1.1)
        assert str(info.value) == message


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

    def test_crossing_budget(self, monkeypatch):
        # The chain's two crossings keep two segments open between them; a
        # single crossing closes all of its segments itself.
        g, loop = triangle_chain(2)
        chain = QLink([loop], [("x1", "+"), ("x2", "-")])
        monkeypatch.setattr(qlattice, "MAX_QLINK_WIDTH", 0)
        with pytest.raises(ValueError, match="^q-link contraction width 2 exceeds the budget of 0$"):
            wilson_qlink(g, chain, {e: W_ONE for e in g.edges}, GENERIC_T[0])
        g = bowtie_graph()
        d, da, _ = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        assert abs(wilson_qlink(g, da, conn, 1.0) + 2) < 1e-12
        t = GENERIC_T[0]
        assert abs(wilson_qlink(g, d, conn, t) + (t ** 3 - t ** -1 + 2 * t ** -5)) < 1e-10


@pytest.fixture
def analyses(monkeypatch):
    """The q-links `_decorations` analyses from now on.  Plans are keyed by
    the graph object, so a freshly built graph starts with none cached."""
    calls = []
    monkeypatch.setattr(qlattice, "_decorations",
                        lambda graph, qlink: calls.append(qlink) or _decorations(graph, qlink))
    return calls


class TestPlanReuse:
    """wilson_qlink plans each (graph, q-link content) once, then only evaluates."""

    def test_one_analysis_across_connections_and_t(self, analyses):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        rng = np.random.default_rng(90)
        words = random.Random(90)
        for i in range(50):
            t = GENERIC_T[i % len(GENERIC_T)] * (1 + i / 50)
            conn = (classical_to_quantum({e: random_sl2(rng) for e in g.edges}) if i % 2
                    else {e: random_word(words) for e in g.edges})
            assert rel_close(wilson_qlink(g, d, conn, t), broadcast_wilson(g, d, conn, t), 1e-12)
        assert len(analyses) == 1

    def test_one_analysis_across_a_counit_sum(self, analyses):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        t = GENERIC_T[0]
        base = wilson_qlink(g, d, conn, t)
        for y in (W_K, W_E, W_F):
            total = sum(wilson_qlink(g, d, c2, t) for c2 in gauge_act_q(g, y, "v3", conn))
            assert abs(total - uq_counit(y) * base) < 1e-8
        assert len(analyses) == 1

    def test_one_analysis_per_qlink_across_residuals(self, analyses):
        g = bowtie_graph()
        d, da, db = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        for t in GENERIC_T * 3:
            assert abs(skein_residual(g, d, da, db, conn, t)) < 1e-10
        assert [q.loops for q in analyses] == [d.loops, da.loops, db.loops]

    def test_equal_content_shares_a_plan(self, analyses):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        conn = {e: W_ONE for e in g.edges}
        t = GENERIC_T[1]
        first = wilson_qlink(g, d, conn, t)
        hits = qlattice._plan.cache_info().hits
        twin = QLink([list(loop) for loop in d.loops], list(d.crossings))
        twin.validate(g)
        assert wilson_qlink(g, twin, conn, t) == first
        assert len(analyses) == 1
        assert qlattice._plan.cache_info().hits == hits + 2

    def test_edited_qlink_is_planned_again(self, analyses):
        g = bowtie_graph()
        _, da, db = bowtie_qlinks()
        conn = {e: W_ONE + random_word(random.Random(91)) for e in g.edges}
        t = GENERIC_T[2]
        link = QLink(da.loops)
        assert rel_close(wilson_qlink(g, link, conn, t), broadcast_wilson(g, da, conn, t))
        link.loops[:] = [list(loop) for loop in db.loops]
        want = broadcast_wilson(g, db, conn, t)
        assert not rel_close(want, broadcast_wilson(g, da, conn, t))
        assert rel_close(wilson_qlink(g, link, conn, t), want, 1e-12)
        assert len(analyses) == 2


class TestPlanBudgets:
    def test_memo_holds_at_most_the_plan_budget(self):
        loop = QLink([[(1, 1), (2, 1), (3, 1)]])
        for _ in range(qlattice.MAX_QLINK_PLANS + 5):
            g = triangle_graph()
            assert abs(wilson_qlink(g, loop, {e: W_ONE for e in g.edges}, 1.0) + 2) < 1e-12
        info = qlattice._plan.cache_info()
        assert info.maxsize == qlattice.MAX_QLINK_PLANS
        assert info.currsize == qlattice.MAX_QLINK_PLANS

    @pytest.mark.parametrize("crossings", [[], [("v1", "+")]], ids=["missing", "misplaced"])
    def test_refused_qlink_is_never_cached(self, analyses, crossings):
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        bad = QLink(d.loops, crossings)
        size = qlattice._plan.cache_info().currsize
        for t in GENERIC_T:
            with pytest.raises(ValueError, match="^crossing signs must be given exactly"):
                wilson_qlink(g, bad, {e: W_ONE for e in g.edges}, t)
        assert len(analyses) == len(GENERIC_T)
        assert qlattice._plan.cache_info().currsize == size

    def test_lowered_width_budget_refuses_a_cached_plan(self, analyses, monkeypatch):
        g, loop = triangle_chain(2)
        chain = QLink([loop], [("x1", "+"), ("x2", "-")])
        conn = {e: W_ONE for e in g.edges}
        wilson_qlink(g, chain, conn, GENERIC_T[0])
        monkeypatch.setattr(qlattice, "MAX_QLINK_WIDTH", 0)
        for t in GENERIC_T:
            with pytest.raises(ValueError,
                               match="^q-link contraction width 2 exceeds the budget of 0$"):
                wilson_qlink(g, chain, conn, t)
        assert len(analyses) == 1


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

    def test_decoration_items_by_hand(self):
        # Slot 0 sits at a crossing's cilially first end, where the over strand
        # takes alpha (beta at slot 1) and the under strand beta (S(alpha) at
        # slot 1).  A slot at an edge's target gains an antipode, an edge run
        # backwards reads S(. k), and a passage across a cilium appends k.
        g = bowtie_graph()
        d, _, _ = bowtie_qlinks()
        assert _decorations(g, d) == {
            1: [((0, 1, "beta"), 0), (1, 0)], 2: [(2, 0)], 3: [(3, 0), ((0, 0, "alpha"), 1)],
            4: [(4, 0), ("k", 0)], 5: [("k", 1), (5, 1), ("k", 0)], 6: [(6, 0), ("k", 0)]}
        assert _decorations(g, QLink(d.loops, [("v3", "-")])) == {
            1: [((0, 1, "alpha"), 1), (1, 0)], 2: [(2, 0)], 3: [(3, 0), ((0, 0, "beta"), 1)],
            4: [(4, 0), ("k", 0)], 5: [("k", 1), (5, 1), ("k", 0)], 6: [(6, 0), ("k", 0)]}
        # x1 is over (slot 0 at edge 3's target), x2 under (slot 0 at edge
        # 4's target); the second passages through x2 and x1 cross the cilium
        g, loop = triangle_chain(2)
        assert _decorations(g, QLink([loop], [("x1", "+"), ("x2", "-")])) == {
            1: [((0, 1, "beta"), 0), (1, 0)], 2: [(2, 0)], 3: [(3, 0), ((0, 0, "alpha"), 1)],
            4: [(4, 0), ((1, 0, "beta"), 1)], 5: [(5, 0)], 6: [(6, 0)], 7: [(7, 0), ("k", 0)],
            8: [((1, 1, "alpha"), 1), (8, 0)], 9: [(9, 0), ("k", 0)]}


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
        assert np.allclose(fundamental(uq_antipode(enc), 1),
                           np.linalg.inv(np.reshape(m, (2, 2))), atol=1e-10)

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


    def test_exact_entries_stay_exact(self):
        # the bowtie's flat integer connection T, S, (TS)^-1, U, T, (UT^-1)^-1
        conn = {1: [[1, 1], [0, 1]], 2: [[0, -1], [1, 0]], 3: [[0, 1], [-1, 1]],
                4: [[1, 0], [1, 1]], 5: [[1, 1], [0, 1]], 6: [[0, 1], [-1, 1]]}
        qconn = classical_to_quantum(conn)
        assert qconn[2] == UqWord({(): 0, ("E", "F"): 0, ("E",): -1, ("F",): 1})
        assert all(type(c) is int for w in qconn.values() for _, c in w.items())
        g = bowtie_graph()
        _, da, db = bowtie_qlinks()
        assert wilson_qlink(g, da, qconn, 1) == -2
        assert wilson_qlink(g, db, qconn, 1) == 4
        half = classical_to_quantum({1: (Fraction(1, 2), 3, Fraction(1, 3), 4)})[1]
        assert half == UqWord({(): 4, ("E", "F"): Fraction(-7, 2), ("E",): 3,
                               ("F",): Fraction(1, 3)})
        assert all(type(c) is Fraction for w, c in half.items() if w in (("E", "F"), ("F",)))

    def test_numpy_arrays_are_read(self):
        m = random_sl2(random.Random(76))
        assert classical_to_quantum({1: np.reshape(m, (2, 2))}) == classical_to_quantum({1: m})

    def test_a_missing_edge_is_named(self):
        g = bowtie_graph()
        d = bowtie_qlinks()[0]
        conn = {e: W_ONE for e in g.edges if e != 2}
        for call in (lambda: wilson_qlink(g, d, conn, 1.1),
                     lambda: decorated_words(g, d, conn, 1.1),
                     lambda: wilson_qlink(g, QLink([[(4, 1), (5, -1), (6, 1)]]), conn, 1.1)):
            with pytest.raises(KeyError, match="edge 2 missing from quantum connection"):
                call()


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

    @pytest.mark.parametrize("make_rng", [random.Random, np.random.default_rng],
                             ids=["random.Random", "numpy Generator"])
    def test_coassociativity_takes_either_generator(self, make_rng):
        g = star_graph()
        values = [nabla_coassociativity_residual(g, "w", [W_K, W_E, W_F], GENERIC_T[0],
                                                 make_rng(seed)) for seed in (93, 93, 94)]
        assert values[0] == values[1] and max(values) < 1e-8
        assert nabla_coassociativity_residual(
            g, "w", [W_K, W_E, W_F], GENERIC_T[0], 93) == (
            nabla_coassociativity_residual(g, "w", [W_K, W_E, W_F], GENERIC_T[0],
                                           random.Random(93)))

    def test_a_probe_over_the_width_budget_is_refused(self, monkeypatch):
        # valence 6 would need 2^18 state entries; the budget is 2^16.  The
        # probe must not start: calling it would raise TypeError instead.
        monkeypatch.setattr(qlattice, "_iterate_probes", None)
        g = CiliatedGraph(["w"] + [f"u{i}" for i in range(6)],
                          {i: ("w", f"u{i}") for i in range(6)},
                          {"w": [(i, 0) for i in range(6)],
                           **{f"u{i}": [(i, 1)] for i in range(6)}})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="2\\^18 entries exceeds the budget of 2\\^16"):
            nabla_coassociativity_residual(g, "w", [W_K] * 6, GENERIC_T[0], 1)
        assert time.perf_counter() - start < 0.5

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
                assert np.allclose(fundamental(w, t), want, atol=1e-12)

    def test_antipode_matrix_is_the_word_antipode(self):
        rng = random.Random(78)
        for t in GENERIC_T + (1,):
            for _ in range(20):
                w = random_word(rng) + random_word(rng) + random_word(rng)
                assert np.allclose(_antipode_matrix(fundamental(w, t), t),
                                   fundamental(uq_antipode(w), t), atol=1e-10)

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

    def test_iterates_match_numpy_on_letter_pairs(self):
        g = triangle_graph()
        rng = np.random.default_rng(83)
        for t in GENERIC_T[:2]:
            for pair in itertools.product(("E", "F", "K", "Ki"), repeat=2):
                inputs = [UqWord.letter(ch) for ch in pair]
                probes = draw_probes(rng, 6)
                got = _iterate_probes(g, "v1", inputs, t, probes)
                want = numpy_iterate_probes(g, "v1", inputs, t, probes)
                assert all(rel_close(a, b) for a, b in zip(got, want)), (pair, t)

    def test_iterates_match_numpy_on_letter_triples(self):
        # the symbolic oracle takes seconds per triple with E or F in it
        g = star_graph()
        rng = np.random.default_rng(84)
        for letters in itertools.product(("E", "F", "K", "Ki"), repeat=3):
            inputs = [UqWord.letter(ch) for ch in letters]
            probes = draw_probes(rng, 9)
            got = _iterate_probes(g, "w", inputs, GENERIC_T[0], probes)
            want = numpy_iterate_probes(g, "w", inputs, GENERIC_T[0], probes)
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


class TestOrientationFlips:
    """The bowtie's self-crossing loop under every choice of edge
    orientations, so that a slot holds S^n of an R-leg for n = 0 to 3."""

    def test_a_slot_holds_three_antipodes(self):
        g = flipped_bowtie({1})
        d = bowtie_qlinks()[0]
        loop = [(e, -s if e == 1 else s) for e, s in d.loops[0]]
        items = _decorations(g, QLink([loop], [("v3", "-")]))[1]
        assert ((0, 1, "alpha"), 3) in items

    def test_wilson_matches_decorated_word_traces(self):
        # random SL(2) matrices on edges 1, 4 and 5 only: each dense edge
        # multiplies the terms of the word expansion by four
        rng = np.random.default_rng(92)
        d = bowtie_qlinks()[0]
        antipodes = set()
        for r in range(7):
            for flips in itertools.combinations(range(1, 7), r):
                g = flipped_bowtie(flips)
                loop = [(e, -s if e in flips else s) for e, s in d.loops[0]]
                conns = [{e: W_ONE for e in g.edges}, classical_to_quantum(
                    {e: random_sl2(rng) if e in (1, 4, 5) else np.eye(2) for e in g.edges})]
                for lp in (loop, [(e, -s) for e, s in reversed(loop)]):
                    for sign in "+-":
                        link = QLink([lp], [("v3", sign)])
                        antipodes |= {n for items in _decorations(g, link).values()
                                      for w, n in items if type(w) is tuple}
                        for conn, t in itertools.product(conns, GENERIC_T[:2]):
                            assert rel_close(wilson_qlink(g, link, conn, t),
                                             symbolic_wilson(g, link, conn, t)), (flips, lp, sign)
        assert antipodes == {0, 1, 2, 3}


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


class TestContractionAgainstBroadcast:
    """wilson_qlink against the broadcast over all 5^c R-states."""

    def test_bowtie_links(self):
        g = bowtie_graph()
        rng = np.random.default_rng(86)
        words = random.Random(86)
        for t in GENERIC_T + (1, 1 + 1e-8):
            conns = [classical_to_quantum({e: random_sl2(rng) for e in g.edges}),
                     {e: random_word(words) for e in g.edges}]
            for conn in conns:
                for link in bowtie_qlinks():
                    assert rel_close(wilson_qlink(g, link, conn, t),
                                     broadcast_wilson(g, link, conn, t), 1e-12), (t, link.loops)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_triangle_chains(self, k):
        rng = random.Random(87 + k)
        g, loop = triangle_chain(k)
        if k <= 4:
            patterns = list(itertools.product("+-", repeat=k))
        else:
            patterns = [[rng.choice("+-") for _ in range(k)] for _ in range(3)]
        ts = GENERIC_T + (1, 1 + 1e-8)
        for n, signs in enumerate(patterns):
            # the unit keeps the weight-zero part, and so the value, nonzero
            conn = {e: W_ONE + random_word(rng) + random_word(rng) for e in g.edges}
            link = QLink([loop], [(f"x{i + 1}", s) for i, s in enumerate(signs)])
            t = ts[n % len(ts)]
            want = broadcast_wilson(g, link, conn, t)
            assert want != 0
            assert rel_close(wilson_qlink(g, link, conn, t), want, 1e-12), signs

    def test_two_loops_crossing_twice(self):
        # loop A runs 1 then 2, loop B 3 then 4, between u and v; the cilial
        # orders alternate A and B ends, so both vertices are crossings
        g = CiliatedGraph(
            ["u", "v"], {1: ("u", "v"), 2: ("v", "u"), 3: ("u", "v"), 4: ("v", "u")},
            {"u": [(2, 1), (4, 1), (1, 0), (3, 0)], "v": [(1, 1), (3, 1), (2, 0), (4, 0)]})
        rng = random.Random(89)
        for n, signs in enumerate(itertools.product("+-", repeat=2)):
            link = QLink([[(1, 1), (2, 1)], [(3, 1), (4, 1)]], list(zip("uv", signs)))
            conn = {e: W_ONE + random_word(rng) + random_word(rng) for e in g.edges}
            t = GENERIC_T[n]
            want = broadcast_wilson(g, link, conn, t)
            assert rel_close(symbolic_wilson(g, link, conn, t), want, 1e-10)
            assert rel_close(wilson_qlink(g, link, conn, t), want, 1e-12), signs

    def test_twelve_crossings(self):
        # The broadcast would stack 5^12 R-states, 15.6 GB; the contraction
        # keeps two segments open along the chain.
        g, loop = triangle_chain(12)
        rng = np.random.default_rng(88)
        gauge = {v: random_sl2(rng) for v in g.vertices}
        classical = gauge_act(g, gauge, trivial_connection(g))
        flat = classical_to_quantum(classical)
        # unlike "+-" * 6, whose crossings cancel in pairs, W(d) is not -2 here
        signs = "-++-+++--+++"
        d = QLink([loop], [(f"x{i + 1}", s) for i, s in enumerate(signs)])
        for vertex in ("x1", "x6", "x12"):
            d_a, d_b = resolutions(g, d, vertex)
            if dict(d.crossings)[vertex] == "-":
                d_a, d_b = d_b, d_a
            for t in GENERIC_T[:2]:
                assert abs(skein_residual(g, d, d_a, d_b, flat, t)) < 1e-8, (vertex, t)
        # at t = 1 the R-matrix is the identity: the classical -tr of the holonomy
        assert abs(wilson_qlink(g, d, flat, 1) - wilson_loop(g, classical, loop)) < 1e-10
        generic = {e: random_sl2(rng) for e in g.edges}
        assert abs(wilson_qlink(g, d, classical_to_quantum(generic), 1)
                   - wilson_loop(g, generic, loop)) < 1e-10
