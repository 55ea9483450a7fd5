"""Trace functions on pairs of unimodular 2x2 matrices."""

import numpy as np
import pytest

from skeinlab.characters import (
    character_point,
    commutator_trace,
    conjugate_rep,
    evaluate_word,
    inverse_word,
    phi_evaluate,
    random_rep,
    random_sl2,
    sl2_inverse,
    trace_identity_residual,
    trace_word,
)
from skeinlab.torus_skein import CommPoly, TorusSkeinElement


class TestMatrices:
    def test_random_sl2_is_unimodular(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_sl2(rng)
            assert abs(np.linalg.det(m) - 1) < 1e-12

    def test_sl2_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_sl2(rng)
            assert np.allclose(m @ sl2_inverse(m), np.eye(2), atol=1e-12)

    def test_seeded_generation_is_reproducible(self):
        assert np.array_equal(random_sl2(7), random_sl2(7))


class TestWords:
    def test_inverse_word_reverses_and_swaps_case(self):
        assert inverse_word("ab") == "BA"
        assert inverse_word("abA") == "aBA"
        assert inverse_word("") == ""

    def test_evaluate_word(self):
        rep = random_rep("ab", np.random.default_rng(3))
        a, b = rep["a"], rep["b"]
        assert np.allclose(evaluate_word(rep, "ab"), a @ b)
        assert np.allclose(evaluate_word(rep, "aB"), a @ sl2_inverse(b))
        assert np.allclose(evaluate_word(rep, ""), np.eye(2))

    def test_word_inverse_evaluates_to_matrix_inverse(self):
        rep = random_rep("ab", np.random.default_rng(4))
        w = "abAAb"
        assert np.allclose(
            evaluate_word(rep, inverse_word(w)),
            sl2_inverse(evaluate_word(rep, w)),
            atol=1e-10,
        )


class TestTraceIdentities:
    def test_fundamental_identity_on_many_pairs(self):
        rng = np.random.default_rng(5)
        rep = random_rep("ab", rng)
        worst = 0.0
        for _ in range(300):
            u = "".join(rng.choice(list("abAB"), size=rng.integers(1, 5)))
            v = "".join(rng.choice(list("abAB"), size=rng.integers(1, 5)))
            worst = max(worst, abs(trace_identity_residual(rep, u, v)))
        assert worst < 1e-9

    def test_inverse_has_equal_trace(self):
        rep = random_rep("ab", np.random.default_rng(6))
        for w in ("a", "ab", "aBab"):
            assert abs(trace_word(rep, w) - trace_word(rep, inverse_word(w))) < 1e-10

    def test_square_trace(self):
        rep = random_rep("a", np.random.default_rng(7))
        ta = trace_word(rep, "a")
        assert abs(trace_word(rep, "aa") - (ta * ta - 2)) < 1e-10

    def test_boundary_trace_in_coordinates(self):
        # tr(a b a^-1 b^-1) is determined by the three coordinate traces.
        rep = random_rep("ab", np.random.default_rng(8))
        x, y, z = character_point(rep)
        want = x * x + y * y + z * z + x * y * z - 2
        assert abs(commutator_trace(rep) - want) < 1e-9
        assert abs(trace_word(rep, "abAB") - want) < 1e-9

    def test_mixed_product_trace_in_coordinates(self):
        rep = random_rep("ab", np.random.default_rng(9))
        x, y, z = character_point(rep)
        assert abs(trace_word(rep, "aB") - (x * y + z)) < 1e-9


class TestConjugationInvariance:
    def test_traces_unchanged(self):
        rng = np.random.default_rng(10)
        rep = random_rep("ab", rng)
        for _ in range(10):
            other = conjugate_rep(rep, random_sl2(rng))
            for w in ("a", "b", "ab", "abAB", "aabB"):
                assert abs(trace_word(rep, w) - trace_word(other, w)) < 1e-9

    def test_character_point_unchanged(self):
        rng = np.random.default_rng(11)
        rep = random_rep("ab", rng)
        other = conjugate_rep(rep, random_sl2(rng))
        assert np.allclose(character_point(rep), character_point(other), atol=1e-9)


class TestEvaluationMap:
    def test_coordinates(self):
        rep = random_rep("ab", np.random.default_rng(12))
        assert abs(phi_evaluate(CommPoly.x(), rep) + trace_word(rep, "a")) < 1e-12
        assert abs(phi_evaluate(CommPoly.y(), rep) + trace_word(rep, "b")) < 1e-12
        assert abs(phi_evaluate(CommPoly.z(), rep) + trace_word(rep, "ab")) < 1e-12

    def test_multiplicative(self):
        rng = np.random.default_rng(13)
        rep = random_rep("ab", rng)
        worst = 0.0
        for _ in range(40):
            p = CommPoly({tuple(rng.integers(0, 3, size=3)): int(rng.integers(-3, 4))
                          for _ in range(rng.integers(1, 4))})
            q = CommPoly({tuple(rng.integers(0, 3, size=3)): int(rng.integers(-3, 4))
                          for _ in range(rng.integers(1, 4))})
            got = phi_evaluate(p * q, rep)
            want = phi_evaluate(p, rep) * phi_evaluate(q, rep)
            worst = max(worst, abs(got - want))
        assert worst < 1e-8

    def test_classical_skein_product_agrees(self):
        # The noncommutative product at A = -1 lands in the trace ring: the
        # product relation for y*x degenerates to plain commutative xy.
        rep = random_rep("ab", np.random.default_rng(14))
        p = (TorusSkeinElement.y() * TorusSkeinElement.x()).specialize(-1)
        want = phi_evaluate(CommPoly.x(), rep) * phi_evaluate(CommPoly.y(), rep)
        assert abs(phi_evaluate(p, rep) - want) < 1e-9

    def test_rejects_unknown_generators(self):
        rep = random_rep("a", np.random.default_rng(15))
        with pytest.raises(KeyError):
            trace_word(rep, "ax")
