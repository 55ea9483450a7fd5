"""Trace functions on pairs of unimodular 2x2 matrices."""

import random
from fractions import Fraction

import numpy as np
import pytest

from skeinlab.characters import (
    IDENTITY,
    character_point,
    conjugate_rep,
    det,
    entries,
    evaluate_word,
    inverse_word,
    mul,
    phi_evaluate,
    product,
    random_rep,
    random_sl2,
    sl2_inverse,
    trace,
    trace_identity_residual,
    trace_word,
)
from skeinlab.torus_skein import CommPoly, TorusSkeinElement


def matrix(m) -> np.ndarray:
    """The numpy 2x2 array of an entry tuple, for an independent oracle."""
    return np.reshape(m, (2, 2))


class TestMatrices:
    def test_random_sl2_is_unimodular(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_sl2(rng)
            assert abs(np.linalg.det(matrix(m)) - 1) < 1e-12

    def test_sl2_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_sl2(rng)
            assert np.allclose(matrix(m) @ matrix(sl2_inverse(m)), np.eye(2), atol=1e-12)

    def test_seeded_generation_is_reproducible(self):
        assert np.array_equal(random_sl2(7), random_sl2(7))


class TestEntryHelpers:
    def test_helpers_match_numpy(self):
        rng = random.Random(16)
        ms = [random_sl2(rng) for _ in range(4)]
        assert np.allclose(matrix(mul(ms[0], ms[1])), matrix(ms[0]) @ matrix(ms[1]))
        assert np.allclose(matrix(product(ms)),
                           matrix(ms[0]) @ matrix(ms[1]) @ matrix(ms[2]) @ matrix(ms[3]))
        assert product([]) == IDENTITY and product(ms[:1]) == ms[0]
        m = mul(ms[0], (2, 1, 3, 4))
        assert abs(trace(m) - np.trace(matrix(m))) < 1e-12
        assert abs(det(m) - np.linalg.det(matrix(m))) < 1e-12

    def test_reader_takes_four_entries_rows_and_arrays(self):
        want = (1, 2j, 3, 4)
        assert entries(want) == want
        assert entries([1, 2j, 3, 4]) == want
        assert entries([[1, 2j], [3, 4]]) == want
        assert entries(((1, 2j), (3, 4))) == want
        got = entries(np.array([[1, 2j], [3, 4]]))
        assert got == want and all(type(v) is complex for v in got)
        assert entries(np.array([[1, 2], [3, 4]])) == (1, 2, 3, 4)
        for bad in ([[1, 2, 3], [4, 5, 6]], [1, 2, 3], [[1, 2]]):
            with pytest.raises(ValueError):
                entries(bad)

    def test_exact_entries_stay_exact(self):
        a, b = (1, 1, 0, 1), (0, -1, 1, 0)
        assert mul(a, b) == (1, -1, 1, 0) and all(type(v) is int for v in mul(a, b))
        h = (Fraction(1, 2), Fraction(1, 3), 0, 2)
        inv = (2, Fraction(-1, 3), 0, Fraction(1, 2))
        assert sl2_inverse(h) == inv and product([h, inv, h]) == h
        assert all(type(v) is Fraction for v in product([h, h])[:2])
        assert det(h) == 1 and trace(h) == Fraction(5, 2)
        rep = {"a": a, "b": b}
        assert evaluate_word(rep, "abAB") == mul(mul(a, b), mul(sl2_inverse(a), sl2_inverse(b)))
        assert trace_word(rep, "abAB") == 3 and type(trace_word(rep, "abAB")) is int
        assert character_point(rep) == (-2, 0, -1)

    @pytest.mark.parametrize("make_rng", [random.Random, np.random.default_rng],
                             ids=["random.Random", "numpy Generator"])
    def test_random_sl2_takes_either_generator(self, make_rng):
        ms = [random_sl2(make_rng(17)) for _ in range(2)]
        assert ms[0] == ms[1]
        rng = make_rng(18)
        for _ in range(50):
            m = random_sl2(rng)
            assert abs(det(m) - 1) < 1e-12 and all(type(v) is complex for v in m)
        assert len(set(random_rep("abc", rng).values())) == 3

    def test_an_int_seeds_a_random_random(self):
        assert random_sl2(19) == random_sl2(random.Random(19))
        assert random_rep("ab", 20) == random_rep("ab", random.Random(20))


class TestWords:
    def test_inverse_word_reverses_and_swaps_case(self):
        assert inverse_word("ab") == "BA"
        assert inverse_word("abA") == "aBA"
        assert inverse_word("") == ""

    def test_evaluate_word(self):
        rep = random_rep("ab", np.random.default_rng(3))
        a, b = matrix(rep["a"]), matrix(rep["b"])
        assert np.allclose(matrix(evaluate_word(rep, "ab")), a @ b)
        assert np.allclose(matrix(evaluate_word(rep, "aB")), a @ np.linalg.inv(b))
        assert np.allclose(matrix(evaluate_word(rep, "")), np.eye(2))

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
