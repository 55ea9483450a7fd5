"""Noncommutative x, y, z algebra: normal forms, products, Poisson limit."""

import cmath
import random
from fractions import Fraction

import pytest

from skeinlab.poly import LaurentPoly
from skeinlab.torus_skein import (
    CommPoly,
    TorusSkeinElement,
    lift,
    parse_skein,
    poisson_bracket,
    render_skein,
    specialize,
)

X = TorusSkeinElement.x()
Y = TorusSkeinElement.y()
Z = TorusSkeinElement.z()


def lp(coeffs: dict) -> LaurentPoly:
    return LaurentPoly(coeffs)


def random_element(rng: random.Random) -> TorusSkeinElement:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(3))
        coeff = lp({rng.randint(-3, 3): rng.choice([-2, -1, 1, 2])
                    for _ in range(rng.randint(1, 2))})
        terms[mono] = coeff
    return TorusSkeinElement(terms)


def random_comm_poly(rng: random.Random) -> CommPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(3))
        terms[mono] = rng.choice([-2, -1, 1, 2])
    return CommPoly(terms)


class TestNormalForm:
    def test_generator_products(self):
        assert str(Y * X) == "A^2*x*y - (A^3 - A^-1)*z"
        assert str(Z * Y) == "A^2*y*z - (A^3 - A^-1)*x"
        assert str(Z * X) == "A^-2*x*z + (A - A^-3)*y"
        # Sorted products are already normal.
        assert str(X * Y) == "x*y"
        assert str(X * Z) == "x*z"
        assert str(Y * Z) == "y*z"

    def test_four_letter_word(self):
        w = X * Y * Z * X
        expected = (
            TorusSkeinElement({(1, 2, 0): lp({1: 1, -3: -1})})
            + TorusSkeinElement({(1, 0, 2): lp({1: -1, -3: 1})})
            + TorusSkeinElement({(2, 1, 1): 1})
        )
        assert w == expected

    def test_six_letter_word(self):
        w = (X * Y * Z) ** 2
        expected = TorusSkeinElement({
            (1, 3, 1): lp({1: 1, -3: -1}),
            (1, 1, 1): lp({5: 1, 1: -3, -3: 3, -7: -1}),
            (2, 0, 2): lp({6: 2, 2: -3, -6: 1}),
            (1, 1, 3): lp({5: -1, 1: 1}),
            (3, 1, 1): lp({5: -1, 1: 1}),
            (2, 2, 2): lp({2: 1}),
        })
        assert w == expected

    def test_sorted_monomials_are_fixed(self):
        m = TorusSkeinElement.monomial(2, 1, 3)
        assert m * TorusSkeinElement.one() == m
        assert X * X == TorusSkeinElement.monomial(2, 0, 0)

    def test_associativity_on_random_triples(self):
        rng = random.Random(41)
        for _ in range(30):
            p, q, r = (random_element(rng) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_distributivity_and_scalars(self):
        rng = random.Random(42)
        for _ in range(20):
            p, q, r = (random_element(rng) for _ in range(3))
            assert p * (q + r) == p * q + p * r
            assert (q + r) * p == q * p + r * p
        assert 2 * X == X + X
        assert lp({3: 1}) * Y == TorusSkeinElement({(0, 1, 0): lp({3: 1})})
        assert (X - X).is_zero

    def test_powers(self):
        assert (X + Y) ** 0 == TorusSkeinElement.one()
        assert (X + Y) ** 2 == (X + Y) * (X + Y)
        with pytest.raises(ValueError):
            (X + Y) ** -1


class TestClassicalLimit:
    def test_commutative_at_a_is_plus_minus_one(self):
        rng = random.Random(43)
        for _ in range(20):
            p, q = random_element(rng), random_element(rng)
            comm = p * q - q * p
            assert comm.specialize(1).is_zero
            assert comm.specialize(-1).is_zero

    def test_specialize_is_a_ring_map(self):
        rng = random.Random(44)
        for _ in range(10):
            p, q = random_element(rng), random_element(rng)
            got = (p * q).specialize(-1)
            want = p.specialize(-1) * q.specialize(-1)
            assert got.max_abs_diff(want) == 0

    def test_lift_section(self):
        p = CommPoly({(1, 2, 0): 3, (0, 0, 1): Fraction(-1, 2)})
        assert specialize(lift(p), -1) == p
        assert specialize(lift(p), 1) == p
        with pytest.raises(TypeError):
            lift(CommPoly({(1, 0, 0): 0.5}))


class TestPoissonBracket:
    def test_generator_brackets(self):
        half = Fraction(1, 2)
        assert poisson_bracket(X, Y) == CommPoly(
            {(1, 1, 0): -half, (0, 0, 1): -1})
        assert poisson_bracket(Y, Z) == CommPoly(
            {(0, 1, 1): -half, (1, 0, 0): -1})
        assert poisson_bracket(Z, X) == CommPoly(
            {(1, 0, 1): -half, (0, 1, 0): -1})
        assert poisson_bracket(X, X).is_zero

    def test_matches_numeric_commutator_limit(self):
        # Independent check: evaluate the commutator at A = -exp(h/4) for two
        # small h and extrapolate [p,q]/h to h -> 0.
        rng = random.Random(45)
        for _ in range(8):
            p, q = random_comm_poly(rng), random_comm_poly(rng)
            want = poisson_bracket(p, q)
            comm = lift(p) * lift(q) - lift(q) * lift(p)

            def at(h: float) -> CommPoly:
                c = comm.specialize(-cmath.exp(h / 4))
                return CommPoly({m: v / h for m, v in c.items()})

            h = 1e-4
            extrapolated = 2 * at(h / 2) - at(h)
            assert extrapolated.max_abs_diff(want) < 1e-6

    def test_antisymmetry(self):
        rng = random.Random(46)
        for _ in range(10):
            p, q = random_comm_poly(rng), random_comm_poly(rng)
            assert (poisson_bracket(p, q) + poisson_bracket(q, p)).is_zero

    def test_jacobi_identity(self):
        rng = random.Random(47)
        for _ in range(6):
            p, q, r = (random_comm_poly(rng) for _ in range(3))
            total = (poisson_bracket(p, poisson_bracket(q, r))
                     + poisson_bracket(q, poisson_bracket(r, p))
                     + poisson_bracket(r, poisson_bracket(p, q)))
            assert total.is_zero

    def test_leibniz_rule(self):
        rng = random.Random(48)
        for _ in range(8):
            p, q, r = (random_comm_poly(rng) for _ in range(3))
            lhs = poisson_bracket(p * q, r)
            rhs = p * poisson_bracket(q, r) + q * poisson_bracket(p, r)
            assert (lhs - rhs).is_zero

    def test_casimir_commutes(self):
        # x^2 + y^2 + z^2 + x*y*z has vanishing bracket with each generator.
        cx, cy, cz = CommPoly.x(), CommPoly.y(), CommPoly.z()
        casimir = cx * cx + cy * cy + cz * cz + cx * cy * cz
        for g in (cx, cy, cz):
            assert poisson_bracket(casimir, g).is_zero

    def test_order_validation(self):
        with pytest.raises(ValueError):
            poisson_bracket(X, Y, order=1)


class TestParsingAndRendering:
    def test_parse_generator_product(self):
        assert parse_skein("y*x") == Y * X
        assert parse_skein("A^2*x*y - (A^3 - A^-1)*z") == Y * X
        assert parse_skein("(x + y)^2") == (X + Y) * (X + Y)
        assert parse_skein("2") == 2 * TorusSkeinElement.one()
        assert parse_skein("-3*A^-1*z") == TorusSkeinElement(
            {(0, 0, 1): lp({-1: -3})})

    def test_parse_rejects_garbage(self):
        for bad in ("", "x +", "w", "x*)", "A^"):
            with pytest.raises(ValueError):
                parse_skein(bad)

    def test_round_trip(self):
        rng = random.Random(49)
        for _ in range(25):
            p = random_element(rng)
            assert parse_skein(render_skein(p)) == p

    def test_comm_poly_str(self):
        assert str(poisson_bracket(X, Y)) == "-1/2*x*y - z"
        assert str(CommPoly.zero()) == "0"
        assert str(CommPoly({(0, 0, 0): 2, (1, 0, 0): -1})) == "-x + 2"

    def test_comm_poly_evaluate(self):
        p = CommPoly({(2, 0, 0): 1, (0, 1, 0): -3, (0, 0, 0): 5})
        assert p.evaluate(2, 1, 0) == 4 - 3 + 5



# (base, its ring's one) for each of the three types with a power operator
POWER_BASES = [
    (lp({1: 2, -3: -1}), LaurentPoly.one()),
    (TorusSkeinElement({(1, 0, 0): lp({1: 1}), (0, 1, 1): lp({-1: 2})}),
     TorusSkeinElement.one()),
    (CommPoly({(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 3}), CommPoly.constant(1)),
]
POWER_IDS = [type(p).__name__ for p, _ in POWER_BASES]


class TestPowers:
    @pytest.mark.parametrize("p, one", POWER_BASES, ids=POWER_IDS)
    def test_square_costs_one_multiplication(self, p, one, monkeypatch):
        cls = type(p)
        mul = cls.__mul__
        calls = []

        def counting_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counting_mul)
        square = p ** 2
        monkeypatch.undo()
        assert len(calls) == 1
        assert square == p * p

    @pytest.mark.parametrize("p, one", POWER_BASES, ids=POWER_IDS)
    def test_powers_match_repeated_products(self, p, one):
        product = one
        for n in range(6):
            assert p ** n == product, n
            product = product * p
