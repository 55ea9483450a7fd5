"""Noncommutative x, y, z algebra: normal forms, products, Poisson limit."""

import cmath
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab.poly import LaurentPoly
from skeinlab.qlattice import UqWord
from skeinlab.torus_skein import (
    CommPoly,
    TorusSkeinElement,
    lift,
    parse_skein,
    poisson_bracket,
    render_skein,
)

X = TorusSkeinElement.x()
Y = TorusSkeinElement.y()
Z = TorusSkeinElement.z()


def lp(coeffs: dict) -> LaurentPoly:
    return LaurentPoly(coeffs)


# ----------------------------------------------------------------------
# slow reference: rewrite generator words until no descending pair is left

_X, _Y, _Z = 0, 1, 2
_REWRITES = {
    (_Y, _X): (((_X, _Y), lp({2: 1})), ((_Z,), lp({3: -1, -1: 1}))),
    (_Z, _Y): (((_Y, _Z), lp({2: 1})), ((_X,), lp({3: -1, -1: 1}))),
    (_Z, _X): (((_X, _Z), lp({-2: 1})), ((_Y,), lp({1: 1, -3: -1}))),
}
_WORD_MEMO: dict = {}


def normalize_word(word: tuple) -> dict:
    """Sorted monomials of a generator word, by rewriting its first
    descending pair; every intermediate word is memoized once."""
    stack = [word]
    while stack:
        w = stack[-1]
        if w in _WORD_MEMO:
            stack.pop()
            continue
        i = next((i for i in range(len(w) - 1) if (w[i], w[i + 1]) in _REWRITES), -1)
        if i < 0:
            _WORD_MEMO[w] = {(w.count(_X), w.count(_Y), w.count(_Z)): LaurentPoly.one()}
            stack.pop()
            continue
        children = [(w[:i] + repl + w[i + 2:], rc) for repl, rc in _REWRITES[(w[i], w[i + 1])]]
        missing = [cw for cw, _ in children if cw not in _WORD_MEMO]
        if missing:
            stack.extend(missing)
            continue
        out: dict = {}
        for cw, rc in children:
            for key, c in _WORD_MEMO[cw].items():
                out[key] = out.get(key, LaurentPoly.zero()) + c * rc
        _WORD_MEMO[w] = {k: c for k, c in out.items() if not c.is_zero}
        stack.pop()
    return _WORD_MEMO[word]


def reference_product(p: TorusSkeinElement, q: TorusSkeinElement) -> TorusSkeinElement:
    total = TorusSkeinElement.zero()
    for (a1, b1, c1), p1 in p.items():
        for (a2, b2, c2), p2 in q.items():
            word = (_X,) * a1 + (_Y,) * b1 + (_Z,) * c1 + (_X,) * a2 + (_Y,) * b2 + (_Z,) * c2
            total = total + TorusSkeinElement(normalize_word(word)) * (p1 * p2)
    return total


def monomials(max_degree: int) -> list:
    return [m for m in itertools.product(range(max_degree + 1), repeat=3)
            if sum(m) <= max_degree]


# Elements of degree <= 4 with small Fraction coefficients.
fraction_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=1, max_size=3,
).map(LaurentPoly)
elements = st.dictionaries(st.sampled_from(monomials(4)), fraction_polys,
                           max_size=3).map(TorusSkeinElement)


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

    def test_monomial_products_match_word_rewriting(self):
        for m1, m2 in itertools.product(monomials(3), repeat=2):
            got = TorusSkeinElement.monomial(*m1) * TorusSkeinElement.monomial(*m2)
            assert got == reference_product(TorusSkeinElement.monomial(*m1),
                                            TorusSkeinElement.monomial(*m2)), (m1, m2)

    @settings(deadline=None, max_examples=60)
    @given(elements, elements)
    def test_products_match_word_rewriting(self, p, q):
        assert p * q == reference_product(p, q)

    def test_powers(self):
        assert (X + Y) ** 0 == TorusSkeinElement.one()
        assert (X + Y) ** 2 == (X + Y) * (X + Y)
        with pytest.raises(ValueError):
            (X + Y) ** -1


# ----------------------------------------------------------------------
# oracle: the closed-torus skein algebra and the Frohman-Gelca formula
#
# An element is a map from slopes (p, q) to Laurent coefficients; (p, q)
# and (-p, -q) name the same curve (p, q)_T, and the key (0, 0) holds the
# empty diagram 1, since (0, 0)_T = 2.


def slope(p: int, q: int) -> tuple:
    return (p, q) if (p, q) >= (0, 0) else (-p, -q)


def closed_torus_product(u: dict, v: dict) -> dict:
    """(p,q)_T (r,s)_T = A^(ps-qr) (p+r,q+s)_T + A^-(ps-qr) (p-r,q-s)_T."""
    out: dict = {}

    def add(key, c):
        out[key] = out.get(key, LaurentPoly.zero()) + c

    for (p, q), c1 in u.items():
        for (r, s), c2 in v.items():
            if (p, q) == (0, 0) or (r, s) == (0, 0):
                add((p + r, q + s), c1 * c2)
                continue
            e = p * s - q * r
            for key, a in ((slope(p + r, q + s), e), (slope(p - r, q - s), -e)):
                add(key, c1 * c2 * LaurentPoly.a_power(a) * (2 if key == (0, 0) else 1))
    return {k: c for k, c in out.items() if not c.is_zero}


def closed_torus_image(elem: TorusSkeinElement) -> dict:
    """Image under x, y, z -> (1,0)_T, (0,1)_T, (1,1)_T."""
    gens = [{(1, 0): LaurentPoly.one()}, {(0, 1): LaurentPoly.one()},
            {(1, 1): LaurentPoly.one()}]
    total: dict = {}
    for mono, coeff in elem.items():
        image = {(0, 0): coeff}
        for gen, power in zip(gens, mono):
            for _ in range(power):
                image = closed_torus_product(image, gen)
        for key, c in image.items():
            total[key] = total.get(key, LaurentPoly.zero()) + c
    return {k: c for k, c in total.items() if not c.is_zero}


class TestClosedTorusImage:
    def test_generator_relations(self):
        # A*x*y - A^-1*y*x = (A^2 - A^-2)*z holds for the images.
        x, y, z = (closed_torus_image(g) for g in (X, Y, Z))
        a, ai = LaurentPoly.a_power(1), LaurentPoly.a_power(-1)
        lhs = {k: a * c for k, c in closed_torus_product(x, y).items()}
        for k, c in closed_torus_product(y, x).items():
            lhs[k] = lhs.get(k, LaurentPoly.zero()) - ai * c
        assert {k: c for k, c in lhs.items() if not c.is_zero} == {
            k: lp({2: 1, -2: -1}) * c for k, c in z.items()}

    @settings(deadline=None, max_examples=40)
    @given(elements, elements)
    def test_image_is_multiplicative(self, p, q):
        assert closed_torus_image(p * q) == closed_torus_product(
            closed_torus_image(p), closed_torus_image(q))


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
            assert got.diff_norm(want) == 0

    def test_lift_section(self):
        p = CommPoly({(1, 2, 0): 3, (0, 0, 1): Fraction(-1, 2)})
        assert lift(p).specialize(-1) == p
        assert lift(p).specialize(1) == p
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
            assert extrapolated.diff_norm(want) < 1e-6

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


SCALARS = [0, 1, 5, -2, Fraction(1, 2), Fraction(6, 3), 5.0, 0.5, 5 + 0j]


def constant_forms(c) -> list:
    """c and the constants of each type that compare equal to it."""
    forms = [c, CommPoly.constant(c)]
    if isinstance(c, (int, Fraction)):
        forms += [LaurentPoly.term(c), TorusSkeinElement({(0, 0, 0): c})]
    if isinstance(c, (int, float, complex)):
        forms.append(UqWord({(): c}))
    return forms


hashables = st.one_of(
    st.sampled_from(SCALARS).flatmap(lambda c: st.sampled_from(constant_forms(c))),
    st.sampled_from([LaurentPoly({0: 5, 2: 1}), X, X + 5, CommPoly({(1, 0, 0): 5})]),
    fraction_polys,
    fraction_polys.map(lambda p: TorusSkeinElement({(0, 0, 0): p})),
)


# two constant forms of one scalar, of different types: independent draws
# give such an equal pair too rarely for the hash property to bite
equal_constants = st.sampled_from(SCALARS).flatmap(
    lambda c: st.permutations(constant_forms(c)).map(lambda forms: tuple(forms[:2])))


class TestHashing:
    @given(st.one_of(equal_constants, st.tuples(hashables, hashables)))
    def test_equal_values_hash_alike(self, pair):
        a, b = pair
        if a == b:
            assert hash(a) == hash(b), (a, b)

    def test_constants_hash_like_scalars(self):
        for c in SCALARS:
            for form in constant_forms(c):
                assert form == c and hash(form) == hash(c), form
        assert LaurentPoly() == 0 and hash(LaurentPoly()) == hash(0)
        assert TorusSkeinElement.zero() == 0 and hash(TorusSkeinElement.zero()) == hash(0)


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

    def test_coeff_validates_its_key(self):
        assert (X.coeff([1, 0, 0]), X.coeff((0, 0, 0))) == (1, 0)
        assert UqWord.letter("K").coeff(("K", "Ki", "K")) == 1
        for value, key, error in ((X, (1, 0), ValueError), (CommPoly.x(), (-1, 0, 0), ValueError),
                                  (LaurentPoly.one(), 1.5, TypeError),
                                  (UqWord.one(), ("G",), ValueError)):
            with pytest.raises(error):
                value.coeff(key)

    def test_comm_poly_evaluate(self):
        p = CommPoly({(2, 0, 0): 1, (0, 1, 0): -3, (0, 0, 0): 5})
        assert p.evaluate(2, 1, 0) == 4 - 3 + 5



# (base, its ring's one) for each of the four types with a power operator
POWER_BASES = [
    (lp({1: 2, -3: -1}), LaurentPoly.one()),
    (TorusSkeinElement({(1, 0, 0): lp({1: 1}), (0, 1, 1): lp({-1: 2})}),
     TorusSkeinElement.one()),
    (CommPoly({(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 0): 3}), CommPoly.constant(1)),
    (UqWord({("E",): 2, ("K", "F"): -1, (): 3}), UqWord.unit()),
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
