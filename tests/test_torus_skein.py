"""Noncommutative x, y, z algebra: normal forms, products, Poisson limit."""

import cmath
import itertools
import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab import torus_skein
from skeinlab.poly import LaurentPoly, _pack, _unpack
from skeinlab.qlattice import UqWord
from skeinlab.torus_skein import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_PRODUCT_TERMS,
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
        with pytest.raises(ValueError, match="^negative exponents only apply to coefficient"):
            (X + Y) ** -1
        a_squared = TorusSkeinElement.monomial(0, 0, 0, lp({2: -1}))
        assert a_squared ** -3 == TorusSkeinElement.monomial(0, 0, 0, lp({-6: -1}))


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


# ----------------------------------------------------------------------
# oracle: the right-action product on exponent maps
#
# The same recursion as torus_skein's packed kernel, with every coefficient
# an exponent map {k: c} of its own ints and each weight p1 * p2 multiplied
# term by term; its table is its own, so it shares nothing with the library.

_DICT_TABLE: dict = {}
_DICT_A2, _DICT_AM2 = {2: 1}, {-2: 1}
_DICT_AM1_A3, _DICT_A_AM3 = {-1: 1, 3: -1}, {1: 1, -3: -1}


def _dict_madd(out: dict, terms: dict, weight: dict) -> None:
    for mono, coeffs in terms.items():
        acc = out.setdefault(mono, {})
        for k1, c1 in coeffs.items():
            for k2, c2 in weight.items():
                acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2


def _dict_nonzero(terms: dict) -> dict:
    out = {mono: {k: c for k, c in coeffs.items() if c} for mono, coeffs in terms.items()}
    return {mono: coeffs for mono, coeffs in out.items() if coeffs}


def _dict_act(terms: dict, gen: int) -> dict:
    out: dict = {}
    for mono, coeffs in terms.items():
        _dict_madd(out, _dict_right_action(mono, gen), coeffs)
    return _dict_nonzero(out)


def _dict_times_z(terms: dict, n: int = 1) -> dict:
    return {(a, b, c + n): p for (a, b, c), p in terms.items()}


def _dict_right_action(mono: tuple, gen: int) -> dict:
    key = (mono, gen)
    if key in _DICT_TABLE:
        return _DICT_TABLE[key]
    a, b, c = mono
    out: dict = {}
    if gen == _Z or (gen == _Y and c == 0) or (gen == _X and b == c == 0):
        out[(a + (gen == _X), b + (gen == _Y), c + (gen == _Z))] = {0: 1}
    elif c:
        m = (a, b, c - 1)
        lead, other, h = ((_DICT_A2, _DICT_AM1_A3, _X) if gen == _Y
                          else (_DICT_AM2, _DICT_A_AM3, _Y))
        _dict_madd(out, _dict_times_z(_dict_right_action(m, gen)), lead)
        _dict_madd(out, _dict_right_action(m, h), other)
    else:
        m = (a, b - 1, 0)
        _dict_madd(out, _dict_act(_dict_right_action(m, _X), _Y), _DICT_A2)
        _dict_madd(out, {(a, b - 1, 1): {0: 1}}, _DICT_AM1_A3)
    _DICT_TABLE[key] = out = _dict_nonzero(out)
    return out


def dict_table_product(p: TorusSkeinElement, q: TorusSkeinElement) -> TorusSkeinElement:
    """p * q with no budget, each pair of monomials through the dict table."""
    result: dict = {}
    for m1, p1 in p._terms.items():
        for (a, b, c), p2 in q._terms.items():
            terms = {m1: {0: 1}}
            for gen in (_X,) * a + (_Y,) * b:
                terms = _dict_act(terms, gen)
            _dict_madd(result, _dict_times_z(terms, c), (p1 * p2)._terms)
    return TorusSkeinElement({m: LaurentPoly(c) for m, c in result.items()})


def commutator_bracket(p, q) -> CommPoly:
    """The Poisson bracket read off p*q - q*p, one to_h_series(1) per coefficient."""
    p, q = (lift(e) if isinstance(e, CommPoly) else e for e in (p, q))
    table = {}
    for mono, coeff in (p * q - q * p).items():
        series = coeff.to_h_series(1)
        assert series.constant_term() == 0
        table[mono] = series.divide_by_h().constant_term()
    return CommPoly(table)


def assert_exact_entries(table: dict) -> None:
    """Every entry of a right-action table is the dict table's, its bounds the L1 norms."""
    for (mono, gen), entry in table.items():
        got: dict = {}
        for (a, b, c, _), (low, packed, bound) in entry.items():
            slots = _unpack(packed, torus_skein._SLOT_BITS, bound)
            assert bound == sum(map(abs, slots)), (mono, gen)
            got.setdefault((a, b, c), {}).update(
                (low + 4 * k, v) for k, v in enumerate(slots) if v)
        assert got == _dict_right_action(mono, gen), (mono, gen)


DEG3 = [m for m in monomials(3) if sum(m) == 3]
DEG4 = [m for m in monomials(4) if sum(m) == 4]

# Elements of degree <= 4 whose Fraction coefficients have denominators up to
# 7, so that the lcm scaling of both sides of a product meets 2 * 3, 4 * 5, ...
rational_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    min_size=1, max_size=4,
).map(LaurentPoly)
rational_elements = st.dictionaries(st.sampled_from(monomials(4)), rational_polys,
                                    min_size=1, max_size=3).map(TorusSkeinElement)
rational_comm_polys = st.dictionaries(
    st.sampled_from(monomials(3)), st.fractions(min_value=-4, max_value=4, max_denominator=6),
    min_size=1, max_size=3).map(CommPoly)


class TestPackedProducts:
    def test_degree_three_and_four_monomials_match_the_dict_tables(self):
        for m1, m2 in itertools.product(DEG3 + DEG4, repeat=2):
            p, q = TorusSkeinElement.monomial(*m1), TorusSkeinElement.monomial(*m2)
            assert p * q == dict_table_product(p, q), (m1, m2)

    def test_degree_24_product_matches_the_dict_tables(self):
        p, q = TorusSkeinElement.monomial(0, 8, 8), TorusSkeinElement.monomial(8, 0, 0)
        got = p * q
        assert got == dict_table_product(p, q)
        assert len(got._terms) > 100

    def test_denominators_of_both_sides_multiply(self):
        p = TorusSkeinElement({(0, 1, 0): Fraction(1, 2), (1, 0, 1): lp({1: Fraction(2, 3)})})
        q = TorusSkeinElement({(1, 0, 0): Fraction(1, 3), (0, 2, 0): lp({-1: Fraction(-3, 5)})})
        assert p * q == dict_table_product(p, q)
        sixth = Fraction(1, 6)
        assert Fraction(1, 2) * Y * (Fraction(1, 3) * X) == TorusSkeinElement(
            {(1, 1, 0): lp({2: sixth}), (0, 0, 1): lp({-1: sixth, 3: -sixth})})

    @settings(deadline=None, max_examples=60)
    @given(rational_elements, rational_elements)
    def test_rational_elements_match_the_dict_tables(self, p, q):
        assert p * q == dict_table_product(p, q)

    def test_coefficients_of_hundreds_of_bits_stay_exact(self):
        big = TorusSkeinElement({(0, 1, 0): (1 + LaurentPoly.a_power(1)) ** 300})
        for p, q in ((big, X), (X, big), (big, X * big)):
            assert p * q == dict_table_product(p, q)

    def test_products_widened_by_their_coefficients_walk_on_the_shared_table(self, monkeypatch):
        # coefficients past 64 bits widen the weighting of a product, never its
        # walks: every right action a walk takes is the shared table's entry
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        right_action, served, widths = torus_skein._right_action, [], []

        def recording_action(mono, gen):
            entry = right_action(mono, gen)
            served.append(entry is torus_skein._RIGHT_ACTION[(mono, gen)])
            return entry
        monkeypatch.setattr(torus_skein, "_right_action", recording_action)
        pieces = torus_skein._pieces
        monkeypatch.setattr(torus_skein, "_pieces", lambda poly, scale, width: widths.append(
            width) or pieces(poly, scale, width))
        rng, big = random.Random(50), (1 + LaurentPoly.a_power(1)) ** 300
        cases = [(TorusSkeinElement.monomial(0, 3, 3, big), TorusSkeinElement.monomial(3, 0, 0)),
                 (X, TorusSkeinElement({(0, 2, 1): big}))]
        cases += [(random_element(rng) * 3 ** 40, random_element(rng)) for _ in range(4)]
        for p, q in cases:
            widths.clear()
            assert p * q == dict_table_product(p, q)
            assert poisson_bracket(p, q) == commutator_bracket(p, q)
            assert min(widths) > 64, (p, q)
        assert served and all(served) and torus_skein._SLOT_BITS == 64
        assert_exact_entries(torus_skein._RIGHT_ACTION)

    def test_a_product_refused_at_the_work_budget_leaves_exact_entries(self, monkeypatch):
        monkeypatch.setattr(torus_skein, "MAX_PRODUCT_TERMS", 10)
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        big = TorusSkeinElement({(0, 3, 3): (1 + LaurentPoly.a_power(1)) ** 200})
        right = X ** 3 + X ** 2
        widths = []
        pieces = torus_skein._pieces
        monkeypatch.setattr(torus_skein, "_pieces", lambda poly, scale, width: widths.append(
            width) or pieces(poly, scale, width))
        with pytest.raises(ValueError, match="exceeds the budget of 10 terms"):
            big * right
        assert min(widths) > 200            # coefficients of 200 bits: a wide pass from the start
        assert torus_skein._SLOT_BITS == 64 and torus_skein._RIGHT_ACTION
        assert_exact_entries(torus_skein._RIGHT_ACTION)

    def test_wide_coefficients_walk_each_pair_once(self, monkeypatch):
        # 3^40*(1 + A + A^2) needs slots of 72 bits and its product 120: the
        # walks run once, as for the coefficient 1, and are only weighted again
        coeff, q = 3 ** 40 * lp({0: 1, 1: 1, 2: 1}), TorusSkeinElement.monomial(8, 0, 0)
        acts, act = [], torus_skein._act
        monkeypatch.setattr(torus_skein, "_act", lambda *args: acts.append(1) or act(*args))
        widths, pieces = [], torus_skein._pieces
        monkeypatch.setattr(torus_skein, "_pieces", lambda poly, scale, width: widths.append(
            width) or pieces(poly, scale, width))
        runs = []
        for c in (coeff, 1):
            monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
            acts.clear()
            widths.clear()
            runs.append((TorusSkeinElement.monomial(0, 8, 8, c) * q, len(acts), sorted(set(widths))))
        (wide, wide_acts, wide_widths), (unit, unit_acts, unit_widths) = runs
        assert wide == unit * coeff and len(unit._terms) > 100
        assert wide_acts == unit_acts > 0
        assert wide_widths == [72, 120] and unit_widths == [64]

    def test_a_walk_past_the_slot_width_is_refused(self, monkeypatch):
        # with 8-bit slots the walks of a degree-18 product outgrow the table
        monkeypatch.setattr(torus_skein, "_SLOT_BITS", 8)
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        p, q = TorusSkeinElement.monomial(0, 6, 6), TorusSkeinElement.monomial(6, 0, 0)
        with pytest.raises(ValueError, match="does not fit a signed slot of 8 bits"):
            p * q
        assert_exact_entries(torus_skein._RIGHT_ACTION)

    def test_a_product_rebinds_no_module_global(self, monkeypatch):
        # a wide pass keeps its slot width and work count on the call
        from skeinlab import torus_skein
        madd, rebound = torus_skein._madd, set()

        def probe(*args):
            rebound.update(name for name, value in vars(torus_skein).items()
                           if name not in before or before[name] is not value)
            return madd(*args)
        monkeypatch.setattr(torus_skein, "_madd", probe)
        before = dict(vars(torus_skein))
        big = TorusSkeinElement({(0, 1, 0): (1 + LaurentPoly.a_power(1)) ** 300})
        assert big * X == dict_table_product(big, X)
        assert not rebound and vars(torus_skein).keys() == before.keys()

    def test_products_beside_wide_passes_in_other_threads_stay_exact(self, monkeypatch):
        # two threads share the 64-bit table while a third runs wide passes
        from skeinlab import torus_skein
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        rng = random.Random(24)
        small = [(p, q, p * q) for p, q in ((random_element(rng), random_element(rng))
                                           for _ in range(30))]
        p = TorusSkeinElement.monomial(0, 5, 5, 3 ** 40 * lp({0: 1, 1: 1, 2: 1}))
        q = TorusSkeinElement.monomial(5, 0, 0)
        wide = [(p, q, p * q)]
        stop, wrong, rounds = threading.Event(), [], []

        def check(jobs):
            while not stop.is_set():
                torus_skein._RIGHT_ACTION.clear()       # each round fills the table again
                wrong.extend((p, q) for p, q, want in jobs if p * q != want)
                rounds.append(len(jobs))
        threads = [threading.Thread(target=check, args=(jobs,)) for jobs in (small, small, wide)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # switch threads often, inside the products
        try:
            for thread in threads:
                thread.start()
            time.sleep(1)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and rounds.count(1) and rounds.count(len(small)) >= 2


# ----------------------------------------------------------------------
# oracle: each pair of monomials walked alone
#
# A product forms m1 * x^a y^b z^c by walking from {m1} one right action per
# letter.  The pairs of one left monomial share the walks to their common
# prefixes x^i y^j; this is the walk of one pair on its own, from scratch,
# which must give the same pieces and count the same work.


def per_pair_walk(m1, m2):
    a, b, c = m2
    if not a * (m1[1] + m1[2]) + b * m1[2]:
        return {(m1[0] + a, m1[1] + b, m1[2] + c, 0): torus_skein._ONE}, 0
    degree = sum(m1) + sum(m2)
    if degree > MAX_DEGREE:
        raise ValueError(f"skein product of degree {degree} exceeds the budget of {MAX_DEGREE}")
    terms, work = {m1 + (0,): torus_skein._ONE}, 0
    for gen in (_X,) * a + (_Y,) * b:
        terms, n = torus_skein._act(terms, gen)
        work += n
    return torus_skein._times_z(terms, c), work


def with_pairs(compute, pair):
    """compute() with every pair of monomials formed by pair, and the work the pairs counted."""
    counts = []

    def counting(*args):
        terms, work = pair(*args)
        counts.append(work)
        return terms, work
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torus_skein, "_monomial_product", counting)
        return compute(), sum(counts)


SHARED_WALKS = torus_skein._monomial_product


def checked_against_the_walk_alone(m1, m2, walks):
    got = SHARED_WALKS(m1, m2, walks)
    assert got == per_pair_walk(m1, m2), (m1, m2)
    return got


def walked_alone(m1, m2, walks):
    return per_pair_walk(m1, m2)


BIG = TorusSkeinElement({(0, 1, 1): (1 + LaurentPoly.a_power(1)) ** 300})


class TestSharedWalks:
    @settings(deadline=None, max_examples=40)
    @given(rational_elements, rational_elements, st.booleans())
    def test_products_squares_and_brackets_match_pairs_walked_alone(self, p, q, big):
        if big:
            p = p + BIG
        for compute in (lambda: p * q, lambda: p ** 2, lambda: poisson_bracket(p, q)):
            shared, work = with_pairs(compute, checked_against_the_walk_alone)
            assert (shared, work) == with_pairs(compute, walked_alone)

    def test_pairs_of_one_left_monomial_share_their_walks(self, monkeypatch):
        # a*(bc): bc has many monomials x^a y^b z^c with common prefixes x^a y^b
        p = TorusSkeinElement.monomial(0, 2, 2, lp({1: 2, -1: Fraction(1, 3)})) + Y * Z
        q = parse_skein("(x + y + z)^2*(y + A*z)")
        assert len(q._terms) > 10
        p * q                                   # fill the table first
        acts, act = [], torus_skein._act
        monkeypatch.setattr(torus_skein, "_act", lambda *args: acts.append(1) or act(*args))
        shared = with_pairs(lambda: p * q, SHARED_WALKS)
        shared_acts = len(acts)
        acts.clear()
        alone = with_pairs(lambda: p * q, walked_alone)
        assert shared == alone and shared[0] == dict_table_product(p, q) and shared[1] > 0
        assert 0 < shared_acts < len(acts) / 2

    def test_the_work_budget_stops_at_the_pair_it_stops_at_walked_alone(self, monkeypatch):
        monkeypatch.setattr(torus_skein, "MAX_PRODUCT_TERMS", 2000)
        p, q = parse_skein("(z + y)^4"), parse_skein("(x + y)^4")
        reached = {}
        for pair in (SHARED_WALKS, walked_alone):
            pairs = reached[pair] = []
            with pytest.raises(ValueError, match="^skein product exceeds the budget of 2000 terms$"):
                with_pairs(lambda: p * q, lambda *args: pairs.append(args[:2]) or pair(*args))
        shared, alone = reached.values()
        assert shared == alone and len(p._terms) < len(shared) < len(p._terms) * len(q._terms)


class TestDecode:
    @pytest.mark.parametrize("width", [8, 64])
    def test_pieces_decode_as_unpack_reads_them(self, width, monkeypatch):
        # random pieces with negative, zero and den-divisible slots: the product's
        # decode must give what _unpack reads, over den, integral values as ints
        rng, half = random.Random(width), 1 << (width - 1)
        for den in (1, 2, 6, 35):
            out, want = {}, {}
            for mono in rng.sample(monomials(3), 6):
                for residue in rng.sample(range(4), rng.randint(1, 4)):
                    low = 4 * rng.randint(-4, 4) + residue
                    slots = [rng.choice((0, den * rng.randint(-3, 3), rng.randrange(1 - half, half)))
                             for _ in range(rng.randint(1, 9))]
                    bound = max(map(abs, slots))
                    out[mono + (residue,)] = (low, _pack(slots, width), bound)
                    for k, v in enumerate(_unpack(_pack(slots, width), width, bound)):
                        want.setdefault(mono, {})[low + 4 * k] = Fraction(v, den)
            monkeypatch.setattr(torus_skein, "_packed_product", lambda *_: (out, width, den))
            got = TorusSkeinElement.one()._product({})
            assert got == TorusSkeinElement({m: LaurentPoly(e) for m, e in want.items()})
            values = [c for poly in got._terms.values() for c in poly._terms.values()]
            assert all(type(c) is int or c.denominator > 1 for c in values)
            assert any(type(c) is int for c in values) and (den == 1 or any(
                type(c) is Fraction for c in values))


class TestPoissonOracle:
    @settings(deadline=None, max_examples=40)
    @given(rational_elements, rational_elements)
    def test_matches_the_commutator_of_products(self, p, q):
        assert poisson_bracket(p, q) == commutator_bracket(p, q)

    @settings(deadline=None, max_examples=40)
    @given(rational_comm_polys, rational_comm_polys)
    def test_rational_classical_inputs_match(self, p, q):
        assert poisson_bracket(p, q) == commutator_bracket(p, q)

    def test_a_first_moment_past_the_residue_range_is_decoded(self, monkeypatch):
        # At 8-bit slots the commutator of (1 + A^4 - 5*A^102)*y and x has
        # pieces whose bounds fit a slot but whose sum of k*c_k does not fit a
        # balanced residue mod 2^8 - 1: they must be decoded, not read off.
        from skeinlab import torus_skein
        from skeinlab.poly import _unpack
        monkeypatch.setattr(torus_skein, "_SLOT_BITS", 8)
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        p = TorusSkeinElement({(0, 1, 0): lp({0: 1, 4: 1, 102: -5})})
        out, width, _ = torus_skein._packed_product(p._terms, X._terms, commutator=True)
        moments = [sum(k * v for k, v in enumerate(_unpack(packed, width, bound)))
                   for _, packed, bound in out.values()]
        assert width == 8 and max(map(abs, moments)) >= 128
        # the table is filled, so only the bracket's fallback decodes from here on
        decodes = []
        monkeypatch.setattr(torus_skein, "_unpack", lambda *args: decodes.append(args[1]) or
                            _unpack(*args))
        assert poisson_bracket(p, X) == CommPoly({(1, 1, 0): Fraction(-3, 2), (0, 0, 1): -3})
        assert decodes and set(decodes) == {8}
        assert commutator_bracket(p, X) == poisson_bracket(p, X)

    def test_a_broken_relation_leaves_a_classical_term(self, monkeypatch):
        # y * x = A^2*x*y + A^-1*z, the A^3 of the relation lost: its z term no
        # longer vanishes at A = -1
        from skeinlab import torus_skein
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        y_x = torus_skein._right_action((0, 1, 0), _X)
        broken = {k: (-1, 1, 1) if k[:3] == (0, 0, 1) else piece for k, piece in y_x.items()}
        assert broken != y_x
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {((0, 1, 0), _X): broken})
        with pytest.raises(ArithmeticError, match="nonzero classical term"):
            poisson_bracket(X, Y)


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


class TestBudgets:
    def test_reordering_products_stop_at_the_degree_budget(self):
        below = TorusSkeinElement.monomial(0, MAX_DEGREE - 1, 0)
        assert (below * X).coeff((1, MAX_DEGREE - 1, 0)) == lp({2 * (MAX_DEGREE - 1): 1})
        for left, right in ((below * Y, X), (TorusSkeinElement.monomial(0, 12, 12),
                                             TorusSkeinElement.monomial(12, 0, 0))):
            with pytest.raises(ValueError, match=f"exceeds the budget of {MAX_DEGREE}"):
                left * right

    def test_products_in_normal_form_have_no_degree_budget(self):
        n = 10 ** 6
        assert X ** n == TorusSkeinElement.monomial(n, 0, 0)
        assert (TorusSkeinElement.monomial(n, n, 0) * TorusSkeinElement.monomial(0, n, n)
                == TorusSkeinElement.monomial(n, 2 * n, n))

    def test_powers_under_the_degree_budget_or_without_reordering_evaluate(self):
        assert parse_skein("(x^13 + z)^2") == (X ** 13 + Z) * (X ** 13 + Z)
        assert parse_skein("(x + x^2)^20") == (X + X ** 2) ** 20
        assert parse_skein("(x + 1)^30").coeff((30, 0, 0)) == 1

    def test_power_at_the_degree_budget(self, monkeypatch):
        from skeinlab import torus_skein
        monkeypatch.setattr(torus_skein, "MAX_DEGREE", 4)
        assert parse_skein("(x+y)^4") == (X + Y) * (X + Y) * (X + Y) * (X + Y)

        def no_product(m1, m2, walks):
            raise AssertionError(f"product {m1} * {m2} was computed")
        monkeypatch.setattr(torus_skein, "_monomial_product", no_product)
        for power in (lambda: parse_skein("(x+y)^5"), lambda: (X + Y) ** 5):
            with pytest.raises(ValueError, match="^skein product of degree 5 exceeds the budget "
                                                 "of 4$"):
                power()

    def test_many_terms_of_one_degree_stop_at_the_work_budget(self):
        # every term of (z+y)^24 has degree 24, under MAX_DEGREE; the squares
        # up to (z+y)^8 run, and (z+y)^16 stops at the work budget
        start = time.perf_counter()
        refusal = f"^skein product exceeds the budget of {MAX_PRODUCT_TERMS} terms$"
        with pytest.raises(ValueError, match=refusal):
            parse_skein("(z+y)^24")
        assert time.perf_counter() - start < 1
        with pytest.raises(ValueError, match="exceeds the budget"):
            Y * parse_skein("(z+y)^8") * parse_skein("(z+y)^8")
        assert parse_skein("(z+y)^12") == parse_skein("(z+y)^6") ** 2

    def test_work_budget_counts_the_same_with_a_cold_or_warm_table(self, monkeypatch):
        from skeinlab import torus_skein
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        p, q = parse_skein("y^5*z^4 + y^4*z^4"), parse_skein("x^5 + x^4")
        counts = []
        product = torus_skein._monomial_product

        def counting_product(*args):
            terms, work = product(*args)
            counts[-1] += work
            return terms, work
        monkeypatch.setattr(torus_skein, "_monomial_product", counting_product)

        def counted_product():
            counts.append(0)
            return p * q, counts[-1]
        cold = counted_product()
        assert len(torus_skein._RIGHT_ACTION) > 50
        assert counted_product() == cold and cold[1] > 0

    def test_unit_products_at_the_degree_budget_stay_on_the_shared_table(self, monkeypatch):
        # The worst pairs of unit monomials at degree MAX_DEGREE: their largest
        # tracked bound, 56 bits for z^10*y^14, grows about 3 bits per degree,
        # so a larger MAX_DEGREE needs them measured again against the slots.
        from skeinlab import torus_skein
        monkeypatch.setattr(torus_skein, "_RIGHT_ACTION", {})
        product, passes = torus_skein._monomial_product, []

        def recording_product(m1, m2, walks):
            terms, work = product(m1, m2, walks)
            passes.append(max(bound for _, _, bound in terms.values()))
            return terms, work
        monkeypatch.setattr(torus_skein, "_monomial_product", recording_product)
        for m1, m2 in (((0, 0, 10), (0, 14, 0)), ((0, 0, 9), (0, 15, 0)),
                       ((0, 0, 11), (0, 13, 0)), ((0, 2, 11), (11, 0, 0))):
            assert sum(m1) + sum(m2) == MAX_DEGREE
            passes.clear()
            TorusSkeinElement.monomial(*m1) * TorusSkeinElement.monomial(*m2)
            (top,) = passes                 # one pass, at the table's 64-bit slots
            assert top < 1 << 57

    def test_work_budget_leaves_normal_form_products_alone(self, monkeypatch):
        from skeinlab import torus_skein
        monkeypatch.setattr(torus_skein, "MAX_PRODUCT_TERMS", 0)
        assert parse_skein("(x + 1)^30").coeff((30, 0, 0)) == 1
        assert (X + Y) * (Y + Z) == X * Y + X * Z + Y * Y + Y * Z
        with pytest.raises(ValueError, match="exceeds the budget of 0 terms"):
            (Y + Z) * (X + Y)

    def test_parsed_exponents_stop_at_their_budget(self):
        assert parse_skein(f"x^{MAX_EXPONENT}") == TorusSkeinElement.monomial(MAX_EXPONENT, 0, 0)
        for bad in (f"(2*x)^{MAX_EXPONENT + 1}", f"(1 + A)^{MAX_EXPONENT + 1}",
                    f"(2*A)^-{MAX_EXPONENT + 1}"):
            with pytest.raises(ValueError, match=f"exceeds the budget of {MAX_EXPONENT}"):
                parse_skein(bad)

    @pytest.mark.parametrize("text, value", [
        ("x^1001", TorusSkeinElement.monomial(1001, 0, 0)),
        ("x^99999999", TorusSkeinElement.monomial(99999999, 0, 0)),
        ("A^-1001", TorusSkeinElement.monomial(0, 0, 0, lp({-1001: 1}))),
        ("A^1000*A^1000*x", TorusSkeinElement.monomial(1, 0, 0, lp({2000: 1}))),
        ("(x^1000*x)^2", TorusSkeinElement.monomial(2002, 0, 0)),
        ("A^-1000*A^-1000*z^3", TorusSkeinElement.monomial(0, 0, 3, lp({-2000: 1}))),
    ])
    def test_powers_of_unit_terms_have_no_budget_and_read_back(self, text, value):
        assert parse_skein(text) == value
        assert parse_skein(render_skein(value)) == value


class TestParsingAndRendering:
    def test_parse_generator_product(self):
        assert parse_skein("y*x") == Y * X
        assert parse_skein("A^2*x*y - (A^3 - A^-1)*z") == Y * X
        assert parse_skein("(x + y)^2") == (X + Y) * (X + Y)
        assert parse_skein("2") == 2 * TorusSkeinElement.one()
        assert parse_skein("-3*A^-1*z") == TorusSkeinElement(
            {(0, 0, 1): lp({-1: -3})})

    def test_parse_rejects_garbage(self):
        for bad in ("", "x +", "w", "x*)", "A^", "2x", "x/2", "1/0", "x^-1", "2^-1"):
            with pytest.raises(ValueError):
                parse_skein(bad)

    def test_round_trip(self):
        rng = random.Random(49)
        for _ in range(25):
            p = random_element(rng)
            assert parse_skein(render_skein(p)) == p

    @given(elements)
    def test_round_trip_with_fraction_coefficients(self, p):
        assert parse_skein(render_skein(p)) == p

    @given(st.dictionaries(st.sampled_from(monomials(3)),
                           st.fractions(min_value=-9, max_value=9, max_denominator=7),
                           max_size=4).map(CommPoly))
    def test_exact_classical_values_read_back(self, c):
        assert parse_skein(str(c)) == lift(c)

    def test_poisson_brackets_read_back(self):
        assert str(poisson_bracket(parse_skein(str(poisson_bracket(X, Y))), Z)) == \
            "1/2*x^2 - 1/2*y^2"

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
