"""Exact Laurent arithmetic and the h-expansion at A = -exp(h/4)."""

import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from skeinlab import poly
from skeinlab.bracket import bracket
from skeinlab.diagram import parse_braid
from skeinlab.poly import (
    HSeries,
    LOOP_VALUE,
    LaurentPoly,
    parse_laurent,
    render_laurent,
)

# Small exact polynomials for property tests: integer coefficients over a
# modest exponent window keep the arithmetic honest without bignum noise.
polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_add_mul_compatible(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)

    @given(polys, polys)
    def test_commutative(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys)
    def test_units_and_inverses(self, p):
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p
        assert (p - p).is_zero

    @given(polys, st.integers(min_value=0, max_value=4))
    def test_pow_matches_repeated_product(self, p, n):
        expected = LaurentPoly.one()
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    def test_negative_powers_of_unit_monomials(self):
        assert LaurentPoly.a_power(2) ** -3 == LaurentPoly.a_power(-6)
        assert LaurentPoly.term(-1, 1) ** -1 == LaurentPoly.term(-1, -1)
        with pytest.raises(ValueError):
            (LaurentPoly.one() + LaurentPoly.a_power(1)) ** -1

    def test_results_drop_zeros_and_integral_fractions(self):
        p = LaurentPoly({1: Fraction(1, 2), 0: Fraction(2, 3)})
        assert type((p + p).coeff(1)) is int
        assert type((p * 2).coeff(1)) is int
        assert type((p * LaurentPoly.term(Fraction(3))).coeff(0)) is int
        assert type((-(p * 2)).coeff(1)) is int
        assert (p - p).support() == []
        assert (p * 0).is_zero

    def test_scalar_mixing(self):
        p = LaurentPoly.a_power(2)
        assert p + 1 == LaurentPoly({2: 1, 0: 1})
        assert 3 * p == LaurentPoly({2: 3})
        assert 1 - p == LaurentPoly({0: 1, 2: -1})
        assert p * Fraction(1, 2) == LaurentPoly({2: Fraction(1, 2)})


class TestRendering:
    def test_loop_value_renders_highest_power_first(self):
        assert render_laurent(LOOP_VALUE) == "-A^2 - A^-2"
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.one()) == "1"
        assert str(LaurentPoly({1: 1})) == "A"
        assert str(LaurentPoly({-1: -2, 3: 1})) == "A^3 - 2*A^-1"

    def test_parse_known_strings(self):
        assert parse_laurent("-A^2 - A^-2") == LOOP_VALUE
        assert parse_laurent("A^7 + A^3 + A^-1 - A^-9") == LaurentPoly(
            {7: 1, 3: 1, -1: 1, -9: -1}
        )
        assert parse_laurent("3") == LaurentPoly.term(3)
        assert parse_laurent("0") == LaurentPoly.zero()
        assert parse_laurent("1/2*A^2") == LaurentPoly({2: Fraction(1, 2)})
        with pytest.raises(ValueError):
            parse_laurent("A^")

    @given(polys)
    def test_round_trip(self, p):
        assert parse_laurent(render_laurent(p)) == p

    def test_powers_of_unit_monomials_have_no_budget(self):
        assert parse_laurent("A^-5000 - (-A^2)^3000") == LaurentPoly({-5000: 1, 6000: -1})

    def test_other_powers_keep_the_skein_budgets(self):
        budget = poly.MAX_EXPONENT
        assert parse_laurent("(1 + A)^2 - 1/2*A*(2 - A)") == LaurentPoly({2: Fraction(3, 2),
                                                                           1: 1, 0: 1})
        assert parse_laurent(f"(1 + A)^{budget}").coeff(1) == budget
        for bad, message in ((f"(1 + A)^{budget + 1}", f"exponent {budget + 1} "),
                             ("(1 + A^2)^501", "exponent 501 times coefficient span 2 "),
                             (f"2^{budget + 1}", f"exponent {budget + 1} ")):
            with pytest.raises(ValueError, match=f"^{message}.*budget of {budget}$"):
                parse_laurent(bad)

    def test_products_stop_at_the_span_budget(self, monkeypatch):
        budget = poly.MAX_EXPONENT
        assert parse_laurent("(1 + A)^500*(1 + A)^500") == parse_laurent(f"(1 + A)^{budget}")
        assert parse_laurent(f"(1 + A)^{budget}*A^-5000*3").coeff(-5000) == 3
        powers = []
        laurent_power = LaurentPoly.__pow__
        monkeypatch.setattr(LaurentPoly, "__pow__",
                            lambda base, n: powers.append(n) or laurent_power(base, n))
        # the powers computed: never the factor that crosses the budget
        for bad, spans, computed in (
                ("*".join([f"(1 + A)^{budget}"] * 6), (budget, budget), [budget]),
                ("(1 + A)^500*(1 + A)^501", (500, 501), [500]),
                ("(1 + A)^999*(1 + A^2)", (999, 2), [999, 2]),
                ("2*(1 + A)^999*A*(A^-1 - A)^2", (999, 4), [999, -1])):
            powers.clear()
            with pytest.raises(ValueError, match=f"^product of coefficient spans {spans[0]} "
                                                 f"and {spans[1]} exceeds the budget of {budget}$"):
                parse_laurent(bad)
            assert powers == computed, bad

    def test_sums_of_powers_stop_at_the_span_budget(self, monkeypatch):
        budget = poly.MAX_EXPONENT
        half = budget // 2
        assert (parse_laurent(f"(1 + A)^{half} - (1 - A)^{half}")
                == LaurentPoly({0: 1, 1: 1}) ** half - LaurentPoly({0: 1, 1: -1}) ** half)
        assert parse_laurent(f"((1 + A)^10)^{(budget - 10) // 10}").coeff(1) == budget - 10
        powers = []
        laurent_power = LaurentPoly.__pow__
        monkeypatch.setattr(LaurentPoly, "__pow__",
                            lambda base, n: powers.append(n) or laurent_power(base, n))
        # the powers computed: never the one that crosses the budget, and
        # unit monomials such as A^-1 cost nothing
        for bad, spans, computed in (
                (" + ".join([f"(1 + A)^{budget}"] * 10), (budget, budget), [budget]),
                (f"(1 + A)^{half} - A^-1*(1 - A)^{half + 1}", (half, half + 1), [half, -1]),
                (f"((1 + A)^10)^{budget // 10}", (10, budget), [10])):
            powers.clear()
            with pytest.raises(ValueError, match=f"^powers of coefficient spans {spans[0]} "
                                                 f"and {spans[1]} exceed the budget of {budget}$"):
                parse_laurent(bad)
            assert powers == computed, bad

    def test_malformed_text_is_refused(self):
        for bad, message in (("2A^3", "trailing input near 'A'"), ("", "unexpected end"),
                             ("x", "unexpected character 'x'"), ("1/0*A", "zero denominator"),
                             ("A^1/2", "exponent must be an integer"),
                             ("(A + 1", "unbalanced parenthesis"),
                             ("(" * 400 + "A" + ")" * 400, "^expression nests too deeply$")):
            with pytest.raises(ValueError, match=message):
                parse_laurent(bad)


_TERM_RE = re.compile(
    r"""^\s*
        (?P<coeff>-?\d+(?:/\d+)?)?          # optional rational coefficient
        (?P<star>\s*\*\s*)?                 # optional *
        (?P<a>A(?:\^(?P<exp>-?\d+))?)?      # optional A power
        \s*$""",
    re.VERBOSE,
)


def reference_parse_laurent(text: str) -> LaurentPoly:
    """The regex term splitter that read Laurent text before the shared grammar."""
    s = text.strip()
    if not s:
        raise ValueError("empty Laurent polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    chunks = re.split(r"(?<![\^/*])\s*([+-])\s*", " " + s)
    head = chunks[0].strip()
    terms: list[tuple[int, str]] = []
    if head:
        terms.append((1, head))
    for i in range(1, len(chunks) - 1, 2):
        sign = 1 if chunks[i] == "+" else -1
        terms.append((sign, chunks[i + 1].strip()))
    out = LaurentPoly.zero()
    for sign, body in terms:
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("a") is None):
            raise ValueError(f"cannot parse term {body!r} in {text!r}")
        coeff_s = m.group("coeff")
        if coeff_s is None:
            coeff = 1
        elif "/" in coeff_s:
            coeff = Fraction(coeff_s)
        else:
            coeff = int(coeff_s)
        if m.group("a") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = int(m.group("exp"))
        out = out + LaurentPoly.term(sign * coeff, exp)
    return out


wide_polys = st.dictionaries(
    st.integers(min_value=-2000, max_value=2000),
    st.one_of(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
              st.fractions(min_value=-50, max_value=50, max_denominator=99)),
    max_size=8,
).map(LaurentPoly)


class TestParseOracle:
    """parse_laurent against the regex reader it replaced, on rendered text."""

    @given(wide_polys)
    def test_parse_matches_reference_and_value(self, p):
        text = render_laurent(p)
        assert parse_laurent(text) == reference_parse_laurent(text) == p

    def test_long_torus_closure(self):
        p = bracket(parse_braid([1] * 400, 2))
        text = render_laurent(p)
        assert "A^-1200" in text
        assert parse_laurent(text) == reference_parse_laurent(text) == p


class TestEvaluation:
    def test_eval_at_minus_one(self):
        assert LOOP_VALUE.eval_at(-1) == -2
        assert LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1}).eval_at(-1) == -2

    def test_eval_rejects_zero(self):
        with pytest.raises(ValueError):
            LaurentPoly.a_power(-1).eval_at(0)

    def test_eval_exact_for_rational_points(self):
        v = LaurentPoly({-2: 1}).eval_at(2)
        assert v == Fraction(1, 4)

    @pytest.mark.parametrize("k, a", [
        (-3, complex("inf")), (-3, complex("nan")), (-3, 1e300 + 0j), (-3, 1e-300 + 0j),
        (-3, 1e-120 + 0j), (1, complex("inf")), (2, 1e200 + 0j), (1, complex(0, float("nan"))),
        (-3, float("inf")), (-3, float("nan")), (-3, 1e-300), (2, 1e200),
    ])
    def test_eval_refuses_values_it_cannot_evaluate(self, k, a):
        with pytest.raises(ValueError, match=r"^A = .* (is not finite|is out of range)"):
            LaurentPoly.a_power(k).eval_at(a)

    def test_eval_keeps_finite_floats_and_exact_large_values(self):
        assert LaurentPoly.a_power(-3).eval_at(1e100) == pytest.approx(1e-300)
        assert LaurentPoly.a_power(2).eval_at(0.5j) == -0.25
        assert LaurentPoly.a_power(-3).eval_at(10 ** 300) == Fraction(1, 10 ** 900)
        assert LaurentPoly.a_power(2).eval_at(Fraction(1, 10 ** 200)) == Fraction(1, 10 ** 400)
        with pytest.raises(ValueError, match="^Laurent polynomials cannot be evaluated at A = 0$"):
            LaurentPoly.a_power(1).eval_at(0.0)

    @given(polys, polys)
    def test_eval_is_a_ring_map(self, p, q):
        a = 1j
        assert abs((p * q).eval_at(a) - p.eval_at(a) * q.eval_at(a)) < 1e-9
        assert abs((p + q).eval_at(a) - (p.eval_at(a) + q.eval_at(a))) < 1e-9


def h_series_reference(p: LaurentPoly, order: int) -> list:
    """The h^j coefficients of p(-exp(h/4)), one Fraction term per exponent
    and order: c (-1)^k (k/4)^j / j!."""
    coeffs = [Fraction(0)] * (order + 1)
    for k, c in p.items():
        sign = -1 if k % 2 else 1
        for j in range(order + 1):
            coeffs[j] += Fraction(c) * sign * Fraction(k, 4) ** j / factorial(j)
    return coeffs


fraction_polys = st.dictionaries(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=5,
).map(LaurentPoly)


class TestHSeries:
    @given(st.one_of(polys, fraction_polys), st.integers(min_value=0, max_value=5))
    def test_power_sums_match_termwise_expansion(self, p, order):
        s = p.to_h_series(order)
        assert [s.coeff(j) for j in range(order + 1)] == h_series_reference(p, order)


    def test_a_expands_to_minus_exp_quarter_h(self):
        s = LaurentPoly.a_power(1).to_h_series(3)
        assert [s.coeff(j) for j in range(4)] == [
            Fraction(-1),
            Fraction(-1, 4),
            Fraction(-1, 32),
            Fraction(-1, 384),
        ]

    def test_loop_value_expands_to_minus_two_cosh(self):
        s = LOOP_VALUE.to_h_series(4)
        assert [s.coeff(j) for j in range(5)] == [
            Fraction(-2),
            Fraction(0),
            Fraction(-1, 4),
            Fraction(0),
            Fraction(-1, 192),
        ]

    @given(polys, polys)
    def test_expansion_is_a_ring_map(self, p, q):
        order = 4
        assert (p * q).to_h_series(order) == p.to_h_series(order) * q.to_h_series(order)
        assert (p + q).to_h_series(order) == p.to_h_series(order) + q.to_h_series(order)

    def test_order_stops_at_its_budget(self):
        budget = poly.MAX_SERIES_ORDER
        s = LOOP_VALUE.to_h_series(budget)
        assert s.order == budget and s.coeff(2) == Fraction(-1, 4)
        with pytest.raises(ValueError, match=f"^truncation order {budget + 1} exceeds the budget"):
            LOOP_VALUE.to_h_series(budget + 1)

    def test_constant_term_is_evaluation_at_minus_one(self):
        p = LaurentPoly({5: 2, -3: 7, 0: -1})
        assert p.to_h_series(2).constant_term() == p.eval_at(-1)

    def test_divide_by_h(self):
        s = HSeries(2, [Fraction(0), Fraction(3), Fraction(-1, 2)])
        t = s.divide_by_h()
        assert t.order == 1
        assert t.constant_term() == 3
        with pytest.raises(ValueError):
            HSeries.constant(1, 2).divide_by_h()
        with pytest.raises(ValueError):
            HSeries(0, [Fraction(0)]).divide_by_h()

    def test_truncation_to_smaller_order(self):
        a = HSeries(3, [Fraction(1), Fraction(1), Fraction(1), Fraction(1)])
        b = HSeries(1, [Fraction(2), Fraction(0)])
        assert (a * b).order == 1
        assert (a + b).coeff(1) == 1

    def test_str_shows_truncation(self):
        s = HSeries(2, [Fraction(-2), Fraction(0), Fraction(-1, 4)])
        assert str(s) == "-2 - 1/4*h^2 + O(h^3)"
