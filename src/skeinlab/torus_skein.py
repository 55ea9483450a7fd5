"""Skein algebra of the once-punctured torus.

The algebra is presented by three generators x, y, z (the meridian, a
longitude, and a slope-one curve) subject to

    A*x*y - A^-1*y*x = (A^2 - A^-2)*z

and its two cyclic companions in (y, z; x) and (z, x; y) (Bullock and
Przytycki, Proc. AMS 2000).  The ordered monomials x^a y^b z^c form a basis,
with exact Laurent polynomials in A as coefficients.  Products are computed
from a table of the right action of one generator on a normal-form monomial,
filled on demand: z appends, y moves left through z^c by
z*y = A^2*y*z + (A^-1 - A^3)*x, and x moves left through z^c by
z*x = A^-2*x*z + (A - A^-3)*y and then through y^b by
y*x = A^2*x*y + (A^-1 - A^3)*z.  A product m1 * x^a y^b z^c applies the
table one generator at a time, so the table only grows with the degrees of
the monomials reached.

Setting A = -e^{h/4} makes the commutator of any two elements divisible by
h; the constant term of commutator/h is the Poisson bracket of the classical
(commutative) limit.  `poisson_bracket` performs that extraction exactly,
returning a commutative polynomial with rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .poly import (LaurentPoly, Scalar, SparseSum, join_signed, power_text, render_laurent,
                   scaled)

Monomial = tuple[int, int, int]
# Normal-form terms with coefficients as bare exponent maps {k: c} of
# Laurent polynomials; the product works on these and wraps them at the end.
Terms = dict[Monomial, dict[int, Scalar]]
_X, _Y, _Z = 0, 1, 2
_NAMES = ("x", "y", "z")

_ONE = {0: 1}
_A2 = {2: 1}
_AM2 = {-2: 1}
_AM1_A3 = {-1: 1, 3: -1}
_A_AM3 = {1: 1, -3: -1}

# m * g in normal form, for a normal-form monomial m and a generator g,
# filled on demand.  An entry's monomials have degree at most deg(m) + 1, so
# the table holds at most three entries per monomial of the degrees reached.
_RIGHT_ACTION: dict[tuple[Monomial, int], Terms] = {}


def _madd(out: Terms, terms: Terms, weight: dict[int, Scalar]) -> None:
    """out += terms * weight, in place on out's own exponent maps."""
    pairs = weight.items()
    for mono, coeffs in terms.items():
        acc = out.get(mono)
        if acc is None:
            acc = out[mono] = {}
        get = acc.get
        for k1, c1 in coeffs.items():
            for k2, c2 in pairs:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2


def _nonzero(terms: Terms) -> Terms:
    out = {}
    for mono, coeffs in terms.items():
        coeffs = {k: c for k, c in coeffs.items() if c}
        if coeffs:
            out[mono] = coeffs
    return out


def _act(terms: Terms, gen: int) -> Terms:
    """Right-multiply normal-form terms by a generator."""
    out: Terms = {}
    for mono, coeffs in terms.items():
        _madd(out, _right_action(mono, gen), coeffs)
    return _nonzero(out)


def _times_z(terms: Terms, n: int = 1) -> Terms:
    return {(a, b, c + n): p for (a, b, c), p in terms.items()}


def _right_action(mono: Monomial, gen: int) -> Terms:
    """mono * gen in normal form.

    z appends.  y moves left through z^c by z*y = A^2*y*z + (A^-1 - A^3)*x,
    and x moves left through z^c by z*x = A^-2*x*z + (A - A^-3)*y, then
    through y^b by y*x = A^2*x*y + (A^-1 - A^3)*z.  Each step peels one
    letter off mono, so the recursion ends at monomials that gen extends.
    """
    key = (mono, gen)
    cached = _RIGHT_ACTION.get(key)
    if cached is not None:
        return cached
    a, b, c = mono
    out: Terms = {}
    if gen == _Z or (gen == _Y and c == 0) or (gen == _X and b == c == 0):
        out[(a + (gen == _X), b + (gen == _Y), c + (gen == _Z))] = _ONE
    elif c:
        # mono = m * z: m * z * g = lead * m * g * z + other * m * h
        m = (a, b, c - 1)
        lead, other, h = (_A2, _AM1_A3, _X) if gen == _Y else (_AM2, _A_AM3, _Y)
        _madd(out, _times_z(_right_action(m, gen)), lead)
        _madd(out, _right_action(m, h), other)
        out = _nonzero(out)
    else:
        # gen is x and mono = m * y: m * y * x = A^2 * m * x * y + (A^-1 - A^3) * m * z
        m = (a, b - 1, 0)
        _madd(out, _act(_right_action(m, _X), _Y), _A2)
        _madd(out, {(a, b - 1, 1): _ONE}, _AM1_A3)
        out = _nonzero(out)
    _RIGHT_ACTION[key] = out
    return out


def _monomial_product(m1: Monomial, m2: Monomial) -> Terms:
    """m1 * x^a y^b z^c, one generator at a time from the left."""
    terms: Terms = {m1: _ONE}
    a, b, c = m2
    for gen in (_X,) * a + (_Y,) * b:
        terms = _act(terms, gen)
    return _times_z(terms, c)


Coeffish = Union[int, Fraction, LaurentPoly]


def _as_poly(c: Coeffish) -> LaurentPoly:
    return c if isinstance(c, LaurentPoly) else LaurentPoly.term(c)


def _monomial(mono) -> Monomial:
    mono = tuple(int(e) for e in mono)
    if len(mono) != 3 or any(e < 0 for e in mono):
        raise ValueError(f"bad monomial {mono!r}")
    return mono  # type: ignore[return-value]


def _display_key(mono: Monomial):
    return (-sum(mono), tuple(-e for e in mono))


def _render_monomial(mono: Monomial) -> str:
    return "*".join(power_text(name, e) for name, e in zip(_NAMES, mono) if e)


class _MonomialSum(SparseSum):
    """Linear combination of monomials x^a y^b z^c, listed in total-degree order."""

    __slots__ = ()
    _UNIT = (0, 0, 0)
    _order = staticmethod(_display_key)

    @classmethod
    def x(cls):
        return cls({(1, 0, 0): 1})

    @classmethod
    def y(cls):
        return cls({(0, 1, 0): 1})

    @classmethod
    def z(cls):
        return cls({(0, 0, 1): 1})


class TorusSkeinElement(_MonomialSum):
    """Linear combination of normal-form monomials x^a y^b z^c."""

    __slots__ = ()
    _ZERO = LaurentPoly.zero()
    _SCALARS = (int, Fraction, LaurentPoly)

    @staticmethod
    def _check(mono, c) -> tuple[Monomial, LaurentPoly]:
        return _monomial(mono), _as_poly(c)

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff: Coeffish = 1) -> "TorusSkeinElement":
        return cls({(a, b, c): coeff})

    def _product(self, right: dict) -> "TorusSkeinElement":
        """Each pair of monomials through the right-action table."""
        result: Terms = {}
        for m1, p1 in self._terms.items():
            for m2, p2 in right.items():
                _madd(result, _monomial_product(m1, m2), (p1 * p2)._terms)
        return self._wrap({m: LaurentPoly._wrap(c) for m, c in result.items()})

    # Bound here, not only inherited, so that they stay in this class's
    # __dict__, where the benchmark's tracer wraps them.
    __mul__ = SparseSum.__mul__
    __pow__ = SparseSum.__pow__

    def specialize(self, a) -> "CommPoly":
        """Evaluate every coefficient at A=a, yielding a commutative polynomial."""
        return CommPoly({m: c.eval_at(a) for m, c in self._terms.items()})

    def __str__(self) -> str:
        return render_skein(self)


def render_skein(elem: "TorusSkeinElement") -> str:
    """Render with monomials in total-degree order, e.g. `A^2*x*y - (A^3 - A^-1)*z`."""
    terms = []
    for mono, poly in elem.items():
        unit = _render_monomial(mono)
        if len(poly._terms) > 1:
            neg = poly._terms[max(poly._terms)] < 0
            terms.append((neg, scaled(f"({render_laurent(-poly if neg else poly)})", unit)))
        else:
            ((k, c),) = poly._terms.items()
            terms.append((c < 0, scaled(abs(c), power_text("A", k), unit)))
    return join_signed(terms)


# ----------------------------------------------------------------------
# commutative limit


class CommPoly(_MonomialSum):
    """Commutative polynomial in x, y, z with numeric coefficients."""

    __slots__ = ()
    _SCALARS = (int, float, complex, Fraction)

    @staticmethod
    def _check(mono, c) -> tuple[Monomial, object]:
        return _monomial(mono), c

    @staticmethod
    def _combine(m1: Monomial, m2: Monomial) -> Monomial:
        return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])

    @classmethod
    def constant(cls, c) -> "CommPoly":
        return cls._constant(c)

    def evaluate(self, x, y, z):
        total = 0
        for (a, b, c), coeff in self._terms.items():
            total = total + coeff * x ** a * y ** b * z ** c
        return total

    def __str__(self) -> str:
        """Real coefficients print signed, complex ones in parentheses."""
        terms = []
        for mono, c in self.items():
            unit = _render_monomial(mono)
            if isinstance(c, complex) and not c.imag:
                c = c.real
            terms.append((False, scaled(f"({str(c).strip('()')})", unit))
                         if isinstance(c, complex) else (c < 0, scaled(abs(c), unit)))
        return join_signed(terms)


def lift(p: CommPoly) -> TorusSkeinElement:
    """Section of the classical limit: monomials with constant coefficients.

    Requires exact (integer or rational) coefficients; the choice of section
    does not affect Poisson brackets because it is unique modulo h.
    """
    table = {}
    for mono, c in p.items():
        if not isinstance(c, (int, Fraction)):
            raise TypeError("lift needs exact integer or rational coefficients")
        table[mono] = LaurentPoly.term(c)
    return TorusSkeinElement(table)


def poisson_bracket(p, q) -> CommPoly:
    """Poisson bracket of the classical limit, extracted from the commutator.

    Computes p*q - q*p, pushes every coefficient through A = -e^{h/4} to
    first order, checks divisibility by h, and returns the h^1 coefficient.
    Inputs may be TorusSkeinElement values or exact CommPoly values (lifted).
    """
    if isinstance(p, CommPoly):
        p = lift(p)
    if isinstance(q, CommPoly):
        q = lift(q)
    comm = p * q - q * p
    table: dict[Monomial, Fraction] = {}
    for mono, coeff in comm.items():
        series = coeff.to_h_series(1)
        if series.constant_term() != 0:
            raise ArithmeticError(
                "commutator has a nonzero classical term; rewriting is inconsistent")
        table[mono] = series.divide_by_h().constant_term()
    return CommPoly(table)


# ----------------------------------------------------------------------
# expression parsing (CLI surface)


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, str]] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("num", text[i:j]))
                i = j
            elif ch in "xyzA":
                self.toks.append(("name", ch))
                i += 1
            elif ch in "+-*^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"unexpected character {ch!r} in expression")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self) -> tuple[str, str]:
        if self.pos >= len(self.toks):
            raise ValueError("unexpected end of expression")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


def parse_skein(text: str) -> TorusSkeinElement:
    """Parse expressions like `2*x^2*y - A^2*z + (x - y)*z`.

    `*` is the noncommutative skein product, applied left to right; `A^k`
    (integer k, possibly negative) injects coefficient monomials.
    """
    toks = _Tokens(text)
    result = _parse_sum(toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input near {toks.take()[1]!r}")
    return result


def _parse_sum(toks: _Tokens) -> TorusSkeinElement:
    negate = False
    if toks.peek() in ("+", "-"):
        negate = toks.take()[0] == "-"
    total = _parse_product(toks)
    if negate:
        total = -total
    while toks.peek() in ("+", "-"):
        op = toks.take()[0]
        term = _parse_product(toks)
        total = total - term if op == "-" else total + term
    return total


def _parse_product(toks: _Tokens) -> TorusSkeinElement:
    total = _parse_power(toks)
    while toks.peek() == "*":
        toks.take()
        total = total * _parse_power(toks)
    return total


def _parse_power(toks: _Tokens) -> TorusSkeinElement:
    base = _parse_atom(toks)
    if toks.peek() != "^":
        return base
    toks.take()
    sign = 1
    if toks.peek() == "-":
        toks.take()
        sign = -1
    kind, text = toks.take()
    if kind != "num":
        raise ValueError("exponent must be an integer")
    n = sign * int(text)
    if n >= 0:
        return base ** n
    if len(base._terms) == 1 and (0, 0, 0) in base._terms:
        return TorusSkeinElement({(0, 0, 0): base._terms[(0, 0, 0)] ** n})
    raise ValueError("negative exponents only apply to coefficient monomials")


def _parse_atom(toks: _Tokens) -> TorusSkeinElement:
    kind, text = toks.take() if toks.peek() is not None else (None, "")
    if kind == "num":
        return TorusSkeinElement({(0, 0, 0): int(text)})
    if kind == "name":
        if text == "x":
            return TorusSkeinElement.x()
        if text == "y":
            return TorusSkeinElement.y()
        if text == "z":
            return TorusSkeinElement.z()
        return TorusSkeinElement({(0, 0, 0): LaurentPoly.a_power(1)})
    if kind == "(":
        inner = _parse_sum(toks)
        if toks.peek() != ")":
            raise ValueError("unbalanced parenthesis")
        toks.take()
        return inner
    raise ValueError(f"unexpected token {text!r}")
