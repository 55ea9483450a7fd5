"""Exact Laurent polynomials in the bracket variable A, and truncated h-series.

A Laurent polynomial is stored as a map from integer exponents to exact
rational coefficients; zero coefficients are never stored, so equality is
structural.  The h-series type holds the first coefficients of a formal power
series in h with exact rational entries.  The bridge between the two is the
substitution A = -exp(h/4), which sends a Laurent polynomial to its
deformation expansion around the classical point A = -1.
"""

from __future__ import annotations

import cmath
import re
import sys
from fractions import Fraction
from math import factorial, lcm, log10
from operator import add
from typing import Mapping, Union

Scalar = Union[int, Fraction]

# Budgets that make oversized input fail fast with a ValueError.  A parsed
# power of anything but a unit term stops at exponent MAX_EXPONENT, and so
# does its exponent times the span of A-exponents in its base's coefficients,
# which bounds the coefficients of powers such as (1 + A)^n and ((1 + A)^n)^m;
# the spans of all the powers in one text together stop there too.  So does a
# power whose exponent times the bits, less one, of its base's largest
# numerator or denominator passes the interpreter's limit on the digits of an
# integer as text, or a factor whose bits and the product's before it do
# (((9^99)^999)^99, 9^999*9^999).  An h-series stops at MAX_SERIES_ORDER: its
# h^j coefficient has about j log j digits, so order n costs about n^2 (one
# core of a 2-vCPU VM, Python 3.11: order 1000 of a 400-crossing bracket 0.3 s).
MAX_EXPONENT = 1000
MAX_SERIES_ORDER = 1000


def _digit_limit() -> int:
    """The interpreter's limit on an integer's digits as text; 4300 where it is missing or off."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _norm_scalar(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _pack(coeffs: list[int], width: int) -> int:
    """Kronecker substitution: the sum of coeffs[k] * 2^(width*k), for integers
    of magnitude below 2^(width-1) in slots of `width` bits, a multiple of 8."""
    half, size = 1 << (width - 1), width >> 3
    if max(map(abs, coeffs), default=0) >= half:
        raise ValueError(f"a coefficient does not fit a signed slot of {width} bits")
    digits = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
    return int.from_bytes(digits, "little") - _halves(len(coeffs), width)


def _unpack(packed: int, width: int, bound: int) -> list[int]:
    """The slots of `packed`, lowest first and zero-padded, given a bound on
    their magnitudes.  Each is read as the digit c + 2^(width-1), which is
    unique only while bound < 2^(width-1), so any other bound is refused."""
    half, size = 1 << (width - 1), width >> 3
    if bound >= half:
        raise ValueError(f"coefficient bound of {bound.bit_length()} bits does not fit "
                         f"a signed slot of {width} bits")
    slots = packed.bit_length() // width + 1
    if slots <= 16:                     # few slots: peeling them off is cheaper
        out, mask = [], (half << 1) - 1
        for _ in range(slots):
            out.append(((packed := packed + half) & mask) - half)
            packed >>= width
        return out
    data = (packed + _halves(slots, width)).to_bytes(slots * size, "little")
    return [int.from_bytes(data[i:i + size], "little") - half
            for i in range(0, len(data), size)]


def _halves(slots: int, width: int) -> int:
    """The packed value of `slots` slots that each hold 2^(width-1)."""
    return int.from_bytes((bytes((width >> 3) - 1) + b"\x80") * slots, "little")


class SparseSum:
    """Sparse linear combination: a map from keys to nonzero coefficients.

    No zero coefficient is ever stored, so equality is structural.  A
    subclass gives only its key rules: the key of its constant term
    (`_UNIT`), the zero coefficient (`_ZERO`), the scalar types that coerce
    to constants (`_SCALARS`), `_check`, which validates one entry given to
    the public constructor and returns it normalized, `_combine`, the key of
    a product of two keys, and `_order`, the sort key of `items()` (None
    sorts keys as they are); a product that is not a convolution of keys
    replaces `_product` instead of `_combine`.  Everything else lives here:
    constructors, equality and hashing, inspection, addition, negation,
    subtraction, scaling, products and powers.
    """

    __slots__ = ("_terms",)
    _UNIT: object = None
    _ZERO: object = 0
    _SCALARS: tuple[type, ...] = ()
    _order = None

    def __init__(self, terms: Mapping | None = None):
        table: dict = {}
        check = self._check
        for key, c in dict(terms or ()).items():
            key, c = check(key, c)
            prev = table.get(key)
            table[key] = c if prev is None else prev + c
        self._terms = {k: c for k, c in table.items() if c}

    @classmethod
    def _wrap(cls, terms: dict) -> "SparseSum":
        """Wrap terms computed from checked values, dropping zero coefficients."""
        out = object.__new__(cls)
        out._terms = {k: c for k, c in terms.items() if c}
        return out

    @classmethod
    def _constant(cls, c) -> "SparseSum":
        return cls({cls._UNIT: c})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls._constant(1)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, self._SCALARS):
            other = self._constant(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant hashes like the scalar it equals.
        if self._terms.keys() <= {self._UNIT}:
            return hash(self._terms.get(self._UNIT, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, self._SCALARS):
                return NotImplemented
            other = self._constant(other)
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            prev = get(k)
            out[k] = c if prev is None else prev + c
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, type(self)):
            return self + (-other)
        if isinstance(other, self._SCALARS):
            return self + self._constant(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, s):
        """Every coefficient times the scalar s."""
        return self._wrap({k: c * s for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other._terms)
        if isinstance(other, self._SCALARS):
            return self._scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, self._SCALARS):
            return self._scale(other)
        return NotImplemented

    def _product(self, right: dict):
        """self times the terms `right`: the convolution over `_combine`."""
        out: dict = {}
        get = out.get
        combine = self._combine
        right = right.items()
        for k1, c1 in self._terms.items():
            for k2, c2 in right:
                k = combine(k1, k2)
                out[k] = get(k, 0) + c1 * c2
        return self._wrap(out)

    def items(self) -> list:
        """(key, coefficient) pairs, sorted by `_order`."""
        terms = self._terms
        return [(k, terms[k]) for k in sorted(terms, key=self._order)]

    def coeff(self, key):
        """The coefficient of a key, validated as the constructor would."""
        return self._terms.get(self._check(key, self._ZERO)[0], self._ZERO)

    def diff_norm(self, other) -> float:
        """Largest absolute coefficient of self - other."""
        return max(map(abs, (self - other)._terms.values()), default=0.0)

    def __pow__(self, n: int):
        """self ** n for n >= 0 by repeated squaring.

        The base is squared only while bits of n remain, so p ** 2 costs one
        multiplication and p ** 1 none.
        """
        if n < 0:
            raise ValueError(f"negative powers are not defined for {type(self).__name__}")
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return self.one() if result is None else result
            base = base * base

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


class LaurentPoly(SparseSum):
    """Laurent polynomial in A with exact integer or rational coefficients."""

    __slots__ = ()
    _UNIT = 0
    _SCALARS = (int, Fraction)
    _combine = add

    @staticmethod
    def _check(k, c) -> tuple[int, Scalar]:
        if not isinstance(k, int):
            raise TypeError(f"exponent {k!r} is not an integer")
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient {c!r} is not exact")
        return k, _norm_scalar(c)

    @classmethod
    def _wrap(cls, coeffs: dict[int, Scalar]) -> "LaurentPoly":
        """Also turns integral Fractions into ints (only when a Fraction is present)."""
        out = super()._wrap(coeffs)
        if Fraction in map(type, out._terms.values()):
            out._terms = {k: _norm_scalar(c) for k, c in out._terms.items()}
        return out

    @classmethod
    def term(cls, coeff: Scalar, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def a_power(cls, exp: int) -> "LaurentPoly":
        return cls({exp: 1})

    def support(self) -> list[int]:
        return sorted(self._terms)

    # Bound here, not only inherited, so that they stay in this class's
    # __dict__, where the benchmark's tracer wraps them.
    __mul__ = SparseSum.__mul__
    __rmul__ = SparseSum.__rmul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self._terms) == 1:
                ((k, c),) = self._terms.items()
                if c in (1, -1):
                    return LaurentPoly({k * n: c if n % 2 else 1})
            raise ValueError("negative powers only defined for unit monomials")
        return SparseSum.__pow__(self, n)

    def eval_at(self, a: complex) -> complex:
        """Numeric evaluation at a nonzero value of A.

        Int and Fraction values are evaluated exactly, and refused with
        `ValueError`, before any power is computed, when the value could pass
        the integer-to-text limit through its exponents or its coefficients
        (`A^15000` or `10^100*A^14000` at 2, `A^1000000` at 1/3, or at any A
        the sum of 1/p*A^i over the primes p below 10,500).  Any other value
        is refused with `ValueError` when it is nan or infinite, when one of
        its powers overflows or divides by zero, or when the sum is not finite.
        """
        if a == 0:
            raise ValueError("Laurent polynomials cannot be evaluated at A = 0")
        if isinstance(a, (int, Fraction)):
            # at a = p/q the value is a fraction over L * max(|p|, q)^span, L the lcm of the
            # coefficients' denominators, whose numerator is at most n * max |numerator| * L *
            # max(|p|, q)^span for n terms; L stops growing once it alone passes the limit
            a = Fraction(a)
            span = max([0, *self._terms]) - min([0, *self._terms])
            top = max((abs(c.numerator) for c in self._terms.values()), default=1)
            common = 1
            for c in self._terms.values():
                if common.bit_length() <= 4 * _digit_limit():
                    common = lcm(common, c.denominator)
            digits = (span * log10(max(abs(a.numerator), a.denominator))
                      + log10(len(self._terms) * top or 1) + log10(common))
            if digits > _digit_limit():
                raise ValueError(f"A = {a}: an exact value of up to {digits:.0f} digits is past "
                                 f"the integer-to-text limit of {_digit_limit()} digits")
            total: Scalar = 0
            for k, c in self._terms.items():
                total += c * (a ** k)
            return _norm_scalar(Fraction(total))
        if not cmath.isfinite(a):
            raise ValueError(f"A = {a} is not finite")
        try:
            value = sum(c * a ** k for k, c in self._terms.items())
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"A = {a} is out of range: a power of it is not finite") from None
        if not cmath.isfinite(value):
            raise ValueError(f"A = {a} is out of range: the value is not finite")
        return value

    def to_h_series(self, order: int) -> "HSeries":
        """Expand under the substitution A = -exp(h/4), truncated at h^order.

        A^k becomes (-1)^k exp(k h / 4), whose h^j coefficient is
        (-1)^k (k/4)^j / j!.  So the h^j coefficient of the polynomial is the
        power sum s_j = sum_k c_k (-1)^k k^j over 4^j j!, and s_j is an integer
        when the c_k are.
        """
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if order > MAX_SERIES_ORDER:
            raise ValueError(f"truncation order {order} exceeds the budget of {MAX_SERIES_ORDER}")
        exps = list(self._terms)
        terms = [-c if k % 2 else c for k, c in self._terms.items()]
        coeffs = []
        for j in range(order + 1):
            coeffs.append(Fraction(sum(terms), 4 ** j * factorial(j)))
            terms = [c * k for c, k in zip(terms, exps)]
        return HSeries(order, coeffs)

    def __str__(self) -> str:
        return render_laurent(self)


def join_signed(terms) -> str:
    """Join (negative, text) pairs as 'a - b + c'; '0' when there are none."""
    out = ""
    for neg, text in terms:
        if out:
            out += f" - {text}" if neg else f" + {text}"
        else:
            out = f"-{text}" if neg else text
    return out or "0"


def scaled(mag, *units: str) -> str:
    """Text of a magnitude times the nonempty units; a magnitude of 1 drops out."""
    unit = "*".join(u for u in units if u)
    if not unit:
        return str(mag)
    return unit if mag == 1 else f"{mag}*{unit}"


def numeric_term(c, unit: str) -> tuple[bool, str]:
    """(negative, text) of a numeric coefficient times a unit, for join_signed.

    A real coefficient, a complex one with zero imaginary part included,
    prints signed; a complex one prints in parentheses.
    """
    if isinstance(c, complex) and not c.imag:
        c = c.real
    if isinstance(c, complex):
        return False, scaled(f"({str(c).strip('()')})", unit)
    return c < 0, scaled(abs(c), unit)


def power_text(name: str, k: int) -> str:
    """'' for name^0, 'name' for name^1, else 'name^k'."""
    return "" if k == 0 else name if k == 1 else f"{name}^{k}"


def render_laurent(p: LaurentPoly) -> str:
    """Render as e.g. 'A^7 + A^3 + A^-1 - A^-9', highest power first."""
    return join_signed((c < 0, scaled(abs(c), power_text("A", k)))
                       for k, c in reversed(p.items()))


def _span(pairs) -> int:
    """The span of the A-exponents in a collection of (exponent, coefficient) pairs."""
    return max(pairs, default=(0,))[0] - min(pairs, default=(0,))[0]


def _bits(pairs) -> int:
    """The bit length, less one, of the largest numerator or denominator in the pairs."""
    return max([1, *(max(abs(c.numerator), c.denominator).bit_length() for _, c in pairs)]) - 1


def _parse_expression(text: str, cls: type, atoms: dict, exps):
    """Read text in the one grammar of the exact values skeinlab prints:

        sum     = ["+" | "-"] product {("+" | "-") product}
        product = power {"*" power}
        power   = atom ["^" ["-"] integer]
        atom    = integer | integer "/" integer | name | "(" sum ")"

    A number is a constant of `cls` and a name one of `atoms`; `*` multiplies
    left to right, so it may be noncommutative, and `base ^ n` is `base ** n`.
    `exps(value)` lists the (A-exponent, coefficient) pairs of a value's
    coefficients; the span of those exponents is what the budgets count.
    A power is refused when |n|, or |n| times its base's span, exceeds
    MAX_EXPONENT (`(1 + A)^1001`, `(2*x)^1001`), unless the base is a unit
    term, one pair with coefficient +-1 (`A^-5000`, `-x`, `A^3*y`), whose
    power is one term at any n.  A factor is refused, before it is computed,
    when its span and that of the product before it are both nonzero and sum
    past MAX_EXPONENT, and so is a power within its own budget when its span
    and those of the powers computed before it in the text sum past
    MAX_EXPONENT, so a sum of powers is bounded too.  A number and a unit
    term have span 0, so printed values read back: `x^1000*x` prints
    `x^1001`, which parses again.  A power is also refused when |n| times
    the bit length, less one, of its base's largest numerator or denominator
    exceeds the interpreter's limit on the digits of an integer as text,
    `sys.get_int_max_str_digits()` or 4300 (`(9^999)^5`, `((2^1000)^1000)^1000`);
    so is a factor, before it is computed, when its bits by that measure and
    those of the product before it are nonzero and sum past it (`9^999*9^999`).
    """
    toks = re.findall(r"[0-9]+(?:/[0-9]+)?|\S", text)
    for tok in toks:
        if not (tok[0] in "0123456789" or tok in atoms or tok in "+-*^()"):
            raise ValueError(f"unexpected character {tok!r} in expression")
    toks = [""] + toks[::-1]        # a stack read from the end, "" marks the end of text
    spent = 0                       # the spans of the powers computed so far

    def take() -> str:
        if not toks[-1]:
            raise ValueError("unexpected end of expression")
        return toks.pop()

    def parse_sum():
        total = cls()
        op = take() if toks[-1] in ("+", "-") else "+"
        while True:
            term = parse_product()
            total = total - term if op == "-" else total + term
            if toks[-1] not in ("+", "-"):
                return total
            op = take()

    def parse_product():
        total = parse_power(0, 0)
        while toks[-1] == "*":
            take()
            pairs = exps(total)
            total = total * parse_power(_span(pairs), _bits(pairs))
        return total

    def parse_power(used: int, used_bits: int):
        nonlocal spent
        base, n = parse_atom(), None
        if toks[-1] == "^":
            take()
            sign = take() if toks[-1] == "-" else ""
            tok = take()
            if not tok.isdigit():
                raise ValueError("exponent must be an integer")
            n = int(sign + tok)
        pairs = exps(base)
        width, bits, k = _span(pairs), _bits(pairs), 1 if n is None else abs(n)
        span = width * k
        if used and span and used + span > MAX_EXPONENT:
            raise ValueError(f"product of coefficient spans {used} and {span} "
                             f"exceeds the budget of {MAX_EXPONENT}")
        # c^n has more than |n| * (bits of c - 1) bits, none for c = +-1
        limit = _digit_limit()
        if n is not None:
            if abs(n) > MAX_EXPONENT and [c for _, c in pairs] not in ([1], [-1]):
                raise ValueError(f"exponent {n} exceeds the budget of {MAX_EXPONENT}")
            if span > MAX_EXPONENT:                 # never for a unit term, of span 0
                raise ValueError(f"exponent {n} times coefficient span {width} "
                                 f"exceeds the budget of {MAX_EXPONENT}")
            if spent + span > MAX_EXPONENT:
                raise ValueError(f"powers of coefficient spans {spent} and {span} "
                                 f"exceed the budget of {MAX_EXPONENT}")
            if k * bits > limit:
                raise ValueError(f"exponent {n} times coefficient bits {bits} exceeds the "
                                 f"integer-to-text limit of {limit}")
        if used_bits and bits and used_bits + k * bits > limit:
            raise ValueError(f"product of coefficient bits {used_bits} and {k * bits} exceeds "
                             f"the integer-to-text limit of {limit}")
        if n is None:
            return base
        spent += span
        return base ** n

    def parse_atom():
        tok = take()
        if tok[0] in "0123456789":
            num, _, den = tok.partition("/")
            if den and not int(den):
                raise ValueError(f"zero denominator in {tok!r}")
            return cls._constant(Fraction(int(num), int(den)) if den else int(num))
        if tok in atoms:
            return atoms[tok]
        if tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        inner = parse_sum()
        if toks[-1] != ")":
            raise ValueError("unbalanced parenthesis")
        take()
        return inner

    try:
        result = parse_sum()
    except RecursionError:
        raise ValueError("expression nests too deeply") from None
    if toks[-1]:
        raise ValueError(f"trailing input near {toks[-1]!r}")
    return result


def parse_laurent(text: str) -> LaurentPoly:
    """Parse Laurent text in A, such as render_laurent's `A^3 - 1/2*A^-1`."""
    return _parse_expression(text, LaurentPoly, {"A": LaurentPoly.a_power(1)},
                             lambda p: p._terms.items())


class HSeries:
    """Truncated formal power series in h with exact rational coefficients.

    A series of order n knows the coefficients of h^0 .. h^n.  Binary
    operations truncate to the smaller order of the two operands.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: list[Fraction] | tuple[Fraction, ...]):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list length must be order + 1")
        self._order = order
        self._coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)

    @classmethod
    def constant(cls, c: Scalar, order: int) -> "HSeries":
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[0] = Fraction(c)
        return cls(order, coeffs)

    @property
    def order(self) -> int:
        return self._order

    def coeff(self, j: int) -> Fraction:
        if j > self._order:
            raise IndexError(f"series truncated at order {self._order}")
        return self._coeffs[j]

    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def _binary(self, other: "HSeries | Scalar", op) -> "HSeries":
        if isinstance(other, (int, Fraction)):
            other = HSeries.constant(other, self._order)
        n = min(self._order, other._order)
        return HSeries(n, [op(self._coeffs[j], other._coeffs[j]) for j in range(n + 1)])

    def __add__(self, other: "HSeries | Scalar") -> "HSeries":
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other: "HSeries | Scalar") -> "HSeries":
        return self._binary(other, lambda a, b: a - b)

    def __neg__(self) -> "HSeries":
        return HSeries(self._order, [-c for c in self._coeffs])

    def __mul__(self, other: "HSeries | Scalar") -> "HSeries":
        if isinstance(other, (int, Fraction)):
            return HSeries(self._order, [c * other for c in self._coeffs])
        n = min(self._order, other._order)
        coeffs = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                coeffs[i + j] += self._coeffs[i] * other._coeffs[j]
        return HSeries(n, coeffs)

    __rmul__ = __mul__

    def divide_by_h(self) -> "HSeries":
        """Shift down by one power of h.  The constant term must vanish."""
        if self._coeffs[0] != 0:
            raise ValueError("constant term is nonzero, cannot divide by h")
        if self._order == 0:
            raise ValueError("order-0 series cannot be divided by h")
        return HSeries(self._order - 1, list(self._coeffs[1:]))

    def __str__(self) -> str:
        terms = [(c < 0, scaled(abs(c), power_text("h", j)))
                 for j, c in enumerate(self._coeffs) if c]
        return join_signed(terms + [(False, f"O(h^{self._order + 1})")])

    def __repr__(self) -> str:
        return f"HSeries(order={self._order}, coeffs={[str(c) for c in self._coeffs]})"


#: The loop value of the bracket: removing a circle multiplies by -A^2 - A^-2.
LOOP_VALUE = LaurentPoly({2: -1, -2: -1})
