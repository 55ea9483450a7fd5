"""Skein algebra of the once-punctured torus.

The algebra is presented by three generators x, y, z (the meridian, a
longitude, and a slope-one curve) subject to

    A*x*y - A^-1*y*x = (A^2 - A^-2)*z

and its two cyclic companions in (y, z; x) and (z, x; y) (Bullock and
Przytycki, Proc. AMS 2000).  The ordered monomials x^a y^b z^c form a basis,
with exact Laurent polynomials in A as coefficients.  Products are computed
from a table of the right action of x or y on a normal-form monomial, filled
on demand (z appends): y moves left through z^c by
z*y = A^2*y*z + (A^-1 - A^3)*x, and x moves left through z^c by
z*x = A^-2*x*z + (A - A^-3)*y and then through y^b by
y*x = A^2*x*y + (A^-1 - A^3)*z.  A product m1 * x^a y^b z^c applies the
table one generator at a time, so the table only grows with the degrees of
the monomials reached; the pairs of one m1 share their walks to x^i y^j.

Inside a product a coefficient, scaled to integers by the lcm of the
denominators on its side, is one piece (low, packed, bound) per residue mod 4
of its A-exponents: the sum of c_k*A^(low + 4k), packed = sum c_k*2^(W*k) for
slot width W, and bound >= sum |c_k|.  Packing evaluates at A^4 = 2^W, a ring
homomorphism, so products and slot-aligned sums are exact, and bounds multiply
and add, whatever W is.  Decoding is unique while bound < 2^(W-1).  A walk
m1 * x^i y^j multiplies unit monomials, so it runs once, on the one table at
64-bit slots; a wider product repacks its walks.  Width and work count are a
product's locals and the table is only filled, so products may run in threads.

Setting A = -e^{h/4} makes the commutator of any two elements divisible by
h; the constant term of commutator/h is the Poisson bracket of the classical
(commutative) limit.  `poisson_bracket` performs that extraction exactly,
returning a commutative polynomial with rational coefficients.  It needs
only S0 = sum c_k and S1 = sum k*c_k of each piece, and reads both from the
packed commutator without decoding it: with M = 2^W - 1, packed is
S0 + M*S1 mod M^2, as (M + 1)^k = 1 + k*M mod M^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Union

from .poly import (MAX_EXPONENT, LaurentPoly, SparseSum, _pack, _parse_expression, _unpack,
                   join_signed, numeric_term, power_text, render_laurent, scaled)

Monomial = tuple[int, int, int]
# Normal-form terms: the pieces of the coefficient of x^a y^b z^c, keyed (a, b, c, low mod 4).
Terms = dict[tuple[int, int, int, int], tuple[int, int, int]]
_X, _Y, _Z = 0, 1, 2
_NAMES = ("x", "y", "z")
_ONE = (0, 1, 1)                                # the piece 1; A^2 is (2, 1, 1)

# Budgets that make oversized input fail fast with a ValueError.  The cost
# of a product that must reorder letters grows like the fifth power of its
# total degree or faster (one core of a 2-vCPU VM, Python 3.11: y^40*x 0.3 s,
# y^15*x^15 1.4 s), so it stops above degree MAX_DEGREE; a product already in
# normal form is one monomial at any degree.  One product also stops after its
# own right actions multiply MAX_PRODUCT_TERMS table terms, as counted by
# `_monomial_product`; the table fills they trigger do not count, so a warm
# table changes nothing.  Over all 19,550 pairs of unit monomials up to degree
# 24 that reorder letters, the largest bound a monomial product tracks grows
# about 3 bits per degree, 36 bits at 17, 47 at 21 and 56 at 24 (z^10*y^14):
# they fit 64-bit slots, so raising MAX_DEGREE means measuring them against _SLOT_BITS again.
MAX_DEGREE = 24
MAX_PRODUCT_TERMS = 150_000

# The slot width, and at it the table of m * g in normal form for a normal-form
# monomial m and a generator g, filled on demand.  An entry's monomials have
# degree at most deg(m) + 1: at most two entries per monomial reached.  Threads
# may fill it at once: an entry depends only on its key, so a race stores equals.
_SLOT_BITS = 64
_RIGHT_ACTION: dict[tuple[Monomial, int], Terms] = {}


def _madd(out: Terms, terms: Terms, weights, width: int) -> None:
    """out += terms * sum(weights): per term and weight a multiply and a shift-aligned add."""
    get = out.get
    for low_w, packed_w, bound_w in weights:
        for (a, b, c, _), (low, packed, bound) in terms.items():
            low += low_w
            key = (a, b, c, low & 3)
            packed *= packed_w
            bound *= bound_w
            prev = get(key)
            if prev is not None:
                low2, packed2, bound2 = prev
                if low2 < low:
                    low, low2, packed, packed2 = low2, low, packed2, packed
                packed += packed2 << width * ((low2 - low) >> 2)
                bound += bound2
            out[key] = (low, packed, bound)


def _act(terms: Terms, gen: int) -> tuple[Terms, int]:
    """Right-multiply terms by a generator, and count the table terms multiplied;
    packed == 0 proves a piece zero while its bound fits."""
    out, work, width = {}, 0, _SLOT_BITS
    for (a, b, c, _), piece in terms.items():
        work += len(entry := _right_action((a, b, c), gen))
        _madd(out, entry, (piece,), width)
    return {key: piece for key, piece in out.items() if piece[1] or piece[2] >> (width - 1)}, work


def _times_z(terms: Terms, n: int = 1) -> Terms:
    return {(a, b, c + n, r): piece for (a, b, c, r), piece in terms.items()}


def _right_action(mono: Monomial, gen: int) -> Terms:
    """mono * gen in normal form for gen x or y, by the rewriting in the module docstring,
    its bounds cut to L1 norms by _unpack, which refuses one past _SLOT_BITS.  Each step
    peels one letter off mono, so the recursion ends at monomials that gen extends."""
    cached = _RIGHT_ACTION.get(key := (mono, gen))
    if cached is not None:
        return cached
    a, b, c = mono
    am1_a3 = (-1, 1 - (1 << _SLOT_BITS), 2)             # A^-1 - A^3
    out: Terms = {}
    if (gen == _Y and c == 0) or (gen == _X and b == c == 0):
        out[(a + (gen == _X), b + (gen == _Y), c, 0)] = _ONE
    elif c:
        # mono = m * z: m * z * g = lead * m * g * z + other * m * h
        m = (a, b, c - 1)
        lead, other, h = (((2, 1, 1), am1_a3, _X) if gen == _Y else     # other: A - A^-3 for x
                          ((-2, 1, 1), (-3, (1 << _SLOT_BITS) - 1, 2), _Y))
        _madd(out, _times_z(_right_action(m, gen)), (lead,), _SLOT_BITS)
        _madd(out, _right_action(m, h), (other,), _SLOT_BITS)
    else:
        # gen is x and mono = m * y: m * y * x = A^2 * m * x * y + (A^-1 - A^3) * m * z;
        # the work of a fill is not the product's, so its count is dropped
        m = (a, b - 1, 0)
        m_x_y, _ = _act(_right_action(m, _X), _Y)
        _madd(out, m_x_y, ((2, 1, 1),), _SLOT_BITS)
        _madd(out, {(a, b - 1, 1, 0): _ONE}, (am1_a3,), _SLOT_BITS)
    _RIGHT_ACTION[key] = out = {
        k: (low, packed, sum(map(abs, _unpack(packed, _SLOT_BITS, bound))))
        for k, (low, packed, bound) in out.items() if packed or bound >> (_SLOT_BITS - 1)}
    return out


def _monomial_product(m1: Monomial, m2: Monomial, walks: dict) -> tuple[Terms, int]:
    """m1 * x^a y^b z^c, one generator at a time from the left, and the table terms multiplied;
    walks, one m1's own, holds each prefix m1 * x^i y^j under (i, j) with the work of its walk."""
    a, b, c = m2
    if not a * (m1[1] + m1[2]) + b * m1[2]:        # no letter of m2 moves
        return {(m1[0] + a, m1[1] + b, m1[2] + c, 0): _ONE}, 0
    degree = sum(m1) + sum(m2)
    if degree > MAX_DEGREE:
        raise ValueError(f"skein product of degree {degree} exceeds the budget of {MAX_DEGREE}")
    if (walk := walks.get((a, b))) is None:
        walk = {m1 + (0,): _ONE}, 0
        for i in range(1, a + b + 1):               # through x^i, then x^a y^(i-a)
            if (step := walks.get(key := (i, 0) if i <= a else (a, i - a))) is None:
                terms, n = _act(walk[0], _Y if key[1] else _X)
                walks[key] = step = terms, walk[1] + n
            walk = step
    return _times_z(walk[0], c), walk[1]


def _pieces(poly: LaurentPoly, scale: int, width: int) -> Terms:
    """poly * scale as the pieces of the monomial 1."""
    _madd(out := {}, {(0, 0, 0, 0): _ONE},
          ((k, int(c * scale), abs(int(c * scale))) for k, c in poly._terms.items()), width)
    return out


def _packed_product(left: dict, right: dict, commutator: bool = False) -> tuple[Terms, int, int]:
    """left * right, or left * right - right * left, of {monomial: LaurentPoly} terms, as
    (pieces, slot width, den): the pieces hold den times the product, each bound below
    2^(width-1).  Each pair of monomials adds its product times the weight p1 * p2, by
    residue.  Each left monomial keeps its walks, made once at _SLOT_BITS on _RIGHT_ACTION,
    for the call: a pass at a wider width repacks them and only weights them again."""
    dl, dr = (lcm(*(c.denominator for p in side.values() for c in p._terms.values()))
              for side in (left, right))
    # start wide enough for the bound of a commutator of monomials in normal form
    top = 2 * prod(sum(int(abs(c) * d) for p in side.values() for c in p._terms.values())
                   for side, d in ((left, dl), (right, dr)))
    orders = [(left, right, dl, dr)] + [(right, left, -dr, dl)] * commutator
    walks: dict[Monomial, dict] = {}
    while True:
        width = max(_SLOT_BITS, top.bit_length() + 8 & -8)
        work, out = 0, {}
        for first, second, s1, s2 in orders:
            second = [(m2, _pieces(p2, s2, width)) for m2, p2 in second.items()]
            for m1, p1 in first.items():
                p1, own = _pieces(p1, s1, width), walks.setdefault(m1, {})
                for m2, p2 in second:
                    if work > MAX_PRODUCT_TERMS:
                        raise ValueError(
                            f"skein product exceeds the budget of {MAX_PRODUCT_TERMS} terms")
                    _madd(weight := {}, p1, p2.values(), width)
                    terms, n = _monomial_product(m1, m2, own)
                    work += n
                    if width != _SLOT_BITS:
                        terms = {k: (low, _pack(_unpack(q, _SLOT_BITS, b), width), b)
                                 for k, (low, q, b) in terms.items()}
                    _madd(out, terms, weight.values(), width)
        top = max((bound for _, _, bound in out.values()), default=0)
        if not top >> (width - 1):
            return out, width, dl * dr


Coeffish = Union[int, Fraction, LaurentPoly]


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
        return _monomial(mono), c if isinstance(c, LaurentPoly) else LaurentPoly.term(c)

    @classmethod
    def monomial(cls, a: int, b: int, c: int, coeff: Coeffish = 1) -> "TorusSkeinElement":
        return cls({(a, b, c): coeff})

    def _product(self, right: dict) -> "TorusSkeinElement":
        """Each pair of monomials through the right-action table, on packed coefficients; each
        piece's balanced digits, over den, go straight into its monomial's exponent map."""
        out, width, den = _packed_product(self._terms, right)
        half, mask = 1 << (width - 1), (1 << width) - 1
        coeffs: dict[Monomial, LaurentPoly] = {}
        for (a, b, c, _), (low, packed, _) in out.items():
            if (poly := coeffs.get((a, b, c))) is None:
                coeffs[(a, b, c)] = poly = LaurentPoly._wrap({})
            terms = poly._terms
            while packed:
                packed += half
                if v := (packed & mask) - half:
                    terms[low] = v if den == 1 else v // den if not v % den else Fraction(v, den)
                packed >>= width
                low += 4
        return self._wrap(coeffs)

    # Bound here, not only inherited, so that it stays in this class's
    # __dict__, where the benchmark's tracer wraps it (as it does __pow__).
    __mul__ = SparseSum.__mul__

    def __pow__(self, n: int) -> "TorusSkeinElement":
        """self ** n; a negative n only for a coefficient monomial.

        The budget of one product, applied to the power at once: every term of
        self^n has degree at least n times the least degree of self's
        monomials, and some ordered pair of them moves a letter when two of x,
        y, z occur.
        """
        degree = n * min(map(sum, self._terms), default=0)
        if degree > MAX_DEGREE and sum(any(m[i] for m in self._terms) for i in range(3)) > 1:
            raise ValueError(f"skein product of degree {degree} exceeds the budget of {MAX_DEGREE}")
        if n >= 0:
            return SparseSum.__pow__(self, n)
        if self._terms.keys() == {(0, 0, 0)}:
            return TorusSkeinElement({(0, 0, 0): self._terms[(0, 0, 0)] ** n})
        raise ValueError("negative exponents only apply to coefficient monomials")

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
        return sum((co * x ** a * y ** b * z ** c for (a, b, c), co in self._terms.items()), 0)

    def __str__(self) -> str:
        """Real coefficients print signed, complex ones in parentheses."""
        return join_signed(numeric_term(c, _render_monomial(mono)) for mono, c in self.items())


def lift(p: CommPoly) -> TorusSkeinElement:
    """Section of the classical limit: monomials with constant coefficients.

    Requires exact (integer or rational) coefficients; the choice of section
    does not affect Poisson brackets because it is unique modulo h.
    """
    if not all(isinstance(c, (int, Fraction)) for c in p._terms.values()):
        raise TypeError("lift needs exact integer or rational coefficients")
    return TorusSkeinElement(p._terms)


def poisson_bracket(p, q) -> CommPoly:
    """Poisson bracket of the classical limit, read off the packed commutator.

    Under A = -e^{h/4} the piece sum of c_k*A^(low + 4k) has h^0 term
    (-1)^low*S0 and h^1 term (-1)^low*(low*S0 + 4*S1)/4, with S0 = sum c_k and
    S1 = sum k*c_k.  With M = 2^W - 1, packed = sum c_k*(M + 1)^k is
    S0 + M*S1 mod M^2, since (M + 1)^k = 1 + k*M mod M^2; so one remainder
    mod M^2 gives both sums as balanced digits base M while |S0| <= bound and
    |S1| <= (slots - 1)*bound are below 2^(W-1).  A piece past that is
    decoded.  Every monomial's h^0 terms must cancel, and its h^1 terms over
    den are the bracket.  Inputs may be TorusSkeinElement values or exact
    CommPoly values (lifted).
    """
    p, q = (lift(e) if isinstance(e, CommPoly) else e for e in (p, q))
    out, width, den = _packed_product(p._terms, q._terms, commutator=True)
    mod = (1 << width) - 1                         # M; balanced digits lie in [-half, half]
    half, square = mod >> 1, mod * mod
    sums: dict[Monomial, tuple[int, int]] = {}
    for (a, b, c, _), (low, packed, bound) in out.items():
        if packed.bit_length() // width * bound > half:     # (slots - 1)*bound: S1 may not fit
            slots = _unpack(packed, width, bound)
            s0, s1 = sum(slots), sum(k * v for k, v in enumerate(slots))
        else:                       # packed + half*(1 + M) = S0 + half + M*(S1 + half) mod M^2
            s1, s0 = divmod((packed + (half << width)) % square, mod)
            s0, s1 = s0 - half, s1 - half
        if low & 1:
            s0, s1 = -s0, -s1
        t0, t1 = sums.get((a, b, c), (0, 0))
        sums[(a, b, c)] = t0 + s0, t1 + low * s0 + 4 * s1
    if any(s0 for s0, _ in sums.values()):
        raise ArithmeticError("commutator has a nonzero classical term; rewriting is inconsistent")
    return CommPoly._wrap({mono: Fraction(s1, 4 * den) for mono, (_, s1) in sums.items()})


# ----------------------------------------------------------------------
# expression parsing (CLI surface)


def parse_skein(text: str) -> TorusSkeinElement:
    """Parse expressions like `2*x^2*y - 1/2*A^2*z + (x - y)*z`.

    `*` is the noncommutative skein product, applied left to right; numbers
    are integers or p/q, and `A^k` (integer k, possibly negative) injects
    coefficient monomials.
    """
    atoms = {"x": TorusSkeinElement.x(), "y": TorusSkeinElement.y(), "z": TorusSkeinElement.z(),
             "A": TorusSkeinElement.monomial(0, 0, 0, LaurentPoly.a_power(1))}
    return _parse_expression(text, TorusSkeinElement, atoms, lambda e: [
        pair for poly in e._terms.values() for pair in poly._terms.items()])
