"""Output checks computed apart from skeinlab.

Every checker returns None when the value is right and a short message when
it is wrong.  They use only integers, Fractions and numpy, never the
library's own arithmetic, so a fault in a shared layer cannot make a wrong
result agree with its check.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

# ----------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient} dicts


def laurent_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def at_minus_one(p: dict):
    return sum(c if e % 2 == 0 else -c for e, c in p.items())


def at_i(p: dict) -> tuple:
    """Exact value at A = i as a Gaussian integer (real, imaginary)."""
    re_, im = 0, 0
    for e, c in p.items():
        r = e % 4
        if r == 0:
            re_ += c
        elif r == 1:
            im += c
        elif r == 2:
            re_ -= c
        else:
            im -= c
    return re_, im


def mirror(p: dict) -> dict:
    return {-e: c for e, c in p.items()}


_LAURENT_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(A(?:\^(-?\d+))?)?$")


def parse_laurent_text(text: str) -> dict:
    """Parse the CLI's rendering, e.g. 'A^7 + A^3 + A^-1 - A^-9'."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for sign, body in _signed_terms(text):
        m = _LAURENT_TERM.match(body)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"bad Laurent term {body!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        exp = 0 if not m.group(2) else int(m.group(3) or 1)
        out[exp] = out.get(exp, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def _signed_terms(text: str):
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:].strip()
    parts = re.split(r" ([+-]) ", text)
    yield sign, parts[0]
    for i in range(1, len(parts), 2):
        yield (1 if parts[i] == "+" else -1), parts[i + 1]


# ----------------------------------------------------------------------
# bracket


def braid_cycles(word, strands: int) -> int:
    """Number of cycles of the braid's permutation: the closure's components."""
    perm = list(range(strands))
    for s in word:
        i = abs(s)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def torus_closed_form(n: int) -> dict:
    """Bracket of the closure of sigma_1^n on two strands:
    A^n (A^4 + 1 + A^-4) + (-A^-3)^n."""
    out = {n + 4: 1, n: 1, n - 4: 1}
    return laurent_add(out, {-3 * n: (-1) ** n})


def check_braid_bracket(coeffs: dict, word, strands: int):
    """At A = -1 a closure's bracket is (-2)^c; at A = i it is i^e 2^c, with
    c the cycles of the braid permutation and e the exponent sum."""
    c = braid_cycles(word, strands)
    got = at_minus_one(coeffs)
    if got != (-2) ** c:
        return f"bracket at A=-1 is {got}, expected {(-2) ** c}"
    e = sum(1 if s > 0 else -1 for s in word)
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)][e % 4]
    want = (unit[0] * 2 ** c, unit[1] * 2 ** c)
    got_i = at_i(coeffs)
    if got_i != want:
        return f"bracket at A=i is {got_i}, expected {want}"
    return None


def check_equal(got: dict, want: dict, what: str):
    if got != want:
        keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))[:3]
        return f"{what} differs at {keys}"
    return None


# ----------------------------------------------------------------------
# commutative polynomials in x, y, z as {(a, b, c): coefficient} dicts


def comm_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), u in p.items():
        for (a2, b2, c2), v in q.items():
            m = (a1 + a2, b1 + b2, c1 + c2)
            out[m] = out.get(m, 0) + u * v
    return {m: c for m, c in out.items() if c}


def comm_add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def comm_diff(p: dict, var: int) -> dict:
    out: dict = {}
    for m, c in p.items():
        if m[var]:
            m2 = list(m)
            m2[var] -= 1
            out[tuple(m2)] = out.get(tuple(m2), 0) + c * m[var]
    return out


_HALF = Fraction(1, 2)
# {x, y} = -xy/2 - z and its cyclic companions, as (i, j) -> polynomial
GENERATOR_BRACKETS = {
    (0, 1): {(1, 1, 0): -_HALF, (0, 0, 1): -1},
    (1, 2): {(0, 1, 1): -_HALF, (1, 0, 0): -1},
    (2, 0): {(1, 0, 1): -_HALF, (0, 1, 0): -1},
}


def chain_rule_bracket(p: dict, q: dict) -> dict:
    """{p, q} = sum over generator pairs of (d_i p d_j q - d_j p d_i q) {u_i, u_j}."""
    out: dict = {}
    dp = [comm_diff(p, v) for v in range(3)]
    dq = [comm_diff(q, v) for v in range(3)]
    for (i, j), bij in GENERATOR_BRACKETS.items():
        factor = comm_add(comm_mul(dp[i], dq[j]), comm_mul(dp[j], dq[i]), -1)
        out = comm_add(out, comm_mul(factor, bij))
    return {m: Fraction(c) for m, c in out.items()}


_COMM_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:[xyz](?:\^\d+)?\*?)*)$")


def parse_comm_text(text: str) -> dict:
    """Parse the CLI's commutative-polynomial rendering, e.g. '-1/2*x*y - z'."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for sign, body in _signed_terms(text):
        m = _COMM_TERM.match(body)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"bad polynomial term {body!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        mono = [0, 0, 0]
        for f in filter(None, m.group(2).split("*")):
            name, _, power = f.partition("^")
            mono["xyz".index(name)] += int(power or 1)
        key = tuple(mono)
        out[key] = out.get(key, 0) + sign * coeff
    return {m: c for m, c in out.items() if c}


# ----------------------------------------------------------------------
# SL2 matrices


def sl2_inv(m: np.ndarray) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def word_matrix(rep: dict, word: str) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for ch in word:
        m = rep[ch.lower()]
        out = out @ (sl2_inv(m) if ch.isupper() else m)
    return out


def holonomy_trace(conn: dict, loop) -> complex:
    out = np.eye(2, dtype=complex)
    for e, d in loop:
        out = out @ (conn[e] if d == 1 else sl2_inv(conn[e]))
    return complex(np.trace(out))


def check_close(got: complex, want: complex, tol: float, what: str):
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        return f"{what}: got {got}, expected {want}"
    return None


def check_small(value: float, tol: float, what: str):
    if not abs(value) <= tol:
        return f"{what} {abs(value):.2e} exceeds {tol:.0e}"
    return None


# closed forms of the bowtie q-links under the trivial quantum connection
def bowtie_trivial(t: complex) -> tuple:
    return (-(t ** 3 - t ** -1 + 2 * t ** -5), -(t ** 2 + t ** -2), 2 * (t ** 4 + t ** -4))
