"""Trace functions on SL(2, C) representations of free groups.

Words in the generators are written as strings of letters, with capitals
denoting inverses: "abA" means a * b * a^-1.  A representation is a mapping
from lowercase generator names to 2x2 matrices of determinant one.

Every 2x2 matrix in skeinlab is its entry tuple (m00, m01, m10, m11).  The
helpers below read, multiply and invert them with +, - and * alone, so exact
entries stay exact.

The punctured torus has free fundamental group on two generators a, b.  Its
character variety embeds in C^3 through the coordinates

    x = -tr rho(a),   y = -tr rho(b),   z = -tr rho(ab),

the sign convention that matches loop values in the skein algebra (a simple
loop evaluates to minus the trace of its holonomy).  `phi_evaluate` pushes a
commutative polynomial in x, y, z to a number through these coordinates.
"""

from __future__ import annotations

import cmath
import functools
import random
from typing import Iterable, Mapping, Sequence

from .torus_skein import CommPoly

Entries = tuple  # a 2x2 matrix as its entries (m00, m01, m10, m11)
IDENTITY: Entries = (1, 0, 0, 1)
Rep = Mapping[str, Entries]


def entries(m) -> Entries:
    """A 2x2 matrix as its entries, read from four entries or from two rows of
    two (nested lists, or an array through its `tolist`)."""
    if hasattr(m, "tolist"):
        m = m.tolist()
    if len(m) == 4:
        return tuple(m)
    (a, b), (c, d) = m
    return a, b, c, d


def mul(x: Entries, y: Entries) -> Entries:
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def product(ms: Sequence[Entries]) -> Entries:
    """Product of a sequence of entry tuples; the identity when empty."""
    return functools.reduce(mul, ms) if ms else IDENTITY


def sl2_inverse(m: Entries) -> Entries:
    """Inverse of a determinant-one 2x2 matrix: its adjugate."""
    return m[3], -m[1], -m[2], m[0]


def trace(m: Entries):
    return m[0] + m[3]


def det(m: Entries):
    return m[0] * m[3] - m[1] * m[2]


def random_source(rng) -> random.Random:
    """rng when it has a `random()` method, else a `random.Random` seeded with it
    (an int or None).  Draws use only `rng.random()`, so an array library's
    generator serves too; a complex draw has parts uniform on [-1, 1)."""
    return rng if hasattr(rng, "random") else random.Random(rng)


def random_sl2(rng=None) -> Entries:
    """Random SL(2, C) matrix: random complex entries scaled to determinant one."""
    rng = random_source(rng)
    while True:
        m = tuple(complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(4))
        if abs(det(m)) > 1e-3:
            s = cmath.sqrt(det(m))
            return tuple(x / s for x in m)


def random_rep(names: Iterable[str], rng=None) -> dict[str, Entries]:
    rng = random_source(rng)
    return {name: random_sl2(rng) for name in names}


def inverse_word(word: str) -> str:
    return word[::-1].swapcase()


def evaluate_word(rep: Rep, word: str) -> Entries:
    """Product of generator images; empty word gives the identity."""
    ms = []
    for ch in word:
        if ch.lower() not in rep:
            raise KeyError(f"generator {ch.lower()!r} missing from representation")
        m = entries(rep[ch.lower()])
        ms.append(sl2_inverse(m) if ch.isupper() else m)
    return product(ms)


def trace_word(rep: Rep, word: str):
    return trace(evaluate_word(rep, word))


def trace_identity_residual(rep: Rep, u: str, v: str):
    """Defect of tr(UV) + tr(UV^-1) = tr(U) tr(V); zero on SL(2)."""
    return (trace_word(rep, u + v) + trace_word(rep, u + inverse_word(v))
            - trace_word(rep, u) * trace_word(rep, v))


def character_point(rep: Rep) -> tuple:
    """Coordinates (x, y, z) = (-tr a, -tr b, -tr ab) of a two-generator rep."""
    return (-trace_word(rep, "a"), -trace_word(rep, "b"), -trace_word(rep, "ab"))


def phi_evaluate(p: CommPoly, rep: Rep) -> complex:
    """Evaluate a polynomial in x, y, z at the character of rep.

    This is the evaluation map from the classical limit of the skein algebra
    to functions on the character variety; it is an algebra homomorphism.
    """
    x, y, z = character_point(rep)
    return complex(p.evaluate(x, y, z))


def conjugate_rep(rep: Rep, g: Entries) -> dict[str, Entries]:
    g = entries(g)
    return {name: product((g, entries(m), sl2_inverse(g))) for name, m in rep.items()}

