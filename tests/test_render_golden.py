"""Rendered strings of the five printable types on a fixed seeded corpus.

The expected strings live in `golden_render.json` next to this file.  The
corpus mixes integer, Fraction, float and complex coefficients, and includes
sums and products so that a change to the shared arithmetic shows up here as
well as a change to a renderer.  After a deliberate rendering change,
rewrite the file with `python tests/test_render_golden.py` and review the
diff line by line.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from skeinlab.poly import HSeries, LaurentPoly, render_laurent
from skeinlab.qlattice import UqWord
from skeinlab.torus_skein import CommPoly, TorusSkeinElement, render_skein

GOLDEN = Path(__file__).with_name("golden_render.json")


def _exact(rng: random.Random):
    if rng.random() < 0.7:
        return rng.choice([1, -1, rng.randint(-6, 6)])
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _inexact(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([1.0, -1.0, 0.5, -2.5, round(rng.uniform(-3, 3), 3)])
    if kind == 1:
        return complex(rng.choice([1.0, -1.0, -0.5, 2.0]), 0.0)
    if kind == 2:
        return complex(rng.randint(-3, 3), rng.choice([-2, -1, 1, 2]))
    return _exact(rng)


def _laurent(rng: random.Random, terms: int = 4) -> LaurentPoly:
    return LaurentPoly({rng.randint(-8, 8): _exact(rng) for _ in range(rng.randint(1, terms))})


def _monomial(rng: random.Random) -> tuple[int, int, int]:
    return (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))


def _skein(rng: random.Random) -> TorusSkeinElement:
    return TorusSkeinElement({_monomial(rng): _laurent(rng, 3) for _ in range(rng.randint(1, 3))})


def _comm(rng: random.Random, coeff) -> CommPoly:
    return CommPoly({_monomial(rng): coeff(rng) for _ in range(rng.randint(1, 4))})


def _word(rng: random.Random, coeff) -> UqWord:
    letters = ("E", "F", "K", "Ki")
    return UqWord({tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))): coeff(rng)
                   for _ in range(rng.randint(1, 3))})


def corpus(seed: int = 20240611) -> list[tuple[str, str]]:
    """(label, rendered string) pairs, in a fixed order."""
    rng = random.Random(seed)
    out: list[tuple[str, str]] = []
    out.append(("laurent zero", render_laurent(LaurentPoly.zero())))
    out.append(("skein zero", render_skein(TorusSkeinElement.zero())))
    out.append(("comm zero", str(CommPoly.zero())))
    out.append(("uqword zero", str(UqWord.zero())))
    for i in range(80):
        p, q = _laurent(rng), _laurent(rng)
        out.append((f"laurent {i}", render_laurent(p)))
        if i % 2 == 0:
            out.append((f"laurent {i} product", str(p * q)))
            out.append((f"laurent {i} difference", str(p - q)))
        if i % 4 == 0:
            out.append((f"hseries {i}", str(p.to_h_series(3))))
    for i in range(10):
        coeffs = [rng.choice([0, 0, 1, -1, Fraction(rng.randint(-7, 7), rng.randint(1, 5))])
                  for _ in range(4)]
        out.append((f"hseries direct {i}", str(HSeries(3, coeffs))))
    for i in range(60):
        p, q = _skein(rng), _skein(rng)
        out.append((f"skein {i}", render_skein(p)))
        if i % 2 == 0:
            out.append((f"skein {i} product", str(p * q)))
        if i % 3 == 0:
            out.append((f"skein {i} at -1", str(p.specialize(-1))))
            out.append((f"skein {i} at 1/2", str(p.specialize(Fraction(1, 2)))))
    for i in range(40):
        p, q = _comm(rng, _exact), _comm(rng, _exact)
        out.append((f"comm exact {i}", str(p)))
        if i % 2 == 0:
            out.append((f"comm exact {i} product", str(p * q)))
    for i in range(8):
        out.append((f"comm inexact {i}", str(_comm(rng, _inexact))))
    for a in (0.5, complex(0.5, 0), complex(0.5, 0.5), 1j):
        out.append((f"skein at {a}", str(_skein(rng).specialize(a))))
    for i in range(40):
        p, q = _word(rng, _inexact), _word(rng, _inexact)
        out.append((f"uqword {i}", str(p)))
        if i % 2 == 0:
            out.append((f"uqword {i} product", str(p * q)))
    return out


def test_rendered_strings_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = [list(pair) for pair in corpus()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    lines = ",\n".join(json.dumps(list(pair)) for pair in corpus())
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
