"""Quantum lattice gauge field theory on ciliated graphs.

The classical SL(2) holonomies are replaced by elements of the quantized
function algebra, represented here through words in the quantum-group
letters E, F, K, Ki (Ki = K^-1), acted on in the fundamental representation

    rho(K) = diag(t, 1/t),  rho(E) = [[0,1],[0,0]],  rho(F) = [[0,0],[1,0]],

where t is a square root of the quantum parameter q = t^2.  Words multiply
by concatenation; adjacent K Ki pairs cancel, which is sound because K is
group-like and invertible in every representation.  The Hopf operations act
by letter:

    coproduct   D(K) = K (x) K,   D(E) = E (x) K + Ki (x) E,
                D(F) = F (x) K + Ki (x) F,
    antipode    S(K) = Ki,  S(E) = -K E Ki,  S(F) = -K F Ki,
    counit      eps(K) = 1,  eps(E) = eps(F) = 0,

so the antipode needs no reference to t and squares to conjugation by the
charmed element k = K^2, whose trace t^2 + t^-2 is the quantum loop weight.

A quantum holonomy ("q-link") is a collection of edge loops with a chosen
over/under sign at each transverse self-intersection.  Its Wilson
observable decorates the edge words in three stages - R-matrix factors at
crossings, S(. k) on edges run against their orientation, and a k for each
cilium crossed - then traces the product around every loop and applies a
minus sign per loop.  At t = 1 everything collapses to the classical
theory, and the Kauffman bracket skein relation holds among the three
resolutions of any crossing.

Observables are evaluated in the fundamental representation: `wilson_qlink`
maps each edge word to its 2x2 matrix once and applies the antipode as a
linear map on matrices, and the vertex-splitting check contracts operators
on (C^2)^(x 3n) instead of expanding the split words.  The symbolic expansions
(`decorated_words`, `nabla_vertex`) stay public; the tests evaluate them as
the independent oracle for the numeric results.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .lattice import CiliatedGraph, EdgeEnd, Step
from .poly import SparseSum, join_signed

Word = tuple[str, ...]
_LETTERS = ("E", "F", "K", "Ki")
_CANCEL = {("K", "Ki"), ("Ki", "K")}


def _reduce(letters: Iterable[str]) -> Word:
    letters = tuple(letters)
    for ch in letters:
        if ch not in _LETTERS:
            raise ValueError(f"unknown letter {ch!r}")
    return _concat((), letters)


def _concat(w1: Word, w2: Word) -> Word:
    out = list(w1)
    for ch in w2:
        if out and (out[-1], ch) in _CANCEL:
            out.pop()
        else:
            out.append(ch)
    return tuple(out)


class UqWord(SparseSum):
    """Linear combination of reduced words in E, F, K, Ki."""

    __slots__ = ()
    _UNIT = ()
    _SCALARS = (int, float, complex)
    _combine = staticmethod(_concat)

    @staticmethod
    def _check(word, c) -> tuple[Word, complex]:
        return _reduce(word), c

    @staticmethod
    def _order(word: Word):
        return len(word), word

    # -- constructors --------------------------------------------------
    @classmethod
    def unit(cls) -> "UqWord":
        return cls.one()

    @classmethod
    def letter(cls, name: str) -> "UqWord":
        return cls({(name,): 1})

    @classmethod
    def from_word(cls, word: Iterable[str], coeff: complex = 1) -> "UqWord":
        return cls({tuple(word): coeff})

    def __str__(self) -> str:
        return join_signed((False, f"({c})*{'.'.join(w) if w else '1'}") for w, c in self.items())


W_ONE = UqWord.unit()
W_E = UqWord.letter("E")
W_F = UqWord.letter("F")
W_K = UqWord.letter("K")
W_KI = UqWord.letter("Ki")
W_CHARM = UqWord.from_word(("K", "K"))        # the charmed element k = K^2


# ----------------------------------------------------------------------
# Hopf structure


_S_IMAGE: dict[str, tuple[int, Word]] = {
    "K": (1, ("Ki",)),
    "Ki": (1, ("K",)),
    "E": (-1, ("K", "E", "Ki")),
    "F": (-1, ("K", "F", "Ki")),
}


def uq_antipode(w: UqWord) -> UqWord:
    """Antipode: an algebra antihomomorphism, independent of t at word level."""
    table: dict[Word, complex] = {}
    for word, c in w._terms.items():
        sign = 1
        image: Word = ()
        for ch in reversed(word):
            s, rep = _S_IMAGE[ch]
            sign *= s
            image = _concat(image, rep)
        table[image] = table.get(image, 0) + sign * c
    return UqWord._wrap(table)


def uq_counit(w: UqWord) -> complex:
    return sum((c for word, c in w._terms.items()
                if not any(ch in ("E", "F") for ch in word)), 0)


def uq_coproduct(w: UqWord) -> list[tuple[UqWord, UqWord]]:
    """Coproduct as a list of pure tensors; coefficients ride on the left leg."""
    return [(UqWord.from_word(left, c), UqWord.from_word(right))
            for c, (left, right) in uq_coproduct_n(w, 2)]


def _delta_n_letter(ch: str, n: int) -> list[tuple[Word, ...]]:
    if ch in ("K", "Ki"):
        return [((ch,),) * n]
    return [tuple(("Ki",) if j < i else ((ch,) if j == i else ("K",))
                  for j in range(n))
            for i in range(n)]


def uq_coproduct_n(w: UqWord, n: int) -> list[tuple[complex, tuple[Word, ...]]]:
    """Iterated coproduct D^(n-1) as pure tensors of n reduced words."""
    if n < 1:
        raise ValueError("need at least one tensor factor")
    out = []
    for word, c in w.items():
        partial: list[tuple[Word, ...]] = [((),) * n]
        for ch in word:
            cases = _delta_n_letter(ch, n)
            partial = [tuple(_concat(acc[j], case[j]) for j in range(n))
                       for acc in partial for case in cases]
        for words in partial:
            out.append((c, words))
    return out


# ----------------------------------------------------------------------
# fundamental representation and R-matrix


def uq_fundamental(w: UqWord, t: complex) -> np.ndarray:
    """Image of a word combination in the fundamental representation at t."""
    if t == 0:
        raise ValueError("t must be nonzero")
    t = complex(t)
    ti = 1 / t
    m00 = m01 = m10 = m11 = 0j
    for word, coeff in w._terms.items():
        a, b, c, d = coeff, 0j, 0j, coeff           # coeff times the identity,
        for ch in word:                             # then each letter on the right
            if ch == "K":
                a, b, c, d = a * t, b * ti, c * t, d * ti
            elif ch == "Ki":
                a, b, c, d = a * ti, b * t, c * ti, d * t
            elif ch == "E":
                a, b, c, d = 0j, a, 0j, c
            else:
                a, b, c, d = b, 0j, d, 0j
        m00 += a
        m01 += b
        m10 += c
        m11 += d
    return np.array([[m00, m01], [m10, m11]], dtype=complex)


def _antipode_matrix(m: np.ndarray, t: complex) -> np.ndarray:
    """rho(S(x)) from m = rho(x), on the last two axes of a stack of matrices.

    rho(S(x)) = M rho(x)^T M^-1 with M = [[0, -t^2], [1, 0]], that is
    [[a, b], [c, d]] -> [[d, -t^2 b], [-c / t^2, a]]; it agrees with the
    antipode's letter images on K, Ki, E and F and reverses products.
    """
    t2 = complex(t) ** 2
    out = np.empty(np.shape(m), dtype=complex)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -t2 * m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0] / t2
    out[..., 1, 1] = m[..., 0, 0]
    return out


def uq_trace(w: UqWord, t: complex) -> complex:
    return complex(np.trace(uq_fundamental(w, t)))


def charmed_k_matrix(t: complex) -> np.ndarray:
    if t == 0:
        raise ValueError("t must be nonzero")
    return np.array([[t * t, 0], [0, 1 / (t * t)]], dtype=complex)


def r_matrix_terms(t: complex) -> list[tuple[UqWord, UqWord]]:
    """R-matrix as a sum of pure tensors of quantum-group words.

    Generically R = a (K(x)K + Ki(x)Ki) + c (K(x)Ki + Ki(x)K) + (t-t^-3) E(x)F
    with a = t^3/(t^4-1), c = -t/(t^4-1).  At t^4 = 1 the generic
    coefficients blow up but the matrix itself degenerates to a single
    group-like tensor: t*(1(x)1) at t = +-1 and -t*(K(x)K) at t = +-i.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    t = complex(t)
    if abs(t ** 4 - 1) < 1e-12:
        if abs(t * t - 1) < 1e-12:
            return [(W_ONE * t, W_ONE)]
        return [(W_K * (-t), W_K)]
    a = t ** 3 / (t ** 4 - 1)
    c = -t / (t ** 4 - 1)
    return [
        (W_K * a, W_K),
        (W_KI * a, W_KI),
        (W_K * c, W_KI),
        (W_KI * c, W_K),
        (W_E * (t - t ** -3), W_F),
    ]


def _r_matrix_legs(t: complex) -> tuple[np.ndarray, np.ndarray]:
    """The R-matrix as five pure tensors of matrix units, stacked as legs.

    R = t E00(x)E00 + t^-1 E00(x)E11 + (t - t^-3) E01(x)E10 + t^-1 E11(x)E00
    + t E11(x)E11 holds at every nonzero t, so unlike the word legs of
    `r_matrix_terms` no coefficient grows like 1/(t^4 - 1) near t^4 = 1.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    t = complex(t)
    e00, e01, e10, e11 = np.eye(4, dtype=complex).reshape(4, 2, 2)
    alphas = np.array([t * e00, e00 / t, (t - t ** -3) * e01, e11 / t, t * e11])
    return alphas, np.array([e00, e11, e10, e00, e11])


def r_matrix(t: complex) -> np.ndarray:
    """The 4x4 R-matrix, summed from the matrix-unit legs."""
    return sum(np.kron(a, b) for a, b in zip(*_r_matrix_legs(t)))


def yang_baxter_residual(t: complex) -> float:
    """Max-entry defect of R12 R13 R23 = R23 R13 R12 on three tensor factors."""
    r = r_matrix(t)
    eye = np.eye(2)
    r12 = np.kron(r, eye)
    r23 = np.kron(eye, r)
    swap23 = np.zeros((8, 8))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                swap23[a * 4 + c * 2 + b, a * 4 + b * 2 + c] = 1
    r13 = swap23 @ r12 @ swap23
    return float(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12).max())


# ----------------------------------------------------------------------
# q-links


class QLink:
    """Loops on a ciliated graph with over/under signs at double points.

    Each loop is a closed edge path of steps (eid, +-1); an edge may be used
    at most once across all loops, and a vertex at most twice.  A vertex
    passed twice is a transverse double point: its four edge-ends must
    alternate between the two passages in the cilial cyclic order, and the
    crossing list must record a sign there, '+' if the first passage in
    traversal order runs over, '-' if under.
    """

    def __init__(self, loops: Sequence[Sequence[Step]],
                 crossings: Sequence[tuple[object, str]] = ()):
        self.loops = [[(int(e), int(d)) for e, d in loop] for loop in loops]
        self.crossings = [(v, str(sign)) for v, sign in crossings]
        for _, sign in self.crossings:
            if sign not in ("+", "-"):
                raise ValueError(f"crossing sign must be '+' or '-', got {sign!r}")

    def used_edges(self) -> list[int]:
        return [e for loop in self.loops for e, _ in loop]

    def validate(self, graph: CiliatedGraph) -> None:
        _validated_passages(graph, self)


def _validated_passages(graph: CiliatedGraph, qlink: QLink) -> dict[object, list[_Passage]]:
    """Check a q-link against a graph and return its passages by vertex."""
    for loop in qlink.loops:
        graph._check_path(loop, closed=True)
    used = qlink.used_edges()
    if len(used) != len(set(used)):
        raise ValueError("an edge is traversed more than once")
    passages = _passages(graph, qlink)
    if any(len(ps) > 2 for ps in passages.values()):
        raise ValueError("a vertex is visited more than twice")
    transverse = set()
    for v, ps in passages.items():
        if len(ps) == 2 and _is_transverse(_double_ends(graph, passages, v)):
            transverse.add(v)
    listed = [v for v, _ in qlink.crossings]
    if len(listed) != len(set(listed)):
        raise ValueError("duplicate crossing vertex")
    if set(listed) != transverse:
        raise ValueError(
            "crossing signs must be given exactly at transverse double points; "
            f"expected {sorted(map(str, transverse))}, got {sorted(map(str, listed))}")
    return passages


class _Passage(NamedTuple):
    order: tuple[int, int]        # (loop index, arrival step index): traversal order
    loop: int
    in_end: EdgeEnd
    out_end: EdgeEnd


def _step_arrival_end(step: Step) -> EdgeEnd:
    e, d = step
    return (e, 1) if d == 1 else (e, 0)


def _step_departure_end(step: Step) -> EdgeEnd:
    e, d = step
    return (e, 0) if d == 1 else (e, 1)


def _passages(graph: CiliatedGraph, qlink: QLink) -> dict[object, list[_Passage]]:
    out: dict[object, list[_Passage]] = {}
    for li, loop in enumerate(qlink.loops):
        for i, step in enumerate(loop):
            nxt = loop[(i + 1) % len(loop)]
            in_end = _step_arrival_end(step)
            v = graph.end_vertex(in_end)
            p = _Passage((li, i), li, in_end, _step_departure_end(nxt))
            out.setdefault(v, []).append(p)
    for ps in out.values():
        ps.sort(key=lambda p: p.order)
    return out


def _double_ends(graph: CiliatedGraph, passages: Mapping[object, list[_Passage]],
                 vertex: object) -> list[tuple[EdgeEnd, int]]:
    """The four link ends at a twice-visited vertex in cilial order, tagged
    with the passage (0 = first in traversal order, 1 = second) each serves."""
    ps = passages[vertex]
    owner = {}
    for idx, p in enumerate(ps):
        owner[p.in_end] = idx
        owner[p.out_end] = idx
    ends = [(end, owner[end]) for end in graph.ciliation[vertex] if end in owner]
    if len(ends) != 4 or len(owner) != 4:
        raise ValueError(f"double point at {vertex!r} does not use four distinct ends")
    return ends


def _is_transverse(ends: list[tuple[EdgeEnd, int]]) -> bool:
    """Whether the passages alternate around the vertex (cross transversally)."""
    tags = [tag for _, tag in ends]
    return tags in ([0, 1, 0, 1], [1, 0, 1, 0])


def _crossing_ends(graph: CiliatedGraph, passages: Mapping[object, list[_Passage]],
                   vertex: object) -> list[tuple[EdgeEnd, int]]:
    ends = _double_ends(graph, passages, vertex)
    if not _is_transverse(ends):
        raise ValueError(f"passages at {vertex!r} do not alternate (not transverse)")
    return ends


QConnection = Mapping[int, UqWord]


def _as_uq(value) -> UqWord:
    if isinstance(value, UqWord):
        return value
    raise TypeError(f"expected UqWord, got {type(value).__name__}")


def _decorations(graph: CiliatedGraph, qlink: QLink
                 ) -> tuple[list[tuple[EdgeEnd, EdgeEnd, bool]], list[int], list[int]]:
    """Validate a q-link and locate the decorations of its Wilson observable:
    per crossing (cilially first end, second end, first end on the over
    strand?), the edges gaining a k at a cilium, the edges run backwards."""
    passages = _validated_passages(graph, qlink)
    crossings = []
    for vertex, sign in qlink.crossings:
        ends = _crossing_ends(graph, passages, vertex)
        (c0, tag0), (c1, _) = ends[0], ends[1]
        over_tag = 0 if sign == "+" else 1
        crossings.append((c0, c1, tag0 == over_tag))

    # cilium steps: one k for each transition whose incoming end sits after
    # the outgoing end in the cilial order of the vertex where they meet
    cilium_edges = []
    for v, ps in passages.items():
        for p in ps:
            if graph.cilial_position(v, p.in_end) > graph.cilial_position(v, p.out_end):
                cilium_edges.append(p.in_end[0])

    against = [e for loop in qlink.loops for e, d in loop if d == -1]
    return crossings, cilium_edges, against


def decorated_words(graph: CiliatedGraph, qlink: QLink, conn: QConnection,
                    t: complex) -> list[list[UqWord]]:
    """Per R-state, the decorated word products around each loop.

    This exposes the structural content of the Wilson observable: each state
    picks one pure tensor alpha (x) beta of the R-matrix at every crossing,
    decorates edge words (alpha and beta at the crossing ends, S(. k) on
    edges against orientation, k per cilium crossed), and multiplies along
    each loop in traversal order.
    """
    crossings, cilium_edges, against = _decorations(graph, qlink)
    rterms = r_matrix_terms(t)
    out = []
    for combo in itertools.product(rterms, repeat=len(crossings)):
        dec = {e: _as_uq(conn[e]) for loop in qlink.loops for e, _ in loop}
        for (c0, c1, c0_over), (alpha, beta) in zip(crossings, combo):
            d0, d1 = (alpha, beta) if c0_over else (beta, uq_antipode(alpha))
            for (e, side), deco in ((c0, d0), (c1, d1)):
                dec[e] = deco * dec[e] if side == 0 else dec[e] * uq_antipode(deco)
        for e in against:
            dec[e] = uq_antipode(dec[e] * W_CHARM)
        for e in cilium_edges:
            dec[e] = dec[e] * W_CHARM
        products = []
        for loop in qlink.loops:
            word = W_ONE
            for e, _ in loop:
                word = word * dec[e]
            products.append(word)
        out.append(products)
    return out


def wilson_qlink(graph: CiliatedGraph, qlink: QLink, conn: QConnection,
                 t: complex) -> complex:
    """Quantum Wilson observable of a q-link.

    Sums the traces of the decorated loop products over all R-states, with a
    factor of -1 per loop and a counit factor for every unused edge.  The
    decorations of `decorated_words` are applied to the edge matrices in the
    fundamental representation: crossing i's R-matrix legs are stacked along
    axis i, so one broadcast product per loop covers every R-state.
    """
    crossings, cilium_edges, against = _decorations(graph, qlink)
    k = charmed_k_matrix(t)
    dec = {e: uq_fundamental(_as_uq(conn[e]), t) for e in qlink.used_edges()}
    if crossings:
        alphas, betas = _r_matrix_legs(t)
        n = len(crossings)
        for i, (c0, c1, c0_over) in enumerate(crossings):
            shape = [1] * n + [2, 2]
            shape[i] = len(alphas)
            d0, d1 = (alphas, betas) if c0_over else (betas, _antipode_matrix(alphas, t))
            for (e, side), deco in ((c0, d0), (c1, d1)):
                deco = deco.reshape(shape)
                dec[e] = deco @ dec[e] if side == 0 else dec[e] @ _antipode_matrix(deco, t)
    for e in against:
        dec[e] = _antipode_matrix(dec[e] @ k, t)
    for e in cilium_edges:
        dec[e] = dec[e] @ k
    states = 1
    for loop in qlink.loops:
        prod = dec[loop[0][0]]
        for e, _ in loop[1:]:
            prod = prod @ dec[e]
        states = states * np.trace(prod, axis1=-2, axis2=-1)
    total = complex(np.sum(states))
    unused = set(graph.edges) - set(qlink.used_edges())
    for e in unused:
        total *= uq_counit(_as_uq(conn[e]))
    return (-1) ** len(qlink.loops) * total


def skein_residual(graph: CiliatedGraph, d: QLink, d_a: QLink, d_b: QLink,
                   conn: QConnection, t: complex) -> complex:
    """Kauffman relation defect W(d) + t W(d_a) + t^-1 W(d_b) at one crossing.

    d_a and d_b must be the two planar resolutions of a chosen crossing of d;
    the residual vanishes for flat quantum connections.
    """
    return (wilson_qlink(graph, d, conn, t)
            + t * wilson_qlink(graph, d_a, conn, t)
            + (1 / t) * wilson_qlink(graph, d_b, conn, t))


def bowtie_qlinks() -> tuple[QLink, QLink, QLink]:
    """A self-crossing loop on the bowtie graph and its two resolutions.

    On `lattice.bowtie_graph` the loop d runs around both triangles and
    crosses itself at the shared vertex v3, first passage over.  d_a smooths
    the crossing the orientation-reversing way (one loop through all six
    edges), d_b the orientation-preserving way (the two triangle loops).
    The three satisfy W(d) + t W(d_a) + t^-1 W(d_b) = 0 for flat connections.
    """
    d = QLink([[(1, 1), (2, 1), (3, 1), (4, 1), (5, -1), (6, 1)]], [("v3", "+")])
    d_a = QLink([[(1, 1), (2, 1), (3, 1), (6, -1), (5, 1), (4, -1)]])
    d_b = QLink([[(1, 1), (2, 1), (3, 1)], [(4, 1), (5, -1), (6, 1)]])
    return d, d_a, d_b


# ----------------------------------------------------------------------
# gauge transformations


def gauge_act_q(graph: CiliatedGraph, y: UqWord, vertex: object,
                conn: QConnection) -> list[dict[int, UqWord]]:
    """Quantum gauge action of y at a vertex, as a sum of pure-tensor connections.

    The iterated coproduct of y spreads one Sweedler leg onto each incident
    edge-end in cilial order: a source end multiplies the edge word on the
    left, a target end multiplies by the antipode of the leg on the right.
    Summing any gauge-invariant observable over the returned list equals
    eps(y) times its original value.
    """
    ends = graph.ciliation[vertex]
    if not ends:
        raise ValueError(f"vertex {vertex!r} has no incident edge-ends")
    out = []
    for coeff, words in uq_coproduct_n(y, len(ends)):
        c2 = {e: _as_uq(w) for e, w in conn.items()}
        scale = coeff
        for (e, side), word in zip(ends, words):
            leg = UqWord.from_word(word, scale)
            scale = 1
            c2[e] = leg * c2[e] if side == 0 else c2[e] * uq_antipode(leg)
        out.append(c2)
    return out


def classical_to_quantum(conn: Mapping[int, np.ndarray]) -> dict[int, UqWord]:
    """Encode a matrix connection as quantum words with the same image at every t.

    A 2x2 matrix m equals m11*1 + (m00-m11)*EF + m01*E + m10*F in the
    fundamental representation, with no K letters, so the encoding is
    t-independent and restricts to the classical theory at t = 1.
    """
    out = {}
    for e, m in conn.items():
        m = np.asarray(m, dtype=complex)
        out[e] = (UqWord({
            (): m[1, 1],
            ("E", "F"): m[0, 0] - m[1, 1],
            ("E",): m[0, 1],
            ("F",): m[1, 0],
        }))
    return out


# ----------------------------------------------------------------------
# vertex splitting (the coproduct of the theory)


class Tangle(NamedTuple):
    """Combinatorial splitting tangle at a vertex of valence n.

    Each incident edge-end contributes a coupon emitting two strands
    (2i-1, 2i) for coupon i; `permutation` sends strand s to its final
    position, separating first copies (positions 1..n) from second copies
    (positions n+1..2n); `crossings` lists (position, over, under) braid
    swaps in application order, the over strand always an even one.
    """
    n: int
    coupons: tuple[EdgeEnd, ...]
    permutation: tuple[int, ...]
    crossings: tuple[tuple[int, int, int], ...]


def fundamental_tangle(graph: CiliatedGraph, vertex: object) -> Tangle:
    ends = tuple(graph.ciliation[vertex])
    n = len(ends)
    rank = {}
    for s in range(1, 2 * n + 1):
        i = (s + 1) // 2
        rank[s] = i if s % 2 else n + i
    order = list(range(1, 2 * n + 1))
    crossings = []
    changed = True
    while changed:
        changed = False
        for p in range(2 * n - 1):
            a, b = order[p], order[p + 1]
            if rank[a] > rank[b]:
                over, under = (a, b) if a % 2 == 0 else (b, a)
                crossings.append((p + 1, over, under))
                order[p], order[p + 1] = b, a
                changed = True
    permutation = tuple(rank[s] for s in range(1, 2 * n + 1))
    return Tangle(n, ends, permutation, tuple(crossings))


def nabla_vertex(graph: CiliatedGraph, vertex: object, inputs: Sequence[UqWord],
                 t: complex) -> list[tuple[UqWord, ...]]:
    """Split a vertex: coproduct on every incident edge word, then braid.

    `inputs` lists one word per incident edge-end in cilial order.  Each is
    split by the coproduct into two strands, the left Sweedler leg on the
    first copy; the strands braid past each other through the fundamental
    tangle, each crossing left-multiplying the over strand by alpha and the
    under strand by beta for every pure tensor alpha (x) beta of the
    R-matrix; finally the strands sort into first copies then second
    copies.  Returns the resulting sum of pure tensors of length 2n.

    The uniform left multiplication at crossings (rather than an
    orientation-dependent rule) is forced by coassociativity: it is the
    unique side convention, up to the global mirror symmetries of the
    tangle, for which the iterated splittings agree.
    """
    tangle = fundamental_tangle(graph, vertex)
    n = tangle.n
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs at {vertex!r}, got {len(inputs)}")
    rterms = r_matrix_terms(t)

    states: list[dict[int, UqWord]] = [{}]
    for i, w in enumerate(inputs, start=1):
        pairs = uq_coproduct(w)
        nxt = []
        for state in states:
            for left, right in pairs:
                s2 = dict(state)
                s2[2 * i - 1] = left
                s2[2 * i] = right
                nxt.append(s2)
        states = nxt

    for _, over, under in tangle.crossings:
        nxt = []
        for state in states:
            for alpha, beta in rterms:
                s2 = dict(state)
                s2[over] = alpha * s2[over]
                s2[under] = beta * s2[under]
                nxt.append(s2)
        states = nxt

    out = []
    for state in states:
        factors: list[UqWord | None] = [None] * (2 * n)
        for s in range(1, 2 * n + 1):
            factors[tangle.permutation[s - 1] - 1] = state[s]
        out.append(tuple(factors))          # type: ignore[arg-type]
    return out


def _split_matrix(w: UqWord, n: int, t: complex) -> np.ndarray:
    """rho^(x n) of the iterated coproduct D^(n-1)(w), a 2^n x 2^n matrix."""
    return sum((c * functools.reduce(np.kron, [uq_fundamental(UqWord.from_word(x), t)
                                               for x in words])
                for c, words in uq_coproduct_n(w, n)),
               np.zeros((2 ** n, 2 ** n), dtype=complex))


def _apply(psi: np.ndarray, op: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Act with a 2^k x 2^k operator on k axes of a state in (C^2)^(x m)."""
    k = len(axes)
    psi = np.tensordot(op.reshape((2,) * (2 * k)), psi, axes=(range(k, 2 * k), axes))
    return np.moveaxis(psi, range(k), axes)


def _iterate_probes(graph: CiliatedGraph, vertex: object, inputs: Sequence[UqWord],
                    t: complex, probes: Sequence[tuple[np.ndarray, np.ndarray]]
                    ) -> tuple[complex, complex]:
    """Probe values of (nabla (x) id) nabla and (id (x) nabla) nabla on `inputs`.

    Each iterate is a sum of 3n-fold pure tensors X_1 (x) ... (x) X_3n; its
    probe value is the sum of prod_s u_s^T rho(X_s) v_s over the probe pairs
    (u_s, v_s).  It is computed by acting on the product vector of the v_s in
    (C^2)^(x 3n) with the coproducts of the inputs, then the R-matrices of
    the first split, then those of the second, and pairing with the u_s.  A
    strand of the first split that the second split acts on occupies two
    slots, where rho becomes (rho (x) rho) D; since D is an algebra map, every
    factor acting on that strand is mapped the same way.
    """
    tangle = fundamental_tangle(graph, vertex)
    n, perm = tangle.n, tangle.permutation
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs at {vertex!r}, got {len(inputs)}")
    rterms = r_matrix_terms(t)
    r_ops: dict[tuple[int, int], np.ndarray] = {}
    values = []
    for base in (0, n):                   # positions base+1..base+n are split again

        def slots(strand: int) -> tuple[int, ...]:
            pos = perm[strand - 1]
            if base < pos <= base + n:
                j = pos - base
                return (base + perm[2 * j - 2] - 1, base + perm[2 * j - 1] - 1)
            return (pos - 1 + n - base,)

        psi = np.array(1, dtype=complex)
        for _, v in probes:
            psi = np.multiply.outer(psi, v)
        for i, w in enumerate(inputs, start=1):
            axes = slots(2 * i - 1) + slots(2 * i)
            psi = _apply(psi, _split_matrix(w, len(axes), t), axes)
        # crossings of the first split, then of the second: (over slots, under slots)
        outer = [(slots(over), slots(under)) for _, over, under in tangle.crossings]
        inner = [((base + perm[over - 1] - 1,), (base + perm[under - 1] - 1,))
                 for _, over, under in tangle.crossings]
        for ao, au in outer + inner:
            key = (len(ao), len(au))
            if key not in r_ops:
                r_ops[key] = sum(np.kron(_split_matrix(a, key[0], t),
                                         _split_matrix(b, key[1], t)) for a, b in rterms)
            psi = _apply(psi, r_ops[key], ao + au)
        for u, _ in probes:
            psi = np.tensordot(u, psi, axes=(0, 0))
        values.append(complex(psi))
    return values[0], values[1]


def nabla_coassociativity_residual(graph: CiliatedGraph, vertex: object,
                                   inputs: Sequence[UqWord], t: complex,
                                   rng: np.random.Generator) -> float:
    """Relative defect of (nabla (x) id) nabla = (id (x) nabla) nabla.

    Equality is probed by contracting every slot of the two iterates with
    fixed random vectors in the fundamental representation, so the check is
    basis-free and reduces both iterates to one number each.
    """
    n = len(graph.ciliation[vertex])
    probes = [(rng.standard_normal(2) + 1j * rng.standard_normal(2),
               rng.standard_normal(2) + 1j * rng.standard_normal(2))
              for _ in range(3 * n)]
    lv, rv = _iterate_probes(graph, vertex, inputs, t, probes)
    return abs(lv - rv) / max(1.0, abs(lv), abs(rv))
