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

Observables are evaluated in the fundamental representation.  The R-legs
and their antipodes are matrix units, which cut the loops into segments, so
a Wilson value is a sum over 2-valued indices of products of segment
entries, contracted crossing by crossing in a greedy order that keeps few
segments open, within the width budget `MAX_QLINK_WIDTH`.  What depends
only on the graph and the q-link is planned once: validation, segments,
order, and per R-leg each slot's matrix unit and power of -t^2 after its
antipodes.  Up to `MAX_QLINK_PLANS` plans are memoized, keyed by the graph
object (graphs are not mutated) and the q-link's loops and crossings, so an
edited q-link is planned again.  A `wilson_qlink` call then forms only
numbers: factor entries, R-leg coefficients and (-t^2)^k.  The vertex split
is checked by acting with sparse operators on a state in (C^2)^(x 3n), a
flat list of 2^(3n) numbers, so 3n is held to the same budget; the symbolic
expansions `decorated_words` and `nabla_vertex` are the tests' oracle for
the numbers.

The public functions that evaluate at t check it once with `_check_t`, and
the private helpers take the checked value.  A t that is 0, not finite, or
so large or small that t^4 or t^-4 overflows raises `ValueError`, where the
R-matrix coefficients would turn into nan or a division by zero.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bracket import frontier_walk, narrow_order
from .characters import Entries, entries, random_source, trace
from .lattice import CiliatedGraph, EdgeEnd, Step
from .poly import SparseSum, join_signed, numeric_term

Word = tuple[str, ...]
_LETTERS = ("E", "F", "K", "Ki")
_CANCEL = {("K", "Ki"), ("Ki", "K")}
Item = tuple[object, int]  # a factor of a decorated edge word and its number of antipodes
# wilson_qlink keys its contraction states by the 2-valued indices of the
# segments open between placed and unplaced crossings; this budget on their
# number caps the states at 2^16 and is checked from the order before any
# state is built.
MAX_QLINK_WIDTH = 16
# wilson_qlink keeps the plan of at most this many (graph, q-link) pairs
MAX_QLINK_PLANS = 128


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
        """Real coefficients print signed, complex ones in parentheses."""
        return join_signed(numeric_term(c, ".".join(w)) for w, c in self.items())


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


def _s_word(word: Word) -> tuple[int, Word]:
    """S of one reduced word as its sign and word: the letters' images, reversed."""
    sign, image = 1, ()
    for ch in reversed(word):
        s, rep = _S_IMAGE[ch]
        sign, image = sign * s, _concat(image, rep)
    return sign, image


def uq_antipode(w: UqWord) -> UqWord:
    """Antipode: an algebra antihomomorphism, independent of t at word level."""
    table: dict[Word, complex] = {}
    for word, c in w._terms.items():
        sign, image = _s_word(word)
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
        out += [(c, words) for words in partial]
    return out


# ----------------------------------------------------------------------
# fundamental representation and R-matrix


def _check_t(t) -> complex:
    """t as a complex number, refused when 0 or when its modulus is not in
    (1e-77, 1e77), so that t^4 and t^-4 are finite; nan and inf are refused."""
    t = complex(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    if not 1e-77 < abs(t) < 1e77:
        raise ValueError(f"t = {t} is out of range: t^4 and t^-4 must be finite")
    return t


def _entries(w: UqWord, t: complex, ti: complex) -> Entries:
    """rho(w) at a checked t, with ti = 1/t, as its entries (m00, m01, m10, m11)."""
    m00 = m01 = m10 = m11 = 0j
    for word, coeff in w._terms.items():
        if not word:
            m00, m11 = m00 + coeff, m11 + coeff
            continue
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
    return m00, m01, m10, m11


def uq_fundamental(w: UqWord, t: complex) -> Entries:
    """Image of a word combination in the fundamental representation at t."""
    return _entries(w, t := _check_t(t), 1 / t)


def uq_trace(w: UqWord, t: complex) -> complex:
    return trace(uq_fundamental(w, t))


def r_matrix_terms(t: complex) -> list[tuple[UqWord, UqWord]]:
    """R-matrix as a sum of pure tensors of quantum-group words.

    Generically R = a (K(x)K + Ki(x)Ki) + c (K(x)Ki + Ki(x)K) + (t-t^-3) E(x)F
    with a = t^3/(t^4-1), c = -t/(t^4-1).  At t^4 = 1 the generic
    coefficients blow up but the matrix itself degenerates to a single
    group-like tensor: t*(1(x)1) at t = +-1 and -t*(K(x)K) at t = +-i.
    """
    t = _check_t(t)
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


def _r_matrix_legs(t: complex) -> list[tuple[int, int, int, int, complex]]:
    """The R-matrix as five pure tensors c E_ij (x) E_kl of matrix units.

    R = t E00(x)E00 + t^-1 E00(x)E11 + (t - t^-3) E01(x)E10 + t^-1 E11(x)E00
    + t E11(x)E11 holds at every nonzero t, so unlike the word legs of
    `r_matrix_terms` no coefficient grows like 1/(t^4 - 1) near t^4 = 1.
    Each leg is listed as (i, j, k, l, c), at a checked t.
    """
    return [(0, 0, 0, 0, t), (0, 0, 1, 1, 1 / t), (0, 1, 1, 0, t - t ** -3),
            (1, 1, 0, 0, 1 / t), (1, 1, 1, 1, t)]


def r_matrix(t: complex) -> list[list[complex]]:
    """The 4x4 R-matrix as four rows, summed from the matrix-unit legs."""
    r = [[0] * 4 for _ in range(4)]
    for i, j, k, l, c in _r_matrix_legs(_check_t(t)):
        r[2 * i + k][2 * j + l] += c
    return r


def yang_baxter_residual(t: complex) -> float:
    """Max-entry defect of R12 R13 R23 = R23 R13 R12 on three tensor factors:
    both sides act by `_act`, R as the sparse map of its matrix-unit legs, on
    the identity, a state whose bits 0-2 index rows and bits 3-5 columns."""
    r = {(2 * i + k, 2 * j + l): c for i, j, k, l, c in _r_matrix_legs(_check_t(t))}
    pairs = ((1, 2), (0, 2), (0, 1))        # R23 acts first on the left side
    lhs = rhs = [complex(i >> 3 == i & 7) for i in range(64)]
    for x, y in zip(pairs, reversed(pairs)):
        lhs, rhs = _act(lhs, r, x), _act(rhs, r, y)
    return max(map(abs, map(operator.sub, lhs, rhs)))


# ----------------------------------------------------------------------
# q-links


class QLink:
    """Loops on a ciliated graph with over/under signs at double points.

    Each loop is a closed edge path of steps (eid, +-1); an edge may be used
    at most once across all loops, and a vertex at most twice.  A vertex
    passed twice is a double point, transverse when its four edge-ends
    alternate between the two passages in the cilial order.  The crossing
    list records a sign at exactly the transverse double points, '+' if the
    first passage in traversal order runs over, '-' if under.
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
        _plan_of(graph, self)


QConnection = Mapping[int, UqWord]


def _edge_word(conn: QConnection, e: int) -> UqWord:
    try:
        w = conn[e]
    except KeyError:
        raise KeyError(f"edge {e} missing from quantum connection") from None
    if not isinstance(w, UqWord):
        raise TypeError(f"expected UqWord, got {type(w).__name__}")
    return w


def _decorations(graph: CiliatedGraph, qlink: QLink) -> dict[int, list[Item]]:
    """Validate a q-link and list each used edge's decorated word, in
    traversal order, as items (w, n): the factor w with n antipodes applied.
    w is the edge id (its connection word), "k" (the charmed element) or
    (x, s, leg), slot s of crossing x holding the leg "alpha" or "beta" of a
    pure tensor alpha (x) beta of the R-matrix.  Slot 0 is at the crossing's
    cilially first end, where the over strand takes alpha (slot 1 beta) and
    the under strand beta (slot 1 S(alpha)).  A slot multiplies the edge
    word on the left at the edge's source and by its antipode on the right
    at its target; an edge run backwards becomes S(. k), and a passage
    across a cilium appends k.

    One walk over the steps records each passage through a vertex: the end
    a step arrives by and the end the next step leaves by.  A passage
    crosses the cilium when its arrival end sits after its departure end in
    the cilial order of the vertex.
    """
    for loop in qlink.loops:
        graph._check_path(loop, closed=True)
    used = qlink.used_edges()
    if len(used) != len(set(used)):
        raise ValueError("an edge is traversed more than once")
    passages: dict[object, list[tuple[EdgeEnd, EdgeEnd]]] = {}
    cilium_edges = set()
    for loop in qlink.loops:
        for (e, d), (e_next, d_next) in zip(loop, loop[1:] + loop[:1]):
            arrival, departure = (e, (1 + d) // 2), (e_next, (1 - d_next) // 2)
            v = graph.end_vertex(arrival)
            passages.setdefault(v, []).append((arrival, departure))
            # _check_path has put both ends at v
            if graph._position[arrival] > graph._position[departure]:
                cilium_edges.add(e)
    if any(len(ps) > 2 for ps in passages.values()):
        raise ValueError("a vertex is visited more than twice")

    # No edge is used twice, so a double point has four distinct ends, two
    # per passage; tagged 0 (first passage) or 1 in cilial order, they
    # alternate exactly when the first and third tags agree.
    transverse = {}
    for v, ps in passages.items():
        if len(ps) == 2:
            tag = {end: i for i, passage in enumerate(ps) for end in passage}
            ends = [end for end in graph.ciliation[v] if end in tag]
            if tag[ends[0]] == tag[ends[2]]:
                transverse[v] = (ends[0], ends[1], tag[ends[0]] == 0)
    listed = [v for v, _ in qlink.crossings]
    if len(listed) != len(set(listed)):
        raise ValueError("duplicate crossing vertex")
    if set(listed) != set(transverse):
        raise ValueError(
            "crossing signs must be given exactly at transverse double points; "
            f"expected {sorted(map(str, transverse))}, got {sorted(map(str, listed))}")
    slots: dict[EdgeEnd, Item] = {}
    for x, (v, sign) in enumerate(qlink.crossings):
        c0, c1, c0_first = transverse[v]
        if c0_first == (sign == "+"):   # over at the first end: alpha there, beta at the second
            slots[c0], slots[c1] = ((x, 0, "alpha"), 0), ((x, 1, "beta"), 0)
        else:                           # under: beta there, S(alpha) at the second
            slots[c0], slots[c1] = ((x, 0, "beta"), 0), ((x, 1, "alpha"), 1)
    words = {}
    for loop in qlink.loops:
        for e, d in loop:
            items = [slots[e, 0], (e, 0)] if (e, 0) in slots else [(e, 0)]
            if (e, 1) in slots:         # a slot at a target end gains an antipode
                w, n = slots[e, 1]
                items.append((w, n + 1))
            if d == -1:
                items = [(w, n + 1) for w, n in reversed(items + [("k", 0)])]
            if e in cilium_edges:
                items.append(("k", 0))
            words[e] = items
    return words


def decorated_words(graph: CiliatedGraph, qlink: QLink, conn: QConnection,
                    t: complex) -> list[list[UqWord]]:
    """Per R-state, the decorated word products around each loop.

    This exposes the structural content of the Wilson observable: each state
    picks one pure tensor alpha (x) beta of the R-matrix at every crossing,
    reads each edge's decorated word from the items of `_decorations` with
    the state's legs in the slots, and multiplies the edges along each loop
    in traversal order.
    """
    words = _decorations(graph, qlink)
    rterms = r_matrix_terms(t)
    values = {}                 # S^n of each factor, once; per R-term in a slot
    for w, n in {item for items in words.values() for item in items}:
        fs = ([pair[w[2] == "beta"] for pair in rterms] if type(w) is tuple
              else [W_CHARM if w == "k" else _edge_word(conn, w)])
        for _ in range(n):
            fs = [uq_antipode(f) for f in fs]
        values[w, n] = fs
    out = []
    for combo in itertools.product(range(len(rterms)), repeat=len(qlink.crossings)):
        dec = {e: functools.reduce(UqWord.__mul__, [
            values[w, n][combo[w[0]] if type(w) is tuple else 0]
            for w, n in items]) for e, items in words.items()}
        out.append([functools.reduce(UqWord.__mul__, [dec[e] for e, _ in loop])
                    for loop in qlink.loops])
    return out


def _check_width(width: int) -> None:
    if width > MAX_QLINK_WIDTH:
        raise ValueError(f"q-link contraction width {width} exceeds the budget of {MAX_QLINK_WIDTH}")


def _plan_of(graph: CiliatedGraph, qlink: QLink) -> tuple:
    return _plan(graph, tuple(map(tuple, qlink.loops)), tuple(qlink.crossings))


@functools.lru_cache(maxsize=MAX_QLINK_PLANS)
def _plan(graph: CiliatedGraph, loops: tuple, crossings: tuple) -> tuple:
    """The plan of a q-link's Wilson value; a refused q-link is not cached.

    The R-leg items of `_decorations` are slots; segment i runs from one
    slot's c E_pq to the next, c' E_p'q', and enters the trace as its entry
    [q, p'].  labels[x] holds the segments (into slot 0, out of slot 0, into
    slot 1, out of slot 1) of crossing x.  Returns the distinct other items
    (w, n); per loop without slots and per segment, its items as indices
    into them; per crossing in `narrow_order`, its `frontier_walk` step with
    positions read as segments and, per R-leg, the indices (p0, q0, p1, q1)
    and powers k0, k1 of its slots and the indices of the segments it opens;
    the peak width; the unused edges; and the number of loops.
    """
    words = _decorations(graph, QLink(loops, crossings))
    index: dict[Item, int] = {}     # the distinct other items, to their positions
    closed, segments = [], []
    labels = [[0] * 4 for _ in crossings]
    slots = [[None, None] for _ in crossings]
    for loop in loops:
        slotted: list[Item] = []
        runs: list[list[int]] = [[]]
        for e, _ in loop:
            for w, n in words[e]:
                if type(w) is tuple:
                    slotted.append((w, n))
                    runs.append([])
                else:
                    runs[-1].append(index.setdefault((w, n), len(index)))
        if not slotted:
            closed.append(runs[0])
            continue
        runs[-1] += runs[0]         # the last segment closes the loop
        base = len(segments)
        segments += runs[1:]
        for i, ((x, s, leg), n) in enumerate(slotted):
            labels[x][2 * s:2 * s + 2] = [base + (i - 1) % len(slotted), base + i]
            # per R-leg (its units do not depend on t), S^n(E_pq) = (-t^2)^k E_p'q'
            # as (p', q', k): S keeps E_01 (k = n) and E_10 (k = -n), swaps E_00, E_11
            units = [r[:2] if leg == "alpha" else r[2:4] for r in _r_matrix_legs(1)]
            slots[x][s] = [(p, q, (q - p) * n) if p != q else ((p + n) % 2, (p + n) % 2, 0)
                           for p, q in units]
    ends = dict(enumerate(labels))
    placed = list(narrow_order(ends))
    order = [x for x, _ in placed]
    peak = max([width for _, width in placed], default=0)
    _check_width(peak)
    walk = []
    for x, (met, paired, opened, survivors) in zip(order, frontier_walk(ends, order)):
        ls = ends[x]
        # entry [row, column]: an in-end (even j) holds the column index
        closing = [(n, j, ls[j], 2 - j % 2, 1 + j % 2) for j, n in met]
        internal = [(ls[j], j, paired[j]) for j in (1, 3) if paired[j] >= 0]
        legs = [((p0, q0, p1, q1), k0, k1, tuple([(p0, q0, p1, q1)[j] for j in opened]))
                for (p0, q0, k0), (p1, q1, k1) in zip(*slots[x])]
        walk.append((closing, internal, legs, survivors))
    return (list(index), closed, segments, walk, peak,
            tuple(set(graph.edges) - set(words)), len(loops))


def wilson_qlink(graph: CiliatedGraph, qlink: QLink, conn: QConnection,
                 t: complex) -> complex:
    """Quantum Wilson observable of a q-link.

    Sums the traces of the decorated loop products over all R-states, with a
    factor of -1 per loop and a counit factor for every unused edge.  Each
    call evaluates the q-link's `_plan`: its factors become entry tuples, the
    R-legs their coefficients at t and the slots' powers of -t^2 numbers, and
    `_contract` sums over the segments' indices.
    """
    factors, closed, segments, walk, width, unused, loops = _plan_of(graph, qlink)
    _check_width(width)
    t = _check_t(t)
    ti, t2, ti2 = 1 / t, t * t, 1 / (t * t)
    ms = []
    for w, n in factors:
        m = (t2, 0, 0, ti2) if w == "k" else _entries(_edge_word(conn, w), t, ti)
        for _ in range(n):
            a, b, c, d = m
            m = d, -t2 * b, -ti2 * c, a
        ms.append(m)
    runs = []                       # the product of each closed loop's and segment's factors
    for run in itertools.chain(closed, segments):
        a, b, c, d = ms[run[0]] if run else (1, 0, 0, 1)
        for i in run[1:]:
            e, f, g, h = ms[i]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        runs.append((a, b, c, d))
    value = functools.reduce(operator.mul, map(trace, runs[:len(closed)]), 1)
    if walk:
        up, down = -t2, -ti2        # (-t^2)^k at index k, for k in -3..3
        powers = [1, up, up * up, up * up * up, down * down * down, down * down, down]
        value *= _contract(walk, [leg[4] for leg in _r_matrix_legs(t)], powers, runs[len(closed):])
    total = complex(value)
    for e in unused:
        total *= uq_counit(_edge_word(conn, e))
    return (-1) ** loops * total


def _contract(walk: list[tuple], coeffs: list[complex], powers: list[complex],
              segments: list[Entries]):
    """Sum over R-states and segment indices of the products of entries.

    In R-state r, a crossing has the coefficient coeffs[r] and, by its plan
    state, powers[k0] E_(p0)(q0) and powers[k1] E_(p1)(q1) in its slots, with
    powers[k] = (-t^2)^k.  Along the plan's `walk`, a state is keyed by the
    indices of the segments open between placed and unplaced crossings, so
    the work follows the width of that frontier rather than 5^crossings.
    """
    states: dict[tuple[int, ...], object] = {(): 1}
    for closing, internal, legs, survivors in walk:
        closing = [(n, j, segments[s], a, b) for n, j, s, a, b in closing]
        # per R-state: its weight with the segments inside this crossing
        steps = []
        for coeff, (idx, k0, k1, born) in zip(coeffs, legs):
            w = coeff * powers[k0] * powers[k1]
            for s, j_out, j_in in internal:
                w = w * segments[s][2 * idx[j_out] + idx[j_in]]
            if w:
                steps.append((w, idx, born))
        new: dict[tuple[int, ...], object] = {}
        for key, value in states.items():
            kept = tuple(key[n] for n in survivors)
            for w, idx, born in steps:
                v = value * w
                for n, j, seg, a, b in closing:
                    v = v * seg[a * key[n] + b * idx[j]]
                new[kept + born] = new.get(kept + born, 0) + v
        states = {key: v for key, v in new.items() if v}
    return states.get((), 0)


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

    The iterated coproduct of y spreads one Sweedler leg, a reduced word, onto
    each incident edge-end in cilial order: a source end multiplies the edge
    word on the left, a target end by the leg's antipode on the right, and a
    loop edge's two ends act in sequence.  Summing any gauge-invariant
    observable over the returned list equals eps(y) times its original value.
    """
    ends = graph.ciliation[vertex]
    if not ends:
        raise ValueError(f"vertex {vertex!r} has no incident edge-ends")
    base = {e: _edge_word(conn, e) for e in [*conn, *(e for e, _ in ends)]}
    acted: dict[tuple[int, Word], UqWord] = {}      # (end, leg) -> the edge word it made there
    out = []
    for coeff, legs in uq_coproduct_n(y, len(ends)):
        c2 = dict(base)
        for end, ((e, side), leg) in enumerate(zip(ends, legs)):
            w = c2[e]
            # a loop edge's second end acts on what its first end made, never reused
            if w is not base[e] or (end, leg) not in acted:
                if side == 0:
                    terms = {_concat(leg, k): c for k, c in w._terms.items()}
                else:
                    sign, image = _s_word(leg)
                    terms = {_concat(k, image): c * sign for k, c in w._terms.items()}
                acted[end, leg] = UqWord._wrap(terms)
            c2[e] = acted[end, leg]
        if coeff != 1:                  # the term's coefficient, once
            c2[ends[0][0]] = c2[ends[0][0]]._scale(coeff)
        out.append(c2)
    return out


def classical_to_quantum(conn: Mapping[int, Entries]) -> dict[int, UqWord]:
    """Encode a matrix connection as quantum words with the same image at every t.

    A 2x2 matrix m equals m11*1 + (m00-m11)*EF + m01*E + m10*F in the
    fundamental representation, with no K letters, so the encoding is
    t-independent and restricts to the classical theory at t = 1.  The
    entries are read by `characters.entries` and kept as they are.
    """
    out = {}
    for e, m in conn.items():
        a, b, c, d = entries(m)
        out[e] = UqWord({(): d, ("E", "F"): a - d, ("E",): b, ("F",): c})
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
    rank = {s: (s + 1) // 2 + (0 if s % 2 else n) for s in range(1, 2 * n + 1)}
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
        states = [{**state, 2 * i - 1: left, 2 * i: right}
                  for state in states for left, right in pairs]
    for _, over, under in tangle.crossings:
        states = [{**state, over: alpha * state[over], under: beta * state[under]}
                  for state in states for alpha, beta in rterms]
    strands = sorted(range(1, 2 * n + 1), key=lambda s: tangle.permutation[s - 1])
    return [tuple(state[s] for s in strands) for state in states]


def _split_op(tensors: Iterable[tuple[complex, tuple[Word, ...]]], t: complex) -> dict:
    """The sum of c rho(x_1) (x) ... (x) rho(x_k) over pure tensors (c, (x_1, ..., x_k))
    at a checked t, as a sparse map {(row, col): entry} over k-bit indices, x_1's bit on top."""
    op: dict[tuple[int, int], complex] = {}
    for c, words in tensors:
        part = {(0, 0): complex(c)}
        for word in words:
            m = _entries(UqWord._wrap({word: 1}), t, 1 / t)
            part = {(2 * r + i, 2 * s + j): v * m[2 * i + j] for (r, s), v in part.items()
                    for i in (0, 1) for j in (0, 1) if m[2 * i + j]}
        for key, v in part.items():
            op[key] = op.get(key, 0) + v
    return op


@functools.lru_cache(maxsize=32)
def _layout(bits: int, positions: tuple[int, ...]) -> tuple[operator.itemgetter, ...]:
    """Getters that reorder a state over `bits` bits, bit 0 the top one, so that
    the bits at `positions` become the top ones in that order, and back."""
    lead = positions + tuple(p for p in range(bits) if p not in positions)
    order = sorted(range(1 << bits), key=lambda i: [i >> (bits - 1 - p) & 1 for p in lead])
    back = sorted(range(1 << bits), key=order.__getitem__)     # the inverse permutation
    return operator.itemgetter(*order), operator.itemgetter(*back)


def _act(psi: Sequence[complex], op: dict, positions: Sequence[int]) -> tuple[complex, ...]:
    """A sparse operator over k-bit indices, its top bit at positions[0], acting
    on k bits of a state in (C^2)^(x m), a flat sequence of 2^m entries: each
    row is a `map` over the runs of its columns in the reordered state."""
    to, back = _layout(len(psi).bit_length() - 1, tuple(positions))
    psi, size = to(psi), len(psi) >> len(positions)
    rows: dict[int, Iterable[complex]] = {}
    for (r, c), x in op.items():
        term = map(x.__mul__, psi[c * size:(c + 1) * size])
        rows[r] = map(operator.add, rows[r], term) if r in rows else term
    zero = (0j,) * size
    return back(list(itertools.chain.from_iterable(
        rows.get(r, zero) for r in range(1 << len(positions)))))


def _outer(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    return [x * y for x in a for y in b]


def _iterate_probes(graph: CiliatedGraph, vertex: object, inputs: Sequence[UqWord],
                    t: complex, probes: Sequence[tuple[Sequence[complex], Sequence[complex]]]
                    ) -> tuple[complex, complex]:
    """Probe values of (nabla (x) id) nabla and (id (x) nabla) nabla on `inputs`.

    Each iterate is a sum of 3n-fold pure tensors X_1 (x) ... (x) X_3n; its
    probe value is the sum of prod_s u_s^T rho(X_s) v_s over the probe pairs
    (u_s, v_s).  Each input's coproduct acts on the product of the v_s in its
    own slots; the state in (C^2)^(x 3n) formed from those is acted on by the
    R-matrices of the first split, then the second, and paired with the u_s.
    A strand of the first split that the second splits occupies two slots,
    where rho becomes (rho (x) rho) D; since D is an algebra map, every
    factor acting on that strand is mapped the same way.
    """
    tangle = fundamental_tangle(graph, vertex)
    n, perm = tangle.n, tangle.permutation
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs at {vertex!r}, got {len(inputs)}")
    t = _check_t(t)
    rterms = r_matrix_terms(t)
    pairing = functools.reduce(_outer, [u for u, _ in probes])
    r_ops: dict[tuple[int, int], dict] = {}
    values = []
    for base in (0, n):                   # positions base+1..base+n are split again
        def slots(strand: int) -> tuple[int, ...]:
            pos = perm[strand - 1]
            if base < pos <= base + n:
                j = pos - base
                return (base + perm[2 * j - 2] - 1, base + perm[2 * j - 1] - 1)
            return (pos - 1 + n - base,)

        psi, order = [1 + 0j], ()
        for i, w in enumerate(inputs, start=1):
            axes = slots(2 * i - 1) + slots(2 * i)
            vec = functools.reduce(_outer, [probes[a][1] for a in axes])
            op = _split_op(uq_coproduct_n(w, len(axes)), t)
            psi, order = _outer(psi, _act(vec, op, range(len(axes)))), order + axes
        psi = _layout(3 * n, order)[1](psi)        # from the inputs' slot order to 0..3n-1
        # crossings of the first split, then of the second: (over slots, under slots)
        outer = [(slots(over), slots(under)) for _, over, under in tangle.crossings]
        inner = [((base + perm[over - 1] - 1,), (base + perm[under - 1] - 1,))
                 for _, over, under in tangle.crossings]
        for ao, au in outer + inner:
            key = (len(ao), len(au))
            if key not in r_ops:
                r_ops[key] = _split_op([(ca * cb, wa + wb) for a, b in rterms
                                        for ca, wa in uq_coproduct_n(a, key[0])
                                        for cb, wb in uq_coproduct_n(b, key[1])], t)
            psi = _act(psi, r_ops[key], ao + au)
        values.append(sum(map(operator.mul, pairing, psi)))
    return values[0], values[1]


def nabla_coassociativity_residual(graph: CiliatedGraph, vertex: object,
                                   inputs: Sequence[UqWord], t: complex, rng) -> float:
    """Relative defect of (nabla (x) id) nabla = (id (x) nabla) nabla.

    Equality is probed by contracting every slot of the two iterates with
    fixed random vectors in the fundamental representation, so the check is
    basis-free and reduces both iterates to one number each.  The vectors are
    drawn as `characters.random_sl2` draws its entries, from `random_source(rng)`.
    """
    n = len(graph.ciliation[vertex])
    if 3 * n > MAX_QLINK_WIDTH:
        raise ValueError(f"a probe state of 2^{3 * n} entries exceeds the budget "
                         f"of 2^{MAX_QLINK_WIDTH}")
    rng = random_source(rng)
    draws = [complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(12 * n)]
    probes = [(draws[4 * s:4 * s + 2], draws[4 * s + 2:4 * s + 4]) for s in range(3 * n)]
    lv, rv = _iterate_probes(graph, vertex, inputs, t, probes)
    return abs(lv - rv) / max(1.0, abs(lv), abs(rv))
