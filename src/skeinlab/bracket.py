"""Kauffman bracket evaluation for framed link diagrams.

Two independent evaluators are provided.  `bracket_statesum` expands all 2^n
smoothings in Gray-code order; one walk along a loop decides whether switching
a crossing merges two loops, splits one or keeps the count, by a rule that
holds on every 4-valent map, planar or not; it is exponential.
`bracket_tl_sweep` processes crossings one at a time, tracking a frontier of
open strand-ends up to the pairing they induce through the processed region.
Loop closures contribute delta = -A^2 - A^-2 factors as they happen, so the
cost is governed by the frontier width rather than the crossing count.  The
tests check both against oracles of their own, such as `two_walk_statesum`
and `smoothing_oracle`.

Both return the bracket of the diagram itself: no writhe normalization is
applied, so a kink scales the result by -A^{+-3} and a split unknot
multiplies it by delta.  The empty diagram evaluates to 1.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .diagram import Crossing, LinkDiagram, _chains, smoothing_weld_positions
from .poly import LOOP_VALUE, LaurentPoly, _pack, _unpack

MAX_CROSSINGS = 24  # default budget of the state sum, which visits 2^n states (24: about 17 s)
MAX_WIDTH = 12      # default budget of the sweep's frontier of open strand-ends
MAX_FREE_LOOPS = 1000  # budget of a diagram's crossingless circles, each a factor of delta
MAX_SWEEP_CROSSINGS = 500  # budget of the sweep, whose coefficient tables grow with n
Item = TypeVar("Item")


def bracket_statesum(d: LinkDiagram, max_crossings: int = MAX_CROSSINGS) -> LaurentPoly:
    """Sum A^(a-b) delta^loops over all 2^n smoothings.

    Dart 4i + p is position p of the i-th crossing; `alpha` pairs the two
    darts of each arc, and a state's smoothings weld the darts of each
    crossing in two pairs.  A loop alternates arcs and welds, and
    nxt[t] = alpha[weld[t]] steps along it, so every loop is two cycles of
    `nxt`, one per direction.  States are visited in Gray-code order, so
    consecutive states differ at one crossing i, whose welds (a, b), (c, e)
    become (b, x), (a, y) for some {x, y} = {c, e}.  One walk from a along
    `nxt` decides the change: it returns to a without passing c or e when
    the two welds lie on different loops, and any reconnection of two loops
    merges them (-1).  Otherwise it first meets one of c, e, say x, and the
    loop reads a b P x y Q: the new welds close P and Q into two loops
    exactly when b is welded to x (+1), and into one when b is welded to y.
    The argument uses only the cyclic order of darts along the loops, never
    faces, so it holds on non-planar maps.  The walk steps only onto darts
    that it then leaves through their welds, and it leaves a towards b, so
    it never steps onto b: it stops at the first dart of crossing i it meets.
    """
    if d.free_loops > MAX_FREE_LOOPS:
        raise ValueError(f"{d.free_loops} free loops exceeds the budget of {MAX_FREE_LOOPS}")
    n = d.crossing_count
    if n > max_crossings:
        raise ValueError(f"{n} crossings exceeds the state-sum cap of {max_crossings}")
    cids = d.crossing_ids()
    index = {cid: i for i, cid in enumerate(cids)}
    alpha = [0] * (4 * n)
    for d1, d2 in d.arcs().values():
        i1 = 4 * index[d1[0]] + d1[1]
        i2 = 4 * index[d2[0]] + d2[1]
        alpha[i1], alpha[i2] = i2, i1

    # A tally index is stride * (number of B-smoothings) + loops, as a
    # state has at most 2n loops.  A switch of crossing i walks from dart
    # 4i, adds jump[p] to the index, p the position the walk stops at, and
    # sets nxt at the crossing's darts to `new`.
    stride = 2 * n + 1
    nxt = [0] * (4 * n)
    upcoming: list[tuple[list[int], list[int]]] = []   # per crossing, its next switch
    after: list[tuple[list[int], list[int]]] = []      # and the one after that
    for i, cid in enumerate(cids):
        weld = []
        for kind in ("A", "B"):
            (p, q), (r, s) = smoothing_weld_positions(d.crossing(cid), kind)
            pair = [0] * 4
            pair[p], pair[q], pair[r], pair[s] = q, p, s, r
            weld.append(pair)
        switches = []
        for old, new, move in ((weld[0], weld[1], stride), (weld[1], weld[0], -stride)):
            b = old[0]
            jump = [move + (p == new[b]) for p in range(4)]
            jump[0] = move - 1
            switches.append((jump, [alpha[4 * i + new[p]] for p in range(4)]))
        upcoming.append(switches[0])                # to B
        after.append(switches[1])                   # back to A
        nxt[4 * i:4 * i + 4] = switches[1][1]       # the all-A state

    # the all-A state's loops are the classes of alpha and its welds
    idx = _chains([*enumerate(alpha), *enumerate(nxt)])[1]
    counts = [0] * ((n + 1) * stride)
    counts[idx] = 1

    # Step s of the Gray code switches crossing ctz(s).  The steps run in
    # blocks of 2^r along a fixed ruler, whose last entry is the step that
    # opens the next block.
    r = min(n, 10)
    ruler = [(s & -s).bit_length() - 1 for s in range(1, 1 << r)] + [0]
    blocks = 1 << (n - r)
    for block in range(1, blocks + 1):
        if block == blocks:
            ruler.pop()                 # the last state has no successor
        else:
            ruler[-1] = r + (block & -block).bit_length() - 1
        for i in ruler:
            jump, new = upcoming[i]
            upcoming[i], after[i] = after[i], upcoming[i]
            t = nxt[4 * i]
            while t >> 2 != i:
                t = nxt[t]
            idx += jump[t & 3]
            counts[idx] += 1
            nxt[4 * i:4 * i + 4] = new

    by_loops: dict[int, dict[int, int]] = {}
    for idx, mult in enumerate(counts):
        if mult:
            b_count, loops = divmod(idx, stride)
            by_loops.setdefault(loops, {})[n - 2 * b_count] = mult
    result = sum((LaurentPoly(powers) * LOOP_VALUE ** loops
                  for loops, powers in by_loops.items()), LaurentPoly.zero())
    return result * LOOP_VALUE ** d.free_loops if d.free_loops else result


def narrow_order(ends: Mapping[Item, Sequence[Hashable]]) -> Iterator[tuple[Item, int]]:
    """Greedy order of items that keeps the frontier of open labels narrow.

    `ends` maps each item id to its labels; every label belongs to two
    item slots, and is open from the placement of its first item to that
    of its second.  Each step places the item whose placement changes the
    frontier width the least, ties going to the smaller id, and yields it
    with the width after it.  An item's change starts at the number of its
    labels held once, all of which it would open; a placement that opens a
    label turns it from one the other holder would open (+1) into one it
    would close (-1).  The changes sit in a heap with lazy invalidation.
    """
    holders: dict[Hashable, list[Item]] = {}
    for item, labels in ends.items():
        for label in labels:
            holders.setdefault(label, []).append(item)
    pending = {item: sum(labels.count(label) == 1 for label in labels)
               for item, labels in ends.items()}
    heap = [(change, item) for item, change in pending.items()]
    heapq.heapify(heap)
    width = 0
    while heap:
        change, item = heapq.heappop(heap)
        if pending.get(item) != change:
            continue                    # placed already, or a stale entry
        del pending[item]
        width += change
        yield item, width
        for label in ends[item]:
            for other in holders[label]:
                if other in pending:
                    pending[other] -= 2
                    heapq.heappush(heap, (pending[other], other))


def frontier_walk(ends: Mapping[Item, Sequence[Hashable]], order: Iterable[Item]
                  ) -> Iterator[tuple[list[tuple[int, int]], list[int], list[int], list[int]]]:
    """Walk the frontier, the labels met once so far, along `order`.

    `ends` is as for `narrow_order`.  Per item this yields `(closing, paired,
    opened, survivors)`: the (position, frontier index) pairs of the labels
    met again; per position, the other position of a label the item holds
    twice, else -1; the positions of the labels opened; and the frontier
    indices that stay open.  The next frontier is the survivors followed by
    the opened labels.
    """
    frontier: list[Hashable] = []
    for item in order:
        labels = ends[item]
        where = {label: i for i, label in enumerate(frontier)}
        closing = []
        paired = [-1] * len(labels)
        first: dict[Hashable, int] = {}     # labels new here, to their first position
        for p, label in enumerate(labels):
            i = where.get(label)
            if i is not None:
                closing.append((p, i))
            elif label in first:
                q = first.pop(label)
                paired[p], paired[q] = q, p
            else:
                first[label] = p
        opened = list(first.values())
        survivors = [i for i, label in enumerate(frontier) if label not in labels]
        yield closing, paired, opened, survivors
        frontier = [frontier[i] for i in survivors] + [labels[p] for p in opened]


def sweep_order(d: LinkDiagram, max_width: int = MAX_WIDTH) -> list[int]:
    """Greedy crossing order keeping the frontier of open strand-ends narrow.

    The order is `narrow_order` over the crossings' strand-end labels.
    When it exceeds `max_width`, the crossing-id order is tried before
    giving up (for a braid closure that is the word order, of width at most
    twice the strand count).
    """
    cids = d.crossing_ids()
    ends = {cid: d.crossing(cid).ends for cid in cids}
    order: list[int] = []
    for cid, width in narrow_order(ends):
        if width > max_width:
            if max(len(s) + len(o) for _, _, o, s in frontier_walk(ends, cids)) <= max_width:
                return cids
            raise ValueError(f"frontier width {width} exceeds cap {max_width}")
        order.append(cid)
    return order


# The routes of both smoothings of a crossing, each with its power of A,
# keyed by the crossing's slots and its over_first: a pure function of at
# most 2 * 5^4 keys, so one table serves every sweep.
_ROUTES: dict[tuple[tuple[int, ...], int], tuple[tuple, ...]] = {}


def _smoothing_routes(slot: tuple[int, ...], x: Crossing) -> tuple[tuple, ...]:
    """Join a crossing's positions through each smoothing and the outside.

    `slot[p]` is the position that p reaches outside the crossing, or -1 if
    p leads to the frontier.  Per smoothing, A then B, returns the pairs of
    frontier-bound positions now joined, the number of loops closed and the
    power of A: a class of positions joined by the welds and the slots holds
    two frontier-bound positions or none.
    """
    outside = [(p, q) for p, q in enumerate(slot) if q >= 0]
    bound = [p for p, q in enumerate(slot) if q < 0]
    return tuple((*_chains([*smoothing_weld_positions(x, kind), *outside], bound), shift)
                 for kind, shift in (("A", 1), ("B", -1)))


# A coefficient table (low, packed, bound) stands for the sum of c_k * A^(low + 2k):
# all exponents of one sweep state share a parity, so the table is dense in
# steps of A^2 and shifting it by a power of A only moves `low`.  `packed` is
# the sum of c_k * 2^(width*k) and `bound` is at least max |c_k|.  Packing
# evaluates the polynomial in X = A^2 at X = 2^width, a ring homomorphism, so
# sums of tables shifted by slots, and products with X*delta = -X^2 - 1, are
# exact on `packed` at any width.  Only decoding needs the width, and it is
# unique while bound < 2^(width-1): sums add bounds, delta doubles them, and
# `poly._unpack` refuses a bound that does not fit.
_SLOT_BITS = 64     # the width a sweep starts at, a multiple of 8
_HEADROOM = 64      # bits a widened slot leaves free for the coefficients to grow


def _rebaseline(states: dict, width: int) -> tuple[int, dict]:
    """Bound each table by its largest coefficient, and repack all of them at
    a wider slot when the next steps could outgrow the width."""
    tables = {key: (low, _unpack(packed, width, bound))
              for key, (low, packed, bound) in states.items()}
    tops = {key: max(map(abs, coeffs)) for key, (_, coeffs) in tables.items()}
    need = (8 * sum(tops.values())).bit_length() + 1
    if need + _HEADROOM // 2 > width:
        width = need + _HEADROOM + 7 & -8
        states = {key: (low, _pack(coeffs, width), 0) for key, (low, coeffs) in tables.items()}
    return width, {key: (low, packed, tops[key]) for key, (low, packed, _) in states.items()}


def bracket_tl_sweep(d: LinkDiagram, max_width: int = MAX_WIDTH) -> LaurentPoly:
    """Frontier sweep: states are pairings of open strand-ends.

    The pairing alone determines all future loop closures, so states with
    equal pairings merge; their values are coefficient tables of A-powers.
    """
    if d.free_loops > MAX_FREE_LOOPS:
        raise ValueError(f"{d.free_loops} free loops exceeds the budget of {MAX_FREE_LOOPS}")
    if d.crossing_count > MAX_SWEEP_CROSSINGS:
        raise ValueError(f"{d.crossing_count} crossings exceeds the sweep budget of "
                         f"{MAX_SWEEP_CROSSINGS}")
    order = sweep_order(d, max_width)
    states: dict[tuple[int, ...], tuple[int, int, int]] = {(): (0, 1, 1)}
    width = _SLOT_BITS
    walk = frontier_walk({cid: d.crossing(cid).ends for cid in order}, order)
    for cid, (closing, paired, opened, survivors) in zip(order, walk):
        # a new table sums at most two terms per state, each times delta^2 at most
        if 8 * sum(bound for _, _, bound in states.values()) >> (width - 1):
            width, states = _rebaseline(states, width)
        # A state is a tuple `match`, match[i] the frontier index of the end
        # paired with frontier end i.  local_pos[i] is the position of
        # frontier end i in the crossing, or -1; renumber[i] its new frontier
        # index, or -1 if it closes; open0[p] the new frontier index of an
        # opened position p, else -1.
        local_pos = [-1] * (len(survivors) + len(closing))
        for p, i in closing:
            local_pos[i] = p
        renumber = [-1] * len(local_pos)
        for k, i in enumerate(survivors):
            renumber[i] = k
        open0 = [-1] * 4
        for k, p in enumerate(opened, len(survivors)):
            open0[p] = k
        pad = [-1] * len(opened)
        x = d.crossing(cid)
        new_states: dict[tuple[int, ...], tuple[int, int, int]] = {}
        for match, table in states.items():
            slot = list(paired)
            far = list(open0)
            for p, i in closing:
                j = match[i]
                q = local_pos[j]
                if q >= 0:
                    slot[p] = q
                else:
                    far[p] = renumber[j]
            slot_key = tuple(slot)
            # -1 marks the ends the chains fill in; both smoothings fill the
            # same ends, so the list is shared between them
            new_match = [renumber[match[i]] for i in survivors] + pad
            scaled = [table]            # scaled[c] is the table times delta^c
            routes = _ROUTES.get((slot_key, x.over_first))
            if routes is None:
                routes = _ROUTES[(slot_key, x.over_first)] = _smoothing_routes(slot_key, x)
            for chains, closures, shift in routes:
                for p, q in chains:
                    u, v = far[p], far[q]
                    new_match[u] = v
                    new_match[v] = u
                key = tuple(new_match)
                while len(scaled) <= closures:
                    low, packed, bound = scaled[-1]
                    scaled.append((low - 2, -(packed + (packed << 2 * width)), 2 * bound))
                low, packed, bound = scaled[closures]
                low += shift
                low2, packed2, bound2 = new_states.get(key, (low, 0, 0))
                if low2 < low:
                    low, low2, packed, packed2 = low2, low, packed2, packed
                new_states[key] = (low, packed + (packed2 << (width * (low2 - low) >> 1)),
                                   bound + bound2)
        states = {k: v for k, v in new_states.items() if v[1]}

    low, packed, bound = states.get((), (0, 0, 0))
    result = LaurentPoly({low + 2 * k: c for k, c in enumerate(_unpack(packed, width, bound)) if c})
    return result * LOOP_VALUE ** d.free_loops if d.free_loops else result


def bracket(d: LinkDiagram, method: str = "auto", max_crossings: int = MAX_CROSSINGS,
            max_width: int = MAX_WIDTH) -> LaurentPoly:
    """Evaluate the bracket, preferring the sweep; auto falls back to the state
    sum when the frontier is too wide, but not past the sweep's crossing budget."""
    if method == "statesum":
        return bracket_statesum(d, max_crossings)
    if method == "auto" and d.crossing_count <= MAX_SWEEP_CROSSINGS:
        try:
            return bracket_tl_sweep(d, max_width)
        except ValueError:
            return bracket_statesum(d, max_crossings)
    if method in ("auto", "sweep"):
        return bracket_tl_sweep(d, max_width)
    raise ValueError(f"unknown method {method!r}")


def bracket_series(d: LinkDiagram, order: int = 3, **kwargs):
    """Bracket pushed through A = -exp(h/4) as a truncated series in h."""
    return bracket(d, **kwargs).to_h_series(order)
