"""Kauffman bracket evaluation for framed link diagrams.

Two independent evaluators are provided.  `bracket_statesum` expands all 2^n
smoothings and counts loops per state; it is exponential but transparent, and
serves as the reference.  `bracket_tl_sweep` processes crossings one at a
time, tracking a frontier of open strand-ends up to the pairing they induce
through the processed region.  Loop closures contribute delta = -A^2 - A^-2
factors as they happen, so the cost is governed by the frontier width rather
than the crossing count.

Both return the bracket of the diagram itself: no writhe normalization is
applied, so a kink scales the result by -A^{+-3} and a split unknot
multiplies it by delta.  The empty diagram evaluates to 1.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .diagram import LinkDiagram, _find, _union, smoothing_weld_positions
from .poly import LOOP_VALUE, LaurentPoly, _pack, _unpack

MAX_CROSSINGS = 24  # default budget of the state sum, which visits 2^n states
MAX_WIDTH = 12      # default budget of the sweep's frontier of open strand-ends
MAX_FREE_LOOPS = 1000  # budget of a diagram's crossingless circles, each a factor of delta
MAX_SWEEP_CROSSINGS = 500  # budget of the sweep, whose coefficient tables grow with n
Item = TypeVar("Item")


def bracket_statesum(d: LinkDiagram, max_crossings: int = MAX_CROSSINGS) -> LaurentPoly:
    """Sum A^(a-b) delta^loops over all 2^n smoothings.

    States are visited in Gray-code order, so consecutive states differ in
    the smoothing of one crossing: only its welds are rewritten, and the loop
    count changes by the difference between the loops through that crossing
    after and before the switch.
    """
    if d.free_loops > MAX_FREE_LOOPS:
        raise ValueError(f"{d.free_loops} free loops exceeds the budget of {MAX_FREE_LOOPS}")
    n = d.crossing_count
    if n > max_crossings:
        raise ValueError(f"{n} crossings exceeds the state-sum cap of {max_crossings}")
    cids = d.crossing_ids()
    index = {cid: i for i, cid in enumerate(cids)}
    m = 4 * n
    alpha = [0] * m
    for d1, d2 in d.arcs().values():
        i1 = 4 * index[d1[0]] + d1[1]
        i2 = 4 * index[d2[0]] + d2[1]
        alpha[i1] = i2
        alpha[i2] = i1
    welds = []
    for cid in cids:
        x = d.crossing(cid)
        base = 4 * index[cid]
        per_kind = []
        for kind in ("A", "B"):
            (i, j), (k, l) = smoothing_weld_positions(x, kind)
            per_kind.append((base + i, base + j, base + k, base + l))
        welds.append(per_kind)

    # start from the all-A state: its loops are the classes of alpha and w
    w = [0] * m
    for (a, b, c, e), _ in welds:
        w[a], w[b], w[c], w[e] = b, a, e, c
    parent: dict[int, int] = {}
    for s in range(m):
        _union(parent, s, alpha[s])
        _union(parent, s, w[s])
    loops = len({_find(parent, s) for s in range(m)})

    def loops_through(a: int, c: int, e: int) -> int:
        """1 if the loop through dart a also passes c (welded to e), else 2."""
        t = a
        while True:
            t = alpha[w[t]]
            if t == c or t == e:
                return 1
            if t == a:
                return 2

    counts: Counter[tuple[int, int]] = Counter()
    k_exp = n
    counts[(k_exp, loops)] += 1
    kind = [0] * n
    for step in range(1, 1 << n):
        i = (step & -step).bit_length() - 1
        a, b, c, e = welds[i][kind[i]]
        loops -= loops_through(a, c, e)
        kind[i] ^= 1
        k_exp += 2 if kind[i] == 0 else -2
        a, b, c, e = welds[i][kind[i]]
        w[a], w[b], w[c], w[e] = b, a, e, c
        loops += loops_through(a, c, e)
        counts[(k_exp, loops)] += 1

    by_loops: dict[int, dict[int, int]] = {}
    for (k_exp, loops), mult in counts.items():
        by_loops.setdefault(loops, {})[k_exp] = mult
    result = sum((LaurentPoly(powers) * LOOP_VALUE ** loops
                  for loops, powers in by_loops.items()), LaurentPoly.zero())
    return result * LOOP_VALUE ** d.free_loops if d.free_loops else result


def narrow_order(ends: Mapping[Item, Sequence[Hashable]]) -> Iterator[tuple[Item, int]]:
    """Greedy order of items that keeps the frontier of open labels narrow.

    `ends` maps each item id to its labels; every label belongs to two
    item slots, and is open from the placement of its first item to that
    of its second.  Each step places the item whose placement changes the
    frontier width the least, ties going to the smaller id, and yields it
    with the width after it.  The changes sit in a heap with lazy
    invalidation; placing an item changes only the changes of the items
    sharing one of its labels.
    """
    holders: dict[Hashable, list[Item]] = {}
    for item, labels in ends.items():
        for label in set(labels):
            holders.setdefault(label, []).append(item)
    seen: dict[Hashable, int] = {}

    def width_change(item: Item) -> int:
        labels = ends[item]
        change = 0
        for label in set(labels):
            prior = seen.get(label, 0)
            if prior == 1:
                change -= 1
            elif prior == 0 and labels.count(label) == 1:
                change += 1
        return change

    pending = {item: width_change(item) for item in ends}
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
        labels = ends[item]
        for label in labels:
            seen[label] = seen.get(label, 0) + 1
        for label in set(labels):
            for other in holders[label]:
                if other in pending:
                    change = width_change(other)
                    if change != pending[other]:
                        pending[other] = change
                        heapq.heappush(heap, (change, other))


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


def _route(slot: tuple[int, ...], weld: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Join a crossing's positions through its smoothing and the outside.

    `slot[p]` is the position that p reaches outside the crossing, or -1 if
    p leads to the frontier.  Returns the pairs of frontier-bound positions
    now joined, and the number of loops closed: a class of positions joined
    by the weld and the slots holds two frontier-bound positions or none.
    """
    parent: dict[int, int] = {}
    for p in range(4):
        _union(parent, p, weld[p])
        if slot[p] >= 0:
            _union(parent, p, slot[p])
    ends: dict[int, list[int]] = {}
    for p in range(4):
        chain = ends.setdefault(_find(parent, p), [])
        if slot[p] < 0:
            chain.append(p)
    return tuple(tuple(e) for e in ends.values() if e), sum(1 for e in ends.values() if not e)


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
    routes: dict[tuple, tuple] = {}
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
        # opened position p, else -1; welds, per smoothing, the position each
        # position is welded to and the smoothing's power of A.
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
        welds = []
        for kind, shift in (("A", 1), ("B", -1)):
            (i, j), (k, l) = smoothing_weld_positions(d.crossing(cid), kind)
            weld = [0] * 4
            weld[i], weld[j], weld[k], weld[l] = j, i, l, k
            welds.append((tuple(weld), shift))
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
            for weld, shift in welds:
                route = routes.get((slot_key, weld))
                if route is None:
                    route = routes[(slot_key, weld)] = _route(slot_key, weld)
                chains, closures = route
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
