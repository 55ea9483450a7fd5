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
from operator import add

from .diagram import LinkDiagram, smoothing_weld_positions
from .poly import LOOP_VALUE, LaurentPoly


def bracket_statesum(d: LinkDiagram, max_crossings: int = 24) -> LaurentPoly:
    """Sum A^(a-b) delta^loops over all 2^n smoothings.

    States are visited in Gray-code order, so consecutive states differ in
    the smoothing of one crossing: only its welds are rewritten, and the loop
    count changes by the difference between the loops through that crossing
    after and before the switch.
    """
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

    # start from the all-A state and count its loops in full
    w = [0] * m
    for (a, b, c, e), _ in welds:
        w[a], w[b], w[c], w[e] = b, a, e, c
    visited = bytearray(m)
    loops = 0
    for s in range(m):
        if visited[s]:
            continue
        loops += 1
        t = s
        while not visited[t]:
            visited[t] = 1
            u = w[t]
            visited[u] = 1
            t = alpha[u]

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
    return sum((LaurentPoly(powers) * LOOP_VALUE ** (loops + d.free_loops)
                for loops, powers in by_loops.items()), LaurentPoly.zero())


def _peak_width(d: LinkDiagram, order: list[int]) -> int:
    """Largest number of strand-ends left open while placing `order`."""
    open_ends: set[int] = set()
    peak = 0
    for cid in order:
        for label in d.crossing(cid).ends:
            if label in open_ends:
                open_ends.remove(label)
            else:
                open_ends.add(label)
        peak = max(peak, len(open_ends))
    return peak


def sweep_order(d: LinkDiagram, max_width: int = 12) -> list[int]:
    """Greedy crossing order keeping the frontier of open strand-ends narrow.

    Each step places the crossing whose placement changes the frontier width
    the least, ties going to the smaller crossing id.  The changes sit in a
    heap with lazy invalidation; placing a crossing changes only the changes
    of the crossings sharing one of its labels.  When the greedy order
    exceeds `max_width`, the crossing-id order is tried before giving up
    (for a braid closure that is the word order, of width at most twice the
    strand count).
    """
    cids = d.crossing_ids()
    holders: dict[int, list[int]] = {}
    for cid in cids:
        for label in set(d.crossing(cid).ends):
            holders.setdefault(label, []).append(cid)
    seen: dict[int, int] = {}

    def width_change(cid: int) -> int:
        ends = d.crossing(cid).ends
        change = 0
        for label in set(ends):
            prior = seen.get(label, 0)
            if prior == 1:
                change -= 1
            elif prior == 0 and ends.count(label) == 1:
                change += 1
        return change

    pending = {cid: width_change(cid) for cid in cids}
    heap = [(change, cid) for cid, change in pending.items()]
    heapq.heapify(heap)
    width = 0
    order: list[int] = []
    while heap:
        change, cid = heapq.heappop(heap)
        if pending.get(cid) != change:
            continue                    # placed already, or a stale entry
        del pending[cid]
        width += change
        if width > max_width:
            if _peak_width(d, cids) <= max_width:
                return cids
            raise ValueError(f"frontier width {width} exceeds cap {max_width}")
        order.append(cid)
        ends = d.crossing(cid).ends
        for label in ends:
            seen[label] = seen.get(label, 0) + 1
        for label in set(ends):
            for other in holders[label]:
                if other in pending:
                    change = width_change(other)
                    if change != pending[other]:
                        pending[other] = change
                        heapq.heappush(heap, (change, other))
    return order


def _sweep_steps(d: LinkDiagram, order: list[int]) -> list[tuple]:
    """What each crossing of the sweep needs that does not depend on the state.

    The frontier (labels seen once so far) depends only on the order, so a
    state is a tuple `match` with match[i] the frontier index of the end
    paired with frontier end i.  Each step is a tuple of:

    - `closing`: pairs (position, frontier index) of the frontier ends that
      meet this crossing; `local_pos[i]` is the position of frontier end i
      in the crossing, or -1;
    - `survivors`: the frontier indices that stay open, in order; the new
      frontier is these followed by the crossing's new labels, `renumber`
      maps old indices to new ones (-1 for the ends that close) and `pad`
      holds a placeholder per new label;
    - `slot0`: for each position, the other position of a label used twice
      here, else -1; `open0`: the new frontier index of each new label's
      position, else -1;
    - `welds`: per smoothing, the position each position is welded to and
      the smoothing's power of A.
    """
    frontier: list[int] = []
    steps = []
    for cid in order:
        x = d.crossing(cid)
        ends = x.ends
        where = {label: i for i, label in enumerate(frontier)}
        local_pos = [-1] * len(frontier)
        closing = []
        slot0 = [-1] * 4
        open0 = [-1] * 4
        born = []
        for p, label in enumerate(ends):
            i = where.get(label)
            if i is not None:
                local_pos[i] = p
                closing.append((p, i))
            elif ends.count(label) == 2:
                slot0[p] = next(q for q in range(4) if q != p and ends[q] == label)
            else:
                born.append(p)
        survivors = [i for i in range(len(frontier)) if local_pos[i] < 0]
        renumber = [-1] * len(frontier)
        for k, i in enumerate(survivors):
            renumber[i] = k
        for k, p in enumerate(born):
            open0[p] = len(survivors) + k
        welds = []
        for kind, shift in (("A", 1), ("B", -1)):
            (i, j), (k, l) = smoothing_weld_positions(x, kind)
            weld = [0] * 4
            weld[i], weld[j], weld[k], weld[l] = j, i, l, k
            welds.append((tuple(weld), shift))
        steps.append((closing, local_pos, survivors, renumber, [-1] * len(born),
                      tuple(slot0), tuple(open0), welds))
        frontier = [frontier[i] for i in survivors] + [ends[p] for p in born]
    return steps


def _route(slot: tuple[int, ...], weld: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], int]:
    """Join a crossing's positions through its smoothing and the outside.

    `slot[p]` is the position that p reaches outside the crossing, or -1 if
    p leads to the frontier.  Returns the pairs of frontier-bound positions
    now joined, and the number of loops closed.
    """
    visited = [False] * 4
    chains = []
    for p in range(4):
        if visited[p] or slot[p] >= 0:
            continue
        cur = p
        while True:
            visited[cur] = True
            q = weld[cur]
            visited[q] = True
            if slot[q] < 0:
                chains.append((p, q))
                break
            cur = slot[q]
    closures = 0
    for p in range(4):
        if visited[p]:
            continue
        cur = p
        while not visited[cur]:
            visited[cur] = True
            q = weld[cur]
            visited[q] = True
            cur = slot[q]
        closures += 1
    return tuple(chains), closures


# A coefficient table (low, coeffs) stands for the sum of coeffs[k] * A^(low + 2k):
# all exponents of one sweep state share a parity, so the table is dense in
# steps of A^2 and shifting it by a power of A only moves `low`.
Table = tuple[int, list[int]]


def _times_loop(table: Table) -> Table:
    """Multiply a table by delta = -A^2 - A^-2."""
    low, coeffs = table
    return low - 2, [-a - b for a, b in zip(coeffs + [0, 0], [0, 0] + coeffs)]


def _add_tables(t1: Table, t2: Table) -> Table:
    """Sum of two tables, in a new list (tables share their lists freely)."""
    if t2[0] < t1[0]:
        t1, t2 = t2, t1
    (low, c1), (low2, c2) = t1, t2
    off = (low2 - low) >> 1
    end = off + len(c2)
    out = c1 + [0] * (end - len(c1)) if end > len(c1) else c1[:]
    out[off:end] = map(add, out[off:end], c2)
    return low, out


def bracket_tl_sweep(d: LinkDiagram, max_width: int = 12) -> LaurentPoly:
    """Frontier sweep: states are pairings of open strand-ends.

    The pairing alone determines all future loop closures, so states with
    equal pairings merge; their values are coefficient tables of A-powers.
    """
    order = sweep_order(d, max_width)
    routes: dict[tuple, tuple] = {}
    states: dict[tuple[int, ...], Table] = {(): (0, [1])}
    for closing, local_pos, survivors, renumber, pad, slot0, open0, welds in _sweep_steps(d, order):
        new_states: dict[tuple[int, ...], Table] = {}
        for match, table in states.items():
            slot = list(slot0)
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
                    scaled.append(_times_loop(scaled[-1]))
                low, coeffs = scaled[closures]
                term = (low + shift, coeffs)
                bucket = new_states.get(key)
                new_states[key] = term if bucket is None else _add_tables(bucket, term)
        states = {k: v for k, v in new_states.items() if any(v[1])}

    low, coeffs = states.get((), (0, []))
    result = LaurentPoly({low + 2 * k: c for k, c in enumerate(coeffs) if c})
    if d.free_loops:
        result = result * LOOP_VALUE ** d.free_loops
    return result


def bracket(d: LinkDiagram, method: str = "auto", max_crossings: int = 24,
            max_width: int = 12) -> LaurentPoly:
    """Evaluate the bracket, preferring the sweep when the frontier stays narrow."""
    if method == "statesum":
        return bracket_statesum(d, max_crossings)
    if method == "sweep":
        return bracket_tl_sweep(d, max_width)
    if method == "auto":
        try:
            return bracket_tl_sweep(d, max_width)
        except ValueError:
            return bracket_statesum(d, max_crossings)
    raise ValueError(f"unknown method {method!r}")


def bracket_series(d: LinkDiagram, order: int = 3, **kwargs):
    """Bracket pushed through A = -exp(h/4) as a truncated series in h."""
    return bracket(d, **kwargs).to_h_series(order)
