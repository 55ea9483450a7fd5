"""Combinatorial framed link diagrams.

A diagram is a 4-valent map: crossings with their four arc-ends listed in
counterclockwise order, plus a count of crossingless circles.  Arcs are
integer labels; every label occurs at exactly two crossing slots.  The
counterclockwise tuples are a rotation system, so faces, genus, and the
Reidemeister moves are all computable without coordinates.

A slot is addressed by a dart, the pair (crossing id, position 0..3).  The
over-strand of a crossing occupies positions {0, 2} or {1, 3}; it is recorded
by the parity of its first position.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, NamedTuple, Sequence

Dart = tuple[int, int]


class Crossing(NamedTuple):
    ends: tuple[int, int, int, int]
    over_first: int  # over-strand occupies positions {over_first, over_first + 2}

    def is_over(self, pos: int) -> bool:
        return pos % 2 == self.over_first


def smoothing_weld_positions(crossing: Crossing, kind: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Position pairs joined by the A or B smoothing of a crossing.

    With the over-strand at {1, 3}, the A-smoothing joins (0,1) and (2,3);
    the roles swap when the over-strand sits at {0, 2}.
    """
    if kind not in ("A", "B"):
        raise ValueError(f"smoothing kind must be 'A' or 'B', got {kind!r}")
    horizontal = ((0, 1), (2, 3))
    vertical = ((1, 2), (3, 0))
    if crossing.over_first == 1:
        return horizontal if kind == "A" else vertical
    return vertical if kind == "A" else horizontal


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find forest kept as a parent map, halving paths."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _union(parent: dict[int, int], x: int, y: int) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


class LinkDiagram:
    """Immutable crossing data plus free (crossingless) loops."""

    def __init__(self, crossings: Mapping[int, Crossing] | Iterable[Crossing] = (), free_loops: int = 0):
        if isinstance(crossings, Mapping):
            table = {int(cid): self._coerce(x) for cid, x in crossings.items()}
        else:
            table = {i: self._coerce(x) for i, x in enumerate(crossings)}
        if free_loops < 0:
            raise ValueError("free loop count cannot be negative")
        counts: dict[int, int] = {}
        for x in table.values():
            for label in x.ends:
                counts[label] = counts.get(label, 0) + 1
        for label, n in counts.items():
            if n != 2:
                raise ValueError(f"arc label {label} occurs {n} times, expected 2")
        self._crossings = table
        self._free_loops = free_loops

    @staticmethod
    def _coerce(x) -> Crossing:
        if isinstance(x, Crossing):
            c = x
        else:
            ends, over_first = x
            c = Crossing(tuple(ends), over_first)
        if len(c.ends) != 4:
            raise ValueError("a crossing has exactly four arc-ends")
        if c.over_first not in (0, 1):
            raise ValueError("over_first must be 0 or 1")
        return c

    @property
    def crossings(self) -> dict[int, Crossing]:
        return dict(self._crossings)

    @property
    def free_loops(self) -> int:
        return self._free_loops

    @property
    def crossing_count(self) -> int:
        return len(self._crossings)

    def crossing(self, cid: int) -> Crossing:
        return self._crossings[cid]

    def crossing_ids(self) -> list[int]:
        return sorted(self._crossings)

    def label_at(self, dart: Dart) -> int:
        cid, pos = dart
        return self._crossings[cid].ends[pos]

    def arcs(self) -> dict[int, tuple[Dart, Dart]]:
        found: dict[int, list[Dart]] = {}
        for cid in sorted(self._crossings):
            for pos in range(4):
                found.setdefault(self._crossings[cid].ends[pos], []).append((cid, pos))
        return {label: (ds[0], ds[1]) for label, ds in found.items()}

    def arc_partner(self, dart: Dart, arcs: dict[int, tuple[Dart, Dart]] | None = None) -> Dart:
        arcs = arcs or self.arcs()
        d1, d2 = arcs[self.label_at(dart)]
        return d2 if dart == d1 else d1

    # ------------------------------------------------------------------
    # topology

    def component_count(self) -> int:
        """Number of link components (strand-through closure of the arcs)."""
        parent: dict[int, int] = {}
        labels = set()
        for x in self._crossings.values():
            labels.update(x.ends)
            _union(parent, x.ends[0], x.ends[2])
            _union(parent, x.ends[1], x.ends[3])
        roots = {_find(parent, l) for l in labels}
        return len(roots) + self._free_loops

    def face_orbits(self) -> list[list[Dart]]:
        """Faces of the rotation system, each a cyclic list of darts.

        From dart d, the face continues along d's arc to the far end and
        turns once clockwise there; orbits of that step are the faces, each
        traversed with its interior on the left.
        """
        arcs = self.arcs()
        seen: set[Dart] = set()
        orbits: list[list[Dart]] = []
        for cid in sorted(self._crossings):
            for pos in range(4):
                start = (cid, pos)
                if start in seen:
                    continue
                orbit = []
                d = start
                while d not in seen:
                    seen.add(d)
                    orbit.append(d)
                    far = self.arc_partner(d, arcs)
                    d = (far[0], (far[1] - 1) % 4)
                orbits.append(orbit)
        return orbits

    def is_planar(self) -> bool:
        """Every connected piece of the map must have genus zero."""
        if not self._crossings:
            return True
        arcs = self.arcs()
        parent: dict[int, int] = {}
        for d1, d2 in arcs.values():
            _union(parent, d1[0], d2[0])
        groups: dict[int, list[int]] = {}
        for cid in self._crossings:
            groups.setdefault(_find(parent, cid), []).append(cid)
        face_count: dict[int, int] = {}
        for orbit in self.face_orbits():
            root = _find(parent, orbit[0][0])
            face_count[root] = face_count.get(root, 0) + 1
        for root, cids in groups.items():
            v = len(cids)
            e = sum(1 for d1, _ in arcs.values() if _find(parent, d1[0]) == root)
            f = face_count.get(root, 0)
            if v - e + f != 2:
                return False
        return True

    # ------------------------------------------------------------------
    # surgery

    def _fused(self, removed: set[int], welds: Sequence[tuple[Dart, Dart]]) -> "LinkDiagram":
        """Delete the crossings in `removed`, welding their darts in pairs.

        Arc/weld chains between surviving slots merge into single arcs;
        closed chains become free loops.
        """
        arcs = self.arcs()
        weld_partner: dict[Dart, Dart] = {}
        for d1, d2 in welds:
            weld_partner[d1] = d2
            weld_partner[d2] = d1
        for cid in removed:
            for pos in range(4):
                if (cid, pos) not in weld_partner:
                    raise ValueError("welds must cover every dart of every removed crossing")

        def floating(d: Dart) -> bool:
            return d[0] in removed

        visited: set[Dart] = set()
        relabel: dict[Dart, int] = {}
        new_loops = self._free_loops

        for label in sorted(arcs):
            for start in arcs[label]:
                if floating(start):
                    continue
                far = self.arc_partner(start, arcs)
                if not floating(far) or far in visited:
                    continue
                d = far
                while True:
                    visited.add(d)
                    d2 = weld_partner[d]
                    visited.add(d2)
                    nxt = self.arc_partner(d2, arcs)
                    if not floating(nxt):
                        end = nxt
                        break
                    d = nxt
                merged = min(self.label_at(start), self.label_at(end))
                relabel[start] = merged
                relabel[end] = merged

        for cid in sorted(removed):
            for pos in range(4):
                d0 = (cid, pos)
                if d0 in visited:
                    continue
                d = d0
                while d not in visited:
                    visited.add(d)
                    d2 = weld_partner[d]
                    visited.add(d2)
                    d = self.arc_partner(d2, arcs)
                new_loops += 1

        table: dict[int, Crossing] = {}
        for cid in sorted(self._crossings):
            if cid in removed:
                continue
            x = self._crossings[cid]
            ends = tuple(relabel.get((cid, p), x.ends[p]) for p in range(4))
            table[cid] = Crossing(ends, x.over_first)
        return LinkDiagram(table, new_loops)

    def smoothed(self, cid: int, kind: str) -> "LinkDiagram":
        """Replace one crossing by its A or B smoothing."""
        x = self._crossings[cid]
        (i, j), (k, l) = smoothing_weld_positions(x, kind)
        return self._fused({cid}, [((cid, i), (cid, j)), ((cid, k), (cid, l))])

    def disjoint_union(self, other: "LinkDiagram") -> "LinkDiagram":
        shift_label = 1 + max((l for x in self._crossings.values() for l in x.ends), default=-1)
        shift_id = 1 + max(self._crossings, default=-1)
        table = dict(self._crossings)
        for cid in sorted(other._crossings):
            x = other._crossings[cid]
            table[cid + shift_id] = Crossing(tuple(l + shift_label for l in x.ends), x.over_first)
        return LinkDiagram(table, self._free_loops + other._free_loops)

    def _fresh_labels(self, n: int) -> list[int]:
        base = 1 + max((l for x in self._crossings.values() for l in x.ends), default=-1)
        return list(range(base, base + n))

    def _fresh_id(self) -> int:
        return 1 + max(self._crossings, default=-1)

    # ------------------------------------------------------------------
    # Reidemeister moves

    def apply_move(self, move: str, site) -> "LinkDiagram":
        """Apply a Reidemeister move at an explicitly named site.

        move: 'R1+' / 'R1-' (insert a kink on an arc label or on 'loop'),
        'R1d' (delete the kink crossing `site`), 'R2' (site is
        (dart, dart, over_flag) on a common face), 'R2d' (site is a crossing
        pair bounding a reducible bigon), 'R3' (site is the face dart naming
        the strand slid across the opposite crossing).
        """
        if move in ("R1+", "R1-"):
            return self._r1_insert(site, positive=(move == "R1+"))
        if move == "R1d":
            return self._r1_delete(site)
        if move == "R2":
            d1, d2, over = site
            return self._r2_insert(tuple(d1), tuple(d2), bool(over))
        if move == "R2d":
            c1, c2 = site
            return self._r2_delete(c1, c2)
        if move == "R3":
            return self._r3(tuple(site))
        raise ValueError(f"unknown move {move!r}")

    def _r1_insert(self, site, positive: bool) -> "LinkDiagram":
        over_first = 0 if positive else 1
        table = dict(self._crossings)
        cid = self._fresh_id()
        if site == "loop":
            if self._free_loops == 0:
                raise ValueError("no free loop to kink")
            x_label, loop_label = self._fresh_labels(2)
            table[cid] = Crossing((x_label, loop_label, loop_label, x_label), over_first)
            return LinkDiagram(table, self._free_loops - 1)
        arcs = self.arcs()
        if site not in arcs:
            raise ValueError(f"no arc labelled {site!r}")
        d_keep, d_move = arcs[site]
        loop_label, tail_label = self._fresh_labels(2)
        table[cid] = Crossing((site, loop_label, loop_label, tail_label), over_first)
        mc, mp = d_move
        old = table[mc]
        ends = list(old.ends)
        ends[mp] = tail_label
        table[mc] = Crossing(tuple(ends), old.over_first)
        return LinkDiagram(table, self._free_loops)

    def kink_positions(self, cid: int) -> list[int]:
        x = self._crossings[cid]
        return [p for p in range(4) if x.ends[p] == x.ends[(p + 1) % 4]]

    def _r1_delete(self, cid: int) -> "LinkDiagram":
        if cid not in self._crossings:
            raise ValueError(f"no crossing {cid}")
        if not self.kink_positions(cid):
            raise ValueError(f"crossing {cid} is not a kink")
        return self._fused({cid}, [((cid, 0), (cid, 2)), ((cid, 1), (cid, 3))])

    def _r2_insert(self, d1: Dart, d2: Dart, finger_over: bool) -> "LinkDiagram":
        orbit = None
        for o in self.face_orbits():
            if d1 in o:
                orbit = o
                break
        if orbit is None or d2 not in orbit:
            raise ValueError("R2 site darts must lie on a common face")
        u = self.label_at(d1)
        v = self.label_at(d2)
        if u == v:
            raise ValueError("R2 site needs two distinct arcs")
        arcs = self.arcs()
        a1 = self.arc_partner(d1, arcs)
        a2 = self.arc_partner(d2, arcs)
        m, u2, vm, v2 = self._fresh_labels(4)
        over_first = 1 if finger_over else 0
        table = dict(self._crossings)

        def reseat(dart: Dart, label: int) -> None:
            c, p = dart
            old = table[c]
            ends = list(old.ends)
            ends[p] = label
            table[c] = Crossing(tuple(ends), old.over_first)

        reseat(a1, u2)
        reseat(a2, v2)
        fl = self._fresh_id()
        table[fl] = Crossing((vm, m, v2, u), over_first)
        table[fl + 1] = Crossing((v, m, vm, u2), over_first)
        return LinkDiagram(table, self._free_loops)

    def _bigon_orbits(self) -> list[tuple[Dart, Dart]]:
        out = []
        for o in self.face_orbits():
            if len(o) == 2 and o[0][0] != o[1][0]:
                out.append((o[0], o[1]))
        return out

    def _r2_delete(self, c1: int, c2: int) -> "LinkDiagram":
        site = None
        for da, db in self._bigon_orbits():
            if {da[0], db[0]} == {c1, c2}:
                site = (da, db) if da[0] == c1 else (db, da)
                break
        if site is None:
            raise ValueError(f"crossings {c1}, {c2} do not bound a bigon")
        d1, d2 = site
        x1 = self._crossings[c1]
        x2 = self._crossings[c2]
        if x1.is_over(d1[1]) != x2.is_over((d2[1] + 1) % 4):
            raise ValueError("bigon strands alternate, not a reducible R2 pair")
        welds = [((c, 0), (c, 2)) for c in (c1, c2)] + [((c, 1), (c, 3)) for c in (c1, c2)]
        return self._fused({c1, c2}, welds)

    def _r3(self, d_p: Dart) -> "LinkDiagram":
        orbit = None
        for o in self.face_orbits():
            if d_p in o:
                orbit = o
                break
        if orbit is None or len(orbit) != 3:
            raise ValueError("R3 site must lie on a triangular face")
        i = orbit.index(d_p)
        d_q = orbit[(i + 1) % 3]
        d_r = orbit[(i + 2) % 3]
        p, a_p = d_p
        q, a_q = d_q
        r, a_r = d_r
        if len({p, q, r}) != 3:
            raise ValueError("triangle must involve three distinct crossings")
        xp, xq, xr = self._crossings[p], self._crossings[q], self._crossings[r]
        over_p = xp.is_over(a_p)            # moving strand vs the strand at p
        over_q = xq.is_over((a_q + 1) % 4)  # moving strand vs the strand at q
        if over_p != over_q:
            raise ValueError("strand is not entirely over or under, R3 does not apply")
        ext2_p = xp.ends[(a_p + 2) % 4]
        ext1_p = xp.ends[(a_p + 3) % 4]
        ext2_q = xq.ends[(a_q + 2) % 4]
        ext1_q = xq.ends[(a_q + 3) % 4]
        ext2_r = xr.ends[(a_r + 2) % 4]
        ext1_r = xr.ends[(a_r + 3) % 4]
        n_pq, n_qr, n_rp = self._fresh_labels(3)
        table = dict(self._crossings)
        table[p] = Crossing((ext1_q, ext2_r, n_pq, n_rp), 0 if over_p else 1)
        table[q] = Crossing((n_pq, ext1_r, ext2_p, n_qr), 0 if over_q else 1)
        ends = list(xr.ends)
        ends[a_r] = ext1_p
        ends[(a_r + 1) % 4] = ext2_q
        ends[(a_r + 2) % 4] = n_rp
        ends[(a_r + 3) % 4] = n_qr
        table[r] = Crossing(tuple(ends), xr.over_first)
        return LinkDiagram(table, self._free_loops)

    # ------------------------------------------------------------------
    # move site enumeration

    def r1_delete_sites(self) -> list[int]:
        return [cid for cid in sorted(self._crossings) if self.kink_positions(cid)]

    def r2_sites(self) -> list[tuple[Dart, Dart]]:
        sites = []
        for o in self.face_orbits():
            for i, d1 in enumerate(o):
                for d2 in o[i + 1:]:
                    if self.label_at(d1) != self.label_at(d2):
                        sites.append((d1, d2))
        return sites

    def r2_delete_sites(self) -> list[tuple[int, int]]:
        sites = []
        for d1, d2 in self._bigon_orbits():
            x1 = self._crossings[d1[0]]
            x2 = self._crossings[d2[0]]
            if x1.is_over(d1[1]) == x2.is_over((d2[1] + 1) % 4):
                pair = (d1[0], d2[0])
                if pair not in sites:
                    sites.append(pair)
        return sites

    def r3_sites(self) -> list[Dart]:
        sites = []
        for o in self.face_orbits():
            if len(o) != 3 or len({d[0] for d in o}) != 3:
                continue
            for i, d in enumerate(o):
                d_q = o[(i + 1) % 3]
                if self._crossings[d[0]].is_over(d[1]) == self._crossings[d_q[0]].is_over((d_q[1] + 1) % 4):
                    sites.append(d)
        return sites

    # ------------------------------------------------------------------
    # comparison and presentation

    def canonical_form(self) -> tuple:
        """Rotation-normalized, first-appearance-relabelled crossing list.

        Two diagrams that differ only by crossing rotation conventions and
        arc label names compare equal through this form, which is all the
        serialization round-trip needs.
        """
        rotated: list[tuple[int, ...]] = []
        for cid in sorted(self._crossings):
            x = self._crossings[cid]
            shift = 1 if x.over_first == 0 else 0
            e = tuple(x.ends[(p + shift) % 4] for p in range(4))
            e2 = tuple(x.ends[(p + shift + 2) % 4] for p in range(4))
            rotated.append(min(e, e2))
        names: dict[int, int] = {}
        out = []
        for ends in rotated:
            row = []
            for label in ends:
                if label not in names:
                    names[label] = len(names)
                row.append(names[label])
            out.append(tuple(row))
        return (tuple(out), self._free_loops)

    def same_diagram(self, other: "LinkDiagram") -> bool:
        return self.canonical_form() == other.canonical_form()

    def __repr__(self) -> str:
        return f"LinkDiagram({self._crossings!r}, free_loops={self._free_loops})"


# ----------------------------------------------------------------------
# constructors


def parse_braid(word: Sequence[int], strands: int) -> LinkDiagram:
    """Closure of a braid word on the given number of strands.

    Letter +i crosses strand i under-left as strand i+1 passes over it; the
    sign convention is fixed so that the A-smoothing of a positive letter is
    the identity tangle and the B-smoothing is the cup-cap.
    """
    if strands < 1:
        raise ValueError("need at least one strand")
    for s in word:
        if s == 0 or abs(s) >= strands:
            raise ValueError(f"braid letter {s} out of range for {strands} strands")
    cur = list(range(strands))
    fresh = strands
    table: dict[int, Crossing] = {}
    for n, s in enumerate(word):
        i = abs(s)
        a = cur[i - 1]
        b = cur[i]
        c, d = fresh, fresh + 1
        fresh += 2
        table[n] = Crossing((c, d, b, a), 0 if s > 0 else 1)
        cur[i - 1] = c
        cur[i] = d

    # The closure joins the bottom end of strand j to its top end, labelled
    # j; the joined arc keeps j, the smaller of its two labels.  A strand no
    # letter touches (bottom label still j) closes into a free circle.
    rename = {cur[j]: j for j in range(strands)}
    out = {
        cid: Crossing(tuple(rename.get(l, l) for l in x.ends), x.over_first)
        for cid, x in table.items()
    }
    loops = sum(1 for j in range(strands) if cur[j] == j)
    return LinkDiagram(out, loops)


def parse_pd(text: str) -> LinkDiagram:
    """Planar-diagram text: X[a,b,c,d] tokens plus O for a crossingless circle.

    The four arc labels run counterclockwise with the under-strand at the
    first and third positions, so the over-strand sits at positions {1, 3}.
    """
    import re

    table: dict[int, Crossing] = {}
    loops = 0
    pos = 0
    cid = 0
    token = re.compile(r"\s*(?:(?P<x>[Xx]\[\s*(?P<body>-?\d+(?:\s*,\s*-?\d+){3})\s*\])|(?P<o>[Oo]))")
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot parse planar-diagram text at {text[pos:pos + 20]!r}")
            break
        if m.group("o"):
            loops += 1
        else:
            ends = tuple(int(t) for t in m.group("body").split(","))
            table[cid] = Crossing(ends, 1)
            cid += 1
        pos = m.end()
    return LinkDiagram(table, loops)


def corpus() -> dict[str, LinkDiagram]:
    """Small bundled diagrams used throughout the test batteries."""
    return {
        "unknot": LinkDiagram({}, free_loops=1),
        "hopf": parse_braid([1, 1], 2),
        "trefoil": parse_braid([1, 1, 1], 2),
        "figure_eight": parse_braid([1, -2, 1, -2], 3),
    }


def random_move(d: LinkDiagram, rng: random.Random, max_crossings: int = 14) -> tuple[LinkDiagram, str]:
    """One random bracket-preserving move (R2 insert/delete or R3)."""
    options: list[tuple[str, object]] = []
    if d.crossing_count + 2 <= max_crossings:
        options.extend(("R2", s) for s in d.r2_sites())
    options.extend(("R2d", s) for s in d.r2_delete_sites())
    options.extend(("R3", s) for s in d.r3_sites())
    if not options:
        raise ValueError("no applicable move")
    weights = {"R2": 1.0, "R2d": 3.0, "R3": 2.0}
    total = sum(weights[m] for m, _ in options)
    x = rng.random() * total
    for move, site in options:
        x -= weights[move]
        if x <= 0:
            break
    if move == "R2":
        site = (*site, rng.random() < 0.5)
    return d.apply_move(move, site), f"{move}@{site}"


def insert_kink_pair(d: LinkDiagram) -> LinkDiagram:
    """Insert cancelling positive and negative kinks on one strand.

    The writhe contributions -A^3 and -A^-3 multiply to one, so the bracket
    is unchanged; this gives crossingless diagrams enough structure for the
    R2/R3 move generators to act on.
    """
    arcs = sorted({lab for x in d.crossings.values() for lab in x.ends})
    if arcs:
        d = d.apply_move("R1+", arcs[0])
    elif d.free_loops:
        d = d.apply_move("R1+", "loop")
    else:
        raise ValueError("diagram has no strand to kink")
    arcs = sorted({lab for x in d.crossings.values() for lab in x.ends})
    return d.apply_move("R1-", arcs[0])


def random_braid_diagram(rng: random.Random, max_crossings: int = 12,
                         max_strands: int = 5) -> LinkDiagram:
    """Closure of a random braid word with at most max_crossings letters."""
    strands = rng.randint(2, max(2, max_strands))
    length = rng.randint(0, max_crossings)
    word = []
    for _ in range(length):
        i = rng.randint(1, strands - 1)
        word.append(i if rng.random() < 0.5 else -i)
    return parse_braid(word, strands)
