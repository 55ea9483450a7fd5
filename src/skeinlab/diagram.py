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


def _find(parent: dict, x):
    """Root of x in a union-find forest kept as a parent map, halving paths."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _union(parent: dict, x, y) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


def _chains(links: Sequence[tuple], ends: Iterable = ()) -> tuple[list[list], int]:
    """Join items along `links`, pairs of items, into classes.

    Returns, for each class that holds some of `ends`, those ends in the
    order given, and the number of classes that hold none.
    """
    parent: dict = {}
    for x, y in links:
        _union(parent, x, y)
    chains: dict = {}
    for end in ends:
        chains.setdefault(_find(parent, end), []).append(end)
    roots = {_find(parent, x) for link in links for x in link}
    return list(chains.values()), len(roots - chains.keys())


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
        strands = [(x.ends[p], x.ends[p + 2]) for x in self._crossings.values() for p in (0, 1)]
        return _chains(strands)[1] + self._free_loops

    def face_orbits(self) -> list[list[Dart]]:
        """Faces of the rotation system, each a cyclic list of darts."""
        arcs = self.arcs()
        seen: set[Dart] = set()
        orbits: list[list[Dart]] = []
        for cid in sorted(self._crossings):
            for pos in range(4):
                if (cid, pos) not in seen:
                    orbit = self._face_from((cid, pos), arcs)
                    seen.update(orbit)
                    orbits.append(orbit)
        return orbits

    def _face_from(self, dart: Dart, arcs: dict[int, tuple[Dart, Dart]]) -> list[Dart] | None:
        """The face orbit that starts at a dart, None for a dart not in the map.

        From dart d, the face continues along d's arc to the far end and
        turns once clockwise there; the face lies on the left of its walk.
        """
        cid, pos = dart
        if cid not in self._crossings or pos not in range(4):
            return None
        orbit = [dart]
        while True:
            far = self.arc_partner(orbit[-1], arcs)
            d = (far[0], (far[1] - 1) % 4)
            if d == dart:
                return orbit
            orbit.append(d)

    def is_planar(self) -> bool:
        """Every connected piece of the map must have genus zero.

        A 4-valent piece has E = 2V, so its Euler characteristic V - E + F
        is F - V, at most 2 and equal to 2 exactly at genus zero; summed over
        the pieces, F - V reaches twice their number only when all are planar.
        """
        pieces = _chains([(d1[0], d2[0]) for d1, d2 in self.arcs().values()])[1]
        return len(self.face_orbits()) - len(self._crossings) == 2 * pieces

    # ------------------------------------------------------------------
    # surgery

    def _spliced(self, crossings: Mapping[int, Crossing | None],
                 reseat: Mapping[Dart, int] = {}, loops: int = 0) -> "LinkDiagram":
        """The one edit every surgery makes: crossings added, replaced or
        removed (None), darts given new labels, and `loops` more free loops.

        A replaced crossing keeps its place in the table and an added one
        goes last, in the order given.
        """
        table = {**self._crossings, **crossings}
        for (cid, pos), label in reseat.items():
            ends = table[cid].ends
            table[cid] = table[cid]._replace(ends=ends[:pos] + (label,) + ends[pos + 1:])
        return LinkDiagram({cid: x for cid, x in table.items() if x is not None},
                           self._free_loops + loops)

    def _fused(self, removed: set[int], welds: Sequence[tuple[Dart, Dart]]) -> "LinkDiagram":
        """Delete the crossings in `removed`, welding their darts in pairs.

        Arcs and welds join darts into chains: a chain between two surviving
        slots becomes one arc, labelled by the smaller of its end labels, and
        a closed chain becomes a free loop.
        """
        welded = {d for pair in welds for d in pair}
        if any((cid, pos) not in welded for cid in removed for pos in range(4)):
            raise ValueError("welds must cover every dart of every removed crossing")
        kept = [(cid, pos) for cid in self._crossings if cid not in removed for pos in range(4)]
        chains, closed = _chains([*welds, *self.arcs().values()], kept)
        relabel = {d: min(map(self.label_at, ends)) for ends in chains for d in ends}
        return self._spliced(dict.fromkeys(removed), relabel, closed)

    def smoothed(self, cid: int, kind: str) -> "LinkDiagram":
        """Replace one crossing by its A or B smoothing."""
        x = self._crossings[cid]
        (i, j), (k, l) = smoothing_weld_positions(x, kind)
        return self._fused({cid}, [((cid, i), (cid, j)), ((cid, k), (cid, l))])

    def disjoint_union(self, other: "LinkDiagram") -> "LinkDiagram":
        shift_label = self._fresh_labels(1)[0]
        shift_id = self._fresh_id()
        return self._spliced(
            {cid + shift_id: x._replace(ends=tuple(l + shift_label for l in x.ends))
             for cid, x in sorted(other._crossings.items())}, loops=other._free_loops)

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
        the strand slid across the opposite crossing).  'R1d', 'R2d' and
        'R3' apply exactly at the sites `r1_delete_sites`, `r2_delete_sites`
        (either order) and `r3_sites` list.
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
        cid = self._fresh_id()
        if site == "loop":
            if self._free_loops == 0:
                raise ValueError("no free loop to kink")
            x_label, loop_label = self._fresh_labels(2)
            return self._spliced({cid: Crossing((x_label, loop_label, loop_label, x_label), over_first)},
                                 loops=-1)
        arcs = self.arcs()
        if site not in arcs:
            raise ValueError(f"no arc labelled {site!r}")
        loop_label, tail_label = self._fresh_labels(2)
        return self._spliced({cid: Crossing((site, loop_label, loop_label, tail_label), over_first)},
                             {arcs[site][1]: tail_label})

    def kink_positions(self, cid: int) -> list[int]:
        x = self._crossings[cid]
        return [p for p in range(4) if x.ends[p] == x.ends[(p + 1) % 4]]

    def _r1_delete(self, cid: int) -> "LinkDiagram":
        if cid not in self._crossings or not self.kink_positions(cid):
            raise ValueError(f"no kink at crossing {cid!r}")
        return self._fused({cid}, [((cid, 0), (cid, 2)), ((cid, 1), (cid, 3))])

    def _r2_insert(self, d1: Dart, d2: Dart, finger_over: bool) -> "LinkDiagram":
        arcs = self.arcs()
        orbit = self._face_from(d1, arcs)
        if orbit is None or d2 not in orbit:
            raise ValueError("R2 site darts must lie on a common face")
        u = self.label_at(d1)
        v = self.label_at(d2)
        if u == v:
            raise ValueError("R2 site needs two distinct arcs")
        m, u2, vm, v2 = self._fresh_labels(4)
        over_first = 1 if finger_over else 0
        fl = self._fresh_id()
        return self._spliced({fl: Crossing((vm, m, v2, u), over_first),
                              fl + 1: Crossing((v, m, vm, u2), over_first)},
                             {self.arc_partner(d1, arcs): u2, self.arc_partner(d2, arcs): v2})

    def _r2_delete(self, c1: int, c2: int) -> "LinkDiagram":
        arcs = self.arcs()
        faces = [self._face_from((c1, pos), arcs) for pos in range(4)]
        if not any(face and self._bounds(face, 2) and face[1][0] == c2 for face in faces):
            raise ValueError(f"crossings {c1!r}, {c2!r} do not bound a reducible bigon")
        welds = [((c, 0), (c, 2)) for c in (c1, c2)] + [((c, 1), (c, 3)) for c in (c1, c2)]
        return self._fused({c1, c2}, welds)

    def _r3(self, d_p: Dart) -> "LinkDiagram":
        face = self._face_from(d_p, self.arcs())
        if face is None or not self._bounds(face, 3):
            raise ValueError(f"dart {d_p!r} does not name a strand R3 can slide")
        (p, a_p), (q, _), (r, a_r) = face
        over_first = 0 if self._crossings[p].is_over(a_p) else 1  # the moving strand's side at p and q
        # the two ends of each crossing that lie off the face, counterclockwise
        (ext2_p, ext1_p), (ext2_q, ext1_q), (ext2_r, ext1_r) = (
            (self._crossings[c].ends[(a + 2) % 4], self._crossings[c].ends[(a + 3) % 4]) for c, a in face)
        n_pq, n_qr, n_rp = self._fresh_labels(3)
        return self._spliced({p: Crossing((ext1_q, ext2_r, n_pq, n_rp), over_first),
                              q: Crossing((n_pq, ext1_r, ext2_p, n_qr), over_first)},
                             {(r, (a_r + i) % 4): label
                              for i, label in enumerate((ext1_p, ext2_q, n_rp, n_qr))})

    # ------------------------------------------------------------------
    # move site enumeration

    def r1_delete_sites(self) -> list[int]:
        return [cid for cid in sorted(self._crossings) if self.kink_positions(cid)]

    def r2_sites(self) -> list[tuple[Dart, Dart]]:
        return [(d1, d2) for o in self.face_orbits() for i, d1 in enumerate(o)
                for d2 in o[i + 1:] if self.label_at(d1) != self.label_at(d2)]

    def r2_delete_sites(self) -> list[tuple[int, int]]:
        """Crossing pairs bounding a bigon whose one strand is over at both."""
        return list(dict.fromkeys((o[0][0], o[1][0]) for o in self.face_orbits() if self._bounds(o, 2)))

    def _bounds(self, face: list[Dart], n: int) -> bool:
        """Whether a face is a bigon (n = 2, an R2d site) or a triangle (n = 3,
        an R3 site) of n distinct crossings whose first strand is over at both
        of its crossings or under at both: the strand R2d lifts off or R3
        slides across the opposite crossing."""
        if len(face) != n or len({d[0] for d in face}) != n:
            return False
        (p, a_p), (q, a_q) = face[:2]
        return self._crossings[p].is_over(a_p) == self._crossings[q].is_over((a_q + 1) % 4)

    def r3_sites(self) -> list[Dart]:
        return [o[i] for o in self.face_orbits() for i in range(len(o))
                if self._bounds(o[i:] + o[:i], 3)]

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
        names: dict[int, int] = {}          # each label to its number of first appearance
        out = tuple(tuple(names.setdefault(label, len(names)) for label in ends)
                    for ends in rotated)
        return (out, self._free_loops)

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
    cur: dict[int, int] = {}        # bottom label of each strand a letter touches
    fresh = strands
    table: dict[int, Crossing] = {}
    for n, s in enumerate(word):
        i = abs(s)
        a = cur.get(i - 1, i - 1)
        b = cur.get(i, i)
        c, d = fresh, fresh + 1
        fresh += 2
        table[n] = Crossing((c, d, b, a), 0 if s > 0 else 1)
        cur[i - 1] = c
        cur[i] = d

    # The closure joins the bottom end of strand j to its top end, labelled
    # j; the joined arc keeps j, the smaller of its two labels.  A strand no
    # letter touches closes into a free circle.
    rename = {label: j for j, label in cur.items()}
    out = {
        cid: Crossing(tuple(rename.get(l, l) for l in x.ends), x.over_first)
        for cid, x in table.items()
    }
    return LinkDiagram(out, strands - len(cur))


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
