"""Exact results of every diagram surgery on a fixed seeded corpus.

The expected results live in `golden_moves.json` next to this file.  Each
record is [input, move, site, crossings, free_loops]: the name of the input
diagram, the move (`R1+`, `R1-`, `R1d`, `R2`, `R2d`, `R3`, the smoothings
`A` and `B`, or `union` with the next input), its site, and the result's
crossing table in its own order as [id, ends, over_first] triples.  The
inputs are the corpus, seeded braid closures, and those closures after
seeded random move walks, which is what reaches most R2d and R3 sites.  So
a change to how any surgery labels arcs, numbers crossings or orders its
table shows up here, not only a change to the diagram it describes.  After
a deliberate change of that kind, rewrite the file with
`python tests/test_moves_golden.py` and review the diff line by line.
"""

import json
import random
import sys
from pathlib import Path

from skeinlab.diagram import LinkDiagram, corpus, insert_kink_pair, random_braid_diagram, random_move

GOLDEN = Path(__file__).with_name("golden_moves.json")


def inputs(seed: int = 20261020) -> list[tuple[str, LinkDiagram]]:
    """(name, diagram) pairs: the corpus, 12 closures and two walks from each."""
    rng = random.Random(seed)
    out = list(corpus().items())
    braids = [(f"braid {i}", random_braid_diagram(rng, max_crossings=6)) for i in range(12)]
    out += braids
    for walk in ("walked", "walked again"):
        for name, d in braids:
            cur, cap = d, d.crossing_count + 4
            for _ in range(rng.randint(2, 6)):
                try:
                    cur, _desc = random_move(cur, rng, max_crossings=cap)
                except ValueError:          # no move applies: kink a strand, as verify does
                    cur = insert_kink_pair(cur)
            out.append((f"{name} {walk}", cur))
    return out


def _results(d: LinkDiagram, other: LinkDiagram, rng: random.Random):
    """(move, site, result) for a seeded sample of the sites of every move."""
    def some(sites, k):
        return rng.sample(sites, min(k, len(sites)))

    arcs = sorted(d.arcs())
    loop = ["loop"] if d.free_loops else []
    for move in ("R1+", "R1-"):
        for site in some(arcs, 1) + loop:
            kinked = d.apply_move(move, site)
            yield move, site, kinked
            new = max(kinked.crossing_ids())
            yield "R1d", new, kinked.apply_move("R1d", new)
    for site in some(d.r1_delete_sites(), 1):
        yield "R1d", site, d.apply_move("R1d", site)
    for d1, d2 in some(d.r2_sites(), 1):
        for over in (False, True):
            yield "R2", [d1, d2, over], d.apply_move("R2", (d1, d2, over))
    for site in some(d.r2_delete_sites(), 2):
        yield "R2d", site, d.apply_move("R2d", site)
    for site in some(d.r3_sites(), 3):
        yield "R3", site, d.apply_move("R3", site)
    for cid in some(d.crossing_ids(), 1):
        for kind in ("A", "B"):
            yield kind, cid, d.smoothed(cid, kind)
    yield "union", None, d.disjoint_union(other)


def records(seed: int = 20261020) -> list[list]:
    """One record per move result, in a fixed order, as JSON would read it back."""
    rng = random.Random(seed)
    diagrams = inputs(seed)
    out = []
    for i, (name, d) in enumerate(diagrams):
        other = diagrams[(i + 1) % len(diagrams)][1]
        for move, site, result in _results(d, other, rng):
            table = [[cid, list(x.ends), x.over_first] for cid, x in result.crossings.items()]
            out.append([name, move, site, table, result.free_loops])
    return json.loads(json.dumps(out))


def test_move_results_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = records()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_the_golden_file_covers_every_move():
    counts: dict[str, int] = {}
    for _name, move, site, _table, _loops in json.loads(GOLDEN.read_text(encoding="utf-8")):
        key = f"{move} loop" if site == "loop" else move
        counts[key] = counts.get(key, 0) + 1
    kinds = ("R1+", "R1-", "R1+ loop", "R1- loop", "R1d", "R2", "R2d", "R3", "A", "B", "union")
    assert all(counts.get(k, 0) >= 20 for k in kinds), counts


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in records())
    path.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
