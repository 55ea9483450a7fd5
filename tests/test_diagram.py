"""Link diagrams: parsing, smoothing, faces, and the local moves."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab.bracket import bracket
from skeinlab.diagram import (
    Crossing,
    LinkDiagram,
    _chains,
    corpus,
    insert_kink_pair,
    parse_braid,
    parse_pd,
    random_braid_diagram,
    random_move,
    smoothing_weld_positions,
)
from skeinlab.poly import LaurentPoly


def kink() -> LinkDiagram:
    # One crossing whose two right-hand ends are joined: a curl on a strand.
    return LinkDiagram({0: Crossing((0, 1, 1, 0), 0)})


def reference_braid_closure(word, strands):
    """Closure of a braid word computed the long way.

    Letters get fresh label pairs in order, the closure joins each strand's
    bottom label to its top label, and every label is then renamed to the
    smallest label of its class, the classes found by a flood fill.
    """
    cur = list(range(strands))
    fresh = strands
    raw = []
    for s in word:
        i = abs(s)
        raw.append(((fresh, fresh + 1, cur[i], cur[i - 1]), 0 if s > 0 else 1))
        cur[i - 1], cur[i] = fresh, fresh + 1
        fresh += 2
    joined = {label: set() for label in range(fresh)}
    for j in range(strands):
        joined[cur[j]].add(j)
        joined[j].add(cur[j])
    smallest = {}
    for label in range(fresh):
        cls, todo = {label}, [label]
        while todo:
            for other in joined[todo.pop()] - cls:
                cls.add(other)
                todo.append(other)
        smallest[label] = min(cls)
    crossings = {n: Crossing(tuple(smallest[l] for l in ends), over)
                 for n, (ends, over) in enumerate(raw)}
    used = {l for x in crossings.values() for l in x.ends}
    loops = len(set(smallest.values()) - used)
    return crossings, loops


@st.composite
def braid_words(draw):
    strands = draw(st.integers(1, 6))
    if strands == 1:
        return strands, []
    letters = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return strands, draw(st.lists(letters, max_size=40))


class TestParsing:
    @settings(max_examples=200, deadline=None)
    @given(braid_words())
    def test_braid_labels_are_class_minima(self, case):
        strands, word = case
        d = parse_braid(word, strands)
        crossings, loops = reference_braid_closure(word, strands)
        assert d.crossings == crossings
        assert d.free_loops == loops

    def test_empty_braid_closes_to_circles(self):
        d = parse_braid([], 2)
        assert d.crossing_count == 0
        assert d.free_loops == 2
        assert d.component_count() == 2

    def test_braid_letter_validation(self):
        with pytest.raises(ValueError):
            parse_braid([2], 2)
        with pytest.raises(ValueError):
            parse_braid([0], 2)
        with pytest.raises(ValueError):
            parse_braid([], 0)

    def test_corpus_shapes(self):
        c = corpus()
        assert c["unknot"].crossing_count == 0 and c["unknot"].free_loops == 1
        assert c["hopf"].crossing_count == 2
        assert c["hopf"].component_count() == 2
        assert c["trefoil"].crossing_count == 3
        assert c["trefoil"].component_count() == 1
        assert c["figure_eight"].crossing_count == 4
        assert c["figure_eight"].component_count() == 1
        for d in c.values():
            assert d.is_planar()

    def test_unused_strands_become_free_loops(self):
        d = parse_braid([1], 3)
        assert d.crossing_count == 1
        assert d.free_loops == 1
        assert d.component_count() == 2
        assert parse_braid([1, -2], 10 ** 12).free_loops == 10 ** 12 - 3

    def test_pd_text(self):
        d = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        assert d.crossing_count == 3
        assert d.component_count() == 1
        assert d.is_planar()
        d2 = parse_pd("O O X[0,1,1,0]")
        assert d2.free_loops == 2 and d2.crossing_count == 1
        with pytest.raises(ValueError):
            parse_pd("X[1,2,3]")


@st.composite
def links_and_ends(draw):
    """Pairs of items from a small pool, and distinct ends drawn from the
    linked items and a few items no link holds."""
    links = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12))
    pool = sorted({x for link in links for x in link} | {10, 11})
    return links, draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))


class TestChains:
    @settings(max_examples=300, deadline=None)
    @given(links_and_ends())
    def test_classes_match_a_breadth_first_search(self, case):
        links, ends = case
        near: dict[int, set[int]] = {}
        for x, y in links:
            near.setdefault(x, set()).add(y)
            near.setdefault(y, set()).add(x)
        for end in ends:
            near.setdefault(end, set())
        classes, seen = [], set()
        for item in near:
            if item not in seen:
                cls, queue = {item}, [item]
                for x in queue:
                    queue.extend(near[x] - cls)
                    cls |= near[x]
                seen |= cls
                classes.append(cls)
        held = [tuple(e for e in ends if e in cls) for cls in classes]
        chains, closed = _chains(links, ends)
        assert sorted(map(tuple, chains)) == sorted(h for h in held if h)
        assert closed == sum(not h for h in held)

    def test_braid_components_are_the_cycles_of_its_permutation(self):
        # letter +-i swaps strands i - 1 and i; a strand no letter touches is a
        # fixed point of the permutation and a free loop of the closure
        rng = random.Random(30)
        for _ in range(500):
            strands = rng.randint(1, 6)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(0, 12) if strands > 1 else 0)]
            perm = list(range(strands))
            for s in word:
                perm[abs(s) - 1], perm[abs(s)] = perm[abs(s)], perm[abs(s) - 1]
            cycles, left = 0, set(perm)
            while left:
                cycles += 1
                j = left.pop()
                while perm[j] in left:
                    j = perm[j]
                    left.discard(j)
            assert parse_braid(word, strands).component_count() == cycles, (strands, word)


class TestSmoothing:
    def test_weld_positions_follow_the_overstrand(self):
        pos = smoothing_weld_positions(Crossing((0, 1, 2, 3), 1), "A")
        assert set(map(frozenset, pos)) == {frozenset({0, 1}), frozenset({2, 3})}
        pos = smoothing_weld_positions(Crossing((0, 1, 2, 3), 1), "B")
        assert set(map(frozenset, pos)) == {frozenset({1, 2}), frozenset({3, 0})}
        # Flipping which strand is on top swaps the two smoothings.
        pos = smoothing_weld_positions(Crossing((0, 1, 2, 3), 0), "A")
        assert set(map(frozenset, pos)) == {frozenset({1, 2}), frozenset({3, 0})}

    def test_kink_smoothings(self):
        d = kink()
        assert d.smoothed(0, "A").free_loops == 2
        assert d.smoothed(0, "B").free_loops == 1

    def test_trefoil_all_a_state(self):
        d = corpus()["trefoil"]
        for cid in d.crossing_ids():
            d = d.smoothed(cid, "A")
        assert d.crossing_count == 0
        assert d.free_loops == 2

    def test_smoothing_drops_one_crossing(self):
        d = corpus()["figure_eight"]
        s = d.smoothed(d.crossing_ids()[0], "B")
        assert s.crossing_count == d.crossing_count - 1
        assert s.is_planar()


class TestFaces:
    def test_euler_count_on_corpus(self):
        # V - E + F = 2 on each connected piece forces the face census below.
        hopf = corpus()["hopf"]
        assert len(hopf.face_orbits()) == 4
        trefoil = corpus()["trefoil"]
        assert len(trefoil.face_orbits()) == 5

    def test_nonplanar_virtual_crossing_pattern_detected(self):
        # Two crossings wired with an end transposition cannot be drawn flat.
        d = LinkDiagram({
            0: Crossing((0, 1, 2, 3), 1),
            1: Crossing((0, 2, 1, 3), 1),
        })
        assert not d.is_planar()

    def test_planarity_matches_euler_per_piece(self):
        # Random 4-valent maps, alone and beside a braid closure: is_planar
        # must agree with V - E + F = 2 checked on every connected piece.
        def planar_by_pieces(d):
            arcs = list(d.arcs().values())
            faces = d.face_orbits()
            unseen = set(d.crossing_ids())
            while unseen:
                piece, stack = set(), [unseen.pop()]
                while stack:
                    c = stack.pop()
                    piece.add(c)
                    near = {d2[0] for d1, d2 in arcs if d1[0] == c}
                    near |= {d1[0] for d1, d2 in arcs if d2[0] == c}
                    stack.extend(near & unseen)
                    unseen -= near
                e = sum(1 for d1, _ in arcs if d1[0] in piece)
                f = sum(1 for o in faces if o[0][0] in piece)
                if len(piece) - e + f != 2:
                    return False
            return True

        rng = random.Random(29)
        seen = set()
        for _ in range(80):
            n = rng.randint(1, 5)
            labels = [l for l in range(2 * n) for _ in range(2)]
            rng.shuffle(labels)
            d = LinkDiagram({i: (tuple(labels[4 * i:4 * i + 4]), rng.randint(0, 1))
                             for i in range(n)})
            if rng.random() < 0.5:
                d = d.disjoint_union(random_braid_diagram(rng, max_crossings=5))
            want = planar_by_pieces(d)
            assert d.is_planar() == want
            seen.add(want)
        assert seen == {True, False}


class TestMoves:
    def test_curl_insert_then_delete_round_trips(self):
        d = corpus()["trefoil"]
        arc = sorted(d.arcs())[0]
        d2 = d.apply_move("R1+", arc)
        assert d2.crossing_count == d.crossing_count + 1
        sites = d2.r1_delete_sites()
        assert sites
        d3 = d2.apply_move("R1d", sites[-1])
        assert d3.same_diagram(d)

    def test_finger_move_insert_then_delete_round_trips(self):
        d = corpus()["trefoil"]
        sites = d.r2_sites()
        assert sites
        d1, d2_dart = sites[0]
        d2 = d.apply_move("R2", (d1, d2_dart, True))
        assert d2.crossing_count == d.crossing_count + 2
        assert d2.is_planar()
        fresh = tuple(sorted(set(d2.crossings) - set(d.crossings)))
        pairs = {tuple(sorted(p)) for p in d2.r2_delete_sites()}
        assert fresh in pairs
        d3 = d2.apply_move("R2d", fresh)
        assert d3.same_diagram(d)

    def test_clasp_bigons_are_not_cancellable(self):
        # Both bigons in the standard two-crossing two-component diagram are
        # clasps (same strand on top twice), so no cancelling pair exists.
        assert corpus()["hopf"].r2_delete_sites() == []

    def test_triangle_slide_preserves_shape_census(self):
        d = corpus()["figure_eight"]
        # Build a triangle by a finger move first if none is present.
        rng = random.Random(11)
        for _ in range(40):
            sites = d.r3_sites()
            if sites:
                d2 = d.apply_move("R3", rng.choice(sites))
                assert d2.crossing_count == d.crossing_count
                assert d2.component_count() == d.component_count()
                assert d2.is_planar()
                d = d2
            else:
                d, _ = random_move(d, rng)

    def test_random_walk_preserves_planarity_and_components(self):
        rng = random.Random(5)
        for name, d in corpus().items():
            if d.crossing_count == 0:
                d = insert_kink_pair(d)
            base_components = d.component_count()
            for _ in range(60):
                d, move = random_move(d, rng)
                assert d.is_planar(), (name, move)
                assert d.component_count() == base_components, (name, move)

    def test_kink_pair_preserves_components(self):
        d = corpus()["unknot"]
        d2 = insert_kink_pair(d)
        assert d2.crossing_count == 2
        assert d2.component_count() == d.component_count()
        assert d2.is_planar()

    def test_unknown_move_rejected(self):
        with pytest.raises(ValueError):
            corpus()["trefoil"].apply_move("r4", None)


def move_site_diagrams():
    """The corpus with kinks added, and seeded braid closures with R2 fingers."""
    rng = random.Random(41)
    out = []
    for d in corpus().values():
        d = insert_kink_pair(d) if d.crossing_count == 0 else d.apply_move("R1+", min(d.arcs()))
        out.append(d)
    for _ in range(25):
        d = random_braid_diagram(rng, max_crossings=6, max_strands=4)
        for _ in range(rng.randint(1, 2)):
            if d.crossing_count == 0:
                d = insert_kink_pair(d)
            d1, d2 = rng.choice(d.r2_sites())
            d = d.apply_move("R2", (d1, d2, rng.random() < 0.5))
        out.append(d)
    return out


class TestMoveSites:
    # A deletion move applies exactly at the sites its enumerator lists.
    KINK = (LaurentPoly.term(-1, 3), LaurentPoly.term(-1, -3))

    def test_listed_sites_apply_and_keep_the_bracket(self):
        counts = Counter()
        for d in move_site_diagrams():
            before = bracket(d)
            for cid in d.r1_delete_sites():
                after = d.apply_move("R1d", cid)
                assert after.crossing_count == d.crossing_count - 1
                assert before in {f * bracket(after) for f in self.KINK}
                counts["R1d"] += 1
            for pair in d.r2_delete_sites():
                for site in (pair, pair[::-1]):
                    after = d.apply_move("R2d", site)
                    assert after.crossing_count == d.crossing_count - 2
                    assert bracket(after) == before
                counts["R2d"] += 1
            for dart in d.r3_sites():
                after = d.apply_move("R3", dart)
                assert after.is_planar()
                assert bracket(after) == before
                counts["R3"] += 1
        assert min(counts[m] for m in ("R1d", "R2d", "R3")) >= 5, counts

    def test_unlisted_sites_are_refused(self):
        for d in move_site_diagrams():
            kinks = d.r1_delete_sites()
            pairs = d.r2_delete_sites()
            triangles = d.r3_sites()
            for cid in d.crossing_ids():
                if cid not in kinks:
                    with pytest.raises(ValueError):
                        d.apply_move("R1d", cid)
                for other in d.crossing_ids():
                    if (cid, other) not in pairs and (other, cid) not in pairs:
                        with pytest.raises(ValueError):
                            d.apply_move("R2d", (cid, other))
                for pos in range(4):
                    if (cid, pos) not in triangles:
                        with pytest.raises(ValueError):
                            d.apply_move("R3", (cid, pos))

    @pytest.mark.parametrize("name, move, site", [
        ("trefoil", "R1d", 0),                # a crossing that is not a kink
        ("trefoil", "R1d", 99),               # a missing crossing id
        ("trefoil", "R2d", (0, 99)),
        ("hopf", "R2d", (0, 1)),              # its bigons alternate
        ("hopf", "R2d", (1, 0)),
        ("trefoil", "R3", (0, 0)),            # a dart not in r3_sites()
        ("figure_eight", "R3", (99, 0)),
    ])
    def test_named_bad_sites(self, name, move, site):
        with pytest.raises(ValueError):
            corpus()[name].apply_move(move, site)


class TestCanonical:
    def test_relabeling_is_invisible(self):
        d = parse_braid([1, 1, 1], 2)
        e = LinkDiagram(
            {10 + k: Crossing(tuple(x + 50 for x in c.ends), c.over_first)
             for k, c in d.crossings.items()},
            d.free_loops,
        )
        assert d.same_diagram(e)

    def test_distinct_diagrams_differ(self):
        assert not parse_braid([1, 1], 2).same_diagram(parse_braid([1, -1], 2))

    def test_disjoint_union_adds(self):
        a, b = corpus()["hopf"], corpus()["trefoil"]
        u = a.disjoint_union(b)
        assert u.crossing_count == a.crossing_count + b.crossing_count
        assert u.component_count() == a.component_count() + b.component_count()
        assert u.is_planar()

    def test_random_braid_generator_is_wellformed(self):
        rng = random.Random(3)
        for _ in range(30):
            d = random_braid_diagram(rng, max_crossings=10, max_strands=4)
            assert d.crossing_count <= 10
            assert d.is_planar()
