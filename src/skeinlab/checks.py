"""The `skeinlab verify` battery: deterministic cross-checks between the
Kauffman bracket, the torus skein algebra, SL2 traces and classical and
quantum lattice gauge theory."""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from fractions import Fraction

from . import characters, diagram, formats, lattice, qlattice, torus_skein
from .bracket import bracket, bracket_statesum, bracket_tl_sweep
from .poly import LaurentPoly, parse_laurent, render_laurent
from .qlattice import UqWord, classical_to_quantum, uq_trace, wilson_qlink


def _within(worst: float, tol: float, what: str) -> tuple[bool, str]:
    """Judge a worst-case numeric defect against its tolerance."""
    return worst <= tol, f"{what} {worst:.2e} (tol {tol:g})"


def _random_skein_element(rng: random.Random) -> torus_skein.TorusSkeinElement:
    total = torus_skein.TorusSkeinElement.zero()
    for _ in range(rng.randint(1, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        coeff = {rng.randint(-3, 3): rng.choice([-2, -1, 1, 2])
                 for _ in range(rng.randint(1, 2))}
        total = total + torus_skein.TorusSkeinElement({mono: LaurentPoly(coeff)})
    return total


def battery(seed: int) -> list[tuple[str, Callable[[], tuple[bool, str]]]]:
    """The checks as (name, function) pairs in run order.  Each returns
    (ok, detail).  They share one `random.Random` seeded with `seed`, so
    each check draws where the one before it stopped."""
    rng = random.Random(seed)
    corpus = diagram.corpus()

    def bracket_corpus():
        expected = {
            "unknot": "-A^2 - A^-2",
            "hopf": "A^6 + A^2 + A^-2 + A^-6",
            "trefoil": "A^7 + A^3 + A^-1 - A^-9",
            "figure_eight": "-A^10 - A^-10",
        }
        for name, want in expected.items():
            got_sum = render_laurent(bracket_statesum(corpus[name]))
            got_sweep = render_laurent(bracket_tl_sweep(corpus[name]))
            if got_sum != want or got_sweep != want:
                return False, f"{name}: {got_sum} / {got_sweep} != {want}"
        return True, "4 diagrams"

    def move_invariance():
        moves = 0
        for name, d in corpus.items():
            value = bracket_statesum(d)
            cur = d
            for _ in range(20):
                try:
                    cur, _desc = diagram.random_move(cur, rng)
                except ValueError:
                    cur = diagram.insert_kink_pair(cur)
                if bracket(cur) != value:
                    return False, f"bracket changed for {name}"
                moves += 1
        return True, f"{moves} moves"

    def kink_scaling():
        scale = {"R1+": LaurentPoly({3: -1}), "R1-": LaurentPoly({-3: -1})}
        for name, d in corpus.items():
            value = bracket_statesum(d)
            arcs = sorted({lab for x in d.crossings.values() for lab in x.ends})
            site = arcs[0] if arcs else "loop"
            for move, factor in scale.items():
                if bracket(d.apply_move(move, site)) != value * factor:
                    return False, f"{move} on {name}"
        return True, "8 kinks"

    def sweep_vs_statesum():
        for _ in range(12):
            d = diagram.random_braid_diagram(rng, max_crossings=9)
            if bracket_tl_sweep(d) != bracket_statesum(d):
                return False, f"mismatch on {d!r}"
        return True, "12 diagrams"

    def skein_normal_form():
        got = torus_skein.render_skein(torus_skein.parse_skein("y*x"))
        want = "A^2*x*y - (A^3 - A^-1)*z"
        if got != want:
            return False, f"{got!r} != {want!r}"
        for _ in range(20):
            p, q, r = (_random_skein_element(rng) for _ in range(3))
            if (p * q) * r != p * (q * r):
                return False, "associativity defect"
        return True, "normal form + 20 triples"

    def poisson_structure():
        half = Fraction(1, 2)
        C = torus_skein.CommPoly
        want = {
            ("x", "y"): C({(1, 1, 0): -half, (0, 0, 1): -1}),
            ("y", "z"): C({(0, 1, 1): -half, (1, 0, 0): -1}),
            ("z", "x"): C({(1, 0, 1): -half, (0, 1, 0): -1}),
        }
        T = torus_skein.TorusSkeinElement
        gens = {"x": T.x(), "y": T.y(), "z": T.z()}
        for (a, b), w in want.items():
            got = torus_skein.poisson_bracket(gens[a], gens[b])
            if got != w:
                return False, f"{{{a},{b}}} = {got}"
            if torus_skein.poisson_bracket(gens[b], gens[a]) != -w:
                return False, "antisymmetry"
        for _ in range(3):          # against the h-series of the commutator
            p, q = _random_skein_element(rng), _random_skein_element(rng)
            series = [(m, c.to_h_series(1)) for m, c in (p * q - q * p).items()]
            oracle = C({m: s.coeff(1) for m, s in series})
            if any(s.constant_term() for _, s in series) or (
                    torus_skein.poisson_bracket(p, q) != oracle):
                return False, f"{{{p}, {q}}} is not the commutator's h-term"
        return True, "3 brackets + antisymmetry + 3 random pairs"

    def trace_identities():
        worst = 0.0
        for _ in range(200):
            rep = characters.random_rep("uv", rng)
            worst = max(worst, abs(characters.trace_identity_residual(rep, "u", "v")))
        return _within(worst, 1e-9, "200 pairs, max residual")

    def phi_multiplicative():
        worst = 0.0
        for _ in range(25):
            rep = characters.random_rep("ab", rng)
            p, q = _random_skein_element(rng), _random_skein_element(rng)
            lhs = characters.phi_evaluate((p * q).specialize(-1), rep)
            rhs = (characters.phi_evaluate(p.specialize(-1), rep)
                   * characters.phi_evaluate(q.specialize(-1), rep))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        return _within(worst, 1e-8, "25 pairs, max relative residual")

    def wilson_gauge_invariance():
        g = lattice.bowtie_graph()
        worst = 0.0
        for _ in range(5):
            conn = {e: characters.random_sl2(rng) for e in g.edges}
            gauge = {v: characters.random_sl2(rng) for v in g.vertices}
            conn2 = lattice.gauge_act(g, gauge, conn)
            for face in g.faces:
                worst = max(worst, abs(lattice.wilson_loop(g, conn, face)
                                       - lattice.wilson_loop(g, conn2, face)))
        return _within(worst, 1e-10, "5 gauges, max defect")

    def rep_connection_traces():
        g = lattice.punctured_torus_graph()
        worst = 0.0
        for _ in range(5):
            rep = characters.random_rep("ab", rng)
            conn = lattice.rep_to_connection(g, {1: rep["a"], 2: rep["b"]}, tree=set())
            for word, path in (("a", [(1, 1)]), ("b", [(2, 1)]), ("ab", [(1, 1), (2, 1)])):
                got = lattice.wilson_loop(g, conn, path)
                worst = max(worst, abs(got + characters.trace_word(rep, word)))
        return _within(worst, 1e-10, "5 reps, max defect")

    def yang_baxter():
        worst = 0.0
        for _ in range(5):
            t = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
            worst = max(worst, qlattice.yang_baxter_residual(t))
        return _within(worst, 1e-10, "5 values of t, max residual")

    def charmed_and_tangle():
        worst = 0.0
        for _ in range(3):
            t = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.4, 0.4))
            worst = max(worst, abs(uq_trace(qlattice.W_CHARM, t) - (t * t + 1 / (t * t))))
        ok, detail = _within(worst, 1e-12, "tr k - t^2 - t^-2 at 3 values of t, max")
        graph = lattice.CiliatedGraph(             # the star of edges w -> u1, u2, u3
            ["w", "u1", "u2", "u3"], {i: ("w", f"u{i}") for i in (1, 2, 3)},
            {"w": [(i, 0) for i in (1, 2, 3)], **{f"u{i}": [(i, 1)] for i in (1, 2, 3)}})
        perm = qlattice.fundamental_tangle(graph, "w").permutation
        if perm != (1, 4, 2, 5, 3, 6):
            return False, f"permutation {perm}"
        return ok, f"{detail}; permutation (1)(2453)(6)"

    def bowtie_skein_residual():
        g = lattice.bowtie_graph()
        d, d_a, d_b = qlattice.bowtie_qlinks()
        triv = {e: UqWord.unit() for e in g.edges}
        worst = words = 0.0
        for _ in range(3):
            t = complex(rng.uniform(0.7, 1.3), rng.uniform(-0.3, 0.3))
            worst = max(worst, abs(qlattice.skein_residual(g, d, d_a, d_b, triv, t)))
            gauge = {v: characters.random_sl2(rng) for v in g.vertices}
            flat = classical_to_quantum(
                lattice.gauge_act(g, gauge, lattice.trivial_connection(g)))
            worst = max(worst, abs(qlattice.skein_residual(g, d, d_a, d_b, flat, t)))
            # the matrix evaluation against the expanded decorated words
            for link in (d, d_a, d_b):
                got = wilson_qlink(g, link, triv, t)
                want = (-1) ** len(link.loops) * sum(
                    math.prod([uq_trace(w, t) for w in products])
                    for products in qlattice.decorated_words(g, link, triv, t))
                words = max(words, abs(got - want) / max(1.0, abs(want)))
        ok_r, residual = _within(worst, 1e-8, "max residual")
        ok_w, against_words = _within(words, 1e-10, "words")
        return ok_r and ok_w, f"{residual}, {against_words}"

    def epsilon_invariance():
        g = lattice.bowtie_graph()
        d, _, _ = qlattice.bowtie_qlinks()
        triv = {e: UqWord.unit() for e in g.edges}
        t = complex(1.1, 0.2)
        base = wilson_qlink(g, d, triv, t)
        worst = 0.0
        for y in (UqWord.letter("K"), UqWord.letter("E"), UqWord.letter("F")):
            total = sum(wilson_qlink(g, d, c2, t)
                        for c2 in qlattice.gauge_act_q(g, y, "v3", triv))
            worst = max(worst, abs(total - qlattice.uq_counit(y) * base))
        return _within(worst, 1e-8, "K, E, F at v3, max defect")

    def quantum_classical_limit():
        g = lattice.bowtie_graph()
        _, d_a, d_b = qlattice.bowtie_qlinks()
        worst = 0.0
        for _ in range(3):
            conn = {e: characters.random_sl2(rng) for e in g.edges}
            qconn = classical_to_quantum(conn)
            got = wilson_qlink(g, d_a, qconn, 1.0)
            worst = max(worst, abs(got - lattice.wilson_loop(g, conn, d_a.loops[0])))
            got_b = wilson_qlink(g, d_b, qconn, 1.0)
            want_b = (lattice.wilson_loop(g, conn, d_b.loops[0])
                      * lattice.wilson_loop(g, conn, d_b.loops[1]))
            worst = max(worst, abs(got_b - want_b))
        return _within(worst, 1e-10, "3 connections, max defect")

    def nabla_coassociativity():
        graph = lattice.triangle_graph()
        t = complex(1.05, 0.1)
        worst = 0.0
        for letters in (("K", "E"), ("E", "F")):
            inputs = [UqWord.letter(ch) for ch in letters]
            worst = max(worst, qlattice.nabla_coassociativity_residual(
                graph, "v1", inputs, t, rng))
        return _within(worst, 1e-8, "2 input pairs, max defect")

    def serialization_round_trips():
        def round_trip(to_json, from_json, value):
            return from_json(json.loads(json.dumps(to_json(value))))

        d = diagram.parse_braid([1, 1, 1], 2)
        if not d.same_diagram(
                round_trip(formats.diagram_to_json, formats.diagram_from_json, d)):
            return False, "diagram round trip"
        p = LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1})
        if parse_laurent(render_laurent(p)) != p:
            return False, "laurent round trip"
        f = formats
        for name, to_json, from_json, value in (
                ("graph", f.graph_to_json, f.graph_from_json, lattice.bowtie_graph()),
                ("qlink", f.qlink_to_json, f.qlink_from_json, qlattice.bowtie_qlinks()[0]),
                ("qconnection", f.qconnection_to_json, f.qconnection_from_json,
                 {1: UqWord({("E", "K"): 1.5, (): -2.0})})):
            if to_json(round_trip(to_json, from_json, value)) != to_json(value):
                return False, f"{name} round trip"
        return True, "5 formats"

    return [(fn.__name__, fn) for fn in (
        bracket_corpus, move_invariance, kink_scaling, sweep_vs_statesum,
        skein_normal_form, poisson_structure, trace_identities, phi_multiplicative,
        wilson_gauge_invariance, rep_connection_traces, yang_baxter,
        charmed_and_tangle, bowtie_skein_residual, epsilon_invariance,
        quantum_classical_limit, nabla_coassociativity, serialization_round_trips)]


def run(seed: int) -> list[dict]:
    """Run the battery; one {"name", "ok", "detail"} per check.  A check that
    raises fails with an "error: ..." detail and the run goes on."""
    results = []
    for name, fn in battery(seed):
        try:
            ok, detail = fn()
        except Exception as exc:          # a crashed check is a failure, not an abort
            ok, detail = False, f"error: {exc!r}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return results
