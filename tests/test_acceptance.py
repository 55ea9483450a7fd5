"""Acceptance gate: one test per delivery criterion, at its stated tolerance.

Run with -v to get a single pass/fail line per criterion.  Each test is
self-contained: it builds its own inputs, states its tolerance inline, and
avoids depending on any other test's state.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import numpy as np

from skeinlab import checks
from skeinlab.bracket import bracket, bracket_statesum, bracket_tl_sweep, sweep_order
from skeinlab.characters import (
    phi_evaluate,
    random_rep,
    random_sl2,
    sl2_inverse,
    trace_identity_residual,
)
from skeinlab.diagram import (
    corpus,
    insert_kink_pair,
    parse_braid,
    random_braid_diagram,
    random_move,
)
from skeinlab.formats import (
    connection_from_json,
    connection_to_json,
    diagram_from_json,
    diagram_to_json,
    graph_from_json,
    graph_to_json,
    qconnection_from_json,
    qconnection_to_json,
    qlink_from_json,
    qlink_to_json,
    rep_from_json,
    rep_to_json,
)
from skeinlab.lattice import (
    CiliatedGraph,
    bouquet,
    bowtie_graph,
    gauge_act,
    holonomy,
    punctured_torus_graph,
    rep_connection_on_bouquet,
    triangle_graph,
    trivial_connection,
    wilson_loop,
)
from skeinlab.poly import LaurentPoly
from skeinlab.qlattice import (
    UqWord,
    W_CHARM,
    W_E,
    W_F,
    W_K,
    bowtie_qlinks,
    classical_to_quantum,
    decorated_words,
    fundamental_tangle,
    gauge_act_q,
    nabla_coassociativity_residual,
    r_matrix_terms,
    skein_residual,
    uq_antipode,
    uq_counit,
    uq_trace,
    wilson_qlink,
    yang_baxter_residual,
)
from skeinlab.torus_skein import CommPoly, TorusSkeinElement, lift, poisson_bracket


def test_bracket_values_on_reference_diagrams():
    """Exact bracket values, state enumeration checked before the sweep."""
    frozen = {
        "unknot": "-A^2 - A^-2",
        "hopf": "A^6 + A^2 + A^-2 + A^-6",
        "trefoil": "A^7 + A^3 + A^-1 - A^-9",
        "figure_eight": "-A^10 - A^-10",
    }
    for name, d in corpus().items():
        assert str(bracket_statesum(d)) == frozen[name], name
        assert str(bracket_tl_sweep(d)) == frozen[name], name


def test_bracket_invariance_under_many_random_moves():
    """200 random finger/slide moves per diagram never change the bracket;
    curls scale it by exactly -A^3 or -A^-3."""
    rng = random.Random(2024)
    for name, d in corpus().items():
        if d.crossing_count == 0:
            d = insert_kink_pair(d)
        expected = bracket(d)
        for _ in range(200):
            d, move = random_move(d, rng)
            assert bracket(d) == expected, (name, move)
    for name, d in corpus().items():
        if not d.arcs():
            continue
        arc = sorted(d.arcs())[0]
        base = bracket(d)
        assert bracket(d.apply_move("R1+", arc)) == LaurentPoly.term(-1, 3) * base
        assert bracket(d.apply_move("R1-", arc)) == LaurentPoly.term(-1, -3) * base


def test_sweep_equals_enumeration_and_is_much_faster():
    """Exact agreement on 100 random diagrams of up to 12 crossings; on a
    16-crossing diagram of sweep width at most 5 the sweep runs under one
    second and beats full enumeration by at least 50x."""
    rng = random.Random(77)
    for _ in range(100):
        d = random_braid_diagram(rng, max_crossings=12, max_strands=5)
        assert bracket_tl_sweep(d) == bracket_statesum(d)

    big = parse_braid([1] * 16, 2)
    assert big.crossing_count == 16
    assert len(sweep_order(big, max_width=5)) == 16

    sweep_time = min(
        _timed(lambda: bracket_tl_sweep(big))[1] for _ in range(3))
    value, enum_time = _timed(lambda: bracket_statesum(big))
    assert value == bracket_tl_sweep(big)
    assert sweep_time < 1.0
    assert enum_time >= 50 * sweep_time, (enum_time, sweep_time)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_skein_product_and_poisson_extraction():
    """Associativity on 100 random triples, commutativity at A = +-1, and
    the Poisson bracket against a direct series expansion, all exact."""
    rng = random.Random(99)

    def rand_elem():
        return TorusSkeinElement({
            tuple(rng.randint(0, 2) for _ in range(3)):
                LaurentPoly({rng.randint(-3, 3): rng.choice([-2, -1, 1, 2])
                             for _ in range(rng.randint(1, 2))})
            for _ in range(rng.randint(1, 3))})

    for _ in range(100):
        p, q, r = rand_elem(), rand_elem(), rand_elem()
        assert (p * q) * r == p * (q * r)
    for _ in range(25):
        p, q = rand_elem(), rand_elem()
        comm = p * q - q * p
        assert comm.specialize(1).is_zero
        assert comm.specialize(-1).is_zero

    # Independent expansion oracle: the h^j coefficient of c*A^k under
    # A = -exp(h/4) is c * (-1)^k (k/4)^j / j!, summed over terms.
    def h_coeff(poly: LaurentPoly, j: int) -> Fraction:
        total = Fraction(0)
        for k, c in poly.items():
            total += Fraction(c) * (-1) ** k * Fraction(k, 4) ** j / factorial(j)
        return total

    def oracle(p: CommPoly, q: CommPoly) -> CommPoly:
        comm = lift(p) * lift(q) - lift(q) * lift(p)
        table = {}
        for mono, coeff in comm.items():
            assert h_coeff(coeff, 0) == 0
            table[mono] = h_coeff(coeff, 1)
        return CommPoly(table)

    cx, cy, cz = CommPoly.x(), CommPoly.y(), CommPoly.z()
    half = Fraction(1, 2)
    assert poisson_bracket(cx, cy) == CommPoly({(1, 1, 0): -half, (0, 0, 1): -1})
    assert poisson_bracket(cy, cz) == CommPoly({(0, 1, 1): -half, (1, 0, 0): -1})
    assert poisson_bracket(cz, cx) == CommPoly({(1, 0, 1): -half, (0, 1, 0): -1})

    def rand_comm():
        return CommPoly({tuple(rng.randint(0, 2) for _ in range(3)):
                         rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})

    for _ in range(15):
        p, q, r = rand_comm(), rand_comm(), rand_comm()
        assert poisson_bracket(p, q) == oracle(p, q)
        assert (poisson_bracket(p, q) + poisson_bracket(q, p)).is_zero
        jac = (poisson_bracket(p, poisson_bracket(q, r))
               + poisson_bracket(q, poisson_bracket(r, p))
               + poisson_bracket(r, poisson_bracket(p, q)))
        assert jac.is_zero
        leib = poisson_bracket(p * q, r) - (
            p * poisson_bracket(q, r) + q * poisson_bracket(p, r))
        assert leib.is_zero


def test_trace_identities_and_evaluation_map():
    """Trace identity below 1e-9 on 1000 word pairs; evaluation-map
    multiplicativity below 1e-8 on 100 polynomial pairs."""
    rng = np.random.default_rng(314)
    rep = random_rep("ab", rng)
    worst = 0.0
    for _ in range(1000):
        u = "".join(rng.choice(list("abAB"), size=rng.integers(1, 6)))
        v = "".join(rng.choice(list("abAB"), size=rng.integers(1, 6)))
        worst = max(worst, abs(trace_identity_residual(rep, u, v)))
    assert worst < 1e-9

    worst = 0.0
    for _ in range(100):
        rep = random_rep("ab", rng)
        p = CommPoly({tuple(rng.integers(0, 3, size=3)): int(rng.integers(-3, 4))
                      for _ in range(rng.integers(1, 4))})
        q = CommPoly({tuple(rng.integers(0, 3, size=3)): int(rng.integers(-3, 4))
                      for _ in range(rng.integers(1, 4))})
        worst = max(worst, abs(phi_evaluate(p * q, rep)
                               - phi_evaluate(p, rep) * phi_evaluate(q, rep)))
    assert worst < 1e-8


def test_holonomy_wilson_and_gauge_symmetry():
    """Holonomy is the ordered edge product; Wilson loops are gauge
    invariant below 1e-10; spine connections reproduce the evaluation map
    below 1e-10."""
    rng = np.random.default_rng(2718)
    g = bowtie_graph()
    for _ in range(5):
        conn = {e: random_sl2(rng) for e in g.edges}
        got = holonomy(g, conn, [(4, 1), (5, -1), (6, 1)])
        m = {e: np.reshape(conn[e], (2, 2)) for e in (4, 5, 6)}
        want = m[4] @ np.linalg.inv(m[5]) @ m[6]
        assert np.allclose(np.reshape(got, (2, 2)), want, atol=1e-12)

    for graph, loop in (
        (triangle_graph(), [(1, 1), (2, 1), (3, 1)]),
        (bowtie_graph(), [(4, 1), (5, -1), (6, 1)]),
        (bouquet(2), [(1, 1), (2, 1), (1, -1), (2, -1)]),
    ):
        conn = {e: random_sl2(rng) for e in graph.edges}
        before = wilson_loop(graph, conn, loop)
        for _ in range(10):
            gauge = {v: random_sl2(rng) for v in graph.vertices}
            after = wilson_loop(graph, gauge_act(graph, gauge, conn), loop)
            assert abs(after - before) < 1e-10

    for _ in range(10):
        rep = random_rep("ab", rng)
        spine = punctured_torus_graph()
        conn = rep_connection_on_bouquet(rep)
        for loop, coord in (
            ([(1, 1)], CommPoly.x()),
            ([(2, 1)], CommPoly.y()),
            ([(1, 1), (2, 1)], CommPoly.z()),
        ):
            assert abs(wilson_loop(spine, conn, loop)
                       - phi_evaluate(coord, rep)) < 1e-10


def test_quantum_wilson_pipeline():
    """Braid relation below 1e-10 at 20 random t; exact charmed trace; the
    splitting-tangle permutation; the decorated word structure; classical
    agreement at t = 1 below 1e-10; crossing relation below 1e-8; counit
    invariance below 1e-8; split coassociativity below 1e-8 up to valence 3."""
    rng = np.random.default_rng(161803)
    for _ in range(20):
        t = complex(rng.uniform(0.5, 1.6), rng.uniform(-0.6, 0.6))
        assert yang_baxter_residual(t) < 1e-10

    for t in (2.0, 0.5):
        assert uq_trace(W_CHARM, t) == t ** 2 + t ** -2

    star = CiliatedGraph(
        ["w", "u1", "u2", "u3"],
        {1: ("w", "u1"), 2: ("w", "u2"), 3: ("w", "u3")},
        {"w": [(1, 0), (2, 0), (3, 0)],
         "u1": [(1, 1)], "u2": [(2, 1)], "u3": [(3, 1)]},
    )
    assert fundamental_tangle(star, "w").permutation == (1, 4, 2, 5, 3, 6)

    g = bowtie_graph()
    d, da, db = bowtie_qlinks()
    t = 0.83 + 0.41j
    x = classical_to_quantum({e: random_sl2(rng) for e in g.edges})
    k = W_CHARM
    for (alpha, beta), prods in zip(r_matrix_terms(t), decorated_words(g, d, x, t)):
        expected = (beta * x[1] * x[2] * (x[3] * uq_antipode(alpha))
                    * (x[4] * k) * (uq_antipode(x[5] * k) * k) * (x[6] * k))
        assert prods[0].diff_norm(expected) < 1e-9

    gauge = {v: random_sl2(rng) for v in g.vertices}
    flat = gauge_act(g, gauge, trivial_connection(g))
    qflat = classical_to_quantum(flat)
    for q in (da, db):
        got = wilson_qlink(g, q, qflat, 1)
        want = 1.0
        for loop in q.loops:
            want *= wilson_loop(g, flat, loop)
        assert abs(got - want) < 1e-10

    unit_conn = {e: UqWord.unit() for e in g.edges}
    for conn in (unit_conn, qflat):
        for tv in (0.83 + 0.41j, 1.317):
            assert abs(skein_residual(g, d, da, db, conn, tv)) < 1e-8

    base = wilson_qlink(g, d, unit_conn, t)
    for y in (W_K, W_E, W_F):
        total = sum(wilson_qlink(g, d, c2, t)
                    for c2 in gauge_act_q(g, y, "v3", unit_conn))
        assert abs(total - uq_counit(y) * base) < 1e-8

    tri = triangle_graph()
    for inputs in ([W_K, W_E], [W_E, W_F]):
        assert nabla_coassociativity_residual(tri, "v1", inputs, t, rng) < 1e-8
    assert nabla_coassociativity_residual(star, "w", [W_K, W_E, W_F], t, rng) < 1e-8


def test_cli_round_trips_and_deterministic_verification():
    """Every JSON format round-trips; the verification command exits 0 and
    prints byte-identical output for a fixed seed."""
    rng = np.random.default_rng(555)

    d = corpus()["figure_eight"]
    assert diagram_from_json(
        json.loads(json.dumps(diagram_to_json(d)))).same_diagram(d)

    rep = random_rep("ab", rng)
    back = rep_from_json(json.loads(json.dumps(rep_to_json(rep))))
    assert all(np.allclose(back[n], rep[n]) for n in rep)

    g = bowtie_graph()
    gb = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    assert gb.edges == g.edges and gb.ciliation == g.ciliation

    conn = {e: random_sl2(rng) for e in g.edges}
    cb = connection_from_json(json.loads(json.dumps(connection_to_json(conn))))
    assert all(np.allclose(cb[e], conn[e]) for e in conn)

    dq, _, _ = bowtie_qlinks()
    qb = qlink_from_json(json.loads(json.dumps(qlink_to_json(dq))))
    assert qb.loops == dq.loops and qb.crossings == dq.crossings

    qconn = classical_to_quantum(conn)
    qcb = qconnection_from_json(json.loads(json.dumps(qconnection_to_json(qconn))))
    assert all(qcb[e].diff_norm(qconn[e]) < 1e-12 for e in qconn)

    runs = [
        subprocess.run(
            [sys.executable, "-m", "skeinlab.cli", "verify", "--seed", "7"],
            capture_output=True, text=True)
        for _ in range(2)
    ]
    assert runs[0].returncode == 0, runs[0].stdout + runs[0].stderr
    assert runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    total = len(checks.battery(7))
    assert f"{total}/{total} checks passed" in runs[0].stdout
