"""Command-line front end.

Subcommands: bracket, skein, char, lattice, qlattice, verify.  Exit codes:
0 success, 1 verification failure, 2 input error.  The environment variable
SKEINLAB_THREADS caps internal parallelism (evaluations currently run on a
single thread, which respects any positive cap).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

import numpy as np

from . import characters, diagram, formats, lattice, qlattice, torus_skein
from .bracket import bracket as _bracket_eval
from .bracket import bracket_statesum, bracket_tl_sweep
from .poly import LaurentPoly, parse_laurent, render_laurent


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-13:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}j"


def _parse_t(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"cannot parse t value {text!r}") from exc


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, text_value: str, json_value) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _thread_cap() -> int:
    raw = os.environ.get("SKEINLAB_THREADS")
    if raw is None:
        return 1
    n = int(raw)
    if n < 1:
        raise ValueError("SKEINLAB_THREADS must be a positive integer")
    return n


# ----------------------------------------------------------------------
# subcommands


def _cmd_bracket(args) -> int:
    sources = [s for s in (args.braid, args.pd, args.json_file) if s is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --braid, --pd, --json")
    if args.braid is not None:
        if args.strands is None:
            raise ValueError("--braid requires --strands")
        word = [int(tok) for tok in args.braid.split(",") if tok.strip()]
        d = diagram.parse_braid(word, args.strands)
    elif args.pd is not None:
        d = diagram.parse_pd(args.pd)
    else:
        d = formats.diagram_from_json(_load_json(args.json_file))
    value = _bracket_eval(d, method=args.method,
                             max_crossings=args.max_crossings,
                             max_width=args.max_width)
    text = render_laurent(value)
    series = str(value.to_h_series(args.order)) if args.order is not None else None
    payload = {"bracket": text, "series": series}
    body = text if series is None else f"{text}\nseries: {series}"
    _emit(args, body, payload)
    return 0


def _cmd_skein(args) -> int:
    p = torus_skein.parse_skein(args.expr)
    if args.poisson is not None:
        q = torus_skein.parse_skein(args.poisson)
        result = torus_skein.poisson_bracket(p, q, order=max(2, args.order or 3))
        text = str(result)
    elif args.specialize is not None:
        raw = args.specialize.strip()
        try:
            a = int(raw)
        except ValueError:
            a = complex(raw)
        text = str(p.specialize(a))
    else:
        text = torus_skein.render_skein(p)
    _emit(args, text, {"result": text})
    return 0


def _cmd_char(args) -> int:
    rep = formats.rep_from_json(_load_json(args.rep))
    if args.trace is not None:
        value = characters.trace_word(rep, args.trace)
        text = _fmt_complex(value)
        payload = {"trace": formats.complex_to_json(value)}
    elif args.phi is not None:
        poly = torus_skein.parse_skein(args.phi).specialize(-1)
        value = characters.phi_evaluate(poly, rep)
        text = _fmt_complex(value)
        payload = {"phi": formats.complex_to_json(value)}
    else:
        x, y, z = characters.character_point(rep)
        text = " ".join(_fmt_complex(v) for v in (x, y, z))
        payload = {"point": [formats.complex_to_json(v) for v in (x, y, z)]}
    _emit(args, text, payload)
    return 0


def _parse_path(text: str) -> list[tuple[int, int]]:
    steps = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        e = int(tok)
        if e == 0:
            raise ValueError("edge ids are nonzero; sign gives direction")
        steps.append((abs(e), 1 if e > 0 else -1))
    if not steps:
        raise ValueError("empty path")
    return steps


def _cmd_lattice(args) -> int:
    g = formats.graph_from_json(_load_json(args.graph))
    if args.connection is not None:
        conn = formats.connection_from_json(_load_json(args.connection))
    else:
        conn = lattice.trivial_connection(g)
    if args.holonomy is not None:
        m = lattice.holonomy(g, conn, _parse_path(args.holonomy))
        rows = [f"[{_fmt_complex(m[i, 0])}, {_fmt_complex(m[i, 1])}]" for i in (0, 1)]
        _emit(args, "\n".join(rows), {"holonomy": formats.matrix_to_json(m)})
        return 0
    if args.wilson is not None:
        value = lattice.wilson_loop(g, conn, _parse_path(args.wilson))
        _emit(args, _fmt_complex(value), {"wilson": formats.complex_to_json(value)})
        return 0
    if args.flat:
        flat = lattice.is_flat(g, conn, tol=args.tol)
        _emit(args, "flat" if flat else "not flat", {"flat": flat})
        return 0 if flat else 1
    raise ValueError("choose one of --holonomy, --wilson, --flat")


def _cmd_qlattice(args) -> int:
    g = formats.graph_from_json(_load_json(args.graph))
    q = formats.qlink_from_json(_load_json(args.qlink))
    if args.qconnection is not None:
        conn = formats.qconnection_from_json(_load_json(args.qconnection))
    else:
        conn = {e: qlattice.UqWord.unit() for e in g.edges}
    t = _parse_t(args.t)
    if args.residual is not None:
        d_a = formats.qlink_from_json(_load_json(args.residual[0]))
        d_b = formats.qlink_from_json(_load_json(args.residual[1]))
        value = qlattice.skein_residual(g, q, d_a, d_b, conn, t)
        ok = abs(value) <= args.tol
        _emit(args, f"residual {abs(value):.3e} ({'ok' if ok else 'FAIL'})",
              {"residual": formats.complex_to_json(value), "ok": ok})
        return 0 if ok else 1
    value = qlattice.wilson_qlink(g, q, conn, t)
    _emit(args, _fmt_complex(value), {"wilson": formats.complex_to_json(value)})
    return 0


# ----------------------------------------------------------------------
# verify


def _random_skein_element(rng: random.Random) -> torus_skein.TorusSkeinElement:
    total = torus_skein.TorusSkeinElement.zero()
    for _ in range(rng.randint(1, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        coeff = {rng.randint(-3, 3): rng.choice([-2, -1, 1, 2])
                 for _ in range(rng.randint(1, 2))}
        total = total + torus_skein.TorusSkeinElement({mono: LaurentPoly(coeff)})
    return total


def _verify_checks(seed: int, tol: float):
    from .poly import LaurentPoly
    from .qlattice import (UqWord, charmed_k, classical_to_quantum,
                           gauge_act_q, nabla_coassociativity_residual,
                           skein_residual, uq_counit, uq_trace, wilson_qlink)

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    corpus = diagram.corpus()

    def check_bracket_corpus():
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

    def check_move_invariance():
        moves = 0
        for name, d in corpus.items():
            value = bracket_statesum(d)
            cur = d
            for _ in range(20):
                try:
                    cur, _desc = diagram.random_move(cur, rng)
                except ValueError:
                    cur = diagram.insert_kink_pair(cur)
                if _bracket_eval(cur) != value:
                    return False, f"bracket changed for {name}"
                moves += 1
        return True, f"{moves} moves"

    def check_kink_scaling():
        scale = {"R1+": LaurentPoly({3: -1}), "R1-": LaurentPoly({-3: -1})}
        for name, d in corpus.items():
            value = bracket_statesum(d)
            arcs = sorted({lab for x in d.crossings.values() for lab in x.ends})
            site = arcs[0] if arcs else "loop"
            for move, factor in scale.items():
                kinked = d.apply_move(move, site)
                if _bracket_eval(kinked) != value * factor:
                    return False, f"{move} on {name}"
        return True, "8 kinks"

    def check_sweep_vs_statesum():
        for _ in range(12):
            d = diagram.random_braid_diagram(rng, max_crossings=9)
            if bracket_tl_sweep(d) != bracket_statesum(d):
                return False, f"mismatch on {d!r}"
        return True, "12 diagrams"

    def check_skein_normal_form():
        got = torus_skein.render_skein(torus_skein.parse_skein("y*x"))
        want = "A^2*x*y - (A^3 - A^-1)*z"
        if got != want:
            return False, f"{got!r} != {want!r}"
        for _ in range(20):
            p, q, r = (_random_skein_element(rng) for _ in range(3))
            if (p * q) * r != p * (q * r):
                return False, "associativity defect"
        return True, "normal form + 20 triples"

    def check_poisson():
        x = torus_skein.TorusSkeinElement.x()
        y = torus_skein.TorusSkeinElement.y()
        z = torus_skein.TorusSkeinElement.z()
        from fractions import Fraction
        half = Fraction(1, 2)
        C = torus_skein.CommPoly
        want = {
            ("x", "y"): C({(1, 1, 0): -half, (0, 0, 1): -1}),
            ("y", "z"): C({(0, 1, 1): -half, (1, 0, 0): -1}),
            ("z", "x"): C({(1, 0, 1): -half, (0, 1, 0): -1}),
        }
        gens = {"x": x, "y": y, "z": z}
        for (a, b), w in want.items():
            got = torus_skein.poisson_bracket(gens[a], gens[b])
            if got != w:
                return False, f"{{{a},{b}}} = {got}"
            if torus_skein.poisson_bracket(gens[b], gens[a]) != -w:
                return False, "antisymmetry"
        return True, "3 brackets + antisymmetry"

    def check_trace_identities():
        worst = 0.0
        for _ in range(200):
            rep = characters.random_rep("uv", nprng)
            worst = max(worst, abs(characters.trace_identity_residual(rep, "u", "v")))
        if worst > 1e-9:
            return False, f"residual {worst:.2e}"
        return True, f"200 pairs, max {worst:.2e}"

    def check_phi_multiplicative():
        worst = 0.0
        for _ in range(25):
            rep = characters.random_rep("ab", nprng)
            p, q = _random_skein_element(rng), _random_skein_element(rng)
            lhs = characters.phi_evaluate((p * q).specialize(-1), rep)
            rhs = (characters.phi_evaluate(p.specialize(-1), rep)
                   * characters.phi_evaluate(q.specialize(-1), rep))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        if worst > 1e-8:
            return False, f"residual {worst:.2e}"
        return True, f"25 pairs, max {worst:.2e}"

    def check_gauge_invariance():
        g = lattice.bowtie_graph()
        worst = 0.0
        for _ in range(5):
            conn = {e: characters.random_sl2(nprng) for e in g.edges}
            gauge = {v: characters.random_sl2(nprng) for v in g.vertices}
            conn2 = lattice.gauge_act(g, gauge, conn)
            for face in g.faces:
                worst = max(worst, abs(lattice.wilson_loop(g, conn, face)
                                       - lattice.wilson_loop(g, conn2, face)))
        if worst > 1e-10:
            return False, f"defect {worst:.2e}"
        return True, f"max defect {worst:.2e}"

    def check_rep_connection():
        g = lattice.punctured_torus_graph()
        worst = 0.0
        for _ in range(5):
            rep = characters.random_rep("ab", nprng)
            conn = lattice.rep_to_connection(g, {1: rep["a"], 2: rep["b"]}, tree=set())
            for word, path in (("a", [(1, 1)]), ("b", [(2, 1)]),
                               ("ab", [(1, 1), (2, 1)])):
                got = lattice.wilson_loop(g, conn, path)
                want = -characters.trace_word(rep, word)
                worst = max(worst, abs(got - want))
        if worst > 1e-10:
            return False, f"defect {worst:.2e}"
        return True, f"max defect {worst:.2e}"

    def check_yang_baxter():
        worst = 0.0
        for _ in range(5):
            t = complex(nprng.uniform(0.5, 1.5), nprng.uniform(-0.5, 0.5))
            worst = max(worst, qlattice.yang_baxter_residual(t))
        if worst > 1e-10:
            return False, f"residual {worst:.2e}"
        return True, f"5 values of t, max {worst:.2e}"

    def check_charmed_and_tangle():
        for _ in range(3):
            t = complex(nprng.uniform(0.6, 1.4), nprng.uniform(-0.4, 0.4))
            if abs(uq_trace(charmed_k(), t) - (t * t + 1 / (t * t))) > 1e-12:
                return False, "tr k != t^2 + t^-2"
        graph = lattice.CiliatedGraph(
            ["w", "u1", "u2", "u3"],
            {1: ("w", "u1"), 2: ("w", "u2"), 3: ("w", "u3")},
            {"w": [(1, 0), (2, 0), (3, 0)], "u1": [(1, 1)],
             "u2": [(2, 1)], "u3": [(3, 1)]})
        perm = qlattice.fundamental_tangle(graph, "w").permutation
        if perm != (1, 4, 2, 5, 3, 6):
            return False, f"permutation {perm}"
        return True, "tr k exact, permutation (1)(2453)(6)"

    def check_bowtie_residual():
        g = lattice.bowtie_graph()
        d, d_a, d_b = qlattice.bowtie_qlinks()
        worst = words = 0.0
        for _ in range(3):
            t = complex(nprng.uniform(0.7, 1.3), nprng.uniform(-0.3, 0.3))
            triv = {e: UqWord.unit() for e in g.edges}
            worst = max(worst, abs(skein_residual(g, d, d_a, d_b, triv, t)))
            gauge = {v: characters.random_sl2(nprng) for v in g.vertices}
            flat = classical_to_quantum(
                lattice.gauge_act(g, gauge, lattice.trivial_connection(g)))
            worst = max(worst, abs(skein_residual(g, d, d_a, d_b, flat, t)))
            # the matrix evaluation against the expanded decorated words
            for link in (d, d_a, d_b):
                got = wilson_qlink(g, link, triv, t)
                want = (-1) ** len(link.loops) * sum(
                    np.prod([uq_trace(w, t) for w in products])
                    for products in qlattice.decorated_words(g, link, triv, t))
                words = max(words, abs(got - want) / max(1.0, abs(want)))
        if worst > 1e-8 or words > 1e-10:
            return False, f"residual {worst:.2e}, words {words:.2e}"
        return True, f"max residual {worst:.2e}, words {words:.2e}"

    def check_epsilon_invariance():
        g = lattice.bowtie_graph()
        d, _, _ = qlattice.bowtie_qlinks()
        triv = {e: UqWord.unit() for e in g.edges}
        t = complex(1.1, 0.2)
        base = wilson_qlink(g, d, triv, t)
        worst = 0.0
        for y in (UqWord.letter("K"), UqWord.letter("E"), UqWord.letter("F")):
            total = sum(wilson_qlink(g, d, c2, t)
                        for c2 in gauge_act_q(g, y, "v3", triv))
            worst = max(worst, abs(total - uq_counit(y) * base))
        if worst > 1e-8:
            return False, f"defect {worst:.2e}"
        return True, f"max defect {worst:.2e}"

    def check_quantum_classical_limit():
        g = lattice.bowtie_graph()
        _, d_a, d_b = qlattice.bowtie_qlinks()
        worst = 0.0
        for _ in range(3):
            conn = {e: characters.random_sl2(nprng) for e in g.edges}
            qconn = classical_to_quantum(conn)
            got = wilson_qlink(g, d_a, qconn, 1.0)
            want = lattice.wilson_loop(g, conn, d_a.loops[0])
            worst = max(worst, abs(got - want))
            got_b = wilson_qlink(g, d_b, qconn, 1.0)
            want_b = (lattice.wilson_loop(g, conn, d_b.loops[0])
                      * lattice.wilson_loop(g, conn, d_b.loops[1]))
            worst = max(worst, abs(got_b - want_b))
        if worst > 1e-10:
            return False, f"defect {worst:.2e}"
        return True, f"max defect {worst:.2e}"

    def check_nabla_coassociativity():
        graph = lattice.triangle_graph()
        t = complex(1.05, 0.1)
        worst = 0.0
        for letters in (("K", "E"), ("E", "F")):
            inputs = [UqWord.letter(ch) for ch in letters]
            worst = max(worst, nabla_coassociativity_residual(
                graph, "v1", inputs, t, nprng))
        if worst > 1e-8:
            return False, f"defect {worst:.2e}"
        return True, f"max defect {worst:.2e}"

    def check_serialization():
        d = diagram.parse_braid([1, 1, 1], 2)
        d2 = formats.diagram_from_json(json.loads(json.dumps(formats.diagram_to_json(d))))
        if not d.same_diagram(d2):
            return False, "diagram round trip"
        p = LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1})
        if parse_laurent(render_laurent(p)) != p:
            return False, "laurent round trip"
        g = lattice.bowtie_graph()
        g2 = formats.graph_from_json(json.loads(json.dumps(formats.graph_to_json(g))))
        if formats.graph_to_json(g2) != formats.graph_to_json(g):
            return False, "graph round trip"
        q, _, _ = qlattice.bowtie_qlinks()
        q2 = formats.qlink_from_json(json.loads(json.dumps(formats.qlink_to_json(q))))
        if formats.qlink_to_json(q2) != formats.qlink_to_json(q):
            return False, "qlink round trip"
        conn = {1: UqWord({("E", "K"): 1.5, (): -2.0})}
        c2 = formats.qconnection_from_json(
            json.loads(json.dumps(formats.qconnection_to_json(conn))))
        if formats.qconnection_to_json(c2) != formats.qconnection_to_json(conn):
            return False, "qconnection round trip"
        return True, "5 formats"

    return [
        ("bracket_corpus", check_bracket_corpus),
        ("move_invariance", check_move_invariance),
        ("kink_scaling", check_kink_scaling),
        ("sweep_vs_statesum", check_sweep_vs_statesum),
        ("skein_normal_form", check_skein_normal_form),
        ("poisson_structure", check_poisson),
        ("trace_identities", check_trace_identities),
        ("phi_multiplicative", check_phi_multiplicative),
        ("wilson_gauge_invariance", check_gauge_invariance),
        ("rep_connection_traces", check_rep_connection),
        ("yang_baxter", check_yang_baxter),
        ("charmed_and_tangle", check_charmed_and_tangle),
        ("bowtie_skein_residual", check_bowtie_residual),
        ("epsilon_invariance", check_epsilon_invariance),
        ("quantum_classical_limit", check_quantum_classical_limit),
        ("nabla_coassociativity", check_nabla_coassociativity),
        ("serialization_round_trips", check_serialization),
    ]


def _cmd_verify(args) -> int:
    checks = _verify_checks(args.seed, args.tol)
    failures = 0
    lines = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:          # a crashed check is a failure, not an abort
            ok, detail = False, f"error: {exc!r}"
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    for line in lines:
        print(line)
    print(f"{len(checks) - failures}/{len(checks)} checks passed (seed {args.seed})")
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinlab",
        description="Kauffman bracket, punctured-torus skein algebra, and "
                    "classical/quantum lattice gauge theory tools.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("bracket", help="Kauffman bracket of a link diagram")
    p.add_argument("--braid", help="comma-separated braid word, e.g. '1,1,1'")
    p.add_argument("--strands", type=int)
    p.add_argument("--pd", help="planar-diagram text, e.g. 'X[0,1,2,3] O'")
    p.add_argument("--json", dest="json_file", help="diagram or braid JSON file")
    p.add_argument("--method", choices=("auto", "sweep", "statesum"), default="auto")
    p.add_argument("--order", type=int, help="also print the h-expansion at A=-e^(h/4)")
    p.add_argument("--max-crossings", type=int, default=24,
                   help="crossing cap of the state sum (--method statesum, or auto's fallback)")
    p.add_argument("--max-width", type=int, default=12)
    common(p)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("skein", help="punctured-torus skein algebra arithmetic")
    p.add_argument("--expr", required=True, help="expression in x, y, z, A")
    p.add_argument("--poisson", metavar="EXPR2",
                   help="Poisson bracket of --expr with EXPR2 in the classical limit")
    p.add_argument("--specialize", metavar="A_VALUE",
                   help="evaluate coefficients at a number, e.g. -1")
    p.add_argument("--order", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_skein)

    p = sub.add_parser("char", help="SL2 character evaluations")
    p.add_argument("--rep", required=True, help="JSON file: generator -> 2x2 matrix")
    p.add_argument("--trace", metavar="WORD", help="trace of a word, capitals invert")
    p.add_argument("--phi", metavar="EXPR",
                   help="evaluate a polynomial in x, y, z at the character")
    p.add_argument("--point", action="store_true", help="print (x, y, z)")
    common(p)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("lattice", help="classical holonomy and Wilson loops")
    p.add_argument("--graph", required=True)
    p.add_argument("--connection")
    p.add_argument("--holonomy", metavar="PATH", help="signed edge list, e.g. '1,-2,3'")
    p.add_argument("--wilson", metavar="PATH")
    p.add_argument("--flat", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("qlattice", help="quantum Wilson observables")
    p.add_argument("--graph", required=True)
    p.add_argument("--qlink", required=True)
    p.add_argument("--qconnection")
    p.add_argument("--t", default="1", help="complex deformation parameter")
    p.add_argument("--residual", nargs=2, metavar=("A_JSON", "B_JSON"),
                   help="check the skein relation against two resolutions")
    common(p)
    p.set_defaults(func=_cmd_qlattice)

    p = sub.add_parser("verify", help="run the deterministic property suite")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _attach_signed_lists(argv: list[str]) -> list[str]:
    """Rewrite `--braid -1,2` as `--braid=-1,2`, and likewise for the edge
    paths of `--wilson` and `--holonomy`.

    argparse reads a separate value that starts with '-' and is not a single
    number as another option and fails; attached with '=' it is the value.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if (argv[i] in ("--braid", "--wilson", "--holonomy") and i + 1 < len(argv)
                and re.fullmatch(r"-\d+(\s*,\s*-?\d+)*\s*,?", argv[i + 1])):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_signed_lists(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        _thread_cap()
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
