"""The four workloads: one caller, closed loop, rounds of interleaved operations.

A workload is built from a seed.  `round(r)` returns the r-th round's
operations; its inputs come from the seed and the round index alone, so the
same seed always gives the same operation list.  Every round has the same
operations, by kind and count (cli_cold shuffles their order by seed).  An
operation is timed as a whole; cheap library calls are batched so that no
operation lasts only a few milliseconds.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent


def lib(name: str):
    return importlib.import_module(f"skeinlab.{name}")


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def first_error(errors):
    return next((e for e in errors if e), None)


def random_word(rng: random.Random, strands: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 1e-2:
            return m / np.sqrt(det)


def generic_t(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(0.75, 1.3), rng.uniform(-0.3, 0.3))


def coeffs(p) -> dict:
    return dict(p.items())


# ----------------------------------------------------------------------


class BracketBraids:
    """parse_braid + bracket (auto: the sweep) on closures of 100 to 300
    crossings, plus a state-sum class of 14- to 16-crossing closures."""

    name = "bracket_braids"

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.diagram, self.bracket = lib("diagram"), lib("bracket")

    def _eval(self, word, strands):
        return self.bracket.bracket(self.diagram.parse_braid(word, strands))

    def _check_statesum(self, value, word, strands):
        # the reference sweep gets a wide cap: its greedy order can exceed the
        # default cap on short words (see CHANGES.md)
        ref = self.bracket.bracket_tl_sweep(self.diagram.parse_braid(word, strands), 64)
        return (checks.check_equal(coeffs(value), coeffs(ref), "state sum vs sweep")
                or checks.check_braid_bracket(coeffs(value), word, strands))

    def _words_op(self, words):
        return Op("random", lambda: [self._eval(w, s) for s, w in words],
                  lambda vs: first_error(checks.check_braid_bracket(coeffs(v), w, s)
                                         for v, (s, w) in zip(vs, words)))

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        family = [1, -2, 3, -4] * (25 + 2 * (r % 6))           # 100..140 crossings
        torus = [rng.randint(100, 300) for _ in range(2)]
        # random words stay on 3 and 4 strands: on 5 strands the greedy sweep
        # order exceeds its width cap on some words (see CHANGES.md)
        words = [[(s, random_word(rng, s, rng.randint(100, 200))) for s in (3, 4)]
                 for _ in range(2)]
        ss_strands = rng.randint(2, 4)
        ss_word = random_word(rng, ss_strands, 14 + r % 3)
        return [
            Op("family", lambda: self._eval(family, 5),
               lambda v: checks.check_braid_bracket(coeffs(v), family, 5)),
            self._words_op(words[0]),
            Op("torus", lambda: [self._eval([1] * n, 2) for n in torus],
               lambda vs: first_error(
                   checks.check_equal(coeffs(v), checks.torus_closed_form(n), f"sigma1^{n}")
                   for v, n in zip(vs, torus))),
            self._words_op(words[1]),
            Op("statesum",
               lambda: self.bracket.bracket_statesum(
                   self.diagram.parse_braid(ss_word, ss_strands)),
               lambda v: self._check_statesum(v, ss_word, ss_strands)),
        ]


# ----------------------------------------------------------------------


DEG3 = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
DEG4 = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]


def skein_to_dict(e) -> dict:
    return {mono: coeffs(p) for mono, p in e.items()}


def specialize_minus_one(e) -> dict:
    out = {mono: checks.at_minus_one(coeffs(p)) for mono, p in e.items()}
    return {m: c for m, c in out.items() if c}


class SkeinAlgebra:
    """Products, squares and Poisson brackets of two-term elements whose
    monomials come from a fixed pool of degree-3 and degree-4 monomials.

    Which monomials appear in round r is fixed; the seed draws the Laurent
    coefficients.  The cost of a product is set almost entirely by its
    monomials and by what the normal-form memo already holds, so drawing
    the monomials from the seed would make throughput a property of the
    seed rather than of the code."""

    name = "skein_algebra"

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.ts = lib("torus_skein")
        self.poly = lib("poly")

    def _element(self, shape: random.Random, rng: random.Random, pool):
        table = {}
        for mono in shape.sample(pool, 2):
            table[mono] = self.poly.LaurentPoly(
                {e: rng.choice((-2, -1, 1, 2)) for e in rng.sample(range(-3, 4), 2)})
        return self.ts.TorusSkeinElement(table)

    @staticmethod
    def _triple(a, b, c):
        ab = a * b
        return ab, ab * c, a * (b * c)

    @staticmethod
    def _check_triple(v, a, b):
        ab, left, right = v
        return (checks.check_equal(skein_to_dict(left), skein_to_dict(right), "(ab)c vs a(bc)")
                or checks.check_equal(specialize_minus_one(ab),
                                      checks.comm_mul(specialize_minus_one(a),
                                                      specialize_minus_one(b)),
                                      "ab at A=-1"))

    @staticmethod
    def _check_square(v, p):
        return (checks.check_equal(skein_to_dict(v), skein_to_dict(p * p), "p**2 vs p*p")
                or checks.check_equal(specialize_minus_one(v),
                                      checks.comm_mul(specialize_minus_one(p),
                                                      specialize_minus_one(p)),
                                      "p**2 at A=-1"))

    def _check_poisson(self, vs, pairs):
        for v, (p, q) in zip(vs, pairs):
            want = checks.chain_rule_bracket(specialize_minus_one(p), specialize_minus_one(q))
            err = checks.check_equal({m: c for m, c in v.items() if c}, want, "Poisson bracket")
            if err:
                return err
        return None

    def round(self, r: int) -> list[Op]:
        shape = random.Random(f"{self.name}:monomials:{r}")
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        pool = DEG3 + DEG4
        a, b, c = (self._element(shape, rng, pool) for _ in range(3))
        sq = self._element(shape, rng, DEG3)
        pairs = [[(self._element(shape, rng, pool), self._element(shape, rng, pool))
                  for _ in range(3)] for _ in range(3)]
        return [
            self._poisson_op(pairs[0]),
            Op("triple", lambda: self._triple(a, b, c), lambda v: self._check_triple(v, a, b)),
            self._poisson_op(pairs[1]),
            Op("square", lambda: sq ** 2, lambda v: self._check_square(v, sq)),
            self._poisson_op(pairs[2]),
        ]

    def _poisson_op(self, pairs):
        return Op("poisson", lambda: [self.ts.poisson_bracket(p, q) for p, q in pairs],
                  lambda vs: self._check_poisson(vs, pairs))


# ----------------------------------------------------------------------


def star_graph(lattice):
    """One valence-3 vertex w whose three edges run out to leaves."""
    return lattice.CiliatedGraph(
        ["w", "u1", "u2", "u3"], {1: ("w", "u1"), 2: ("w", "u2"), 3: ("w", "u3")},
        {"w": [(1, 0), (2, 0), (3, 0)], "u1": [(1, 1)], "u2": [(2, 1)], "u3": [(3, 1)]})


def flat_connection(graph, rng: np.random.Generator) -> dict:
    """A gauge transform of the trivial connection: edge u -> v carries g(u) g(v)^-1."""
    g = {v: random_sl2(rng) for v in graph.vertices}
    return {e: g[u] @ checks.sl2_inv(g[v]) for e, (u, v) in graph.edges.items()}


class QuantumLattice:
    """Quantum Wilson observables on the bowtie graph and vertex splitting at
    a valence-3 vertex."""

    name = "quantum_lattice"

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.lattice, self.q = lib("lattice"), lib("qlattice")
        self.graph = self.lattice.bowtie_graph()
        self.d, self.d_a, self.d_b = self.q.bowtie_qlinks()
        self.star = star_graph(self.lattice)
        self.unit = {e: self.q.UqWord.unit() for e in self.graph.edges}

    def _wilson3(self, ts):
        g, q = self.graph, self.q
        return [[q.wilson_qlink(g, link, self.unit, t) for link in (self.d, self.d_a, self.d_b)]
                for t in ts]

    def _check_wilson3(self, vs, ts):
        return first_error(
            checks.check_close(got, want, 1e-9, f"trivial Wilson value at t={t}")
            for values, t in zip(vs, ts)
            for got, want in zip(values, checks.bowtie_trivial(t)))

    def _limit(self, conns):
        g, q, lat = self.graph, self.q, self.lattice
        out = []
        for conn, qconn in conns:
            out.append((q.wilson_qlink(g, self.d_a, qconn, 1.0),
                        q.wilson_qlink(g, self.d_b, qconn, 1.0),
                        [lat.wilson_loop(g, conn, loop) for loop in self.d_b.loops]))
        return out

    def _check_limit(self, vs, conns):
        for (wa, wb, classical), (conn, _) in zip(vs, conns):
            traces = [-checks.holonomy_trace(conn, loop) for loop in self.d_b.loops]
            want_a = -checks.holonomy_trace(conn, self.d_a.loops[0])
            err = (checks.check_close(wa, want_a, 1e-9, "W(d_a) at t=1")
                   or checks.check_close(wb, traces[0] * traces[1], 1e-9, "W(d_b) at t=1")
                   or first_error(checks.check_close(c, w, 1e-9, "classical Wilson loop")
                                  for c, w in zip(classical, traces)))
            if err:
                return err
        return None

    def _counit(self, ts):
        g, q = self.graph, self.q
        return [[sum(q.wilson_qlink(g, self.d, c2, t)
                     for c2 in q.gauge_act_q(g, q.UqWord.letter(y), "v3", self.unit))
                 for y in ("K", "E", "F")] for t in ts]

    @staticmethod
    def _check_counit(vs, ts):
        # eps(K) = 1, eps(E) = eps(F) = 0 times the closed form of W(d)
        return first_error(
            checks.check_close(got, eps * checks.bowtie_trivial(t)[0], 1e-8,
                               f"counit invariance at t={t}")
            for totals, t in zip(vs, ts) for got, eps in zip(totals, (1, 0, 0)))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r, 3])
        q, lat, g = self.q, self.lattice, self.graph
        ops = []
        for _ in range(2):
            t_res = generic_t(rng)
            flat = q.classical_to_quantum(flat_connection(g, rng))
            t_wil = [generic_t(rng) for _ in range(120)]
            conns = []
            for _ in range(3):
                conn = {e: random_sl2(rng) for e in g.edges}
                conns.append((conn, q.classical_to_quantum(conn)))
            t_cnt = [generic_t(rng) for _ in range(20)]
            ops += [
                Op("residual", lambda t=t_res, c=flat: q.skein_residual(
                    g, self.d, self.d_a, self.d_b, c, t),
                   lambda v: checks.check_small(v, 1e-8, "skein residual")),
                Op("wilson", lambda ts=t_wil: self._wilson3(ts),
                   lambda v, ts=t_wil: self._check_wilson3(v, ts)),
                Op("limit", lambda cs=conns: self._limit(cs),
                   lambda v, cs=conns: self._check_limit(v, cs)),
                Op("counit", lambda ts=t_cnt: self._counit(ts),
                   lambda v, ts=t_cnt: self._check_counit(v, ts)),
            ]
        # the acceptance test's t: near t^4 = 1 the generic R-matrix terms grow
        # like 1/(t^4 - 1) and the residual loses digits (see CHANGES.md)
        t_co = 0.83 + 0.41j
        letters = [("K", "Ki")[i] for i in rng.integers(0, 2, size=3)]
        inputs = [q.UqWord.letter(ch) for ch in letters]
        probe_rng = np.random.default_rng([self.seed, r, 4])
        ops.append(Op("coassoc", lambda: q.nabla_coassociativity_residual(
            self.star, "w", inputs, t_co, probe_rng),
            lambda v: checks.check_small(v, 1e-8, "coassociativity residual")))
        return ops


# ----------------------------------------------------------------------


TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIGURE_EIGHT_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
# the bracket of the figure-eight knot with the empty diagram as 1:
# delta * (A^8 - A^4 + 1 - A^-4 + A^-8) = -A^10 - A^-10
FIGURE_EIGHT = {10: -1, -10: -1}
BOWTIE_LOOPS = ["1,2,3", "4,-5,6", "1,2,3,4,-5,6", "1,2,3,-6,5,-4"]


def _steps(path: str):
    return [(abs(int(s)), 1 if int(s) > 0 else -1) for s in path.split(",")]


def matrix_json(m) -> list:
    return [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(2)] for i in range(2)]


class CliCold:
    """Fresh `skeinlab` processes, one after another, on small input files
    written under `workdir`; `root` is the checkout whose src/ they import."""

    name = "cli_cold"

    def __init__(self, seed: int, tracer=None, *, workdir: Path, root: Path):
        self.seed = seed
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.dir = workdir
        lattice, q, formats = lib("lattice"), lib("qlattice"), lib("formats")
        self.bowtie = lattice.bowtie_graph()
        links = q.bowtie_qlinks()
        self._write("bowtie.json", formats.graph_to_json(self.bowtie))
        for name, link in zip(("d", "d_a", "d_b"), links):
            self._write(f"{name}.json", formats.qlink_to_json(link))
        self.q, self.formats, self.diagram = q, formats, lib("diagram")

    def _write(self, name: str, obj) -> str:
        path = self.dir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def call(self, args: list[str]):
        """Run one CLI process; returns (exit code, stdout, stderr)."""
        sub = args[0]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "skeinlab.cli", *args]
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=170)
            return proc.returncode, proc.stdout, proc.stderr
        span_file = self.dir / "child-spans.json"
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(span_file), *args]
        index = len(self.tracer.spans)
        rec = self.tracer.open(f"cli.{sub}")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=170)
        finally:
            self.tracer.close(rec)
        if span_file.exists():
            spans = json.loads(span_file.read_text(encoding="utf-8"))["spans"]
            self.tracer.add_foreign(spans, index)
            span_file.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    def _op(self, kind, args, check):
        def checked(v):
            code, out, err = v
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"
            return check(out.strip())
        return Op(kind, lambda: self.call(args), checked)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        nrng = np.random.default_rng([self.seed, r, 5])
        tag = f"r{r}"
        ops = []

        n = rng.randint(3, 24)
        want = checks.torus_closed_form(n)
        ops.append(self._op("bracket", ["bracket", "--braid=" + ",".join(["1"] * n), "--strands", "2"],
                            lambda out, w=want: checks.check_equal(
                                checks.parse_laurent_text(out), w, "torus closure")))
        trefoil = checks.torus_closed_form(3)
        for pd, wants in ((TREFOIL_PD, (trefoil, checks.mirror(trefoil))),
                          (FIGURE_EIGHT_PD, (FIGURE_EIGHT,))):
            ops.append(self._op("bracket", ["bracket", "--pd", pd],
                                lambda out, ws=wants: None if checks.parse_laurent_text(out) in ws
                                else f"pd bracket {out}"))
        for i in range(3):
            s = rng.randint(3, 4)
            word = random_word(rng, s, rng.randint(16, 24))
            if i == 0:
                # "--braid=" because argparse reads a word starting "-1," as an option
                ops.append(self._op("bracket", ["bracket", "--braid=" + ",".join(map(str, word)),
                                                "--strands", str(s)],
                                    lambda out, w=word, s=s: checks.check_braid_bracket(
                                        checks.parse_laurent_text(out), w, s)))
                continue
            obj = ({"strands": s, "word": word} if i == 1 else
                   self.formats.diagram_to_json(self.diagram.parse_braid(word, s)))
            path = self._write(f"{tag}-diagram{i}.json", obj)
            ops.append(self._op("bracket", ["bracket", "--json", path],
                                lambda out, w=word, s=s: checks.check_braid_bracket(
                                    checks.parse_laurent_text(out), w, s)))

        ops.append(self._op("skein", ["skein", "--expr", "y*x"],
                            lambda out: None if out == "A^2*x*y - (A^3 - A^-1)*z"
                            else f"y*x gave {out}"))
        for _ in range(2):
            p, q = (self._comm_expr(rng) for _ in range(2))
            want = checks.chain_rule_bracket(p[1], q[1])
            ops.append(self._op("skein", ["skein", "--expr", p[0], "--poisson", q[0]],
                                lambda out, w=want: checks.check_equal(
                                    checks.parse_comm_text(out), w, "CLI Poisson bracket")))
        words = ["*".join(rng.choice("xyz") for _ in range(rng.randint(2, 4))) for _ in range(2)]
        want = {}
        for w in words:
            want = checks.comm_add(want, {tuple(w.split("*").count(ch) for ch in "xyz"): 1})
        ops.append(self._op("skein", ["skein", "--expr", " + ".join(words), "--specialize", "-1"],
                            lambda out, w=want: checks.check_equal(
                                checks.parse_comm_text(out), w, "specialization at A=-1")))

        rep = {"a": random_sl2(nrng), "b": random_sl2(nrng)}
        rep_path = self._write(f"{tag}-rep.json", {k: matrix_json(m) for k, m in rep.items()})
        for _ in range(2):
            word = "".join(rng.choice("abAB") for _ in range(rng.randint(3, 6)))
            want = complex(np.trace(checks.word_matrix(rep, word)))
            ops.append(self._op("char", ["char", "--rep", rep_path, "--trace", word],
                                lambda out, w=want: checks.check_close(
                                    complex(out), w, 1e-9, "CLI trace")))
        xyz = [-complex(np.trace(checks.word_matrix(rep, w))) for w in ("a", "b", "ab")]
        text, poly = self._comm_expr(rng)
        want = sum(c * xyz[0] ** m[0] * xyz[1] ** m[1] * xyz[2] ** m[2] for m, c in poly.items())
        ops.append(self._op("char", ["char", "--rep", rep_path, "--phi", text],
                            lambda out, w=want: checks.check_close(
                                complex(out), w, 1e-9, "CLI phi")))

        graph_path = str(self.dir / "bowtie.json")
        conn = {e: random_sl2(nrng) for e in self.bowtie.edges}
        conn_path = self._write(f"{tag}-conn.json", {str(e): matrix_json(m) for e, m in conn.items()})
        flat = flat_connection(self.bowtie, nrng)
        flat_path = self._write(f"{tag}-flat.json", {str(e): matrix_json(m) for e, m in flat.items()})
        for _ in range(2):
            loop = rng.choice(BOWTIE_LOOPS)
            want = -checks.holonomy_trace(conn, _steps(loop))
            ops.append(self._op("lattice", ["lattice", "--graph", graph_path, "--connection",
                                            conn_path, "--wilson", loop],
                                lambda out, w=want: checks.check_close(
                                    complex(out), w, 1e-9, "CLI Wilson loop")))
        ops.append(self._op("lattice", ["lattice", "--graph", graph_path, "--connection",
                                        flat_path, "--flat"],
                            lambda out: None if out == "flat" else f"flat check gave {out}"))

        qflat_path = self._write(f"{tag}-qflat.json", self.formats.qconnection_to_json(
            self.q.classical_to_quantum(flat)))
        for _ in range(2):
            t = generic_t(nrng)
            t_text = f"{t.real!r}{t.imag:+}j"
            ops.append(self._op("qlattice", ["qlattice", "--graph", graph_path, "--qlink",
                                             str(self.dir / "d.json"), "--t", t_text],
                                lambda out, t=t: checks.check_close(
                                    complex(out), checks.bowtie_trivial(t)[0], 1e-9,
                                    "CLI quantum Wilson value")))
            ops.append(self._op("qlattice", ["qlattice", "--graph", graph_path, "--qlink",
                                             str(self.dir / "d.json"), "--qconnection", qflat_path,
                                             "--t", t_text, "--residual",
                                             str(self.dir / "d_a.json"),
                                             str(self.dir / "d_b.json")],
                                lambda out: None if out.endswith("(ok)") else f"residual {out}"))

        # verify's time depends on its own seed (4.5 to 7.2 s), so every run
        # uses the same verify seeds, 7, 8, ... by round
        vseed = 7 + r
        ops.append(self._op("verify", ["verify", "--seed", str(vseed)],
                            lambda out: None if f"17/17 checks passed (seed {vseed})" in out
                            else f"verify: {out.splitlines()[-1]}"))
        order = rng.sample(range(len(ops) - 1), len(ops) - 1)
        return [ops[i] for i in order] + ops[-1:]

    @staticmethod
    def _comm_expr(rng: random.Random):
        """A small integer polynomial in x, y, z as CLI text and as a dict."""
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            if sum(mono) == 0:
                mono = (1, 0, 0)
            terms[mono] = terms.get(mono, 0) + rng.choice((1, 2))
        text = " + ".join(
            "*".join([str(c)] + [f"{v}^{k}" for v, k in zip("xyz", m) if k])
            for m, c in terms.items())
        return text, terms


WORKLOADS = {w.name: w for w in (BracketBraids, SkeinAlgebra, QuantumLattice, CliCold)}
