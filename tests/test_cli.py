"""Command-line interface: outputs, exit codes, file handling."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skeinlab.bracket import bracket
from skeinlab.characters import character_point, random_rep, trace_word
from skeinlab import checks, qlattice, torus_skein
from skeinlab.cli import main
from skeinlab.diagram import corpus, parse_braid
from skeinlab.formats import (
    connection_to_json,
    diagram_to_json,
    graph_to_json,
    qconnection_to_json,
    qlink_to_json,
    rep_to_json,
)
from skeinlab.lattice import bowtie_graph, triangle_graph, trivial_connection
from skeinlab.poly import LaurentPoly, parse_laurent
from skeinlab.qlattice import bowtie_qlinks, classical_to_quantum


@pytest.fixture()
def rep_file(tmp_path):
    rep = random_rep("ab", np.random.default_rng(101))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(rep)))
    return rep, str(path)


@pytest.fixture()
def triangle_files(tmp_path):
    g = triangle_graph()
    gp = tmp_path / "graph.json"
    gp.write_text(json.dumps(graph_to_json(g)))
    cp = tmp_path / "conn.json"
    cp.write_text(json.dumps(connection_to_json(trivial_connection(g))))
    return str(gp), str(cp)


@pytest.fixture()
def bowtie_files(tmp_path):
    g = bowtie_graph()
    gp = tmp_path / "graph.json"
    gp.write_text(json.dumps(graph_to_json(g)))
    paths = []
    for name, q in zip("d a b".split(), bowtie_qlinks()):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(qlink_to_json(q)))
        paths.append(str(p))
    return str(gp), paths


class TestBracketCommand:
    def test_braid_input(self, capsys):
        assert main(["bracket", "--braid", "1,1,1", "--strands", "2"]) == 0
        assert capsys.readouterr().out.strip() == "A^7 + A^3 + A^-1 - A^-9"

    def test_pd_input(self, capsys):
        assert main(["bracket", "--pd", "O"]) == 0
        assert capsys.readouterr().out.strip() == "-A^2 - A^-2"

    def test_json_file_input(self, capsys, tmp_path):
        d = corpus()["figure_eight"]
        path = tmp_path / "diagram.json"
        path.write_text(json.dumps(diagram_to_json(d)))
        assert main(["bracket", "--json", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "-A^10 - A^-10"

    def test_methods_agree(self, capsys):
        outs = []
        for method in ("auto", "sweep", "statesum"):
            assert main(["bracket", "--braid", "1,-2,1,-2", "--strands", "3",
                         "--method", method]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]

    def test_json_format(self, capsys):
        assert main(["bracket", "--braid", "1,1", "--strands", "2",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["bracket"] == "A^6 + A^2 + A^-2 + A^-6"

    def test_series_flag(self, capsys):
        assert main(["bracket", "--pd", "O", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "-2 - 1/4*h^2 + O(h^3)" in out

    def test_bad_braid_letter_is_a_usage_error(self, capsys):
        assert main(["bracket", "--braid", "5", "--strands", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_input_is_a_usage_error(self):
        assert main(["bracket"]) == 2

    def test_crossing_cap(self, capsys):
        word = ",".join(["1"] * 30)
        assert main(["bracket", "--braid", word, "--strands", "2",
                     "--method", "statesum"]) == 2

    def test_crossing_cap_binds_only_the_state_sum(self, capsys):
        n = 30
        word = ",".join(["1"] * n)
        assert main(["bracket", f"--braid={word}", "--strands", "2",
                     "--method", "sweep"]) == 0
        a = LaurentPoly.a_power(1)
        expected = (a ** n * (a ** 4 + 1 + LaurentPoly.a_power(-4))
                    + LaurentPoly.term(-1, -3) ** n)
        assert capsys.readouterr().out.strip() == str(expected)
        assert main(["bracket", f"--braid={word}", "--strands", "2",
                     "--method", "statesum"]) == 2
        assert "30 crossings exceeds the state-sum cap of 24" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--braid=1,1", "--strands", "3000000"],
         "2999998 free loops exceeds the budget of 1000"),
        (["--json", "FILE"], "1000000000 free loops exceeds the budget of 1000"),
        (["--braid=1,1,1", "--strands", "2", "--order", "99999"],
         "truncation order 99999 exceeds the budget of 1000"),
        (["--braid=1,1,1", "--strands", "2", "--order", "3000"],
         "truncation order 3000 exceeds the budget of 1000"),
    ])
    def test_oversized_input_is_a_usage_error(self, args, message, tmp_path, capsys):
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({"crossings": [], "free_loops": 10 ** 9}))
        assert main(["bracket", *(str(path) if a == "FILE" else a for a in args)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_billion_strands_fit_in_a_small_address_space(self):
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        proc = subprocess.run([sys.executable, "-m", "skeinlab.cli", "bracket", "--braid=1,1",
                               "--strands", "1000000000"], capture_output=True, text=True,
                              timeout=120, preexec_fn=limit)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: 999999998 free loops exceeds the budget of 1000\n"

    def test_braid_over_the_sweep_budget_is_refused_before_any_work(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the crossings were ordered or handed to the state sum")

        sweep = importlib.import_module("skeinlab.bracket")   # skeinlab.bracket is the function
        monkeypatch.setattr(sweep, "sweep_order", refuse)
        monkeypatch.setattr(sweep, "bracket_statesum", refuse)
        word = ",".join(["1"] * 10_000)
        start = time.perf_counter()
        assert main(["bracket", f"--braid={word}", "--strands", "2",
                     "--max-crossings", "100000"]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: 10000 crossings exceeds the sweep budget of 500\n")

    def test_long_brackets_read_back(self, capsys):
        # at A = -1 a closure's bracket is (-2)^(cycles of its permutation)
        for word, strands, classical in (([1, -2, 3, -4] * 100, 5, -32), ([1] * 500, 2, 4),
                                         ([-1, 2] * 150, 3, -8)):
            assert main(["bracket", f"--braid={','.join(map(str, word))}",
                         "--strands", str(strands)]) == 0
            value = parse_laurent(capsys.readouterr().out)
            assert value == bracket(parse_braid(word, strands))
            assert value.eval_at(-1) == classical

    def test_braid_may_start_with_a_negative_letter(self, capsys):
        assert main(["bracket", "--braid", "-1,2", "--strands", "3"]) == 0
        assert capsys.readouterr().out.strip() == str(bracket(parse_braid([-1, 2], 3)))
        assert main(["bracket", "--braid", "-1,-1,-1", "--strands", "2"]) == 0
        assert capsys.readouterr().out.strip() == str(bracket(parse_braid([-1] * 3, 2)))


class TestSkeinCommand:
    def test_normal_form(self, capsys):
        assert main(["skein", "--expr", "y*x"]) == 0
        assert capsys.readouterr().out.strip() == "A^2*x*y - (A^3 - A^-1)*z"

    def test_poisson(self, capsys):
        assert main(["skein", "--expr", "x", "--poisson", "y"]) == 0
        assert capsys.readouterr().out.strip() == "-1/2*x*y - z"

    def test_poisson_output_is_valid_input(self, capsys):
        assert main(["skein", "--expr", "-1/2*x*y - z", "--poisson", "z"]) == 0
        assert capsys.readouterr().out.strip() == "1/2*x^2 - 1/2*y^2"

    def test_specialize(self, capsys):
        assert main(["skein", "--expr", "y*x", "--specialize", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "x*y"

    def test_specialize_reads_fractions_exactly(self, capsys):
        assert main(["skein", "--expr", "A*x", "--specialize", "1/3"]) == 0
        assert capsys.readouterr().out.strip() == "1/3*x"
        assert main(["skein", "--expr", "A*x", "--specialize", "1/0"]) == 2
        assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"

    def test_parse_error(self, capsys):
        assert main(["skein", "--expr", "x *"]) == 2

    def test_specialize_prints_real_coefficients_signed(self, capsys):
        assert main(["skein", "--expr", "x - 2*A*y", "--specialize", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "x - y"

    def test_modes_are_exclusive(self):
        with pytest.raises(SystemExit) as info:
            main(["skein", "--expr", "x", "--poisson", "y", "--specialize", "-1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("expr, message", [
        ("y^1000*x", "skein product of degree 1001 exceeds the budget of 24"),
        ("y^900*x", "skein product of degree 901 exceeds the budget of 24"),
        ("(2*x)^99999999", "exponent 99999999 exceeds the budget of 1000"),
        ("(2*A)^-1001", "exponent -1001 exceeds the budget of 1000"),
        ("((1 + A)^1000)^2",
         "exponent 2 times coefficient span 1000 exceeds the budget of 1000"),
        ("((1 + A)^1000)^1000",
         "exponent 1000 times coefficient span 1000 exceeds the budget of 1000"),
        ("(" * 400 + "x" + ")" * 400, "expression nests too deeply"),
    ])
    def test_oversized_input_is_a_usage_error(self, expr, message, capsys):
        assert main(["skein", "--expr", expr]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize("expr, value", [
        ("x*A^-3", "inf"), ("x*A^-3", "nan"), ("x*A^-3", "1e300"), ("x*A^-3", "1e-300"),
        ("x*A^-3", "1e-120"), ("x*A", "inf"), ("x*A^2", "1e200"),
    ])
    def test_unusable_specialization_is_a_usage_error(self, expr, value, capsys):
        assert main(["skein", "--expr", expr, "--specialize", value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("expr, degree", [
        ("(x+y)^1000", 1000), ("(x+y)^25", 25), ("(x*y*z)^9", 27),
    ])
    def test_power_over_the_degree_budget_is_refused_before_any_product(
            self, expr, degree, monkeypatch, capsys):
        base_product = torus_skein._monomial_product

        def base_products_only(m1, m2):
            # x*y*z takes two products of degree at most 3; the power takes none
            assert sum(m1) + sum(m2) <= 3, f"product {m1} * {m2} of the power was computed"
            return base_product(m1, m2)
        monkeypatch.setattr(torus_skein, "_monomial_product", base_products_only)
        assert main(["skein", "--expr", expr]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: skein product of degree {degree} exceeds the budget of 24\n"

    def test_many_terms_of_one_degree_stop_at_the_work_budget(self, capsys):
        # every term of (z+y)^24 is of degree 24, within the degree budget; the
        # product (z+y)^8 * (z+y)^8 of its squarings stops at the work budget
        start = time.perf_counter()
        assert main(["skein", "--expr", "(z+y)^24"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", f"error: skein product exceeds the budget of {torus_skein.MAX_PRODUCT_TERMS} terms\n")
        assert main(["skein", "--expr", "(z+y)^12", "--specialize", "-1"]) == 0
        assert capsys.readouterr().out.startswith("y^12 + ")

    def test_power_at_the_span_budget(self, capsys):
        assert main(["skein", "--expr", "(1 + A)^1000"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("(A^1000 + 1000*A^999 + 499500*A^998") and out.endswith(" + 1)")

    def test_product_of_powers_stops_at_the_span_budget(self, monkeypatch, capsys):
        # each factor passes the power budget; their product would not, and
        # the second power is refused before it is computed
        powers = []
        skein_power = torus_skein.TorusSkeinElement.__pow__
        monkeypatch.setattr(torus_skein.TorusSkeinElement, "__pow__",
                            lambda base, n: powers.append(n) or skein_power(base, n))
        six = "*".join(["(1 + A)^1000"] * 6)
        assert main(["skein", "--expr", six]) == 2
        assert capsys.readouterr() == (
            "", "error: product of coefficient spans 1000 and 1000 exceeds the budget of 1000\n")
        assert powers == [1000]
        assert main(["skein", "--expr", "(1 + A)^500*x*(1 + A)^500"]) == 0
        assert capsys.readouterr().out.startswith("(A^1000 + 1000*A^999 + ")
        assert main(["skein", "--expr", "(1 + A)^500*x*(1 + A)^501"]) == 2
        assert capsys.readouterr().err == (
            "error: product of coefficient spans 500 and 501 exceeds the budget of 1000\n")
        # a coefficient of span 1900 times a monomial reads back
        assert main(["skein", "--expr", "(1 + A)^1000*x + A^-900*x"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(A^1000 + 1000*A^999 + ") and out.endswith(" + 1 + A^-900)*x\n")
        assert main(["skein", "--expr", out.strip()]) == 0
        assert capsys.readouterr().out == out

    def test_sum_of_powers_stops_at_the_span_budget(self, monkeypatch, capsys):
        # each term passes every per-power and per-product budget; the second
        # power is refused before it is computed
        powers = []
        skein_power = torus_skein.TorusSkeinElement.__pow__
        monkeypatch.setattr(torus_skein.TorusSkeinElement, "__pow__",
                            lambda base, n: powers.append(n) or skein_power(base, n))
        ten = " + ".join(["(1 + A)^1000"] * 10)
        start = time.perf_counter()
        assert main(["skein", "--expr", ten]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", "error: powers of coefficient spans 1000 and 1000 exceed the budget of 1000\n")
        assert powers == [1000]
        assert main(["skein", "--expr", "(1 + A)^500*x + (1 - A)^500*y"]) == 0
        out = capsys.readouterr().out
        assert main(["skein", "--expr", out.strip()]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("expr, printed", [
        ("x^1000*x", "x^1001"), ("A^1000*A^1000*x", "A^2000*x"),
        ("(x^1000*x)^2", "x^2002"), ("A^-1000*A^-1000*z^3", "A^-2000*z^3"),
    ])
    def test_powers_of_unit_terms_read_back(self, expr, printed, capsys):
        assert main(["skein", "--expr", expr]) == 0
        assert capsys.readouterr().out == f"{printed}\n"
        assert main(["skein", "--expr", printed]) == 0
        assert capsys.readouterr().out == f"{printed}\n"

    def test_high_powers_already_in_normal_form(self, capsys):
        assert main(["skein", "--expr", "x^1000 * y^1000 * z^1000"]) == 0
        assert capsys.readouterr().out.strip() == "x^1000*y^1000*z^1000"


class TestCharCommand:
    def test_trace(self, rep_file, capsys):
        rep, path = rep_file
        assert main(["char", "--rep", path, "--trace", "abAB"]) == 0
        got = complex(capsys.readouterr().out.strip())
        assert abs(got - trace_word(rep, "abAB")) < 1e-9

    def test_point(self, rep_file, capsys):
        rep, path = rep_file
        assert main(["char", "--rep", path, "--point"]) == 0
        parts = capsys.readouterr().out.split()
        got = tuple(complex(p) for p in parts)
        want = character_point(rep)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9

    def test_phi(self, rep_file, capsys):
        rep, path = rep_file
        assert main(["char", "--rep", path, "--phi", "x*y - z"]) == 0
        got = complex(capsys.readouterr().out.strip())
        x, y, z = character_point(rep)
        assert abs(got - (x * y - z)) < 1e-9

    def test_phi_reads_poisson_output(self, rep_file, capsys):
        rep, path = rep_file
        assert main(["char", "--rep", path, "--phi", "-1/2*x*y - z"]) == 0
        got = complex(capsys.readouterr().out.strip())
        x, y, z = character_point(rep)
        assert abs(got - (-x * y / 2 - z)) < 1e-9

    def test_deep_nesting_is_a_usage_error(self, rep_file, capsys):
        _, path = rep_file
        assert main(["char", "--rep", path, "--phi", "(" * 400 + "x" + ")" * 400]) == 2
        assert capsys.readouterr().err.strip() == "error: expression nests too deeply"

    def test_modes_are_exclusive(self, rep_file):
        _, path = rep_file
        with pytest.raises(SystemExit) as info:
            main(["char", "--rep", path, "--trace", "ab", "--phi", "x"])
        assert info.value.code == 2


class TestLatticeCommand:
    def test_holonomy(self, triangle_files, capsys):
        gp, cp = triangle_files
        assert main(["lattice", "--graph", gp, "--connection", cp,
                     "--holonomy", "1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "[1, 0]" in out and "[0, 1]" in out

    def test_wilson(self, triangle_files, capsys):
        gp, cp = triangle_files
        assert main(["lattice", "--graph", gp, "--connection", cp,
                     "--wilson", "1,2,3"]) == 0
        assert complex(capsys.readouterr().out.strip()) == -2

    def test_default_connection_is_trivial(self, triangle_files, capsys):
        gp, _ = triangle_files
        assert main(["lattice", "--graph", gp, "--wilson", "1,2,3"]) == 0
        assert complex(capsys.readouterr().out.strip()) == -2

    def test_flat_exit_codes(self, triangle_files, tmp_path, capsys):
        gp, cp = triangle_files
        assert main(["lattice", "--graph", gp, "--connection", cp, "--flat"]) == 0
        assert capsys.readouterr().out.strip() == "flat"
        from skeinlab.characters import random_sl2
        g = triangle_graph()
        rng = np.random.default_rng(102)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(connection_to_json(
            {e: random_sl2(rng) for e in g.edges})))
        assert main(["lattice", "--graph", gp, "--connection", str(bad),
                     "--flat"]) == 1
        assert capsys.readouterr().out.strip() == "not flat"

    def test_bad_path_is_an_error(self, triangle_files):
        gp, _ = triangle_files
        assert main(["lattice", "--graph", gp, "--wilson", "1,3"]) == 2

    @pytest.mark.parametrize("modes", [
        ["--holonomy", "1,2,3", "--wilson", "4,-5,6"],
        ["--wilson", "1,2,3", "--flat"],
        [],
    ])
    def test_exactly_one_mode(self, triangle_files, modes):
        gp, _ = triangle_files
        with pytest.raises(SystemExit) as info:
            main(["lattice", "--graph", gp, *modes])
        assert info.value.code == 2

    def test_path_may_start_with_a_negative_edge(self, triangle_files, tmp_path, capsys):
        from skeinlab.characters import random_sl2
        gp, _ = triangle_files
        rng = np.random.default_rng(103)
        cp = tmp_path / "random.json"
        cp.write_text(json.dumps(connection_to_json(
            {e: random_sl2(rng) for e in triangle_graph().edges})))
        for flag in ("--wilson", "--holonomy"):
            assert main(["lattice", "--graph", gp, "--connection", str(cp),
                         flag, "-3,-2,-1"]) == 0
            separate = capsys.readouterr().out
            assert main(["lattice", "--graph", gp, "--connection", str(cp),
                         f"{flag}=-3,-2,-1"]) == 0
            assert separate == capsys.readouterr().out != ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_unusable_tol_is_a_usage_error(self, triangle_files, capsys, tol):
        gp, cp = triangle_files
        assert main(["lattice", "--graph", gp, "--connection", cp, "--flat",
                     f"--tol={tol}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --tol must be finite and non-negative, not {float(tol)}\n")

    def test_zero_tol_is_usable(self, triangle_files, capsys):
        gp, cp = triangle_files
        assert main(["lattice", "--graph", gp, "--connection", cp, "--flat", "--tol", "0"]) == 0
        assert capsys.readouterr().out == "flat\n"


class TestQLatticeCommand:
    def test_wilson_value(self, bowtie_files, capsys):
        gp, (dp, _, _) = bowtie_files
        assert main(["qlattice", "--graph", gp, "--qlink", dp,
                     "--t", "0.83+0.41j"]) == 0
        got = complex(capsys.readouterr().out.strip())
        t = 0.83 + 0.41j
        assert abs(got + (t ** 3 - t ** -1 + 2 * t ** -5)) < 1e-9

    def test_residual_ok(self, bowtie_files, capsys):
        gp, (dp, ap, bp) = bowtie_files
        assert main(["qlattice", "--graph", gp, "--qlink", dp, "--t", "1.1",
                     "--residual", ap, bp]) == 0
        assert "(ok)" in capsys.readouterr().out

    def test_residual_breach_exits_one(self, bowtie_files, capsys):
        # Feeding the wrong resolutions breaks the crossing relation.
        gp, (dp, ap, bp) = bowtie_files
        assert main(["qlattice", "--graph", gp, "--qlink", dp, "--t", "1.1",
                     "--residual", bp, ap]) == 1

    def test_missing_file_is_an_error(self, bowtie_files):
        gp, (dp, _, _) = bowtie_files
        assert main(["qlattice", "--graph", gp, "--qlink", "/nonexistent.json"]) == 2

    def test_zero_t_is_a_usage_error(self, bowtie_files, capsys):
        gp, (dp, ap, bp) = bowtie_files
        for extra in ([], ["--residual", ap, bp]):
            assert main(["qlattice", "--graph", gp, "--qlink", dp, "--t", "0",
                         *extra]) == 2
            err = capsys.readouterr().err
            assert "t must be nonzero" in err and "Traceback" not in err

    @pytest.mark.parametrize("t", ["nan", "inf", "1e300", "1e-300"])
    def test_unusable_t_is_a_usage_error(self, bowtie_files, capsys, t):
        gp, (dp, ap, bp) = bowtie_files
        for extra in ([], ["--residual", ap, bp]):
            assert main(["qlattice", "--graph", gp, "--qlink", dp, "--t", t, *extra]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf"])
    def test_unusable_tol_is_a_usage_error(self, bowtie_files, capsys, tol):
        gp, (dp, ap, bp) = bowtie_files
        assert main(["qlattice", "--graph", gp, "--qlink", dp, "--residual", ap, bp,
                     f"--tol={tol}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --tol must be finite and non-negative, not {float(tol)}\n")

    def test_crossing_budget_is_a_usage_error(self, bowtie_files, tmp_path, monkeypatch,
                                              capsys):
        from test_qlattice import triangle_chain
        g, loop = triangle_chain(2)
        gp, qp = tmp_path / "chain.json", tmp_path / "chain_link.json"
        gp.write_text(json.dumps(graph_to_json(g)))
        qp.write_text(json.dumps(qlink_to_json(
            qlattice.QLink([loop], [("x1", "+"), ("x2", "+")]))))
        monkeypatch.setattr(qlattice, "MAX_QLINK_WIDTH", 0)
        assert main(["qlattice", "--graph", str(gp), "--qlink", str(qp)]) == 2
        err = capsys.readouterr().err
        assert err == "error: q-link contraction width 2 exceeds the budget of 0\n"
        bowtie, (dp, ap, _) = bowtie_files
        assert main(["qlattice", "--graph", bowtie, "--qlink", ap, "--t", "1"]) == 0
        assert abs(complex(capsys.readouterr().out.strip()) + 2) < 1e-12


class TestVerifyCommand:
    def test_json_lists_the_text_checks(self, capsys):
        assert main(["verify", "--seed", "7"]) == 0
        text = capsys.readouterr().out.splitlines()
        assert main(["verify", "--seed", "7", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["seed"], obj["passed"], obj["total"]) == (7, 17, 17)
        assert len(obj["checks"]) == 17 and all(c["ok"] for c in obj["checks"])
        assert [f"ok   {c['name']}: {c['detail']}" for c in obj["checks"]] == text[:-1]
        assert text[-1] == "17/17 checks passed (seed 7)"

    def test_a_raising_check_fails_alone(self, monkeypatch, capsys):
        real_battery = checks.battery

        def battery(seed):
            def boom():
                raise RuntimeError("boom")
            pairs = real_battery(seed)
            pairs[3] = (pairs[3][0], boom)
            return pairs

        monkeypatch.setattr(checks, "battery", battery)
        assert main(["verify", "--seed", "7"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL sweep_vs_statesum: error: RuntimeError('boom')" in lines
        assert sum(line.startswith("ok   ") for line in lines) == 16
        assert lines[-1] == "16/17 checks passed (seed 7)"

    @pytest.mark.parametrize("argv", [
        ["bracket", "--pd", "O", "--tol", "1e-3"],
        ["skein", "--expr", "x", "--tol", "1e-3"],
        ["char", "--rep", "rep.json", "--point", "--tol", "1e-3"],
        ["verify", "--tol", "1e-3"],
        ["skein", "--expr", "x", "--poisson", "y", "--order", "3"],
    ])
    def test_options_that_changed_nothing_are_gone(self, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


LOOP_GRAPH = {"vertices": ["v"], "edges": {"1": ["v", "v"]},
              "ciliation": {"v": [[1, 0], [1, 1]]}}


class TestEnvironment:
    @pytest.mark.parametrize("command, data, message", [
        ("bracket", {"crossings": [[1, 2, 3, 4], [3, 4, 1, 2]], "over": [[2, 4]]},
         '"over" lists 1 pairs for 2 crossings'),
        ("bracket", [1, 2, 3], "a diagram must be a JSON object"),
        ("lattice", {**LOOP_GRAPH, "edges": [[1, "v", "v"]]}, '"edges" must be a JSON object'),
        ("qlattice", {**LOOP_GRAPH, "edges": [[1, "v", "v"]]}, '"edges" must be a JSON object'),
        ("qlattice", {**LOOP_GRAPH, "ciliation": [["v", [1, 0]]]},
         '"ciliation" must be a JSON object'),
        ("bracket", {"word": [1, "x"], "strands": 2}, '"word" must be a list of integer'),
        ("bracket", {"word": [1, 1.5], "strands": 2}, '"word" must be a list of integer'),
        ("bracket", {"word": 5, "strands": 2}, '"word" must be a list of integer'),
        ("bracket", {"word": [1], "strands": "two"}, '"strands" must be an integer'),
    ])
    def test_malformed_json_is_a_usage_error(self, command, data, message, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        args = {"bracket": ["--json", str(path)],
                "lattice": ["--graph", str(path), "--wilson", "1"],
                "qlattice": ["--graph", str(path), "--qlink", str(path)]}[command]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["bracket", "--json", "FILE"],
        ["char", "--rep", "FILE"],
        ["lattice", "--graph", "FILE", "--flat"],
        ["qlattice", "--graph", "FILE", "--qlink", "FILE"],
    ])
    def test_deep_json_is_a_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([str(path) if a == "FILE" else a for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nests too deeply\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skeinlab.cli", "bracket",
             "--braid", "1,1", "--strands", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "A^6 + A^2 + A^-2 + A^-6"

    def test_no_arguments_shows_usage(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


# ----------------------------------------------------------------------
# fuzzed input files: every run ends in a documented exit code

json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
                        st.floats(-2, 2, allow_nan=False), st.text("abvEK01-", max_size=3))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text("abv0123", max_size=2), inner, max_size=3)),
    max_leaves=8)


def _slots(doc, path=()):
    """Paths of every value inside doc, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _slots(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """doc with up to three values replaced by random JSON or deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_slots(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(json_values)
        else:
            del parent[path[-1]]
    return doc


_WORDS = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8)
_TRIANGLE = triangle_graph()
_BOWTIE = bowtie_graph()
# command -> (file options, strategies of the valid files they mutate, mode arguments)
FUZZED = {
    "bracket": (["--json"],
                [st.one_of(_WORDS.map(lambda w: {"word": w, "strands": 3}),
                           _WORDS.map(lambda w: diagram_to_json(parse_braid(w, 3))))],
                [[], ["--method", "statesum"]]),
    "char": (["--rep"], [st.just(rep_to_json(random_rep("ab", np.random.default_rng(7))))],
             [["--trace", "abAB"], ["--point"], ["--phi", "x*y - z"]]),
    "lattice": (["--graph", "--connection"],
                [st.just(graph_to_json(_TRIANGLE)),
                 st.just(connection_to_json(trivial_connection(_TRIANGLE)))],
                [["--wilson", "1,2,3"], ["--holonomy", "1,2"], ["--flat"]]),
    "qlattice": (["--graph", "--qlink", "--qconnection"],
                 [st.just(graph_to_json(_BOWTIE)), st.just(qlink_to_json(bowtie_qlinks()[0])),
                  st.just(qconnection_to_json(classical_to_quantum(
                      trivial_connection(_BOWTIE))))],
                 [["--t", "0.9+0.2j"]]),
}


class TestFuzzedFiles:
    @pytest.mark.parametrize("command", sorted(FUZZED))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_code_is_documented(self, command, data):
        options, docs, modes = FUZZED[command]
        argv = [command, *data.draw(st.sampled_from(modes))]
        with tempfile.TemporaryDirectory() as tmp:
            for option, doc in zip(options, docs):
                path = os.path.join(tmp, option.strip("-") + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data.draw(mutated(data.draw(doc))), fh)
                argv += [option, path]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        assert (code == 2) == err.getvalue().startswith("error: ")


# a bowtie graph file whose first face starts with the step [1e400, 1]
_INFINITE_FACE = json.dumps(graph_to_json(_BOWTIE)).replace('"faces": [[[',
                                                             '"faces": [[[1e400, 1], [')


class TestNonFiniteIntegers:
    """JSON reads 1e400 as inf; in an integer field that is bad input, exit 2."""

    @pytest.mark.parametrize("argv, text, field", [
        (["bracket", "--json", "FILE"], '{"crossings": [], "free_loops": 1e400}', '"free_loops"'),
        (["lattice", "--graph", "FILE", "--flat"], _INFINITE_FACE, "a face edge id"),
        (["qlattice", "--graph", "GRAPH", "--qlink", "FILE"], '{"loops": [[[1, -1e400]]]}',
         "a q-link direction"),
    ], ids=["bracket", "lattice", "qlattice"])
    def test_one_error_line(self, bowtie_files, tmp_path, capsys, argv, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        files = {"FILE": str(path), "GRAPH": bowtie_files[0]}
        assert main([files.get(a, a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {field} must be an integer, not ") and err.count("\n") == 1


class TestMatrixEntries:
    """Connection and representation entries must be finite, and the
    matrices in SL(2); anything else is bad input, exit 2."""

    @pytest.mark.parametrize("entry, message", [
        ("1" * 401, "a complex value must be finite, not 1111"),
        ("1e400", "a complex value must be finite, not inf"),
        ("2", "edge 1's matrix must have determinant 1, not 4"),
    ], ids=["401 digits", "1e400", "2I"])
    def test_connection(self, triangle_files, tmp_path, capsys, entry, message):
        gp, _ = triangle_files
        path = tmp_path / "conn.json"
        path.write_text('{"1": [[%s, 0], [0, %s]], "2": [[1, 0], [0, 1]], "3": [[1, 0], [0, 1]]}'
                        % (entry, entry))
        assert main(["lattice", "--graph", gp, "--connection", str(path), "--holonomy=1,-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_boolean_entries(self, bowtie_files, tmp_path, capsys):
        # [[true, false], [false, true]] would read as the identity
        path = tmp_path / "conn.json"
        path.write_text(json.dumps({str(e): [[True, False], [False, True]] if e == 1
                                    else [[1, 0], [0, 1]] for e in range(1, 7)}))
        assert main(["lattice", "--graph", bowtie_files[0], "--connection", str(path),
                     "--holonomy=1,-1"]) == 2
        assert capsys.readouterr() == ("", "error: a complex value must be a number, not True\n")

    def test_representation(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text('{"a": [[2, 0], [0, 2]], "b": [[1, 0], [0, 1]]}')
        assert main(["char", "--rep", str(path), "--point"]) == 2
        assert capsys.readouterr() == ("", "error: generator 'a' must have determinant 1, not 4\n")
