"""Command-line interface: outputs, exit codes, file handling."""

import json
import subprocess
import sys

import numpy as np
import pytest

from skeinlab.bracket import bracket
from skeinlab.characters import character_point, random_rep, trace_word
from skeinlab import checks
from skeinlab.cli import main
from skeinlab.diagram import corpus, parse_braid
from skeinlab.formats import (
    connection_to_json,
    diagram_to_json,
    graph_to_json,
    qlink_to_json,
    rep_to_json,
)
from skeinlab.lattice import bowtie_graph, triangle_graph, trivial_connection
from skeinlab.poly import LaurentPoly
from skeinlab.qlattice import bowtie_qlinks


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

    def test_specialize(self, capsys):
        assert main(["skein", "--expr", "y*x", "--specialize", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "x*y"

    def test_parse_error(self, capsys):
        assert main(["skein", "--expr", "x *"]) == 2

    def test_specialize_prints_real_coefficients_signed(self, capsys):
        assert main(["skein", "--expr", "x - 2*A*y", "--specialize", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "x - y"

    def test_modes_are_exclusive(self):
        with pytest.raises(SystemExit) as info:
            main(["skein", "--expr", "x", "--poisson", "y", "--specialize", "-1"])
        assert info.value.code == 2


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
