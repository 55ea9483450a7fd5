"""What importing skeinlab and running its commands loads, each in a fresh
interpreter.

The modules poly, diagram, bracket and torus_skein load with the package;
the matrix modules characters, lattice and qlattice load on first use of
one of their names.  No module and no command loads numpy: 2x2 matrices
are entry tuples, and qlattice's coassociativity probe acts on a flat list.
With numpy's import blocked, `verify` still passes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skeinlab import checks

SRC = str(Path(__file__).resolve().parents[1] / "src")

# sorted(skeinlab.__all__) when every module was imported eagerly
PUBLIC_NAMES = [
    "CiliatedGraph", "CommPoly", "Crossing", "HSeries", "LOOP_VALUE", "LaurentPoly",
    "LinkDiagram", "QLink", "Tangle", "TorusSkeinElement", "UqWord", "W_CHARM", "bouquet",
    "bowtie_graph", "bowtie_qlinks", "bracket", "bracket_series", "bracket_statesum",
    "bracket_tl_sweep", "character_point", "characters", "classical_to_quantum",
    "conjugate_rep", "corpus", "decorated_words", "diagram", "evaluate_word",
    "fundamental_tangle", "gauge_act", "gauge_act_q", "holonomy", "inverse_word", "is_flat",
    "lattice", "lift", "nabla_coassociativity_residual", "nabla_vertex", "parse_braid",
    "parse_laurent", "parse_pd", "parse_skein", "peripheral_path", "phi_evaluate",
    "poisson_bracket", "poly", "punctured_torus_graph", "qlattice", "r_matrix",
    "r_matrix_terms", "random_braid_diagram", "random_move", "random_rep", "random_sl2",
    "render_laurent", "render_skein", "rep_to_connection", "skein_residual", "spanning_tree",
    "torus_skein", "trace_identity_residual", "trace_word", "triangle_graph",
    "trivial_connection", "uq_antipode", "uq_coproduct", "uq_coproduct_n", "uq_counit",
    "uq_fundamental", "uq_trace", "wilson_loop", "wilson_qlink", "yang_baxter_residual",
]


def fresh(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run Python code in a new interpreter that imports skeinlab from src/."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


def fresh_json(code: str):
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_numpy():
    assert fresh_json("import json, sys, skeinlab\n"
                      "print(json.dumps('numpy' in sys.modules))") is False


def test_matrix_modules_load_no_numpy():
    code = """
import json, sys
import skeinlab.characters, skeinlab.lattice, skeinlab.qlattice, skeinlab.formats, skeinlab.checks
print(json.dumps("numpy" in sys.modules))
"""
    assert fresh_json(code) is False


def test_public_names_are_unchanged_and_listed_by_dir():
    names, listed = fresh_json("import json, skeinlab\n"
                               "print(json.dumps([sorted(skeinlab.__all__), "
                               "set(skeinlab.__all__) <= set(dir(skeinlab))]))")
    assert names == PUBLIC_NAMES
    assert listed


def test_every_public_name_is_its_home_modules_object():
    code = """
import importlib, json, sys, types, skeinlab
values = {name: getattr(skeinlab, name) for name in skeinlab.__all__}
homes = [vars(importlib.import_module(f"skeinlab.{h}")) for h in
         ("poly", "diagram", "bracket", "torus_skein", "characters", "lattice", "qlattice")]
bad = []
for name, value in values.items():
    if isinstance(value, types.ModuleType):
        ok = value is sys.modules[f"skeinlab.{name}"]
    else:
        owners = [h for h in homes if name in h]
        ok = bool(owners) and all(h[name] is value for h in owners)
    if not ok:
        bad.append(name)
from skeinlab import *
print(json.dumps(bad))
"""
    assert fresh_json(code) == []


def test_bracket_stays_the_function_after_importing_its_module():
    code = """
import json, types, skeinlab
import skeinlab.bracket
import skeinlab.lattice
print(json.dumps([callable(skeinlab.bracket), isinstance(skeinlab.bracket, types.ModuleType),
                  isinstance(skeinlab.lattice, types.ModuleType)]))
"""
    assert fresh_json(code) == [True, False, True]


DIAGRAM = {"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}


@pytest.mark.parametrize("argv", [
    ["bracket", "--braid", "1,1,1", "--strands", "2"],
    ["bracket", "--braid", "1,-2,1,-2", "--strands", "3", "--method", "statesum", "--order", "2"],
    ["bracket", "--pd", "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]", "--format", "json"],
    ["bracket", "--json", "diagram.json"],
    ["skein", "--expr", "y*x"],
    ["skein", "--expr", "x", "--poisson", "y"],
    ["skein", "--expr", "y*x - A*z", "--specialize", "-1"],
    ["skein", "--expr", "y^1000*x"],
    ["verify", "--seed", "7"],
], ids=lambda argv: " ".join(argv[:3]))
def test_exact_commands_load_no_numpy(argv, tmp_path):
    (tmp_path / "diagram.json").write_text(json.dumps(DIAGRAM))
    code = f"""
import contextlib, io, json, sys
from skeinlab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, "numpy" in sys.modules]))
"""
    proc = fresh(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded = json.loads(proc.stdout)
    assert code in (0, 2) and not numpy_loaded


def test_verify_passes_with_numpy_blocked():
    code = """
import contextlib, io, sys
sys.modules["numpy"] = None         # any import of numpy now raises ImportError
from skeinlab.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["verify", "--seed", "7"])
print(code, out.getvalue().splitlines()[-1])
"""
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    n = len(checks.battery(7))
    assert proc.stdout.strip() == f"0 {n}/{n} checks passed (seed 7)", proc.stdout


FILES = {
    "rep.json": {"a": [[2, 1], [1, 1]], "b": [[1, [0, 1]], [0, 1]]},
    "triangle.json": {"vertices": ["v1", "v2", "v3"],
                      "edges": {"1": ["v1", "v2"], "2": ["v2", "v3"], "3": ["v3", "v1"]},
                      "ciliation": {"v1": [[1, 0], [3, 1]], "v2": [[1, 1], [2, 0]],
                                    "v3": [[2, 1], [3, 0]]},
                      "faces": [[[1, 1], [2, 1], [3, 1]]]},
    "conn.json": {"1": [[2, 1], [1, 1]], "2": [[1, [0, 1]], [0, 1]], "3": [[0, -1], [1, 0]]},
    "bowtie.json": {"vertices": ["v1", "v2", "v3", "v4", "v5"],
                    "edges": {"1": ["v3", "v1"], "2": ["v1", "v2"], "3": ["v2", "v3"],
                              "4": ["v3", "v4"], "5": ["v5", "v4"], "6": ["v5", "v3"]},
                    "ciliation": {"v1": [[1, 1], [2, 0]], "v2": [[2, 1], [3, 0]],
                                  "v3": [[3, 1], [1, 0], [4, 0], [6, 1]],
                                  "v4": [[5, 1], [4, 1]], "v5": [[6, 0], [5, 0]]},
                    "faces": [[[1, 1], [2, 1], [3, 1]], [[4, 1], [5, -1], [6, 1]]]},
    "d.json": {"loops": [[[1, 1], [2, 1], [3, 1], [4, 1], [5, -1], [6, 1]]],
               "crossings": [{"at": "v3", "sign": "+"}]},
}


# (arguments, exit code, output), as printed when 2x2 matrices were numpy arrays
MATRIX_COMMANDS = [
    ("char --rep rep.json --trace abAB", 0, "1"),
    ("char --rep rep.json", 0, "-3 -2 -3-1j"),
    ("char --rep rep.json --phi x*y-z", 0, "9+1j"),
    ("lattice --graph triangle.json --connection conn.json --wilson 1,2,3", 0, "-0-2j"),
    ("lattice --graph triangle.json --connection conn.json --holonomy 1,2", 0,
     "[2, 1+2j]\n[1, 1+1j]"),
    ("lattice --graph triangle.json --connection conn.json --flat", 1, "not flat"),
    ("qlattice --graph bowtie.json --qlink d.json --t 0.9+0.2j", 0,
     "-0.941875975538+1.95343077085j"),
    ("qlattice --graph bowtie.json --qlink d.json --t 0.9+0.2j --residual d.json d.json", 1,
     "residual 6.417e+00 (FAIL)"),
]


@pytest.mark.parametrize("args, exit_code, output", MATRIX_COMMANDS)
def test_matrix_commands_give_the_same_output_without_numpy(args, exit_code, output, tmp_path):
    for name, obj in FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code = f"""
import contextlib, io, json, sys
from skeinlab.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main({args.split()!r})
print(json.dumps([code, out.getvalue().strip(), "numpy" in sys.modules]))
"""
    proc = fresh(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [exit_code, output, False], proc.stderr
