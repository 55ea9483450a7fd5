"""Self-test of the benchmark: every checker rejects a deliberately wrong
value, and a short run of each workload passes its own checks.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from skeinlab.poly import LaurentPoly  # noqa: E402
from skeinlab.torus_skein import CommPoly, TorusSkeinElement  # noqa: E402


def bump(p: LaurentPoly) -> LaurentPoly:
    """The same polynomial with its leading coefficient changed by one."""
    table = dict(p.items())
    top = max(table)
    table[top] += 1
    return LaurentPoly(table)


def accepts(op, value) -> bool:
    """Whether an operation's checker passes a value; one it cannot parse fails."""
    try:
        return op.check(value) is None
    except ValueError:
        return False


def ops_by_kind(workload, r=0):
    out = {}
    for op in workload.round(r):
        out.setdefault(op.kind, op)
    return out


def test_laurent_and_polynomial_text_parsers():
    assert checks.parse_laurent_text("A^7 + A^3 + A^-1 - A^-9") == {7: 1, 3: 1, -1: 1, -9: -1}
    assert checks.parse_laurent_text("-14*A^40 + 667 - 976*A^-4") == {40: -14, 0: 667, -4: -976}
    assert checks.parse_comm_text("-1/2*x*y - z") == {(1, 1, 0): -0.5, (0, 0, 1): -1}
    assert checks.parse_comm_text("x*y^2*z + 3") == {(1, 2, 1): 1, (0, 0, 0): 3}


def test_torus_closed_form_and_generator_brackets_match_known_values():
    assert checks.torus_closed_form(3) == {7: 1, 3: 1, -1: 1, -9: -1}
    for (i, j), want in checks.GENERATOR_BRACKETS.items():
        u = [{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}]
        assert checks.chain_rule_bracket(u[i], u[j]) == want


def test_bracket_checkers_reject_a_changed_coefficient():
    ops = ops_by_kind(workloads.BracketBraids(11))
    for kind in ("family", "torus", "random", "statesum"):
        value = ops[kind].run()
        assert ops[kind].check(value) is None
        wrong = [bump(v) for v in value] if isinstance(value, list) else bump(value)
        assert ops[kind].check(wrong) is not None, kind
    assert checks.check_braid_bracket({7: 1, 3: 1, -1: 1, -9: -1}, [1, 1, 1], 2) is None
    assert checks.check_braid_bracket({7: 1, 3: 1, -1: 2, -9: -1}, [1, 1, 1], 2) is not None


def test_skein_checkers_reject_wrong_products_and_brackets():
    ops = ops_by_kind(workloads.SkeinAlgebra(11))
    x = TorusSkeinElement.x()
    ab, left, right = ops["triple"].run()
    assert ops["triple"].check((ab, left, right)) is None
    assert ops["triple"].check((ab, left + x, right)) is not None
    assert ops["triple"].check((ab + x, left, right)) is not None
    square = ops["square"].run()
    assert ops["square"].check(square) is None
    assert ops["square"].check(square + 1) is not None
    brackets = ops["poisson"].run()
    assert ops["poisson"].check(brackets) is None
    wrong = [brackets[0] + CommPoly.constant(1)] + brackets[1:]
    assert ops["poisson"].check(wrong) is not None


def test_quantum_checkers_reject_a_residual_of_1e_3_and_perturbed_values():
    ops = ops_by_kind(workloads.QuantumLattice(11))
    assert ops["residual"].check(1e-3) is not None
    assert ops["coassoc"].check(1e-3) is not None
    assert ops["residual"].check(ops["residual"].run()) is None
    for kind in ("wilson", "counit"):
        value = ops[kind].run()
        assert ops[kind].check(value) is None
        value[0][0] += 1e-6
        assert ops[kind].check(value) is not None, kind
    limit = ops["limit"].run()
    assert ops["limit"].check(limit) is None
    wa, wb, classical = limit[0]
    assert ops["limit"].check([(wa + 1e-6, wb, classical)] + limit[1:]) is not None


def test_cli_checkers_reject_wrong_output_and_exit_codes(tmp_path):
    cli = workloads.CliCold(11, workdir=tmp_path, root=ROOT)
    ops = cli.round(0)
    for op in ops:
        assert op.check((2, "", "error: boom")) is not None
    yx_out = "A^2*x*y - (A^3 - A^-1)*z"
    yx = [op for op in ops if op.kind == "skein" and accepts(op, (0, yx_out, ""))]
    assert len(yx) == 1
    assert not accepts(yx[0], (0, yx_out.replace("- A^-1", "+ A^-1"), ""))
    verify = ops[-1]
    assert verify.kind == "verify"
    assert verify.check((0, "16/17 checks passed (seed 7)", "")) is not None
    for kind in ("bracket", "char"):
        op = next(op for op in ops if op.kind == kind)
        code, out, err = op.run()
        assert code == 0 and op.check((code, out, err)) is None, err
        wrong = (out.replace("A", "2*A", 1) if kind == "bracket"
                 else str(complex(out) * (1 + 1e-6)))
        assert op.check((0, wrong, "")) is not None


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_passes_its_checks(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--rounds", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {"setup_s", "throughput_ops", "latency_p50_ms",
                                      "latency_tail_ms", "peak_rss_mb"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bracket_braids",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
