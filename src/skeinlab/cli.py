"""Command-line front end.

Subcommands: bracket, skein, char, lattice, qlattice, verify.  The mode
flags of a subcommand exclude each other.  Exit codes: 0 success,
1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

# the matrix modules are imported by their handlers, so bracket and skein skip their import time
from . import diagram, formats, torus_skein
from .bracket import MAX_CROSSINGS, MAX_WIDTH, bracket as _bracket_eval
from .poly import render_laurent


def _fmt_complex(z: complex) -> str:
    real, imag = formats.complex_to_json(z)     # refuses inf and nan
    if abs(imag) < 1e-13:
        return f"{real:.12g}"
    return f"{real:.12g}{'+' if imag >= 0 else '-'}{abs(imag):.12g}j"


def _check_tol(tol: float) -> None:
    if not 0 <= tol < float("inf"):         # also refuses nan
        raise ValueError(f"--tol must be finite and non-negative, not {tol}")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None


def _emit(args, text_value: str, json_value) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


# ----------------------------------------------------------------------
# subcommands


def _cmd_bracket(args) -> int:
    sources = [s for s in (args.braid, args.pd, args.json_file) if s is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one of --braid, --pd, --json")
    if args.braid is not None:
        if args.strands is None:
            raise ValueError("--braid requires --strands")
        word = [formats._int(tok, "a braid letter") for tok in args.braid.split(",") if tok.strip()]
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
        result = torus_skein.poisson_bracket(p, q)
        text = str(result)
    elif args.specialize is not None:
        raw = args.specialize.strip()
        try:
            a = int(raw) if "/" not in raw else Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {raw!r}") from None
        except ValueError:
            a = formats.complex_from_json(raw)
        text = str(p.specialize(a))
    else:
        text = torus_skein.render_skein(p)
    _emit(args, text, {"result": text})
    return 0


def _cmd_char(args) -> int:
    from . import characters
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
    edges = [formats._int(tok, "an edge id") for tok in text.split(",") if tok.strip()]
    if not edges:
        raise ValueError("empty path")
    if 0 in edges:
        raise ValueError("edge ids are nonzero; sign gives direction")
    return [(abs(e), 1 if e > 0 else -1) for e in edges]


def _cmd_lattice(args) -> int:
    from . import lattice
    _check_tol(args.tol)
    g = formats.graph_from_json(_load_json(args.graph))
    if args.connection is not None:
        conn = formats.connection_from_json(_load_json(args.connection))
    else:
        conn = lattice.trivial_connection(g)
    if args.holonomy is not None:
        m = lattice.holonomy(g, conn, _parse_path(args.holonomy))
        rows = [f"[{_fmt_complex(m[i])}, {_fmt_complex(m[i + 1])}]" for i in (0, 2)]
        _emit(args, "\n".join(rows), {"holonomy": formats.matrix_to_json(m)})
        return 0
    if args.wilson is not None:
        value = lattice.wilson_loop(g, conn, _parse_path(args.wilson))
        _emit(args, _fmt_complex(value), {"wilson": formats.complex_to_json(value)})
        return 0
    flat = lattice.is_flat(g, conn, tol=args.tol)
    _emit(args, "flat" if flat else "not flat", {"flat": flat})
    return 0 if flat else 1


def _cmd_qlattice(args) -> int:
    from . import qlattice
    _check_tol(args.tol)
    g = formats.graph_from_json(_load_json(args.graph))
    q = formats.qlink_from_json(_load_json(args.qlink))
    if args.qconnection is not None:
        conn = formats.qconnection_from_json(_load_json(args.qconnection))
    else:
        conn = {e: qlattice.UqWord.unit() for e in g.edges}
    t = formats.complex_from_json(args.t)
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


def _cmd_verify(args) -> int:
    from . import checks
    results = checks.run(args.seed)
    passed = sum(r["ok"] for r in results)
    lines = [f"{'ok  ' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results]
    lines.append(f"{passed}/{len(results)} checks passed (seed {args.seed})")
    _emit(args, "\n".join(lines),
          {"seed": args.seed, "passed": passed, "total": len(results), "checks": results})
    return 0 if passed == len(results) else 1


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

    p = sub.add_parser("bracket", help="Kauffman bracket of a link diagram")
    p.add_argument("--braid", help="comma-separated braid word, e.g. '1,1,1'")
    p.add_argument("--strands", type=int)
    p.add_argument("--pd", help="planar-diagram text, e.g. 'X[0,1,2,3] O'")
    p.add_argument("--json", dest="json_file", help="diagram or braid JSON file")
    p.add_argument("--method", choices=("auto", "sweep", "statesum"), default="auto")
    p.add_argument("--order", type=int, help="also print the h-expansion at A=-e^(h/4)")
    p.add_argument("--max-crossings", type=int, default=MAX_CROSSINGS,
                   help="crossing cap of the state sum (--method statesum, or auto's fallback)")
    p.add_argument("--max-width", type=int, default=MAX_WIDTH)
    common(p)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("skein", help="punctured-torus skein algebra arithmetic")
    p.add_argument("--expr", required=True, help="expression in x, y, z, A")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--poisson", metavar="EXPR2",
                      help="Poisson bracket of --expr with EXPR2 in the classical limit")
    mode.add_argument("--specialize", metavar="A_VALUE",
                      help="evaluate coefficients at a number, e.g. -1, 1/3 or 0.5")
    common(p)
    p.set_defaults(func=_cmd_skein)

    p = sub.add_parser("char", help="SL2 character evaluations")
    p.add_argument("--rep", required=True, help="JSON file: generator -> 2x2 matrix")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trace", metavar="WORD", help="trace of a word, capitals invert")
    mode.add_argument("--phi", metavar="EXPR",
                      help="evaluate a polynomial in x, y, z at the character")
    mode.add_argument("--point", action="store_true", help="print (x, y, z), the default")
    common(p)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("lattice", help="classical holonomy and Wilson loops")
    p.add_argument("--graph", required=True)
    p.add_argument("--connection")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--holonomy", metavar="PATH", help="signed edge list, e.g. '1,-2,3'")
    mode.add_argument("--wilson", metavar="PATH")
    mode.add_argument("--flat", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8, help="flatness tolerance of --flat")
    common(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("qlattice", help="quantum Wilson observables")
    p.add_argument("--graph", required=True)
    p.add_argument("--qlink", required=True)
    p.add_argument("--qconnection")
    p.add_argument("--t", default="1", help="complex deformation parameter")
    p.add_argument("--residual", nargs=2, metavar=("A_JSON", "B_JSON"),
                   help="check the skein relation against two resolutions")
    p.add_argument("--tol", type=float, default=1e-8, help="largest --residual that passes")
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
    for arg in argv:
        if (out and out[-1] in ("--braid", "--wilson", "--holonomy")
                and re.fullmatch(r"-\d+(\s*,\s*-?\d+)*\s*,?", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_signed_lists(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except OverflowError as exc:        # a float power or conversion of input values
        message = f"a result overflows a float ({exc})"
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
