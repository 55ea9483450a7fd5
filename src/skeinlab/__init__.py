"""skeinlab: Kauffman bracket invariants, the punctured-torus skein algebra,
SL2 character varieties, and classical/quantum lattice gauge field theory,
with cross-checks tying the four pictures together.  `characters`, `lattice` and
`qlattice` load on first use, so bracket and skein skip their import: 2 ms from
bytecode, 16 ms from source (Python 3.11 on a 2-vCPU Xeon)."""

from importlib import import_module as _import_module

from .poly import HSeries, LaurentPoly, LOOP_VALUE, parse_laurent, render_laurent
from .diagram import (Crossing, LinkDiagram, corpus, parse_braid, parse_pd,
                      random_braid_diagram, random_move)
from .bracket import bracket, bracket_series, bracket_statesum, bracket_tl_sweep
from .torus_skein import (CommPoly, TorusSkeinElement, lift, parse_skein,
                          poisson_bracket, render_skein)

# module -> the names it exports here, imported on first access (PEP 562)
_LAZY = {
    "characters": ("character_point", "conjugate_rep", "evaluate_word", "inverse_word",
                   "phi_evaluate", "random_rep", "random_sl2", "trace_identity_residual",
                   "trace_word"),
    "lattice": ("CiliatedGraph", "bouquet", "bowtie_graph", "gauge_act", "holonomy", "is_flat",
                "peripheral_path", "punctured_torus_graph", "rep_to_connection",
                "spanning_tree", "triangle_graph", "trivial_connection", "wilson_loop"),
    "qlattice": ("QLink", "Tangle", "UqWord", "W_CHARM", "bowtie_qlinks", "classical_to_quantum",
                 "decorated_words", "fundamental_tangle", "gauge_act_q", "nabla_vertex",
                 "nabla_coassociativity_residual", "r_matrix", "r_matrix_terms",
                 "skein_residual", "uq_antipode", "uq_coproduct", "uq_coproduct_n", "uq_counit",
                 "uq_fundamental", "uq_trace", "wilson_qlink", "yang_baxter_residual"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + [*_LAZY, *_HOME]


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _HOME:
        globals()[name] = value = getattr(__getattr__(_HOME[name]), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
