"""skeinlab: Kauffman bracket invariants, the punctured-torus skein algebra,
SL2 character varieties, and classical/quantum lattice gauge field theory,
with cross-checks tying the four pictures together."""

from .poly import HSeries, LaurentPoly, LOOP_VALUE, parse_laurent, render_laurent
from .diagram import (Crossing, LinkDiagram, corpus, parse_braid, parse_pd,
                      random_braid_diagram, random_move)
from .bracket import bracket, bracket_series, bracket_statesum, bracket_tl_sweep
from .torus_skein import (CommPoly, TorusSkeinElement, lift, parse_skein,
                          poisson_bracket, render_skein)
from .characters import (character_point, conjugate_rep, evaluate_word,
                         inverse_word, phi_evaluate, random_rep, random_sl2,
                         trace_identity_residual, trace_word)
from .lattice import (CiliatedGraph, bouquet, bowtie_graph, gauge_act, holonomy,
                      is_flat, peripheral_path, punctured_torus_graph,
                      rep_to_connection, spanning_tree, triangle_graph,
                      trivial_connection, wilson_loop)
from .qlattice import (QLink, Tangle, UqWord, W_CHARM, bowtie_qlinks,
                       classical_to_quantum, decorated_words,
                       fundamental_tangle, gauge_act_q, nabla_vertex,
                       nabla_coassociativity_residual, r_matrix,
                       r_matrix_terms, skein_residual, uq_antipode,
                       uq_coproduct, uq_coproduct_n, uq_counit,
                       uq_fundamental, uq_trace, wilson_qlink,
                       yang_baxter_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
