"""JSON serialization for diagrams, representations, graphs, and q-links.

All serializers are deterministic (sorted keys, canonical orientation data)
and round-trip through the corresponding parsers.  Complex numbers are
encoded as [re, im] pairs; plain numbers are accepted on input.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from .diagram import Crossing, LinkDiagram, parse_braid
from .lattice import CiliatedGraph
from .qlattice import QLink, UqWord


def _object(value, what: str) -> dict:
    """value, or a ValueError if it is not a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _load(obj: dict | str, what: str) -> dict:
    return _object(json.loads(obj) if isinstance(obj, str) else obj, what)


# ----------------------------------------------------------------------
# link diagrams


def diagram_to_json(d: LinkDiagram) -> dict:
    """Schema {"crossings": [[a,b,c,d], ...], "over": [[a,c], ...], "free_loops": n}.

    Each crossing's four arc labels are listed counterclockwise, rotated so
    that the over-strand occupies the second and fourth slots; the "over"
    entry repeats that over-strand pair for readability and validation.
    """
    crossings = []
    over = []
    for cid in d.crossing_ids():
        x = d.crossing(cid)
        ends = x.ends
        if x.over_first == 0:
            ends = (ends[3], ends[0], ends[1], ends[2])
        crossings.append(list(ends))
        over.append([ends[1], ends[3]])
    return {"crossings": crossings, "over": over, "free_loops": d.free_loops}


def diagram_from_json(obj: dict | str) -> LinkDiagram:
    obj = _load(obj, "a diagram")
    if "word" in obj:
        return parse_braid(obj["word"], int(obj["strands"]))
    crossings = obj.get("crossings", [])
    over = obj.get("over")
    if over is not None and len(over) != len(crossings):
        raise ValueError(f'"over" lists {len(over)} pairs for {len(crossings)} crossings')
    table = {}
    for i, ends in enumerate(crossings):
        ends = tuple(int(a) for a in ends)
        if len(ends) != 4:
            raise ValueError(f"crossing {i} must list four arc labels")
        if over is None:
            of = 1
        else:
            pair = tuple(int(a) for a in over[i])
            if pair in ((ends[1], ends[3]), (ends[3], ends[1])):
                of = 1
            elif pair in ((ends[0], ends[2]), (ends[2], ends[0])):
                of = 0
            else:
                raise ValueError(f"over pair {pair} matches no diagonal of crossing {i}")
        table[i] = Crossing(ends, of)
    return LinkDiagram(table, int(obj.get("free_loops", 0)))


# ----------------------------------------------------------------------
# complex scalars and matrices


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, str):
        return complex(v.replace(" ", ""))
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"cannot read complex value from {v!r}")


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex_from_json(v) for v in row] for row in rows],
                    dtype=complex)


def rep_to_json(rep: Mapping[str, np.ndarray]) -> dict:
    return {name: matrix_to_json(m) for name, m in sorted(rep.items())}


def rep_from_json(obj: dict | str) -> dict[str, np.ndarray]:
    obj = _load(obj, "a representation")
    return {str(name): matrix_from_json(rows) for name, rows in obj.items()}


# ----------------------------------------------------------------------
# ciliated graphs and connections


def graph_to_json(g: CiliatedGraph) -> dict:
    return {
        "vertices": [str(v) for v in g.vertices],
        "edges": {str(e): [str(u), str(v)] for e, (u, v) in sorted(g.edges.items())},
        "ciliation": {str(v): [[e, end] for e, end in ends]
                      for v, ends in sorted(g.ciliation.items(), key=lambda kv: str(kv[0]))},
        "faces": [[[e, d] for e, d in face] for face in g.faces],
    }


def graph_from_json(obj: dict | str) -> CiliatedGraph:
    obj = _load(obj, "a graph")
    vertices = [str(v) for v in obj["vertices"]]
    edges = {int(e): (str(u), str(v))
             for e, (u, v) in _object(obj["edges"], '"edges"').items()}
    cil = {str(v): [(int(e), int(end)) for e, end in ends]
           for v, ends in _object(obj["ciliation"], '"ciliation"').items()}
    faces = [[(int(e), int(d)) for e, d in face] for face in obj.get("faces", [])]
    return CiliatedGraph(vertices, edges, cil, faces)


def connection_to_json(conn: Mapping[int, np.ndarray]) -> dict:
    return {str(e): matrix_to_json(m) for e, m in sorted(conn.items())}


def connection_from_json(obj: dict | str) -> dict[int, np.ndarray]:
    obj = _load(obj, "a connection")
    return {int(e): matrix_from_json(rows) for e, rows in obj.items()}


# ----------------------------------------------------------------------
# q-links and quantum connections


def qlink_to_json(q: QLink) -> dict:
    return {
        "loops": [[[e, d] for e, d in loop] for loop in q.loops],
        "crossings": [{"at": str(v), "sign": sign} for v, sign in q.crossings],
    }


def qlink_from_json(obj: dict | str) -> QLink:
    obj = _load(obj, "a q-link")
    loops = [[(int(e), int(d)) for e, d in loop] for loop in obj["loops"]]
    crossings = [(str(c["at"]), str(c["sign"])) for c in obj.get("crossings", [])]
    return QLink(loops, crossings)


def qconnection_to_json(conn: Mapping[int, UqWord]) -> dict:
    return {
        str(e): [{"coeff": complex_to_json(c), "word": list(word)}
                 for word, c in w.items()]
        for e, w in sorted(conn.items())
    }


def qconnection_from_json(obj: dict | str) -> dict[int, UqWord]:
    obj = _load(obj, "a quantum connection")
    out = {}
    for e, terms in obj.items():
        w = UqWord.zero()
        for term in terms:
            w = w + UqWord.from_word(term["word"], complex_from_json(term["coeff"]))
        out[int(e)] = w
    return out
