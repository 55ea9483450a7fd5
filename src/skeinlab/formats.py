"""JSON serialization for diagrams, representations, graphs, and q-links.

All serializers are deterministic (sorted keys, canonical orientation data)
and round-trip through the corresponding parsers.  Complex numbers are
encoded as [re, im] pairs; plain numbers are accepted on input, and must be
finite.  The matrices of connections and representations must be in SL(2).
"""

from __future__ import annotations

import cmath
import json
from typing import TYPE_CHECKING, Mapping

from .diagram import Crossing, LinkDiagram, parse_braid

if TYPE_CHECKING:        # imported where used, so that diagrams load no numpy
    import numpy as np

    from .lattice import CiliatedGraph
    from .qlattice import QLink, UqWord


def _object(value, what: str) -> dict:
    """value, or a ValueError if it is not a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _load(obj: dict | str, what: str) -> dict:
    return _object(json.loads(obj) if isinstance(obj, str) else obj, what)


def _int(value, what: str) -> int:
    """An integer field: an integer, an integral float or integer text (object
    keys are text).  A bool and a non-integral or non-finite float are refused."""
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be an integer, not {value!r}")


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
        word, strands = obj["word"], obj.get("strands")
        if not isinstance(word, list) or not all(type(s) is int for s in word):
            raise ValueError('"word" must be a list of integer braid letters')
        if type(strands) is not int:
            raise ValueError('"strands" must be an integer')
        return parse_braid(word, strands)
    crossings = obj.get("crossings", [])
    over = obj.get("over")
    if over is not None and len(over) != len(crossings):
        raise ValueError(f'"over" lists {len(over)} pairs for {len(crossings)} crossings')
    table = {}
    for i, ends in enumerate(crossings):
        ends = tuple(_int(a, f"crossing {i}'s arc label") for a in ends)
        if len(ends) != 4:
            raise ValueError(f"crossing {i} must list four arc labels")
        if over is None:
            of = 1
        else:
            pair = tuple(_int(a, f"over pair {i}'s arc label") for a in over[i])
            if pair in ((ends[1], ends[3]), (ends[3], ends[1])):
                of = 1
            elif pair in ((ends[0], ends[2]), (ends[2], ends[0])):
                of = 0
            else:
                raise ValueError(f"over pair {pair} matches no diagonal of crossing {i}")
        table[i] = Crossing(ends, of)
    return LinkDiagram(table, _int(obj.get("free_loops", 0), '"free_loops"'))


# ----------------------------------------------------------------------
# complex scalars and matrices


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    """A number, complex text or an [re, im] pair as a finite complex number.

    A value that is not finite as a float, such as 1e400 (which JSON reads
    as inf) or an integer of 400 digits, is refused with a `ValueError`, and
    so is a bool (JSON `true`), alone or in a pair."""
    try:
        if isinstance(v, bool) or isinstance(v, (list, tuple)) and bool in map(type, v):
            raise ValueError(f"a complex value must be a number, not {v!r}")
        if isinstance(v, (int, float)):
            z = complex(v)
        elif isinstance(v, str):
            z = complex(v.replace(" ", ""))
        elif isinstance(v, (list, tuple)) and len(v) == 2:
            z = complex(float(v[0]), float(v[1]))
        else:
            raise ValueError(f"cannot read complex value from {v!r}")
    except OverflowError:       # an integer too large for a float
        z = complex("inf")
    if not cmath.isfinite(z):
        raise ValueError(f"a complex value must be finite, not {v!r}")
    return z


def matrix_to_json(m: np.ndarray) -> list:
    import numpy as np
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def matrix_from_json(rows) -> np.ndarray:
    """A 2x2 complex matrix from two rows of two entries."""
    import numpy as np
    m = np.array([[complex_from_json(v) for v in row] for row in rows], dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"a matrix must be 2x2, not of shape {m.shape}")
    return m


def _sl2_from_json(rows, what: str) -> np.ndarray:
    """`matrix_from_json`, refused unless the determinant is 1: exactly when
    the four entries are JSON integers, else within 1e-9 * max(1, |m00 m11|,
    |m01 m10|), which float entries written from SL(2) products pass."""
    m = matrix_from_json(rows)
    if all(type(v) is int for row in rows for v in row):
        (a, b), (c, d) = rows
        det = a * d - b * c
    else:
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det - 1) <= 1e-9 * max(1, abs(m[0, 0] * m[1, 1]), abs(m[0, 1] * m[1, 0])):
            det = 1
    if det != 1:
        raise ValueError(f"{what} must have determinant 1, not {det}")
    return m


def rep_to_json(rep: Mapping[str, np.ndarray]) -> dict:
    return {name: matrix_to_json(m) for name, m in sorted(rep.items())}


def rep_from_json(obj: dict | str) -> dict[str, np.ndarray]:
    obj = _load(obj, "a representation")
    return {str(name): _sl2_from_json(rows, f"generator {name!r}") for name, rows in obj.items()}


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
    from .lattice import CiliatedGraph
    obj = _load(obj, "a graph")
    vertices = [str(v) for v in obj["vertices"]]
    edges = {_int(e, "an edge id"): (str(u), str(v))
             for e, (u, v) in _object(obj["edges"], '"edges"').items()}
    cil = {str(v): [(_int(e, "a ciliation edge id"), _int(end, "a ciliation end"))
                    for e, end in ends]
           for v, ends in _object(obj["ciliation"], '"ciliation"').items()}
    faces = [[(_int(e, "a face edge id"), _int(d, "a face direction")) for e, d in face]
             for face in obj.get("faces", [])]
    return CiliatedGraph(vertices, edges, cil, faces)


def connection_to_json(conn: Mapping[int, np.ndarray]) -> dict:
    return {str(e): matrix_to_json(m) for e, m in sorted(conn.items())}


def connection_from_json(obj: dict | str) -> dict[int, np.ndarray]:
    obj = _load(obj, "a connection")
    return {_int(e, "a connection edge id"): _sl2_from_json(rows, f"edge {e}'s matrix")
            for e, rows in obj.items()}


# ----------------------------------------------------------------------
# q-links and quantum connections


def qlink_to_json(q: QLink) -> dict:
    return {
        "loops": [[[e, d] for e, d in loop] for loop in q.loops],
        "crossings": [{"at": str(v), "sign": sign} for v, sign in q.crossings],
    }


def qlink_from_json(obj: dict | str) -> QLink:
    from .qlattice import QLink
    obj = _load(obj, "a q-link")
    loops = [[(_int(e, "a q-link edge id"), _int(d, "a q-link direction")) for e, d in loop]
             for loop in obj["loops"]]
    crossings = [(str(c["at"]), str(c["sign"])) for c in obj.get("crossings", [])]
    return QLink(loops, crossings)


def qconnection_to_json(conn: Mapping[int, UqWord]) -> dict:
    return {
        str(e): [{"coeff": complex_to_json(c), "word": list(word)}
                 for word, c in w.items()]
        for e, w in sorted(conn.items())
    }


def qconnection_from_json(obj: dict | str) -> dict[int, UqWord]:
    from .qlattice import UqWord
    obj = _load(obj, "a quantum connection")
    out = {}
    for e, terms in obj.items():
        w = UqWord.zero()
        for term in terms:
            w = w + UqWord.from_word(term["word"], complex_from_json(term["coeff"]))
        out[_int(e, "a quantum connection edge id")] = w
    return out
