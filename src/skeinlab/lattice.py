"""Classical lattice gauge theory on ciliated graphs.

A ciliated graph is an oriented graph together with, at each vertex, a
linear order on the incident edge-ends (equivalently a cilium: a marked
gap in their cyclic order).  Edge-ends are written (eid, 0) for the source
end and (eid, 1) for the target end, so a loop edge contributes two ends
at the same vertex.

A connection assigns an SL(2, C) matrix to each edge.  The gauge group acts
at vertices: for an edge u -> v carrying x, a gauge transformation g sends
x to g(u) x g(v)^-1.  Holonomy along an edge path multiplies matrices in
order, inverting those traversed against orientation, and Wilson loops are
minus the trace of the holonomy, matching the loop sign convention of the
skein algebra.  Flatness means every distinguished face has trivial
holonomy; representation-valued data on a surface graph arises by putting
the identity on a spanning tree and generator images on the leftover edges.
Edge matrices are `characters` entry tuples, so exact entries give exact values.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .characters import IDENTITY, Entries, Rep, entries, product, sl2_inverse, trace

EdgeEnd = tuple[int, int]          # (edge id, 0 = source end / 1 = target end)
Step = tuple[int, int]             # (edge id, +1 forward / -1 against)
Connection = Mapping[int, Entries]  # or any matrix that `characters.entries` reads


class CiliatedGraph:
    """Oriented graph with a cilial order on the edge-ends at each vertex."""

    def __init__(self,
                 vertices: Iterable[object],
                 edges: Mapping[int, tuple[object, object]],
                 ciliation: Mapping[object, Sequence[EdgeEnd]],
                 faces: Sequence[Sequence[Step]] = ()):
        self.vertices = list(vertices)
        self.edges = {int(e): (u, v) for e, (u, v) in dict(edges).items()}
        self.ciliation = {v: [(int(e), int(end)) for e, end in ends]
                          for v, ends in dict(ciliation).items()}
        self.faces = [list((int(e), int(d)) for e, d in face) for face in faces]
        self._validate()

    def _validate(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        # each edge-end's index in the cilial order at its vertex
        self._position: dict[EdgeEnd, int] = {}
        for v, ends in self.ciliation.items():
            if v not in vset:
                raise ValueError(f"ciliation at unknown vertex {v!r}")
            for i, (e, end) in enumerate(ends):
                if e not in self.edges or end not in (0, 1):
                    raise ValueError(f"bad edge-end ({e}, {end})")
                if self.edges[e][end] != v:
                    raise ValueError(f"edge-end ({e}, {end}) listed at wrong vertex {v!r}")
                if (e, end) in self._position:
                    raise ValueError(f"edge-end ({e}, {end}) listed twice")
                self._position[e, end] = i
        if len(self._position) != 2 * len(self.edges):
            raise ValueError("ciliation must list every edge-end exactly once")
        for face in self.faces:
            self._check_path(face, closed=True)

    def _check_path(self, path: Sequence[Step], closed: bool) -> object:
        if not path:
            raise ValueError("empty path")
        here = None
        for e, d in path:
            if e not in self.edges or d not in (1, -1):
                raise ValueError(f"bad step ({e}, {d})")
            u, v = self.edges[e]
            start, stop = (u, v) if d == 1 else (v, u)
            if here is not None and start != here:
                raise ValueError(f"path breaks at edge {e}: {here!r} != {start!r}")
            if here is None:
                first = start
            here = stop
        if closed and here != first:
            raise ValueError("path is not closed")
        return first

    def end_vertex(self, end: EdgeEnd) -> object:
        return self.edges[end[0]][end[1]]

    def cilial_position(self, vertex: object, end: EdgeEnd) -> int:
        i = self._position.get(end)
        if i is None or self.edges[end[0]][end[1]] != vertex:
            raise ValueError(f"edge-end {end} is not at vertex {vertex!r}")
        return i


def _edge(conn: Connection, e: int) -> Entries:
    try:
        m = conn[e]
    except KeyError:
        raise KeyError(f"edge {e} missing from connection") from None
    return entries(m)


def holonomy(graph: CiliatedGraph, conn: Connection, path: Sequence[Step]) -> Entries:
    """Ordered product of edge matrices along a path, x1 * x2^(+/-1) * ...."""
    graph._check_path(path, closed=False)
    return product([_edge(conn, e) if d == 1 else sl2_inverse(_edge(conn, e))
                    for e, d in path])


def wilson_loop(graph: CiliatedGraph, conn: Connection, loop: Sequence[Step]):
    """Minus the trace of the holonomy around a closed path."""
    graph._check_path(loop, closed=True)
    return -trace(holonomy(graph, conn, loop))


def gauge_act(graph: CiliatedGraph, g: Mapping[object, Entries],
              conn: Connection) -> dict[int, Entries]:
    """Gauge transformation: an edge u -> v carrying x gets g(u) x g(v)^-1."""
    return {e: product((entries(g.get(u, IDENTITY)), _edge(conn, e),
                        sl2_inverse(entries(g.get(v, IDENTITY)))))
            for e, (u, v) in graph.edges.items()}


def is_flat(graph: CiliatedGraph, conn: Connection, tol: float = 1e-9) -> bool:
    """True when every distinguished face holonomy is the identity (within tol).

    A graph with no distinguished faces imposes no conditions, matching the
    fact that on a punctured surface every connection on a spine is flat.
    """
    return all(max(abs(x - y) for x, y in zip(holonomy(graph, conn, face), IDENTITY)) <= tol
               for face in graph.faces)


def spanning_tree(graph: CiliatedGraph) -> set[int]:
    """Edge ids of a breadth-first spanning forest."""
    adj: dict[object, list[tuple[object, int]]] = {v: [] for v in graph.vertices}
    for e, (u, v) in graph.edges.items():
        adj[u].append((v, e))
        adj[v].append((u, e))
    seen: set[object] = set()
    tree: set[int] = set()
    for root in graph.vertices:
        queue = [] if root in seen else [root]
        seen.add(root)
        for u in queue:                 # the queue grows as it is read: breadth first
            for v, e in adj[u]:
                if v not in seen:
                    seen.add(v)
                    tree.add(e)
                    queue.append(v)
    return tree


def rep_to_connection(graph: CiliatedGraph, images: Connection,
                      tree: set[int] | None = None) -> dict[int, Entries]:
    """Connection with identity on a spanning tree and given holonomy images
    on the remaining edges (one fundamental-group generator per such edge)."""
    if tree is None:
        tree = spanning_tree(graph)
    return {e: IDENTITY if e in tree else _edge(images, e) for e in graph.edges}


def trivial_connection(graph: CiliatedGraph) -> dict[int, Entries]:
    return {e: IDENTITY for e in graph.edges}


# ----------------------------------------------------------------------
# standard graphs used throughout the tests and the quantum theory


def bouquet(k: int) -> CiliatedGraph:
    """One vertex, k loop edges; the surface graph of a free group F_k.

    Each loop's two ends are adjacent in the cilial order, so the ribbon
    surface is planar with k + 1 boundary cycles: for k = 2 a pair of pants,
    not the punctured torus (see `punctured_torus_graph`).
    """
    edges = {i: ("v", "v") for i in range(1, k + 1)}
    cil = [(i, end) for i in range(1, k + 1) for end in (0, 1)]
    return CiliatedGraph(["v"], edges, {"v": cil})


def punctured_torus_graph() -> CiliatedGraph:
    """Loops a = edge 1 and b = edge 2 at one vertex, their ends interleaved.

    With the cilial order (1,0), (2,0), (1,1), (2,1) the ribbon surface is
    the one-holed torus: its single boundary cycle is `peripheral_path`, the
    puncture, so no face is distinguished and the commutator holonomy is
    unconstrained.
    """
    return CiliatedGraph(["v"], {1: ("v", "v"), 2: ("v", "v")},
                         {"v": [(1, 0), (2, 0), (1, 1), (2, 1)]})


def peripheral_path() -> list[Step]:
    """Boundary loop a b a^-1 b^-1 of `punctured_torus_graph`, the puncture."""
    return [(1, 1), (2, 1), (1, -1), (2, -1)]


def rep_connection_on_bouquet(rep: Rep, names: Sequence[str] = ("a", "b")) -> dict[int, Entries]:
    """Connection on bouquet(len(names)) whose loop holonomies realize rep."""
    return {i + 1: entries(rep[name]) for i, name in enumerate(names)}


def triangle_graph() -> CiliatedGraph:
    """Three vertices in a directed 3-cycle bounding one face.

    The ciliation is arranged so that walking the cycle e1 e2 e3 crosses
    exactly one cilium (at the closing vertex v1 the incoming end of e3
    sits after the outgoing end of e1 in the cilial order).
    """
    edges = {1: ("v1", "v2"), 2: ("v2", "v3"), 3: ("v3", "v1")}
    cil = {
        "v1": [(1, 0), (3, 1)],
        "v2": [(1, 1), (2, 0)],
        "v3": [(2, 1), (3, 0)],
    }
    return CiliatedGraph(["v1", "v2", "v3"], edges, cil, faces=[[(1, 1), (2, 1), (3, 1)]])


def bowtie_graph() -> CiliatedGraph:
    """Two triangles sharing the vertex v3, where their boundary loops cross.

    The right triangle is v3 -e1-> v1 -e2-> v2 -e3-> v3 and the left one is
    v3 -e4-> v4 <-e5- v5 -e6-> v3 (note e5 points v5 -> v4).  The cilial
    order at v3 interleaves the two triangles, so a loop traversing all six
    edges crosses itself transversally at v3.
    """
    edges = {
        1: ("v3", "v1"), 2: ("v1", "v2"), 3: ("v2", "v3"),
        4: ("v3", "v4"), 5: ("v5", "v4"), 6: ("v5", "v3"),
    }
    cil = {
        "v3": [(3, 1), (1, 0), (4, 0), (6, 1)],
        "v1": [(1, 1), (2, 0)],
        "v2": [(2, 1), (3, 0)],
        "v4": [(5, 1), (4, 1)],
        "v5": [(6, 0), (5, 0)],
    }
    faces = [[(1, 1), (2, 1), (3, 1)], [(4, 1), (5, -1), (6, 1)]]
    return CiliatedGraph(["v1", "v2", "v3", "v4", "v5"], edges, cil, faces)
