"""Directed graphs encoding drift sparsity.

An edge (src, dst) means coordinate dst feels coordinate src, i.e. the drift
matrix entry M[dst, src] may be nonzero. Self-loops (i, i) allow diagonal
entries. Nodes are 0-based in code and 1-based in JSON / CLI edge lists.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectedGraph",
    "GraphCycleError",
    "sparsity_project",
    "connected_components",
    "spanning_polytree",
    "topological_order",
]


class GraphCycleError(ValueError):
    """Raised when an operation needs an acyclic non-loop part and finds a cycle."""


_EDGE_RE = re.compile(r"^\s*(\d+)\s*->\s*(\d+)\s*$")


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on nodes 0..d-1 with edges as (src, dst) pairs."""

    d: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, d: int, edges):
        d = int(d)
        if d < 1:
            raise ValueError(f"a graph needs at least one node, got d={d}")
        object.__setattr__(self, "d", d)
        es = frozenset((int(a), int(b)) for a, b in edges)
        for a, b in es:
            if not (0 <= a < d and 0 <= b < d):
                raise ValueError(f"edge ({a}, {b}) out of range for d={d}")
        object.__setattr__(self, "edges", es)

    @classmethod
    def complete(cls, d: int) -> "DirectedGraph":
        return cls(d, [(a, b) for a in range(d) for b in range(d)])

    @classmethod
    def from_json(cls, text: str) -> "DirectedGraph":
        """Parse {"d": int, "edges": [[a, b], ...]} with 1-based nodes."""
        obj = json.loads(text)

        def is_int(value) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        if not (
            isinstance(obj, dict)
            and is_int(obj.get("d"))
            and isinstance(obj.get("edges"), list)
            and all(
                isinstance(e, list) and len(e) == 2 and all(map(is_int, e))
                for e in obj["edges"]
            )
        ):
            raise ValueError('graph JSON must be {"d": int, "edges": [[a, b], ...]}')
        return cls(obj["d"], [(a - 1, b - 1) for a, b in obj["edges"]])

    @classmethod
    def from_edge_list(cls, d: int, specs) -> "DirectedGraph":
        """Parse 1-based 'a->b' strings (e.g. from a CLI)."""
        edges = []
        for spec in specs:
            m = _EDGE_RE.match(spec)
            if not m:
                raise ValueError(f"cannot parse edge {spec!r}; expected 'a->b'")
            edges.append((int(m.group(1)) - 1, int(m.group(2)) - 1))
        return cls(d, edges)

    # -- structure queries -------------------------------------------------

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self.edges

    def self_loop_nodes(self) -> list[int]:
        return sorted(i for i in range(self.d) if (i, i) in self.edges)

    def has_all_self_loops(self) -> bool:
        return len(self.self_loop_nodes()) == self.d

    def non_loop_edges(self) -> list[tuple[int, int]]:
        return sorted(e for e in self.edges if e[0] != e[1])

    def drift_mask(self) -> np.ndarray:
        """Boolean d x d mask: mask[dst, src] True where M may be nonzero."""
        mask = np.zeros((self.d, self.d), dtype=bool)
        for src, dst in self.edges:
            mask[dst, src] = True
        return mask

    def __repr__(self) -> str:
        return f"DirectedGraph(d={self.d}, edges={sorted(self.edges)})"


def sparsity_project(M: np.ndarray, graph: DirectedGraph) -> np.ndarray:
    """Zero all drift entries the graph does not allow."""
    M = np.asarray(M, dtype=float)
    if M.shape != (graph.d, graph.d):
        raise ValueError(f"drift shape {M.shape} does not match d={graph.d}")
    return np.where(graph.drift_mask(), M, 0.0)


def connected_components(graph: DirectedGraph) -> list[list[int]]:
    """Weakly connected components, each as a sorted node list.

    Self-loops never join anything; edge direction is ignored.
    """
    parent = list(range(graph.d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for node in range(graph.d):
        groups.setdefault(find(node), []).append(node)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def spanning_polytree(graph: DirectedGraph) -> DirectedGraph:
    """A spanning tree of the undirected skeleton, keeping edge orientations.

    Requires a weakly connected graph. BFS from node 0 with sorted neighbor
    visits makes the result deterministic; when both orientations of a skeleton
    edge exist, the one leaving the already-discovered node is kept. Self-loops
    of the input are carried over unchanged.
    """
    if len(connected_components(graph)) != 1:
        raise ValueError("graph is not weakly connected")
    undirected: dict[int, set[int]] = {i: set() for i in range(graph.d)}
    for a, b in graph.non_loop_edges():
        undirected[a].add(b)
        undirected[b].add(a)
    tree_edges: list[tuple[int, int]] = []
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop(0)
        for nb in sorted(undirected[node]):
            if nb in seen:
                continue
            seen.add(nb)
            frontier.append(nb)
            tree_edges.append((node, nb) if graph.has_edge(node, nb) else (nb, node))
    loops = [(i, i) for i in graph.self_loop_nodes()]
    return DirectedGraph(graph.d, tree_edges + loops)


def topological_order(graph: DirectedGraph) -> list[int]:
    """Topological order of the non-loop part (Kahn), lowest label first on ties."""
    indeg = [0] * graph.d
    out: dict[int, list[int]] = {i: [] for i in range(graph.d)}
    for a, b in graph.non_loop_edges():
        out[a].append(b)
        indeg[b] += 1
    ready = sorted(i for i in range(graph.d) if indeg[i] == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for b in sorted(out[node]):
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
        ready.sort()
    if len(order) != graph.d:
        raise GraphCycleError("non-loop part of the graph contains a directed cycle")
    return order
