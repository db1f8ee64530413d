"""Undirected multigraphs with stable vertex and edge indices.

Edges are kept as an ordered list of unordered pairs; the position of a
pair in that list is the edge's index, and every transformation here
(vertex merging, one-point union, edge deletion) preserves the indices of
surviving edges so that edge labelings carry over unchanged.  Loops are
never allowed; parallel edges are.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from operator import eq
from typing import Optional


class CertificationError(AssertionError):
    """A construction or certificate failed its own check: a library bug,
    never bad input.  An AssertionError, so existing handlers catch it."""


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable loop-free multigraph on vertices ``0..n-1``.

    ``provenance[v]`` is the set of original vertex identifiers that were
    collapsed into ``v`` (trivial for freshly built graphs).  It exists so
    merged vertices can be displayed with their original subscripts.  It
    is built on first read: a graph stores nothing for the trivial
    provenance, and a derived graph only the function that builds it.
    A tuple of exact-int pairs is checked and kept as it is; any other
    edge sequence is converted pair by pair.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges, provenance=()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _checked_edges(n, edges))
        object.__setattr__(self, "_names", _stored_names(n, provenance))

    @cached_property
    def provenance(self) -> tuple[tuple[str, ...], ...]:
        return _provenance(self.n, self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and self.edges == other.edges
                and self.provenance == other.provenance)

    def __hash__(self):
        return hash((self.n, self.edges, self.provenance))

    def __reduce__(self):
        return Graph, (self.n, self.edges, self.provenance)

    @property
    def q(self) -> int:
        """Number of edges."""
        return len(self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex (parallel edges repeat)."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def adjacency(self) -> tuple[dict[int, int], ...]:
        """Per-vertex map neighbor -> edge multiplicity."""
        adj: list[Counter] = [Counter() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u][v] += 1
            adj[v][u] += 1
        return tuple(dict(c) for c in adj)

    def neighbors(self, v: int) -> set[int]:
        return set(self.adjacency[v])

    def multiplicity(self, u: int, v: int) -> int:
        return self.adjacency[u].get(v, 0)

    def is_simple(self) -> bool:
        return all(m == 1 for adj in self.adjacency for m in adj.values())

    def is_regular(self) -> bool:
        return self.n > 0 and len(set(self.degrees)) == 1

    def is_connected(self) -> bool:
        return self.n == 0 or len(_bfs_order(self, (0,))) == self.n

    def pendant_count(self) -> int:
        return sum(1 for d in self.degrees if d == 1)

    def vertex_name(self, v: int) -> str:
        return "v" + ",".join(self.provenance[v])


def _checked_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """``edges`` as int pairs, none a loop and every end in ``0..n-1``.  A
    tuple of exact-int pairs that passes is returned as it is; any other
    input, or one that fails, takes the per-pair conversion and checks,
    which raise on every failure."""
    if type(edges) is tuple and n >= 0:
        for e in edges:
            if type(e) is not tuple or len(e) != 2:
                break
            u, v = e
            if (type(u) is not int or type(v) is not int or u == v
                    or u < 0 or v < 0 or u >= n or v >= n):
                break
        else:
            return edges
    edges = tuple((int(u), int(v)) for u, v in edges)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    return edges


def _stored_names(n: int, provenance):
    """What a graph keeps of ``provenance``: None for the trivial one, a
    function as it is, else the entries as tuples of strs."""
    if callable(provenance):
        return provenance
    if not provenance or (
            len(provenance) == n and set(map(type, provenance)) <= {list, tuple}
            and set(map(len, provenance)) == {1}
            and all(map(eq, chain.from_iterable(provenance), map(str, range(n))))):
        return None
    return _provenance(n, tuple(tuple(str(x) for x in entry) for entry in provenance))


def _provenance(n: int, names) -> tuple[tuple[str, ...], ...]:
    """The provenance a graph on n vertices keeps as ``names``."""
    prov = tuple((str(v),) for v in range(n)) if names is None else names
    prov = prov if type(prov) is tuple else prov()
    if len(prov) != n:
        raise ValueError("provenance length must equal vertex count")
    return prov


@dataclass(frozen=True)
class CirculantSpec:
    """Connection set for a circulant graph C_m(a_0, ..., a_t).

    Every step must be coprime to the modulus; non-coprime steps (which
    would split into disjoint cycles) are rejected.
    """

    m: int
    steps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(int(a) for a in self.steps))
        if self.m < 3:
            raise ValueError("modulus must be at least 3")
        if not self.steps:
            raise ValueError("at least one step is required")
        if len(set(self.steps)) != len(self.steps):
            raise ValueError("duplicate steps are not allowed")
        if list(self.steps) != sorted(self.steps):
            raise ValueError("steps must be strictly increasing")
        half = (self.m + 1) // 2  # ceil(m/2)
        for a in self.steps:
            if not 1 <= a < half:
                raise ValueError(f"step {a} outside [1, ceil(m/2)) for m={self.m}")
            if math.gcd(a, self.m) != 1:
                raise ValueError(
                    f"unsupported step {a}: gcd({a},{self.m}) > 1 gives disjoint cycles"
                )


@dataclass(frozen=True)
class MergePlan:
    """Partition of the vertices of C_n into merge blocks.

    Blocks of kind 'A' may contain only even indices, kind 'B' only odd
    indices; kind 'C' may mix parities (the special block of odd-order
    transforms).  Whether a block would create a loop is checked against
    the actual graph at merge time.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(v) for v in b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(self.kinds) != len(blocks):
            raise ValueError("one kind per block required")
        covered = [False] * self.n
        for block, kind in zip(blocks, self.kinds):
            if kind not in ("A", "B", "C"):
                raise ValueError(f"unknown block kind {kind!r}")
            if not block:
                raise ValueError("empty block")
            if kind == "A" and any(v % 2 for v in block):
                raise ValueError(f"A-block {block} contains an odd index")
            if kind == "B" and any(v % 2 == 0 for v in block):
                raise ValueError(f"B-block {block} contains an even index")
            if kind == "C" and len(block) > 3:
                raise ValueError("C-blocks have size at most 3")
            for v in block:
                if not 0 <= v < self.n or covered[v]:
                    raise ValueError("blocks must partition the vertex set")
                covered[v] = True
        if not all(covered):
            raise ValueError("blocks must partition the vertex set")


def build_cycle(m: int) -> Graph:
    """Cycle C_m with edge j joining v_j and v_{j+1 mod m}."""
    if m < 3:
        raise ValueError(f"cycle order must be at least 3, got {m}")
    return Graph(m, tuple(zip(range(m), [*range(1, m), 0])))


def gamma_cycle_sequence(m: int, a: int) -> tuple[int, ...]:
    """Vertex sequence (0, a, 2a, ..., (m-1)a) mod m of the step-a cycle."""
    if math.gcd(a % m, m) != 1:
        raise ValueError(f"step {a} is not coprime to {m}")
    return tuple((j * a) % m for j in range(m))


def build_circulant(spec: CirculantSpec) -> Graph:
    """Circulant graph as the union of step cycles, step-by-step edge order.

    All edges of the first step cycle come first (in cycle order starting
    at vertex 0), then the second step's, and so on, so position-defined
    labelings are deterministic.
    """
    edges: list[tuple[int, int]] = []
    for a in spec.steps:
        seq = gamma_cycle_sequence(spec.m, a)
        edges.extend(zip(seq, seq[1:] + seq[:1]))
    return Graph(spec.m, tuple(edges))


def merge_vertices(g: Graph, plan: MergePlan) -> Graph:
    """Collapse each block of the plan into one vertex, keeping all edges.

    The merged vertex takes the rank of the smallest original index among
    all block minima, so the block of vertex 0 becomes vertex 0; edge
    indices are preserved.  A block containing two adjacent vertices would
    create a loop and is rejected.
    """
    if plan.n != g.n:
        raise ValueError(f"plan is for {plan.n} vertices, graph has {g.n}")
    blocks = sorted(plan.blocks)
    rank = [0] * g.n
    for i, block in enumerate(blocks):
        for v in block:
            rank[v] = i
    for u, v in g.edges:
        if rank[u] == rank[v]:
            raise ValueError(
                f"block {blocks[rank[u]]} contains adjacent vertices "
                f"{u} and {v}; merging would create a loop"
            )
    source = partial(_provenance, g.n, g._names)

    def provenance():
        prov = source()
        return tuple(tuple(sorted({p for v in block for p in prov[v]}, key=_prov_key))
                     for block in blocks)

    return Graph(len(blocks), tuple([(rank[u], rank[v]) for u, v in g.edges]), provenance)


def _prov_key(s: str):
    return (0, int(s)) if s.isdigit() else (1, s)


def one_point_union(graphs: list[Graph], attach: list[int]) -> Graph:
    """Identify one chosen vertex of every graph into a single central vertex.

    The central vertex gets index 0; the remaining vertices follow in graph
    order, then vertex order.  Edges are concatenated graph by graph with
    endpoints remapped, so edge indices stay stable per component.
    """
    if not graphs:
        raise ValueError("one-point union of an empty list")
    if len(attach) != len(graphs):
        raise ValueError("one attach vertex per graph required")
    offset = 1
    edges: list[tuple[int, int]] = []
    for idx, (g, a) in enumerate(zip(graphs, attach)):
        if not 0 <= a < g.n:
            raise ValueError(f"attach vertex {a} out of range for graph {idx}")
        vmap = [*range(offset, offset + a), 0, *range(offset + a, offset + g.n - 1)]
        edges += [(vmap[u], vmap[v]) for u, v in g.edges]
        offset += g.n - 1
    sources = [(partial(_provenance, g.n, g._names), a) for g, a in zip(graphs, attach)]

    def provenance():
        central: list[str] = []
        rest: list[tuple[str, ...]] = []
        for idx, (source, a) in enumerate(sources):
            prov = source()
            prefix = "" if len(sources) == 1 else f"c{idx}."
            central.extend(prefix + p for p in prov[a])
            rest.extend(tuple(prefix + p for p in entry) for entry in prov[:a] + prov[a + 1:])
        return (tuple(central), *rest)

    return Graph(offset, tuple(edges), provenance)


def delete_edge(g: Graph, e: int) -> Graph:
    """Remove edge ``e``; the remaining edges keep their relative order."""
    if not 0 <= e < g.q:
        raise ValueError(f"edge index {e} out of range")
    return Graph(g.n, g.edges[:e] + g.edges[e + 1 :], partial(_provenance, g.n, g._names))


def first_coloring(g: Graph, k: int) -> Optional[list[int]]:
    """The lexicographically first proper k-coloring over the vertices
    taken highest degree first, as a color per vertex, or None if there
    is none.  Backtracks on an explicit stack so that long cycles stay
    within the recursion limit."""
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])
    # Depth i colors order[i]: tried[i] is its current color, used[i]
    # the colors in use before it.  Trying at most one fresh color kills
    # color-permutation symmetry and keeps the lexicographically first
    # coloring: swapping two colors unused so far only moves it later.
    color, tried, used = [-1] * g.n, [-1] * g.n, [0] * (g.n + 1)
    i = 0
    while 0 <= i < g.n:
        v = order[i]
        color[v] = -1
        taken = {color[w] for w in g.adjacency[v]}
        fresh = min(used[i] + 1, k)
        c = next((x for x in range(tried[i] + 1, fresh) if x not in taken), -1)
        tried[i] = c
        if c < 0:
            i -= 1
        else:
            color[v] = c
            used[i + 1] = max(used[i], c + 1)
            i += 1
    return color if i == g.n else None


def partite_classes(g: Graph, k: int) -> Optional[list[list[int]]]:
    """A proper k-partition into independent sets, or None if none exists.

    Parallel edges count as a single adjacency.  k=2 runs a two-coloring
    traversal; k=3 takes the first 3-coloring of ``first_coloring``.
    """
    if k == 2:
        color = [-1] * g.n
        for start in range(g.n):
            if color[start] != -1:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in g.adjacency[v]:
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        queue.append(w)
                    elif color[w] == color[v]:
                        return None
    elif k == 3:
        color = first_coloring(g, 3)
        if color is None:
            return None
    else:
        raise ValueError("only k=2 and k=3 are supported")
    return [[v for v in range(g.n) if color[v] == c] for c in range(k)]


def _bfs_order(g: Graph, starts) -> list[int]:
    """The vertices reached from ``starts`` in breadth-first order; each
    start not reached yet opens the next component."""
    order: list[int] = []
    seen = [False] * g.n
    head = 0
    for start in starts:
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        while head < len(order):
            for w in g.adjacency[order[head]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    return order


def _neighbor_degree_signature(g: Graph) -> list[tuple]:
    return [
        (g.degrees[v], tuple(sorted(g.degrees[w] for w in g.adjacency[v])))
        for v in range(g.n)
    ]


def are_isomorphic(g1: Graph, g2: Graph) -> Optional[list[int]]:
    """A vertex bijection carrying g1 onto g2 (multiplicities included), or None.

    Plain backtracking with degree and neighborhood-degree pruning;
    intended for the small instances this library produces.
    """
    if g1.n != g2.n or g1.q != g2.q:
        return None
    if sorted(g1.degrees) != sorted(g2.degrees):
        return None
    sig1 = _neighbor_degree_signature(g1)
    sig2 = _neighbor_degree_signature(g2)
    if sorted(sig1) != sorted(sig2):
        return None

    # BFS order so each vertex (after the first of a component) has a
    # mapped neighbor, which shrinks its candidate set to a neighborhood.
    order = _bfs_order(g1, range(g1.n))

    mapping = [-1] * g1.n
    inverse = [-1] * g2.n
    used = [False] * g2.n

    def compatible(v: int, w: int) -> bool:
        if sig1[v] != sig2[w]:
            return False
        for u, mult in g1.adjacency[v].items():
            mu = mapping[u]
            if mu != -1 and g2.adjacency[w].get(mu, 0) != mult:
                return False
        for x, mult in g2.adjacency[w].items():
            u = inverse[x]
            if u != -1 and g1.adjacency[v].get(u, 0) != mult:
                return False
        return True

    def candidates(v: int) -> list[int]:
        anchored = [mapping[u] for u in g1.adjacency[v] if mapping[u] != -1]
        pool = g2.adjacency[anchored[0]] if anchored else range(g2.n)
        return [w for w in pool if not used[w]][::-1]

    # Backtrack on an explicit stack so that long cycles stay within the
    # recursion limit: pending[i] holds the untried images of order[i],
    # last first, so that pop() tries them in candidate order.
    pending = [candidates(order[0])] if g1.n else []
    while pending:
        v = order[len(pending) - 1]
        w = mapping[v]
        if w != -1:
            mapping[v], inverse[w], used[w] = -1, -1, False
        untried = pending[-1]
        while untried and not compatible(v, untried[-1]):
            untried.pop()
        if not untried:
            pending.pop()
            continue
        w = untried.pop()
        mapping[v], inverse[w], used[w] = w, v, True
        if len(pending) == g1.n:
            break
        pending.append(candidates(order[len(pending)]))
    if len(pending) < g1.n:
        return None
    if not verify_vertex_map(g1, g2, mapping):
        raise CertificationError("isomorphism search returned an invalid mapping")
    return mapping


def verify_vertex_map(g1: Graph, g2: Graph, mapping: list[int]) -> bool:
    """True iff ``mapping`` is a bijection with equal edge multisets."""
    if sorted(mapping) != list(range(g2.n)):
        return False
    mapped = Graph(g2.n, [(mapping[u], mapping[v]) for u, v in g1.edges])
    return sorted_edge_keys(mapped) == sorted_edge_keys(g2)


def sorted_edge_keys(g: Graph) -> list[int]:
    """The edges as the sorted ints min*n + max: two graphs on n vertices
    have equal edge multisets exactly when these lists are equal."""
    n = g.n
    return sorted([u * n + v if u < v else v * n + u for u, v in g.edges])
