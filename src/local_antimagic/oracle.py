"""Exact minimum color count: bounds first, then exhaustive labeling search.

Intended for cross-checking the constructive labelings on small graphs.
``exact_chi_la`` checks a hard edge budget first (raise it explicitly, or
via the ANTIMAGIC_BUDGET_EDGES environment variable, when you mean it),
then the lower bounds, then a construction's upper bound (the cycle
labeling, or the paper's result (ii) on even-order circulants), and
searches only where the bounds do not meet; ``nodes`` is 0 where they
do.  The search assigns labels edge by edge in a vertex-clustering order,
prunes on adjacent completed-sum ties, and bounds by the number of
distinct sums already frozen.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .circulants import c_labeling, c_labeling_sums, circulant_colors, circulant_labeling
from .graphs import CirculantSpec, Graph, are_isomorphic, build_circulant, first_coloring
from .labelings import EdgeLabeling, certify, check_two_color_necessary


DEFAULT_MAX_EDGES = 10
BUDGET_ENV = "ANTIMAGIC_BUDGET_EDGES"


class BudgetExceeded(RuntimeError):
    """A budget was hit after ``nodes`` search nodes, over every k tried."""

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


def _default_max_edges() -> int:
    raw = os.environ.get(BUDGET_ENV)
    return int(raw) if raw else DEFAULT_MAX_EDGES


@dataclass
class SearchBudget:
    max_edges: int = field(default_factory=_default_max_edges)
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None


@dataclass(frozen=True)
class Bounds:
    """Why χ_la lies where it does: the proven lower bound and the upper
    bound that met it, each with its source."""

    lower: int
    lower_source: str  # "chromatic number" or "two-sum conditions"
    upper: int
    upper_source: str  # "search witness" or the construction, e.g. "cycle labeling C_5"


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: EdgeLabeling
    nodes: int
    seconds: float
    bounds: Bounds


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least k with a proper k-coloring."""
    if g.n == 0:
        return 0
    if g.q == 0:
        return 1
    for k in range(2, g.n):
        if first_coloring(g, k) is not None:
            return k
    return g.n


def _two_sums_refuted(g: Graph) -> bool:
    """Whether the paper's necessary conditions rule out at most two sums.
    Sound only on connected graphs, whose bipartition is unique."""
    return (
        g.q >= 1
        and g.is_connected()
        and not check_two_color_necessary(g).two_colors_possible
    )


def _construction(g: Graph) -> Optional[tuple[EdgeLabeling, str]]:
    """The library's 3-sum labeling of g and its source, when g is a cycle
    or an even-order circulant C_n(1, S) with odd steps; else None.

    The construction is matched by isomorphism and its labels are carried
    through the vertex map onto g's edges, then certified.  Step 1 loses
    no generality: multiplying by the inverse of any step maps a circulant
    onto an isomorphic one that has step 1.
    """
    n = g.n
    if n < 3 or not (g.is_regular() and g.is_simple() and g.is_connected()):
        return None
    d = g.degrees[0]
    if d == 2:
        choices = [()]
    elif n % 2 == 0 and d % 2 == 0:
        odd = [a for a in range(3, n // 2, 2) if math.gcd(a, n) == 1]
        choices = combinations(odd, d // 2 - 1)
    else:
        return None
    for rest in choices:
        spec = CirculantSpec(n, (1, *rest))
        built = build_circulant(spec)  # C_n(1) is build_cycle(n), edge for edge
        mapping = are_isomorphic(built, g)
        if mapping is not None:
            break
    else:
        return None
    if d == 2:
        labeling, sums = c_labeling(n), frozenset(c_labeling_sums(n))
        source = f"cycle labeling C_{n}"
    else:
        labeling, sums = circulant_labeling(spec)[1], circulant_colors(n // 2, len(rest))
        source = f"circulant labeling C_{n}{spec.steps}"
    position = {(min(u, v), max(u, v)): i for i, (u, v) in enumerate(g.edges)}
    labels = [0] * g.q
    for (u, v), x in zip(built.edges, labeling.labels):
        a, b = mapping[u], mapping[v]
        labels[position[min(a, b), max(a, b)]] = x
    carried = EdgeLabeling(tuple(labels))
    certify(f"{source} carried onto the input", g, carried, sums)
    return carried, source


def _edge_order(g: Graph) -> list[int]:
    """Order edges so each vertex's incident edges appear close together,
    which completes vertex sums early and sharpens pruning."""
    seen_edge = [False] * g.q
    seen_vertex = [False] * g.n
    order: list[int] = []
    for start in sorted(range(g.n), key=lambda v: -g.degrees[v]):
        if seen_vertex[start]:
            continue
        stack = [start]
        while stack:
            v = stack.pop()
            if seen_vertex[v]:
                continue
            seen_vertex[v] = True
            for i in g.incident[v]:
                if not seen_edge[i]:
                    seen_edge[i] = True
                    order.append(i)
                    u, w = g.edges[i]
                    stack.append(w if u == v else u)
    return order


class _Search:
    def __init__(self, g: Graph, budget: SearchBudget):
        if g.q > budget.max_edges:
            raise BudgetExceeded(
                f"{g.q} edges exceeds the search budget of {budget.max_edges}; "
                f"raise SearchBudget.max_edges or {BUDGET_ENV} to override"
            )
        self.g = g
        self.budget = budget
        self.order = _edge_order(g)
        self.nodes = 0

    def run(self, max_colors: int) -> Optional[list[int]]:
        """First labeling found with at most max_colors distinct sums.  The
        node and time limits apply to each run; ``self.nodes`` adds up the
        nodes of every run."""
        g = self.g
        self.sums = [0] * g.n
        self.remaining = list(g.degrees)
        self.labels = [0] * g.q
        self.free = [True] * (g.q + 1)
        self.run_nodes = 0
        self.start = time.perf_counter()
        # Sums of completed vertices, with multiplicity, for the bound.
        self.frozen = {0: g.degrees.count(0)} if 0 in g.degrees else {}
        return self._extend(0, max_colors)

    def _tick(self):
        self.nodes += 1
        self.run_nodes += 1
        b = self.budget
        if b.node_limit is not None and self.run_nodes > b.node_limit:
            raise BudgetExceeded(f"node limit {b.node_limit} exceeded", self.nodes)
        if (
            b.time_limit is not None
            and self.run_nodes % 1024 == 0
            and time.perf_counter() - self.start > b.time_limit
        ):
            raise BudgetExceeded(f"time limit {b.time_limit}s exceeded", self.nodes)

    def _extend(self, i: int, max_colors: int) -> Optional[list[int]]:
        g = self.g
        if i == g.q:
            return list(self.labels)
        e = self.order[i]
        u, v = g.edges[e]
        q = g.q
        # The complement q+1-f of a labeling of a regular graph induces the
        # mirrored sums, so on regular graphs the first label can be
        # restricted to the lower half.
        top = (q + 1) // 2 if i == 0 and g.is_regular() else q
        for label in range(1, top + 1):
            if not self.free[label]:
                continue
            self._tick()
            self.labels[e] = label
            self.free[label] = False
            self.sums[u] += label
            self.sums[v] += label
            self.remaining[u] -= 1
            self.remaining[v] -= 1
            if self._consistent(u, v, max_colors):
                found = self._extend(i + 1, max_colors)
                if found is not None:
                    self._undo(e, label, u, v)
                    return found
            self._undo(e, label, u, v)
        return None

    def _undo(self, e: int, label: int, u: int, v: int):
        for w in (u, v):
            if self.remaining[w] == 0:
                count = self.frozen[self.sums[w]]
                if count == 1:
                    del self.frozen[self.sums[w]]
                else:
                    self.frozen[self.sums[w]] = count - 1
        self.labels[e] = 0
        self.free[label] = True
        self.sums[u] -= label
        self.sums[v] -= label
        self.remaining[u] += 1
        self.remaining[v] += 1

    def _consistent(self, u: int, v: int, max_colors: int) -> bool:
        ok = True
        for w in (u, v):
            if self.remaining[w] == 0:
                s = self.sums[w]
                for x in self.g.adjacency[w]:
                    if self.remaining[x] == 0 and self.sums[x] == s:
                        ok = False
                self.frozen[s] = self.frozen.get(s, 0) + 1
        return ok and len(self.frozen) <= max_colors


def feasible_with_colors(
    g: Graph, k: int, budget: Optional[SearchBudget] = None
) -> Optional[EdgeLabeling]:
    """A local antimagic labeling of g with at most k distinct sums, or
    None after an exhaustive search finds none.  Neither answer needs a
    search when the bounds settle it: None for k <= 2 on a connected graph
    that fails the two-sum conditions, and for k >= 3 on a cycle or an
    even-order circulant with odd steps, the library's certified 3-sum
    labeling."""
    search = _Search(g, budget or SearchBudget())
    if k <= 2 and _two_sums_refuted(g):
        return None
    built = _construction(g) if k >= 3 else None
    if built is not None:
        return built[0]
    found = search.run(k)
    return EdgeLabeling(tuple(found)) if found is not None else None


def exact_chi_la(g: Graph, budget: Optional[SearchBudget] = None) -> OracleResult:
    """Exact minimum number of induced sums over all local antimagic
    labelings, with a witness labeling and the bounds that settle it.

    The edge budget is checked before any work.  The lower bound is the
    larger of two: the chromatic number, since adjacent vertices need
    distinct sums (χ ≤ χ_la, Arumugam et al. 2017), and 3 on a connected
    graph that fails the two-sum conditions of
    ``check_two_color_necessary``.  When it is 3 and the graph is a cycle
    or an even-order circulant with odd steps, the library's certified
    3-sum labeling meets it (the cycle labeling, and the paper's result
    (ii)): no search runs and ``nodes`` is 0.  Otherwise the search starts
    at the lower bound and increases k until a witness exists.  Raises
    ValueError if no labeling exists at all, which among connected graphs
    happens only for K_2 (Haslegrave 2018).
    """
    start = time.perf_counter()
    search = _Search(g, budget or SearchBudget())
    lower, lower_source = chromatic_number(g), "chromatic number"
    if lower < 3 and _two_sums_refuted(g):
        lower, lower_source = 3, "two-sum conditions"
    built = _construction(g) if lower == 3 else None
    if built is not None:
        witness, source = built
        return OracleResult(3, witness, 0, time.perf_counter() - start,
                            Bounds(3, lower_source, 3, source))
    for k in range(lower, g.n + 1):
        found = search.run(k)
        if found is not None:
            return OracleResult(
                k, EdgeLabeling(tuple(found)), search.nodes, time.perf_counter() - start,
                Bounds(lower, lower_source, k, "search witness"),
            )
    raise ValueError("graph admits no local antimagic labeling")
