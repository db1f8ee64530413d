"""Exact minimum color count: bounds first, then exhaustive labeling search.

Intended for cross-checking the constructive labelings on small graphs.
``exact_chi_la`` checks a hard edge budget (raise it explicitly, or via
the ANTIMAGIC_BUDGET_EDGES environment variable, when you mean it), the
lower bound from one bipartition pass, a construction's upper bound (a
cycle by a walk, an even-order circulant by isomorphism: the paper's
result (ii)), the exact chromatic number only when no construction meets
the bound, and searches only where the bounds do not meet.  The search
is one iterative loop, so its depth has no recursion limit.  It labels
edge by edge in a vertex-clustering order, prunes on adjacent
completed-sum ties, and bounds by the distinct sums frozen.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, count
from typing import NamedTuple, Optional

from .circulants import c_labeling, c_labeling_sums, circulant_colors
from .graphs import (CirculantSpec, Graph, are_isomorphic, build_circulant, first_coloring,
                     partite_classes)
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


# One exhaustive search: the color count k, its nodes and its seconds.
SearchRun = NamedTuple("SearchRun", [("k", int), ("nodes", int), ("seconds", float)])


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: EdgeLabeling
    nodes: int
    seconds: float
    bounds: Bounds
    searches: tuple[SearchRun, ...] = ()


def chromatic_number(g: Graph) -> int:
    """The least k with a proper k-coloring; k <= 2 is read off the bipartition."""
    parts = partite_classes(g, 2)
    if parts is not None:
        return sum(1 for part in parts if part)
    return next(k for k in count(3) if first_coloring(g, k) is not None)


def _lower_bound(g: Graph) -> tuple[int, str]:
    """A lower bound on χ_la and its source, from one bipartition pass: 3 by
    the chromatic number when g is not bipartite (χ may be higher), 3 by
    the two-sum conditions, else χ <= 2 read off the partition."""
    verdict = check_two_color_necessary(g)
    if not verdict.bipartite:
        return 3, "chromatic number"
    if g.q and not verdict.two_colors_possible and g.is_connected():
        return 3, "two-sum conditions"
    return sum(1 for size in verdict.part_sizes if size), "chromatic number"


def _construction(g: Graph) -> Optional[tuple[EdgeLabeling, str]]:
    """The library's 3-sum labeling of g and its source, when g is a cycle
    or an even-order circulant C_n(1, S) with odd steps; else None.

    A cycle is walked from vertex 0, step j taking the label of edge j of
    ``c_labeling(n)``: the map ``are_isomorphic`` finds from C_n.  A
    circulant is matched by isomorphism, step cycle i taking
    ``c_labeling(n)`` translated by i·n, and certified on g like a cycle.
    Step 1 loses no generality: the inverse of any step maps a circulant
    onto an isomorphic one that has step 1.
    """
    n = g.n
    if n < 3 or not (g.is_regular() and g.is_simple()):
        return None
    d = g.degrees[0]
    if d != 2 and (n % 2 or d % 2 or not g.is_connected()):
        return None
    base, labels = c_labeling(n).labels, [0] * g.q
    if d == 2:
        v, e = 0, g.incident[0][0]
        for x in base:
            labels[e] = x
            a, b = g.edges[e]
            v = b if a == v else a
            a, b = g.incident[v]
            e = b if a == e else a
        if 0 in labels:  # the walk closed before n steps: g is not connected
            return None
        sums, source = frozenset(c_labeling_sums(n)), f"cycle labeling C_{n}"
    else:
        odd = [a for a in range(3, n // 2, 2) if math.gcd(a, n) == 1]
        for rest in combinations(odd, d // 2 - 1):
            spec = CirculantSpec(n, (1, *rest))
            built = build_circulant(spec)
            mapping = are_isomorphic(built, g)
            if mapping is not None:
                break
        else:
            return None
        position = {(min(u, v), max(u, v)): i for i, (u, v) in enumerate(g.edges)}
        for i, (u, v) in enumerate(built.edges):
            a, b = mapping[u], mapping[v]
            labels[position[min(a, b), max(a, b)]] = base[i % n] + i // n * n
        sums, source = circulant_colors(n // 2, len(rest)), f"circulant labeling C_{n}{spec.steps}"
    carried = EdgeLabeling(tuple(labels))
    certify(f"{source} carried onto the input", g, carried, sums)
    return carried, source


class _Search:
    """One loop over per-depth state, so its depth has no recursion limit;
    depth i labels edge ``order[i]``.  Nothing is built before a run."""

    def __init__(self, g: Graph, budget: SearchBudget):
        if g.q > budget.max_edges:
            raise BudgetExceeded(
                f"{g.q} edges exceeds the search budget of {budget.max_edges}; "
                f"raise SearchBudget.max_edges or {BUDGET_ENV} to override"
            )
        self.g = g
        self.budget = budget
        self.nodes = 0
        self.runs: list[SearchRun] = []

    @cached_property
    def order(self) -> list[int]:
        """Edges in depth-first order from each vertex by falling degree, so
        a vertex's edges come close together and its sum completes early."""
        g = self.g
        seen = [False] * g.q
        order: list[int] = []
        stack = sorted(range(g.n), key=lambda v: -g.degrees[v])[::-1]
        while stack:
            v = stack.pop()  # a second visit finds every incident edge seen
            for i in g.incident[v]:
                if not seen[i]:
                    seen[i] = True
                    order.append(i)
                    u, w = g.edges[i]
                    stack.append(w if u == v else u)
        return order

    @cached_property
    def depths(self) -> list[tuple]:
        """Per depth: the edge's ends, its largest label, and each end whose
        sum completes there with its neighbours complete by then; then a
        sentinel, so the loop may read one depth past the last."""
        g = self.g
        done_at = {w: i for i, e in enumerate(self.order) for w in g.edges[e]}
        # The complement q+1-f of a labeling of a regular graph induces the
        # mirrored sums, so there the first label takes only the lower half.
        first = (g.q + 1) // 2 if g.is_regular() else g.q
        depths = []
        for i, e in enumerate(self.order):
            checks = tuple((w, tuple(x for x in g.adjacency[w] if done_at[x] <= i))
                           for w in g.edges[e] if done_at[w] == i)
            depths.append((*g.edges[e], first if i == 0 else g.q, checks))
        return depths + [(0, 0, 0, ())]

    def run(self, max_colors: int) -> Optional[list[int]]:
        """First labeling found with at most max_colors distinct sums.  The
        limits apply per run; ``nodes`` and ``runs`` add up every run."""
        g, b, depths, q = self.g, self.budget, self.depths, self.g.q
        start = time.perf_counter()
        sums = [0] * g.n
        free = [True] * (q + 1)
        picked = [0] * q
        # Completed vertices per sum; the sums in use count 0 if one is isolated.
        frozen = [0] * (max(g.degrees, default=0) * q + 1)
        distinct = int(0 in g.degrees)
        cap = 1 << 62 if b.node_limit is None else b.node_limit + 1
        alarm = cap if b.time_limit is None else min(cap, 1024)
        nodes = i = label = 0
        u, v, top, checks = depths[0]
        while 0 <= i < q:
            if label:  # take back depth i's label before trying the next
                for w, _ in checks:
                    s = sums[w]
                    frozen[s] -= 1
                    distinct -= not frozen[s]
                free[label] = True
                sums[u] -= label
                sums[v] -= label
            label += 1
            while label <= top and not free[label]:
                label += 1
            if label > top:
                i -= 1
                label = picked[i]
                u, v, top, checks = depths[i]
                continue
            nodes += 1
            if nodes >= alarm:  # past the node limit, or a time check is due
                if nodes >= cap:
                    self.nodes += nodes
                    raise BudgetExceeded(f"node limit {b.node_limit} exceeded", self.nodes)
                if time.perf_counter() - start > b.time_limit:
                    self.nodes += nodes
                    raise BudgetExceeded(f"time limit {b.time_limit}s exceeded", self.nodes)
                alarm = min(cap, nodes + 1024)
            free[label] = False
            sums[u] += label
            sums[v] += label
            ok = True
            for w, complete in checks:
                s = sums[w]
                for x in complete:
                    if sums[x] == s:
                        ok = False
                distinct += not frozen[s]
                frozen[s] += 1
            if ok and distinct <= max_colors:
                picked[i] = label
                i += 1
                label = 0
                u, v, top, checks = depths[i]
        self.nodes += nodes
        self.runs.append(SearchRun(max_colors, nodes, time.perf_counter() - start))
        return [x for _, x in sorted(zip(self.order, picked))] if i == q else None


def feasible_with_colors(
    g: Graph, k: int, budget: Optional[SearchBudget] = None
) -> Optional[EdgeLabeling]:
    """A local antimagic labeling of g with at most k distinct sums, or
    None after an exhaustive search finds none.  Neither answer needs a
    search when the bounds settle it: None for k <= 2 below the lower
    bound of ``exact_chi_la``, and for k >= 3 on a cycle or an even-order
    circulant with odd steps, the library's certified 3-sum labeling."""
    search = _Search(g, budget or SearchBudget())
    if k <= 2 and k < _lower_bound(g)[0]:
        return None
    if k >= 3 and (built := _construction(g)) is not None:
        return built[0]
    found = search.run(k)
    return EdgeLabeling(tuple(found)) if found is not None else None


def exact_chi_la(g: Graph, budget: Optional[SearchBudget] = None) -> OracleResult:
    """Exact minimum number of induced sums over all local antimagic
    labelings, with a witness labeling and the bounds that settle it.

    In order: the edge budget; the lower bound from one bipartition pass
    (the chromatic number, χ ≤ χ_la by Arumugam et al. 2017, or 3 on a
    connected graph that fails the two-sum conditions of
    ``check_two_color_necessary``); at 3, the certified 3-sum labeling of
    a cycle or an even-order circulant with odd steps (the paper's result
    (ii)), which meets it: no search runs and ``nodes`` is 0; only when no
    construction meets it, the exact chromatic number of a graph that is
    not bipartite; then the search, from the lower bound up until a
    witness exists.  Raises ValueError if no labeling exists at all, which
    among connected graphs happens only for K_2 (Haslegrave 2018).
    """
    start = time.perf_counter()
    search = _Search(g, budget or SearchBudget())
    lower, lower_source = _lower_bound(g)
    if lower == 3 and (built := _construction(g)) is not None:
        return OracleResult(3, built[0], 0, time.perf_counter() - start,
                            Bounds(3, lower_source, 3, built[1]))
    if lower == 3 and lower_source == "chromatic number":  # g is not bipartite
        lower = chromatic_number(g)
    for k in range(lower, g.n + 1):
        found = search.run(k)
        if found is not None:
            return OracleResult(
                k, EdgeLabeling(tuple(found)), search.nodes, time.perf_counter() - start,
                Bounds(lower, lower_source, k, "search witness"), tuple(search.runs),
            )
    raise ValueError("graph admits no local antimagic labeling")
