"""Exact minimum color count: bounds first, then exhaustive labeling search.

Intended for cross-checking the constructive labelings on small graphs.
``exact_chi_la`` and ``feasible_with_colors`` check a hard edge budget
(raise it explicitly when you mean it), then take the bounds of
``_bounds``, and search only where they do not meet; a search witness is
certified before it is returned.  The search is one iterative loop, so
its depth has no recursion limit.  It labels edge by edge in a
vertex-clustering order, prunes on adjacent completed-sum ties, and bounds
by the distinct sums frozen: a depth that completes more vertices than new
sums still fit tries only the labels that land one on a sum in use.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import cached_property
from itertools import combinations

from .circulants import (
    CirculantSpec,
    _translated_labels,
    are_isomorphic,
    build_circulant,
    c_labeling,
    c_labeling_sums,
    circulant_colors,
)
from .graphs import CertificationError, Graph, Record
from .labelings import EdgeLabeling, certify, check_two_color_necessary


DEFAULT_MAX_EDGES = 10
# Unread here: perfbench/workloads.py::child_env reads it to clear the variable.
BUDGET_ENV = "ANTIMAGIC_BUDGET_EDGES"


class BudgetExceeded(RuntimeError):
    """A budget was hit after ``nodes`` search nodes, over every k tried."""

    def __init__(self, message: str, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


class SearchBudget(Record):
    """The limits of one search: an edge limit, ``max_edges`` (by default
    10), and an optional node limit per run, ``node_limit``."""

    _fields = ("max_edges", "node_limit")

    def __init__(self, max_edges: int | None = None, node_limit: int | None = None):
        super().__init__(DEFAULT_MAX_EDGES if max_edges is None else max_edges, node_limit)


class Bounds(Record):
    """Why χ_la lies where it does: the proven lower bound and the upper
    bound that met it, each with its source.  ``lower_source`` is
    "chromatic number", "two-sum conditions" or "pendants";
    ``upper_source`` "search witness" or the construction, e.g. "cycle
    labeling C_5"."""

    _fields = ("lower", "lower_source", "upper", "upper_source")


# One exhaustive search: the color count k, its nodes and its seconds.
SearchRun = namedtuple("SearchRun", ["k", "nodes", "seconds"])


class OracleResult(Record):
    """χ_la (``value``) with a witness labeling, the search nodes and
    seconds it took, its ``Bounds`` and a ``SearchRun`` per k searched."""

    _fields = ("value", "witness", "nodes", "seconds", "bounds", "searches")

    def __init__(self, value: int, witness: EdgeLabeling, nodes: int, seconds: float,
                 bounds: Bounds, searches: tuple[SearchRun, ...] = ()):
        # Kept by hand, not by Record.__init__: every oracle job builds one.
        kept = vars(self)
        kept["value"], kept["witness"], kept["nodes"] = value, witness, nodes
        kept["seconds"], kept["bounds"], kept["searches"] = seconds, bounds, searches


def first_coloring(g: Graph, k: int, vertices) -> dict[int, int] | None:
    """The lexicographically first proper k-coloring of ``vertices`` (say,
    a component), taken highest degree first and on ties in the order
    given, as a color per vertex, or None if there is none.  Backtracks on
    an explicit stack so that long cycles stay within the recursion limit."""
    order = sorted(vertices, key=lambda v: -g.degrees[v])
    # Depth i colors order[i]: tried[i] is its current color, used[i]
    # the colors in use before it.  Trying at most one fresh color kills
    # color-permutation symmetry and keeps the lexicographically first
    # coloring: swapping two colors unused so far only moves it later.
    n = len(order)
    color, tried, used = dict.fromkeys(order, -1), [-1] * n, [0] * (n + 1)
    i = 0
    while 0 <= i < n:
        v = order[i]
        color[v] = -1
        taken = {color.get(w) for w in g.adjacency[v]}
        fresh = min(used[i] + 1, k)
        c = next((x for x in range(tried[i] + 1, fresh) if x not in taken), -1)
        tried[i] = c
        if c < 0:
            i -= 1
        else:
            color[v] = c
            used[i + 1] = max(used[i], c + 1)
            i += 1
    return color if i == n else None


def chromatic_number(g: Graph) -> int:
    """The least k with a proper k-coloring; k <= 2 is read off the
    graph's 2-coloring, and each component is colored on its own."""
    color = g._traversal[1]
    if color is not None:
        return len(set(color))
    k = 3
    for component in g.components:
        while first_coloring(g, k, component) is None:
            k += 1
    return k


def _incident(g: Graph) -> list[list[int]]:
    """Each vertex's edge indices in edge order (parallel edges repeat)."""
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(zip(g.us, g.vs)):
        incident[u].append(i)
        incident[v].append(i)
    return incident


def _cycle(g: Graph) -> tuple[EdgeLabeling, str] | None:
    """``c_labeling(n)`` carried onto g and its source, when g is one cycle
    on n >= 3 vertices; else None.  A walk from vertex 0 gives step j the
    label of edge j: the map ``are_isomorphic`` finds from C_n.  Where every
    degree is 2, a walk that covers all n edges without revisiting one
    rules out parallel edges and a second component."""
    n = g.n
    if n < 3 or g.q != n or set(map(len, incident := _incident(g))) != {2}:
        return None
    labels, v, e, us, vs = [0] * n, 0, incident[0][0], g.us, g.vs
    for x in c_labeling(n).labels:
        labels[e] = x
        v = vs[e] if us[e] == v else us[e]
        a, b = incident[v]
        e = b if a == e else a
    if 0 in labels:  # the walk closed before n steps
        return None
    carried, source = EdgeLabeling(tuple(labels)), f"cycle labeling C_{n}"
    certify(f"{source} carried onto the input", g, carried, frozenset(c_labeling_sums(n)))
    return carried, source


def _construction(g: Graph) -> tuple[EdgeLabeling, str] | None:
    """The library's 3-sum labeling of g and its source, when g is an
    even-order circulant C_n(1, S) with odd steps; else None.

    g is matched by isomorphism, step cycle i taking ``c_labeling(n)``
    translated by i·n as in ``circulant_labeling``, and the carried
    labeling is certified on g.  Step 1 loses no generality: the inverse
    of any step maps a circulant onto an isomorphic one that has step 1.
    """
    n = g.n
    if n % 2 or not (g.is_regular() and g.degrees[0] % 2 == 0 and g.is_connected()
                     and g.is_simple()):
        return None
    d, labels = g.degrees[0], [0] * g.q
    odd = [a for a in range(3, n // 2, 2) if math.gcd(a, n) == 1]
    for rest in combinations(odd, d // 2 - 1):
        spec = CirculantSpec(n, (1, *rest))
        built = build_circulant(spec)
        mapping = are_isomorphic(built, g)
        if mapping is not None:
            break
    else:
        return None
    position = {(min(u, v), max(u, v)): i for i, (u, v) in enumerate(zip(g.us, g.vs))}
    for u, v, x in zip(built.us, built.vs, _translated_labels(n, len(spec.steps))):
        a, b = mapping[u], mapping[v]
        labels[position[min(a, b), max(a, b)]] = x
    carried, source = EdgeLabeling(tuple(labels)), f"circulant labeling C_{n}{spec.steps}"
    certify(f"{source} carried onto the input", g, carried, circulant_colors(n // 2, len(rest)))
    return carried, source


def _bounds(g: Graph, k: int) -> tuple[int, str, tuple[EdgeLabeling, str] | None]:
    """A lower bound on χ_la and its source, and the library's certified
    3-sum labeling of g with its source where one meets it, else None.  In
    order: a cycle settled by the walk of ``_cycle``, with no other pass
    over g (3 sums: by the chromatic number when n is odd, by the two-sum
    conditions when it is even); from the graph's one traversal, 3 by the
    chromatic number when g is not bipartite (χ <= χ_la, Arumugam et al.
    2017), 3 on a connected graph that fails the two-sum conditions of
    ``check_two_color_necessary``, else χ <= 2 read off the partition, and
    l + 1 by l >= 1 pendants where that is higher (their sums are their
    distinct labels, and the edge labelled q has an end of degree at least
    2 whose sum exceeds q, unless g is K_2, which has no labeling,
    Haslegrave 2018); at 3 on a bipartite g, the 3-sum labeling of an
    even-order circulant with odd steps (the paper's result (ii); every
    such circulant is bipartite, so no other g can match one); then the
    exact chromatic number of a graph that is not bipartite, where it is
    higher.  Neither a construction nor χ is sought once the bound exceeds
    k."""
    if (built := _cycle(g)) is not None:
        return 3, "chromatic number" if g.n % 2 else "two-sum conditions", built
    verdict = check_two_color_necessary(g)
    if not verdict.bipartite:
        lower, source = 3, "chromatic number"
    elif g.q and not verdict.two_colors_possible and g.is_connected():
        lower, source = 3, "two-sum conditions"
    else:
        lower, source = sum(1 for size in verdict.part_sizes if size), "chromatic number"
    pendants = verdict.pendant_count
    if pendants and pendants + 1 > lower:
        lower, source = pendants + 1, "pendants"
    if lower > k:
        return lower, source, None
    if lower == 3 and verdict.bipartite and (built := _construction(g)) is not None:
        return lower, source, built
    if not verdict.bipartite and (chi := chromatic_number(g)) > lower:
        lower, source = chi, "chromatic number"
    return lower, source, None


class _Search:
    """One loop over per-depth state, so its depth has no recursion limit;
    depth i labels edge ``order[i]``.  Nothing is built before a run."""

    def __init__(self, g: Graph, budget: SearchBudget):
        if g.q > budget.max_edges:
            raise BudgetExceeded(
                f"{g.q} edges exceeds the search budget of {budget.max_edges}; "
                "raise SearchBudget.max_edges or --max-edges to override"
            )
        self.g = g
        self.budget = budget
        self.nodes = 0
        self.runs: list[SearchRun] = []

    @cached_property
    def order(self) -> list[int]:
        """Edges in depth-first order from each vertex by falling degree, so
        a vertex's edges come close together and its sum completes early."""
        g, incident = self.g, _incident(self.g)
        seen = [False] * g.q
        order: list[int] = []
        stack = sorted(range(g.n), key=lambda v: -g.degrees[v])[::-1]
        while stack:
            v = stack.pop()  # a second visit finds every incident edge seen
            for i in incident[v]:
                if not seen[i]:
                    seen[i] = True
                    order.append(i)
                    u, w = g.us[i], g.vs[i]
                    stack.append(w if u == v else u)
        return order

    @cached_property
    def depths(self) -> list[tuple]:
        """Per depth: the edge's ends, its largest label, each end whose sum
        completes there with its neighbours complete by then, and how many
        ends complete; then a sentinel, so the loop may read one depth past
        the last."""
        g = self.g
        done_at = {w: i for i, e in enumerate(self.order) for w in (g.us[e], g.vs[e])}
        # The complement q+1-f of a labeling of a regular graph induces the
        # mirrored sums, so there the first label takes only the lower half.
        first = (g.q + 1) // 2 if g.is_regular() else g.q
        depths = []
        for i, e in enumerate(self.order):
            u, v = g.us[e], g.vs[e]
            if done_at[u] != i:  # a lone completing end is always u
                u, v = v, u
            checks = tuple((w, tuple(x for x in g.adjacency[w] if done_at[x] <= i))
                           for w in (u, v) if done_at[w] == i)
            depths.append((u, v, first if i == 0 else g.q, checks, len(checks)))
        return depths + [(0, 0, 0, (), 0)]

    def run(self, max_colors: int) -> list[int] | None:
        """First labeling found with at most max_colors distinct sums.  The
        limits apply per run; ``nodes`` and ``runs`` add up every run."""
        g, b, depths, q = self.g, self.budget, self.depths, self.g.q
        start = time.perf_counter()
        sums = [0] * g.n
        free = [True] * (q + 1)
        picked = [0] * q
        # Completed vertices per sum, and the sums with one; ``distinct`` is
        # len(used), plus 1 if a vertex is isolated, kept as a counter since
        # every node reads it.
        frozen = [0] * (max(g.degrees, default=0) * q + 1)
        used: list[int] = []
        distinct = int(0 in g.degrees)
        cap = 1 << 62 if b.node_limit is None else b.node_limit + 1
        nodes = i = label = 0
        u, v, top, checks, ends = depths[0]
        while 0 <= i < q:
            if label:  # take back depth i's label before trying the next
                for w, _ in checks:
                    s = sums[w]
                    frozen[s] -= 1
                    if not frozen[s]:
                        used.remove(s)
                        distinct -= 1
                free[label] = True
                sums[u] -= label
                sums[v] -= label
            slack = max_colors - distinct
            if ends <= slack:
                label += 1
                while label <= top and not free[label]:
                    label += 1
            else:
                # More ends complete than new sums fit: the next label is the
                # least free one above that lands u, both ends (no room at
                # all) or either end (room for one) on a sum in use.
                best, su, sv = top + 1, sums[u], sums[v]
                if ends == 1:
                    for s in used:
                        x = s - su
                        if label < x < best and free[x]:
                            best = x
                elif slack <= 0:
                    for s in used:
                        x = s - su
                        if label < x < best and free[x] and frozen[sv + x]:
                            best = x
                else:
                    for s in used:
                        x = s - su
                        if label < x < best and free[x]:
                            best = x
                        x = s - sv
                        if label < x < best and free[x]:
                            best = x
                label = best
            if label > top:
                i -= 1
                label = picked[i]
                u, v, top, checks, ends = depths[i]
                continue
            nodes += 1
            if nodes >= cap:
                self.nodes += nodes
                raise BudgetExceeded(f"node limit {b.node_limit} exceeded", self.nodes)
            free[label] = False
            sums[u] += label
            sums[v] += label
            ok = True
            for w, complete in checks:
                s = sums[w]
                for x in complete:
                    if sums[x] == s:
                        ok = False
                if not frozen[s]:
                    used.append(s)
                    distinct += 1
                frozen[s] += 1
            if ok and distinct <= max_colors:
                picked[i] = label
                i += 1
                label = 0
                u, v, top, checks, ends = depths[i]
        self.nodes += nodes
        self.runs.append(SearchRun(max_colors, nodes, time.perf_counter() - start))
        return [x for _, x in sorted(zip(self.order, picked))] if i == q else None


def _certified(g: Graph, found: list[int], low: int, high: int) -> EdgeLabeling:
    """The search's labels, certified on g with ``low`` to ``high`` sums:
    any other count would mean a wrong lower bound or a wrong search."""
    witness = EdgeLabeling(tuple(found))
    count = len(certify("search witness", g, witness).colors)
    if not low <= count <= high:
        raise CertificationError(f"search witness: {count} sums, outside [{low}, {high}]")
    return witness


def feasible_with_colors(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> EdgeLabeling | None:
    """A local antimagic labeling of g with at most k distinct sums, or
    None after an exhaustive search finds none.  Neither answer needs a
    search when the bounds of ``_bounds`` settle it: None for any k below
    the lower bound, else the library's certified 3-sum labeling where
    one meets it."""
    search = _Search(g, budget or SearchBudget())
    lower, _, built = _bounds(g, k)
    if k < lower:
        return None
    if built is not None:
        return built[0]
    found = search.run(k)
    return _certified(g, found, lower, k) if found is not None else None


def exact_chi_la(g: Graph, budget: SearchBudget | None = None) -> OracleResult:
    """Exact minimum number of induced sums over all local antimagic
    labelings, with a witness labeling and the bounds that settle it.

    After the edge budget, the bounds of ``_bounds``: a construction that
    meets the lower bound settles it, so no search runs and ``nodes`` is
    0.  Else the search runs from the lower bound up until a witness
    exists.  Raises ValueError if no labeling exists at all.
    """
    start = time.perf_counter()
    search = _Search(g, budget or SearchBudget())
    lower, lower_source, built = _bounds(g, g.n)
    if built is not None:
        return OracleResult(3, built[0], 0, time.perf_counter() - start,
                            Bounds(3, lower_source, 3, built[1]))
    for k in range(lower, g.n + 1):
        found = search.run(k)
        if found is not None:
            # Every k below was refuted, so the witness has exactly k sums.
            return OracleResult(
                k, _certified(g, found, k, k), search.nodes, time.perf_counter() - start,
                Bounds(lower, lower_source, k, "search witness"), tuple(search.runs),
            )
    raise ValueError("graph admits no local antimagic labeling")
