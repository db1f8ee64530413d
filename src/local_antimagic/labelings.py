"""Edge labelings, induced vertex sums, and the local antimagic verifier.

A labeling assigns the integers 1..q bijectively to the q edges of a
graph.  The induced sum of a vertex is the total of the labels on its
incident edges (each parallel edge counted); a labeling is local
antimagic when no two adjacent vertices share an induced sum.  Endpoints
of parallel edges count as adjacent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .graphs import CertificationError, Graph, partite_classes


@dataclass(frozen=True)
class EdgeLabeling:
    """Labels by edge index: ``labels[i]`` is the label of edge i.  A tuple
    of exact ints is kept as it is; any other input is converted by int."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = self.labels
        if type(labels) is not tuple or not set(map(type, labels)) <= {int}:
            object.__setattr__(self, "labels", tuple(map(int, labels)))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> int:
        return self.labels[i]


@dataclass(frozen=True)
class InducedColoring:
    """Per-vertex induced sums, the distinct sums, and any adjacent ties."""

    sums: tuple[int, ...]
    colors: frozenset[int]
    conflicts: tuple[tuple[int, int], ...]

    def classes(self) -> dict[int, list[int]]:
        by_sum: dict[int, list[int]] = {}
        for v, s in enumerate(self.sums):
            by_sum.setdefault(s, []).append(v)
        return by_sum


def validate_labeling(g: Graph, f: EdgeLabeling) -> None:
    labels, q = f.labels, g.q
    if len(labels) != q or q and (min(labels), max(labels), len(set(labels))) != (1, q, q):
        raise ValueError(
            f"labeling must be a bijection onto 1..{g.q}, got {len(f)} labels"
        )


def induced_coloring(g: Graph, f: EdgeLabeling) -> InducedColoring:
    """Induced vertex sums plus every adjacent pair with equal sums."""
    validate_labeling(g, f)
    sums = [0] * g.n
    for (u, v), x in zip(g._pairs(), f.labels):
        sums[u] += x
        sums[v] += x
    conflicts = sorted({(min(u, v), max(u, v)) for u, v in g._pairs() if sums[u] == sums[v]})
    return InducedColoring(tuple(sums), frozenset(sums), tuple(conflicts))


def certify(what: str, g: Graph, f: EdgeLabeling,
            expected: Optional[frozenset[int]] = None) -> InducedColoring:
    """The induced coloring of the construction ``what``, checked: raises
    CertificationError when the labels are not a bijection onto 1..q, when
    two adjacent vertices share a sum or, given ``expected``, when the
    distinct sums differ from it."""
    try:
        coloring = induced_coloring(g, f)
    except ValueError as exc:
        raise CertificationError(f"{what}: {exc}") from None
    if coloring.conflicts:
        u, v = coloring.conflicts[0]
        raise CertificationError(
            f"{what}: adjacent vertices {u} and {v} share the sum {coloring.sums[u]}"
        )
    if expected is not None and coloring.colors != expected:
        raise CertificationError(
            f"{what}: induced sums {sorted(coloring.colors)}, "
            f"expected {sorted(expected)}"
        )
    return coloring


def is_local_antimagic(g: Graph, f: EdgeLabeling) -> bool:
    return not induced_coloring(g, f).conflicts


def color_count(g: Graph, f: EdgeLabeling) -> tuple[int, dict[int, list[int]]]:
    """Number of distinct induced sums and the vertex classes by sum.

    Requires a local antimagic labeling; counting colors of an invalid
    labeling is a usage error.
    """
    coloring = induced_coloring(g, f)
    if coloring.conflicts:
        raise ValueError(
            f"labeling is not local antimagic (conflict at {coloring.conflicts[0]})"
        )
    return len(coloring.colors), coloring.classes()


def complement_labeling(g: Graph, f: EdgeLabeling) -> EdgeLabeling:
    """The labeling q+1-f.  An involution; on regular graphs it preserves
    both the local antimagic property and the color count."""
    validate_labeling(g, f)
    q = g.q
    return EdgeLabeling(tuple(q + 1 - x for x in f.labels))


def check_nonreg_conditions(g: Graph, f: EdgeLabeling) -> bool:
    """Check the sum/degree conditions under which q+1-f stays local antimagic.

    For every vertex pair: equal sums must imply equal degrees, and
    unequal sums must satisfy (q+1)(deg x - deg y) != sum(x) - sum(y).
    When true, the complement labeling is local antimagic with the same
    color count.
    """
    coloring = induced_coloring(g, f)
    if coloring.conflicts:
        raise ValueError("labeling must be local antimagic")
    q = g.q
    sums, deg = coloring.sums, g.degrees
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if sums[x] == sums[y]:
                if deg[x] != deg[y]:
                    return False
            elif (q + 1) * (deg[x] - deg[y]) == sums[x] - sums[y]:
                return False
    return True


def check_edge_deletion_lemma(g: Graph, f: EdgeLabeling, e: int) -> bool:
    """Check the conditions under which deleting the label-1 edge keeps
    the color count bounded by the current one.

    Requires f(e)=1, degree-homogeneous color classes, and pairwise
    distinct values of (class sum - class degree).  When all hold, the
    decrement-by-one labeling on the edge-deleted graph uses at most as
    many colors.
    """
    if not 0 <= e < g.q:
        raise ValueError(f"edge index {e} out of range")
    coloring = induced_coloring(g, f)
    if coloring.conflicts:
        raise ValueError("labeling must be local antimagic")
    if f[e] != 1:
        return False
    shifted = set()
    for s, vertices in coloring.classes().items():
        degs = {g.degrees[v] for v in vertices}
        if len(degs) != 1:
            return False
        shifted.add(s - degs.pop())
    return len(shifted) == len(coloring.colors)


def deleted_edge_labeling(g: Graph, f: EdgeLabeling, e: int) -> EdgeLabeling:
    """Labeling for the graph with edge ``e`` (labeled 1) removed: every
    surviving label is decremented so the range is 1..q-1 again."""
    validate_labeling(g, f)
    if f[e] != 1:
        raise ValueError("only the edge labeled 1 can be deleted this way")
    return EdgeLabeling(tuple(x - 1 for i, x in enumerate(f.labels) if i != e))


@dataclass(frozen=True)
class TwoColorVerdict:
    """Outcome of the necessary conditions for a 2-color labeling.

    These conditions are necessary, never sufficient: graphs exist that
    pass all of them yet admit no 2-color local antimagic labeling.
    """

    bipartite: bool
    part_sizes: tuple[int, int] | None
    sizes_distinct: bool
    divisibility_ok: bool
    pendant_count: int
    even_size_pendant_violation: bool
    two_colors_possible: bool

    @property
    def forced_at_least_three(self) -> bool:
        return not self.two_colors_possible


def check_two_color_necessary(g: Graph) -> TwoColorVerdict:
    """Run every known necessary condition for a 2-color labeling.

    A 2-coloring forces a bipartition with unequal part sizes, both
    dividing (q+1 choose 2); an even number of edges with a pendant, or
    two or more pendants, rules 2 colors out entirely.
    """
    q, parts, pendants = g.q, partite_classes(g, 2), g.degrees.count(1)
    if parts is None:
        return TwoColorVerdict(False, None, False, False, pendants, False, False)
    sizes = (len(parts[0]), len(parts[1]))
    sizes_distinct = sizes[0] != sizes[1]
    total = math.comb(q + 1, 2)
    divisibility = all(s > 0 and total % s == 0 for s in sizes)
    even_pendant = q % 2 == 0 and pendants >= 1
    possible = sizes_distinct and divisibility and pendants <= 1 and not even_pendant
    return TwoColorVerdict(
        True, sizes, sizes_distinct, divisibility, pendants, even_pendant, possible
    )


def two_color_identity_holds(g: Graph, f: EdgeLabeling) -> bool:
    """For a 2-color labeling with colors x<y on X and Y vertices, verify
    xX = yY = q(q+1)/2 and that the color classes are the bipartition."""
    count, classes = color_count(g, f)
    if count != 2:
        raise ValueError("labeling does not induce exactly 2 colors")
    x, y = sorted(classes)
    X, Y = len(classes[x]), len(classes[y])
    if x * X != y * Y or 2 * x * X != g.q * (g.q + 1):
        return False
    parts = partite_classes(g, 2)
    if parts is None:
        return False
    return {frozenset(classes[x]), frozenset(classes[y])} == {
        frozenset(parts[0]),
        frozenset(parts[1]),
    }
