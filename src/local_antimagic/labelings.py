"""Edge labelings, induced vertex sums, and the local antimagic verifier.

A labeling assigns the integers 1..q bijectively to the q edges of a
graph.  The induced sum of a vertex is the total of the labels on its
incident edges (each parallel edge counted); a labeling is local
antimagic when no two adjacent vertices share an induced sum.  Endpoints
of parallel edges count as adjacent.  Every constructor returns a
``Labeled``, which keeps the coloring ``certify`` found.
"""

from __future__ import annotations

import math

from .graphs import CertificationError, Graph, Record, _ints


class EdgeLabeling(Record):
    """Labels by edge index: ``labels[i]`` is the label of edge i.  A tuple
    of exact ints is kept as it is; any other label is converted by
    ``operator.index`` (a numpy int, say), and a bool, a float or a str
    raises ValueError."""

    _fields = ("labels",)

    def __init__(self, labels: tuple[int, ...]):
        # Checked and kept by hand, not by Record.__init__: every
        # construction and every oracle job builds a labeling.
        if type(labels) is not tuple or not set(map(type, labels)) <= {int}:
            labels = _ints(labels, "label")
        vars(self)["labels"] = labels

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> int:
        return self.labels[i]


class InducedColoring(Record):
    """Per-vertex induced sums, the distinct sums, and any adjacent ties."""

    _fields = ("sums", "colors", "conflicts")

    def __init__(self, sums: tuple[int, ...], colors: frozenset[int],
                 conflicts: tuple[tuple[int, int], ...]):
        # Kept by hand, as EdgeLabeling's labels are: every check builds one.
        kept = vars(self)
        kept["sums"], kept["colors"], kept["conflicts"] = sums, colors, conflicts

    def classes(self) -> dict[int, list[int]]:
        by_sum: dict[int, list[int]] = {}
        for v, s in enumerate(self.sums):
            by_sum.setdefault(s, []).append(v)
        return by_sum


class Labeled(Record):
    """A certified construction: its graph, its labeling and the coloring
    ``certify`` returned, the one source of its sums.  Unpacks as (graph, labeling)."""

    _fields = ("graph", "labeling", "coloring")

    def __iter__(self):
        return iter((self.graph, self.labeling))


def validate_labeling(g: Graph, f: EdgeLabeling) -> None:
    labels, q = f.labels, g.q
    if len(labels) != q:
        raise ValueError(f"labeling must be a bijection onto 1..{q}, got {len(labels)} labels")
    if q and (found := (min(labels), max(labels), len(set(labels)))) != (1, q, q):
        low, high, distinct = found
        raise ValueError(f"labeling must be a bijection onto 1..{q}, got labels "
                         f"{low}..{high}, {distinct} distinct")


def induced_coloring(g: Graph, f: EdgeLabeling) -> InducedColoring:
    """Induced vertex sums plus every adjacent pair with equal sums.

    The graph keeps the coloring of the labels tuple last verified on it,
    so checking a returned construction again reads that coloring; its
    sums share one int per distinct sum, 8 B a vertex."""
    kept = vars(g).get("_coloring")
    if kept is not None and kept[0] is f.labels:
        return kept[1]
    validate_labeling(g, f)
    sums, us, vs = [0] * g.n, g.us, g.vs
    for u, v, x in zip(us, vs, f.labels):
        sums[u] += x
        sums[v] += x
    conflicts = sorted({(min(u, v), max(u, v)) for u, v in zip(us, vs) if sums[u] == sums[v]})
    colors = frozenset(sums)
    one = {s: s for s in colors}
    coloring = InducedColoring(tuple(map(one.__getitem__, sums)), colors, tuple(conflicts))
    vars(g)["_coloring"] = (f.labels, coloring)
    return coloring


def certify(what: str, g: Graph, f: EdgeLabeling,
            expected: frozenset[int] | None = None) -> InducedColoring:
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


class TwoColorVerdict(Record):
    """Outcome of the necessary conditions for a 2-color labeling.

    These conditions are necessary, never sufficient: graphs exist that
    pass all of them yet admit no 2-color local antimagic labeling.
    ``part_sizes`` is None when the graph is not bipartite.
    """

    _fields = ("bipartite", "part_sizes", "pendant_count", "two_colors_possible")


def check_two_color_necessary(g: Graph) -> TwoColorVerdict:
    """Run every known necessary condition for a 2-color labeling.

    A 2-coloring forces a bipartition with unequal part sizes, both
    dividing (q+1 choose 2); an even number of edges with a pendant, or
    two or more pendants, rules 2 colors out entirely.
    """
    q, color, pendants = g.q, g._traversal[1], g.degrees.count(1)
    if color is None:
        return TwoColorVerdict(False, None, pendants, False)
    sizes = (g.n - sum(color), sum(color))
    total = math.comb(q + 1, 2)
    divisibility = all(s > 0 and total % s == 0 for s in sizes)
    even_pendant = q % 2 == 0 and pendants >= 1
    possible = sizes[0] != sizes[1] and divisibility and pendants <= 1 and not even_pendant
    return TwoColorVerdict(True, sizes, pendants, possible)
