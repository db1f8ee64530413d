"""One-point unions of cycles: the union itself, explicit labelings with
two or three induced sums, and the transform that fuses or merges the
constituent cycles while keeping the label assignment.

All labelings here are indexed globally: the edges of the i-th cycle
occupy consecutive positions, with the first and last edge of each cycle
incident to the shared central vertex, as ``one_point_union`` lays them.
Each labeling and the transform return a ``Labeled``, whose coloring
gives the central sum as ``coloring.sums[0]``.
"""

from __future__ import annotations

from itertools import accumulate, chain

from .graphs import (
    CertificationError,
    Graph,
    Record,
    _columns,
    _cycle_part,
    _int,
    _ints,
    _part,
)
from .labelings import EdgeLabeling, Labeled, certify, validate_labeling


class UnionSpec(Record):
    """Orders of the cycles in a one-point union, in attachment order,
    each converted by ``_int``."""

    _fields = ("orders",)

    def __init__(self, orders: tuple[int, ...]):
        orders = _ints(orders, "cycle order")
        if len(orders) < 2:
            raise ValueError("a union needs at least two cycles")
        if any(a < 3 for a in orders):
            raise ValueError("every cycle order must be at least 3")
        super().__init__(orders)

    @property
    def r(self) -> int:
        return len(self.orders)

    @property
    def m(self) -> int:
        return sum(self.orders)


def one_point_union(graphs: list[Graph], attach: list[int]) -> Graph:
    """Identify one chosen vertex of every graph into a single central vertex.

    The central vertex gets index 0; the remaining vertices follow in graph
    order, then vertex order.  Edges are concatenated graph by graph with
    endpoints remapped, so edge indices stay stable per component.
    """
    return _union([_part(g) for g in graphs], attach)


def _union(parts: list, attach: list[int]) -> Graph:
    """``one_point_union`` of parts."""
    if not parts:
        raise ValueError("one-point union of an empty list")
    if len(attach) != len(parts):
        raise ValueError("one attach vertex per graph required")
    offset = 1
    us: list[int] = []
    vs: list[int] = []
    for idx, ((n, part_us, part_vs, _), a) in enumerate(zip(parts, attach)):
        if not 0 <= a < n:
            raise ValueError(f"attach vertex {a} out of range for graph {idx}")
        vmap = [*range(offset, offset + a), 0, *range(offset + a, offset + n - 1)]
        us += map(vmap.__getitem__, part_us)
        vs += map(vmap.__getitem__, part_vs)
        offset += n - 1
    sources = [(n, names, a) for (n, _, _, names), a in zip(parts, attach)]

    def provenance():
        central: list[str] = []
        flat: list[str] = []
        counts: list[int] = []
        for idx, (n, names, a) in enumerate(sources):
            # Trivial names are rendered from the vertex numbers themselves.
            part_flat, part_counts = (range(n), [1] * n) if names is None else _columns(n, names)
            name = f"c{idx}.%s" if len(sources) > 1 else "%s"
            part_flat = [*map(name.__mod__, part_flat)]
            start = sum(part_counts[:a])
            stop = start + part_counts[a]
            central += part_flat[start:stop]
            flat += part_flat[:start]
            flat += part_flat[stop:]
            counts += part_counts[:a]
            counts += part_counts[a + 1:]
        return central + flat, [len(central), *counts]

    return Graph._from_ends(offset, tuple(us), tuple(vs), provenance)


def union_graph(spec: UnionSpec) -> Graph:
    return _union([_cycle_part(a) for a in spec.orders], [0] * spec.r)


class UnionLabelingResult(Labeled):
    """A labeled union with its spec."""

    _fields = ("spec", "graph", "labeling", "coloring")


def _finish(spec: UnionSpec, labels: list[int],
            expected: frozenset[int], central: int) -> UnionLabelingResult:
    graph = union_graph(spec)
    labeling = EdgeLabeling(tuple(labels))
    what = f"union labeling of {spec.orders}"
    coloring = certify(what, graph, labeling, expected)
    if coloring.sums[0] != central:
        raise CertificationError(f"{what}: central sum {coloring.sums[0]}, expected {central}")
    return UnionLabelingResult(spec, graph, labeling, coloring)


def family1_spec(r: int) -> UnionSpec:
    """r-1 cycles of order 4r-2 plus one of order 2r-2, for r >= 3."""
    if r < 3:
        raise ValueError("this family needs r >= 3")
    return UnionSpec((4 * r - 2,) * (r - 1) + (2 * r - 2,))


def family1_sequences(r: int) -> list[list[int]]:
    """Per-cycle label sequences of the 2-color labeling: each long cycle
    interleaves the arithmetic runs i + (2r-1)j and their complements to
    4r^2-4r+1, and the short cycle takes the multiples of 2r-1."""
    m, d = 4 * r * r - 4 * r, 2 * r - 1
    seqs = [_interleaved(range(i, i + d * d, d), range(m + 1 - i, m + 1 - i - d * d, -d))
            for i in range(1, r)]
    top = 4 * r * r - 6 * r + 2
    seqs.append(_interleaved(range(d, d * r, d), range(top, top - d * (r - 1), -d)))
    return seqs


def _interleaved(evens: range, odds: range) -> list[int]:
    """evens[0], odds[0], evens[1], odds[1], ..."""
    seq = [0] * (len(evens) + len(odds))
    seq[::2], seq[1::2] = evens, odds
    return seq


def union_2labeling_family1(r: int) -> UnionLabelingResult:
    """2-color labeling of the family-1 union, sums 4r^2-4r+1 and 4r^2-2r."""
    r = _int(r, "r")
    spec = family1_spec(r)
    labels = [*chain.from_iterable(family1_sequences(r))]
    low, high = 4 * r * r - 4 * r + 1, 4 * r * r - 2 * r
    return _finish(spec, labels, frozenset({low, high}), high)


def family2_spec(r: int) -> UnionSpec:
    """(r-1)/2 cycles of order 2r plus (r+1)/2 of order 2r-2, r odd >= 5."""
    if r < 5 or r % 2 == 0:
        raise ValueError("this family needs odd r >= 5")
    return UnionSpec((2 * r,) * ((r - 1) // 2) + (2 * r - 2,) * ((r + 1) // 2))


def family2_sequences(r: int) -> list[list[int]]:
    step, top = 2 * r, 2 * r * r
    seqs = [_interleaved(range(i, i + step * r, step),
                         range(top - r - i, top - r - i - step * r, -step))
            for i in range(1, (r - 1) // 2 + 1)]
    seqs += [_interleaved(range(r + j, r + j + step * (r - 1), step),
                          range(top - step - j, top - step - j - step * (r - 1), -step))
             for j in range((r + 1) // 2)]
    return seqs


def union_2labeling_family2(r: int) -> UnionLabelingResult:
    """2-color labeling of the family-2 union, sums 2r^2-r and 2r^2+r."""
    r = _int(r, "r")
    spec = family2_spec(r)
    labels = [*chain.from_iterable(family2_sequences(r))]
    low, high = 2 * r * r - r, 2 * r * r + r
    return _finish(spec, labels, frozenset({low, high}), high)


def union_3labeling(spec: UnionSpec) -> UnionLabelingResult:
    """3-color labeling of a union of even cycles of order at least 16.

    Global edge i gets i/2 when i is even and m-(i-1)/2 when i is odd
    (1-indexed), so degree-2 vertices alternate between sums m and m+1
    while the central vertex collects r*m + m/2.
    """
    if any(a % 2 or a < 16 for a in spec.orders):
        raise ValueError("every cycle order must be even and at least 16")
    m = spec.m
    labels = _interleaved(range(m, m // 2, -1), range(1, m // 2 + 1))
    central = spec.r * m + m // 2
    return _finish(spec, labels, frozenset({m, m + 1, central}), central)


class KeepCycle(Record):
    """Leave one cycle of the union untouched.  Directives convert their
    ints by ``_int``."""

    _fields = ("cycle",)

    def __init__(self, cycle: int):
        super().__init__(_int(cycle, "cycle index"))


class FuseCycles(Record):
    """Lay two equal-order cycles on C_n(1, step): the first cycle's labels
    go to the consecutive edges, the second's to the step-cycle edges in
    traversal order from vertex 0."""

    _fields = ("first", "second", "step")

    def __init__(self, first: int, second: int, step: int):
        super().__init__(_int(first, "cycle index"), _int(second, "cycle index"),
                         _int(step, "step"))


class MergeCycle(Record):
    """Collapse one cycle by a vertex merge plan (a ``MergePlan``) of
    matching order."""

    _fields = ("cycle", "plan")

    def __init__(self, cycle: int, plan):
        super().__init__(_int(cycle, "cycle index"), plan)


Directive = KeepCycle | FuseCycles | MergeCycle


def transform_union(
    spec: UnionSpec, labeling: EdgeLabeling, directives: list[Directive]
) -> Labeled:
    """Rebuild a labeled union with some cycles fused into circulants or
    collapsed by merge plans, reattached at the old central vertex.

    Labels travel with their edges, so every constituent keeps its local
    sums and the induced coloring of the result can be read off from the
    original one.  Each cycle must be consumed by exactly one directive.
    The result is verified to be local antimagic before returning.
    """
    from .circulants import CirculantSpec, _circulant_part
    from .cycle_merge import MergePlan, _merged_part
    if len(labeling) != spec.m:
        raise ValueError("labeling does not match the union's edge count")
    starts = [0] + list(accumulate(spec.orders))
    slices = [labeling.labels[a:b] for a, b in zip(starts, starts[1:])]

    consumed: set[int] = set()

    def take(cycle: int) -> tuple[int, ...]:
        if not 0 <= cycle < spec.r:
            raise ValueError(f"cycle index {cycle} out of range")
        if cycle in consumed:
            raise ValueError(f"cycle {cycle} used by two directives")
        consumed.add(cycle)
        return slices[cycle]

    # Every constituent attaches at its vertex 0: the cycles' v_0, and for
    # a merge the block holding v_0, which the plan ranks first.  Only the
    # union they make up is built as a graph and checked.
    parts: list = []
    labels: list[int] = []
    for d in directives:
        if isinstance(d, KeepCycle):
            labels.extend(take(d.cycle))
            parts.append(_cycle_part(spec.orders[d.cycle]))
        elif isinstance(d, FuseCycles):
            labels.extend(take(d.first))
            labels.extend(take(d.second))
            n = spec.orders[d.first]
            if spec.orders[d.second] != n:
                raise ValueError("fused cycles must have equal order")
            parts.append(_circulant_part(CirculantSpec(n, (1, d.step))))
        elif isinstance(d, MergeCycle):
            if not isinstance(d.plan, MergePlan):
                raise ValueError(f"merge plan {d.plan!r} is not a MergePlan")
            labels.extend(take(d.cycle))
            parts.append(_merged_part(_cycle_part(spec.orders[d.cycle]), d.plan))
        else:
            raise TypeError(f"unknown directive {d!r}")
    if consumed != set(range(spec.r)):
        missing = sorted(set(range(spec.r)) - consumed)
        raise ValueError(f"cycles {missing} not consumed by any directive")

    graph = _union(parts, [0] * len(parts))
    new_labeling = EdgeLabeling(tuple(labels))
    try:
        coloring = certify(f"transformed union of {spec.orders}", graph, new_labeling)
    except CertificationError:
        # Each cycle is consumed once, so these are the input's labels: labels
        # that are no bijection are an input error, not a certification bug.
        validate_labeling(graph, new_labeling)
        raise
    return Labeled(graph, new_labeling, coloring)
