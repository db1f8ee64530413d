"""One-point unions of cycles: explicit labelings with two or three
induced sums, and the transform that fuses or merges the constituent
cycles while keeping the label assignment.

All labelings here are indexed globally: the edges of the i-th cycle
occupy consecutive positions, with the first and last edge of each cycle
incident to the shared central vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Union

from .graphs import (
    CertificationError,
    CirculantSpec,
    Graph,
    MergePlan,
    _circulant_part,
    _cycle_part,
    _merged_part,
    _union,
)
from .labelings import EdgeLabeling, certify, validate_labeling


@dataclass(frozen=True)
class UnionSpec:
    """Orders of the cycles in a one-point union, in attachment order."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(a) for a in self.orders))
        if len(self.orders) < 2:
            raise ValueError("a union needs at least two cycles")
        if any(a < 3 for a in self.orders):
            raise ValueError("every cycle order must be at least 3")

    @property
    def r(self) -> int:
        return len(self.orders)

    @property
    def m(self) -> int:
        return sum(self.orders)


def union_graph(spec: UnionSpec) -> Graph:
    return _union([_cycle_part(a) for a in spec.orders], [0] * spec.r)


@dataclass(frozen=True)
class UnionLabelingResult:
    spec: UnionSpec
    graph: Graph
    labeling: EdgeLabeling
    colors: frozenset[int]
    central_sum: int


def _finish(spec: UnionSpec, labels: list[int],
            expected: frozenset[int], central: int) -> UnionLabelingResult:
    graph = union_graph(spec)
    labeling = EdgeLabeling(tuple(labels))
    what = f"union labeling of {spec.orders}"
    coloring = certify(what, graph, labeling, expected)
    if coloring.sums[0] != central:
        raise CertificationError(f"{what}: central sum {coloring.sums[0]}, expected {central}")
    return UnionLabelingResult(spec, graph, labeling, coloring.colors, central)


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


@dataclass(frozen=True)
class KeepCycle:
    """Leave one cycle of the union untouched."""

    cycle: int


@dataclass(frozen=True)
class FuseCycles:
    """Lay two equal-order cycles on C_n(1, step): the first cycle's labels
    go to the consecutive edges, the second's to the step-cycle edges in
    traversal order from vertex 0."""

    first: int
    second: int
    step: int


@dataclass(frozen=True)
class MergeCycle:
    """Collapse one cycle by a vertex merge plan of matching order."""

    cycle: int
    plan: MergePlan


Directive = Union[KeepCycle, FuseCycles, MergeCycle]


@dataclass(frozen=True)
class UnionTransformResult:
    graph: Graph
    labeling: EdgeLabeling
    colors: frozenset[int]
    central_sum: int


def transform_union(
    spec: UnionSpec, labeling: EdgeLabeling, directives: list[Directive]
) -> UnionTransformResult:
    """Rebuild a labeled union with some cycles fused into circulants or
    collapsed by merge plans, reattached at the old central vertex.

    Labels travel with their edges, so every constituent keeps its local
    sums and the induced coloring of the result can be read off from the
    original one.  Each cycle must be consumed by exactly one directive.
    The result is verified to be local antimagic before returning.
    """
    if len(labeling) != spec.m:
        raise ValueError("labeling does not match the union's edge count")
    starts = [0] + list(accumulate(spec.orders))
    slices = [
        list(labeling.labels[starts[i] : starts[i + 1]]) for i in range(spec.r)
    ]

    consumed: set[int] = set()

    def take(cycle: int) -> list[int]:
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
            labels.extend(take(d.cycle))
            parts.append(_merged_part(_cycle_part(spec.orders[d.cycle]), d.plan))
        else:
            raise TypeError(f"unknown directive {d!r}")
    if consumed != set(range(spec.r)):
        missing = sorted(set(range(spec.r)) - consumed)
        raise ValueError(f"cycles {missing} not consumed by any directive")

    graph = _union(parts, [0] * len(parts))
    new_labeling = EdgeLabeling(tuple(labels))
    # Every cycle is consumed once, so these are the input's labels in a
    # new order: a failure here is an input error, not a certification bug.
    validate_labeling(graph, new_labeling)
    coloring = certify(f"transformed union of {spec.orders}", graph, new_labeling)
    return UnionTransformResult(
        graph, new_labeling, coloring.colors, coloring.sums[0]
    )
