import pytest

from local_antimagic import (
    FuseCycles,
    KeepCycle,
    MergeCycle,
    UnionSpec,
    case_plan,
    check_two_color_necessary,
    induced_coloring,
    partite_classes,
    transform_union,
    two_color_identity_holds,
    union_2labeling_family1,
    union_2labeling_family2,
    union_3labeling,
    union_graph,
)
from local_antimagic.graphs import sorted_edge_keys
from local_antimagic.unions import family1_sequences, family2_sequences


def test_union_graph_shape():
    spec = UnionSpec((5, 4, 3))
    g = union_graph(spec)
    assert g.n == 5 + 4 + 3 - 2
    assert g.q == 12
    assert g.degrees[0] == 6
    assert sorted(g.degrees)[:-1] == [2] * (g.n - 1)


def test_union_spec_validation():
    with pytest.raises(ValueError):
        UnionSpec((5,))
    with pytest.raises(ValueError):
        UnionSpec((5, 2))


@pytest.mark.parametrize("r", range(3, 14))
def test_family1_two_colors(r):
    result = union_2labeling_family1(r)
    low, high = 4 * r * r - 4 * r + 1, 4 * r * r - 2 * r
    assert result.colors == frozenset({low, high})
    assert result.central_sum == high
    assert two_color_identity_holds(result.graph, result.labeling)


def test_family1_sequence_endpoints():
    r = 7
    seqs = family1_sequences(r)
    for i in range(1, r):
        # Copy i opens with label i and closes with 2r-1-i.
        assert seqs[i - 1][0] == i
        assert seqs[i - 1][-1] == 2 * r - 1 - i
    assert seqs[-1][0] == 2 * r - 1
    assert seqs[-1][-1] == r * (2 * r - 1)


@pytest.mark.parametrize("r", (5, 7, 9, 11, 17))
def test_family2_two_colors(r):
    result = union_2labeling_family2(r)
    low, high = 2 * r * r - r, 2 * r * r + r
    assert result.colors == frozenset({low, high})
    assert result.central_sum == high
    assert two_color_identity_holds(result.graph, result.labeling)


def test_family2_rejects_even_or_small_r():
    with pytest.raises(ValueError):
        union_2labeling_family2(6)
    with pytest.raises(ValueError):
        union_2labeling_family2(3)


def test_family_sequences_partition_labels():
    r = 9
    m = 4 * r * r - 4 * r
    labels = [x for seq in family1_sequences(r) for x in seq]
    assert sorted(labels) == list(range(1, m + 1))
    m2 = 2 * r * r - r - 1
    labels2 = [x for seq in family2_sequences(r) for x in seq]
    assert sorted(labels2) == list(range(1, m2 + 1))


@pytest.mark.parametrize("orders", ((16, 16), (16, 20), (20, 20, 24)))
def test_union_3labeling(orders):
    spec = UnionSpec(orders)
    result = union_3labeling(spec)
    m = spec.m
    assert result.colors == frozenset({m, m + 1, spec.r * m + m // 2})
    sums = induced_coloring(result.graph, result.labeling).sums
    assert set(sums[1:]) == {m, m + 1}


def test_union_3labeling_domain():
    with pytest.raises(ValueError):
        union_3labeling(UnionSpec((16, 15)))
    with pytest.raises(ValueError):
        union_3labeling(UnionSpec((16, 14)))


def test_transform_union_family1_r9():
    labeled = union_2labeling_family1(9)
    directives = [FuseCycles(2 * i, 2 * i + 1, 3) for i in range(4)]
    directives.append(MergeCycle(8, case_plan(1, 2)))
    result = transform_union(labeled.spec, labeled.labeling, directives)
    assert result.colors == frozenset({578, 612})
    assert result.central_sum == 612
    assert result.graph.degrees[0] == 4 * 2 * 2 + 4


def test_transform_union_fuse_step_choice_is_free():
    labeled = union_2labeling_family1(9)
    directives = [
        FuseCycles(0, 1, 3),
        FuseCycles(2, 3, 5),
        FuseCycles(4, 5, 9),
        FuseCycles(6, 7, 15),
        MergeCycle(8, case_plan(1, 2)),
    ]
    result = transform_union(labeled.spec, labeled.labeling, directives)
    assert result.colors == frozenset({578, 612})


def test_transform_union_keep_passthrough():
    labeled = union_2labeling_family1(5)
    directives = [KeepCycle(i) for i in range(5)]
    result = transform_union(labeled.spec, labeled.labeling, directives)
    assert result.colors == labeled.colors
    g, h = result.graph, labeled.graph
    assert sorted_edge_keys(g.n, g.edges) == sorted_edge_keys(h.n, h.edges)


@pytest.mark.parametrize(
    "orders,plans",
    (
        ((16, 16), ((1, 2), (1, 2))),
        ((16, 20), ((1, 2), (2, 2))),
        ((20, 20, 24), ((2, 2), (2, 2), (1, 3))),
    ),
)
def test_transform_union_3labeled_shapes_force_three_colors(orders, plans):
    spec = UnionSpec(orders)
    labeled = union_3labeling(spec)
    directives = [
        MergeCycle(i, case_plan(case, k)) for i, (case, k) in enumerate(plans)
    ]
    result = transform_union(spec, labeled.labeling, directives)
    m = spec.m
    assert result.colors == frozenset({2 * m, 2 * m + 2, result.central_sum})
    assert partite_classes(result.graph, 2) is not None
    verdict = check_two_color_necessary(result.graph)
    assert not verdict.divisibility_ok
    assert verdict.forced_at_least_three


def test_transform_union_consumption_checks():
    labeled = union_2labeling_family1(3)
    with pytest.raises(ValueError, match="not consumed"):
        transform_union(labeled.spec, labeled.labeling, [KeepCycle(0)])
    with pytest.raises(ValueError, match="two directives"):
        transform_union(
            labeled.spec,
            labeled.labeling,
            [KeepCycle(0), KeepCycle(0), KeepCycle(1), KeepCycle(2)],
        )
    with pytest.raises(ValueError, match="equal order"):
        transform_union(
            labeled.spec, labeled.labeling, [FuseCycles(0, 2, 3), KeepCycle(1)]
        )
