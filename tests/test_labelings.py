import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_antimagic import (
    CertificationError,
    EdgeLabeling,
    Graph,
    build_cycle,
    c_labeling,
    case_plan,
    transform_cycle,
    check_edge_deletion_lemma,
    check_nonreg_conditions,
    check_two_color_necessary,
    color_count,
    complement_labeling,
    deleted_edge_labeling,
    delete_edge,
    induced_coloring,
    is_local_antimagic,
    two_color_identity_holds,
    union_2labeling_family1,
    validate_labeling,
)
from local_antimagic.labelings import certify
from local_antimagic.reproduce import counterexample_graph


def cycle_with_permutation(min_m=3, max_m=9):
    return st.integers(min_m, max_m).flatmap(
        lambda m: st.permutations(list(range(1, m + 1))).map(
            lambda p: (build_cycle(m), EdgeLabeling(tuple(p)))
        )
    )


def test_validate_rejects_non_bijections():
    g = build_cycle(4)
    with pytest.raises(ValueError):
        validate_labeling(g, EdgeLabeling((1, 2, 3)))
    with pytest.raises(ValueError):
        validate_labeling(g, EdgeLabeling((1, 2, 2, 4)))
    with pytest.raises(ValueError):
        validate_labeling(g, EdgeLabeling((0, 1, 2, 3)))


@given(cycle_with_permutation())
@settings(max_examples=60, deadline=None)
def test_sum_of_induced_sums_is_twice_label_total(gf):
    g, f = gf
    coloring = induced_coloring(g, f)
    assert sum(coloring.sums) == g.q * (g.q + 1)


@given(cycle_with_permutation())
@settings(max_examples=60, deadline=None)
def test_complement_is_an_involution(gf):
    g, f = gf
    assert complement_labeling(g, complement_labeling(g, f)).labels == f.labels


@given(cycle_with_permutation())
@settings(max_examples=60, deadline=None)
def test_complement_preserves_color_count_on_regular_graphs(gf):
    g, f = gf
    fc = complement_labeling(g, f)
    assert is_local_antimagic(g, f) == is_local_antimagic(g, fc)
    if is_local_antimagic(g, f):
        assert color_count(g, f)[0] == color_count(g, fc)[0]


def test_conflicts_are_reported():
    g = build_cycle(4)
    # Labels 1,2,3,4 around the cycle: v1 and v2 collide? v0=1+4, v1=1+2,
    # v2=2+3, v3=3+4: all distinct, actually antimagic. Force a clash:
    f = EdgeLabeling((1, 4, 2, 3))
    coloring = induced_coloring(g, f)
    # v0 = 1+3 = 4, v1 = 1+4 = 5, v2 = 4+2 = 6, v3 = 2+3 = 5: no adjacent
    # pair ties (v1, v3 are non-adjacent).
    assert not coloring.conflicts
    g2 = Graph(3, ((0, 1), (1, 2), (2, 0)))
    f2 = EdgeLabeling((1, 2, 3))
    # v0 = 4, v1 = 3, v2 = 5: antimagic. Try the parallel-edge case:
    assert is_local_antimagic(g2, f2)
    multi = Graph(2, ((0, 1), (0, 1)))
    coloring = induced_coloring(multi, EdgeLabeling((1, 2)))
    assert coloring.conflicts == ((0, 1),)


def test_color_count_requires_local_antimagic():
    multi = Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="not local antimagic"):
        color_count(multi, EdgeLabeling((1, 2)))


def test_nonreg_conditions_guarantee_complement():
    plan = case_plan(5, 2)
    result = transform_cycle(plan.n, plan)
    g, f = result.graph, result.labeling
    assert check_nonreg_conditions(g, f)
    fc = complement_labeling(g, f)
    assert is_local_antimagic(g, fc)
    assert color_count(g, fc)[0] == color_count(g, f)[0]


def test_edge_deletion_lemma_on_cycle():
    m = 12
    g, f = build_cycle(m), c_labeling(m)
    e = f.labels.index(1)
    assert check_edge_deletion_lemma(g, f, e)
    h = delete_edge(g, e)
    fd = deleted_edge_labeling(g, f, e)
    coloring = induced_coloring(h, fd)
    assert not coloring.conflicts
    assert len(coloring.colors) <= 3
    # Every sum dropped by exactly the old degree.
    old = induced_coloring(g, f).sums
    assert all(coloring.sums[v] == old[v] - g.degrees[v] for v in range(g.n))


def test_deleted_edge_labeling_requires_label_one():
    g, f = build_cycle(5), c_labeling(5)
    with pytest.raises(ValueError):
        deleted_edge_labeling(g, f, f.labels.index(3))


def test_two_color_verdict_on_counterexample():
    verdict = check_two_color_necessary(counterexample_graph())
    assert verdict.bipartite
    assert verdict.part_sizes == (4, 3)
    assert verdict.sizes_distinct and verdict.divisibility_ok
    # Even size with a pendant still rules two colors out.
    assert verdict.pendant_count == 1
    assert verdict.even_size_pendant_violation
    assert verdict.forced_at_least_three


def test_two_color_identity_on_union_labeling():
    result = union_2labeling_family1(4)
    assert two_color_identity_holds(result.graph, result.labeling)


def test_two_color_identity_rejects_three_colors():
    g, f = build_cycle(8), c_labeling(8)
    with pytest.raises(ValueError):
        two_color_identity_holds(g, f)


def test_certify_returns_the_coloring_of_a_good_construction():
    g, f = build_cycle(8), c_labeling(8)
    assert certify("C_8", g, f, frozenset({6, 9, 10})) == induced_coloring(g, f)


def test_certify_names_the_conflicting_pair_and_sum():
    multi = Graph(2, ((0, 1), (0, 1)))
    with pytest.raises(
        CertificationError, match="^double edge: adjacent vertices 0 and 1 share the sum 3$"
    ):
        certify("double edge", multi, EdgeLabeling((1, 2)))


def test_certify_names_both_sum_sets():
    with pytest.raises(
        CertificationError, match=r"^C_8: induced sums \[6, 9, 10\], expected \[1, 2\]$"
    ):
        certify("C_8", build_cycle(8), c_labeling(8), frozenset({1, 2}))


def test_validate_keeps_the_bijection_message():
    g = build_cycle(4)
    for labels in ((1, 2, 2, 4), (0, 1, 2, 3), (1, 2, 3, 5), (4, 3, 2, 1, 5), (1, 2, 3)):
        message = f"labeling must be a bijection onto 1..4, got {len(labels)} labels"
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_labeling(g, EdgeLabeling(labels))
    validate_labeling(g, EdgeLabeling((4, 2, 3, 1)))
    validate_labeling(Graph(2, ()), EdgeLabeling(()))


def test_edge_labeling_coerces_like_int():
    f = EdgeLabeling((1.0, True, 3, 2.9))
    assert f.labels == (1, 1, 3, 2)
    assert [type(x) for x in f.labels] == [int] * 4
    assert EdgeLabeling([2, 1]).labels == (2, 1)
    exact = (3, 1, 2)
    assert EdgeLabeling(exact).labels is exact
    with pytest.raises(TypeError):
        EdgeLabeling(5)
    with pytest.raises(ValueError):
        EdgeLabeling(("x",))
