import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_antimagic import (
    CertificationError,
    CirculantSpec,
    EdgeLabeling,
    Graph,
    KeepCycle,
    UnionSpec,
    build_construction_matrix,
    build_cycle,
    c_labeling,
    case_plan,
    circulant_labeling,
    transform_cycle,
    transform_union,
    check_two_color_necessary,
    color_count,
    induced_coloring,
    union_2labeling_family1,
    union_2labeling_family2,
    union_3labeling,
    validate_labeling,
)
from local_antimagic import labelings, unions
from local_antimagic.labelings import certify
from local_antimagic.reproduce import counterexample_graph

from conftest import assert_two_color_identity, complement, edge_deleted


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
def test_complement_preserves_color_count_on_regular_graphs(gf):
    g, f = gf
    coloring, complemented = induced_coloring(g, f), induced_coloring(g, complement(g, f))
    assert bool(coloring.conflicts) == bool(complemented.conflicts)
    if not coloring.conflicts:
        assert len(coloring.colors) == len(complemented.colors)


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
    assert not induced_coloring(g2, f2).conflicts
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
    # Not regular: the sums and degrees meet the conditions under which
    # q+1-f stays local antimagic with as many sums.
    assert len(certify("complement", g, complement(g, f)).colors) == len(result.coloring.colors)


def test_edge_deletion_lemma_on_cycle():
    m = 12
    g, f = build_cycle(m), c_labeling(m)
    e = f.labels.index(1)
    h, fd = edge_deleted(g, f, e)
    coloring = induced_coloring(h, fd)
    assert not coloring.conflicts
    assert len(coloring.colors) <= 3
    # Every sum dropped by exactly the old degree.
    old = induced_coloring(g, f).sums
    assert all(coloring.sums[v] == old[v] - g.degrees[v] for v in range(g.n))


def test_two_color_verdict_on_counterexample():
    g = counterexample_graph()
    verdict = check_two_color_necessary(g)
    assert verdict.bipartite
    # Unequal parts, each dividing (q+1 choose 2) = 36.
    assert verdict.part_sizes == (4, 3) and g.q == 8
    # Even size with a pendant still rules two colors out.
    assert verdict.pendant_count == 1 and g.q % 2 == 0
    assert not verdict.two_colors_possible


def test_two_color_identity_on_union_labeling():
    result = union_2labeling_family1(4)
    assert_two_color_identity(result.graph, result.labeling)


def test_certify_returns_the_coloring_of_a_good_construction():
    g, f = build_cycle(8), c_labeling(8)
    assert certify("C_8", g, f, frozenset({6, 9, 10})) == induced_coloring(g, f)


def test_certify_names_the_conflicting_pair_and_sum():
    # Again on the second call, when the graph keeps the coloring.
    multi, f = Graph(2, ((0, 1), (0, 1))), EdgeLabeling((1, 2))
    for _ in range(2):
        with pytest.raises(
            CertificationError, match="^double edge: adjacent vertices 0 and 1 share the sum 3$"
        ):
            certify("double edge", multi, f)


def test_certify_names_both_sum_sets():
    with pytest.raises(
        CertificationError, match=r"^C_8: induced sums \[6, 9, 10\], expected \[1, 2\]$"
    ):
        certify("C_8", build_cycle(8), c_labeling(8), frozenset({1, 2}))


def test_validate_keeps_the_bijection_message():
    # It names the count when that is wrong, else the least and the
    # greatest label and how many labels are distinct.
    g = build_cycle(4)
    for labels, got in (((1, 2, 2, 4), "labels 1..4, 3 distinct"),
                        ((0, 1, 2, 3), "labels 0..3, 4 distinct"),
                        ((1, 2, 3, 5), "labels 1..5, 4 distinct"),
                        ((4, 3, 2, 1, 5), "5 labels"), ((1, 2, 3), "3 labels")):
        message = f"labeling must be a bijection onto 1..4, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_labeling(g, EdgeLabeling(labels))
    validate_labeling(g, EdgeLabeling((4, 2, 3, 1)))
    validate_labeling(Graph(2, ()), EdgeLabeling(()))


def test_edge_labeling_coerces_like_int():
    # Labels are converted by operator.index, so numpy ints count as ints
    # and a bool, a float or a str is refused, not truncated.
    f = EdgeLabeling((np.int64(1), 3, np.int32(2)))
    assert f.labels == (1, 3, 2)
    assert [type(x) for x in f.labels] == [int] * 3
    assert EdgeLabeling([2, 1]).labels == (2, 1)
    exact = (3, 1, 2)
    assert EdgeLabeling(exact).labels is exact
    with pytest.raises(TypeError):
        EdgeLabeling(5)
    for bad in (1.0, True, 2.9, "x"):
        with pytest.raises(ValueError) as info:
            EdgeLabeling([1, bad])
        assert str(info.value) == f"label {bad!r} is not an int"


@pytest.fixture
def validations(monkeypatch):
    """The labelings validate_labeling checks, in call order."""
    calls, validate = [], labelings.validate_labeling
    for module in (labelings, unions):
        monkeypatch.setattr(module, "validate_labeling",
                            lambda g, f: calls.append(f) or validate(g, f))
    return calls


def plain_sums(g, labels):
    sums = [0] * g.n
    for (u, v), x in zip(g.edges, labels):
        sums[u] += x
        sums[v] += x
    return tuple(sums)


def test_a_graph_keeps_only_the_coloring_of_its_own_last_labels(validations):
    g, f = build_cycle(8), c_labeling(8)
    first = induced_coloring(g, f)
    assert induced_coloring(g, f) is first and validations == [f]
    shifted = EdgeLabeling(f.labels[1:] + f.labels[:1])
    assert induced_coloring(g, shifted).sums == plain_sums(g, shifted.labels) != first.sums
    assert validations == [f, shifted]
    # A path with as many edges: its own sums, never the cycle's entry.
    path = Graph(9, [(v, v + 1) for v in range(8)])
    assert induced_coloring(path, f).sums == plain_sums(path, f.labels)
    assert validations == [f, shifted, f]
    assert induced_coloring(g, f) == first and validations[-1] is f


def test_equal_but_distinct_labels_give_equal_colorings(validations):
    g, f = build_cycle(9), c_labeling(9)
    copied = EdgeLabeling(tuple(list(f.labels)))
    assert copied.labels == f.labels and copied.labels is not f.labels
    assert induced_coloring(g, f) == induced_coloring(g, copied)
    assert validations == [f, copied]


def test_a_non_bijection_raises_every_time(validations):
    g, good, bad = build_cycle(4), EdgeLabeling((1, 2, 3, 4)), EdgeLabeling((1, 2, 2, 4))
    coloring = induced_coloring(g, good)
    for _ in range(2):
        with pytest.raises(ValueError, match="bijection onto 1..4"):
            induced_coloring(g, bad)
    assert induced_coloring(g, good) is coloring
    assert validations == [good, bad, bad]


def test_a_verified_graph_pickles_copies_and_compares_as_before():
    g, f = build_cycle(8), c_labeling(8)
    before = pickle.dumps(g)
    induced_coloring(g, f)
    assert pickle.dumps(g) == before
    assert "_coloring" not in vars(pickle.loads(before))
    for twin in (pickle.loads(before), copy.copy(g), copy.deepcopy(g), build_cycle(8)):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert "_coloring" not in vars(twin)


def test_sums_share_one_int_per_distinct_sum():
    coloring = induced_coloring(build_cycle(1000), c_labeling(1000))
    assert min(coloring.colors) > 256  # past the interpreter's cached small ints
    assert len(set(map(id, coloring.sums))) == len(coloring.colors) == 3


CERTIFYING_CONSTRUCTORS = {
    "union_2labeling_family1": lambda: union_2labeling_family1(5),
    "union_2labeling_family2": lambda: union_2labeling_family2(5),
    "union_3labeling": lambda: union_3labeling(UnionSpec((16, 20))),
    "circulant_labeling": lambda: circulant_labeling(CirculantSpec(16, (1, 3))),
    "transform_cycle": lambda: transform_cycle(case_plan(1, 3).n, case_plan(1, 3)),
    "build_construction_matrix": lambda: build_construction_matrix(3, 2),
    # The input union is built once, at import, so only the transform's
    # own certification is counted.
    "transform_union": lambda labeled=union_2labeling_family1(5): transform_union(
        labeled.spec, labeled.labeling, [KeepCycle(i) for i in range(5)]),
}


@pytest.mark.parametrize("name", CERTIFYING_CONSTRUCTORS)
def test_checking_a_returned_construction_validates_nothing_again(validations, name):
    built = CERTIFYING_CONSTRUCTORS[name]()
    g, f = built if isinstance(built, tuple) else (built.graph, built.labeling)
    assert validations == [f]
    assert not induced_coloring(g, f).conflicts
    color_count(g, f)
    assert validations == [f]
