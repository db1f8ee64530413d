import random
from itertools import permutations

import pytest

from local_antimagic import (
    BudgetExceeded,
    EdgeLabeling,
    Graph,
    SearchBudget,
    build_cycle,
    check_two_color_necessary,
    chromatic_number,
    color_count,
    exact_chi_la,
    feasible_with_colors,
    induced_coloring,
    is_local_antimagic,
)
from local_antimagic.oracle import BUDGET_ENV, _Search
from local_antimagic.reproduce import counterexample_graph

from conftest import random_connected_graph


def brute_force_chi_la(g: Graph) -> int | None:
    """Reference value by plain enumeration of all label permutations;
    None when no labeling is local antimagic."""
    best = None
    for perm in permutations(range(1, g.q + 1)):
        f = EdgeLabeling(perm)
        coloring = induced_coloring(g, f)
        if coloring.conflicts:
            continue
        if best is None or len(coloring.colors) < best:
            best = len(coloring.colors)
    return best


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((u, a + v) for u in range(a) for v in range(b)))


def test_chromatic_number_known_values():
    assert chromatic_number(build_cycle(4)) == 2
    assert chromatic_number(build_cycle(5)) == 3
    k4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    assert chromatic_number(k4) == 4
    assert chromatic_number(Graph(3, ())) == 1


@pytest.mark.parametrize("m", range(3, 8))
def test_cycles_need_three_sums(m):
    result = exact_chi_la(build_cycle(m))
    assert result.value == 3
    assert color_count(build_cycle(m), result.witness)[0] == 3


def test_matches_brute_force_on_tiny_graphs(rng):
    for _ in range(12):
        g = random_connected_graph(rng, rng.randrange(3, 6), rng.randrange(0, 3))
        if g.q > 6 or (g.n == 2 and g.q == 1):
            continue
        assert exact_chi_la(g).value == brute_force_chi_la(g)


def test_single_edge_has_no_labeling():
    with pytest.raises(ValueError, match="no local antimagic"):
        exact_chi_la(Graph(2, ((0, 1),)))


def test_counterexample_needs_three():
    g = counterexample_graph()
    assert feasible_with_colors(g, 2) is None
    witness = feasible_with_colors(g, 3)
    assert witness is not None
    assert color_count(g, witness)[0] <= 3
    assert exact_chi_la(g).value == 3


def test_random_corpus_respects_chromatic_bound(rng):
    for _ in range(50):
        n = rng.randrange(4, 9)
        g = random_connected_graph(rng, n, rng.randrange(0, 3))
        if g.q > 9:
            continue
        result = exact_chi_la(g)
        assert result.value >= chromatic_number(g)
        assert is_local_antimagic(g, result.witness)
        assert color_count(g, result.witness)[0] == result.value


def test_budget_enforced():
    g = build_cycle(12)
    with pytest.raises(BudgetExceeded):
        exact_chi_la(g, SearchBudget(max_edges=10))
    assert exact_chi_la(g, SearchBudget(max_edges=12)).value == 3


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "4")
    assert SearchBudget().max_edges == 4
    monkeypatch.delenv(BUDGET_ENV)
    assert SearchBudget().max_edges == 10


def test_node_limit():
    with pytest.raises(BudgetExceeded, match="node limit") as info:
        exact_chi_la(build_cycle(9), SearchBudget(node_limit=5))
    assert info.value.nodes == 6


def test_time_limit_is_checked_every_1024_nodes():
    with pytest.raises(BudgetExceeded, match="time limit") as info:
        exact_chi_la(complete_bipartite(3, 3), SearchBudget(time_limit=0.0))
    assert info.value.nodes == 1024


def test_budget_exceeded_counts_nodes_over_every_k():
    # chi_la = 5 here; k = 3 fails after 205 nodes, then k = 4 hits the cap.
    g = Graph(6, ((0, 4), (1, 4), (2, 4), (3, 5), (4, 5)))
    with pytest.raises(BudgetExceeded) as info:
        exact_chi_la(g, SearchBudget(node_limit=300))
    assert info.value.nodes == 205 + 301
    with pytest.raises(BudgetExceeded) as info:
        exact_chi_la(build_cycle(12), SearchBudget(max_edges=10))
    assert info.value.nodes == 0


def test_oversized_cycle_hits_the_budget_not_the_recursion_limit():
    with pytest.raises(BudgetExceeded):
        exact_chi_la(build_cycle(2001))
    assert chromatic_number(build_cycle(2001)) == 3
    assert chromatic_number(build_cycle(2000)) == 2


def random_connected_multigraph(rng: random.Random, q: int) -> Graph:
    """A random spanning tree on at most q+1 vertices, plus random extra
    edges that may run parallel to earlier ones."""
    n = rng.randrange(2, q + 2)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < q:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return Graph(n, tuple(edges))


def test_two_sum_refutation_matches_brute_force():
    rng = random.Random(20201004)
    refuted = 0
    for _ in range(600):
        g = random_connected_multigraph(rng, rng.randrange(1, 7))
        best = brute_force_chi_la(g)
        if not check_two_color_necessary(g).two_colors_possible:
            refuted += 1
            assert best is None or best >= 3, g.edges
            assert feasible_with_colors(g, 2) is None
        if best is None:
            with pytest.raises(ValueError, match="no local antimagic"):
                exact_chi_la(g)
        else:
            assert exact_chi_la(g).value == best, g.edges
    assert refuted > 300


@pytest.mark.parametrize(
    "g",
    [build_cycle(6), build_cycle(8), build_cycle(10), complete_bipartite(3, 3),
     counterexample_graph()],
    ids=["C6", "C8", "C10", "K33", "counterexample"],
)
def test_raw_search_finds_no_two_sum_labeling(g):
    # The refutation skips these searches; exhaustive search agrees.
    assert _Search(g, SearchBudget()).run(2) is None


def test_disconnected_graph_is_searched_not_refuted():
    two_squares = Graph(8, build_cycle(4).edges + tuple(
        (u + 4, v + 4) for u, v in build_cycle(4).edges))
    assert not check_two_color_necessary(two_squares).two_colors_possible
    with pytest.raises(BudgetExceeded):
        feasible_with_colors(two_squares, 2, SearchBudget(node_limit=0))
    assert feasible_with_colors(build_cycle(4), 2, SearchBudget(node_limit=0)) is None


def test_k44_has_no_two_sum_labeling():
    assert feasible_with_colors(complete_bipartite(4, 4), 2,
                                SearchBudget(max_edges=16, node_limit=0)) is None


def test_witnesses_and_node_counts_are_pinned():
    result = exact_chi_la(build_cycle(13), SearchBudget(max_edges=13))
    assert result.witness.labels == (1, 13, 2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7)
    assert result.nodes == 17938
    search = _Search(complete_bipartite(4, 4), SearchBudget(max_edges=16))
    found = search.run(3)
    assert found == [1, 2, 3, 4, 15, 14, 8, 5, 12, 11, 10, 9, 6, 7, 13, 16]
    assert search.nodes == 988637


def test_regular_symmetry_does_not_lose_optima():
    # C_4 and C_6 are regular, so the first-edge restriction is active;
    # values must still match plain enumeration.
    for m in (4, 5, 6):
        assert exact_chi_la(build_cycle(m)).value == brute_force_chi_la(build_cycle(m))
