import json
import random
from itertools import permutations

import pytest

from local_antimagic import (
    BudgetExceeded,
    CirculantSpec,
    EdgeLabeling,
    Graph,
    SearchBudget,
    build_circulant,
    build_cycle,
    check_two_color_necessary,
    chromatic_number,
    color_count,
    exact_chi_la,
    feasible_with_colors,
    induced_coloring,
    is_local_antimagic,
)
from local_antimagic.labelings import certify
from local_antimagic.oracle import BUDGET_ENV, Bounds, _construction, _Search
from local_antimagic.reproduce import counterexample_graph

from conftest import DATA, random_connected_graph


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
        exact_chi_la(complete_bipartite(3, 3), SearchBudget(node_limit=5))
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


def test_search_deeper_than_the_recursion_limit():
    path = Graph(1501, tuple((v, v + 1) for v in range(1500)))
    search = _Search(path, SearchBudget(max_edges=2000))
    found = search.run(1501)
    assert search.nodes == 1500
    assert not induced_coloring(path, EdgeLabeling(tuple(found))).conflicts


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
    search = _Search(build_cycle(13), SearchBudget(max_edges=13))
    assert search.run(3) == [1, 13, 2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7]
    assert search.nodes == 17938
    assert exact_chi_la(build_cycle(13), SearchBudget(max_edges=13)).nodes == 0
    search = _Search(complete_bipartite(4, 4), SearchBudget(max_edges=16))
    found = search.run(3)
    assert found == [1, 2, 3, 4, 15, 14, 8, 5, 12, 11, 10, 9, 6, 7, 13, 16]
    assert search.nodes == 988637


def test_search_order_is_pinned_on_random_multigraphs():
    # The file records (witness, nodes) of run(k), k = 1..4, on these 150
    # seeded multigraphs with q <= 8, parallel edges included.
    rng = random.Random(20201009)
    for pin in json.loads((DATA / "search_pins.json").read_text()):
        g = random_connected_multigraph(rng, rng.randrange(1, 9))
        assert (g.n, [list(e) for e in g.edges]) == (pin["n"], pin["edges"])
        search = _Search(g, SearchBudget(max_edges=20))
        for k, witness, nodes in pin["runs"]:
            before = search.nodes
            assert (search.run(k), search.nodes - before) == (witness, nodes), (g.edges, k)


def test_regular_symmetry_does_not_lose_optima():
    # C_4 and C_6 are regular, so the first-edge restriction is active;
    # values must still match plain enumeration.
    for m in (4, 5, 6):
        assert exact_chi_la(build_cycle(m)).value == brute_force_chi_la(build_cycle(m))


def connected_atlas_graphs() -> list[Graph]:
    """Every connected graph of the networkx atlas (up to 7 vertices)
    with at least 3 vertices and at most 8 edges."""
    nx = pytest.importorskip("networkx")
    return [
        Graph(h.number_of_nodes(), tuple(h.edges()))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() >= 3 and h.number_of_edges() <= 8 and nx.is_connected(h)
    ]


def test_bounds_agree_with_raw_search_on_an_atlas_sample():
    graphs = connected_atlas_graphs()
    # Every cycle in range takes the construction path; the seeded sample
    # covers the rest of the atlas.
    cycles = [g for g in graphs if set(g.degrees) == {2}]
    assert len(cycles) == 5
    for g in cycles + random.Random(20201004).sample(graphs, 36):
        k = chromatic_number(g)
        search = _Search(g, SearchBudget())
        while (found := search.run(k)) is None:
            k += 1
        assert not induced_coloring(g, EdgeLabeling(found)).conflicts
        result = exact_chi_la(g)
        assert result.value == k, g.edges
        coloring = induced_coloring(g, result.witness)
        assert not coloring.conflicts and len(coloring.colors) == k
        assert result.bounds.lower <= k == result.bounds.upper
        assert (result.nodes == 0) == (result.bounds.upper_source != "search witness")


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed and its edges reordered at random."""
    names = list(range(g.n))
    rng.shuffle(names)
    edges = [(names[u], names[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, tuple(edges))


@pytest.mark.parametrize(
    "g,source",
    [
        (shuffled(build_circulant(CirculantSpec(10, (1, 3))), random.Random(8)),
         "circulant labeling C_10(1, 3)"),
        (complete_bipartite(4, 4), "circulant labeling C_8(1, 3)"),
        (shuffled(build_cycle(9), random.Random(9)), "cycle labeling C_9"),
    ],
    ids=["C10_1_3-shuffled", "K44", "C9-shuffled"],
)
def test_constructions_settle_without_search(g, source):
    # node_limit=0 makes any search raise on its first node.
    budget = SearchBudget(max_edges=g.q, node_limit=0)
    result = exact_chi_la(g, budget)
    assert (result.value, result.nodes) == (3, 0)
    lower = "chromatic number" if g.n % 2 else "two-sum conditions"
    assert result.bounds == Bounds(3, lower, 3, source)
    assert len(certify("carried witness", g, result.witness).colors) == 3
    assert feasible_with_colors(g, 3, budget) == result.witness
    assert feasible_with_colors(g, 5, budget) == result.witness
    assert feasible_with_colors(g, 2, budget) is None


def test_other_graphs_are_searched_or_refused_as_before():
    triangles = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    double_edge = Graph(2, ((0, 1), (0, 1)))
    for g in (double_edge, triangles, complete_bipartite(3, 3), counterexample_graph()):
        assert _construction(g) is None
    with pytest.raises(ValueError, match="no local antimagic"):
        exact_chi_la(double_edge)
    for g in (triangles, complete_bipartite(3, 3), counterexample_graph()):
        result = exact_chi_la(g)
        assert result.nodes > 0 and result.bounds.upper_source == "search witness"
        with pytest.raises(BudgetExceeded):
            feasible_with_colors(g, 3, SearchBudget(node_limit=0))
