import json
import random
import time
from dataclasses import astuple
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
from local_antimagic import circulants, graphs, labelings, oracle
from local_antimagic.labelings import certify
from local_antimagic.oracle import BUDGET_ENV, Bounds, _bounds, _construction, _cycle, _Search
from local_antimagic.reproduce import counterexample_graph

from conftest import DATA, random_connected_graph, random_connected_multigraph, shuffled


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


def test_chromatic_number_reads_two_colors_off_the_bipartition():
    # 40 disjoint stars K_{1,3} and a triangle: refuting k = 2 by
    # backtracking over the stars' colorings doubles in time per star.
    stars = tuple((c, c + i) for c in range(0, 160, 4) for i in (1, 2, 3))
    g = Graph(163, stars + ((160, 161), (161, 162), (162, 160)))
    start = time.perf_counter()
    assert chromatic_number(g) == 3
    assert time.perf_counter() - start < 1.0
    assert chromatic_number(Graph(0, ())) == 0
    assert chromatic_number(Graph(8, stars[:6])) == 2


def test_chromatic_number_colors_each_component_on_its_own(monkeypatch):
    # s disjoint stars K_{1,3}, then a K_4: colouring the whole graph at
    # once backtracks across the stars' centres, about 3x per star.  Each
    # component is coloured on its own, in place, once at each k it is
    # tried at.
    colored, built = [], []
    real = oracle.first_coloring
    monkeypatch.setattr(oracle, "first_coloring",
                        lambda g, k, vertices: colored.append((vertices, k)) or real(g, k, vertices))
    k4 = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    graphs = []
    for s in (4, 8, 11):
        stars = tuple((c, c + i) for c in range(0, 4 * s, 4) for i in (1, 2, 3))
        graphs.append(Graph(4 * s + 4, stars + tuple((4 * s + u, 4 * s + v) for u, v in k4)))
    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda *args: built.append(args) or init(*args))
    for g in graphs:
        colored.clear()
        assert chromatic_number(g) == 4
        *stars, clique = g.components
        assert colored == [(c, 3) for c in stars] + [(clique, 3), (clique, 4)]
    assert built == []  # no component is copied into a Graph of its own
    monkeypatch.setattr(Graph, "__init__", init)
    # A connected graph is coloured as its one component.
    spokes, rim = ((0, v) for v in range(1, 6)), ((v, v % 5 + 1) for v in range(1, 6))
    wheel = Graph(6, (*spokes, *rim))
    colored.clear()
    assert chromatic_number(wheel) == 4
    assert colored == [(wheel.components[0], 3), (wheel.components[0], 4)]
    # The largest need may come from any component, bipartite ones included.
    triangle, square = ((0, 1), (1, 2), (2, 0)), ((3, 4), (4, 5), (5, 6), (6, 3))
    assert chromatic_number(Graph(7, triangle + square)) == 3
    shifted = tuple((u + 7, v + 7) for u, v in k4)
    assert chromatic_number(Graph(11, triangle + square + shifted)) == 4
    assert chromatic_number(Graph(12, triangle + square + shifted + ((11, 0),))) == 4


def test_pendant_bound_counts_the_pendants_and_one_more(monkeypatch):
    # Pendant sums are their distinct labels, and the end of the edge
    # labelled q that is not a pendant has a sum above q.  A bipartite
    # graph needs no chromatic number past its bipartition pass.
    monkeypatch.setattr(oracle, "chromatic_number", None)
    for s in range(3, 7):
        star = Graph(s + 1, tuple((0, v) for v in range(1, s + 1)))
        assert _bounds(star, star.n) == (s + 1, "pendants", None)
        result = exact_chi_la(star)
        assert result.bounds == Bounds(s + 1, "pendants", s + 1, "search witness")
        assert [run.k for run in result.searches] == [s + 1]
        assert feasible_with_colors(star, s, SearchBudget(node_limit=0)) is None
    monkeypatch.undo()
    # A bound that is not higher keeps the old source.
    path = Graph(3, ((0, 1), (1, 2)))
    assert _bounds(path, path.n) == (3, "two-sum conditions", None)
    paw = Graph(4, ((0, 1), (1, 2), (2, 0), (0, 3)))  # a triangle and a pendant
    assert _bounds(paw, paw.n) == (3, "chromatic number", None)
    # A triangle with a pendant at each vertex: χ = 3 is not higher, so
    # "pendants" stays after the chromatic number is taken.
    net = Graph(6, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)))
    assert _bounds(net, net.n) == (4, "pendants", None)
    bounds = exact_chi_la(net).bounds
    assert (bounds.lower, bounds.lower_source) == (4, "pendants")


def test_bounds_stop_past_k_and_refute_below_the_chromatic_number(monkeypatch):
    def refuse(*args):
        raise AssertionError("sought past k")

    k4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    monkeypatch.setattr(oracle, "_construction", refuse)
    monkeypatch.setattr(oracle, "chromatic_number", refuse)
    assert _bounds(complete_bipartite(4, 4), 2) == (3, "two-sum conditions", None)
    assert _bounds(k4, 2) == (3, "chromatic number", None)
    monkeypatch.undo()
    # χ(K_4) = 4 > 3 refutes k = 3 with no search, so a node cap of 0 is
    # never hit.
    assert _bounds(k4, 3) == (4, "chromatic number", None)
    assert feasible_with_colors(k4, 3, SearchBudget(node_limit=0)) is None


@pytest.mark.parametrize("n,chi", [(8, 4), (10, 4), (12, 3)])
def test_bounds_seek_no_circulant_on_a_graph_that_is_not_bipartite(monkeypatch, n, chi):
    # C_n(1,2) is 4-regular of even order but has triangles, and every
    # even-order circulant with odd steps is bipartite: the bounds go
    # straight to the chromatic number, with the results they always had.
    def refuse(*args):
        raise AssertionError("sought a circulant")

    monkeypatch.setattr(oracle, "build_circulant", refuse)
    monkeypatch.setattr(oracle, "are_isomorphic", refuse)
    g = Graph(n, tuple((j, (j + a) % n) for a in (1, 2) for j in range(n)))
    for k in (2, 3, n):
        assert _bounds(g, k) == (3 if k == 2 else chi, "chromatic number", None)


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


@pytest.mark.parametrize("raw", ["abc", "-5", "4.5"])
def test_budget_env_must_be_a_non_negative_integer(monkeypatch, raw):
    monkeypatch.setenv(BUDGET_ENV, raw)
    with pytest.raises(ValueError, match=f"^{BUDGET_ENV} must be a non-negative integer"):
        SearchBudget()
    assert SearchBudget(max_edges=4).max_edges == 4


def test_node_limit():
    with pytest.raises(BudgetExceeded, match="node limit") as info:
        exact_chi_la(complete_bipartite(3, 3), SearchBudget(node_limit=5))
    assert info.value.nodes == 6


def test_time_limit_is_checked_every_1024_nodes():
    # Refuting k = 3 here takes 1281 nodes.
    g = Graph(5, ((0, 1), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    with pytest.raises(BudgetExceeded, match="time limit") as info:
        exact_chi_la(g, SearchBudget(time_limit=0.0))
    assert info.value.nodes == 1024


# A bowtie (triangles 1-2-6 and 4-5-6) with pendants 0 and 3: chi_la = 5;
# the lower bound is 3, so k = 3, 4 and 5 are searched.
THREE_SEARCHES = Graph(7, ((0, 1), (1, 2), (1, 6), (2, 3), (2, 6), (4, 5), (4, 6), (5, 6)))


def test_budget_exceeded_counts_nodes_over_every_k():
    # k = 3 fails after 29088 nodes, then k = 4 hits the cap.
    with pytest.raises(BudgetExceeded) as info:
        exact_chi_la(THREE_SEARCHES, SearchBudget(node_limit=30000))
    assert info.value.nodes == 29088 + 30001
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
    # Node counts fell when a depth that completes a vertex began to try only
    # labels that land it on a sum the budget still allows: C_13 from 17938,
    # K_{4,4} from 988637, K_{3,3} from 1341, the counterexample from 1185.
    search = _Search(build_cycle(13), SearchBudget(max_edges=13))
    assert search.run(3) == [1, 13, 2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7]
    assert search.nodes == 2589
    assert exact_chi_la(build_cycle(13), SearchBudget(max_edges=13)).nodes == 0
    search = _Search(complete_bipartite(4, 4), SearchBudget(max_edges=16))
    found = search.run(3)
    assert found == [1, 2, 3, 4, 15, 14, 8, 5, 12, 11, 10, 9, 6, 7, 13, 16]
    assert search.nodes == 245061
    # The searched instances of the oracle-corpus benchmark.
    for g, nodes in ((complete_bipartite(3, 3), 671), (counterexample_graph(), 495)):
        result = exact_chi_la(g)
        assert (result.value, result.nodes, [run.k for run in result.searches]) == (3, nodes, [3])


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


def plain_search(g: Graph, k: int) -> tuple[list[int] | None, int]:
    """Reference for ``_Search.run``: the same edge order, ties and sum
    count, but every free label tried at every depth.  Returns the first
    labeling found with at most k sums, and the nodes tried."""
    order = _Search(g, SearchBudget(max_edges=g.q)).order
    labels, sums, left = [0] * g.q, [0] * g.n, list(g.degrees)
    used: dict[int, int] = {}
    isolated = int(0 in g.degrees)
    nodes = 0

    def extend(i: int) -> bool:
        nonlocal nodes
        if i == g.q:
            return True
        e = order[i]
        u, v = g.edges[e]
        top = (g.q + 1) // 2 if i == 0 and g.is_regular() else g.q
        for x in range(1, top + 1):
            if x in labels:
                continue
            nodes += 1
            labels[e] = x
            for w in (u, v):
                sums[w] += x
                left[w] -= 1
            done = [w for w in (u, v) if not left[w]]
            for w in done:
                used[sums[w]] = used.get(sums[w], 0) + 1
            ties = any(sums[w] == sums[y] for w in done for y in g.adjacency[w] if not left[y])
            if not ties and len(used) + isolated <= k and extend(i + 1):
                return True
            for w in done:
                used[sums[w]] -= 1
                if not used[sums[w]]:
                    del used[sums[w]]
            for w in (u, v):
                sums[w] -= x
                left[w] += 1
            labels[e] = 0
        return False

    return (labels if extend(0) else None), nodes


def test_candidates_skip_only_nodes_the_checks_reject():
    # Trying only labels that keep the sums within k drops nodes but never
    # one that passes, so the witness is that of the plain search.
    rng = random.Random(20201018)
    fewer = 0
    for _ in range(120):
        g = random_connected_multigraph(rng, rng.randrange(1, 7))
        search = _Search(g, SearchBudget())
        for k in range(1, 5):
            before = search.nodes
            witness, nodes = plain_search(g, k)
            assert search.run(k) == witness, (g.edges, k)
            assert search.nodes - before <= nodes, (g.edges, k)
            fewer += search.nodes - before < nodes
    assert fewer > 200


def test_regular_symmetry_does_not_lose_optima():
    # C_4 and C_6 are regular, so the first-edge restriction is active;
    # values must still match plain enumeration.
    for m in (4, 5, 6):
        assert exact_chi_la(build_cycle(m)).value == brute_force_chi_la(build_cycle(m))


def connected_atlas_graphs(max_edges: int = 8) -> list[Graph]:
    """Every connected graph of the networkx atlas (up to 7 vertices)
    with at least 3 vertices and at most ``max_edges`` edges."""
    nx = pytest.importorskip("networkx")
    return [
        Graph(h.number_of_nodes(), tuple(h.edges()))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() >= 3 and h.number_of_edges() <= max_edges
        and nx.is_connected(h)
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
        assert _cycle(g) is None and _construction(g) is None
    with pytest.raises(ValueError, match="no local antimagic"):
        exact_chi_la(double_edge)
    for g in (triangles, complete_bipartite(3, 3), counterexample_graph()):
        result = exact_chi_la(g)
        assert result.nodes > 0 and result.bounds.upper_source == "search witness"
        with pytest.raises(BudgetExceeded):
            feasible_with_colors(g, 3, SearchBudget(node_limit=0))
    # Not bipartite, so χ = 3 rules out 2 sums with no search, connected or not.
    assert feasible_with_colors(triangles, 2, SearchBudget(node_limit=0)) is None
    # Three isolated vertices share one sum, 0, so no labeling has 0 sums.
    assert feasible_with_colors(Graph(3, ()), 0) is None


def test_two_regular_graphs_that_are_not_one_cycle_fall_through():
    # Pinned before cycles were walked ahead of the bipartition pass: each
    # of these has every degree 2, and each is searched or refused as then.
    triangles = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    two_squares = Graph(8, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)))
    double_edge = Graph(2, ((0, 1), (0, 1)))
    pinned = [
        (triangles, 4, (1, 6, 2, 3, 5, 4), 462, Bounds(3, "chromatic number", 4, "search witness"),
         [(3, 426), (4, 36)]),
        (two_squares, 3, (1, 8, 5, 4, 2, 7, 6, 3), 331,
         Bounds(2, "chromatic number", 3, "search witness"), [(2, 200), (3, 131)]),
    ]
    for g, value, witness, nodes, bounds, searches in pinned:
        assert _cycle(g) is None
        result = exact_chi_la(g)
        assert (result.value, result.witness.labels, result.nodes, result.bounds) == (
            value, witness, nodes, bounds)
        assert [(run.k, run.nodes) for run in result.searches] == searches
        found = feasible_with_colors(g, 3)
        assert (found and found.labels) == (witness if value == 3 else None)
        assert feasible_with_colors(g, value).labels == witness
    assert _cycle(double_edge) is None
    with pytest.raises(ValueError, match="no local antimagic"):
        exact_chi_la(double_edge)
    assert all(feasible_with_colors(double_edge, k) is None for k in range(5))


def test_cycles_settle_before_any_bipartition_or_isomorphism(monkeypatch):
    def refuse(*args):
        raise AssertionError("called on a cycle")

    for module in (graphs, labelings, oracle):
        for name in ("partite_classes", "check_two_color_necessary", "are_isomorphic"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for m, lower in ((11, "chromatic number"), (12, "two-sum conditions")):
        g = shuffled(build_cycle(m), random.Random(m))
        budget = SearchBudget(max_edges=m, node_limit=0)
        result = exact_chi_la(g, budget)
        assert result.nodes == 0
        assert result.bounds == Bounds(3, lower, 3, f"cycle labeling C_{m}")
        assert feasible_with_colors(g, 3, budget) == result.witness
        assert feasible_with_colors(g, 2, budget) is None
        assert "adjacency" not in g.__dict__ and "_traversal" not in g.__dict__


PINNED_CIRCULANTS = [(10, (1, 3)), (12, (1, 5)), (8, (1, 3)), (14, (1, 3)), (14, (1, 5)),
                     (16, (1, 3, 5)), (16, (1, 7)), (18, (1, 5, 7))]


def oracle_pin_graphs() -> list[tuple[str, Graph]]:
    """The graphs of oracle_pins.json: C_3..C_40 plain and shuffled, eight
    shuffled even-order circulants, and the connected atlas graphs with
    n >= 3 and q <= 7."""
    rng = random.Random(20201010)
    cycles = [build_cycle(m) for m in range(3, 41)]
    pinned = [(f"C{g.n}", g) for g in cycles]
    pinned += [(f"C{g.n} shuffled", shuffled(g, rng)) for g in cycles]
    pinned += [(f"C{m}{steps} shuffled", shuffled(build_circulant(CirculantSpec(m, steps)), rng))
               for m, steps in PINNED_CIRCULANTS]
    pinned += [(f"atlas {i}", g) for i, g in enumerate(connected_atlas_graphs(7))]
    return pinned


def oracle_pin(g: Graph) -> dict:
    """What exact_chi_la returns on g, but its seconds."""
    result = exact_chi_la(g, SearchBudget(max_edges=g.q))
    return {"value": result.value, "witness": list(result.witness.labels),
            "nodes": result.nodes, "bounds": list(astuple(result.bounds)),
            "searches": [[run.k, run.nodes] for run in result.searches]}


def test_oracle_outputs_are_pinned():
    # Recorded before the bounds path read χ ≤ 2 off the bipartition and
    # walked cycles instead of matching them by isomorphism.  Node counts
    # were re-recorded for the sum-budget candidates, and bounds, searches
    # and node counts where the pendant bound is higher; every value and
    # witness is as first recorded.
    pins = json.loads((DATA / "oracle_pins.json").read_text())
    pinned = oracle_pin_graphs()
    assert [pin["name"] for pin in pins] == [name for name, _ in pinned]
    for pin, (name, g) in zip(pins, pinned):
        assert (g.n, [list(e) for e in g.edges]) == (pin["n"], pin["edges"]), name
        assert oracle_pin(g) == pin["result"], name


def test_feasibility_agrees_with_the_pinned_values():
    # feasible_with_colors shares exact_chi_la's bounds: at the pinned
    # value it gives the pinned witness, and one below it gives None.
    pins = json.loads((DATA / "oracle_pins.json").read_text())
    for pin, (name, g) in zip(pins, oracle_pin_graphs()):
        budget, value = SearchBudget(max_edges=g.q), pin["result"]["value"]
        found = feasible_with_colors(g, value, budget)
        assert list(found.labels) == pin["result"]["witness"], name
        assert feasible_with_colors(g, value - 1, budget) is None, name


def test_bounds_path_builds_and_certifies_only_what_it_needs(monkeypatch):
    def refuse(*args):
        raise AssertionError("called on the bounds path")

    for module in (graphs, circulants, oracle):
        for name in ("are_isomorphic", "build_circulant", "first_coloring"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for m, lower in ((11, "chromatic number"), (12, "two-sum conditions")):
        g = shuffled(build_cycle(m), random.Random(m))
        result = exact_chi_la(g, SearchBudget(max_edges=m, node_limit=0))
        assert result.nodes == 0
        assert result.bounds == Bounds(3, lower, 3, f"cycle labeling C_{m}")
    monkeypatch.undo()

    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for module in (graphs, circulants, labelings, oracle):
        for name in ("build_circulant", "certify"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    searched = []
    traversal = Graph._traversal.func
    monkeypatch.setattr(Graph._traversal, "func",
                        lambda graph: searched.append(graph) or traversal(graph))
    g = shuffled(build_circulant(CirculantSpec(10, (1, 3))), random.Random(8))
    result = exact_chi_la(g, SearchBudget(max_edges=g.q, node_limit=0))
    assert result.bounds.upper_source == "circulant labeling C_10(1, 3)"
    assert sorted(calls) == ["build_circulant", "certify"]
    # One breadth-first search of the input serves the bipartition and both
    # connectivity checks; the other orders the built circulant for the
    # isomorphism search.
    assert len(searched) == 2 and searched[0] is g and searched[1] is not g
