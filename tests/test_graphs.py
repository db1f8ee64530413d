import hashlib
import json
import random

import pytest

from local_antimagic import (
    CirculantSpec,
    Graph,
    MergePlan,
    are_isomorphic,
    build_circulant,
    build_cycle,
    delete_edge,
    gamma_cycle,
    merge_vertices,
    one_point_union,
    partite_classes,
    verify_vertex_map,
)
from local_antimagic.graphs import gamma_cycle_sequence

from conftest import random_connected_graph


def test_cycle_structure():
    g = build_cycle(5)
    assert g.n == 5 and g.q == 5
    assert g.degrees == (2, 2, 2, 2, 2)
    assert g.edges[0] == (0, 1) and g.edges[4] == (4, 0)
    assert g.is_simple() and g.is_connected() and g.is_regular()


def test_no_loops_or_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 5),))
    with pytest.raises(ValueError):
        build_cycle(2)


def test_parallel_edges_allowed():
    g = Graph(2, ((0, 1), (0, 1)))
    assert not g.is_simple()
    assert g.multiplicity(0, 1) == 2
    assert g.degrees == (2, 2)


def test_circulant_spec_validation():
    with pytest.raises(ValueError, match="unsupported step"):
        CirculantSpec(9, (1, 3))
    with pytest.raises(ValueError):
        CirculantSpec(16, (3, 1))
    with pytest.raises(ValueError):
        CirculantSpec(16, (1, 8))
    with pytest.raises(ValueError):
        CirculantSpec(16, (1, 1))


def test_gamma_cycle_sequence():
    assert gamma_cycle_sequence(16, 3) == (
        0, 3, 6, 9, 12, 15, 2, 5, 8, 11, 14, 1, 4, 7, 10, 13,
    )


def test_circulant_edges_by_step():
    spec = CirculantSpec(16, (1, 3))
    g = build_circulant(spec)
    assert g.q == 32
    assert g.edges[:2] == ((0, 1), (1, 2))
    assert g.edges[16] == (0, 3)
    assert g.is_regular() and g.degrees[0] == 4
    # Every vertex differs from each neighbor by a step.
    for u, v in g.edges:
        d = (v - u) % 16
        assert min(d, 16 - d) in (1, 3)


def test_merge_preserves_edges_and_provenance():
    g = build_cycle(8)
    plan = MergePlan(
        8,
        ((0, 4), (2, 6), (1, 5), (3, 7)),
        ("A", "A", "B", "B"),
    )
    merged = merge_vertices(g, plan)
    assert merged.n == 4 and merged.q == 8
    assert merged.provenance[0] == ("0", "4")
    assert merged.vertex_name(0) == "v0,4"
    # Edge indices unchanged: edge 0 was (v0, v1); merged vertices are
    # ranked by their blocks' minima, so v0's block is 0 and v1's is 1.
    assert set(merged.edges[0]) == {0, 1}


def test_merge_rejects_adjacent_block():
    g = build_cycle(6)
    plan = MergePlan(6, ((0, 2), (4,), (1, 3), (5,)), ("A", "A", "B", "B"))
    merged = merge_vertices(g, plan)
    assert merged.q == 6
    bad = MergePlan(6, ((0, 1), (2, 4), (3, 5)), ("C", "A", "B"))
    with pytest.raises(ValueError, match="loop"):
        merge_vertices(g, bad)


def test_merge_plan_validation():
    with pytest.raises(ValueError, match="odd index"):
        MergePlan(4, ((0, 1), (2,), (3,)), ("A", "A", "B"))
    with pytest.raises(ValueError, match="partition"):
        MergePlan(4, ((0, 2), (1,)), ("A", "B"))
    with pytest.raises(ValueError, match="at most 3"):
        MergePlan(6, ((0, 1, 2, 3), (4,), (5,)), ("C", "A", "B"))


def test_one_point_union_indices():
    g = one_point_union([build_cycle(4), build_cycle(3)], [0, 0])
    assert g.n == 4 + 3 - 1
    assert g.degrees[0] == 4
    assert g.q == 7
    # Edges of the first cycle come first and keep their order.
    assert g.edges[0][0] == 0 or g.edges[0][1] == 0
    assert g.provenance[0] == ("c0.0", "c1.0")


def test_delete_edge_keeps_order():
    g = build_cycle(5)
    h = delete_edge(g, 2)
    assert h.q == 4
    assert h.edges == ((0, 1), (1, 2), (3, 4), (4, 0))


def _has_odd_closed_walk(g: Graph) -> bool:
    # Independent bipartiteness oracle: parity labels via exhaustive
    # propagation over edges until stable.
    parity = {0: 0}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in parity and b not in parity:
                    parity[b] = 1 - parity[a]
                    changed = True
    if len(parity) < g.n:
        for v in range(g.n):
            parity.setdefault(v, 0)
        return _has_odd_closed_walk_from(g, parity)
    return any(parity[u] == parity[v] for u, v in g.edges)


def _has_odd_closed_walk_from(g, parity):
    return any(parity[u] == parity[v] for u, v in g.edges)


def test_bipartite_matches_odd_cycle_oracle(rng):
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 11), rng.randrange(0, 4))
        parts = partite_classes(g, 2)
        assert (parts is None) == _has_odd_closed_walk(g)
        if parts is not None:
            members = {v for part in parts for v in part}
            assert members == set(range(g.n))
            for u, v in g.edges:
                assert (u in set(parts[0])) != (v in set(parts[0]))


def test_three_partite():
    assert partite_classes(build_cycle(5), 3) is not None
    k4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    assert partite_classes(k4, 3) is None


def test_three_partite_long_cycles_stay_within_the_recursion_limit():
    odd = partite_classes(build_cycle(2001), 3)
    assert odd == [list(range(0, 2000, 2)), list(range(1, 2000, 2)), [2000]]
    even = partite_classes(build_cycle(2000), 3)
    assert even == [list(range(0, 2000, 2)), list(range(1, 2000, 2)), []]


def _recursive_three_classes(g):
    """Plain recursive 3-coloring backtracker, highest degree first, with
    no symmetry breaking: the reference for the first coloring found."""
    color = [-1] * g.n
    order = sorted(range(g.n), key=lambda v: -g.degrees[v])

    def backtrack(i):
        if i == g.n:
            return True
        v = order[i]
        used = {color[w] for w in g.adjacency[v] if color[w] != -1}
        for c in range(3):
            if c not in used:
                color[v] = c
                if backtrack(i + 1):
                    return True
        color[v] = -1
        return False

    if not backtrack(0):
        return None
    return [[v for v in range(g.n) if color[v] == c] for c in range(3)]


def test_three_partite_is_the_first_coloring_of_plain_backtracking(rng):
    for _ in range(80):
        n = rng.randrange(3, 11)
        g = random_connected_graph(rng, n, rng.randrange(0, 2 * n))
        assert partite_classes(g, 3) == _recursive_three_classes(g)


def test_isomorphism_random_relabelings(rng):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(4, 10), rng.randrange(0, 4))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, tuple(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
        mapping = are_isomorphic(g, h)
        assert mapping is not None
        assert verify_vertex_map(g, h, mapping)


def test_isomorphism_negative():
    assert are_isomorphic(build_cycle(6), build_circulant(CirculantSpec(6, (1,)))) is not None
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    star = Graph(4, ((0, 1), (0, 2), (0, 3)))
    assert are_isomorphic(path, star) is None
    # Same degree sequence, different structure: C_6 vs two triangles.
    two_triangles = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    assert are_isomorphic(build_cycle(6), two_triangles) is None


def test_isomorphism_with_multiplicities():
    g = Graph(3, ((0, 1), (0, 1), (1, 2)))
    h = Graph(3, ((2, 1), (1, 0), (2, 1)))
    mapping = are_isomorphic(g, h)
    assert mapping is not None
    simple = Graph(3, ((0, 1), (1, 2), (2, 0)))
    assert are_isomorphic(g, simple) is None


def test_isomorphism_of_long_circulants_stays_within_the_recursion_limit():
    g = build_circulant(CirculantSpec(1000, (1, 3)))
    assert are_isomorphic(g, g) == list(range(1000))
    perm = list(range(1000))
    random.Random(1000).shuffle(perm)
    h = Graph(1000, tuple((perm[u], perm[v]) for u, v in g.edges))
    mapping = are_isomorphic(g, h)
    assert verify_vertex_map(g, h, mapping)
    # The mapping the recursive search found with a raised recursion limit.
    digest = hashlib.sha256(json.dumps(mapping).encode()).hexdigest()
    assert digest == "4e4ec24ebdf7331dafe1b73cd9cc93c100fe225deec36c07eaf9eb65543b5c5f"


def test_isomorphism_returns_the_mappings_of_the_recursive_search():
    # sha256 of the 200 mappings the recursive search returned: the
    # explicit stack tries the candidates in the same order.
    rng = random.Random(7)
    mappings = []
    for _ in range(200):
        g = random_connected_graph(rng, rng.randrange(4, 10), rng.randrange(0, 6))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))
        mappings.append(are_isomorphic(g, h))
    digest = hashlib.sha256(json.dumps(mappings).encode()).hexdigest()
    assert digest == "53786609a81e242e360d063341eee8d30dc57dc45aff8ddb6728a0fcc9000414"
