import hashlib
import json
import operator
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_antimagic import (
    CirculantSpec,
    FuseCycles,
    Graph,
    MergeCycle,
    MergePlan,
    UnionSpec,
    are_isomorphic,
    build_circulant,
    build_construction_matrix,
    build_cycle,
    c_labeling,
    case_plan,
    circulant_labeling,
    delete_edge,
    induced_coloring,
    merge_vertices,
    one_point_union,
    partite_classes,
    transform_cycle,
    transform_union,
    union_2labeling_family1,
    union_2labeling_family2,
    union_3labeling,
    verify_case1_circulant,
    verify_vertex_map,
)
from local_antimagic.graphs import gamma_cycle_sequence
from local_antimagic.serialize import graph_from_dict, graph_to_dict, to_dot

from conftest import random_connected_graph, random_connected_multigraph, shuffled


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


def test_vertex_count_is_an_int_by_index():
    # Converted by operator.index, as the ends are: a numpy int passes and
    # a bool, a float or a str is refused, not kept.
    for n in (np.int64(3), np.int32(3)):
        for g in (Graph(n, ((0, 1),)), Graph._from_ends(n, (0,), (1,))):
            assert type(g.n) is int and g.n == 3 and g.degrees == (1, 1, 0)
    for bad in (3.0, True, "3"):
        for build in (lambda: Graph(bad, ((0, 1),)), lambda: Graph._from_ends(bad, (), ())):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"vertex count {bad!r} is not an int"


COUNTED = [
    (lambda m: CirculantSpec(m, (1,)), 9, "modulus", lambda spec: spec.m),
    (build_cycle, 5, "cycle order", lambda g: g.n),
    (lambda n: MergePlan(n, ((0, 2), (1, 3)), ("A", "B")), 4, "cycle order",
     lambda plan: plan.n),
    (c_labeling, 6, "cycle order", len),
    (lambda k: case_plan(1, k), 2, "k", lambda plan: plan.n // 8),
]


@pytest.mark.parametrize("build,count,what,read", COUNTED,
                         ids=["CirculantSpec", "build_cycle", "MergePlan", "c_labeling",
                              "case_plan"])
def test_counts_are_ints_by_index(build, count, what, read):
    # A float count once raised a TypeError from math.gcd, range or list
    # repetition; a numpy int is an int by operator.index.
    for good in (np.int64(count), np.int32(count)):
        assert read(build(good)) == count and type(read(build(good))) is int
    for bad in (float(count), True, str(count)):
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{what} {bad!r} is not an int"


def test_parallel_edges_allowed():
    g = Graph(2, ((0, 1), (0, 1)))
    assert not g.is_simple()
    assert g.adjacency[0] == {1: 2}
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


def test_circulant_steps_are_ints_by_index():
    spec = CirculantSpec(9, (np.int64(1), np.int32(2)))
    assert spec.steps == (1, 2) and {type(a) for a in spec.steps} == {int}
    assert spec == CirculantSpec(9, (1, 2)) and repr(spec) == "CirculantSpec(m=9, steps=(1, 2))"
    for bad in (1.9, 1.0, True, "1"):
        with pytest.raises(ValueError) as info:
            CirculantSpec(9, (bad,))
        assert str(info.value) == f"step {bad!r} is not an int"


def test_gamma_cycle_sequence():
    seq = gamma_cycle_sequence(16, 3)
    assert seq == (0, 3, 6, 9, 12, 15, 2, 5, 8, 11, 14, 1, 4, 7, 10, 13)
    # build_circulant lays each step cycle along its sequence from vertex 0.
    g = build_circulant(CirculantSpec(16, (1, 3)))
    assert g.edges[16:] == tuple(zip(seq, seq[1:] + seq[:1]))


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
    assert '  0 [label="v0,4"];' in to_dot(merged)
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


def test_merge_plan_blocks_are_ints_by_index():
    plan = MergePlan(4, ((np.int64(2), np.int32(0)), (1, 3)), ("A", "B"))
    assert plan.blocks == ((0, 2), (1, 3)) and type(plan.blocks[0][0]) is int
    assert plan == MergePlan(4, ((0, 2), (1, 3)), ("A", "B"))
    for bad in (0.5, 0.0, False, "0"):
        with pytest.raises(ValueError) as info:
            MergePlan(4, ((bad, 2), (1, 3)), ("A", "B"))
        assert str(info.value) == f"block end {bad!r} is not an int"


def test_merge_plan_validation():
    with pytest.raises(ValueError, match="odd index"):
        MergePlan(4, ((0, 1), (2,), (3,)), ("A", "A", "B"))
    with pytest.raises(ValueError, match="partition"):
        MergePlan(4, ((0, 2), (1,)), ("A", "B"))
    with pytest.raises(ValueError, match="at most 3"):
        MergePlan(6, ((0, 1, 2, 3), (4,), (5,)), ("C", "A", "B"))


@pytest.mark.parametrize("n,blocks,kinds", [
    # Overlapping blocks that together cover every vertex.
    (6, ((0, 2), (2, 4), (1,), (3,), (5,)), ("A", "A", "B", "B", "B")),
    # A vertex repeated inside one block.
    (4, ((0, 2, 2), (1, 3)), ("A", "B")),
    # Vertex -1 must not stand in for vertex n-1.
    (4, ((0, 2), (-1, 1)), ("A", "B")),
    # Vertex n is out of range.
    (4, ((0, 2), (1, 3), (4,)), ("A", "B", "A")),
])
def test_merge_plan_rejects_blocks_that_are_not_a_partition(n, blocks, kinds):
    with pytest.raises(ValueError, match="partition"):
        MergePlan(n, blocks, kinds)


def old_plan_error(n, blocks, kinds):
    """The message of the block-by-block check MergePlan first had, or None;
    a block end that is not an exact int is refused before any check."""
    for v in (v for b in blocks for v in b):
        if type(v) is not int:
            return f"block end {v!r} is not an int"
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    if len(kinds) != len(blocks):
        return "one kind per block required"
    covered = [False] * n
    for block, kind in zip(blocks, kinds):
        if kind not in ("A", "B", "C"):
            return f"unknown block kind {kind!r}"
        if not block:
            return "empty block"
        if kind == "A" and any(v % 2 for v in block):
            return f"A-block {block} contains an odd index"
        if kind == "B" and any(v % 2 == 0 for v in block):
            return f"B-block {block} contains an even index"
        if kind == "C" and len(block) > 3:
            return "C-blocks have size at most 3"
        for v in block:
            if not 0 <= v < n or covered[v]:
                return "blocks must partition the vertex set"
            covered[v] = True
    return None if all(covered) else "blocks must partition the vertex set"


def test_merge_plan_raises_the_messages_of_its_first_check():
    rng = random.Random(20201018)
    seen = set()
    for _ in range(3000):
        n = rng.randrange(0, 9)
        vertices = list(range(n))
        rng.shuffle(vertices)
        blocks = []
        while vertices:
            size = rng.randrange(1, 4)
            blocks.append(vertices[:size])
            vertices = vertices[size:]
        kinds = ["C" if len(b) > 1 and len({v % 2 for v in b}) > 1 else "AB"[b[0] % 2]
                 for b in blocks]
        for _ in range(rng.randrange(0, 3)):  # break it in up to two places
            i = rng.randrange(len(blocks)) if blocks else 0
            fault = rng.randrange(7)
            if fault == 0 and i < len(kinds):
                kinds[i] = rng.choice("ABCD")
            elif fault == 1 and blocks:
                blocks[i] = blocks[i] + [rng.randrange(-1, n + 1)]
            elif fault == 2 and blocks:
                del blocks[i]
            elif fault == 3:
                blocks.insert(i, [])
            elif fault == 4 and i < len(kinds):
                kinds.pop(i)
            elif fault == 5:
                blocks.append([str(rng.randrange(n + 1))])
            elif fault == 6 and blocks:
                blocks[i] = [float(v) for v in blocks[i]]
            if len(kinds) < len(blocks) and fault != 4:
                kinds.append(rng.choice("ABC"))
        expected = old_plan_error(n, blocks, tuple(kinds))
        seen.add(expected)
        # Sorted exact-int tuples skip the conversion and must check the same.
        normal = tuple(tuple(sorted(map(int, b))) for b in blocks)
        if expected is not None and expected.startswith("block end"):
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                MergePlan(n, tuple(map(tuple, blocks)), tuple(kinds))
            expected = old_plan_error(n, normal, tuple(kinds))
            blocks = normal
        if expected is None:
            plan = MergePlan(n, tuple(map(tuple, blocks)), tuple(kinds))
            assert plan.blocks == normal
            assert MergePlan(n, normal, tuple(kinds)) == plan
            # Blocks rank by their least vertex, as merge_vertices numbers them.
            ranked = sorted(normal)
            assert plan.rank == tuple(next(i for i, b in enumerate(ranked) if v in b)
                                      for v in range(n))
        else:
            for given in (tuple(map(tuple, blocks)), normal):
                with pytest.raises(ValueError) as info:
                    MergePlan(n, given, tuple(kinds))
                assert str(info.value) == expected, (n, blocks, kinds)
    assert len({m.split(" ")[0] for m in seen if m}) == 8 and None in seen


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


def test_bfs_on_disconnected_graphs():
    assert Graph(0, ()).is_connected()
    g = Graph(6, ((4, 2), (0, 5), (2, 0), (3, 1)))
    assert g.components == ((0, 5, 2, 4), (1, 3))
    assert Graph(3, ()).components == ((0,), (1,), (2,))
    assert not Graph(3, ((1, 2),)).is_connected()
    assert not Graph(3, ((0, 1),)).is_connected()
    # A triangle and a 4-cycle onto a relabelled copy: the search must
    # open the second component once the first is mapped.
    two = Graph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)))
    perm = [5, 2, 6, 0, 3, 1, 4]
    h = Graph(7, tuple((perm[u], perm[v]) for u, v in two.edges))
    mapping = are_isomorphic(two, h)
    assert verify_vertex_map(two, h, mapping)
    assert mapping == [2, 5, 6, 0, 3, 1, 4]


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


def _nx_multigraph(nx, g: Graph):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _edge_moved(g: Graph, rng: random.Random) -> Graph:
    """g with one end of one edge moved to another vertex."""
    edges = list(g.edges)
    i = rng.randrange(g.q)
    u, v = edges[i]
    edges[i] = (u, rng.choice([w for w in range(g.n) if w not in (u, v)]))
    return Graph(g.n, tuple(edges))


def test_bipartition_and_isomorphism_agree_with_networkx():
    # The oracle's lower bound reads bipartiteness and connectivity off one
    # traversal, and its circulant bound rests on are_isomorphic: all three
    # against networkx, on multigraphs and on disconnected unions of two.
    nx = pytest.importorskip("networkx")
    rng = random.Random(20201010)
    graphs = [random_connected_multigraph(rng, rng.randrange(1, 10)) for _ in range(300)]
    graphs += [Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))
               for g, h in zip(graphs[:60:2], graphs[1:60:2])]
    seen = set()
    for g in graphs:
        mg = _nx_multigraph(nx, g)
        bipartite = partite_classes(g, 2) is not None
        assert bipartite == nx.is_bipartite(mg), g.edges
        if bipartite:
            side = set(partite_classes(g, 2)[0])
            assert all((u in side) != (v in side) for u, v in g.edges), g.edges
        assert (sorted(map(sorted, g.components))
                == sorted(map(sorted, nx.connected_components(mg)))), g.edges
        assert g.is_connected() == nx.is_connected(mg)
        copy = shuffled(g, rng)
        assert are_isomorphic(g, copy) is not None
        assert nx.is_isomorphic(mg, _nx_multigraph(nx, copy))
        if g.n > 2:
            moved = _edge_moved(g, rng)
            isomorphic = are_isomorphic(g, moved) is not None
            assert isomorphic == nx.is_isomorphic(mg, _nx_multigraph(nx, moved)), g.edges
            seen.add(("isomorphic", isomorphic))
        seen.add(("bipartite", bipartite))
    assert len(seen) == 4


# ---------------------------------------------------------------- edge check

def reference_edges(n, edges):
    """The edge check pair by pair: every pair unpacked, then a negative n
    refused, then at the first bad pair an end that is a bool or has no
    index, a loop, or an end out of range; an end with an index (a numpy
    int) counts as the int it gives."""
    pairs = [(u, v) for u, v in edges]
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    checked = []
    for pair in pairs:
        for x in pair:
            if isinstance(x, bool) or not hasattr(x, "__index__"):
                raise ValueError(f"edge end {x!r} is not an int")
        u, v = map(operator.index, pair)
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        checked.append((u, v))
    return tuple(checked)


def outcome(build):
    try:
        edges = build()
    except Exception as exc:  # the error text is part of the contract
        return type(exc), str(exc)
    if isinstance(edges, Graph):
        edges = edges.edges
    assert type(edges) is tuple
    assert all(type(e) is tuple and [type(x) for x in e] == [int, int] for e in edges)
    return edges


END = st.one_of(
    st.integers(-2, 7),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5, -1.5]),
    st.integers(0, 7).map(np.int64),
)
# Ways to spoil one exact pair (u, v) with an end x drawn from END.
SPOILERS = (
    lambda u, v, x: (u, x),
    lambda u, v, x: (x, v),
    lambda u, v, x: [u, v],
    lambda u, v, x: (u,),
    lambda u, v, x: (u, v, x),
)


@st.composite
def edge_inputs(draw):
    """A vertex count and exact-int pairs that pass the check, one of which
    may be spoilt: a list, a 1- or 3-tuple, or an end that is a bool, a
    float, a numpy int, negative, out of range or the other end."""
    n = draw(st.integers(-1, 6))
    pairs = []
    if n >= 2:
        steps = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        pairs = [(u, (u + d) % n) for u, d in draw(st.lists(steps, max_size=6))]
    if pairs and draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = draw(st.sampled_from(SPOILERS))(*pairs[i], draw(END))
    return n, pairs


@given(edge_inputs(), st.booleans())
@settings(max_examples=500, deadline=None)
def test_edge_check_matches_the_coercing_path(case, as_tuple):
    n, pairs = case
    edges = tuple(pairs) if as_tuple else list(pairs)
    expected = outcome(lambda: reference_edges(n, edges))
    # The pairs as given, and the same rows as lists, as a parsed document
    # gives them, become the same end columns and pass the same check.
    for rows in (edges, [list(e) for e in pairs], tuple(list(e) for e in pairs)):
        assert outcome(lambda: Graph(n, rows)) == expected
        if pairs and not isinstance(expected[0], type):
            g = Graph(n, rows)
            assert "edges" not in vars(g)
            assert (g.us, g.vs) == (tuple(u for u, _ in expected), tuple(v for _, v in expected))


@pytest.mark.parametrize("us,vs,message", [
    ((0, True), (1, 2), "edge end True is not an int"),
    ((0, 1), (1, 2.0), "edge end 2.0 is not an int"),
    ((0, -1), (1, 2), "edge (-1,2) out of range for n=3"),
    ((0, 1), (1, 3), "edge (1,3) out of range for n=3"),
    ((0, 2), (1, 2), "loop at vertex 2 is not allowed"),
    ((0, 1), (1,), "end columns of 2 and 1 entries"),
])
def test_end_columns_are_checked_like_pairs(us, vs, message):
    with pytest.raises(ValueError) as info:
        Graph._from_ends(3, us, vs)
    assert str(info.value) == message
    if type(us[1]) is int and type(vs[-1]) is int and len(us) == len(vs):
        with pytest.raises(ValueError) as info:
            Graph(3, tuple(zip(us, vs)))
        assert str(info.value) == message


@given(st.integers(-1, 6), st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=6))
@settings(max_examples=300, deadline=None)
def test_pairs_and_their_end_columns_pass_the_same_check(n, pairs):
    us, vs = tuple(u for u, _ in pairs), tuple(v for _, v in pairs)
    expected = outcome(lambda: Graph._from_ends(n, us, vs))
    for rows in (tuple(pairs), [list(e) for e in pairs]):
        assert outcome(lambda: Graph(n, rows)) == expected


class Pickled:
    """What unpickling a graph runs: ``Graph._from_ends`` on the columns."""

    def __init__(self, *columns):
        self.columns = columns

    def __reduce__(self):
        return Graph._from_ends, self.columns


@pytest.mark.parametrize("n,us,vs,message", [
    (-1, (0, 1), (1,), "vertex count must be non-negative"),
    (-1, (0, 0), (0, 5), "vertex count must be non-negative"),
    (3, (0, 1.5), (0,), "end columns of 2 and 1 entries"),
    (3, (0, 1), (0, True), "loop at vertex 0 is not allowed"),
    (3, (5, 0), (1, 0), "edge (5,1) out of range for n=3"),
    (3, (1, 2.5), (0, 2), "edge end 2.5 is not an int"),
    (3, (True,), (2.0,), "edge end True is not an int"),
    (3, (7,), ("a",), "edge end 'a' is not an int"),
    (3, (5,), (5,), "loop at vertex 5 is not allowed"),
])
def test_the_edge_check_reports_the_first_fault_in_a_fixed_order(n, us, vs, message):
    # n first, then the column lengths, then the first bad edge by index:
    # an end that is not an int, then a loop, then an end out of range.
    builds = [lambda: Graph._from_ends(n, us, vs),
              lambda: pickle.loads(pickle.dumps(Pickled(n, us, vs)))]
    if len(us) == len(vs):
        builds.append(lambda: Graph(n, tuple(zip(us, vs))))
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_edge_check_survives_optimize():
    code = (
        "from local_antimagic import Graph\n"
        "for edges in (((0, 1), (2, 2)), ((0, 1), (1, 3)), [[0, 1], [2, 2]]):\n"
        "    try:\n"
        "        Graph(3, edges)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.splitlines() == [
        "loop at vertex 2 is not allowed", "edge (1,3) out of range for n=3",
        "loop at vertex 2 is not allowed",
    ], proc.stdout + proc.stderr
    code = (
        "from local_antimagic import Graph\n"
        "for ends in (((0, True), (1, 2)), ((0, -1), (1, 2)), ((0, 2), (1, 2)), ((0,), ())):\n"
        "    try:\n"
        "        Graph._from_ends(3, *ends)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.splitlines() == [
        "edge end True is not an int", "edge (-1,2) out of range for n=3",
        "loop at vertex 2 is not allowed", "end columns of 1 and 0 entries",
    ], proc.stdout + proc.stderr
    code = (
        "from local_antimagic import (CirculantSpec, EdgeLabeling, Graph, MergePlan,\n"
        "                             build_cycle, c_labeling, case_plan)\n"
        "from local_antimagic.serialize import graph_from_dict\n"
        "for build in (lambda: Graph(3, [[0, 1.9]]), lambda: EdgeLabeling([1.7, 2]),\n"
        "              lambda: EdgeLabeling((True, 1)),\n"
        "              lambda: graph_from_dict({'n': '3', 'edges': []}),\n"
        "              lambda: graph_from_dict({'n': 3.0, 'edges': []}),\n"
        "              lambda: Graph(3.0, ((0, 1),)), lambda: Graph(True, ()),\n"
        "              lambda: CirculantSpec(9.0, (1,)), lambda: build_cycle(5.0),\n"
        "              lambda: MergePlan(4.0, ((0, 2), (1, 3)), ('A', 'B')),\n"
        "              lambda: c_labeling(6.0), lambda: case_plan(1, 2.0)):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.splitlines() == [
        "edge end 1.9 is not an int", "label 1.7 is not an int", "label True is not an int",
        "vertex count '3' is not an int", "vertex count 3.0 is not an int",
        "vertex count 3.0 is not an int", "vertex count True is not an int",
        "modulus 9.0 is not an int", "cycle order 5.0 is not an int",
        "cycle order 4.0 is not an int", "cycle order 6.0 is not an int", "k 2.0 is not an int",
    ], proc.stdout + proc.stderr


# ---------------------------------------------------------------- provenance

def built_graphs():
    """A graph from every constructor that leaves provenance unbuilt."""
    labeled = union_2labeling_family1(9)
    directives = [FuseCycles(2 * i, 2 * i + 1, 3) for i in range(4)]
    directives.append(MergeCycle(8, case_plan(1, 2)))
    plan = case_plan(3, 2)
    return {
        "build_cycle": build_cycle(12),
        "circulant_labeling": circulant_labeling(CirculantSpec(16, (1, 3)))[0],
        "transform_cycle": transform_cycle(plan.n, plan).graph,
        "union_3labeling": union_3labeling(UnionSpec((16, 20))).graph,
        "transform_union": transform_union(labeled.spec, labeled.labeling, directives).graph,
        "build_construction_matrix": build_construction_matrix(3, 1).graph,
    }


def test_constructions_and_their_check_build_no_edge_pairs():
    labeled = union_2labeling_family1(9)
    directives = [FuseCycles(2 * i, 2 * i + 1, 3) for i in range(4)]
    directives.append(MergeCycle(8, case_plan(1, 2)))
    plan = case_plan(7, 2)
    results = [
        circulant_labeling(CirculantSpec(16, (1, 3))),
        transform_cycle(plan.n, plan),
        labeled,
        union_2labeling_family2(5),
        union_3labeling(UnionSpec((16, 20))),
        transform_union(labeled.spec, labeled.labeling, directives),
        build_construction_matrix(3, 1),
    ]
    built = [(build_cycle(12), c_labeling(12)), results[0]]
    built += [(res.graph, res.labeling) for res in results[1:]]
    for g, f in built:
        induced_coloring(g, f)
        assert "edges" not in vars(g), g.n
    merged = merge_vertices(build_cycle(plan.n), plan)
    g = delete_edge(one_point_union([merged, build_circulant(CirculantSpec(10, (1, 3)))],
                                    [1, 0]), 4)
    assert verify_vertex_map(g, g, list(range(g.n))) and sum(g.degrees) == 2 * g.q
    assert verify_case1_circulant(3)
    for h in (merged, g):
        assert "edges" not in vars(h)


def test_constructors_leave_provenance_unbuilt():
    for name, g in built_graphs().items():
        assert "provenance" not in vars(g), name


def test_provenance_read_gives_the_original_names():
    merged = merge_vertices(build_cycle(8), MergePlan(
        8, ((0, 4), (2, 6), (1, 5), (3, 7)), ("A", "A", "B", "B")))
    assert "provenance" not in vars(merged)
    assert merged.provenance == (("0", "4"), ("1", "5"), ("2", "6"), ("3", "7"))
    union = one_point_union([build_cycle(4), build_cycle(3)], [0, 0])
    assert union.provenance == (
        ("c0.0", "c1.0"), ("c0.1",), ("c0.2",), ("c0.3",), ("c1.1",), ("c1.2",))
    # A union of merged graphs prefixes the merged names.
    nested = one_point_union([merged, build_cycle(3)], [1, 2])
    assert nested.provenance == (("c0.1", "c0.5", "c1.2"), ("c0.0", "c0.4"),
                                 ("c0.2", "c0.6"), ("c0.3", "c0.7"), ("c1.0",), ("c1.1",))
    assert delete_edge(nested, 0).provenance == nested.provenance
    matrix = build_construction_matrix(2, 0)
    assert matrix.graph.provenance[:3] == (("0", "8"), ("1", "5"), ("2", "10"))


def test_graphs_equal_their_json_round_trip():
    graphs = built_graphs()
    graphs["one_point_union"] = one_point_union([build_cycle(4), build_cycle(3)], [0, 0])
    for name, g in graphs.items():
        h = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
        assert g == h and h == g, name
        assert hash(g) == hash(h), name
        assert pickle.loads(pickle.dumps(g)) == g, name
    trivial = [[str(v)] for v in range(5)]
    assert Graph(5, build_cycle(5).edges, trivial) == build_cycle(5)
    assert "provenance" not in vars(Graph(5, build_cycle(5).edges, trivial))
    assert Graph(3, (), [[0], [1], [2]]).provenance == (("0",), ("1",), ("2",))
    assert Graph(3, (), [["0"], ["2"], ["1"]]) != Graph(3, ())
    with pytest.raises(ValueError, match="provenance length"):
        Graph(3, (), [["0"], ["1"]])


def test_pickling_sends_the_end_columns_and_builds_no_pair_view():
    plan = case_plan(1, 2)
    graphs = [build_cycle(9), merge_vertices(build_cycle(plan.n), plan),
              one_point_union([build_cycle(4), build_cycle(3)], [0, 0])]
    for g in graphs:
        data = pickle.dumps(g)
        assert "edges" not in vars(g)
        h = pickle.loads(data)
        assert "edges" not in vars(h)
        assert h == g and (h.us, h.vs, h.provenance) == (g.us, g.vs, g.provenance)
    g = build_cycle(9)
    h = pickle.loads(pickle.dumps(g))
    assert "provenance" not in vars(g) and h._names is None


@pytest.mark.parametrize("case", range(1, 9))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_merged_vertex_zero_holds_the_original_vertex_zero(case, k):
    # transform_union attaches a merged cycle at vertex 0, the rank of the
    # block of v_0; the provenance scan it replaces finds the same vertex.
    plan = case_plan(case, k)
    merged = merge_vertices(build_cycle(plan.n), plan)
    assert next(v for v in range(merged.n) if "0" in merged.provenance[v]) == 0
