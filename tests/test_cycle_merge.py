import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import local_antimagic.cycle_merge as cycle_merge
from local_antimagic import (
    CertificationError,
    CirculantSpec,
    Graph,
    are_isomorphic,
    build_construction_matrix,
    build_cycle,
    build_even_odd_arrays,
    c_labeling,
    case_plan,
    check_two_color_necessary,
    family_colors,
    induced_coloring,
    merge_vertices,
    transform_cycle,
    verify_case1_circulant,
    verify_vertex_map,
)
from local_antimagic.oracle import first_coloring

from conftest import complement, edge_deleted

ALL_CASES = [(case, k) for case in range(1, 9) for k in range(2, 7)]


@pytest.mark.parametrize("case,k", ALL_CASES)
def test_case_plans_partition_with_stated_shapes(case, k):
    plan = case_plan(case, k)
    stated = {1: 8 * k, 2: 8 * k + 4, 3: 8 * k + 2, 4: 8 * k + 6,
              5: 8 * k + 1, 6: 8 * k + 5, 7: 8 * k + 3, 8: 8 * k + 7}
    assert plan.n == stated[case]
    a_blocks = [b for b, kind in zip(plan.blocks, plan.kinds) if kind == "A"]
    b_blocks = [b for b, kind in zip(plan.blocks, plan.kinds) if kind == "B"]
    c_blocks = [b for b, kind in zip(plan.blocks, plan.kinds) if kind == "C"]
    assert all(len(b) == 2 for b in a_blocks + b_blocks)
    if case in (1, 2):
        assert not c_blocks
    elif case in (3, 4):
        assert [len(b) for b in c_blocks] == [2]
    elif case in (5, 6):
        assert [len(b) for b in c_blocks] == [1]
    else:
        assert [len(b) for b in c_blocks] == [3]
    # Stated block counts; note case 8 has 2k+1 even pairs.
    expected_a = {1: 2 * k, 2: 2 * k + 1, 3: 2 * k, 4: 2 * k + 1,
                  5: 2 * k, 6: 2 * k + 1, 7: 2 * k, 8: 2 * k + 1}[case]
    assert len(a_blocks) == expected_a


@pytest.mark.parametrize("case,k", ALL_CASES)
def test_transform_profiles(case, k):
    plan = case_plan(case, k)
    n = plan.n
    result = transform_cycle(n, plan)
    g, f = result.graph, result.labeling
    assert sorted(f.labels) == list(range(1, n + 1))
    coloring = induced_coloring(g, f)
    assert sum(coloring.sums) == n * (n + 1)
    assert coloring is result.coloring and coloring.colors == family_colors(n)[1]

    degrees = sorted(g.degrees)
    if case in (1, 2, 3, 4):
        assert degrees == [4] * g.n
    elif case in (5, 6):
        assert degrees == [2] + [4] * (g.n - 1)
    else:
        assert degrees == [4] * (g.n - 1) + [6]

    bipartite = check_two_color_necessary(g).bipartite
    if case in (1, 2):
        assert bipartite
    else:
        assert not bipartite
        assert first_coloring(g, 3, range(g.n)) is not None
    if case in (3, 4):
        # The special merge creates a triangle through the merged vertex.
        adj = g.adjacency
        triangle = any(w in adj[u] for u in range(g.n) for v in adj[u] for w in adj[v])
        assert triangle


@pytest.mark.parametrize("case,k", ALL_CASES)
def test_merged_sums_add_originals(case, k):
    plan = case_plan(case, k)
    n = plan.n
    base = induced_coloring(build_cycle(n), c_labeling(n)).sums
    merged = merge_vertices(build_cycle(n), plan)
    sums = induced_coloring(merged, c_labeling(n)).sums
    for v in range(merged.n):
        originals = [int(p) for p in merged.provenance[v]]
        assert sums[v] == sum(base[o] for o in originals)


@pytest.mark.parametrize("case,k", ALL_CASES)
def test_edge_deleted_variants(case, k):
    plan = case_plan(case, k)
    n = plan.n
    result = transform_cycle(n, plan)
    g, f = result.graph, result.labeling

    deleted = induced_coloring(*edge_deleted(g, f, f.labels.index(1)))
    assert not deleted.conflicts and len(deleted.colors) == 3

    # Deleting the label-n edge goes through the complement labeling.
    fc = complement(g, f)
    en = f.labels.index(n)
    assert fc[en] == 1
    deleted = induced_coloring(*edge_deleted(g, fc, en))
    assert not deleted.conflicts and len(deleted.colors) == 3


@pytest.mark.parametrize("k", range(2, 7))
def test_case1_is_the_stated_circulant(k):
    mapping = verify_case1_circulant(k)
    assert sorted(mapping) == list(range(4 * k))


def test_case1_k2_is_k44():
    merged = merge_vertices(build_cycle(16), case_plan(1, 2))
    k44 = Graph(8, tuple((u, v) for u in (0, 2, 4, 6) for v in (1, 3, 5, 7)))
    mapping = are_isomorphic(merged, k44)
    assert mapping is not None and verify_vertex_map(merged, k44, mapping)


def test_case2_deleted_variant_isomorphism_is_undecided_but_checked():
    # Whether the two edge-deleted variants coincide is left open; we run
    # the check and only require internal consistency of its answer.
    plan = case_plan(2, 2)
    result = transform_cycle(plan.n, plan)
    g, f = result.graph, result.labeling
    g1, _ = edge_deleted(g, f, f.labels.index(1))
    gn, _ = edge_deleted(g, f, f.labels.index(g.q))
    mapping = are_isomorphic(g1, gn)
    if mapping is not None:
        assert verify_vertex_map(g1, gn, mapping)
    else:
        assert sorted(g1.degrees) == sorted(gn.degrees)


def test_even_odd_arrays_s3_t2_match_recorded_rows():
    arrays = build_even_odd_arrays(3, 2)
    assert arrays.evens[0] == (0, 16, 64, 80)
    assert tuple(arrays.odds[r][0] for r in range(4)) == (1, 9, 33, 41)
    assert len(arrays.evens) == 16 and len(arrays.evens[0]) == 4
    assert len(arrays.odds) == 4 and len(arrays.odds[0]) == 16


def test_even_odd_arrays_cover_all_parities():
    for s, t in ((2, 0), (2, 3), (3, 1)):
        arrays = build_even_odd_arrays(s, t)
        n = 2 ** (2 * s - 1) * (t + 2)
        evens = sorted(x for row in arrays.evens for x in row)
        odds = sorted(x for row in arrays.odds for x in row)
        assert evens == list(range(0, n, 2))
        assert odds == list(range(1, n, 2))


def numpy_even_odd_arrays(s: int, t: int):
    """The quartered block recursion as np.block, the reference for the
    list version in the library."""
    a = np.arange(0, 2 * t + 3, 2, dtype=np.int64).reshape(-1, 1)
    b = np.arange(1, 2 * t + 4, 2, dtype=np.int64).reshape(1, -1)
    for i in range(1, s):
        off = 2 ** (2 * i - 2) * (2 * t + 4)
        a = np.block([[a, a + 2 * off], [a + off, a + 3 * off]])
        b = np.block([[b, b + 2 * off], [b + off, b + 3 * off]])
    return tuple(map(tuple, a.tolist())), tuple(map(tuple, b.tolist()))


@pytest.mark.parametrize("s", (2, 3, 4, 5))
@pytest.mark.parametrize("t", (0, 1, 2, 3))
def test_even_odd_arrays_match_numpy_block_recursion(s, t):
    arrays = build_even_odd_arrays(s, t)
    assert (arrays.evens, arrays.odds) == numpy_even_odd_arrays(s, t)


@pytest.mark.parametrize("s", (2, 3))
@pytest.mark.parametrize("t", (0, 1, 2))
def test_construction_matrix_sums(s, t):
    built = build_construction_matrix(s, t)
    n = built.n
    size = len(built.labels)
    regular = 2 ** (s - 1) * (n + 2)
    assert built.row_sums[0] == regular - n // 2
    assert all(rs == regular for rs in built.row_sums[1:])
    assert all(cs == 2 ** (s - 1) * (n + 1) for cs in built.col_sums)
    assert all(sum(row) == 2**s for row in built.pattern)
    assert built.graph.q == n
    assert size == 2 ** (s - 1) * (t + 2)


def test_construction_matrix_s3_t2_reproduces_recorded_instance():
    built = build_construction_matrix(3, 2)
    assert built.spec == CirculantSpec(32, (1, 7, 9, 15))
    assert built.row_sums[0] == 456
    assert set(built.row_sums[1:]) == {520}
    assert set(built.col_sums) == {516}
    coloring = induced_coloring(built.graph, built.labeling)
    assert not coloring.conflicts and len(coloring.colors) == 3


# Arrays with odd 1 replaced by a second copy of odd 9: not a partition.
BROKEN_ARRAYS = """
import local_antimagic.cycle_merge as cycle_merge

real_arrays = cycle_merge.build_even_odd_arrays

def broken_arrays(s, t):
    arrays = real_arrays(s, t)
    odds = [list(row) for row in arrays.odds]
    odds[0][0] = odds[1][0]
    return cycle_merge.EvenOddArrays(arrays.evens, tuple(map(tuple, odds)))
"""


def test_construction_matrix_rejects_arrays_that_are_not_a_partition(monkeypatch):
    scope: dict = {}
    exec(BROKEN_ARRAYS, scope)
    monkeypatch.setattr(cycle_merge, "build_even_odd_arrays", scope["broken_arrays"])
    with pytest.raises(AssertionError, match="do not partition"):
        build_construction_matrix(3, 2)


def test_construction_matrix_rejects_broken_arrays_under_optimize():
    # -O strips assert statements; the partition check must still run.
    code = BROKEN_ARRAYS + (
        "cycle_merge.build_even_odd_arrays = broken_arrays\n"
        "try:\n"
        "    cycle_merge.build_construction_matrix(3, 2)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert "do not partition" in proc.stdout, proc.stdout + proc.stderr


def test_partition_is_checked_once_per_matrix_build(monkeypatch):
    checks = []
    check = cycle_merge.EvenOddArrays.__init__
    monkeypatch.setattr(cycle_merge.EvenOddArrays, "__init__",
                        lambda arrays, *fields: checks.append(check(arrays, *fields)))
    build_construction_matrix(3, 2)
    assert len(checks) == 1


def test_even_odd_arrays_reject_a_broken_partition():
    arrays = build_even_odd_arrays(2, 0)
    assert arrays.index[:4] == [0, 0, 1, 1]
    odds = ((5,) + arrays.odds[0][1:],) + arrays.odds[1:]  # 5 twice, 1 missing
    with pytest.raises(CertificationError, match=r"do not partition \[0, 15\]"):
        cycle_merge.EvenOddArrays(arrays.evens, odds)


def test_construction_render_layout():
    text = build_construction_matrix(2, 0).render()
    lines = text.splitlines()
    # Odd-group headers, 4 body rows, then the column-sum footer.
    assert lines[-1].split()[0] == "Sum"
    assert lines[1].split()[-1] == "Sum"
    assert len(lines) == 2 + 4 + 1


def test_case1_plan_is_the_s2_fold():
    # At s = 2 the arrays fold C_n, n = 8(t+2), in pairs: the Case 1 plan.
    for t in (0, 1, 4):
        n = 8 * (t + 2)
        merged = merge_vertices(build_cycle(n), case_plan(1, t + 2))
        built = build_construction_matrix(2, t)
        assert are_isomorphic(merged, built.graph) is not None
        coloring = induced_coloring(merged, c_labeling(n))
        assert sorted(coloring.sums) == sorted(built.coloring.sums)


@pytest.mark.parametrize("s", (2, 3, 4))
@pytest.mark.parametrize("t", (0, 1, 2))
def test_construction_matrix_folds_the_labeled_cycle(s, t):
    # Each edge joins the groups of cycle-consecutive j, j+1 mod n and
    # carries the canonical label of cycle edge j.
    built = build_construction_matrix(s, t)
    n = built.n
    cycle_labels = c_labeling(n).labels
    groups = [{int(p) for p in names} for names in built.graph.provenance]
    for (u, v), label in zip(built.graph.edges, built.labeling.labels):
        steps = [j for a, b in ((u, v), (v, u)) for j in groups[a] if (j + 1) % n in groups[b]]
        assert len(steps) == 1
        assert label == cycle_labels[steps[0]]


def test_case_plan_requires_k_at_least_two():
    with pytest.raises(ValueError):
        case_plan(1, 1)
    with pytest.raises(ValueError):
        case_plan(9, 2)


def test_a_plan_for_another_order_is_refused():
    plan = case_plan(1, 2)
    assert plan.n == 16
    with pytest.raises(ValueError, match="^plan is for 16 vertices, graph has 10$"):
        merge_vertices(build_cycle(10), plan)
    with pytest.raises(ValueError, match="^plan order 16 does not match n=10$"):
        transform_cycle(10, plan)
    with pytest.raises(ValueError, match=r"^requires s >= 2 and t >= 0$"):
        build_even_odd_arrays(1, 0)


def test_construction_matrix_cross_check_sees_one_moved_edge(monkeypatch):
    # The pattern is compared with the circulant's edges as sorted int
    # keys; a circulant with one edge moved must fail certification, also
    # when the move keeps the sum of the edge's two ends.
    real = cycle_merge.build_circulant

    def moved(spec):
        g = real(spec)
        us, vs = g.us, g.vs
        i = next(i for i, (u, v) in enumerate(zip(us, vs)) if v - u >= 3)
        us, vs = us[:i] + (us[i] + 1,) + us[i + 1:], vs[:i] + (vs[i] - 1,) + vs[i + 1:]
        return Graph(g.n, zip(us, vs))

    monkeypatch.setattr(cycle_merge, "build_circulant", moved)
    with pytest.raises(CertificationError, match="pattern does not match"):
        build_construction_matrix(2, 1)
