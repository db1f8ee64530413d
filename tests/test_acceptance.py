"""Acceptance suite: every headline claim of ``reproduce.CLAIMS`` runs
as one parametrised test, and one test per criterion adds the checks the
claims leave out.  Each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Timing limits
are asserted where a criterion carries one.
"""

import math
import random
import time
from itertools import combinations

import pytest

from local_antimagic import (
    CirculantSpec,
    Graph,
    are_isomorphic,
    build_cycle,
    build_construction_matrix,
    case_plan,
    certify_multiplier,
    check_edge_deletion_lemma,
    check_nonreg_conditions,
    check_two_color_necessary,
    chromatic_number,
    circulant_colors,
    circulant_labeling,
    color_count,
    complement_labeling,
    delete_edge,
    deleted_edge_labeling,
    exact_chi_la,
    family_colors,
    induced_coloring,
    is_local_antimagic,
    labeling_matrix_view,
    merge_vertices,
    partite_classes,
    transform_cycle,
    transform_union,
    two_color_identity_holds,
    union_2labeling_family1,
    union_2labeling_family2,
    union_3labeling,
    verify_vertex_map,
    UnionSpec,
    MergeCycle,
)
from local_antimagic.reproduce import CLAIMS, counterexample_graph

from conftest import load_golden_matrix, random_connected_graph


def report(name: str, run, limit: float | None = None):
    start = time.perf_counter()
    try:
        run()
    except Exception:
        print(f"FAIL  {name}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed > limit:
        print(f"FAIL  {name} (took {elapsed:.2f}s, limit {limit}s)")
        raise AssertionError(f"{name} exceeded {limit}s: {elapsed:.2f}s")
    print(f"PASS  {name} ({elapsed:.2f}s)")


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.name for claim in CLAIMS])
def test_headline_claim(claim):
    report(claim.name, claim.run, limit=1.0)


def test_criterion_02_circulant_closed_forms():
    def run():
        for m in range(4, 62, 2):
            half = (m + 1) // 2
            coprime = [a for a in range(3, half) if math.gcd(a, m) == 1]
            step_sets = [(1,)] + [(1, a) for a in coprime]
            step_sets += [(1,) + pair for pair in combinations(coprime, 2)]
            for steps in step_sets:
                g, f = circulant_labeling(CirculantSpec(m, steps))
                coloring = induced_coloring(g, f)
                assert not coloring.conflicts
                assert coloring.colors == circulant_colors(m // 2, len(steps) - 1)

    report("2. combined circulant labelings, even m <= 60, <= 3 steps", run, limit=10.0)


def test_criterion_03_golden_label_matrices():
    def run():
        for steps, name in (((1, 3), "mg_c16_1_3.txt"), ((1, 7), "mg_c16_1_7.txt")):
            g, f = circulant_labeling(CirculantSpec(16, steps))
            view = labeling_matrix_view(g, f)
            golden = load_golden_matrix(name)
            for u in range(16):
                cells, row_sum = golden[u]
                assert list(view.entries[u]) == cells
                assert view.row_sums[u] == row_sum
            assert sorted(set(view.row_sums)) == [52, 66, 68]

    report("3. label matrices of C_16(1,3) and C_16(1,7) match golden files", run)


def test_criterion_04_c16_spectra_and_multipliers():
    def run():
        pairs = (
            (CirculantSpec(16, (1, 3, 5)), CirculantSpec(16, (1, 5, 7)), 5),
            (CirculantSpec(16, (1, 3, 5)), CirculantSpec(16, (1, 3, 7)), 3),
        )
        for src, dst, mult in pairs:
            assert certify_multiplier(src, dst, mult) is not None

    report("4. multiplier maps 5i, 3i certified on 3-step C_16 circulants", run)


def test_criterion_05_cycle_merge_cases():
    def run():
        for case in range(1, 9):
            for k in range(2, 7):
                plan = case_plan(case, k)
                n = plan.n
                result = transform_cycle(n, plan)
                g, f = result.graph, result.labeling
                assert sorted(f.labels) == list(range(1, n + 1))
                coloring = induced_coloring(g, f)
                assert coloring.colors == family_colors(n)[1]
                degrees = sorted(g.degrees)
                if case <= 4:
                    assert degrees == [4] * g.n
                elif case <= 6:
                    assert degrees == [2] + [4] * (g.n - 1)
                else:
                    assert degrees == [4] * (g.n - 1) + [6]
                assert (partite_classes(g, 2) is not None) == (case <= 2)

                e1 = f.labels.index(1)
                assert check_edge_deletion_lemma(g, f, e1)
                deleted = induced_coloring(
                    delete_edge(g, e1), deleted_edge_labeling(g, f, e1)
                )
                assert not deleted.conflicts and len(deleted.colors) == 3

                assert check_nonreg_conditions(g, f)
                fc = complement_labeling(g, f)
                en = f.labels.index(n)
                assert check_edge_deletion_lemma(g, fc, en)
                deleted = induced_coloring(
                    delete_edge(g, en), deleted_edge_labeling(g, fc, en)
                )
                assert not deleted.conflicts and len(deleted.colors) == 3

    report("5. merge cases 1-8 for k in 2..6, plus edge-deleted variants", run, limit=10.0)


def test_criterion_06_case1_circulant_and_k44():
    def run():
        merged = merge_vertices(build_cycle(16), case_plan(1, 2))
        k44 = Graph(8, tuple((u, v) for u in (0, 2, 4, 6) for v in (1, 3, 5, 7)))
        mapping = are_isomorphic(merged, k44)
        assert mapping is not None and verify_vertex_map(merged, k44, mapping)

    report("6. the case-1 merge at k=2 gives K_{4,4}", run)


def test_criterion_07_construction_matrices():
    def run():
        for s in (2, 3):
            for t in (0, 1, 2):
                built = build_construction_matrix(s, t)
                n = built.n
                regular = 2 ** (s - 1) * (n + 2)
                assert built.row_sums[0] == regular - n // 2
                assert set(built.row_sums[1:]) == {regular}
                assert set(built.col_sums) == {2 ** (s - 1) * (n + 1)}
        built = build_construction_matrix(3, 2)
        assert built.row_sums[0] == 456
        assert set(built.row_sums[1:]) == {520}

    report("7. construction matrices for (s,t) in {2,3}x{0,1,2}; n=128 sums", run)


def test_criterion_08_union_families():
    def run():
        for r in (9, 13):
            result = union_2labeling_family1(r)
            assert result.central_sum == 4 * r * r - 2 * r
            assert two_color_identity_holds(result.graph, result.labeling)
        for r in (9, 17):
            result = union_2labeling_family2(r)
            assert result.central_sum == 2 * r * r + r
            assert two_color_identity_holds(result.graph, result.labeling)

        shapes = (
            ((16, 16), ((1, 2), (1, 2))),
            ((16, 20), ((1, 2), (2, 2))),
            ((20, 20, 24), ((2, 2), (2, 2), (1, 3))),
        )
        for orders, plans in shapes:
            spec = UnionSpec(orders)
            result = union_3labeling(spec)
            m = spec.m
            sums = induced_coloring(result.graph, result.labeling).sums
            assert set(sums[1:]) == {m, m + 1}
            merged = transform_union(
                spec,
                result.labeling,
                [MergeCycle(i, case_plan(c, k)) for i, (c, k) in enumerate(plans)],
            )
            assert len(merged.colors) == 3
            verdict = check_two_color_necessary(merged.graph)
            assert verdict.bipartite and not verdict.divisibility_ok
            assert verdict.forced_at_least_three

    report("8. union central sums and 2-color identities; 3-color shapes", run, limit=30.0)


def test_criterion_09_oracle_ground_truth():
    def run():
        for m in range(3, 8):
            result = exact_chi_la(build_cycle(m))
            assert color_count(build_cycle(m), result.witness)[0] == 3
        assert exact_chi_la(counterexample_graph()).value == 3
        rng = random.Random(991)
        checked = 0
        while checked < 50:
            cand = random_connected_graph(rng, rng.randrange(4, 9), rng.randrange(0, 3))
            if cand.q > 9 or cand.q < 2:
                continue
            checked += 1
            result = exact_chi_la(cand)
            assert result.value >= chromatic_number(cand)
            assert is_local_antimagic(cand, result.witness)
            assert color_count(cand, result.witness)[0] == result.value

    report("9. exact search: cycles, counterexample, 50 random graphs", run, limit=300.0)


def test_criterion_10_lemma_property_suite():
    def run():
        regular_instances = []
        for m in (10, 16, 20):
            regular_instances.append(circulant_labeling(CirculantSpec(m, (1, 3))))
        for case in (1, 2, 3, 4):
            plan = case_plan(case, 3)
            result = transform_cycle(plan.n, plan)
            regular_instances.append((result.graph, result.labeling))
        for g, f in regular_instances:
            fc = complement_labeling(g, f)
            assert is_local_antimagic(g, fc)
            assert color_count(g, fc)[0] == color_count(g, f)[0]

        for case in (5, 6, 7, 8):
            plan = case_plan(case, 3)
            result = transform_cycle(plan.n, plan)
            g, f = result.graph, result.labeling
            assert check_nonreg_conditions(g, f)
            fc = complement_labeling(g, f)
            assert is_local_antimagic(g, fc)
            assert color_count(g, fc)[0] == color_count(g, f)[0]

        for result in (union_2labeling_family1(5), union_2labeling_family2(7)):
            g, f = result.graph, result.labeling
            count, classes = color_count(g, f)
            assert count == 2
            x, y = sorted(classes)
            assert x * len(classes[x]) == y * len(classes[y]) == g.q * (g.q + 1) // 2
            assert two_color_identity_holds(g, f)

    report("10. complement and 2-color identities on constructed labelings", run)
