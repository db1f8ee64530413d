import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from local_antimagic import (
    CirculantSpec,
    build_circulant,
    build_cycle,
    c_labeling,
    c_labeling_sums,
    certify_multiplier,
    circulant_colors,
    circulant_labeling,
    circulant_spectrum,
    color_count,
    induced_coloring,
    labeling_matrix_view,
    multiplier_isomorphism,
    spectra_equal,
)

from conftest import load_golden_matrix


@given(st.integers(3, 300))
@settings(max_examples=80, deadline=None)
def test_c_labeling_color_set(m):
    count, classes = color_count(build_cycle(m), c_labeling(m))
    assert count == 3
    assert frozenset(classes) == frozenset(c_labeling_sums(m))


def test_c_labeling_class_structure():
    m = 10
    _, classes = color_count(build_cycle(m), c_labeling(m))
    assert classes[m // 2 + 2] == [0]
    assert classes[m + 1] == [1, 3, 5, 7, 9]
    assert classes[m + 2] == [2, 4, 6, 8]


def test_circulant_labeling_translates_each_step_cycle():
    # The i-th step cycle carries the canonical labeling shifted by i*m,
    # laid from vertex 0 along the step: labels [i*m+1, (i+1)*m].
    g, f = circulant_labeling(CirculantSpec(16, (1, 3, 5)))
    for i, a in enumerate((1, 3, 5)):
        block = slice(16 * i, 16 * (i + 1))
        assert f.labels[block] == tuple(x + 16 * i for x in c_labeling(16).labels)
        assert g.edges[16 * i] == (0, a)
    assert sorted(f.labels[32:]) == list(range(33, 49))


def test_circulant_labeling_refuses_odd_order():
    with pytest.raises(ValueError, match="even order"):
        circulant_labeling(CirculantSpec(9, (1, 2)))


def test_circulant_labeling_requires_step_one():
    with pytest.raises(ValueError, match="step 1"):
        circulant_labeling(CirculantSpec(16, (3, 5)))


def test_odd_order_construction_really_fails():
    # The same translated layout on C_9(1,2) has adjacent equal sums,
    # which is why odd orders are refused.
    spec = CirculantSpec(9, (1, 2))
    g = build_circulant(spec)
    base = c_labeling(9)
    labels = tuple(base.labels) + tuple(x + 9 for x in base.labels)
    from local_antimagic import EdgeLabeling

    coloring = induced_coloring(g, EdgeLabeling(labels))
    assert coloring.conflicts


def test_combined_labeling_matches_closed_forms():
    for m in range(6, 62, 2):
        half = (m + 1) // 2
        coprime = [a for a in range(3, half) if math.gcd(a, m) == 1]
        step_sets = [(1,)] + [(1, a) for a in coprime]
        step_sets += [(1,) + pair for pair in combinations(coprime, 2)]
        for steps in step_sets:
            graph, labeling = circulant_labeling(CirculantSpec(m, steps))
            coloring = induced_coloring(graph, labeling)
            assert not coloring.conflicts
            assert coloring.colors == circulant_colors(m // 2, len(steps) - 1)


def test_multiplier_isomorphism_certified():
    mapping = multiplier_isomorphism(16, 3, 11)
    assert mapping[1] == 11
    with pytest.raises(ValueError, match="not \\+-1"):
        multiplier_isomorphism(16, 3, 7)


def test_multiplier_triples():
    base = CirculantSpec(16, (1, 3, 5))
    assert certify_multiplier(base, CirculantSpec(16, (1, 3, 7)), 3) is not None
    assert certify_multiplier(base, CirculantSpec(16, (1, 5, 7)), 5) is not None
    assert certify_multiplier(base, CirculantSpec(16, (1, 3, 7)), 5) is None


def test_spectrum_against_numpy():
    for spec in (CirculantSpec(16, (1, 3)), CirculantSpec(14, (1, 5)), CirculantSpec(12, (1, 5))):
        g = build_circulant(spec)
        adjacency = np.zeros((g.n, g.n))
        for u, v in g.edges:
            adjacency[u, v] += 1
            adjacency[v, u] += 1
        eig = sorted(np.linalg.eigvalsh(adjacency))
        assert spectra_equal(circulant_spectrum(spec), list(eig))


def test_cospectral_iff_isomorphic_for_c16_pairs():
    s13 = circulant_spectrum(CirculantSpec(16, (1, 3)))
    s15 = circulant_spectrum(CirculantSpec(16, (1, 5)))
    s17 = circulant_spectrum(CirculantSpec(16, (1, 7)))
    # 3 * 5 = 15 = -1 (mod 16): isomorphic, hence cospectral.
    assert spectra_equal(s13, s15)
    assert not spectra_equal(s13, s17)
    assert not spectra_equal(s15, s17)


def test_matrix_view_against_golden_files():
    for steps, name in (((1, 3), "mg_c16_1_3.txt"), ((1, 7), "mg_c16_1_7.txt")):
        g, f = circulant_labeling(CirculantSpec(16, steps))
        view = labeling_matrix_view(g, f)
        golden = load_golden_matrix(name)
        assert view.size == len(golden) == 16
        for u in range(16):
            cells, row_sum = golden[u]
            assert list(view.entries[u]) == cells
            assert view.row_sums[u] == row_sum
        assert sorted(set(view.row_sums)) == [52, 66, 68]


def test_matrix_view_render_shape():
    g, f = build_cycle(4), c_labeling(4)
    text = labeling_matrix_view(g, f).render()
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["0", "1", "2", "3", "Sum"]
    assert lines[1].split() == ["0", "*", "1", "*", "3", "4"]


# sha256 of the rendered label matrices of C_16(1,3) and C_16(1,3,5,7),
# recorded before the two table renderers were merged.
@pytest.mark.parametrize(
    "steps,digest",
    [
        ((1, 3), "3e6a7d511b3bce323debee4f8fbcb6236a9ba2f5a18465b8351c84f02acca738"),
        ((1, 3, 5, 7), "41c46771cd93e572705bb7eed512d00b6bad2d1d12661efbafe47cb78747869a"),
    ],
)
def test_matrix_view_render_is_pinned(steps, digest):
    g, f = circulant_labeling(CirculantSpec(16, steps))
    text = labeling_matrix_view(g, f).render()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
