"""Canonical cycle labeling, translated labelings, and the combined
circulant labeling with three induced sums.

The base cycle labeling alternates small and large labels: edge j gets
(j+2)/2 when j is even and m-(j-1)/2 when j is odd, giving three induced
sums (floor(m/2)+2 at v_0, m+1 at odd vertices, m+2 at the other evens).
Copies translated by i*m are laid on the step cycles of an even-order
circulant; the combined labeling again has exactly three sums.
"""

from __future__ import annotations

import math

from .graphs import (
    CertificationError,
    CirculantSpec,
    Graph,
    Record,
    _int,
    build_circulant,
    verify_vertex_map,
)
from .labelings import EdgeLabeling, certify, validate_labeling


def c_labeling(m: int) -> EdgeLabeling:
    """The canonical three-color labeling of C_m."""
    m = _int(m, "cycle order")
    if m < 3:
        raise ValueError(f"cycle order must be at least 3, got {m}")
    # Even edges j take (j+2)/2 = 1, 2, ...; odd edges m-(j-1)/2 = m, m-1, ...
    labels = [0] * m
    labels[::2] = range(1, (m + 1) // 2 + 1)
    labels[1::2] = range(m, (m + 1) // 2, -1)
    return EdgeLabeling(tuple(labels))


def c_labeling_sums(m: int) -> tuple[int, int, int]:
    """Expected induced sums of the canonical cycle labeling:
    (at v_0, at odd vertices, at even vertices > 0)."""
    return (m // 2 + 2, m + 1, m + 2)


def circulant_colors(n: int, t: int) -> frozenset[int]:
    """Closed-form induced sums of the combined labeling on C_{2n} with
    t+1 steps: central, odd-vertex, and even-vertex values."""
    return frozenset(
        {
            (t + 1) * (2 * n * t + n + 2),
            (t + 1) * (2 * n * t + 2 * n + 1),
            (t + 1) * (2 * n * t + 2 * n + 2),
        }
    )


def circulant_labeling(spec: CirculantSpec) -> tuple[Graph, EdgeLabeling]:
    """Combined labeling of an even-order circulant: the i-th step cycle
    carries the canonical labeling translated by i*m.

    Odd order is refused: there the same construction produces adjacent
    equal sums (e.g. C_9(1,2)).  The result is verified to be local
    antimagic with exactly the three closed-form sums before returning.
    """
    m = spec.m
    if m % 2 != 0:
        raise ValueError(
            f"combined circulant labeling requires even order, got {m}; "
            "the construction fails on odd cycles such as C_9(1,2)"
        )
    if spec.steps[0] != 1:
        raise ValueError("connection set must contain step 1")
    graph = build_circulant(spec)
    base = c_labeling(m)
    labels: list[int] = []
    for i in range(len(spec.steps)):
        labels += map((i * m).__add__, base.labels)
    labeling = EdgeLabeling(tuple(labels))
    expected = circulant_colors(m // 2, len(spec.steps) - 1)
    certify(f"combined labeling of {spec}", graph, labeling, expected)
    return graph, labeling


def _canonical_step(a: int, n: int) -> int:
    a %= n
    return min(a, n - a)


def certify_multiplier(
    src: CirculantSpec, dst: CirculantSpec, mult: int
) -> list[int] | None:
    """Verify edge-by-edge that i -> mult*i mod n maps src onto dst.

    Returns the vertex bijection when it is an isomorphism, else None.
    """
    n = src.m
    if dst.m != n or math.gcd(mult, n) != 1:
        return None
    mapping = [(mult * i) % n for i in range(n)]
    g1, g2 = build_circulant(src), build_circulant(dst)
    return mapping if verify_vertex_map(g1, g2, mapping) else None


def multiplier_isomorphism(n: int, a: int, b: int) -> list[int]:
    """Certified isomorphism C_n(1,a) -> C_n(1,b) via i -> b*i mod n.

    Valid whenever a*b = +-1 (mod n); any other pair is refused rather
    than tried, since the lemma gives no guarantee there.
    """
    if math.gcd(a, n) != 1:
        raise ValueError(f"step {a} is not coprime to {n}")
    if (a * b) % n not in (1 % n, (-1) % n):
        raise ValueError(
            f"a*b = {a * b} is not +-1 mod {n}; multiplier map not certified"
        )
    src = CirculantSpec(n, tuple(sorted({1, _canonical_step(a, n)})))
    dst = CirculantSpec(n, tuple(sorted({1, _canonical_step(b, n)})))
    mapping = certify_multiplier(src, dst, b)
    if mapping is None:
        raise CertificationError(f"multiplier map i->{b}i failed certification")
    return mapping


def circulant_spectrum(spec: CirculantSpec) -> list[float]:
    """Adjacency eigenvalues via the cosine closed form:
    lambda_j = sum over steps a of 2 cos(2 pi a j / m)."""
    m = spec.m
    return [
        sum(2.0 * math.cos(2.0 * math.pi * a * j / m) for a in spec.steps)
        for j in range(m)
    ]


def spectra_equal(s1: list[float], s2: list[float], tol: float = 1e-9) -> bool:
    """Multiset comparison of two spectra within an absolute tolerance."""
    if len(s1) != len(s2):
        return False
    for x, y in zip(sorted(s1), sorted(s2)):
        if abs(x - y) > tol:
            return False
    return True


class LabelingMatrixView(Record):
    """Symmetric label matrix: ``entries[u][v]`` is the label of edge uv,
    or None when there is none.

    Row sums (``row_sums``) equal the induced vertex sums.  Only defined
    for simple graphs, where every cell is unambiguous.
    """

    _fields = ("entries", "row_sums")

    @property
    def size(self) -> int:
        return len(self.entries)

    def render(self) -> str:
        """Aligned text table with '*' for absent entries and a trailing
        Sum column, in the layout used throughout this library's docs."""
        n = self.size
        rows = [["", *range(n), "Sum"]]
        rows += [[u, *self.entries[u], self.row_sums[u]] for u in range(n)]
        return render_table(rows)


def render_table(rows: list[list]) -> str:
    """The cells right-aligned per column, two spaces apart, with '*'
    for None: the layout of every label matrix this library prints."""
    text = [["*" if x is None else str(x) for x in row] for row in rows]
    widths = [max(len(r[c]) for r in text) for c in range(len(text[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in text
    )


def labeling_matrix_view(g: Graph, f: EdgeLabeling) -> LabelingMatrixView:
    validate_labeling(g, f)
    if not g.is_simple():
        raise ValueError("labeling matrix is ambiguous on parallel edges")
    entries: list[list[int | None]] = [[None] * g.n for _ in range(g.n)]
    for u, v, x in zip(g.us, g.vs, f.labels):
        entries[u][v] = x
        entries[v][u] = x
    row_sums = tuple(sum(x for x in row if x is not None) for row in entries)
    return LabelingMatrixView(tuple(tuple(r) for r in entries), row_sums)
