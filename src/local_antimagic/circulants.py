"""Circulant graphs and their isomorphism certificates, the canonical
cycle labeling, translated labelings, and the combined circulant labeling
with three induced sums.

The base cycle labeling alternates small and large labels: edge j gets
(j+2)/2 when j is even and m-(j-1)/2 when j is odd, giving three induced
sums (floor(m/2)+2 at v_0, m+1 at odd vertices, m+2 at the other evens).
Copies translated by i*m are laid on the step cycles of an even-order
circulant; the combined labeling again has exactly three sums
(``circulant_labeling`` returns a ``Labeled``).
"""

from __future__ import annotations

import math
from itertools import chain

from .graphs import CertificationError, Graph, Record, _int, _ints
from .labelings import EdgeLabeling, Labeled, certify, validate_labeling


class CirculantSpec(Record):
    """Connection set for a circulant graph C_m(a_0, ..., a_t).

    The modulus and the steps are converted by ``_int``.  Every step must
    be coprime to the modulus; non-coprime steps (which would split into
    disjoint cycles) are rejected.
    """

    _fields = ("m", "steps")

    def __init__(self, m: int, steps: tuple[int, ...]):
        m, steps = _int(m, "modulus"), _ints(steps, "step")
        if m < 3:
            raise ValueError("modulus must be at least 3")
        if not steps:
            raise ValueError("at least one step is required")
        if len(set(steps)) != len(steps):
            raise ValueError("duplicate steps are not allowed")
        if list(steps) != sorted(steps):
            raise ValueError("steps must be strictly increasing")
        half = (m + 1) // 2  # ceil(m/2)
        for a in steps:
            if not 1 <= a < half:
                raise ValueError(f"step {a} outside [1, ceil(m/2)) for m={m}")
            if math.gcd(a, m) != 1:
                raise ValueError(
                    f"unsupported step {a}: gcd({a},{m}) > 1 gives disjoint cycles"
                )
        super().__init__(m, steps)


def gamma_cycle_sequence(m: int, a: int) -> tuple[int, ...]:
    """Vertex sequence (0, a, 2a, ..., (m-1)a) mod m of the step-a cycle."""
    if math.gcd(a % m, m) != 1:
        raise ValueError(f"step {a} is not coprime to {m}")
    return tuple((j * a) % m for j in range(m))


def _circulant_part(spec: CirculantSpec):
    us: list[int] = []
    vs: list[int] = []
    for a in spec.steps:
        seq = gamma_cycle_sequence(spec.m, a)
        us += seq
        vs += seq[1:] + seq[:1]
    return spec.m, tuple(us), tuple(vs), None


def build_circulant(spec: CirculantSpec) -> Graph:
    """Circulant graph as the union of step cycles, step-by-step edge order.

    All edges of the first step cycle come first (in cycle order starting
    at vertex 0), then the second step's, and so on, so position-defined
    labelings are deterministic.
    """
    return Graph._from_ends(*_circulant_part(spec))


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


def _translated_labels(m: int, copies: int) -> tuple[int, ...]:
    """``c_labeling(m)`` translated by i*m on step cycle i < ``copies``."""
    base, labels = c_labeling(m).labels, []
    for i in range(copies):
        labels += map((i * m).__add__, base)
    return tuple(labels)


def circulant_labeling(spec: CirculantSpec) -> Labeled:
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
    labeling = EdgeLabeling(_translated_labels(m, len(spec.steps)))
    expected = circulant_colors(m // 2, len(spec.steps) - 1)
    return Labeled(graph, labeling,
                   certify(f"combined labeling of {spec}", graph, labeling, expected))


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
    n, a, b = _int(n, "modulus"), _int(a, "step"), _int(b, "multiplier")
    if n < 3:
        raise ValueError("modulus must be at least 3")
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


def are_isomorphic(g1: Graph, g2: Graph) -> list[int] | None:
    """A vertex bijection carrying g1 onto g2 (multiplicities included), or None.

    Plain backtracking with degree and neighborhood-degree pruning;
    intended for the small instances this library produces.
    """
    if g1.n != g2.n or g1.q != g2.q or sorted(g1.degrees) != sorted(g2.degrees):
        return None
    if g1.is_regular():  # so is g2, and every vertex has the same signature
        sig1 = sig2 = [0] * g1.n
    else:
        sig1, sig2 = ([(g.degrees[v], sorted(g.degrees[w] for w in g.adjacency[v]))
                       for v in range(g.n)] for g in (g1, g2))
        if sorted(sig1) != sorted(sig2):
            return None

    # BFS order so each vertex (after the first of a component) has a
    # mapped neighbor, which shrinks its candidate set to a neighborhood.
    order = list(chain.from_iterable(g1.components))

    mapping = [-1] * g1.n
    inverse = [-1] * g2.n
    used = [False] * g2.n

    def compatible(v: int, w: int) -> bool:
        if sig1[v] != sig2[w]:
            return False
        for u, mult in g1.adjacency[v].items():
            mu = mapping[u]
            if mu != -1 and g2.adjacency[w].get(mu, 0) != mult:
                return False
        for x, mult in g2.adjacency[w].items():
            u = inverse[x]
            if u != -1 and g1.adjacency[v].get(u, 0) != mult:
                return False
        return True

    def candidates(v: int) -> list[int]:
        anchored = [mapping[u] for u in g1.adjacency[v] if mapping[u] != -1]
        pool = g2.adjacency[anchored[0]] if anchored else range(g2.n)
        return [w for w in pool if not used[w]][::-1]

    # Backtrack on an explicit stack so that long cycles stay within the
    # recursion limit: pending[i] holds the untried images of order[i],
    # last first, so that pop() tries them in candidate order.
    pending = [candidates(order[0])] if g1.n else []
    while pending:
        v = order[len(pending) - 1]
        w = mapping[v]
        if w != -1:
            mapping[v], inverse[w], used[w] = -1, -1, False
        untried = pending[-1]
        while untried and not compatible(v, untried[-1]):
            untried.pop()
        if not untried:
            pending.pop()
            continue
        w = untried.pop()
        mapping[v], inverse[w], used[w] = w, v, True
        if len(pending) == g1.n:
            break
        pending.append(candidates(order[len(pending)]))
    if len(pending) < g1.n:
        return None
    if not verify_vertex_map(g1, g2, mapping):
        raise CertificationError("isomorphism search returned an invalid mapping")
    return mapping


def verify_vertex_map(g1: Graph, g2: Graph, mapping: list[int]) -> bool:
    """True iff ``mapping`` is a bijection from g1's vertices onto g2's
    with equal edge multisets."""
    if not len(mapping) == g1.n == g2.n or sorted(mapping) != list(range(g2.n)):
        return False
    image = mapping.__getitem__
    return (sorted_edge_keys(g2.n, zip(map(image, g1.us), map(image, g1.vs)))
            == sorted_edge_keys(g2.n, zip(g2.us, g2.vs)))


def sorted_edge_keys(n: int, edges) -> list[int]:
    """The (u, v) pairs ``edges`` on n vertices as the sorted ints
    min*n + max: two graphs on n vertices have equal edge multisets
    exactly when these lists are equal."""
    return sorted([u * n + v if u < v else v * n + u for u, v in edges])


def circulant_spectrum(spec: CirculantSpec) -> list[float]:
    """Adjacency eigenvalues via the cosine closed form:
    lambda_j = sum over steps a of 2 cos(2 pi a j / m)."""
    m = spec.m
    return [
        sum(2.0 * math.cos(2.0 * math.pi * a * j / m) for a in spec.steps)
        for j in range(m)
    ]


_SPECTRUM_TOL = 1e-9


def spectra_equal(s1: list[float], s2: list[float]) -> bool:
    """Multiset comparison of two spectra within an absolute tolerance."""
    if len(s1) != len(s2):
        return False
    for x, y in zip(sorted(s1), sorted(s2)):
        if abs(x - y) > _SPECTRUM_TOL:
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
