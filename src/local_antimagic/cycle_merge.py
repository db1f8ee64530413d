"""Transforming a canonically labeled cycle into denser graphs by vertex
merging, plus the iterated block-matrix construction that yields
even-order circulants of every 2^s degree.

Eight named merge plans cover the residues of n mod 8; merging keeps
every edge in its place, so the cycle's labels carry over, and the
induced sums of the merged graph land on exactly three values per
residue family.

The construction matrix folds the labeled cycle along two arrays: each
row of the even array and each column of the odd array merges into one
vertex, and cycle edge j keeps its label in the cell holding its ends.

Each construction returns a ``Labeled``, the construction matrix with its layout.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
from operator import eq, is_not, itemgetter, lt

from .graphs import (
    CertificationError,
    Graph,
    Record,
    _columns_of,
    _cycle_part,
    _int,
    _ints,
    _part,
    _provenance,
)
from .circulants import (
    CirculantSpec,
    build_circulant,
    c_labeling,
    render_table,
    verify_vertex_map,
)
from .labelings import EdgeLabeling, Labeled, certify


class MergePlan(Record):
    """Partition of the vertices of C_n into merge blocks.

    Blocks of kind 'A' may contain only even indices, kind 'B' only odd
    indices; kind 'C' may mix parities (the special block of odd-order
    transforms).  Whether a block would create a loop is checked against
    the actual graph at merge time.  n is converted by ``_int``.  Blocks
    are kept as sorted tuples of ints, each converted by ``_int``, and
    blocks that already are need no per-block conversion.  ``rank[v]`` is
    the vertex that v's block merges into: blocks rank by their least
    vertex, so the block of vertex 0 becomes vertex 0.
    """

    _fields = ("n", "blocks", "kinds")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...], kinds: tuple[str, ...]):
        n = _int(n, "cycle order")
        if not _sorted_int_tuples(blocks):
            blocks = tuple(tuple(sorted(_ints(block, "block end"))) for block in blocks)
        if len(kinds) != len(blocks):
            raise ValueError("one kind per block required")
        least = [-1] * n  # the least vertex of each vertex's block
        for block, kind in zip(blocks, kinds):
            if kind not in ("A", "B", "C"):
                raise ValueError(f"unknown block kind {kind!r}")
            if not block:
                raise ValueError("empty block")
            if kind == "C":
                if len(block) > 3:
                    raise ValueError("C-blocks have size at most 3")
            else:
                odd = kind == "B"
                for v in block:
                    if v & 1 != odd:
                        raise ValueError(f"{kind}-block {block} contains an "
                                         f"{'even' if odd else 'odd'} index")
            for v in block:
                if not 0 <= v < n or least[v] >= 0:
                    raise ValueError("blocks must partition the vertex set")
                least[v] = block[0]
        if -1 in least:
            raise ValueError("blocks must partition the vertex set")
        # order[v] is the rank of the block whose least vertex is v.
        order = [0] * n
        for r, v in enumerate(sorted(map(itemgetter(0), blocks))):
            order[v] = r
        super().__init__(n, blocks, kinds)
        vars(self)["rank"] = tuple(map(order.__getitem__, least))


def _sorted_int_tuples(blocks) -> bool:
    """True iff ``blocks`` is a tuple of strictly increasing tuples of exact
    ints, by flat passes over all the blocks at once."""
    if type(blocks) is not tuple or not {*map(type, blocks)} <= {tuple}:
        return False
    flat, sizes = [*chain.from_iterable(blocks)], [*map(len, blocks)]
    # Byte i of ``within`` is nonzero unless flat[i] starts its block, and
    # then flat[i] must exceed flat[i - 1].
    pattern = {size: bytes(range(size)) for size in set(sizes)}
    within = b"".join(map(pattern.__getitem__, sizes))
    return {*map(type, flat)} <= {int} and all(
        compress(map(lt, flat, islice(flat, 1, None)), islice(within, 1, None)))


def _merged_part(part, plan: MergePlan):
    n, us, vs, names = part
    if plan.n != n:
        raise ValueError(f"plan is for {plan.n} vertices, graph has {n}")
    rank = plan.rank
    merged_us, merged_vs = tuple(map(rank.__getitem__, us)), tuple(map(rank.__getitem__, vs))
    if any(map(eq, merged_us, merged_vs)):
        u, v = next((u, v) for u, v in zip(us, vs) if rank[u] == rank[v])
        raise ValueError(
            f"block {sorted(plan.blocks)[rank[u]]} contains adjacent vertices "
            f"{u} and {v}; merging would create a loop"
        )
    def provenance():
        # Blocks are sorted tuples of distinct ints, so trivial names keep their order.
        blocks = sorted(plan.blocks)
        if names is None:
            return _columns_of(blocks)
        prov = _provenance(n, names)
        return _columns_of([sorted({p for v in block for p in prov[v]}, key=_prov_key)
                            for block in blocks])

    return len(plan.blocks), merged_us, merged_vs, provenance


def merge_vertices(g: Graph, plan: MergePlan) -> Graph:
    """Collapse each block of the plan into one vertex, keeping all edges.

    The merged vertex takes the rank of the smallest original index among
    all block minima, so the block of vertex 0 becomes vertex 0; edge
    indices are preserved.  A block containing two adjacent vertices would
    create a loop and is rejected.
    """
    return Graph._from_ends(*_merged_part(_part(g), plan))


def _prov_key(s: str):
    return (0, int(s)) if s.isdigit() else (1, s)


def case_plan(case: int, k: int) -> MergePlan:
    """The named merge plan for C_n; ``_run(count, a, b)`` is the run of
    blocks (a + 2i, b + 2i) for i < count.

    Case order forms: 1: n=8k, 2: n=8k+4, 3: n=8k+2, 4: n=8k+6,
    5: n=8k+1, 6: n=8k+5, 7: n=8k+3, 8: n=8k+7; all need k >= 2.
    Cases 1-4 produce 4-regular graphs; 5-6 keep one degree-2 vertex;
    7-8 merge a triple into one degree-6 vertex.  Every block is a sorted
    int tuple, so the plan takes no per-block conversion.
    """
    case, k = _int(case, "case"), _int(k, "k")
    if k < 2:
        raise ValueError(f"case plans require k >= 2, got {k}")
    a_blocks: list[tuple[int, ...]]
    b_blocks: list[tuple[int, ...]]
    c_blocks: list[tuple[int, ...]] = []
    if case == 1:
        n = 8 * k
        a_blocks = _run(2 * k, 0, 4 * k)
        b_blocks = _run(k, 1, 2 * k + 1) + _run(k, 4 * k + 1, 6 * k + 1)
    elif case == 2:
        n = 8 * k + 4
        a_blocks = _run(2 * k + 1, 0, 4 * k + 2)
        b_blocks = _run(k + 1, 1, 2 * k + 3) + _run(k, 4 * k + 5, 6 * k + 5)
    elif case == 3:
        n = 8 * k + 2
        a_blocks = _run(2 * k, 2, 4 * k + 2)
        b_blocks = _run(2 * k, 1, 4 * k + 3)
        c_blocks = [(0, 4 * k + 1)]
    elif case == 4:
        n = 8 * k + 6
        a_blocks = _run(2 * k + 1, 2, 4 * k + 4)
        b_blocks = _run(k + 1, 1, 6 * k + 5) + _run(k, 2 * k + 3, 4 * k + 5)
        c_blocks = [(0, 4 * k + 3)]
    elif case == 5:
        n = 8 * k + 1
        a_blocks = _run(2 * k, 2, 4 * k + 2)
        b_blocks = _run(k, 1, 2 * k + 1) + _run(k, 4 * k + 1, 6 * k + 1)
        c_blocks = [(0,)]
    elif case == 6:
        n = 8 * k + 5
        a_blocks = _run(2 * k + 1, 2, 4 * k + 4)
        b_blocks = _run(k + 1, 1, 6 * k + 3) + _run(k, 2 * k + 3, 4 * k + 3)
        c_blocks = [(0,)]
    elif case == 7:
        n = 8 * k + 3
        a_blocks = _run(k, 2, 4 * k + 2) + _run(k, 2 * k + 2, 6 * k + 4)
        # (2j + 1, 8k + 1 - 2j): the second entries fall.
        b_blocks = _run(k, 1, 8 * k + 1, step_b=-2) + _run(k, 2 * k + 3, 4 * k + 3)
        c_blocks = [(0, 2 * k + 1, 6 * k + 2)]
    elif case == 8:
        n = 8 * k + 7
        a_blocks = _run(k, 2, 4 * k + 6) + _run(k + 1, 2 * k + 4, 6 * k + 6)
        # (4j + 1, 4k + 3 + 2j) and (4j + 3, 6k + 7 + 2j): first entries step by 4.
        b_blocks = _run(k + 1, 1, 4 * k + 3, step_a=4) + _run(k, 3, 6 * k + 7, step_a=4)
        c_blocks = [(0, 2 * k + 2, 6 * k + 5)]
    else:
        raise ValueError(f"unknown case {case}")
    blocks = tuple(a_blocks) + tuple(b_blocks) + tuple(c_blocks)
    kinds = ("A",) * len(a_blocks) + ("B",) * len(b_blocks) + ("C",) * len(c_blocks)
    return MergePlan(n, blocks, kinds)


def _run(count: int, a: int, b: int, step_a: int = 2, step_b: int = 2) -> list[tuple[int, int]]:
    """The blocks (a + step_a*i, b + step_b*i) for i < count."""
    return [*zip(range(a, a + step_a * count, step_a), range(b, b + step_b * count, step_b))]


def family_colors(n: int) -> tuple[str, frozenset[int]]:
    """Expected induced sums of the merged graph, by residue of n mod 4."""
    m, r = divmod(n, 4)
    if r == 0:
        return "4m", frozenset({6 * m + 4, 8 * m + 4, 8 * m + 2})
    if r == 1:
        return "4m+1", frozenset({2 * m + 2, 8 * m + 6, 8 * m + 4})
    if r == 2:
        return "4m+2", frozenset({6 * m + 6, 8 * m + 8, 8 * m + 6})
    return "4m+3", frozenset({10 * m + 12, 8 * m + 10, 8 * m + 8})


def _merged_cycle(plan: MergePlan) -> Graph:
    """The graph that ``plan`` makes of C_n, built with no graph of C_n."""
    return Graph._from_ends(*_merged_part(_cycle_part(plan.n), plan))


def transform_cycle(n: int, plan: MergePlan) -> Labeled:
    """Apply the canonical labeling to C_n, merge per the plan, and verify
    that the induced sums are exactly the family's three values
    (``family_colors(n)``).

    A mismatch means the plan is not one of the sum-preserving shapes and
    is reported as a hard error rather than returned silently.
    """
    if plan.n != n:
        raise ValueError(f"plan order {plan.n} does not match n={n}")
    labeling = c_labeling(n)
    merged = _merged_cycle(plan)
    family, expected = family_colors(n)
    return Labeled(merged, labeling,
                   certify(f"merge of C_{n} ({family} profile)", merged, labeling, expected))


def verify_case1_circulant(k: int) -> list[int]:
    """Certify that the Case-1 merge of C_{8k} equals C_{4k}(1, 2k-1).

    Builds the explicit relabeling (merged pair with smallest index 2i
    becomes u_{2i}; odd pairs keep their small index when it is below 2k
    and drop by 2k otherwise) and checks it edge-by-edge.  Failure is a
    construction bug.
    """
    merged = _merged_cycle(case_plan(1, k))
    target = build_circulant(CirculantSpec(4 * k, (1, 2 * k - 1)))
    smallest = [min(map(int, names)) for names in merged.provenance]
    mapping = [p if p % 2 == 0 or p <= 2 * k - 1 else p - 2 * k for p in smallest]
    if not verify_vertex_map(merged, target, mapping):
        raise CertificationError(f"Case 1 relabeling failed certification at k={k}")
    return mapping


class EvenOddArrays(Record):
    """Block-recursive arrays of the evens (columns) and odds (rows) of
    [0, n-1], for n = 2^{2s-1}(t+2): ``evens`` is 2^{s-1}(t+2) x 2^{s-1}
    and ``odds`` 2^{s-1} x 2^{s-1}(t+2).  Construction raises unless they
    hold the evens and the odds of [0, n-1] exactly once each.
    ``index[p]`` is the row of even p in the even array and the column of
    odd p in the odd array."""

    _fields = ("evens", "odds")

    def __init__(self, evens: tuple[tuple[int, ...], ...], odds: tuple[tuple[int, ...], ...]):
        flat_evens, flat_odds = [*chain.from_iterable(evens)], [*chain.from_iterable(odds)]
        n = len(flat_evens) + len(flat_odds)
        if sorted(flat_evens) != [*range(0, n, 2)] or sorted(flat_odds) != [*range(1, n, 2)]:
            raise CertificationError(f"even and odd arrays do not partition [0, {n - 1}]")
        rows = chain.from_iterable(map(repeat, range(len(evens)), map(len, evens)))
        columns = chain.from_iterable(map(range, map(len, odds)))
        index = [0] * n
        for p, cell in zip(chain(flat_evens, flat_odds), chain(rows, columns)):
            index[p] = cell
        super().__init__(evens, odds)
        vars(self)["index"] = index


def build_even_odd_arrays(s: int, t: int) -> EvenOddArrays:
    """Assemble the even and odd arrays by the quartered block recursion
    with offsets 2^{2i-2}(2t+4) * {0, 1, 2, 3}."""
    s, t = _int(s, "s"), _int(t, "t")
    if s < 2 or t < 0:
        raise ValueError("requires s >= 2 and t >= 0")
    a = [[p] for p in range(0, 2 * t + 3, 2)]
    b = [list(range(1, 2 * t + 4, 2))]
    for i in range(1, s):
        off = 2 ** (2 * i - 2) * (2 * t + 4)
        a, b = _quartered(a, off), _quartered(b, off)
    return EvenOddArrays(tuple(map(tuple, a)), tuple(map(tuple, b)))


def _quartered(x: list[list[int]], off: int) -> list[list[int]]:
    """The block matrix [[x, x + 2 off], [x + off, x + 3 off]]."""
    top = [row + [p + 2 * off for p in row] for row in x]
    bottom = [[p + off for p in row] + [p + 3 * off for p in row] for row in x]
    return top + bottom


def construction_steps(s: int, t: int) -> tuple[int, ...]:
    """Connection set of the order-2^s(t+2) circulant realized by the
    construction matrix: 1 and 2t+3 shifted by multiples of 2t+4."""
    steps: set[int] = set()
    for j in range(2 ** (s - 2)):
        steps.add(1 + j * (2 * t + 4))
        steps.add(2 * t + 3 + j * (2 * t + 4))
    return tuple(sorted(steps))


class ConstructionMatrix(Labeled):
    """Label matrix of the iterated construction, together with the
    certified circulant it realizes: a ``Labeled`` with its layout.

    Rows index the merged even groups (vertices u_0, u_2, ...), columns
    the merged odd groups (u_1, u_3, ...); ``labels[x][y]`` is a label or
    None.  Row sums of the label matrix are the induced sums of the even
    vertices; column sums those of the odd vertices.
    """

    _fields = ("s", "t", "n", "arrays", "labels", "spec", "graph", "labeling", "coloring")

    @property
    def pattern(self) -> tuple[tuple[int, ...], ...]:
        """The 0/1 incidence pattern: 1 where a cell holds a label."""
        return tuple(tuple(int(x is not None) for x in row) for row in self.labels)

    @property
    def row_sums(self) -> tuple[int, ...]:
        return self.coloring.sums[::2]

    @property
    def col_sums(self) -> tuple[int, ...]:
        return self.coloring.sums[1::2]

    def render(self) -> str:
        """Text table in the layout of the label matrices elsewhere in
        this library: odd groups as stacked column headers, even groups
        as row headers, '*' for empty cells, trailing Sum row/column."""
        width = len(self.arrays.evens[0])
        last = len(self.arrays.odds) - 1
        rows = [
            [""] * width + list(odds) + ["Sum" if rr == last else ""]
            for rr, odds in enumerate(self.arrays.odds)
        ]
        rows += [
            [*evens, *labels, total]
            for evens, labels, total in zip(self.arrays.evens, self.labels, self.row_sums)
        ]
        rows.append([""] * (width - 1) + ["Sum", *self.col_sums, ""])
        return render_table(rows)


def build_construction_matrix(s: int, t: int) -> ConstructionMatrix:
    """Fold the canonically labeled C_n, n = 2^{2s-1}(t+2), along the even
    and odd arrays and certify the resulting 2^s-regular circulant and
    its 3-color labeling.

    Cycle edge j joins v_j and v_{j+1 mod n}; it goes to the cell whose
    row holds its even end and whose column holds its odd end, and keeps
    its label from ``c_labeling(n)``.
    """
    s, t = _int(s, "s"), _int(t, "t")
    arrays = build_even_odd_arrays(s, t)
    n = 2 ** (2 * s - 1) * (t + 2)
    size = 2 ** (s - 1) * (t + 2)
    index = arrays.index
    labels: list[list[int | None]] = [[None] * size for _ in range(size)]
    for j, label in enumerate(c_labeling(n).labels):
        even, odd = (j, j + 1) if j % 2 == 0 else ((j + 1) % n, j)
        x, y = index[even], index[odd]
        if labels[x][y] is not None:
            raise CertificationError(f"cell ({x},{y}) holds two cycle edges, one of them {j}")
        labels[x][y] = label
    filled = [[*map(is_not, row, repeat(None))] for row in labels]
    if any(filled[x - 1][-1:] + filled[x - 1][:-1] != filled[x] for x in range(size)):
        raise CertificationError("incidence pattern rows are not cyclic shifts")

    def provenance():
        return _columns_of([*chain.from_iterable(zip(arrays.evens, zip(*arrays.odds)))])

    # Vertices u_0..u_{2*size-1}: row x is u_{2x}, column y is u_{2y+1}; the
    # edges are the filled cells in row-major order.
    us = tuple(chain.from_iterable(map(repeat, range(0, 2 * size, 2), map(sum, filled))))
    vs = tuple(chain.from_iterable(map(compress, repeat(range(1, 2 * size, 2)), filled)))
    graph = Graph._from_ends(2 * size, us, vs, provenance)
    labeling = EdgeLabeling(tuple(chain.from_iterable(map(compress, labels, filled))))

    spec = CirculantSpec(2 * size, construction_steps(s, t))
    if not verify_vertex_map(graph, build_circulant(spec), [*range(2 * size)]):
        raise CertificationError(f"pattern does not match the adjacency of {spec}")
    regular = 2 ** (s - 1) * (n + 2)
    sums = frozenset({regular - n // 2, regular, 2 ** (s - 1) * (n + 1)})
    return ConstructionMatrix(s, t, n, arrays, tuple(map(tuple, labels)), spec, graph, labeling,
                              certify(f"construction labeling of {spec}", graph, labeling, sums))
