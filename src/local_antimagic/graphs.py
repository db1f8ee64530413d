"""Undirected multigraphs with stable vertex and edge indices.

A graph stores its edges only as two end columns, ``us`` and ``vs``: edge
i joins ``us[i]`` and ``vs[i]``, and i is the edge's index.  ``edges``,
the tuple of (u, v) pairs, is always a view of the columns, built on
first read.  Every transformation here (vertex merging, one-point union,
edge deletion) preserves the indices of surviving edges so that edge
labelings carry over unchanged, and builds the columns of its result in
one pass, with no tuple per edge and no intermediate graph.  Every graph
passes one check of its columns; loops are never allowed, parallel edges are.

``Record`` is the base of the library's immutable records, here and in
the construction modules.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import chain, compress, islice
from operator import eq, index, itemgetter, lt


class CertificationError(AssertionError):
    """A construction or certificate failed its own check: a library bug,
    never bad input.  An AssertionError, so existing handlers catch it."""


class Record:
    """An immutable record of the fields named in ``_fields``.

    It is built from the fields in order, by position or by keyword, and
    compares equal to a record of the same class with equal fields.  Its
    hash and its repr are those of the fields, as a frozen dataclass has
    them.  Assigning or deleting any attribute raises AttributeError.  A
    record that converts or checks its fields defines its own
    ``__init__``.  Attributes derived at init are kept out of
    ``_fields``, so equality, hash and repr ignore them.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, fields[len(args):]))
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() is missing field {exc}") from None
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        vars(self).update(zip(fields, args))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(Record):
    """Immutable loop-free multigraph on vertices ``0..n-1`` with ``q`` edges.

    Edge i joins ``us[i]`` and ``vs[i]``: every graph stores its edges as
    these two end columns, tuples of ints, and ``edges``, the tuple of
    (u, v) pairs, is a view built on first read.  ``Graph(n, edges)`` keeps
    each exact int end of its pairs or rows, converts any other end by
    ``operator.index`` (a numpy int, say) and refuses a bool, a float or a
    str; then its columns pass ``_keep_checked``, as every graph's do.

    ``provenance[v]`` is the set of original vertex identifiers that were
    collapsed into ``v`` (trivial for freshly built graphs).  It exists so
    merged vertices can be displayed with their original subscripts.  It
    is built on first read: a graph stores nothing for the trivial
    provenance, and a derived graph only the function that builds it.
    """

    # Equality and hash read these; the repr shows n and the edges.
    _fields = ("n", "us", "vs", "provenance")

    def __init__(self, n: int, edges, provenance=()):
        us, vs = _split(edges)
        _keep_checked(self, n, us, vs, provenance)

    @classmethod
    def _from_ends(cls, n: int, us: tuple, vs: tuple, provenance=()) -> Graph:
        """The graph of the end columns ``us`` and ``vs``, kept as they are."""
        g = cls.__new__(cls)
        _keep_checked(g, n, us, vs, provenance)
        return g

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.us, self.vs))

    @cached_property
    def provenance(self) -> tuple[tuple[str, ...], ...]:
        return _provenance(self.n, self._names)

    def __reduce__(self):
        # Columns as they are, names only when not trivial; a function is not picklable.
        names = self.provenance if callable(self._names) else self._names or ()
        return Graph._from_ends, (self.n, self.us, self.vs, names)

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in zip(self.us, self.vs):
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex (parallel edges repeat)."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(zip(self.us, self.vs)):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(map(tuple, inc))

    @cached_property
    def adjacency(self) -> tuple[dict[int, int], ...]:
        """Per-vertex map neighbor -> edge multiplicity."""
        adj: list[dict[int, int]] = [{} for _ in range(self.n)]
        for u, v in zip(self.us, self.vs):
            adj[u][v] = adj[u].get(v, 0) + 1
            adj[v][u] = adj[v].get(u, 0) + 1
        return tuple(adj)

    def is_simple(self) -> bool:
        return all(m == 1 for adj in self.adjacency for m in adj.values())

    def is_regular(self) -> bool:
        return self.n > 0 and len(set(self.degrees)) == 1

    @cached_property
    def _traversal(self) -> tuple[tuple[tuple[int, ...], ...], list[int] | None]:
        """One breadth-first pass over the neighbors: the connected
        components in order of their least vertex, each in breadth-first
        order from it, and the 2-coloring that gives each component's least
        vertex color 0, or None if the graph is not bipartite."""
        adjacency, color = self.adjacency, [-1] * self.n
        components, bipartite = [], True
        for start in range(self.n):
            if color[start] < 0:
                color[start] = 0
                component = [start]
                for v in component:  # the list grows as the search reaches vertices
                    c = 1 - color[v]
                    for w in adjacency[v]:
                        if color[w] < 0:
                            color[w] = c
                            component.append(w)
                        elif color[w] != c:
                            bipartite = False
                components.append(tuple(component))
        return tuple(components), color if bipartite else None

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return self._traversal[0]

    def is_connected(self) -> bool:
        return len(self.components) <= 1


def _keep_checked(g: Graph, n: int, us, vs, provenance) -> None:
    """Keep the end columns ``us`` and ``vs`` in ``g`` once they pass the
    one edge check, which raises even under ``python -O``: on an n that is
    not an int by ``_index`` or is negative, on columns of unequal length,
    then at the first edge with a non-int end, a loop or an end outside
    ``0..n-1``.  One plain loop: at 10 and 6.5*10^4 edges it beat C-level
    passes over the columns (type, min, max, eq)."""
    if type(n) is not int:
        n = _int(n, "vertex count")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if len(us) != len(vs):
        raise ValueError(f"end columns of {len(us)} and {len(vs)} entries")
    for u, v in zip(us, vs):
        if (type(u) is not int or type(v) is not int or u == v
                or u < 0 or v < 0 or u >= n or v >= n):
            for x in (u, v):
                if type(x) is not int:
                    raise ValueError(f"edge end {x!r} is not an int")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    kept = vars(g)
    kept["n"], kept["q"], kept["us"], kept["vs"] = n, len(us), us, vs
    kept["_names"] = _stored_names(n, provenance)


def _split(rows) -> tuple[tuple, tuple]:
    """The end columns of ``rows``, pairs (u, v): an exact int end is kept
    and any other end goes through ``_index``.  One plain loop, not
    zip(*rows): it makes an iterator per row, and at 2*10^5 rows the
    collector runs that they trigger took 6x longer."""
    us: list = []
    vs: list = []
    for u, v in rows:
        us.append(u if type(u) is int else _index(u))
        vs.append(v if type(v) is int else _index(v))
    return tuple(us), tuple(vs)


def _index(x):
    """``x`` as an exact int by ``operator.index`` (a numpy int, say), or
    ``x`` itself, for the caller to refuse, when it is a bool or has no
    index (a float or a str)."""
    return x if isinstance(x, bool) or not hasattr(x, "__index__") else index(x)


def _int(x, what: str) -> int:
    """``x`` by ``_index``; ValueError naming ``what`` when that is not an
    exact int."""
    x = _index(x)
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an int")
    return x


def _ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of exact ints, each by ``_int``; a tuple of
    exact ints is kept as it is."""
    if type(values) is not tuple or not set(map(type, values)) <= {int}:
        values = tuple(values)
        if not set(map(type, values)) <= {int}:
            values = tuple([_int(x, what) for x in values])
    return values


def _stored_names(n: int, provenance):
    """What a graph keeps of ``provenance``: None for the trivial one, a
    function as it is, else the entries as tuples of strs."""
    if callable(provenance):
        return provenance
    if not provenance or (
            len(provenance) == n and set(map(type, provenance)) <= {list, tuple}
            and set(map(len, provenance)) == {1}
            and all(map(eq, chain.from_iterable(provenance), map(str, range(n))))):
        return None
    return _provenance(n, tuple(tuple(str(x) for x in entry) for entry in provenance))


def _provenance(n: int, names) -> tuple[tuple[str, ...], ...]:
    """The provenance a graph on n vertices keeps as ``names``."""
    prov = tuple((str(v),) for v in range(n)) if names is None else names
    prov = prov if type(prov) is tuple else prov()
    if len(prov) != n:
        raise ValueError("provenance length must equal vertex count")
    return prov


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


# A part is what a graph is made of before it is checked: its vertex count,
# its end columns and the names that ``_provenance`` reads.  Constructions
# build their parts from ranges and remaps and check only the result.

def _part(g: Graph):
    return g.n, g.us, g.vs, g._names


def _cycle_part(m: int):
    m = _int(m, "cycle order")
    if m < 3:
        raise ValueError(f"cycle order must be at least 3, got {m}")
    return m, tuple(range(m)), (*range(1, m), 0), None


def build_cycle(m: int) -> Graph:
    """Cycle C_m with edge j joining v_j and v_{j+1 mod m}."""
    return Graph._from_ends(*_cycle_part(m))


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
    source = partial(_provenance, n, names)

    def provenance():
        prov = source()
        return tuple(tuple(sorted({p for v in block for p in prov[v]}, key=_prov_key))
                     for block in sorted(plan.blocks))

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


def one_point_union(graphs: list[Graph], attach: list[int]) -> Graph:
    """Identify one chosen vertex of every graph into a single central vertex.

    The central vertex gets index 0; the remaining vertices follow in graph
    order, then vertex order.  Edges are concatenated graph by graph with
    endpoints remapped, so edge indices stay stable per component.
    """
    return _union([_part(g) for g in graphs], attach)


def _union(parts: list, attach: list[int]) -> Graph:
    """``one_point_union`` of parts."""
    if not parts:
        raise ValueError("one-point union of an empty list")
    if len(attach) != len(parts):
        raise ValueError("one attach vertex per graph required")
    offset = 1
    us: list[int] = []
    vs: list[int] = []
    for idx, ((n, part_us, part_vs, _), a) in enumerate(zip(parts, attach)):
        if not 0 <= a < n:
            raise ValueError(f"attach vertex {a} out of range for graph {idx}")
        vmap = [*range(offset, offset + a), 0, *range(offset + a, offset + n - 1)]
        us += map(vmap.__getitem__, part_us)
        vs += map(vmap.__getitem__, part_vs)
        offset += n - 1
    sources = [(partial(_provenance, n, names), a) for (n, _, _, names), a in zip(parts, attach)]

    def provenance():
        central: list[str] = []
        rest: list[tuple[str, ...]] = []
        for idx, (source, a) in enumerate(sources):
            prov = source()
            prefix = "" if len(sources) == 1 else f"c{idx}."
            central.extend(prefix + p for p in prov[a])
            rest.extend(tuple(prefix + p for p in entry) for entry in prov[:a] + prov[a + 1:])
        return (tuple(central), *rest)

    return Graph._from_ends(offset, tuple(us), tuple(vs), provenance)


def delete_edge(g: Graph, e: int) -> Graph:
    """Remove edge ``e``; the remaining edges keep their relative order."""
    if not 0 <= e < g.q:
        raise ValueError(f"edge index {e} out of range")
    us, vs = g.us, g.vs
    return Graph._from_ends(g.n, us[:e] + us[e + 1:], vs[:e] + vs[e + 1:],
                            partial(_provenance, g.n, g._names))


def first_coloring(g: Graph, k: int, vertices=None) -> dict[int, int] | None:
    """The lexicographically first proper k-coloring of the vertices, or
    of those in ``vertices`` (say, a component), taken highest degree
    first and on ties in the order given, as a color per vertex, or None
    if there is none.  Backtracks on an explicit stack so that long cycles
    stay within the recursion limit."""
    order = sorted(range(g.n) if vertices is None else vertices, key=lambda v: -g.degrees[v])
    # Depth i colors order[i]: tried[i] is its current color, used[i]
    # the colors in use before it.  Trying at most one fresh color kills
    # color-permutation symmetry and keeps the lexicographically first
    # coloring: swapping two colors unused so far only moves it later.
    n = len(order)
    color, tried, used = dict.fromkeys(order, -1), [-1] * n, [0] * (n + 1)
    i = 0
    while 0 <= i < n:
        v = order[i]
        color[v] = -1
        taken = {color.get(w) for w in g.adjacency[v]}
        fresh = min(used[i] + 1, k)
        c = next((x for x in range(tried[i] + 1, fresh) if x not in taken), -1)
        tried[i] = c
        if c < 0:
            i -= 1
        else:
            color[v] = c
            used[i + 1] = max(used[i], c + 1)
            i += 1
    return color if i == n else None


def partite_classes(g: Graph, k: int) -> list[list[int]] | None:
    """A proper k-partition into independent sets, or None if none exists.

    Parallel edges count as a single adjacency.  k=2 reads the 2-coloring
    of the graph's one cached traversal; k=3 takes the first 3-coloring of
    ``first_coloring``.
    """
    if k not in (2, 3):
        raise ValueError("only k=2 and k=3 are supported")
    color = g._traversal[1] if k == 2 else first_coloring(g, 3)
    if color is None:
        return None
    return [[v for v in range(g.n) if color[v] == c] for c in range(k)]


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
    """True iff ``mapping`` is a bijection with equal edge multisets."""
    if sorted(mapping) != list(range(g2.n)):
        return False
    image = mapping.__getitem__
    return (sorted_edge_keys(g2.n, zip(map(image, g1.us), map(image, g1.vs)))
            == sorted_edge_keys(g2.n, zip(g2.us, g2.vs)))


def sorted_edge_keys(n: int, edges) -> list[int]:
    """The (u, v) pairs ``edges`` on n vertices as the sorted ints
    min*n + max: two graphs on n vertices have equal edge multisets
    exactly when these lists are equal."""
    return sorted([u * n + v if u < v else v * n + u for u, v in edges])
