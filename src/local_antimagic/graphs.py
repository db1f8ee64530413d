"""Undirected multigraphs with stable vertex and edge indices.

A graph stores its edges only as two end columns, ``us`` and ``vs``: edge
i joins ``us[i]`` and ``vs[i]``, and i is the edge's index.  ``edges``,
the tuple of (u, v) pairs, is always a view of the columns, built on
first read.  Every graph passes one check of its columns; loops are never
allowed, parallel edges are.  Each construction module builds its family
from parts (see ``_part``) in the edge order its labelings depend on, in
one pass and with no intermediate graph; every family starts from the
cycle, built here.

``Record`` is the base of the library's immutable records, here and in
the construction modules.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice, repeat
from operator import eq, index


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
    provenance, and otherwise a function that gives the names' columns
    (see ``_columns``), with no tuple per vertex.
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
        names = () if self._names is None else self.provenance
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
    function as it is, else a function giving the columns of the entries.
    An entry that is not a list or a tuple (a str, say) raises ValueError
    naming it, then a name that is neither a str nor an exact int (which
    becomes its decimal text), then entries that are not one per vertex."""
    if callable(provenance):
        return provenance
    if not provenance:
        return None
    if not set(map(type, provenance)) <= {list, tuple}:
        for entry in provenance:
            if not isinstance(entry, (list, tuple)):
                raise ValueError(f"provenance entry {entry!r} is not a list")
    if not set(map(type, chain.from_iterable(provenance))) <= {str, int}:
        name = next(x for x in chain.from_iterable(provenance) if type(x) not in (str, int))
        raise ValueError(f"provenance name {name!r} is neither a str nor an int")
    flat, counts = _columns_of(provenance)
    _check_count(n, counts)
    if set(counts) == {1} and all(map(eq, flat, map(str, range(n)))):
        return None
    columns = flat, counts
    return lambda: columns


def _check_count(n: int, counts) -> None:
    """ValueError unless ``counts`` has one entry per vertex."""
    if len(counts) != n:
        raise ValueError("provenance length must equal vertex count")


def _columns(n: int, names) -> tuple:
    """The columns of the names a graph on n vertices keeps as ``names``:
    ``flat``, each vertex's names in vertex order, and ``counts``, how many
    names each vertex has; trivial names when ``names`` is None."""
    if names is None:
        return [*map(str, range(n))], [1] * n
    flat, counts = names()
    _check_count(n, counts)
    return flat, counts


def _columns_of(groups) -> tuple:
    """The columns of the names in ``groups``, one group per vertex, each
    name a str or an int by its decimal text."""
    return [*map(str, chain.from_iterable(groups))], [*map(len, groups)]


def _provenance(n: int, names) -> tuple[tuple[str, ...], ...]:
    """The provenance a graph on n vertices keeps as ``names``."""
    flat, counts = _columns(n, names)
    return tuple(map(tuple, map(islice, repeat(iter(flat)), counts)))


# A part is what a graph is made of before it is checked: its vertex count,
# its end columns and the names that ``_columns`` reads.  Constructions
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
