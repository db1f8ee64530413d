import random
from pathlib import Path

import pytest

from local_antimagic import EdgeLabeling, Graph, color_count

DATA = Path(__file__).parent / "data"


def load_golden_matrix(name: str):
    """Golden label matrix file: one row per line, '*' for empty cells,
    the final token is the row sum."""
    rows = []
    for line in (DATA / name).read_text().splitlines():
        tokens = line.split()
        cells = [None if t == "*" else int(t) for t in tokens[:-1]]
        rows.append((cells, int(tokens[-1])))
    return rows


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """A random connected simple graph: a random spanning tree plus a few
    extra non-tree edges."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges = set()
    for i in range(1, n):
        u = vertices[rng.randrange(i)]
        v = vertices[i]
        edges.add((min(u, v), max(u, v)))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph(n, tuple(sorted(edges)))


def random_connected_multigraph(rng: random.Random, q: int) -> Graph:
    """A random spanning tree on at most q+1 vertices, plus random extra
    edges that may run parallel to earlier ones."""
    n = rng.randrange(2, q + 2)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < q:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return Graph(n, tuple(edges))


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed and its edges reordered at random."""
    names = list(range(g.n))
    rng.shuffle(names)
    edges = [(names[u], names[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.n, tuple(edges))


def complement(g: Graph, f: EdgeLabeling) -> EdgeLabeling:
    """The labeling q+1-f of g's edges."""
    return EdgeLabeling(tuple(g.q + 1 - x for x in f.labels))


def edge_deleted(g: Graph, f: EdgeLabeling, e: int) -> tuple[Graph, EdgeLabeling]:
    """g without edge e, and f on the edges left with each label lowered
    by 1: a labeling onto 1..q-1 when f gives e the label 1."""
    kept = [i for i in range(g.q) if i != e]
    return (Graph(g.n, [g.edges[i] for i in kept]),
            EdgeLabeling(tuple(f.labels[i] - 1 for i in kept)))


def assert_two_color_identity(g: Graph, f: EdgeLabeling) -> None:
    """f induces sums x < y on X and Y vertices with xX = yY = q(q+1)/2,
    and the two sum classes are the two sides of g's bipartition."""
    count, classes = color_count(g, f)
    x, y = sorted(classes)
    assert count == 2 and x * len(classes[x]) == y * len(classes[y]) == g.q * (g.q + 1) // 2
    side = g._traversal[1]
    assert sorted(sorted({side[v] for v in classes[s]}) for s in (x, y)) == [[0], [1]]


@pytest.fixture
def rng():
    return random.Random(20230817)
