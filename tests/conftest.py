import random
from pathlib import Path

import pytest

from local_antimagic import Graph

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


@pytest.fixture
def rng():
    return random.Random(20230817)
