"""Undirected graphs, labeled-tree enumeration, and exact Steiner distances.

Vertices are labeled 1..n throughout so results line up with hand
calculations.  Every traversal runs on one adjacency format, neighbor
lists indexed by vertex with slot 0 unused (`Graph.adjacency`), and one
single-source BFS (`_bfs_dist`) serves connectivity, forest tests and
Steiner distances.  Steiner distance of a vertex set S is the fewest
edges in any connected subgraph containing S.  The sets of one
`steiner_distances` call share BFS rows and one Dreyfus-Wagner table: the
row from min(S) answers pairs and S in a tree component, and the table
answers every other S.

Labeled trees come as edge lists: `enumerate_tree_edges` decodes every
Prüfer sequence in linear time, and `tree_key` names the isomorphism
class by center-rooted AHU strings built during the one leaf peel that
finds the centers, so a sweep over n^(n-2) trees needs a `Graph` only
for the trees it keeps.  `distance_stack` is the one all-pairs routine:
it gives the distance matrices of a whole batch of edge lists as one
array, by a min-plus Floyd-Warshall over the stack, and
`distance_matrix` reads a single graph's off a stack of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .exact import IntMatrix


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {e} out of range 1..{self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges))

    def adjacency(self) -> list:
        """Neighbor lists indexed by vertex 1..n (slot 0 unused)."""
        return _adjacency_lists(self.n, self.edges)

    def is_connected(self) -> bool:
        return -1 not in _bfs_dist(self.adjacency(), 1, self.n)[1:]

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def star_graph(n: int) -> Graph:
    """Star K_{1,n-1} centered at vertex 1."""
    return Graph.from_edges(n, [(1, i) for i in range(2, n + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


# ---------------------------------------------------------------------------
# Steiner distance
# ---------------------------------------------------------------------------


def steiner_distance(g: Graph, s) -> int:
    """Fewest edges in a connected subgraph of g containing the vertex set s:
    the one-set case of `steiner_distances`, with its rules and errors."""
    return steiner_distances(g, [s])[0]


def steiner_distances(g: Graph, sets) -> list:
    """Steiner distance of each vertex set in sets, in order.

    The sets share the neighbor lists, at most one BFS row per source
    vertex and one Dreyfus-Wagner table.  The row from r = min(s) answers
    |s| <= 2 and, when the component of r is a tree, any s: the number of
    distinct vertices on the BFS paths from each terminal up to r, minus
    one.  Any other s reads tree(mask)[r], with bit v of mask set for each
    v in s; tree(mask)[v] is the fewest edges in a tree holding v and the
    vertices of mask, and a one-vertex mask's entry is that vertex's row.
    """
    adj = g.adjacency()

    @cache
    def row(v):
        return _bfs_dist(adj, v, g.n)

    @cache
    def tree(mask):
        low = mask & -mask
        root = row(low.bit_length() - 1)
        if mask == low:
            return root
        sub = others = mask ^ low
        halves = []
        while sub:  # the lowest vertex stays on one side: halves the work
            sub = (sub - 1) & others
            halves.append((tree(low | sub), tree(others ^ sub)))
        comp = [v for v, d in enumerate(root) if d >= 0]
        merged = [(min(a[u] + b[u] for a, b in halves), row(u)) for u in comp]
        return {v: min(m + d[v] for m, d in merged) for v in comp}

    def one(s):
        s = set(s)
        if not s:
            raise ValueError("empty set")
        if not s <= set(range(1, g.n + 1)):
            raise ValueError(f"terminals {sorted(s)} not within 1..{g.n}")
        if len(s) == 1:
            return 0
        r = min(s)
        dist = row(r)
        if any(dist[v] < 0 for v in s):
            raise ValueError("unreachable set")
        if len(s) == 2:
            return dist[max(s)]
        comp = [v for v in range(1, g.n + 1) if dist[v] >= 0]
        if sum(len(adj[v]) for v in comp) == 2 * (len(comp) - 1):
            # the component is a tree: a vertex's parent is its neighbor one
            # step closer to r
            spanned = {r}
            for v in s:
                while v not in spanned:
                    spanned.add(v)
                    v = next(w for w in adj[v] if dist[w] < dist[v])
            return len(spanned) - 1
        return tree(sum(1 << v for v in s))[r]

    return [one(s) for s in sets]


def _bfs_dist(adj: list, source: int, n: int) -> list:
    """Hop distances from source over the neighbor lists of 1..n.

    Slot 0 is unused and unreachable vertices read -1.
    """
    dist = [-1] * (n + 1)
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop also visits what it appends
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


# ---------------------------------------------------------------------------
# Labeled trees
# ---------------------------------------------------------------------------


def _adjacency_lists(n: int, edges) -> list:
    """Neighbor lists indexed by vertex 1..n (slot 0 unused)."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _prufer_edges(seq, n: int) -> list:
    """Edges of the tree with Prüfer sequence seq, in linear time.

    Each entry is joined to the smallest current leaf, as a min-heap of
    leaves would pick it: a pointer only moves up past used leaves, and an
    entry that becomes a leaf below the pointer is taken at once.
    """
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    return edges


def tree_from_prufer(seq) -> Graph:
    """Decode a Prüfer sequence into the labeled tree on len(seq)+2 vertices."""
    seq = list(seq)
    n = len(seq) + 2
    for x in seq:
        if not (1 <= x <= n):
            raise ValueError(f"Prüfer entry {x} out of range 1..{n}")
    return Graph.from_edges(n, _prufer_edges(seq, n))


def enumerate_tree_edges(n: int):
    """(Prüfer sequence, edge list) of all n^(n-2) labeled trees, in
    Prüfer lexicographic order."""
    if n < 2:
        raise ValueError("need n >= 2")
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield seq, _prufer_edges(seq, n)


def enumerate_labeled_trees(n: int):
    """All n^(n-2) labeled trees on n vertices, in Prüfer lexicographic order."""
    for seq, edges in enumerate_tree_edges(n):
        yield seq, Graph.from_edges(n, edges)


def distance_stack(n: int, edge_lists) -> np.ndarray:
    """Pairwise hop distances of many graphs on 1..n at once, as a
    (count, n, n) int64 array, -1 between components; every edge list has
    the same length.

    A min-plus Floyd-Warshall over the stacked adjacency: n vectorized
    steps, each relaxing every pair through one more intermediate vertex.
    Unreachable pairs start at n, above any hop distance, stay there, and
    read -1.
    """
    edge_lists = list(edge_lists)
    count = len(edge_lists)
    ends = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(edge_lists)),
        dtype=np.intp,
    ).reshape(count, -1, 2) - 1
    # held as (n, n, count), so each step runs along the stack
    d = np.full((n, n, count), n, dtype=np.int64)
    d[range(n), range(n)] = 0
    each = np.arange(count)[:, None]
    d[ends[..., 0], ends[..., 1], each] = 1
    d[ends[..., 1], ends[..., 0], each] = 1
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k], out=d)
    d[d == n] = -1
    return np.moveaxis(d, -1, 0)


def distance_matrix(g: Graph) -> IntMatrix:
    """Pairwise shortest-path distance matrix (the k=2 Steiner hypermatrix)."""
    d = distance_stack(g.n, [g.edges])[0]
    if d[0].min() < 0:
        raise ValueError("disconnected graph")
    return IntMatrix(d)


# ---------------------------------------------------------------------------
# Canonical forms (for unlabeled dedup and result caching)
# ---------------------------------------------------------------------------


def tree_key(n: int, edges) -> str:
    """Canonical key "tree:n{n}:<AHU>" of the tree on 1..n with these edges.

    One leaf peel finds the 1 or 2 centers and builds the AHU strings on
    the way: a peeled vertex's sorted child strings, wrapped in "( )",
    go to its one unpeeled neighbor.  The key is the string rooted at the
    center, or the smaller of the two strings rooted at either center over
    the other; equal keys iff the trees are isomorphic.  The edges are
    trusted to form a tree.
    """
    adj = _adjacency_lists(n, edges)
    deg = [len(a) for a in adj]
    subs = [[] for _ in adj]

    def form(v):
        subs[v].sort()
        return "(" + "".join(subs[v]) + ")"

    layer = [v for v in range(1, n + 1) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            up = form(v)
            for w in adj[v]:
                # > 0, not > 1: the center can reach degree 1 while leaves
                # of this layer still hang on it
                if deg[w] > 0:
                    subs[w].append(up)
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        remaining -= len(layer)
        layer = nxt
    if len(layer) == 2:
        a, b = layer
        fa, fb = form(a), form(b)
        subs[a].append(fb)
        subs[b].append(fa)
    return f"tree:n{n}:{min(form(c) for c in layer)}"


def graph_canonical_form(g: Graph) -> str:
    """Minimum edge list over all vertex permutations (brute force, small n)."""
    if g.n > 8:
        raise ValueError("brute-force canonical form capped at n = 8")
    best = None
    verts = range(1, g.n + 1)
    for perm in itertools.permutations(verts):
        relab = sorted(
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
            for u, v in g.edges
        )
        if best is None or relab < best:
            best = relab
    return f"n{g.n}:" + ";".join(f"{u}-{v}" for u, v in best)


def canonical_key(g: Graph) -> str:
    """Cache key invariant under relabeling: AHU for trees, brute force otherwise."""
    if g.is_tree():
        return tree_key(g.n, g.edges)
    return "graph:" + graph_canonical_form(g)


def all_connected_graphs(n: int):
    """Every labeled connected graph on n vertices (desk scale: n <= 5 or so)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            yield g


# ---------------------------------------------------------------------------
# Edge-list file format: header "n <count>", then one "u v" line per edge
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f'expected header "n <count>", got {lines[0]!r}')
    n = int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.from_edges(n, edges)


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def format_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def write_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
