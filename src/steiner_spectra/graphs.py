"""Undirected graphs, labeled-tree enumeration, and exact Steiner distances.

Vertices are labeled 1..n throughout so results line up with hand
calculations.  Every traversal runs on one adjacency format, neighbor
lists indexed by vertex with slot 0 unused (`Graph.adjacency`), and one
BFS (`_bfs_dist`) serves connectivity, forest tests, distances and
Steiner distances.  Steiner distance of a vertex set S is the fewest
edges in any connected subgraph containing S: a pair is read off the
BFS from min(S), forests get a leaf-pruning fast path, and other graphs
go through the Dreyfus-Wagner dynamic program.

Labeled trees come as edge lists: `enumerate_tree_edges` decodes every
Prüfer sequence in linear time, `tree_key` (center-rooted AHU) names the
isomorphism class straight from the edges, and `distance_rows` takes one
BFS per vertex, so a sweep over n^(n-2) trees needs a `Graph` only for
the trees it keeps.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

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

    def is_forest(self) -> bool:
        # acyclic iff |E| = |V| - (number of components)
        adj = self.adjacency()
        seen = [False] * (self.n + 1)
        comps = 0
        for v in range(1, self.n + 1):
            if not seen[v]:
                comps += 1
                for u, d in enumerate(_bfs_dist(adj, v, self.n)):
                    if d >= 0:
                        seen[u] = True
        return len(self.edges) == self.n - comps

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


def relabel_graph(g: Graph, perm: dict) -> Graph:
    """Apply a vertex permutation {old: new} to a graph."""
    if sorted(perm) != list(range(1, g.n + 1)) or sorted(perm.values()) != list(
        range(1, g.n + 1)
    ):
        raise ValueError("perm must be a bijection on 1..n")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


# ---------------------------------------------------------------------------
# Steiner distance
# ---------------------------------------------------------------------------


def steiner_distance(g: Graph, s) -> int:
    """Fewest edges in a connected subgraph of g containing the vertex set s.

    |s| = 1 is 0, |s| = 2 is the shortest-path length, forests use leaf
    pruning, everything else runs Dreyfus-Wagner over (terminal subset,
    anchor vertex) states.
    """
    s = set(s)
    if not s:
        raise ValueError("empty set")
    if not s <= set(range(1, g.n + 1)):
        raise ValueError(f"terminals {sorted(s)} not within 1..{g.n}")
    if len(s) == 1:
        return 0

    adj = g.adjacency()
    dist = _bfs_dist(adj, min(s), g.n)
    if any(dist[v] < 0 for v in s):
        raise ValueError("unreachable set")
    if len(s) == 2:
        return dist[max(s)]
    comp = [v for v in range(1, g.n + 1) if dist[v] >= 0]
    if g.is_forest():
        return _prune_tree(adj, comp, s)
    return _dreyfus_wagner(adj, comp, sorted(s), g.n)


def _prune_tree(adj: list, comp: list, s: set) -> int:
    """Repeatedly delete degree-1 vertices outside s; count surviving edges."""
    live = set(comp)
    deg = {v: len(adj[v]) for v in comp}
    queue = deque(v for v in comp if deg[v] <= 1 and v not in s)
    while queue:
        v = queue.popleft()
        if v not in live:
            continue
        live.discard(v)
        for w in adj[v]:
            if w in live:
                deg[w] -= 1
                if deg[w] <= 1 and w not in s:
                    queue.append(w)
    return sum(1 for u in live for w in adj[u] if w in live and w > u)


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


def _dreyfus_wagner(adj: list, verts: list, terminals: list, n: int) -> int:
    dist = {v: _bfs_dist(adj, v, n) for v in verts}
    t = len(terminals)
    full = (1 << t) - 1
    inf = float("inf")
    # dp[mask][v]: cheapest tree containing the terminals of mask plus v
    dp = {1 << i: {v: dist[term][v] for v in verts} for i, term in enumerate(terminals)}
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0 or mask in dp:
            continue
        merged = {}
        low = mask & -mask
        for v in verts:
            best = inf
            sub = (mask - 1) & mask
            while sub:
                if sub & low:  # fix the lowest terminal in one side: halves the work
                    rest = mask ^ sub
                    if rest:
                        cand = dp[sub][v] + dp[rest][v]
                        if cand < best:
                            best = cand
                sub = (sub - 1) & mask
            merged[v] = best
        dp[mask] = {
            v: min(merged[u] + dist[u][v] for u in verts) for v in verts
        }
    return dp[full][terminals[0]]


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


def distance_rows(n: int, edges) -> list:
    """Pairwise hop distances on 1..n as n rows, -1 between components."""
    adj = _adjacency_lists(n, edges)
    return [_bfs_dist(adj, v, n)[1:] for v in range(1, n + 1)]


def distance_matrix(g: Graph) -> IntMatrix:
    """Pairwise shortest-path distance matrix (the k=2 Steiner hypermatrix)."""
    rows = distance_rows(g.n, g.edges)
    if -1 in rows[0]:
        raise ValueError("disconnected graph")
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# Canonical forms (for unlabeled dedup and result caching)
# ---------------------------------------------------------------------------


def tree_key(n: int, edges) -> str:
    """Canonical key "tree:n{n}:<AHU>" of the tree on 1..n with these edges.

    The AHU string is the smallest over the tree's 1 or 2 centers of the
    encoding rooted there; equal keys iff the trees are isomorphic.  The
    edges are trusted to form a tree.
    """
    adj = _adjacency_lists(n, edges)
    return f"tree:n{n}:{min(_rooted_form(adj, c) for c in _tree_centers(adj, n))}"


def _rooted_form(adj: list, root: int) -> str:
    """AHU string of the tree rooted at root: "(" + sorted child strings + ")"."""
    parent = [0] * len(adj)
    order = [root]
    for u in order:  # BFS order; the loop also visits what it appends
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    subs = [[] for _ in adj]  # slot 0 collects the root's string
    for v in reversed(order):
        below = subs[v]
        below.sort()
        subs[parent[v]].append("(" + "".join(below) + ")")
    return subs[0][0]


def _tree_centers(adj: list, n: int) -> list:
    """The 1 or 2 middle vertices left after repeatedly peeling all leaves."""
    deg = [len(a) for a in adj]
    layer = [v for v in range(1, n + 1) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        remaining -= len(layer)
        layer = nxt
    return layer


def tree_canonical_form(g: Graph) -> str:
    """Center-rooted AHU encoding; equal strings iff trees are isomorphic."""
    if not g.is_tree():
        raise ValueError("AHU canonical form requires a tree")
    return tree_key(g.n, g.edges).rpartition(":")[2]


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
