"""Undirected graphs, labeled-tree enumeration, and exact Steiner distances.

Vertices are labeled 1..n throughout so results line up with hand
calculations.  Steiner distance of a vertex set S is the fewest edges in
any connected subgraph containing S: trees get a leaf-pruning fast path,
general graphs go through the Dreyfus-Wagner dynamic program.
"""

from __future__ import annotations

import heapq
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

    def adjacency(self) -> dict:
        adj = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        return len(_component(self.adjacency(), 1)) == self.n

    def is_forest(self) -> bool:
        # acyclic iff every component has |E| = |V| - 1; equivalent global test
        adj = self.adjacency()
        seen = set()
        comps = 0
        total = 0
        for v in range(1, self.n + 1):
            if v not in seen:
                comp = _component(adj, v)
                seen |= comp
                comps += 1
                total += sum(len(adj[u]) for u in comp) // 2
        return total == self.n - comps

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


def _component(adj: dict, start: int) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


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
    root = min(s)
    comp = _component(adj, root)
    if not s <= comp:
        raise ValueError("unreachable set")

    if g.is_forest():
        return _prune_tree(adj, comp, s)
    if len(s) == 2:
        a, b = s
        return _bfs_dist(adj, a)[b]
    return _dreyfus_wagner(adj, comp, sorted(s))


def _prune_tree(adj: dict, comp: set, s: set) -> int:
    """Repeatedly delete degree-1 vertices outside s; count surviving edges."""
    live = set(comp)
    deg = {v: len(adj[v] & comp) for v in comp}
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


def _bfs_dist(adj: dict, source: int) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _dreyfus_wagner(adj: dict, comp: set, terminals: list) -> int:
    verts = sorted(comp)
    dist = {v: _bfs_dist(adj, v) for v in verts}
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


def tree_from_prufer(seq) -> Graph:
    """Decode a Prüfer sequence into the labeled tree on len(seq)+2 vertices."""
    seq = list(seq)
    n = len(seq) + 2
    for x in seq:
        if not (1 <= x <= n):
            raise ValueError(f"Prüfer entry {x} out of range 1..{n}")
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def enumerate_labeled_trees(n: int):
    """All n^(n-2) labeled trees on n vertices, in Prüfer lexicographic order."""
    if n < 2:
        raise ValueError("need n >= 2")
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield seq, tree_from_prufer(seq)


def distance_matrix(g: Graph) -> IntMatrix:
    """Pairwise shortest-path distance matrix (the k=2 Steiner hypermatrix)."""
    if not g.is_connected():
        raise ValueError("disconnected graph")
    adj = g.adjacency()
    rows = []
    for v in range(1, g.n + 1):
        d = _bfs_dist(adj, v)
        rows.append([d[w] for w in range(1, g.n + 1)])
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# Canonical forms (for unlabeled dedup and result caching)
# ---------------------------------------------------------------------------


def tree_canonical_form(g: Graph) -> str:
    """Centroid-rooted AHU encoding; equal strings iff trees are isomorphic."""
    if not g.is_tree():
        raise ValueError("AHU canonical form requires a tree")
    return _ahu_form(g.adjacency(), g.n)


def _ahu_form(adj: dict, n: int) -> str:
    if n == 1:
        return "()"
    centroids = _tree_centroids(adj, n)

    def encode(v, parent):
        subs = sorted(encode(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(encode(c, 0) for c in centroids)


def _tree_centroids(adj: dict, n: int) -> list:
    """The 1 or 2 middle vertices left after repeatedly peeling all leaves."""
    deg = {v: len(adj[v]) for v in adj}
    layer = [v for v in adj if deg[v] <= 1]
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
    # the hot loop of every sweep: one adjacency build, one BFS for tree-ness
    adj = g.adjacency()
    if len(g.edges) == g.n - 1 and len(_component(adj, 1)) == g.n:
        return f"tree:n{g.n}:{_ahu_form(adj, g.n)}"
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
