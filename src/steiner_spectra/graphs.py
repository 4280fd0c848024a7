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

Labeled trees come in numpy blocks: `labeled_tree_blocks` yields the
Prüfer sequences in lexicographic order, up to `TREE_BLOCK` at a time,
with their edges from one lockstep decode per block that joins each entry
to the smallest current leaf, found by an argmax over the degrees.
`tree_keys` names the isomorphism class of every tree of a block by
center-rooted AHU strings (Aho, Hopcroft & Ullman 1974, section 3.2),
coded level by level during one leaf peel over the whole block that also
finds the centers: past the codes of earlier levels, a vertex's code is
the rank of its sorted row of child codes among its level's distinct
rows.  So a sweep over n^(n-2) trees needs a `Graph` only for the trees
it keeps.  `tree_from_prufer` and `enumerate_labeled_trees` read the
decode for one tree or one tree at a time.  `distance_stack` is the one
all-pairs routine: it gives the distance matrices of a whole batch of
edge lists as one array, by a min-plus Floyd-Warshall over the stack,
and `distance_matrix` reads a single graph's off a stack of one.
`graph_canonical_form` relabels an edge list under all n! permutations
at once.  `canonical_keys` keys a list of graphs, its trees in one
`tree_keys` call, and `canonical_key` is it on a list of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .exact import IntMatrix, _integer, _size


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; n is read by `exact._size`
    and endpoints by `exact._integer`, so numpy integers are stored as
    Python ints and a non-integral one is refused."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "n", _size(self.n, 1, "n"))
        norm = set()
        for e in self.edges:
            u, v = (_integer(x, "endpoint") for x in e)
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
        adj = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

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
    """Steiner distance of each vertex set in sets, in order; terminals are read by `exact._integer`.

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
        s = {_integer(v, "terminal") for v in s}
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


# labeled trees per block of `labeled_tree_blocks`: bounds the arrays a
# block holds (edges, keys, Graham-Pollak distance stacks); blocks of 2048
# or 4096 walked no faster at n = 7 or 8
TREE_BLOCK = 1024


def _prufer_decode(n: int, seqs: np.ndarray) -> np.ndarray:
    """Edges of the trees with the Prüfer sequences of a (count, n-2) array
    of entries in 1..n, as a (count, n-1, 2) array, every row decoded in
    lockstep.

    Each step joins the next entry to the smallest current leaf, the first
    vertex of degree 1, whose degree then drops to 0 and the entry's by
    one; the last two leaves, the smaller first, make the last edge.
    """
    count = len(seqs)
    rows = np.arange(count)
    slots = (seqs + (n + 1) * rows[:, None]).ravel()
    degree = 1 + np.bincount(slots, minlength=count * (n + 1)).reshape(count, n + 1)
    degree[:, 0] = 0  # slot 0 is never a leaf
    edges = np.empty((count, n - 1, 2), dtype=np.intp)
    for j in range(n - 2):
        leaf = (degree == 1).argmax(axis=1)
        x = seqs[:, j]
        edges[:, j, 0] = leaf
        edges[:, j, 1] = x
        degree[rows, leaf] = 0
        degree[rows, x] -= 1
    edges[:, -1, 0] = (degree == 1).argmax(axis=1)
    edges[:, -1, 1] = n
    return edges


def labeled_tree_blocks(n: int):
    """All n^(n-2) labeled trees on n vertices in Prüfer lexicographic
    order, as blocks of at most `TREE_BLOCK`: a (count, n-2) array of
    Prüfer sequences and the (count, n-1, 2) array of their trees' edges."""
    n = _size(n, 2, "n")
    place = n ** np.arange(n - 3, -1, -1)
    total = n ** (n - 2)
    for start in range(0, total, TREE_BLOCK):
        seqs = np.arange(start, min(start + TREE_BLOCK, total))[:, None] // place % n + 1
        yield seqs, _prufer_decode(n, seqs)


def tree_from_prufer(seq) -> Graph:
    """Decode a Prüfer sequence into the labeled tree on len(seq)+2 vertices.
    Entries are read by `exact._integer`, as `Graph` reads its endpoints,
    so a non-integral one is refused rather than truncated."""
    seq = [_integer(x, "Prüfer entry") for x in seq]
    n = len(seq) + 2
    for x in seq:
        if not (1 <= x <= n):
            raise ValueError(f"Prüfer entry {x} out of range 1..{n}")
    return Graph.from_edges(n, _prufer_decode(n, np.array(seq, dtype=np.intp).reshape(1, -1))[0])


def enumerate_labeled_trees(n: int):
    """All n^(n-2) labeled trees on n vertices, in Prüfer lexicographic order."""
    for seqs, edges in labeled_tree_blocks(n):
        for seq, tree in zip(seqs.tolist(), edges):
            yield tuple(seq), Graph.from_edges(n, tree)


def distance_stack(n: int, edge_lists) -> np.ndarray:
    """Pairwise hop distances of many graphs on 1..n at once, as a
    (count, n, n) int64 array, -1 between components; the edge lists, a
    (count, m, 2) array or a list of equally long lists of pairs, all have
    the same length m.

    A min-plus Floyd-Warshall over the stacked adjacency: n vectorized
    steps, each relaxing every pair through one more intermediate vertex.
    Unreachable pairs start at n, above any hop distance, stay there, and
    read -1.
    """
    count = len(edge_lists)
    ends = np.asarray(edge_lists, dtype=np.intp).reshape(count, -1, 2) - 1
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
    d = distance_stack(g.n, [list(g.edges)])[0]
    if d[0].min() < 0:
        raise ValueError("disconnected graph")
    return IntMatrix(d)


# ---------------------------------------------------------------------------
# Canonical forms (for unlabeled dedup and result caching)
# ---------------------------------------------------------------------------


def tree_keys(n: int, edges) -> list:
    """Canonical keys "tree:n{n}:<AHU>" of a stack of trees on 1..n, given
    as a (count, n-1, 2) array of edges or a list of equally long edge
    lists; equal keys iff the trees are isomorphic.  The edges are trusted
    to form trees.

    One leaf peel, run over the whole stack at once, finds each tree's 1
    or 2 centers and codes every vertex it peels by the rooted subtree
    below it: the peeled vertices' rows of child codes, each sorted, are
    put in lexicographic order by one `np.lexsort`, and each distinct row
    takes the next unused code, so equal codes name equal rooted trees.  A
    leaf's one unpeeled neighbor is the sum of its unpeeled neighbors,
    which the peel keeps per vertex beside the degree.  Each distinct code
    becomes its AHU string once: its children's strings, sorted, wrapped
    in "( )".  The key is the string rooted at the center, or the lesser
    of the strings rooted at either center over the other.
    """
    count = len(edges)
    ends = np.asarray(edges, dtype=np.intp).reshape(count, n - 1, 2) - 1
    size = count * n  # vertex v of tree t is slot t*n + v
    slots = (ends + n * np.arange(count)[:, None, None]).ravel()
    degree = np.bincount(slots, minlength=size).reshape(count, n)
    nbr = np.bincount(slots, weights=ends[..., ::-1].ravel(), minlength=size)
    nbr = nbr.astype(np.intp).reshape(count, n)
    # kids[t, v, u] is the code of u once u is peeled as a child of v, else -1
    kids = np.full((count, n, n), -1, dtype=np.int32)
    code = np.zeros((count, n), dtype=np.int32)
    alive = np.ones((count, n), dtype=bool)
    left = np.full(count, n)
    forms = []  # the AHU string of each code

    def peel(t, v):
        """Code vertex v of tree t, for each pair, from its children's codes."""
        rows = kids[t, v]
        rows.sort(axis=1)  # the -1 fill comes first
        order = np.lexsort(rows.T[::-1])  # column 0 is the first key
        rows = rows[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        # equal rows take one code; a new row takes the next unused one
        code[t[order], v[order]] = len(forms) - 1 + np.cumsum(new)
        for row in rows[new].tolist():
            forms.append("(" + "".join(sorted(forms[c] for c in row if c >= 0)) + ")")

    while (busy := left > 2).any():
        t, v = np.nonzero(alive & (degree <= 1) & busy[:, None])
        peel(t, v)
        parent = nbr[t, v]
        kids[t, parent, v] = code[t, v]
        alive[t, v] = False
        at = t * n + parent
        degree -= np.bincount(at, minlength=size).reshape(count, n)
        nbr -= np.bincount(at, weights=v, minlength=size).astype(np.intp).reshape(count, n)
        left -= np.bincount(t, minlength=count)
    peel(*np.nonzero(alive))  # each center over its peeled neighbors
    t, v = np.nonzero(alive & (left == 2)[:, None])
    other = nbr[t, v]
    kids[t, v, other] = code[t, other]
    peel(t, v)  # each of two centers over the other
    first = alive.argmax(axis=1)
    last = n - 1 - alive[:, ::-1].argmax(axis=1)
    keys = np.array([f"tree:n{n}:{form}" for form in forms], dtype=object)
    each = np.arange(count)
    return np.minimum(keys[code[each, first]], keys[code[each, last]]).tolist()


@cache
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of 1..n, one per row, in lexicographic order."""
    return np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64).reshape(-1, n)


def graph_canonical_form(g: Graph) -> str:
    """Least sorted edge list over all vertex permutations (brute force, small n).

    Every permutation, from a table cached per n, relabels the edge list at
    once: an edge {u, v} with u < v is coded u*(n+1) + v, so codes order as
    the pairs do, each row of codes is sorted, and `np.lexsort` finds the
    least row.
    """
    if g.n > 8:
        raise ValueError("brute-force canonical form capped at n = 8")
    n = g.n
    perm = _permutation_table(n)
    u, v = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T - 1
    a, b = perm[:, u], perm[:, v]
    codes = np.minimum(a, b) * (n + 1) + np.maximum(a, b)
    codes.sort(axis=1)
    # the last key sorts first; the constant key lets an edgeless graph sort too
    least = codes[np.lexsort([np.zeros(len(codes)), *codes.T[::-1]])[0]]
    return f"n{n}:" + ";".join(f"{c // (n + 1)}-{c % (n + 1)}" for c in least.tolist())


def canonical_key(g: Graph) -> str:
    """Cache key invariant under relabeling: AHU for trees, brute force otherwise."""
    return canonical_keys([g])[0]


def canonical_keys(graphs) -> list:
    """`canonical_key` of each graph in a list of graphs on one vertex
    count: the trees are keyed in one `tree_keys` call."""
    trees = [g.is_tree() for g in graphs]
    stack = [list(g.edges) for g, tree in zip(graphs, trees) if tree]
    keys = iter(tree_keys(graphs[0].n, stack) if stack else ())
    return [
        next(keys) if tree else "graph:" + graph_canonical_form(g) for g, tree in zip(graphs, trees)
    ]


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
