import heapq
import random
from itertools import combinations, product

import pytest

from steiner_spectra.graphs import (
    Graph,
    all_connected_graphs,
    canonical_key,
    complete_graph,
    distance_matrix,
    distance_rows,
    enumerate_labeled_trees,
    enumerate_tree_edges,
    format_graph,
    graph_canonical_form,
    parse_graph,
    path_graph,
    read_graph,
    relabel_graph,
    star_graph,
    steiner_distance,
    steiner_distances,
    tree_canonical_form,
    tree_from_prufer,
    tree_key,
    write_graph,
)

from props import steiner_by_edge_subsets


def prufer_edges_by_heap(seq, n):
    """Reference decoder: join each entry to the smallest leaf of a min-heap."""
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def tree_key_by_sets(n, edges):
    """Reference key: dict-of-sets adjacency, recursive AHU at each center."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
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

    def encode(v, parent):
        return "(" + "".join(sorted(encode(w, v) for w in adj[v] if w != parent)) + ")"

    return f"tree:n{n}:" + min(encode(c, 0) for c in layer)


def random_connected_graph(rng, n):
    while True:
        edges = [
            e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


class TestGraphBasics:
    def test_normalizes_and_validates(self):
        g = Graph.from_edges(3, [(2, 1), (3, 2)])
        assert g.sorted_edges() == [(1, 2), (2, 3)]
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 3)])

    def test_shapes(self):
        assert path_graph(4).sorted_edges() == [(1, 2), (2, 3), (3, 4)]
        assert star_graph(4).sorted_edges() == [(1, 2), (1, 3), (1, 4)]
        assert len(complete_graph(4).edges) == 6

    def test_tree_predicates(self):
        assert path_graph(5).is_tree()
        assert not complete_graph(3).is_tree()
        assert not Graph.from_edges(4, [(1, 2), (3, 4)]).is_connected()

    def test_relabel(self):
        g = relabel_graph(path_graph(3), {1: 3, 2: 1, 3: 2})
        assert g.sorted_edges() == [(1, 2), (1, 3)]
        with pytest.raises(ValueError):
            relabel_graph(path_graph(3), {1: 1, 2: 2, 3: 4})


class TestSteinerDistance:
    def test_pairs_are_shortest_paths(self):
        g = path_graph(5)
        assert steiner_distance(g, {1, 5}) == 4
        assert steiner_distance(g, {2, 4}) == 2

    def test_singleton_and_full_set(self):
        g = star_graph(5)
        assert steiner_distance(g, {3}) == 0
        assert steiner_distance(g, {1, 2, 3, 4, 5}) == 4

    def test_star_triples(self):
        g = star_graph(4)
        assert steiner_distance(g, {2, 3, 4}) == 3
        assert steiner_distance(g, {1, 2, 3}) == 2

    def test_cycle_needs_dreyfus_wagner(self):
        g = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        assert steiner_distance(g, {1, 3, 5}) == 4

    def test_errors(self):
        g = Graph.from_edges(3, [(1, 2)])
        with pytest.raises(ValueError, match="empty"):
            steiner_distance(g, set())
        with pytest.raises(ValueError, match="unreachable"):
            steiner_distance(g, {1, 3})

    def test_against_edge_subset_oracle_on_trees(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(2, 6)
            seq = tuple(rng.randint(1, n) for _ in range(n - 2))
            g = tree_from_prufer(seq)
            size = rng.randint(1, n)
            s = set(rng.sample(range(1, n + 1), size))
            assert steiner_distance(g, s) == steiner_by_edge_subsets(g, s)

    def test_against_edge_subset_oracle_on_graphs(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(2, 5)
            g = random_connected_graph(rng, n)
            size = rng.randint(1, n)
            s = set(rng.sample(range(1, n + 1), size))
            assert steiner_distance(g, s) == steiner_by_edge_subsets(g, s)

    def test_tree_component_beside_a_cycle(self):
        # triangle 1-2-3 plus the path 4-5-6-7: the whole graph is not a
        # forest, but the path component is a tree
        g = Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7)])
        for comp in ([1, 2, 3], [4, 5, 6, 7]):
            sub = Graph.from_edges(7, [e for e in g.edges if e[0] in comp])
            for size in range(1, len(comp) + 1):
                for s in combinations(comp, size):
                    assert steiner_distance(g, s) == steiner_by_edge_subsets(sub, s), s
        for s in ({1, 4}, {3, 5, 7}, {1, 2, 3, 4, 5, 6, 7}):
            with pytest.raises(ValueError, match="unreachable"):
                steiner_distance(g, s)

    def test_one_batch_equals_the_per_set_values(self):
        # pairs, tree-component sets and triangle sets share one call
        g = Graph.from_edges(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7)])
        sets = [{2}, {1, 3}, {4, 7}, {4, 6, 7}, {1, 2, 3}, {5, 6, 7}, {2, 3}, {1, 2}, {4, 5, 6, 7}]
        assert steiner_distances(g, sets) == [steiner_distance(g, s) for s in sets]
        assert steiner_distances(g, []) == []
        with pytest.raises(ValueError, match="unreachable"):
            steiner_distances(g, sets + [{3, 4}])


class TestPrufer:
    def test_known_decodes(self):
        assert tree_from_prufer(()).sorted_edges() == [(1, 2)]
        assert tree_from_prufer((1,)).sorted_edges() == [(1, 2), (1, 3)]
        # classic example
        assert tree_from_prufer((4, 4, 4, 5)).sorted_edges() == [
            (1, 4),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 6),
        ]

    def test_validates_entries(self):
        with pytest.raises(ValueError):
            tree_from_prufer((5,))

    def test_enumeration_counts_and_distinctness(self):
        trees3 = list(enumerate_labeled_trees(3))
        assert len(trees3) == 3
        trees4 = list(enumerate_labeled_trees(4))
        assert len(trees4) == 16
        assert len({g.edges for _, g in trees4}) == 16
        for _, g in trees4:
            assert g.is_tree()

    def test_enumeration_rejects_small_n(self):
        with pytest.raises(ValueError):
            list(enumerate_labeled_trees(1))
        with pytest.raises(ValueError):
            list(enumerate_tree_edges(1))

    def test_linear_decoder_matches_heap_reference(self):
        # every sequence for n = 2..7, same edges in the same order
        for n in range(2, 8):
            decoded = list(enumerate_tree_edges(n))
            assert [seq for seq, _ in decoded] == list(product(range(1, n + 1), repeat=n - 2))
            for seq, edges in decoded:
                assert edges == prufer_edges_by_heap(seq, n), seq

    def test_enumerations_agree(self):
        for (seq, edges), (seq2, g) in zip(enumerate_tree_edges(5), enumerate_labeled_trees(5)):
            assert seq == seq2
            assert g == Graph.from_edges(5, edges) == tree_from_prufer(seq)


class TestDistanceMatrix:
    def test_path(self):
        assert distance_matrix(path_graph(3)).to_lists() == [
            [0, 1, 2],
            [1, 0, 1],
            [2, 1, 0],
        ]

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            distance_matrix(Graph.from_edges(3, [(1, 2)]))
        with pytest.raises(ValueError):
            distance_matrix(Graph.from_edges(3, [(2, 3)]))

    def test_rows_from_edges(self):
        assert distance_rows(4, [(1, 2), (3, 4)]) == [
            [0, 1, -1, -1],
            [1, 0, -1, -1],
            [-1, -1, 0, 1],
            [-1, -1, 1, 0],
        ]
        assert distance_rows(1, []) == [[0]]

    def test_matches_steiner_pairs(self):
        rng = random.Random(24)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 6))
            m = distance_matrix(g)
            for u, v in combinations(range(1, g.n + 1), 2):
                assert m[u - 1, v - 1] == m[v - 1, u - 1] == steiner_distance(g, {u, v})


class TestCanonicalForms:
    def test_tree_form_is_label_invariant(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 7)
            g = tree_from_prufer(tuple(rng.randint(1, n) for _ in range(n - 2)))
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            h = relabel_graph(g, dict(zip(range(1, n + 1), perm)))
            assert tree_canonical_form(g) == tree_canonical_form(h)

    def test_tree_key_matches_dict_of_sets_reference(self):
        # every labeled tree for n <= 7
        assert canonical_key(Graph(1)) == tree_key(1, []) == "tree:n1:()"
        for n in range(2, 8):
            for _, edges in enumerate_tree_edges(n):
                assert tree_key(n, edges) == tree_key_by_sets(n, edges), edges

    def test_keys_agree_across_entry_points(self):
        for _, g in enumerate_labeled_trees(6):
            key = canonical_key(g)
            assert key == tree_key(6, g.edges)
            assert key == f"tree:n6:{tree_canonical_form(g)}"
        with pytest.raises(ValueError, match="tree"):
            tree_canonical_form(complete_graph(3))

    def test_path_and_star_differ(self):
        assert tree_canonical_form(path_graph(4)) != tree_canonical_form(star_graph(4))
        assert canonical_key(path_graph(4)) != canonical_key(star_graph(4))

    def test_unlabeled_tree_counts(self):
        # 1, 1, 2, 3, 6 unlabeled trees on n = 2..6
        for n, classes in [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6)]:
            forms = {canonical_key(g) for _, g in enumerate_labeled_trees(n)}
            assert len(forms) == classes, n

    def test_graph_form_on_cycles_vs_paths(self):
        c4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert graph_canonical_form(c4) != graph_canonical_form(path_graph(4))

    def test_connected_graph_class_counts(self):
        # 1, 2, 6, 21 connected graphs on n = 2..5 up to isomorphism
        for n, classes in [(2, 1), (3, 2), (4, 6), (5, 21)]:
            forms = {canonical_key(g) for g in all_connected_graphs(n)}
            assert len(forms) == classes, n


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        g = star_graph(4)
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert read_graph(path) == g

    def test_parse_format(self):
        text = format_graph(path_graph(3))
        assert text.splitlines()[0] == "n 3"
        assert parse_graph(text) == path_graph(3)

    def test_parse_skips_comments_and_blanks(self):
        g = parse_graph("# a path\nn 3\n\n1 2\n# middle\n2 3\n")
        assert g == path_graph(3)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_graph("3\n1 2\n")  # missing the literal n header
        with pytest.raises(ValueError):
            parse_graph("n 2\n1 3\n")
        with pytest.raises(ValueError):
            parse_graph("n 2\n1 2 3\n")
