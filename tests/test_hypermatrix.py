import math
import random
from fractions import Fraction

import numpy as np
import pytest

from steiner_spectra import graphs
from steiner_spectra.graphs import Graph, all_connected_graphs, path_graph, star_graph
from steiner_spectra.hypermatrix import (
    SymmetricHypermatrix,
    build_steiner_hypermatrix,
    multinomial_weight,
    multisets,
)

from props import naive_contract, random_hypermatrix, steiner_by_edge_subsets


class TestMultisets:
    def test_order_and_count(self):
        ms = list(multisets(3, 2))
        assert ms == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        for n, k in [(2, 3), (4, 2), (3, 5)]:
            assert len(list(multisets(n, k))) == math.comb(n + k - 1, k)

    def test_multinomial_weight(self):
        assert multinomial_weight((1, 1, 1)) == 1
        assert multinomial_weight((1, 1, 2)) == 3
        assert multinomial_weight((1, 2, 3)) == 6
        assert multinomial_weight((1, 2)) == 2


class TestConstruction:
    def test_entry_count_enforced(self):
        full = {ms: 0 for ms in multisets(2, 3)}
        SymmetricHypermatrix(3, 2, full)
        partial = dict(full)
        del partial[(1, 1, 2)]
        with pytest.raises(ValueError, match="entries"):
            SymmetricHypermatrix(3, 2, partial)

    def test_key_validation(self):
        bad = {ms: 0 for ms in multisets(2, 3)}
        del bad[(1, 1, 2)]
        bad[(2, 1, 1)] = 0
        with pytest.raises(ValueError, match=r"no entry at the multiset \(1, 1, 2\)"):
            SymmetricHypermatrix(3, 2, bad)
        with pytest.raises(ValueError):
            SymmetricHypermatrix(1, 2, {(1,): 0, (2,): 0})

    def test_entry_sorts_index(self):
        a = SymmetricHypermatrix.from_function(3, 2, lambda ms: sum(ms))
        assert a.entry((2, 1, 1)) == a.entry((1, 1, 2)) == 4

    def test_all_ones(self):
        a = SymmetricHypermatrix.all_ones(3, 3)
        assert all(v == 1 for v in a.entries.values())
        assert len(a.entries) == math.comb(5, 3)

    def test_entries_are_read_only(self):
        # the gradient table is cached, so an edit to entries would leave
        # every later contract and hyperdet on the old values
        a = build_steiner_hypermatrix(path_graph(3), 4)
        a.gradient_forms()
        with pytest.raises(TypeError):
            a.entries[(1, 1, 1, 2)] = 7
        assert a.entry((1, 1, 1, 2)) == 1
        swapped = a.relabel([3, 2, 1])
        assert swapped == a  # P3's end swap is an automorphism
        assert a.relabel([2, 1, 3]) != a
        assert swapped.entries == dict(a.entries)

    def test_numpy_entries_are_read_as_python_ints(self):
        a = build_steiner_hypermatrix(path_graph(3), 3)
        b = SymmetricHypermatrix(3, 3, {ms: np.int64(v) for ms, v in a.entries.items()})
        assert b == a
        assert {type(v) for v in b.entries.values()} == {int}


class TestSteinerEntries:
    def test_k2_is_distance_matrix(self):
        a = build_steiner_hypermatrix(path_graph(3), 2)
        assert a.entry((1, 3)) == 2
        assert a.entry((1, 1)) == 0
        assert a.entry((2, 3)) == 1

    def test_k3_star(self):
        a = build_steiner_hypermatrix(star_graph(4), 3)
        assert a.entry((2, 3, 4)) == 3
        assert a.entry((1, 2, 3)) == 2
        assert a.entry((2, 2, 3)) == 2  # repeated index collapses to a pair
        assert a.entry((4, 4, 4)) == 0

    def test_build_validations(self):
        with pytest.raises(ValueError):
            build_steiner_hypermatrix(path_graph(3), 1)
        with pytest.raises(ValueError):
            build_steiner_hypermatrix(Graph.from_edges(3, [(1, 2)]), 2)

    def test_every_entry_against_edge_subset_oracle(self):
        cases = [(g, 3) for n in range(1, 5) for g in all_connected_graphs(n)]
        c5 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        c6_chord = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
        cases += [(c5, 4), (c6_chord, 4)]
        for g, k in cases:
            a = build_steiner_hypermatrix(g, k)
            oracle = {}
            for ms, value in a.entries.items():
                supp = frozenset(ms)
                if supp not in oracle:
                    oracle[supp] = steiner_by_edge_subsets(g, supp)
                assert value == oracle[supp], (g, ms)

    def test_one_bfs_row_per_vertex(self, monkeypatch):
        calls = []
        bfs = graphs._bfs_dist

        def counted(*args):
            calls.append(args[1])
            return bfs(*args)

        monkeypatch.setattr(graphs, "_bfs_dist", counted)
        build_steiner_hypermatrix(path_graph(7), 4)
        assert len(calls) <= 7 + 1  # one row per vertex, plus the connectivity check


class TestContraction:
    def test_matches_naive_sum_exactly(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 3)
            k = rng.randint(2, 4)
            a = random_hypermatrix(rng, k, n)
            x = [rng.randint(-3, 3) for _ in range(n)]
            assert a.contract(x) == naive_contract(a, x)

    def test_exact_with_fractions(self):
        a = SymmetricHypermatrix.from_function(3, 2, lambda ms: sum(ms))
        x = [Fraction(1, 2), Fraction(1, 3)]
        got = a.contract(x)
        assert got == naive_contract(a, x)
        assert all(isinstance(v, Fraction) for v in got)

    def test_numpy_path_matches_list_path(self):
        rng = random.Random(32)
        for _ in range(20):
            n = rng.randint(2, 4)
            k = rng.randint(2, 4)
            a = random_hypermatrix(rng, k, n)
            x = [rng.uniform(0.1, 2.0) for _ in range(n)]
            lst = a.contract(x)
            arr = a.contract(np.array(x))
            assert isinstance(arr, np.ndarray)
            assert np.allclose(arr, lst, rtol=1e-12, atol=1e-12)

    def test_length_mismatch(self):
        a = SymmetricHypermatrix.all_ones(3, 2)
        with pytest.raises(ValueError, match="length"):
            a.contract([1, 2, 3])

    def test_all_ones_contracts_to_power_sum(self):
        # entries 1 make (A x^{k-1})_i = (x_1 + ... + x_n)^{k-1}
        a = SymmetricHypermatrix.all_ones(4, 3)
        assert a.contract([1, 2, 3]) == [216, 216, 216]


class TestRelabel:
    def test_dict_and_sequence_forms(self):
        a = build_steiner_hypermatrix(star_graph(3), 2)
        moved = a.relabel({1: 3, 2: 1, 3: 2})
        assert moved.entry((1, 2)) == 2  # old vertices 2,3 are leaves
        assert moved == a.relabel([3, 1, 2])

    def test_relabel_is_action(self):
        rng = random.Random(33)
        a = random_hypermatrix(rng, 3, 3)
        perm = {1: 2, 2: 3, 3: 1}
        inv = {v: u for u, v in perm.items()}
        assert a.relabel(perm).relabel(inv) == a

    def test_rejects_non_bijection(self):
        a = SymmetricHypermatrix.all_ones(2, 3)
        with pytest.raises(ValueError):
            a.relabel({1: 1, 2: 2, 3: 2})
