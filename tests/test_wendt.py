import json

import pytest

from steiner_spectra.graphs import Graph, complete_graph, path_graph
from steiner_spectra.hypermatrix import build_steiner_hypermatrix
from steiner_spectra.resultant import hyperdet
from steiner_spectra.wendt import (
    BRANCH_NONZERO,
    BRANCH_ODD_ORDER,
    BRANCH_SINGLETON,
    BRANCH_WENDT,
    VanishingVerdict,
    lehmer_vanishes,
    theorem1_vanishes,
    wendt,
    wendt_oracle,
    wendt_matrix,
)


class TestWendtMatrix:
    def test_m3_layout(self):
        assert wendt_matrix(3).to_lists() == [
            [1, 3, 3],
            [3, 1, 3],
            [3, 3, 1],
        ]

    def test_first_row_is_binomials(self):
        assert wendt_matrix(5).to_lists()[0] == [1, 5, 10, 10, 5]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            wendt_matrix(0)


class TestWendtValues:
    def test_small_table(self):
        assert [wendt(m) for m in range(1, 7)] == [1, -3, 28, -375, 3751, 0]

    def test_next_vanishing_at_12(self):
        assert wendt(12) == 0

    def test_against_resultant_oracle(self):
        # Res(x^m - 1, sum_j C(m, j) x^j) by Euclid, independent of Bareiss
        for m in range(1, 41):
            assert wendt(m) == wendt_oracle(m), m

    def test_growth_sanity(self):
        # |W_m| grows fast away from the vanishing multiples of six
        assert abs(wendt(8)) > abs(wendt(7)) > abs(wendt(5))


class TestLehmer:
    def test_zero_iff_multiple_of_six(self):
        for m in range(1, 25):
            assert lehmer_vanishes(m) == (m % 6 == 0)
            assert (wendt(m) == 0) == lehmer_vanishes(m)


class TestClassifier:
    def test_singleton_dimension(self):
        v = theorem1_vanishes(4, 1)
        assert v.vanishes and v.branch == BRANCH_SINGLETON

    def test_odd_order_large_dimension(self):
        v = theorem1_vanishes(3, 5)
        assert v.vanishes and v.branch == BRANCH_ODD_ORDER

    def test_wendt_branch(self):
        v = theorem1_vanishes(7, 2)
        assert v.vanishes and v.branch == BRANCH_WENDT
        assert theorem1_vanishes(13, 2).branch == BRANCH_WENDT

    def test_nonvanishing_cases(self):
        for k, n in [(2, 5), (4, 3), (3, 2), (5, 2), (6, 2), (4, 2)]:
            v = theorem1_vanishes(k, n)
            assert not v.vanishes and v.branch == BRANCH_NONZERO, (k, n)

    def test_odd_order_needs_three_vertices(self):
        # k odd with n = 2 is not covered by the odd-order branch
        assert not theorem1_vanishes(3, 2).vanishes
        assert theorem1_vanishes(3, 3).vanishes

    def test_scope_is_trees_not_connected_graphs(self):
        # the verdict for (3, n) holds on the paths but not on K_3, K_4,
        # the paw (a triangle with a pendant edge) or the diamond (K_4 less an edge)
        cycle4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        paw = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        diamond = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        for g, want in [
            (path_graph(3), 0),
            (complete_graph(3), -2160),
            (path_graph(4), 0),
            (complete_graph(4), -20925489375),
            (cycle4, 0),
            (paw, -5584383),
            (diamond, 3869835264),
        ]:
            assert theorem1_vanishes(3, g.n).vanishes
            assert hyperdet(build_steiner_hypermatrix(g, 3)) == want, g

    def test_singleton_wins_over_other_branches(self):
        assert theorem1_vanishes(7, 1).branch == BRANCH_SINGLETON
        assert theorem1_vanishes(3, 1).branch == BRANCH_SINGLETON

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            theorem1_vanishes(1, 2)
        with pytest.raises(ValueError):
            theorem1_vanishes(3, 0)

    def test_verdict_json(self):
        v = theorem1_vanishes(7, 2)
        obj = v.to_json_dict()
        assert obj == {"k": 7, "n": 2, "vanishes": True, "branch": BRANCH_WENDT}
        json.dumps(obj)

    def test_verdict_is_frozen(self):
        v = VanishingVerdict(3, 3, True, BRANCH_ODD_ORDER)
        with pytest.raises(AttributeError):
            v.vanishes = False
