"""Input checks across the package: each bad input raises its ValueError."""

from fractions import Fraction

import numpy as np
import pytest

from steiner_spectra.exact import IntMatrix, char_poly_exact, circulant, det_stack
from steiner_spectra.graphs import (
    Graph,
    complete_graph,
    graph_canonical_form,
    parse_graph,
    path_graph,
    steiner_distance,
    tree_from_prufer,
)
from steiner_spectra.hypermatrix import SymmetricHypermatrix
from steiner_spectra.resultant import HomogeneousSystem
from steiner_spectra.spectra import charpoly_D_dim2, edge_charpoly, spectral_radius_K2
from steiner_spectra.wendt import wendt_matrix, wendt_oracle


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(0), "at least one vertex"),
        (lambda: Graph.from_edges(3, [(1.0, 2), (2, 3)]), r"endpoint 1\.0 is not an integer"),
        (lambda: steiner_distance(path_graph(3), {0, 1}), r"not within 1\.\.3"),
        (lambda: steiner_distance(path_graph(3), [1.0, 3]), r"terminal 1\.0 is not an integer"),
        (lambda: graph_canonical_form(complete_graph(9)), "capped at n = 8"),
        (lambda: parse_graph("# only a comment\n"), "empty graph file"),
        (lambda: tree_from_prufer([1.5, 2]), r"Prüfer entry 1\.5 is not an integer"),
        (lambda: SymmetricHypermatrix(2, 0, {}), "dimension must be at least 1"),
        (lambda: SymmetricHypermatrix(2, 1, {(1, 2): 1}), "out of range"),
        (lambda: SymmetricHypermatrix(2, 1, {(1, 1): 0.5}), r"entry 0\.5 is not an integer"),
        (lambda: HomogeneousSystem(0, 1, ()), "at least one variable"),
        (lambda: HomogeneousSystem(1, 0, ({(0,): 1},)), "degree must be at least 1"),
        (lambda: HomogeneousSystem(2, 1, ({(1,): 1}, {(0, 1): 1})), "bad exponent vector"),
        (
            lambda: HomogeneousSystem(1, 1, ({(1,): Fraction(2)},)),
            r"coefficient Fraction\(2, 1\) is not an integer",
        ),
        (lambda: HomogeneousSystem(1, 1, ({(1.0,): 1},)), r"exponent 1\.0 is not an integer"),
        (lambda: circulant([]), "empty row"),
        (lambda: char_poly_exact(IntMatrix([[1, 2]])), "square matrix"),
        (lambda: det_stack(np.zeros((2, 0, 0), np.int64)), "nonempty square matrix"),
        (lambda: edge_charpoly(1), "at least 2"),
        (lambda: spectral_radius_K2(1), "at least 2"),
        (lambda: charpoly_D_dim2(1), "at least 2"),
        (lambda: wendt_matrix(0), "at least 1"),
        (lambda: wendt_oracle(0), "at least 1"),
    ],
)
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()
