"""Input checks across the package: each bad input raises its ValueError,
and every size parameter is read by one rule, `exact._size`."""

from fractions import Fraction

import numpy as np
import pytest

from steiner_spectra.exact import IntMatrix, char_poly_exact, circulant, det_stack
from steiner_spectra.graphs import (
    Graph,
    complete_graph,
    graph_canonical_form,
    labeled_tree_blocks,
    parse_graph,
    path_graph,
    steiner_distance,
    tree_from_prufer,
)
from steiner_spectra.harness import extremal_radius, graham_pollak_check, sweep_trees
from steiner_spectra.hypermatrix import SymmetricHypermatrix, build_steiner_hypermatrix, multisets
from steiner_spectra.resultant import HomogeneousSystem
from steiner_spectra.spectra import (
    block_matrix_check,
    charpoly_allones,
    charpoly_D_dim2,
    edge_charpoly,
    spectral_radius_K2,
)
from steiner_spectra.wendt import lehmer_vanishes, theorem1_vanishes, wendt_matrix, wendt_oracle


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(0), "n must be at least 1"),
        (lambda: Graph.from_edges(3, [(1.0, 2), (2, 3)]), r"endpoint 1\.0 is not an integer"),
        (lambda: steiner_distance(path_graph(3), {0, 1}), r"not within 1\.\.3"),
        (lambda: steiner_distance(path_graph(3), [1.0, 3]), r"terminal 1\.0 is not an integer"),
        (lambda: graph_canonical_form(complete_graph(9)), "capped at n = 8"),
        (lambda: parse_graph("# only a comment\n"), "empty graph file"),
        (lambda: tree_from_prufer([1.5, 2]), r"Prüfer entry 1\.5 is not an integer"),
        (lambda: SymmetricHypermatrix(2, 0, {}), "dimension must be at least 1"),
        (lambda: SymmetricHypermatrix(2, 1, {(1, 2): 1}), r"no entry at the multiset \(1, 1\)"),
        (
            lambda: SymmetricHypermatrix(2, 2, {(1, 1): 1, (1.5, 2): 1, (2, 2): 1}),
            r"no entry at the multiset \(1, 2\)",
        ),
        (lambda: SymmetricHypermatrix(2, 1, {(1, 1): 0.5}), r"entry 0\.5 is not an integer"),
        (lambda: HomogeneousSystem(0, 1, ()), "nvars must be at least 1"),
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


ORDER_2 = {ms: 1 for ms in multisets(2, 2)}
LINEAR = ({(1,): 1},)


# (call on the size x, its name, its bound, a value within it, what the
# call reports of x or None)
SIZE_SITES = {
    "Graph n": (lambda n: Graph(n), "n", 1, 3, lambda g: g.n),
    "labeled_tree_blocks n": (lambda n: next(labeled_tree_blocks(n)), "n", 2, 3, None),
    "SymmetricHypermatrix order": (
        lambda k: SymmetricHypermatrix(k, 2, ORDER_2), "order", 2, 2, lambda a: a.order
    ),
    "SymmetricHypermatrix dim": (
        lambda n: SymmetricHypermatrix(2, n, ORDER_2), "dimension", 1, 2, lambda a: a.dim
    ),
    "build_steiner_hypermatrix k": (
        lambda k: build_steiner_hypermatrix(path_graph(3), k), "order k", 2, 3, lambda a: a.order
    ),
    "HomogeneousSystem nvars": (
        lambda n: HomogeneousSystem(n, 1, LINEAR), "nvars", 1, 1, lambda s: s.nvars
    ),
    "HomogeneousSystem degree": (
        lambda d: HomogeneousSystem(1, d, LINEAR), "degree", 1, 1, lambda s: s.degree
    ),
    "charpoly_allones n": (lambda n: charpoly_allones(n, 3), "n", 2, 2, None),
    "charpoly_allones k": (lambda k: charpoly_allones(2, k), "order k", 2, 3, None),
    "charpoly_D_dim2 k": (charpoly_D_dim2, "order k", 2, 3, None),
    "spectral_radius_K2 k": (spectral_radius_K2, "order k", 2, 3, lambda r: r),
    "edge_charpoly k": (edge_charpoly, "order k", 2, 3, None),
    "block_matrix_check k": (block_matrix_check, "order k", 2, 3, None),
    "wendt_matrix m": (wendt_matrix, "m", 1, 3, None),
    "wendt_oracle m": (wendt_oracle, "m", 1, 3, None),
    "lehmer_vanishes m": (lehmer_vanishes, "m", 1, 3, None),
    "theorem1_vanishes k": (
        lambda k: theorem1_vanishes(k, 2), "order k", 2, 7, lambda v: v.to_json_dict()["k"]
    ),
    "theorem1_vanishes n": (
        lambda n: theorem1_vanishes(7, n), "n", 1, 2, lambda v: v.to_json_dict()["n"]
    ),
    "graham_pollak_check n_max": (graham_pollak_check, "n_max", 2, 3, lambda r: r["n_max"]),
    "extremal_radius n": (lambda n: extremal_radius(n, 2), "n", 2, 3, lambda r: r["n"]),
    "extremal_radius k": (lambda k: extremal_radius(3, k), "order k", 2, 2, lambda r: r["k"]),
    "sweep_trees n": (lambda n: sweep_trees(n, 2, det=True), "n", 2, 3, lambda r: r.n),
    "sweep_trees k": (lambda k: sweep_trees(3, k, det=True), "order k", 2, 2, lambda r: r.k),
}


@pytest.mark.parametrize("call, what, low, good, reported", SIZE_SITES.values(), ids=SIZE_SITES)
def test_size_parameters_take_one_rule(call, what, low, good, reported):
    with pytest.raises(ValueError, match=f"^{what} {float(good)!r} is not an integer$"):
        call(float(good))
    with pytest.raises(ValueError, match=f"^{what} must be at least {low}$"):
        call(low - 1)
    out = call(np.int64(good))
    if reported is not None:
        got = reported(out)
        assert type(got) is int and got == good
