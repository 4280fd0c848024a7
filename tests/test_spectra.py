import cmath
import math
from fractions import Fraction

import pytest

from steiner_spectra.exact import char_poly_exact
from steiner_spectra.graphs import complete_graph, path_graph, star_graph
from steiner_spectra.hypermatrix import (
    SymmetricHypermatrix,
    build_steiner_hypermatrix,
    exponent_vectors,
)
from steiner_spectra.spectra import (
    BLOCK_CHECK_MAX_K,
    EigenPair,
    NoConvergence,
    RadiusEnclosure,
    block_matrix_K2,
    block_matrix_check,
    charpoly_allones,
    charpoly_D_dim2,
    constant_term,
    eigenvalues_K2,
    merge_eigenpairs,
    multiset_equal,
    nqz_spectral_radius,
    spectral_radius_K2,
    total_multiplicity,
)
from steiner_spectra.sylvester2 import hyperdet_dim2


def pairs_as_dict(pairs, ndigits=9):
    return {
        (round(p.value.real, ndigits), round(p.value.imag, ndigits)): p.multiplicity
        for p in pairs
    }


class TestEigenPair:
    def test_requires_positive_multiplicity(self):
        with pytest.raises(ValueError):
            EigenPair(1.0, Fraction(0))

    def test_merge_clusters_close_values(self):
        pairs = [
            EigenPair(1.0 + 0j, Fraction(1)),
            EigenPair(1.0 + 1e-15j, Fraction(2)),
            EigenPair(2.0 + 0j, Fraction(1)),
        ]
        merged = merge_eigenpairs(pairs)
        assert total_multiplicity(merged) == 4
        assert len(merged) == 2

    def test_multiset_equal(self):
        a = [EigenPair(1.0, Fraction(2)), EigenPair(-1.0, Fraction(1))]
        b = [EigenPair(-1.0 + 1e-13j, Fraction(1)), EigenPair(1.0, Fraction(2))]
        assert multiset_equal(a, b)
        c = [EigenPair(1.0, Fraction(3))]
        assert not multiset_equal(a, c)


class TestWeakCompositions:
    def test_enumeration(self):
        # the weak compositions of d into n parts, as exponent vectors in
        # multiset order: the gradient table and macaulay_matrix both rely on it
        assert exponent_vectors(2, 2) == [(2, 0), (1, 1), (0, 2)]
        for n, d in [(1, 4), (3, 4), (4, 3), (4, 13)]:
            vectors = exponent_vectors(n, d)
            assert len(vectors) == len(set(vectors)) == math.comb(n + d - 1, d)
            assert all(len(v) == n and sum(v) == d and min(v) >= 0 for v in vectors)
            assert vectors == sorted(vectors, reverse=True)


class TestCharpolyAllOnes:
    def test_n2_k2(self):
        got = pairs_as_dict(charpoly_allones(2, 2))
        assert got == {(0.0, 0.0): 1, (2.0, 0.0): 1}

    def test_n2_k3(self):
        got = pairs_as_dict(charpoly_allones(2, 3))
        assert got == {(0.0, 0.0): 3, (4.0, 0.0): 1}

    def test_n3_k2(self):
        got = pairs_as_dict(charpoly_allones(3, 2))
        assert got == {(0.0, 0.0): 2, (3.0, 0.0): 1}

    def test_total_count(self):
        for n in range(2, 5):
            for k in range(2, 6):
                pairs = charpoly_allones(n, k)
                assert total_multiplicity(pairs) == n * (k - 1) ** (n - 1), (n, k)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            charpoly_allones(1, 3)
        with pytest.raises(ValueError):
            charpoly_allones(3, 1)


class TestK2Spectra:
    def test_eigenvalues_k2_closed_form(self):
        # -1 appears k-1 times plus once more from the j = (k-1)/2 root
        got = pairs_as_dict(eigenvalues_K2(3))
        assert got == {(-1.0, 0.0): 3, (3.0, 0.0): 1}
        assert total_multiplicity(eigenvalues_K2(3)) == 4

    def test_charpoly_is_shifted_allones(self):
        for k in range(2, 9):
            shifted = [
                EigenPair(p.value - 1, p.multiplicity) for p in charpoly_allones(2, k)
            ]
            assert multiset_equal(charpoly_D_dim2(k), shifted), k

    def test_matches_eigenvalues_k2(self):
        for k in range(2, 13):
            assert multiset_equal(charpoly_D_dim2(k), eigenvalues_K2(k)), k

    def test_spectral_radius_closed_form(self):
        for k in range(2, 17):
            assert spectral_radius_K2(k) == 2 ** (k - 1) - 1
            radius = max(abs(p.value) for p in eigenvalues_K2(k))
            assert radius == pytest.approx(2 ** (k - 1) - 1, rel=1e-12)

    def test_constant_term_matches_hyperdet(self):
        for k in range(2, 9):
            a = build_steiner_hypermatrix(complete_graph(2), k)
            ct = constant_term(charpoly_D_dim2(k))
            assert round(ct.real) == hyperdet_dim2(a), k
            assert abs(ct.imag) < 1e-6


class TestConstantTerm:
    def test_product_of_negated_roots(self):
        pairs = [EigenPair(2.0, Fraction(2)), EigenPair(-1.0, Fraction(1))]
        assert constant_term(pairs) == pytest.approx(4.0)

    def test_rejects_fractional_multiplicity(self):
        with pytest.raises(ValueError):
            constant_term([EigenPair(1.0, Fraction(1, 2))])


class TestNQZ:
    def test_k2_path3(self):
        # largest eigenvalue of the P_3 distance matrix is 1 + sqrt(3)
        a = build_steiner_hypermatrix(path_graph(3), 2)
        enc = nqz_spectral_radius(a, tol=1e-10)
        assert enc.value == pytest.approx(1 + math.sqrt(3), abs=1e-9)

    def test_k3_single_edge(self):
        a = build_steiner_hypermatrix(complete_graph(2), 3)
        enc = nqz_spectral_radius(a, tol=1e-10)
        assert enc.value == pytest.approx(3.0, abs=1e-9)

    def test_k4_single_edge(self):
        a = build_steiner_hypermatrix(complete_graph(2), 4)
        enc = nqz_spectral_radius(a, tol=1e-10)
        assert enc.value == pytest.approx(7.0, abs=1e-9)

    def test_enclosure_brackets_value(self):
        a = build_steiner_hypermatrix(star_graph(4), 3)
        enc = nqz_spectral_radius(a, tol=1e-8)
        assert enc.lo <= enc.value <= enc.hi
        assert enc.width < 1e-8
        assert enc.iterations == len(enc.history)

    def test_history_is_monotone(self):
        a = build_steiner_hypermatrix(path_graph(4), 3)
        enc = nqz_spectral_radius(a, tol=1e-9)
        widths = [hi - lo for lo, hi in enc.history]
        for prev, cur in zip(widths, widths[1:]):
            assert cur <= prev + 1e-9 * (1 + abs(prev))

    def test_enclosure_json(self):
        a = build_steiner_hypermatrix(complete_graph(2), 2)
        obj = nqz_spectral_radius(a, tol=1e-8).to_json_dict()
        assert set(obj) >= {"value", "lo", "hi", "iterations"}

    def test_rejects_bad_tol_and_dim(self):
        a = build_steiner_hypermatrix(complete_graph(2), 3)
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                nqz_spectral_radius(a, tol=tol)
        one = SymmetricHypermatrix(3, 1, {(1, 1, 1): 1})
        with pytest.raises(ValueError):
            nqz_spectral_radius(one, tol=1e-8)

    def test_rejects_max_iter_below_one(self):
        a = build_steiner_hypermatrix(complete_graph(2), 3)
        for max_iter in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                nqz_spectral_radius(a, tol=1e-8, max_iter=max_iter)

    def test_rejects_negative_entries(self):
        a = SymmetricHypermatrix.from_function(2, 2, lambda ms: -1)
        with pytest.raises(ValueError, match="negative"):
            nqz_spectral_radius(a, tol=1e-8)

    def test_rejects_zero_slice(self):
        # off-diagonal support missing for vertex 2: slice positivity fails
        vals = {(1, 1): 1, (1, 2): 0, (2, 2): 1}
        a = SymmetricHypermatrix(2, 2, vals)
        with pytest.raises(ValueError):
            nqz_spectral_radius(a, tol=1e-8)

    def test_no_convergence_carries_enclosure(self):
        a = build_steiner_hypermatrix(path_graph(3), 2)
        with pytest.raises(NoConvergence) as exc:
            nqz_spectral_radius(a, tol=1e-30, max_iter=5)
        enc = exc.value.enclosure
        assert isinstance(enc, RadiusEnclosure)
        assert enc.iterations == 5
        assert enc.lo <= 1 + math.sqrt(3) <= enc.hi


class TestBlockMatrices:
    def test_block_k3_layout(self):
        assert block_matrix_K2(3).to_lists() == [
            [0, 2, 1, 0],
            [0, 0, 2, 1],
            [1, 2, 0, 0],
            [0, 1, 2, 0],
        ]

    def test_block_equals_sylvester_for_single_edge(self):
        from steiner_spectra.sylvester2 import sylvester_matrix

        for k in range(2, 9):
            a = build_steiner_hypermatrix(complete_graph(2), k)
            assert block_matrix_K2(k) == sylvester_matrix(a.dim2_profile(), k)

    def test_block_charpoly_roots(self):
        # k=3 block matrix has char poly (x+1)^3 (x-3)
        p = char_poly_exact(block_matrix_K2(3))
        assert p == (-3, -8, -6, 0, 1)

        def value(x):
            return sum(c * x**i for i, c in enumerate(p))

        assert value(-1) == 0 and value(3) == 0
        for j in range(2):
            w = cmath.exp(2j * cmath.pi * j / 2)
            root = (1 + w) ** 2 - 1
            assert abs(value(root)) < 1e-9

    def test_check_passes_small_orders(self):
        for k in range(2, 9):
            assert block_matrix_check(k), k

    def test_check_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            block_matrix_check(BLOCK_CHECK_MAX_K + 1)
        with pytest.raises(ValueError):
            block_matrix_check(1)
