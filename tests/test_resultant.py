import itertools
import math
import random
from fractions import Fraction

import pytest

from steiner_spectra import exact, resultant
from steiner_spectra.exact import IntMatrix, char_poly_exact, char_poly_mod, det_exact
from steiner_spectra.graphs import complete_graph, path_graph, star_graph
from steiner_spectra.hypermatrix import SymmetricHypermatrix, build_steiner_hypermatrix
from steiner_spectra.resultant import (
    MAX_DEGREE,
    MAX_VARS,
    HomogeneousSystem,
    _gcp_constant_modular,
    check_hyperdet_cap,
    gradient_system,
    hyperdet,
    hyperdet_route,
    macaulay_matrix,
    macaulay_resultant,
)
from steiner_spectra.sylvester2 import hyperdet_dim2
from steiner_spectra.wendt import wendt

from props import random_hypermatrix


def eval_poly(poly, point):
    total = 0
    for expo, c in poly.items():
        term = c
        for e, x in zip(expo, point):
            term *= x**e
        total += term
    return total


class TestHomogeneousSystem:
    def test_validates_counts_and_degrees(self):
        good = HomogeneousSystem(2, 2, ({(2, 0): 1, (0, 2): 1},) * 2)
        assert good.nvars == 2
        with pytest.raises(ValueError):
            HomogeneousSystem(2, 2, ({(2, 0): 1},))  # wrong poly count
        with pytest.raises(ValueError):
            HomogeneousSystem(2, 2, ({(1, 0): 1}, {(2, 0): 1}))  # inhomogeneous

    def test_rejects_zero_coefficients_stored(self):
        with pytest.raises(ValueError):
            HomogeneousSystem(2, 2, ({(2, 0): 0}, {(2, 0): 1}))


class TestGradientSystem:
    def test_k3_single_edge(self):
        a = build_steiner_hypermatrix(complete_graph(2), 3)
        s = gradient_system(a)
        assert s.nvars == 2 and s.degree == 2
        # F_1 = 2 x1 x2 + x2^2, F_2 = x1^2 + 2 x1 x2
        assert s.polys[0] == {(1, 1): 2, (0, 2): 1}
        assert s.polys[1] == {(2, 0): 1, (1, 1): 2}

    def test_contract_agreement(self):
        # F_i evaluated anywhere equals the contraction at that point
        rng = random.Random(51)
        for _ in range(20):
            n = rng.randint(2, 3)
            k = rng.randint(2, 4)
            a = random_hypermatrix(rng, k, n)
            s = gradient_system(a)
            x = [rng.randint(-3, 3) for _ in range(n)]
            contracted = a.contract(x)
            for i in range(n):
                assert eval_poly(s.polys[i], x) == contracted[i]


class TestMacaulayMatrix:
    def test_monomial_order_k3_n2(self):
        s = gradient_system(build_steiner_hypermatrix(complete_graph(2), 3))
        matrix, reduced = macaulay_matrix(s)
        # D = 2(2-1)+1 = 3: monomials x^3, x^2 y, x y^2, y^3
        assert matrix.rows == 4
        assert reduced == [False, False, False, False] or len(reduced) == 4

    def test_n2_matches_sylvester_matrix(self):
        from steiner_spectra.sylvester2 import sylvester_matrix

        for k in (3, 4, 5):
            a = build_steiner_hypermatrix(complete_graph(2), k)
            m, _ = macaulay_matrix(gradient_system(a))
            assert m.to_lists() == sylvester_matrix(a.dim2_profile(), k).to_lists()

    def test_k2_is_coefficient_matrix(self):
        a = build_steiner_hypermatrix(path_graph(3), 2)
        m, reduced = macaulay_matrix(gradient_system(a))
        assert m.to_lists() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        # degree-1 monomials are each divisible by exactly one x_i^1,
        # so every row is reduced and the minor is empty
        assert all(reduced)


class TestMacaulayResultant:
    def test_k2_equals_determinant(self):
        rng = random.Random(53)
        for n in [rng.randint(2, 4) for _ in range(10)] + [5, 6, 7]:
            a = random_hypermatrix(rng, 2, n, lo=-4, hi=4)
            got = macaulay_resultant(gradient_system(a))
            rows = [[a.entry((i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
            assert got == det_exact(IntMatrix(rows))

    def test_n2_matches_sylvester_formula(self):
        rng = random.Random(54)
        for k in (3, 4, 5):
            for _ in range(5):
                a = random_hypermatrix(rng, k, 2, lo=-3, hi=3)
                got = macaulay_resultant(gradient_system(a))
                assert got == hyperdet_dim2(a), k

    def test_edge_is_det_of_sylvester_and_signed_wendt(self, monkeypatch):
        # every Macaulay row is reduced at n = 2: det(M), no charpoly
        def refuse(*args, **kwargs):
            raise AssertionError("charpoly taken on an all-reduced Macaulay matrix")

        monkeypatch.setattr(resultant, "char_poly_exact", refuse)
        monkeypatch.setattr(resultant, "char_poly_mod", refuse)
        for k in range(2, 17):
            a = build_steiner_hypermatrix(complete_graph(2), k)
            got = macaulay_resultant(gradient_system(a))
            assert got == hyperdet_dim2(a) == (-1) ** (k - 1) * wendt(k - 1), k

    def test_cap_is_the_hyperdet_cap(self):
        for nvars, degree in [(5, 2), (3, 6)]:
            with pytest.raises(ValueError) as want:
                check_hyperdet_cap(nvars, degree + 1)
            s = HomogeneousSystem(nvars, degree, ({(degree,) + (0,) * (nvars - 1): 1},) * nvars)
            with pytest.raises(ValueError) as got:
                macaulay_resultant(s)
            assert str(got.value) == str(want.value)

    def test_zero_system_shortcut(self):
        a = SymmetricHypermatrix.from_function(3, 2, lambda ms: 0)
        assert macaulay_resultant(gradient_system(a)) == 0

    def test_returns_int_when_possible(self):
        a = build_steiner_hypermatrix(complete_graph(2), 3)
        v = macaulay_resultant(gradient_system(a))
        assert isinstance(v, int)


def _minor(matrix, reduced):
    keep = [i for i, r in enumerate(reduced) if not r]
    return IntMatrix([[matrix[i, j] for j in keep] for i in keep])


class TestSingleRoute:
    def test_matches_bareiss_ratio_when_minor_is_nonsingular(self):
        rng = random.Random(56)
        checked = 0
        for _ in range(5):
            s = gradient_system(random_hypermatrix(rng, 3, 3, lo=1, hi=4))
            matrix, reduced = macaulay_matrix(s)
            det_minor = det_exact(_minor(matrix, reduced))
            if det_minor == 0:
                continue
            ratio = Fraction(det_exact(matrix), det_minor)
            assert ratio.denominator == 1
            assert macaulay_resultant(s) == ratio
            assert _gcp_constant_modular(s, *macaulay_matrix(s)) == ratio
            checked += 1
        assert checked >= 3

    def test_matches_exact_perturbed_charpolys_on_small_trees(self):
        # Res = C(0) for det(tI + M) = C(t) det(tI + M'), from exact charpolys
        def trailing(m):
            neg = IntMatrix([[-x for x in m.row(i)] for i in range(m.rows)])
            coeffs = char_poly_exact(neg, max_size=m.rows)
            order = next(i for i, c in enumerate(coeffs) if c)
            return order, coeffs[order]

        for g, k in [
            (complete_graph(2), 3),
            (complete_graph(2), 4),
            (path_graph(3), 3),
            (path_graph(3), 4),
            (star_graph(4), 3),
        ]:
            s = gradient_system(build_steiner_hypermatrix(g, k))
            matrix, reduced = macaulay_matrix(s)
            ord_m, lead_m = trailing(matrix)
            # at n = 2 every row is reduced: the minor is empty, det(tI + M') = 1
            empty = all(reduced)
            ord_minor, lead_minor = (0, 1) if empty else trailing(_minor(matrix, reduced))
            assert ord_m >= ord_minor
            want = 0 if ord_m > ord_minor else Fraction(lead_m, lead_minor)
            assert macaulay_resultant(s) == want, (g, k)
            assert _gcp_constant_modular(s, *macaulay_matrix(s)) == want, (g, k)


def form_norm(s):
    """max_i ||F_i||_1, the norm the CRT bound reads off the forms."""
    return max(sum(map(abs, f.values())) for f in s.polys)


class TestModularPrimes:
    @pytest.mark.parametrize("rows", [15, 560, 2000])
    def test_primes_keep_float_products_exact(self, rows):
        primes = list(itertools.islice(resultant._modular_primes(rows), 300))
        bound = exact._float_exact_bound(rows)
        assert primes == sorted(primes, reverse=True)
        assert all(exact._is_prime_trial(p) for p in primes)
        assert all(p * p * (rows + 2 * exact._PANEL) < 2**53 for p in primes)
        # the pool starts at the largest prime below the bound
        assert not any(exact._is_prime_trial(q) for q in range(primes[0] + 1, bound))
        assert primes[-1] > bound // 2

    def test_crt_stops_once_the_modulus_passes_the_bound(self, monkeypatch):
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 6))
        matrix, reduced = macaulay_matrix(s)
        primes = []

        def spy(m, p):
            if m is matrix:
                primes.append(p)
            return char_poly_mod(m, p)

        monkeypatch.setattr(resultant, "char_poly_mod", spy)
        assert _gcp_constant_modular(s, matrix, reduced) == 43782435923605828680933188175642624
        bound = 2 * form_norm(s) ** sum(reduced)
        assert math.prod(primes) > bound >= math.prod(primes[:-1])
        assert primes == list(itertools.islice(resultant._modular_primes(matrix.rows), len(primes)))


class TestCrtNorm:
    """The CRT bound's B = max_i ||F_i||_1 is ||M||_inf of the Macaulay
    matrix, so reading it off the forms changes no prime count; on these
    systems it is also at most ||M||_1, the other norm the bound could use."""

    @staticmethod
    def assert_form_norm_is_row_norm(s):
        rows = macaulay_matrix(s)[0].to_lists()
        row_norm = max(sum(map(abs, r)) for r in rows)
        column_norm = max(sum(map(abs, c)) for c in zip(*rows))
        assert form_norm(s) == row_norm <= column_norm

    @pytest.mark.parametrize("n, k", [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (4, 5)])
    def test_tree_classes(self, n, k):
        trees = [path_graph(n)] + ([star_graph(n)] if n == 4 else [])
        for g in trees:
            self.assert_form_norm_is_row_norm(gradient_system(build_steiner_hypermatrix(g, k)))

    def test_forms_without_a_pure_power(self):
        # no form has an x1^2 term, yet each still owns the row of x_i^D
        s = HomogeneousSystem(
            3,
            2,
            (
                {(0, 1, 1): 3, (1, 0, 1): -1},
                {(0, 2, 0): -2, (1, 1, 0): 5, (0, 0, 2): 1},
                {(1, 0, 1): 7, (0, 1, 1): -1},
            ),
        )
        self.assert_form_norm_is_row_norm(s)


class TestVanishingInstances:
    def test_path3_order3_is_zero(self):
        a = build_steiner_hypermatrix(path_graph(3), 3)
        assert hyperdet(a) == 0

    def test_star4_order3_is_zero(self):
        a = build_steiner_hypermatrix(star_graph(4), 3)
        assert hyperdet(a) == 0

    def test_path3_order5_is_zero(self):
        a = build_steiner_hypermatrix(path_graph(3), 5)
        assert hyperdet(a) == 0

    def test_path3_order4_is_nonzero(self):
        a = build_steiner_hypermatrix(path_graph(3), 4)
        assert hyperdet(a) != 0


class TestPinnedValues:
    # the one tree class at n = 3 is the path; these are the anchors of
    # perfbench/run.py (HYPERDET_3_4, HYPERDET_3_6), through the CRT route
    @pytest.mark.parametrize(
        "k, value",
        [(4, 8023601152), (6, 43782435923605828680933188175642624)],
        ids=["k4", "k6"],
    )
    def test_path3_and_a_relabeling(self, k, value):
        a = build_steiner_hypermatrix(path_graph(3), k)
        assert hyperdet(a) == value
        assert hyperdet(a.relabel({1: 2, 2: 1, 3: 3})) == value


class TestHyperdetDispatch:
    def test_routes(self):
        assert hyperdet_route(build_steiner_hypermatrix(path_graph(3), 2)) == "matrix-det"
        assert hyperdet_route(build_steiner_hypermatrix(complete_graph(2), 5)) == "sylvester"
        assert hyperdet_route(build_steiner_hypermatrix(path_graph(3), 3)) == "macaulay"

    def test_route_cap(self):
        big = SymmetricHypermatrix.all_ones(2, MAX_VARS + 1)
        assert hyperdet_route(big) == "matrix-det"  # order 2 always fine
        too_big = SymmetricHypermatrix.all_ones(3, MAX_VARS + 1)
        with pytest.raises(ValueError):
            hyperdet_route(too_big)
        too_deep = SymmetricHypermatrix.all_ones(MAX_DEGREE + 2, 3)
        with pytest.raises(ValueError):
            hyperdet_route(too_deep)

    def test_k2_route_equals_distance_det(self):
        from steiner_spectra.graphs import distance_matrix

        g = star_graph(5)
        a = build_steiner_hypermatrix(g, 2)
        assert hyperdet(a) == det_exact(distance_matrix(g))

    def test_sylvester_route_value(self):
        a = build_steiner_hypermatrix(complete_graph(2), 3)
        assert hyperdet(a) == -3

    def test_scalar_homogeneity(self):
        # hyperdet(c*A) = c^(n (k-1)^(n-1)) hyperdet(A)
        rng = random.Random(55)
        a = random_hypermatrix(rng, 3, 3, lo=0, hi=3)
        c = 2
        scaled = SymmetricHypermatrix.from_function(
            3, 3, lambda ms: c * a.entries[ms]
        )
        d = hyperdet(a)
        ds = hyperdet(scaled)
        assert ds == c ** (3 * 2**2) * d

    def test_relabel_invariance_small(self):
        a = build_steiner_hypermatrix(path_graph(4), 3)
        base = hyperdet(a)
        moved = a.relabel({1: 4, 2: 2, 3: 3, 4: 1})
        assert hyperdet(moved) == base
