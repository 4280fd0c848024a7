import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from steiner_spectra import exact, resultant, sweep_trees, tree_from_prufer
from steiner_spectra.exact import IntMatrix, char_poly_exact, char_poly_mod, det_exact
from steiner_spectra.graphs import (
    Graph,
    all_connected_graphs,
    canonical_key,
    complete_graph,
    enumerate_labeled_trees,
    path_graph,
    star_graph,
)
from steiner_spectra.hypermatrix import (
    SymmetricHypermatrix,
    build_steiner_hypermatrix,
    exponent_vectors,
)
from steiner_spectra.resultant import (
    MAX_DEGREE,
    MAX_VARS,
    HomogeneousSystem,
    _gcp_constant_modular,
    check_hyperdet_cap,
    gradient_system,
    hyperdet,
    hyperdet_route,
    line_root,
    macaulay_matrix,
    macaulay_resultant,
)
from steiner_spectra.wendt import theorem1_vanishes, wendt

from props import CRT_DEGENERATE_FORMS, random_hypermatrix


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


def macaulay_by_definition(s):
    """Rows of the Macaulay matrix entry by entry: the row of monomial m is
    (m / x_i^d) F_i, i the least index with x_i^d | m, reduced when i is the
    only such index."""
    n, d = s.nvars, s.degree
    mons = exponent_vectors(n, n * (d - 1) + 1)
    rows, reduced = [], []
    for m in mons:
        owners = [i for i in range(n) if m[i] >= d]
        quotient = [e - d * (j == owners[0]) for j, e in enumerate(m)]
        form = s.polys[owners[0]]
        expos = [tuple(t - q for t, q in zip(target, quotient)) for target in mons]
        rows.append([form.get(e, 0) for e in expos])
        reduced.append(len(owners) == 1)
    return rows, reduced


def sylvester_by_formula(profile):
    """The paper's dimension-2 matrix of the profile (a_0, ..., a_k), a_t the
    entry with t indices equal to 2: rows 1..k-1 shift the band
    (C(k-1, t) a_t), t < k, one column right per row, and rows k..2(k-1)
    do the same with the band (C(k-1, t) a_(t+1))."""
    k = len(profile) - 1
    rows = []
    for band in (profile[:-1], profile[1:]):
        weighted = [math.comb(k - 1, t) * a for t, a in enumerate(band)]
        rows += [[0] * shift + weighted + [0] * (k - 2 - shift) for shift in range(k - 1)]
    return rows


def dim2_hypermatrix(profile):
    k = len(profile) - 1
    return SymmetricHypermatrix.from_function(k, 2, lambda ms: profile[ms.count(2)])


class TestMacaulayMatrix:
    def test_monomial_order_k3_n2(self):
        s = gradient_system(build_steiner_hypermatrix(complete_graph(2), 3))
        matrix, reduced = macaulay_matrix(s)
        # D = 2(2-1)+1 = 3: monomials x^3, x^2 y, x y^2, y^3
        assert matrix.to_lists() == [[0, 2, 1, 0], [0, 0, 2, 1], [1, 2, 0, 0], [0, 1, 2, 0]]
        # at n = 2 no degree-3 monomial is divisible by both x^2 and y^2
        assert reduced == [True] * 4

    def test_n2_matches_sylvester_matrix(self):
        m, _ = macaulay_matrix(gradient_system(dim2_hypermatrix((5, 7, 11))))
        assert m.to_lists() == [[5, 7], [7, 11]]
        rng = random.Random(57)
        for k in range(2, 10):
            for _ in range(5):
                profile = tuple(rng.randint(-3, 3) for _ in range(k + 1))
                m, _ = macaulay_matrix(gradient_system(dim2_hypermatrix(profile)))
                assert m.rows == 2 * (k - 1)
                assert m.to_lists() == sylvester_by_formula(profile), profile

    def test_matches_entrywise_definition(self):
        rng = random.Random(61)
        systems = [gradient_system(build_steiner_hypermatrix(path_graph(70), 2))]
        for _ in range(60):
            n, d = rng.randint(1, 4), rng.randint(1, 4)
            terms = exponent_vectors(n, d)
            polys = []
            for _ in range(n):
                # an empty form, small, at the int64 limits, beyond int64
                coeffs = rng.choice(
                    [[], [-9, -1, 1, 9], [-(2**63), 2**63 - 1, -1], [2**63, -(2**70), 1]]
                )
                picks = rng.sample(terms, rng.randint(1, len(terms))) if coeffs else []
                polys.append({e: rng.choice(coeffs) for e in picks})
            systems.append(HomogeneousSystem(n, d, tuple(polys)))
        kinds = {"int64": 0, "object": 0}
        for s in systems:
            want, want_reduced = macaulay_by_definition(s)
            fits = all(-(2**63) <= c < 2**63 for row in want for c in row)
            matrix, reduced = macaulay_matrix(s)
            assert matrix.to_lists() == want
            assert matrix._a.dtype == (np.int64 if fits else object)
            assert reduced == want_reduced and all(type(r) is bool for r in reduced)
            kinds[matrix._a.dtype.name] += 1
        assert min(kinds.values()) >= 5

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
        for n in [rng.randint(2, 4) for _ in range(10)] + [5, 6, 7, 2]:
            a = random_hypermatrix(rng, 2, n, lo=-4, hi=4)
            got = macaulay_resultant(gradient_system(a))
            rows = [[a.entry((i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
            assert got == det_exact(IntMatrix(rows))

    def test_n2_matches_sylvester_formula(self):
        rng = random.Random(54)
        for k in range(2, 7):
            for _ in range(5):
                profile = tuple(rng.randint(-3, 3) for _ in range(k + 1))
                a = dim2_hypermatrix(profile)
                got = macaulay_resultant(gradient_system(a))
                assert got == hyperdet(a) == det_exact(IntMatrix(sylvester_by_formula(profile)))

    def test_edge_is_det_of_sylvester_and_signed_wendt(self, monkeypatch):
        # every Macaulay row is reduced at n = 2: det(M), no charpoly
        def refuse(*args, **kwargs):
            raise AssertionError("charpoly taken on an all-reduced Macaulay matrix")

        monkeypatch.setattr(resultant, "char_poly_exact", refuse)
        monkeypatch.setattr(resultant, "char_poly_mod", refuse)
        for k in range(2, 17):
            a = build_steiner_hypermatrix(complete_graph(2), k)
            got = macaulay_resultant(gradient_system(a))
            assert got == hyperdet(a) == (-1) ** (k - 1) * wendt(k - 1), k

    def test_cap_is_the_hyperdet_cap(self):
        for nvars, degree in [(5, 2), (3, 6)]:
            with pytest.raises(ValueError) as want:
                check_hyperdet_cap(nvars, degree + 1)
            s = HomogeneousSystem(nvars, degree, ({(degree,) + (0,) * (nvars - 1): 1},) * nvars)
            with pytest.raises(ValueError) as got:
                macaulay_resultant(s)
            assert str(got.value) == str(want.value)

    def test_vanishing_forms_give_zero_on_every_route(self, monkeypatch):
        # a zero form fills none of its Macaulay rows, so det(M) and C(0)
        # are 0 with no special case
        a = SymmetricHypermatrix.from_function(3, 2, lambda ms: 0)
        assert macaulay_resultant(gradient_system(a)) == 0
        primes = []

        def spy(m, p):
            primes.append(p)
            return char_poly_mod(m, p)

        monkeypatch.setattr(resultant, "char_poly_mod", spy)
        # n = 3, degree 3: 36 rows, with the second form zero; the line
        # root closes before the CRT, which is run here directly
        cubes = {e: 1 + e[0] for e in exponent_vectors(3, 3)}
        partial = HomogeneousSystem(3, 3, (cubes, {}, cubes))
        assert macaulay_resultant(partial) == 0
        assert line_root(partial) and not primes
        assert _gcp_constant_modular(*macaulay_matrix(partial)) == 0
        assert primes
        # n = 4, all forms zero: every restriction to the line is 0, and
        # for the CRT the block mass is 0, so one prime closes
        primes.clear()
        zero = HomogeneousSystem(4, 2, ({},) * 4)
        assert macaulay_resultant(zero) == 0
        assert line_root(zero) and not primes
        assert _gcp_constant_modular(*macaulay_matrix(zero)) == 0
        assert len(primes) == 2  # charpolys of M and M' at one prime, no check prime

    def test_returns_int_when_possible(self):
        a = build_steiner_hypermatrix(complete_graph(2), 3)
        v = macaulay_resultant(gradient_system(a))
        assert isinstance(v, int)


def _minor(matrix, reduced):
    keep = [i for i, r in enumerate(reduced) if not r]
    return IntMatrix([[matrix[i, j] for j in keep] for i in keep])


@pytest.mark.parametrize(
    "graph, k",
    [(path_graph(3), k) for k in range(3, 7)]
    + [(g, k) for g in (path_graph(4), star_graph(4)) for k in range(3, 6)],
)
def test_nonreduced_minor_matches_entrywise_reference(graph, k):
    # every tree class at n = 3 and n = 4; matrices only, no charpolys
    matrix, reduced = macaulay_matrix(gradient_system(build_steiner_hypermatrix(graph, k)))
    minor = resultant._nonreduced_minor(matrix, reduced)
    assert minor == _minor(matrix, reduced)
    assert minor.rows == reduced.count(False)


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
            assert _gcp_constant_modular(*macaulay_matrix(s)) == ratio
            checked += 1
        assert checked >= 3

    def test_matches_exact_perturbed_charpolys_on_small_trees(self, monkeypatch):
        # Res = C(0) for det(tI + M) = C(t) det(tI + M'), from exact charpolys;
        # S_4 at k = 3 has 56 Macaulay rows, above the exact charpoly's cap
        monkeypatch.setattr(exact, "CHARPOLY_EXACT_MAX_ROWS", 56)

        def trailing(m):
            neg = IntMatrix([[-x for x in row] for row in m.to_lists()])
            coeffs = char_poly_exact(neg)
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
            # at n = 2 every row is reduced: the minor is empty, det(tI + M') = 1,
            # and macaulay_resultant takes det(M) without the CRT
            empty = all(reduced)
            ord_minor, lead_minor = (0, 1) if empty else trailing(_minor(matrix, reduced))
            assert ord_m >= ord_minor
            want = 0 if ord_m > ord_minor else Fraction(lead_m, lead_minor)
            assert macaulay_resultant(s) == want, (g, k)
            if not empty:
                assert _gcp_constant_modular(matrix, reduced) == want, (g, k)


class TestCharpolyQuotient:
    """C(t) is the whole quotient charpoly_M / charpoly_M': every
    coefficient is checked, not only the trailing ones."""

    @staticmethod
    def exact_quotient(g, k):
        matrix, reduced = macaulay_matrix(gradient_system(build_steiner_hypermatrix(g, k)))
        minor = resultant._nonreduced_minor(matrix, reduced)
        return resultant._charpoly_quotient(char_poly_exact(matrix), char_poly_exact(minor))

    def test_path3_order3_is_a_monic_degree_12_quotient(self):
        q = [int(c) for c in self.exact_quotient(path_graph(3), 3)]
        assert len(q) == 13 and q[12] == 1  # N - N' = 15 - 3
        assert q[11] == 0  # the trace term
        assert q[:2] == [0, 0] and q[2] == -1728  # 0 is a double root

    def test_exact_quotient_reduces_to_the_modular_one(self):
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 4))
        matrix, reduced = macaulay_matrix(s)
        minor = resultant._nonreduced_minor(matrix, reduced)
        assert (matrix.rows, minor.rows) == (36, 9)
        q = self.exact_quotient(path_graph(3), 4)
        assert (-1) ** sum(reduced) * q[0] == -q[0] == 8023601152  # H(3, 4)
        for p in itertools.islice(exact._modular_primes(matrix.rows), 3):
            got = resultant._charpoly_quotient(char_poly_mod(matrix, p), char_poly_mod(minor, p), p)
            assert [int(c) for c in got] == [c % p for c in q], p

    def test_perturbed_residue_raises_on_the_crt_route(self, monkeypatch):
        # H(3, 6): 105 Macaulay rows, M' of 30; one coefficient of
        # charpoly_M between its trailing order and N' is off by one at
        # the first prime, the one prime where both whole charpolys run
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 6))
        matrix, reduced = macaulay_matrix(s)
        minor_rows = reduced.count(False)
        first = next(exact._modular_primes(matrix.rows))

        def perturbed(m, p):
            coeffs = list(char_poly_mod(m, p))
            if m.rows == matrix.rows and p == first:
                order = next(i for i, c in enumerate(coeffs) if c)
                assert (order, minor_rows) == (10, 30)
                coeffs[order + 1] = (coeffs[order + 1] + 1) % p
            return tuple(coeffs)

        monkeypatch.setattr(resultant, "char_poly_mod", perturbed)
        with pytest.raises(ArithmeticError, match="not a polynomial"):
            macaulay_resultant(s)

    def test_perturbed_determinant_raises_at_the_check_prime(self, monkeypatch):
        # H(3, 6) again: every block of M and M' is nonsingular at the first
        # prime, so both take determinants after it; one block determinant
        # of M off by one at the second prime moves the CRT value, and the
        # prime after the last CRT prime sees it
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 6))
        matrix, _ = macaulay_matrix(s)
        second = list(itertools.islice(exact._modular_primes(matrix.rows), 2))[1]
        det_mod = exact._det_mod
        seen = []

        def perturbed(a, p):
            det = det_mod(a, p)
            if a.shape[0] == 95 and p == second:
                det = (det + 1) % p
            seen.append(p)
            return det

        monkeypatch.setattr(exact, "_det_mod", perturbed)
        with pytest.raises(ArithmeticError, match="check prime"):
            macaulay_resultant(s)
        assert second in seen

    def test_lower_order_of_m_raises(self, monkeypatch):
        # ord(M) < ord(M') leaves no polynomial quotient: at H(3, 6) both
        # orders are 10 (test_perturbed_residue_raises_on_the_crt_route),
        # and M's is lowered at the second prime
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 6))
        matrix, _ = macaulay_matrix(s)
        second = list(itertools.islice(exact._modular_primes(matrix.rows), 2))[1]
        lowest = exact.lowest_charpoly_term_mod

        def lowered(m, p):
            order, coeff = lowest(m, p)
            if m.rows == matrix.rows and p == second:
                assert order == 10
                order -= 1
            return order, coeff

        monkeypatch.setattr(resultant, "lowest_charpoly_term_mod", lowered)
        with pytest.raises(ArithmeticError, match="lower order"):
            macaulay_resultant(s)

    def test_perturbed_coefficient_raises_on_the_exact_route(self, monkeypatch):
        # D_3(K_3): 15 Macaulay rows, M' of 3, charpoly_M of trailing order 1
        s = gradient_system(build_steiner_hypermatrix(complete_graph(3), 3))
        assert macaulay_resultant(s) == -2160

        def perturbed(m):
            coeffs = list(char_poly_exact(m))
            if m.rows == 15:
                assert coeffs[0] == 0 != coeffs[1]  # trailing order 1 < 2 < N' = 3
                coeffs[2] += 1
            return tuple(coeffs)

        monkeypatch.setattr(resultant, "char_poly_exact", perturbed)
        with pytest.raises(ArithmeticError):
            macaulay_resultant(s)


def form_norm(s):
    """B = max_i ||F_i||_1 = ||M||_inf, read off the forms (`TestCrtNorm`).
    B^k bounds |C(0)| too, but less tightly than the block mass on every
    system the CRT receives (`TestCrtBound::test_prime_counts`)."""
    return max(sum(map(abs, f.values())) for f in s.polys)


def crt_bound(mass, k):
    """2 (isqrt(ceil(S^k / k^k)) + 1): the CRT bound for S the block mass
    of M and k = N - N'."""
    return 2 * (math.isqrt(-(-(mass**k) // k**k)) + 1)


CRT_GRAPHS = {
    "P3": path_graph(3),
    "K3": complete_graph(3),
    "P4": path_graph(4),
    "S4": star_graph(4),
    "C4": Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
    "paw": Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)]),
    "diamond": Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    "K4": complete_graph(4),
}


def crt_system(name):
    """The benchmark's crt-degenerate system, or the gradient system of
    D_k(G) for a name "G-kK" with G in CRT_GRAPHS."""
    if name == "crt-degenerate":
        return HomogeneousSystem(4, 4, CRT_DEGENERATE_FORMS)
    graph, k = name.rsplit("-k", 1)
    return gradient_system(build_steiner_hypermatrix(CRT_GRAPHS[graph], int(k)))


# Every system within the hyperdet cap that reaches the CRT, that is, that
# neither the 15-row exact route nor `line_root` closes
# (`test_crt_traffic_is_complete`), with the primes it would take under
# the norm bound 2 B^k alone and the primes it takes under the block-mass
# bound (`TestCrtBound::test_prime_counts`).
CRT_TRAFFIC = {
    "crt-degenerate": (24, 15),
    "P3-k4": (7, 5),
    "P3-k6": (30, 24),
    "K3-k4": (7, 5),
    "K3-k5": (15, 12),
    "K3-k6": (29, 24),
    "paw-k3": (7, 5),
    "diamond-k3": (7, 5),
    "K4-k3": (7, 5),
    "P4-k4": (36, 28),
    "S4-k4": (35, 27),
    "C4-k4": (34, 27),
    "paw-k4": (35, 27),
    "diamond-k4": (34, 27),
    "K4-k4": (33, 26),
    "paw-k5": (109, 88),
    "diamond-k5": (107, 87),
    "K4-k5": (106, 87),
    "P4-k6": (268, 220),
    "S4-k6": (266, 219),
    "C4-k6": (263, 218),
    "paw-k6": (266, 219),
    "diamond-k6": (263, 218),
    "K4-k6": (262, 218),
}


def test_crt_traffic_is_complete():
    # n <= 2 and k = 2 take det(M); n = 3 at k = 3 has 15 rows; a tree at
    # odd k has a line root
    reached = set()
    for n in (3, 4):
        for g in all_connected_graphs(n):
            for k in range(3, MAX_DEGREE + 2):
                rows = math.comb(n * (k - 2) + n, n - 1)
                s = gradient_system(build_steiner_hypermatrix(g, k))
                if rows > resultant.GCP_EXACT_MAX_ROWS and not line_root(s):
                    reached.add((canonical_key(g), k))
    names = [name.rsplit("-k", 1) for name in CRT_TRAFFIC if name != "crt-degenerate"]
    assert reached == {(canonical_key(CRT_GRAPHS[g]), int(k)) for g, k in names}
    assert len(reached) == 23


class TestModularPrimes:
    @pytest.mark.parametrize("rows", [15, 560, 2000])
    def test_primes_keep_float_products_exact(self, rows):
        primes = list(itertools.islice(exact._modular_primes(rows), 300))
        bound = exact._float_exact_bound(rows)
        assert primes == sorted(primes, reverse=True)
        assert all(exact._is_prime_trial(p) for p in primes)
        assert all(p * p * (rows + 2 * exact._PANEL) < 2**53 for p in primes)
        # the pool starts at the largest prime below the bound
        assert not any(exact._is_prime_trial(q) for q in range(primes[0] + 1, bound))
        assert primes[-1] > bound // 2

    def test_crt_stops_once_the_modulus_passes_the_bound(self, monkeypatch):
        # the first prime takes M's whole charpoly, the later ones its
        # lowest term from block determinants, and one prime more checks
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 6))
        matrix, reduced = macaulay_matrix(s)
        primes = []

        def spy(route):
            def call(m, p):
                if m is matrix:
                    primes.append(p)
                return route(m, p)

            return call

        monkeypatch.setattr(resultant, "char_poly_mod", spy(char_poly_mod))
        monkeypatch.setattr(
            resultant, "lowest_charpoly_term_mod", spy(exact.lowest_charpoly_term_mod)
        )
        assert _gcp_constant_modular(matrix, reduced) == 43782435923605828680933188175642624
        pool = list(itertools.islice(exact._modular_primes(matrix.rows), len(primes)))
        assert primes == pool
        primes.pop()  # the check prime
        bound = crt_bound(exact._charpoly_plan(matrix)[2], sum(reduced))
        assert math.prod(primes) > bound >= math.prod(primes[:-1])
        assert len(primes) == 24


class TestCrtBound:
    """The CRT route asks `_crt_primes` for exactly
    2 (isqrt(ceil(S^k / k^k)) + 1), S the sum of squared entries inside
    M's diagonal blocks, k = N - N'.  Each prime is about 2**21, so the
    prime count moves only when the bound crosses a product of primes,
    and a test of the primes alone misses a bound off by a small factor:
    half of it certifies |C(0)| < modulus, not the 2|C(0)| < modulus the
    symmetric residue needs.  These tests read the bound itself."""

    @staticmethod
    def spy_bounds(monkeypatch):
        bounds = []

        def spy(rows, bound):
            bounds.append((rows, bound))
            return exact._crt_primes(rows, bound)

        monkeypatch.setattr(resultant, "_crt_primes", spy)
        return bounds

    def test_crt_degenerate_forms(self, monkeypatch):
        bounds = self.spy_bounds(monkeypatch)
        s = HomogeneousSystem(4, 4, CRT_DEGENERATE_FORMS)
        assert macaulay_resultant(s) == 0
        matrix, reduced = macaulay_matrix(s)
        assert sum(reduced) == 256 and form_norm(s) == 4
        assert exact._charpoly_plan(matrix)[2] == 1358
        assert bounds == [(560, 2 * (math.isqrt(-(-(1358**256) // 256**256)) + 1))]
        assert bounds[0][1] < 2 * 4**256  # below 2 B^k, B = ||M||_inf = 4

    def test_path3_order4(self, monkeypatch):
        bounds = self.spy_bounds(monkeypatch)
        a = build_steiner_hypermatrix(path_graph(3), 4)
        assert hyperdet(a) == 8023601152
        s = gradient_system(a)
        matrix, reduced = macaulay_matrix(s)
        assert sum(reduced) == 27 and form_norm(s) == 45
        assert exact._charpoly_plan(matrix)[2] == 9579
        assert bounds == [(36, 2 * (math.isqrt(-(-(9579**27) // 27**27)) + 1))]
        assert bounds[0][1] < 2 * 45**27

    def test_pure_powers_meet_the_norm_bound(self, monkeypatch):
        # 5 x_i^3: M = 5I, |Res| = 5^27 = B^k exactly; the block mass
        # S = 25 * 36 gives a bound above that (S / k > B^2 = 25), and the
        # same 3 primes as 2 B^k would
        bounds = self.spy_bounds(monkeypatch)
        cubes = tuple({tuple(3 * (j == i) for j in range(3)): 5} for i in range(3))
        s = HomogeneousSystem(3, 3, cubes)
        assert macaulay_resultant(s) == 5**27
        assert bounds == [(36, crt_bound(25 * 36, 27))]
        assert 2 * 5**27 < bounds[0][1]
        assert len(exact._crt_primes(36, bounds[0][1])) == 3

    @staticmethod
    def exact_constant(matrix, reduced):
        """C(0) over Z, from exact charpolys of M and M'."""
        minor = resultant._nonreduced_minor(matrix, reduced)
        q = resultant._charpoly_quotient(char_poly_exact(matrix), char_poly_exact(minor))
        return (-1) ** sum(reduced) * int(q[0])

    def assert_sound(self, bounds, s):
        matrix, reduced = macaulay_matrix(s)
        assert matrix.rows <= exact.CHARPOLY_EXACT_MAX_ROWS
        c0 = self.exact_constant(matrix, reduced)
        assert _gcp_constant_modular(matrix, reduced) == c0
        (rows, bound) = bounds.pop()
        k, mass = sum(reduced), exact._charpoly_plan(matrix)[2]
        assert rows == matrix.rows and bound == crt_bound(mass, k)
        assert 2 * abs(c0) < bound
        assert c0**2 * k**k <= mass**k  # Weyl and AM-GM, before any rounding
        return c0

    def test_sound_on_random_systems(self, monkeypatch):
        bounds = self.spy_bounds(monkeypatch)
        rng = random.Random(2803)
        nonzero = 0
        for d in (2, 2, 2, 2, 2, 2, 3, 3, 3, 3):
            nonzero += self.assert_sound(bounds, seeded_system(rng, 3, d)) != 0
        assert nonzero == 10

    @pytest.mark.parametrize(
        "graph, k, value",
        [(complete_graph(3), 3, -2160), (path_graph(3), 3, 0), (path_graph(3), 4, 8023601152)],
        ids=["K3-k3", "P3-k3", "P3-k4"],
    )
    def test_sound_on_steiner_systems(self, monkeypatch, graph, k, value):
        bounds = self.spy_bounds(monkeypatch)
        s = gradient_system(build_steiner_hypermatrix(graph, k))
        assert self.assert_sound(bounds, s) == value

    @pytest.mark.parametrize(
        "name, before, after",
        [(name, *counts) for name, counts in CRT_TRAFFIC.items()] + [("P4-k5", 111, 89)],
    )
    def test_prime_counts(self, monkeypatch, name, before, after):
        # the primes each system takes under the block-mass bound, against
        # those the norm bound 2 B^k alone would ask for; the spy stops the
        # CRT once it has the bound.  P4-k5 never reaches the CRT through
        # macaulay_resultant (`line_root` closes it).
        class BoundSeen(Exception):
            pass

        def spy(rows, bound):
            raise BoundSeen(rows, bound)

        s = crt_system(name)
        monkeypatch.setattr(resultant, "_crt_primes", spy)
        with pytest.raises(BoundSeen) as seen:
            _gcp_constant_modular(*macaulay_matrix(s))
        rows, bound = seen.value.args
        k = sum(macaulay_matrix(s)[1])
        assert bound < 2 * form_norm(s) ** k
        assert len(exact._crt_primes(rows, 2 * form_norm(s) ** k)) == before
        assert len(exact._crt_primes(rows, bound)) == after


@pytest.mark.parametrize("name", list(CRT_TRAFFIC))
def test_m_and_m_prime_take_one_route(monkeypatch, name):
    # At the first prime, either every diagonal block of more than one row
    # is nonsingular in both M and M', or both have a singular block: on
    # every Steiner system the former, and the later primes take lowest
    # terms from block determinants for both; on crt-degenerate the latter,
    # and both keep whole charpolys.  The spies stop the CRT at the second
    # prime.
    class RouteSeen(Exception):
        pass

    matrix, reduced = macaulay_matrix(crt_system(name))
    first, second = itertools.islice(exact._modular_primes(matrix.rows), 2)
    calls = []

    def spy(route, fn):
        def call(m, p):
            calls.append((route, m, p))
            result = fn(m, p)
            if [q for _, _, q in calls].count(second) == 2:
                raise RouteSeen
            return result

        return call

    monkeypatch.setattr(resultant, "char_poly_mod", spy("charpoly", char_poly_mod))
    monkeypatch.setattr(
        resultant, "lowest_charpoly_term_mod", spy("lowest", exact.lowest_charpoly_term_mod)
    )
    with pytest.raises(RouteSeen):
        _gcp_constant_modular(matrix, reduced)
    at_first = [m for route, m, p in calls if p == first and route == "charpoly"]
    assert [m.rows for m in at_first] == [matrix.rows, reduced.count(False)]
    steiner = name != "crt-degenerate"
    for m in at_first:
        blocks = exact._charpoly_plan(m)[1]
        assert blocks
        dets = [exact._det_mod((b % first).astype(np.float64), first) for b in blocks]
        assert all(dets) == steiner, m.rows
    route = "lowest" if steiner else "charpoly"
    assert [(r, m) for r, m, p in calls if p == second] == [(route, m) for m in at_first]


class TestCrtNorm:
    """B = max_i ||F_i||_1, read off the forms, is ||M||_inf of the Macaulay
    matrix, so the norm-bound column of `CRT_TRAFFIC` counts the primes
    2 ||M||_inf^k asks for; on these systems B is also at most ||M||_1, the
    other norm such a bound could use."""

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

    def test_one_vertex_is_zero_at_every_order(self):
        # D_k(K_1) is the one entry 0: its one form vanishes, M has one row
        for k in range(2, 21):
            verdict = theorem1_vanishes(k, 1)
            assert verdict.vanishes and verdict.branch == "n=1"
            assert hyperdet(build_steiner_hypermatrix(complete_graph(1), k)) == 0, k


def labeled_systems(n, k):
    """The gradient system of D_k(T) for every labeled tree T on n vertices."""
    for _seq, tree in enumerate_labeled_trees(n):
        yield gradient_system(build_steiner_hypermatrix(tree, k))


def tree_classes(n):
    """One labeled tree per isomorphism class on n vertices."""
    return [tree_from_prufer(seq) for seq, _ in sweep_trees(n, 2, mode="unlabeled").records]


class TestLineRoot:
    """`line_root` finds a common root of the forms on the line through
    e_1 - e_2 along e_1 - e_3, which proves the resultant is 0; where it
    finds none, macaulay_resultant runs the CRT."""

    @pytest.mark.parametrize("n", (3, 4))
    def test_closes_on_every_labeled_tree_at_odd_k(self, n):
        for k in (3, 5):
            assert all(line_root(s) for s in labeled_systems(n, k)), k

    @pytest.mark.parametrize("n", (3, 4))
    def test_never_closes_at_even_k(self, n):
        for k in (2, 4, 6):
            assert not any(line_root(s) for s in labeled_systems(n, k)), k

    def test_misses_the_crt_degenerate_root(self):
        # the benchmark's system under each sign pattern x_j -> eps_j x_j:
        # its common root e_1 lies off the line, so the CRT must decide it
        for eps in itertools.product((-1, 1), repeat=4):
            polys = tuple(
                {m: c * math.prod(e**p for e, p in zip(eps, m)) for m, c in form.items()}
                for form in CRT_DEGENERATE_FORMS
            )
            assert not line_root(HomogeneousSystem(4, 4, polys)), eps

    def test_the_crt_gives_zero_wherever_it_closes_on_random_systems(self):
        # every third system shares a random linear factor, whose zero line
        # meets the line of the certificate; the rest are dense and random.
        # Trial 12's factor 2 x_1 + 2 x_3 vanishes at v = e_1 - e_3 itself,
        # the line's point at t = infinity, so all 6 planted systems close
        rng = random.Random(3202)

        def form(degree):
            return {
                e: rng.choice((-3, -2, -1, 1, 2, 3))
                for e in exponent_vectors(3, degree)
                if rng.random() < 0.8
            }

        def times(f, g):
            out = {}
            for (e, a), (h, b) in itertools.product(f.items(), g.items()):
                m = tuple(x + y for x, y in zip(e, h))
                out[m] = out.get(m, 0) + a * b
            return {m: c for m, c in out.items() if c}

        closed = 0
        for trial in range(18):
            d = 2 + trial % 2
            if trial % 3:
                polys = tuple(form(d) for _ in range(3))
            else:
                factor = form(1)
                polys = tuple(times(factor, form(d - 1)) for _ in range(3))
            s = HomogeneousSystem(3, d, polys)
            closes = line_root(s)
            closed += closes
            if closes or trial % 3 == 0:
                assert _gcp_constant_modular(*macaulay_matrix(s)) == 0, trial
        assert closed == 6

    @pytest.mark.parametrize(
        "graph, k",
        [
            (path_graph(3), 5),
            (path_graph(4), 3),
            (star_graph(4), 3),
            pytest.param(path_graph(4), 5, marks=pytest.mark.slow),
            pytest.param(star_graph(4), 5, marks=pytest.mark.slow),
        ],
        ids=["P3-k5", "P4-k3", "S4-k3", "P4-k5", "S4-k5"],
    )
    def test_the_crt_agrees_on_tree_zeros(self, graph, k):
        # macaulay_resultant no longer runs the CRT here; this keeps it
        # checked on the zeros it used to prove (89 primes on P4 at k = 5)
        s = gradient_system(build_steiner_hypermatrix(graph, k))
        assert line_root(s)
        assert _gcp_constant_modular(*macaulay_matrix(s)) == 0

    def test_theorem1_zeros_beyond_the_hyperdet_cap(self):
        # checked evidence for case (a) of Theorem 1 on every tree class
        # where hyperdet refuses: the certificate needs no Macaulay matrix
        classes = {n: tree_classes(n) for n in range(5, 9)}
        assert [len(classes[n]) for n in range(5, 9)] == [3, 6, 11, 23]
        for n, k in [(5, 3), (6, 3), (7, 3), (8, 3), (5, 5), (6, 5), (7, 5), (5, 7)]:
            with pytest.raises(ValueError, match="hyperdet cap"):
                check_hyperdet_cap(n, k)
            assert theorem1_vanishes(k, n).vanishes
            for tree in classes[n]:
                assert line_root(gradient_system(build_steiner_hypermatrix(tree, k))), (n, k)

    def test_refuses_fewer_than_three_variables(self):
        s = gradient_system(build_steiner_hypermatrix(path_graph(2), 3))
        with pytest.raises(ValueError, match="three variables"):
            line_root(s)


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


class TestIntegerInput:
    """Exponents, coefficients and entries are read as Python ints when a
    system or hypermatrix is built, so numpy integers give the same values."""

    def test_hyperdet_of_numpy_entries(self):
        a = build_steiner_hypermatrix(path_graph(3), 4)
        b = SymmetricHypermatrix(4, 3, {ms: np.int64(v) for ms, v in a.entries.items()})
        assert hyperdet(b) == 8023601152

    def test_macaulay_resultant_of_numpy_coefficients(self):
        s = HomogeneousSystem(3, 2, ({(2, 0, 0): 1}, {(0, 2, 0): 2}, {(0, 0, 2): 3, (1, 1, 0): 1}))
        t = HomogeneousSystem(
            3,
            2,
            tuple(
                {tuple(np.int64(e) for e in m): np.int64(c) for m, c in form.items()}
                for form in s.polys
            ),
        )
        assert t == s
        assert macaulay_resultant(t) == macaulay_resultant(s) == 6**4

    def test_the_system_owns_its_forms(self):
        form = {(1, 0): 2, (0, 1): 1}
        s = HomogeneousSystem(2, 1, (form, {(0, 1): 1}))
        form[(1, 0)] = 5
        form[(0, 1)] = 0.5
        assert s.polys[0] == {(1, 0): 2, (0, 1): 1}
        assert macaulay_resultant(s) == 2


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
        # hyperdet(c*A) = c^(n (k-1)^(n-1)) hyperdet(A); c^(2k-2) at n = 2
        rng = random.Random(55)
        for a, c in [
            (random_hypermatrix(rng, 3, 3, lo=0, hi=3), 2),
            (build_steiner_hypermatrix(complete_graph(2), 4), 3),
        ]:
            k, n = a.order, a.dim
            scaled = SymmetricHypermatrix.from_function(k, n, lambda ms: c * a.entries[ms])
            d = hyperdet(a)
            assert d != 0
            assert hyperdet(scaled) == c ** (n * (k - 1) ** (n - 1)) * d

    def test_relabel_invariance_small(self):
        a = build_steiner_hypermatrix(path_graph(4), 3)
        base = hyperdet(a)
        moved = a.relabel({1: 4, 2: 2, 3: 3, 4: 1})
        assert hyperdet(moved) == base


def route(s):
    """The macaulay_resultant route a system takes: det(M) at degree 1 or n = 2,
    the 15-row exact charpolys, a line root, or the CRT."""
    matrix, reduced = macaulay_matrix(s)
    if all(reduced):
        return "det" if s.degree == 1 else "sylvester"
    if matrix.rows <= resultant.GCP_EXACT_MAX_ROWS:
        return "exact"
    return "line-root" if line_root(s) else "crt"


def seeded_system(rng, n, d):
    """Dense forms with coefficients in +-1..3, each monomial kept with probability 0.8."""
    terms = exponent_vectors(n, d)
    return HomogeneousSystem(
        n,
        d,
        tuple(
            {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in terms if rng.random() < 0.8}
            for _ in range(n)
        ),
    )


def form_value(a, x):
    """f_A(x) = x . (A x^(k - 1)), exactly."""
    return sum(v * c for v, c in zip(x, a.contract(x)))


def compose(a, lmap):
    """A∘L, L applied on every mode: (A∘L)_i = sum_j A_j prod_t L[j_t, i_t],
    so f_(A∘L)(x) = f_A(L x)."""
    n, k = a.dim, a.order
    t = np.empty((n,) * k, dtype=object)
    for idx in itertools.product(range(n), repeat=k):
        t[idx] = a.entry(tuple(i + 1 for i in idx))
    lmap = np.array(lmap, dtype=object)
    for _ in range(k):  # sums t's first mode against L's rows; L's column mode goes last
        t = np.tensordot(t, lmap, axes=([0], [0]))
    return SymmetricHypermatrix.from_function(k, n, lambda ms: int(t[tuple(i - 1 for i in ms)]))


# (n, d) and the route each reaches: det(M) at degree 1, Sylvester at n = 2,
# the 15-row exact charpolys at (3, 2), and the CRT at (3, 3) and (4, 2)
IDENTITY_SHAPES = {
    (3, 1): "det",
    (2, 3): "sylvester",
    (3, 2): "exact",
    (3, 3): "crt",
    (4, 2): "crt",
}


# CRT systems on the whole-charpoly sub-route: M has a diagonal block of more
# than one row that is singular at the first prime
WHOLE_CHARPOLY_SYSTEMS = {
    (3, 3): (({(0, 3, 0): 1}, {(0, 0, 3): -2}, {(3, 0, 0): 1, (0, 0, 3): -2, (1, 1, 1): -2}), -512),
    (4, 2): (
        (
            {(1, 0, 0, 1): -1, (0, 1, 1, 0): -2},
            {(2, 0, 0, 0): -1, (0, 1, 1, 0): -1, (0, 0, 2, 0): -2},
            {(1, 0, 1, 0): 2, (0, 0, 0, 2): 1, (0, 0, 2, 0): 2},
            {(0, 2, 0, 0): -1},
        ),
        2304,
    ),
}


class TestResultantIdentities:
    """Route-independent identities of the resultant (ROADMAP item 23;
    Jouanolou, Adv. Math. 1991; Cox, Little & O'Shea, ch. 3)."""

    @staticmethod
    def systems(n, d, count=2):
        rng = random.Random(9100 + 10 * n + d)
        out = [seeded_system(rng, n, d) for _ in range(count)]
        for s in out:
            assert route(s) == IDENTITY_SHAPES[n, d]
        return out

    @pytest.mark.parametrize("n, d", list(IDENTITY_SHAPES), ids=lambda v: str(v))
    def test_per_form_scaling(self, n, d):
        # Res(..., c F_i, ...) = c^(d^(n - 1)) Res(F), on each form in turn
        for s, c in zip(self.systems(n, d), (-2, 3)):
            value = macaulay_resultant(s)
            assert value != 0
            for i in range(n):
                polys = list(s.polys)
                polys[i] = {e: c * v for e, v in polys[i].items()}
                scaled = HomogeneousSystem(n, d, tuple(polys))
                assert macaulay_resultant(scaled) == c ** (d ** (n - 1)) * value, (c, i)

    @pytest.mark.parametrize("n, d", list(IDENTITY_SHAPES), ids=lambda v: str(v))
    def test_swapping_two_forms(self, n, d):
        # Res(..., F_j, ..., F_i, ...) = (-1)^(d^n) Res(F)
        for s in self.systems(n, d):
            value = macaulay_resultant(s)
            assert value != 0
            for i, j in itertools.combinations(range(n), 2):
                polys = list(s.polys)
                polys[i], polys[j] = polys[j], polys[i]
                swapped = HomogeneousSystem(n, d, tuple(polys))
                assert macaulay_resultant(swapped) == (-1) ** (d**n) * value, (i, j)

    @pytest.mark.parametrize("n, d", list(WHOLE_CHARPOLY_SYSTEMS), ids=lambda v: str(v))
    def test_identities_on_whole_charpolys(self, monkeypatch, n, d):
        polys, value = WHOLE_CHARPOLY_SYSTEMS[n, d]
        s = HomogeneousSystem(n, d, polys)
        matrix, _ = macaulay_matrix(s)
        first = next(exact._modular_primes(matrix.rows))
        blocks = exact._charpoly_plan(matrix)[1]
        assert not all(exact._det_mod((b % first).astype(np.float64), first) for b in blocks)
        seen = []

        def spy(name, fn):
            def call(m, p):
                seen.append(name)
                return fn(m, p)

            return call

        monkeypatch.setattr(resultant, "char_poly_mod", spy("charpoly", char_poly_mod))
        monkeypatch.setattr(
            resultant, "lowest_charpoly_term_mod", spy("lowest", exact.lowest_charpoly_term_mod)
        )
        assert route(s) == "crt"
        assert macaulay_resultant(s) == value
        assert len(seen) >= 4 and set(seen) == {"charpoly"}  # M and M' at two primes or more
        for i in range(n):
            scaled = list(s.polys)
            scaled[i] = {e: 3 * c for e, c in scaled[i].items()}
            assert macaulay_resultant(HomogeneousSystem(n, d, tuple(scaled))) == (
                3 ** (d ** (n - 1)) * value
            ), i
        swapped = (s.polys[1], s.polys[0]) + s.polys[2:]
        assert macaulay_resultant(HomogeneousSystem(n, d, swapped)) == (-1) ** (d**n) * value

    @pytest.mark.parametrize("n, d", list(IDENTITY_SHAPES), ids=lambda v: str(v))
    def test_scaled_pure_powers(self, n, d):
        # Res(x_1^d, ..., x_n^d) = 1 fixes the normalization, so scaling
        # each form gives prod_i c_i^(d^(n - 1)) exactly; this one pins the
        # sign of each route, which the relative identities cannot see
        c = (2, -1, 3, -2)[:n]
        s = HomogeneousSystem(
            n, d, tuple({tuple(d * (j == i) for j in range(n)): c[i]} for i in range(n))
        )
        assert route(s) == IDENTITY_SHAPES[n, d]
        assert macaulay_resultant(s) == math.prod(ci ** (d ** (n - 1)) for ci in c)

    @pytest.mark.parametrize(
        "lmap, det",
        [
            ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 1),
            ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1),
            ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], 2),
        ],
        ids=["shear", "swap", "diag211"],
    )
    @pytest.mark.parametrize("tensor", ["P3-k4", "seeded-n3k4"])
    def test_gl_covariance(self, tensor, lmap, det):
        # hyperdet(A∘L) = det(L)^(k (k - 1)^(n - 1)) hyperdet(A): the forms of
        # A∘L are L^T (F∘L), and Res(F∘L) = det(L)^(d^n) Res(F)
        if tensor == "P3-k4":
            a = build_steiner_hypermatrix(path_graph(3), 4)
        else:
            a = random_hypermatrix(random.Random(9134), 4, 3, lo=0, hi=3)
        moved = compose(a, lmap)
        x = [2, -1, 3]
        lx = [sum(r * v for r, v in zip(row, x)) for row in lmap]
        assert form_value(moved, x) == form_value(a, lx)
        assert route(gradient_system(moved)) == route(gradient_system(a)) == "crt"
        n, k = a.dim, a.order
        value = hyperdet(a)
        assert value != 0
        assert hyperdet(moved) == det ** (k * (k - 1) ** (n - 1)) * value
