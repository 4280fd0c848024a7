import math
import time

import numpy as np
import pytest

from props import edge_block_charpoly, poly_at, poly_gcd
from steiner_spectra import resultant, spectra
from steiner_spectra.exact import (
    CHARPOLY_EXACT_MAX_ROWS,
    char_poly_exact,
    circulant,
    circulant_det_oracle,
    det_exact,
)
from steiner_spectra.graphs import complete_graph, path_graph, star_graph
from steiner_spectra.hypermatrix import (
    SymmetricHypermatrix,
    build_steiner_hypermatrix,
    exponent_vectors,
    multisets,
)
from steiner_spectra.spectra import (
    EigenPair,
    NoConvergence,
    RadiusEnclosure,
    block_matrix_K2,
    block_matrix_check,
    charpoly_allones,
    charpoly_D_dim2,
    edge_charpoly,
    nqz_spectral_radius,
    spectral_radius_K2,
)
from steiner_spectra.resultant import hyperdet
from steiner_spectra.wendt import wendt, wendt_matrix


def pairs_as_dict(pairs, ndigits=9):
    """Multiplicities summed over entries whose values agree when rounded."""
    out = {}
    for p in pairs:
        key = (round(p.value.real, ndigits), round(p.value.imag, ndigits))
        out[key] = out.get(key, 0) + p.multiplicity
    return out


class TestEigenPair:
    def test_requires_positive_multiplicity(self):
        with pytest.raises(ValueError):
            EigenPair(1.0, 0)


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
        # the zero block (0, 2), then (1 + w^d)^2 for d = 1, 0: about 0, and 4
        pairs = charpoly_allones(2, 3)
        assert [p.multiplicity for p in pairs] == [2, 1, 1]
        assert pairs_as_dict(pairs) == {(0.0, 0.0): 3, (4.0, 0.0): 1}

    def test_n3_k2(self):
        got = pairs_as_dict(charpoly_allones(3, 2))
        assert got == {(0.0, 0.0): 2, (3.0, 0.0): 1}

    def test_total_count(self):
        for n in range(2, 5):
            for k in range(2, 6):
                pairs = charpoly_allones(n, k)
                total = sum(p.multiplicity for p in pairs)
                assert total == n * (k - 1) ** (n - 1), (n, k)

    def test_zero_block_is_exactly_zero(self):
        # no nearby float joins the zero block, however large the spectrum
        for n, k in [(2, 12), (3, 12), (4, 8)]:
            zero = sum(p.multiplicity for p in charpoly_allones(n, k) if p.value == 0)
            assert zero == (n - 1) * (k - 1) ** (n - 1), (n, k)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            charpoly_allones(1, 3)
        with pytest.raises(ValueError):
            charpoly_allones(3, 1)


class TestK2Spectra:
    def test_eigenvalues_k2_closed_form(self):
        # k = 3: (1 + w^d)^2 - 1 for w = -1 gives 3 and -1, so Q = (t - 3)(t + 1)
        assert edge_charpoly(2) == (-1, 1)
        assert edge_charpoly(3) == (-3, -2, 1)

    def test_spectral_radius_closed_form(self):
        # the largest modulus in the eigenvalue list `spectrum` prints
        for k in range(2, 17):
            assert spectral_radius_K2(k) == 2 ** (k - 1) - 1
            radius = max(abs(p.value) for p in charpoly_D_dim2(k))
            assert radius == 2 ** (k - 1) - 1

    def test_real_closed_form_multiplicities(self):
        # -1 carries the -I block plus d = m/2 at even m = k - 1; the other
        # values of the circulant come once (d = 0) or twice (d, m - d)
        for k in range(2, 41):
            pairs = charpoly_D_dim2(k)
            assert sum(p.multiplicity for p in pairs) == 2 * (k - 1), k
            assert EigenPair(-1.0, k - 1 + k % 2) in pairs, k
            assert pairs[-1] == EigenPair(2 ** (k - 1) - 1, 1), k
            assert pairs[-2].value < pairs[-1].value, k
            assert all(p.value.imag == 0 for p in pairs), k
            assert pairs == sorted(pairs, key=lambda p: (p.value, p.multiplicity)), k

    def test_constant_term_matches_hyperdet(self):
        for k in range(2, 17):
            a = build_steiner_hypermatrix(complete_graph(2), k)
            assert edge_charpoly(k)[0] == hyperdet(a), k


class TestEdgeCharpoly:
    def test_block_charpoly_is_t_plus_one_power_times_q(self):
        # up to char_poly_exact's cap: 2(k - 1) <= 40 rows, k = 2..21
        for k in range(2, CHARPOLY_EXACT_MAX_ROWS // 2 + 2):
            p = char_poly_exact(block_matrix_K2(k))
            assert p == edge_block_charpoly(edge_charpoly(k)), k

    def test_monic_with_signed_wendt_constant_and_radius_root(self):
        zeros = set()
        for m in range(1, 41):
            q = edge_charpoly(m + 1)
            assert len(q) == m + 1 and q[-1] == 1, m
            assert q[0] == (-1) ** m * wendt(m), m
            assert poly_at(q, 2**m - 1) == 0, m
            if q[0] == 0:
                zeros.add(m)
        assert zeros == {6, 12, 18, 24, 30, 36}

    def test_is_the_charpoly_of_wendts_circulant(self):
        for m in range(1, 31):
            assert edge_charpoly(m + 1) == char_poly_exact(wendt_matrix(m)), m

    def test_is_the_circulant_resultant_at_small_t(self):
        # Q_m(t) = det(tI - W_m), the circulant with first row
        # (t - 1, -C(m, 1), ..., -C(m, m - 1)), whose determinant the
        # resultant oracle takes with no determinant routine
        for m in range(1, 21):
            q = edge_charpoly(m + 1)
            row = [-math.comb(m, j) for j in range(1, m)]
            for t in range(4):
                assert poly_at(q, t) == circulant_det_oracle([t - 1] + row), (m, t)

    def test_k_up_to_41_within_a_second(self):
        # the power sums take about 0.15 s in all on 2 vCPUs; a resultant
        # for each of m + 1 values of t would not fit, from k = 22 on
        start = time.perf_counter()
        for k in range(2, 42):
            edge_charpoly(k)
        assert time.perf_counter() - start < 1.0

    def test_repeated_roots_are_the_mirror_pairs(self):
        # deg gcd(Q, Q') counts the repeated roots: one per pair d <-> m - d,
        # 1 <= d < m/2, and no other coincidence, so no values need merging
        for m in range(1, 21):
            q = edge_charpoly(m + 1)
            dq = [i * c for i, c in enumerate(q)][1:]
            assert len(poly_gcd(q, dq)) - 1 == (m - 1) // 2, m

    def test_float_list_reproduces_the_polynomial(self):
        # the values outside the -I block are Q's roots: their product
        # expands to Q's coefficients, to 1e-12 of those of prod (t + |l| + 1)
        for m in range(1, 21):
            roots = [p.value for p in charpoly_D_dim2(m + 1) for _ in range(p.multiplicity)]
            for _ in range(m):
                roots.remove(-1.0)
            got = np.poly(roots)[::-1]
            scale = np.poly(-(np.abs(roots) + 1))[::-1]
            q = np.array(edge_charpoly(m + 1), dtype=float)
            assert np.all(np.abs(got - q) <= 1e-12 * scale), m

    def test_newton_identities(self):
        # roots 2, 3, -1: power sums 4, 14, 34 give (t - 2)(t - 3)(t + 1)
        assert spectra._from_power_sums((4, 14, 34)) == (6, 1, -4, 1)
        assert spectra._from_power_sums(()) == (1,)

    def test_refuses_a_non_integral_coefficient(self):
        # power sums (1, 0) give e_1 = 1 and e_2 = (e_1 p_1 - p_2)/2 = 1/2
        with pytest.raises(ArithmeticError, match="non-integral"):
            spectra._from_power_sums((1, 0))


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

    def test_rejects_negative_entries(self):
        a = SymmetricHypermatrix.from_function(2, 2, lambda ms: -1)
        with pytest.raises(ValueError, match="negative"):
            nqz_spectral_radius(a, tol=1e-8)
        # the first negative entry is named, before the zero slice 3
        vals = dict.fromkeys(multisets(3, 3), 0)
        vals[1, 1, 2], vals[1, 2, 2] = -2, -5
        with pytest.raises(ValueError, match=r"^negative entry -2 at \(1, 1, 2\)$"):
            nqz_spectral_radius(SymmetricHypermatrix(3, 3, vals), tol=1e-8)

    def test_rejects_zero_slice(self):
        # off-diagonal support missing for vertex 2: slice positivity fails
        vals = {(1, 1): 1, (1, 2): 0, (2, 2): 1}
        a = SymmetricHypermatrix(2, 2, vals)
        with pytest.raises(ValueError):
            nqz_spectral_radius(a, tol=1e-8)
        # k = 3: (1, 1, 2) makes slices 1 and 2 positive off the diagonal;
        # slice 3's one positive entry is its diagonal (3, 3, 3)
        vals = dict.fromkeys(multisets(3, 3), 0)
        vals[1, 1, 2], vals[3, 3, 3] = 1, 5
        with pytest.raises(ValueError, match="^slice 3 has no positive off-diagonal entry$"):
            nqz_spectral_radius(SymmetricHypermatrix(3, 3, vals), tol=1e-8)

    def test_no_convergence_carries_enclosure(self, monkeypatch):
        monkeypatch.setattr(spectra, "NQZ_MAX_ITER", 5)
        a = build_steiner_hypermatrix(path_graph(3), 2)
        with pytest.raises(NoConvergence, match="within 5 iterations") as exc:
            nqz_spectral_radius(a, tol=1e-30)
        enc = exc.value.enclosure
        assert isinstance(enc, RadiusEnclosure)
        assert enc.iterations == 5
        assert enc.lo <= 1 + math.sqrt(3) <= enc.hi

    def test_tol_below_float_resolution_stops_at_the_stall(self):
        # rho(D_17(P_3)) is about 8.6e7, where 1e-8 is under 8 ulp: the
        # width stalls at a few ulp, so the iteration gives up at once
        # instead of running out its 10,000 steps
        a = build_steiner_hypermatrix(path_graph(3), 17)
        with pytest.raises(NoConvergence, match="below the float64 resolution") as exc:
            nqz_spectral_radius(a, tol=1e-8)
        enc = exc.value.enclosure
        assert enc.iterations == len(enc.history) < 100
        assert 1e-8 <= 8 * math.ulp(enc.hi)
        assert enc.lo <= enc.value <= enc.hi


class TestBlockMatrices:
    def test_block_k3_layout(self):
        assert block_matrix_K2(3).to_lists() == [
            [0, 2, 1, 0],
            [0, 0, 2, 1],
            [1, 2, 0, 0],
            [0, 1, 2, 0],
        ]

    def test_hyperdet_takes_the_det_of_the_block_matrix(self, monkeypatch):
        # the similarity of block_matrix_check certifies the very matrix
        # whose determinant hyperdet(D_k(K_2)) is
        seen = []

        def recorder(m):
            seen.append(m)
            return det_exact(m)

        monkeypatch.setattr(resultant, "det_exact", recorder)
        for k in range(2, 17):
            seen.clear()
            hyperdet(build_steiner_hypermatrix(complete_graph(2), k))
            assert seen == [block_matrix_K2(k)], k

    def test_block_charpoly_roots(self):
        # k=3 block matrix has char poly (x+1)^3 (x-3)
        p = char_poly_exact(block_matrix_K2(3))
        assert p == (-3, -8, -6, 0, 1)
        # the roots -1 and (1 + (-1)^j)^2 - 1 for j = 0, 1: 3 and -1
        assert poly_at(p, -1) == 0 and poly_at(p, 3) == 0

    def test_check_passes_small_orders(self):
        for k in range(2, 9):
            assert block_matrix_check(k), k

    def test_check_at_large_orders(self):
        # binomials C(k-1, j) pass 2**63 at k = 68, so storage turns object
        assert block_matrix_K2(67)._a.dtype == np.int64
        assert block_matrix_K2(68)._a.dtype == object
        for k in range(9, 71):
            assert block_matrix_check(k), k

    def test_check_rejects_a_wrong_circulant(self, monkeypatch):
        # one binomial off by one in the expected lower right block
        def off_by_one(m):
            row = [math.comb(m, j) for j in range(m)]
            row[m // 2] += 1
            return circulant(row)

        monkeypatch.setattr(spectra, "wendt_matrix", off_by_one)
        for k in (2, 3, 7, 21, 68):
            assert not block_matrix_check(k), k

    def test_check_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            block_matrix_check(1)
