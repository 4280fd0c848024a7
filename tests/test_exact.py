import random
from fractions import Fraction

import numpy as np
import pytest

from steiner_spectra import exact
from steiner_spectra.exact import (
    IntMatrix,
    Poly,
    char_poly_exact,
    char_poly_mod,
    circulant,
    circulant_det_oracle,
    det_exact,
)
from steiner_spectra.graphs import path_graph
from steiner_spectra.hypermatrix import build_steiner_hypermatrix
from steiner_spectra.resultant import _nonreduced_minor, gradient_system, macaulay_matrix


def cofactor_det(rows):
    """Textbook expansion along the first row; oracle for tiny matrices."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * a * cofactor_det(minor)
    return total


def gauss_det(rows):
    """Fraction-based Gaussian elimination; independent of Bareiss."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


class TestIntMatrix:
    def test_shape_and_access(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m[1, 0] == 3
        assert m.row(1) == [3, 4]
        assert m.to_lists() == [[1, 2], [3, 4]]

    def test_identity(self):
        assert IntMatrix.identity(3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntMatrix([[1.5]])

    @pytest.mark.parametrize("bad", [2.0, Fraction(1, 2), Fraction(4, 1), "3", None])
    def test_rejects_every_non_integral_type(self, bad):
        with pytest.raises(ValueError, match="non-integer"):
            IntMatrix([[1, bad]])

    def test_accepts_integral_subtypes(self):
        # bool and numpy integers are numbers.Integral without being int
        m = IntMatrix([[True, np.int64(-3)], [np.uint8(7), 2**70]])
        assert m.to_lists() == [[1, -3], [7, 2**70]]
        assert [type(v) for v in m.row(0)] == [bool, np.int64]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix([])


class TestCirculant:
    def test_layout(self):
        m = circulant([1, 2, 3])
        assert m.to_lists() == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]

    def test_det_matches_eigenproduct_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 6)
            row = [rng.randint(-9, 9) for _ in range(n)]
            assert det_exact(circulant(row)) == circulant_det_oracle(row)


class TestDetExact:
    def test_base_cases(self):
        assert det_exact(IntMatrix([[7]])) == 7
        assert det_exact(IntMatrix([[1, 2], [3, 4]])) == -2

    def test_singular(self):
        assert det_exact(IntMatrix([[1, 2], [2, 4]])) == 0
        assert det_exact(IntMatrix([[0, 0], [5, 1]])) == 0

    def test_against_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert det_exact(IntMatrix(rows)) == cofactor_det(rows)

    def test_against_fraction_elimination_across_mpz_threshold(self):
        # sizes straddle the bignum cutoff so both code paths are exercised
        rng = random.Random(12)
        for n in (8, 11, 12, 13, 16):
            rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            assert det_exact(IntMatrix(rows)) == gauss_det(rows)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact(IntMatrix([[1, 2, 3], [4, 5, 6]]))


class TestPoly:
    def test_degree_strips_leading_zeros(self):
        assert Poly((1, 2, 0)).degree == 1
        assert Poly((0,)).degree == -1

    def test_horner_eval(self):
        p = Poly((1, 0, -1))  # 1 - x^2
        assert p(3) == -8
        assert p(0) == 1

    def test_equality_ignores_trailing_zeros(self):
        assert Poly((1, 2)) == Poly((1, 2, 0))


class TestCharPoly:
    def test_swap_matrix(self):
        # [[0,1],[1,0]] has char poly x^2 - 1
        assert char_poly_exact(IntMatrix([[0, 1], [1, 0]])).coeffs == (-1, 0, 1)

    def test_identity(self):
        # (x - 1)^3
        p = char_poly_exact(IntMatrix.identity(3))
        assert p.coeffs == (-1, 3, -3, 1)

    def test_monic_and_matches_det_at_points(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p = char_poly_exact(IntMatrix(rows))
            assert p.coeffs[-1] == 1
            for x in (-2, -1, 0, 1, 2, 3):
                shifted = [
                    [(x if i == j else 0) - rows[i][j] for j in range(n)]
                    for i in range(n)
                ]
                assert p(x) == det_exact(IntMatrix(shifted))

    def test_constant_term_is_signed_det(self):
        rng = random.Random(14)
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        p = char_poly_exact(IntMatrix(rows))
        assert p.coeffs[0] == det_exact(IntMatrix(rows))  # (-1)^n det(-A)... n=4 even

    def test_size_cap(self):
        big = IntMatrix.identity(41)
        with pytest.raises(ValueError):
            char_poly_exact(big)
        assert char_poly_exact(big, max_size=41)(1) == 0


class TestCharPolyMod:
    def test_matches_exact_reduction(self):
        rng = random.Random(15)
        p = 33554393
        for _ in range(60):
            n = rng.randint(1, 7)
            style = rng.randint(0, 2)
            if style == 0:
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            elif style == 1:  # sparse, exercises the zero-subdiagonal cutoff
                rows = [
                    [rng.randint(1, 3) if rng.random() < 0.25 else 0 for _ in range(n)]
                    for _ in range(n)
                ]
            else:  # huge entries exercise the python-side reduction
                rows = [
                    [rng.randint(-(10**30), 10**30) for _ in range(n)]
                    for _ in range(n)
                ]
            m = IntMatrix(rows)
            exact = char_poly_exact(m).coeffs
            got = char_poly_mod(m, p)
            assert got == tuple(c % p for c in exact) + (0,) * (len(got) - len(exact))

    def test_block_triangular_under_permutation(self):
        # Block upper triangular, then conjugated by a permutation.
        # char_poly_mod finds the diagonal blocks again as strongly connected
        # components (zero entries may split a block further) before any
        # Hessenberg step.  Index 0 stays inside the first block, so a
        # Hessenberg reduction of the whole matrix, which starts from e_0,
        # would meet a zero subdiagonal as well; that split is tested inside
        # one component by test_hessenberg_split_inside_one_component.
        rng = random.Random(17)
        p = 33554393
        for _ in range(30):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            n = sum(sizes)
            block = [b for b, size in enumerate(sizes) for _ in range(size)]
            rows = [
                [rng.randint(-9, 9) if block[i] <= block[j] else 0 for j in range(n)]
                for i in range(n)
            ]
            perm = list(range(n))
            rng.shuffle(perm)
            first = perm.index(0)
            perm[0], perm[first] = perm[first], perm[0]
            m = IntMatrix([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
            exact = char_poly_exact(m).coeffs
            assert char_poly_mod(m, p) == tuple(c % p for c in exact)

    def test_many_small_components_under_permutation(self):
        rng = random.Random(18)
        p = 33554393
        for _ in range(4):
            sizes = [1] * 15 + [2, 3, 4]
            rng.shuffle(sizes)
            n = sum(sizes)
            block = [b for b, size in enumerate(sizes) for _ in range(size)]
            # diagonal blocks are dense, so each is one component
            rows = [
                [
                    rng.choice((-1, 1)) * rng.randint(1, 9)
                    if block[i] == block[j]
                    else rng.randint(-9, 9) if block[i] < block[j] and rng.random() < 0.3
                    else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
            perm = list(range(n))
            rng.shuffle(perm)
            m = IntMatrix([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
            components = exact._strong_components(np.array(m.to_lists()))
            assert sorted(map(len, components)) == sorted(sizes)
            want = char_poly_exact(m).coeffs
            assert char_poly_mod(m, p) == tuple(c % p for c in want)

    def test_hessenberg_split_inside_one_component(self):
        # S diag(A, B) S^-1 with S e_0 = e_0: the Krylov space of e_0 is
        # S span(A's rows), so the Hessenberg reduction, which starts from
        # e_0, meets a zero subdiagonal although the pattern is one strongly
        # connected component.  S is a product of unimodular elementary
        # similarities E = I + c e_i e_j^T with j != 0.
        rng = random.Random(19)
        p = 33554393
        for _ in range(10):
            a, b = rng.randint(2, 3), rng.randint(2, 3)
            n = a + b
            rows = [
                [
                    rng.choice((-1, 1)) * rng.randint(1, 5)
                    if (i < a) == (j < a)
                    else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for _ in range(4 * n):
                i, j = rng.sample(range(n), 2)
                if j == 0:
                    continue
                c = rng.choice((-1, 1))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]  # E M
                for r in rows:  # (E M) E^-1
                    r[j] -= c * r[i]
            m = IntMatrix(rows)
            assert len(exact._strong_components(np.array(rows) % p)) == 1
            want = char_poly_exact(m).coeffs
            assert char_poly_mod(m, p) == tuple(c % p for c in want)

    def test_macaulay_matrices_match_exact(self):
        # real structure: the (n, k) = (3, 4) path Macaulay matrix and its
        # non-reduced minor
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 4))
        matrix, reduced = macaulay_matrix(s)
        minor = _nonreduced_minor(matrix, reduced)
        assert (matrix.rows, minor.rows) == (36, sum(not r for r in reduced))
        for m in (matrix, minor):
            want = char_poly_exact(m, max_size=m.rows).coeffs
            for p in (33554393, 8191):
                assert char_poly_mod(m, p) == tuple(c % p for c in want)

    def test_small_moduli(self):
        rng = random.Random(16)
        rows = [[rng.randint(-20, 20) for _ in range(6)] for _ in range(6)]
        m = IntMatrix(rows)
        exact = char_poly_exact(m).coeffs
        for p in (2, 3, 101, 8191):
            assert char_poly_mod(m, p) == tuple(c % p for c in exact)

    def test_monic(self):
        m = IntMatrix([[7]])
        assert char_poly_mod(m, 5) == (3, 1)

    def test_validations(self, monkeypatch):
        with pytest.raises(ValueError, match="square"):
            char_poly_mod(IntMatrix([[1, 2, 3], [4, 5, 6]]), 7)
        with pytest.raises(ValueError, match="prime"):
            char_poly_mod(IntMatrix([[1]]), 6)
        with pytest.raises(ValueError, match="prime"):
            char_poly_mod(IntMatrix([[1]]), 1 << 25)
        monkeypatch.setattr(exact, "_MOD_MAX_ROWS", 2)
        with pytest.raises(ValueError, match="cap"):
            char_poly_mod(IntMatrix.identity(3), 7)


class TestStrongComponents:
    def test_hand_built_pattern(self):
        # 0 <-> 1 -> 2 -> 3 -> 2, 4 alone, 3 -> 5 -> 4; nonzero diagonal
        pattern = np.eye(6, dtype=np.int64) * 7
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 5), (5, 4)]:
            pattern[i, j] = 1
        components = exact._strong_components(pattern)
        assert sorted(components) == [[0, 1], [2, 3], [4], [5]]
        # reverse topological order: a component comes after all it reaches
        order = {v: c for c, comp in enumerate(components) for v in comp}
        for i, j in zip(*np.nonzero(pattern)):
            assert order[i] >= order[j]
        # the diagonal alone is no edge
        assert exact._strong_components(np.eye(3, dtype=np.int64)) == [[0], [1], [2]]

    def test_long_cycle_is_one_component(self):
        n = 1500
        pattern = np.zeros((n, n), dtype=np.int64)
        pattern[np.arange(n), (np.arange(n) + 1) % n] = 1
        assert exact._strong_components(pattern) == [list(range(n))]

    def test_long_chain_needs_no_recursion(self):
        n = 1500
        pattern = np.zeros((n, n), dtype=np.int64)
        pattern[np.arange(n - 1), np.arange(1, n)] = 1
        assert exact._strong_components(pattern) == [[v] for v in reversed(range(n))]


class TestCirculantOracle:
    def test_known_values(self):
        assert circulant_det_oracle([1]) == 1
        assert circulant_det_oracle([1, 2]) == -3  # det [[1,2],[2,1]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            circulant_det_oracle([])
