import random
from fractions import Fraction

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
        # Block upper triangular, then conjugated by a permutation that keeps
        # index 0 inside the first diagonal block.  The Hessenberg reduction
        # starts from e_0, whose Krylov space stays in that block's span, so
        # the subdiagonal gets a zero and char_poly_mod splits into blocks.
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


class TestCirculantOracle:
    def test_known_values(self):
        assert circulant_det_oracle([1]) == 1
        assert circulant_det_oracle([1, 2]) == -3  # det [[1,2],[2,1]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            circulant_det_oracle([])
