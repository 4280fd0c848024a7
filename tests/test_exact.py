import random
from fractions import Fraction

import numpy as np
import pytest

from steiner_spectra import exact
from steiner_spectra.exact import (
    IntMatrix,
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
        assert [type(v) for v in m.row(0)] == [int, int]

    def test_numpy_entries_do_not_wrap(self):
        big = np.int64(2**40)
        assert det_exact(IntMatrix([[big, 1], [1, big]])) == 2**80 - 1

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


def horner(coeffs, x):
    """Value at x of the polynomial with these ascending coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestCharPoly:
    def test_swap_matrix(self):
        # [[0,1],[1,0]] has char poly x^2 - 1
        assert char_poly_exact(IntMatrix([[0, 1], [1, 0]])) == (-1, 0, 1)

    def test_identity(self):
        # (x - 1)^3
        assert char_poly_exact(IntMatrix.identity(3)) == (-1, 3, -3, 1)

    def test_monic_and_matches_det_at_points(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            p = char_poly_exact(IntMatrix(rows))
            assert p[-1] == 1
            for x in (-2, -1, 0, 1, 2, 3):
                shifted = [
                    [(x if i == j else 0) - rows[i][j] for j in range(n)]
                    for i in range(n)
                ]
                assert horner(p, x) == det_exact(IntMatrix(shifted))

    def test_constant_term_is_signed_det(self):
        rng = random.Random(14)
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        p = char_poly_exact(IntMatrix(rows))
        assert p[0] == det_exact(IntMatrix(rows))  # (-1)^n det(-A)... n=4 even

    def test_size_cap(self):
        big = IntMatrix.identity(41)
        with pytest.raises(ValueError):
            char_poly_exact(big)
        assert horner(char_poly_exact(big, max_size=41), 1) == 0


class TestCharPolyMod:
    def test_matches_exact_reduction(self):
        rng = random.Random(15)
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
            p = ceiling_prime(n)
            exact = char_poly_exact(m)
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
            exact = char_poly_exact(m)
            p = ceiling_prime(n)
            assert char_poly_mod(m, p) == tuple(c % p for c in exact)

    def test_many_small_components_under_permutation(self):
        rng = random.Random(18)
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
            want = char_poly_exact(m)
            p = ceiling_prime(n)
            assert char_poly_mod(m, p) == tuple(c % p for c in want)

    def test_hessenberg_split_inside_one_component(self):
        # S diag(A, B) S^-1 with S e_0 = e_0: the Krylov space of e_0 is
        # S span(A's rows), so the Hessenberg reduction, which starts from
        # e_0, meets a zero subdiagonal although the pattern is one strongly
        # connected component.  S is a product of unimodular elementary
        # similarities E = I + c e_i e_j^T with j != 0.
        rng = random.Random(19)
        for _ in range(10):
            a, b = rng.randint(2, 3), rng.randint(2, 3)
            n = a + b
            p = ceiling_prime(n)
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
            want = char_poly_exact(m)
            assert char_poly_mod(m, p) == tuple(c % p for c in want)

    def test_macaulay_matrices_match_exact(self):
        # real structure: the (n, k) = (3, 4) path Macaulay matrix and its
        # non-reduced minor
        s = gradient_system(build_steiner_hypermatrix(path_graph(3), 4))
        matrix, reduced = macaulay_matrix(s)
        minor = _nonreduced_minor(matrix, reduced)
        assert (matrix.rows, minor.rows) == (36, sum(not r for r in reduced))
        for m in (matrix, minor):
            want = char_poly_exact(m, max_size=m.rows)
            for p in (ceiling_prime(m.rows), 8191):
                assert char_poly_mod(m, p) == tuple(c % p for c in want)

    def test_small_moduli(self):
        rng = random.Random(16)
        rows = [[rng.randint(-20, 20) for _ in range(6)] for _ in range(6)]
        m = IntMatrix(rows)
        exact = char_poly_exact(m)
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

    def test_primes_end_at_the_float_exact_bound(self):
        # the largest prime taken keeps every float64 product exact; the
        # first prime past the bound is refused, not worked around
        rng = random.Random(20)
        rows = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)]
        m = IntMatrix(rows)
        want = char_poly_exact(m)
        p = ceiling_prime(8)
        assert char_poly_mod(m, p) == tuple(c % p for c in want)
        q = exact._float_exact_bound(8)
        while not exact._is_prime_trial(q):
            q += 1
        with pytest.raises(ValueError, match="prime below"):
            char_poly_mod(m, q)


def reference_hessenberg(rows, p):
    """Eager Hessenberg reduction over F_p in int64 with the kernel's pivot
    rule and scaling, one full trailing update per step.  Returns the
    reduced matrix in [0, p) and a trace: (j, pivot row) per step with a
    pivot, the steps that left a zero subdiagonal, and the steps with
    nonzero multipliers."""
    h = np.array(rows, dtype=np.int64) % p
    n = h.shape[0]
    pivots, splits, updates = [], [], []
    for j in range(n - 1):
        nz = np.flatnonzero(h[j + 1 :, j])
        if nz.size == 0:
            splits.append(j)
            continue
        piv = j + 1 + int(nz[0])
        pivots.append((j, piv))
        h[[j + 1, piv], :] = h[[piv, j + 1], :]
        h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        pivot = int(h[j + 1, j])
        h[j + 1] = h[j + 1] * pow(pivot, p - 2, p) % p
        h[:, j + 1] = h[:, j + 1] * pivot % p
        f = h[j + 2 :, j].copy()
        if f.any():
            updates.append(j)
            h[j + 2 :, j + 1 :] = (h[j + 2 :, j + 1 :] - np.outer(f, h[j + 1, j + 1 :])) % p
            h[j + 2 :, j] = 0
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ f) % p
    return h, pivots, splits, updates


def block_triangular(rng, sizes, density):
    """Random block upper triangular rows: diagonal blocks of the given
    sizes, each entry kept with the given probability, and a sparse part
    above the blocks."""
    n = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    rows = [
        [
            rng.randint(-3, 3)
            if (block[i] == block[j] and rng.random() < density)
            or (block[i] < block[j] and rng.random() < 0.05)
            else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    return rows, block


def blocks_charpoly_mod(rows, block, p):
    """The product of the diagonal blocks' exact charpolys, reduced mod p."""
    product = (1,)
    for b in range(block[-1] + 1):
        idx = [i for i, x in enumerate(block) if x == b]
        poly = char_poly_exact(IntMatrix([[rows[i][j] for j in idx] for i in idx]))
        product = tuple(
            sum(product[i] * poly[k - i] for i in range(len(product)) if 0 <= k - i < len(poly))
            for k in range(len(product) + len(poly) - 1)
        )
    return tuple(c % p for c in product)


def ceiling_prime(rows):
    """The largest prime below the float-exact bound for `rows` rows."""
    p = exact._float_exact_bound(rows) - 1
    while not exact._is_prime_trial(p):
        p -= 1
    return p


class TestBlockedHessenberg:
    """The panel kernel on 100-300 rows, where small matrices cannot reach:
    pivots found in the trailing columns, zero subdiagonals inside a panel
    and at its edge, and the trailing update at the end of each panel."""

    PANEL = exact._PANEL

    def test_reduce_is_exact(self):
        # x - p floor(x / p) with a true division maps a multiple of p to 0
        # and everything else into (-p, p); a product with a rounded 1/p
        # would leave some multiples at +-p
        rng = np.random.default_rng(5)
        for p in (8191, ceiling_prime(560), 33554393):
            k = rng.integers(-(2**53) // p + 1, 2**53 // p - 1, 3000)
            r = rng.integers(-p + 1, p, 3000)
            for x in (k * p, k * p + r):
                for size in (3000, 100):  # both the large and the small path
                    got = exact._reduce(x[:size].astype(np.float64), p)
                    assert np.all(np.abs(got) < p)
                    assert np.all((x[:size] - got.astype(np.int64)) % p == 0)
                    assert np.array_equal(got == 0, x[:size] % p == 0)

    def test_same_form_as_eager_reduction(self):
        # Sparse diagonal blocks of at most 10 rows straddle the panel
        # edges, so a pivot is often some rows down, past the panel, and
        # the Krylov space of e_0 closes at many places.
        seen = {"trailing pivot": 0, "split inside": 0, "split at edge": 0, "update": 0}
        for seed in range(3):
            rng = random.Random(seed)
            rows, block = block_triangular(rng, [rng.randint(3, 10) for _ in range(25)], 0.5)
            n = len(rows)
            assert 100 <= n <= 300
            p = ceiling_prime(n)
            want_h, pivots, splits, updates = reference_hessenberg(rows, p)
            h = (np.array(rows) % p).astype(np.float64)
            got = exact._char_poly_hessenberg(h, p)
            assert tuple(int(c) for c in got) == blocks_charpoly_mod(rows, block, p)
            assert np.array_equal(h.astype(np.int64) % p, want_h)
            panel = [j // self.PANEL for j in range(n)]
            for j, piv in pivots:
                last = min(panel[j] * self.PANEL + self.PANEL, n - 1)
                if piv > last and any(panel[u] == panel[j] for u in updates if u < j):
                    seen["trailing pivot"] += 1
            for j in splits:
                edge = j % self.PANEL in (0, self.PANEL - 1)
                seen["split at edge" if edge else "split inside"] += 1
            seen["update"] += sum(1 for u in updates if u < n - self.PANEL - 1)
        assert all(seen.values()), seen

    def test_dense_conjugate_through_char_poly_mod(self):
        # S T S^-1 with T block upper triangular and S unimodular with
        # S e_0 = e_0 (a product of elementary similarities I + c e_i e_j^T,
        # j != 0): one strongly connected component, so the kernel runs on
        # the whole matrix, and the charpoly is the product of T's blocks'.
        rng = random.Random(23)
        for n_blocks in (20, 40):
            t, block = block_triangular(rng, [rng.randint(3, 8) for _ in range(n_blocks)], 1.0)
            rows = [list(r) for r in t]
            n = len(rows)
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                if j == 0:
                    continue
                c = rng.choice((-1, 1))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
                for r in rows:
                    r[j] -= c * r[i]
            m = IntMatrix(rows)
            assert len(exact._strong_components(np.array(rows, dtype=object))) == 1
            p = ceiling_prime(n)
            assert char_poly_mod(m, p) == blocks_charpoly_mod(t, block, p), (n, p)


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
