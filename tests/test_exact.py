import itertools
import math
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
    det_stack,
    poly_gcd,
    poly_resultant,
)
from steiner_spectra.graphs import labeled_tree_blocks, path_graph, star_graph
from steiner_spectra.hypermatrix import build_steiner_hypermatrix
from steiner_spectra.resultant import (
    HomogeneousSystem,
    _nonreduced_minor,
    gradient_system,
    macaulay_matrix,
)

from props import CRT_DEGENERATE_FORMS, bfs_rows


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
        assert m.to_lists() == [[1, 2], [3, 4]]

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntMatrix([[1.5]])

    @pytest.mark.parametrize("bad", [2.0, Fraction(1, 2), Fraction(4, 1), "3", None])
    def test_rejects_every_non_integral_type(self, bad):
        with pytest.raises(ValueError, match="is not an integer"):
            IntMatrix([[1, bad]])

    def test_accepts_integral_subtypes(self):
        # bool and numpy integers pass operator.index without being int
        m = IntMatrix([[True, np.int64(-3)], [np.uint8(7), 2**70]])
        assert m.to_lists() == [[1, -3], [7, 2**70]]
        assert [type(v) for v in m.to_lists()[0]] == [int, int]

    def test_numpy_entries_do_not_wrap(self):
        big = np.int64(2**40)
        assert det_exact(IntMatrix([[big, 1], [1, big]])) == 2**80 - 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        with pytest.raises(ValueError):
            IntMatrix([[]])

    def test_storage_is_int64_when_every_entry_fits(self):
        assert IntMatrix([[1, -2], [3, 2**63 - 1]])._a.dtype == np.int64
        assert IntMatrix([[True, np.uint32(7)]])._a.dtype == np.int64
        assert IntMatrix(np.array([[2**63 - 1]], dtype=np.uint64))._a.dtype == np.int64
        assert IntMatrix([[1, 2**70]])._a.dtype == object
        # numpy alone would round these: -1 beside 2**63 promotes to float64
        m = IntMatrix([[-1, 2**63], [np.uint64(2**64 - 1), 0]])
        assert m._a.dtype == object
        assert m.to_lists() == [[-1, 2**63], [2**64 - 1, 0]]

    def test_array_is_read_only(self):
        for rows in ([[1, 2], [3, 4]], [[1, 2**70], [3, 4]]):
            m = IntMatrix(rows)
            with pytest.raises(ValueError):
                m._a[0, 0] = 1
            assert m.to_lists() == rows

    def test_input_array_is_copied(self):
        src = np.array([[1, 2], [3, 4]])
        m = IntMatrix(src)
        src[0, 0] = 9
        assert m[0, 0] == 1

    def test_entries_leave_as_python_ints_under_both_storages(self):
        for big in (5, 2**70):
            m = IntMatrix([[1, big], [np.int8(-3), 4]])
            assert type(m[0, 0]) is int and type(m[1, 0]) is int
            assert m[0, 1] == big
            assert [type(v) for v in m.to_lists()[1]] == [int, int]
            assert {type(v) for row in m.to_lists() for v in row} == {int}

    def test_equal_across_storages(self):
        small = IntMatrix([[1, 2], [3, 4]])
        # the constructor gives entries that fit int64 storage whatever the
        # input's dtype, so an object-stored twin is made by hand
        assert IntMatrix(np.array(small.to_lists(), dtype=object))._a.dtype == np.int64
        wide = IntMatrix([[2**70, 2], [3, 4]])
        assert wide._a.dtype == object
        wide._a = np.array(small.to_lists(), dtype=object)
        assert small == wide and wide == small
        assert IntMatrix([[1, 2**70]]) == IntMatrix([[1, 2**70]])
        assert IntMatrix([[1, 2**70]]) != IntMatrix([[1, 2**70 + 1]])
        assert small != IntMatrix([[1, 2]])
        assert small != [[1, 2], [3, 4]]


class TestCirculant:
    def test_layout(self):
        m = circulant([1, 2, 3])
        assert m.to_lists() == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]

    def test_det_matches_eigenproduct_oracle(self):
        # the oracle is the resultant Res(x^m - 1, c), not a determinant;
        # rows mix zeros, small entries and +-2**80 (object storage)
        rng = random.Random(5)
        rows = [[0] * 4, [7], [0], [2**80]]
        for _ in range(1000):
            m = rng.randint(1, 10)
            rows.append([rng.choice([0, rng.randint(-9, 9), 2**80, -(2**80)]) for _ in range(m)])
        for row in rows:
            assert det_exact(circulant(row)) == circulant_det_oracle(row), row


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

    def test_zero_below_a_pivot_equal_to_the_last(self):
        # step 0 leaves row 2 as [0, 0, 10, 4] and pivot 2 = 2*2 - 1*2 in
        # row 1, so step 1 has pk == prev == 2 with a zero below the pivot
        rows = [[2, 2, 1, 0], [1, 2, 3, 1], [0, 0, 5, 2], [0, 1, 1, 3]]
        assert det_exact(IntMatrix(rows)) == cofactor_det(rows) == 26

    def test_against_fraction_elimination_across_mpz_threshold(self):
        # the eliminated entries reach 31 bits at 8 rows and 76 bits at 16
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
        assert char_poly_exact(IntMatrix(np.eye(3, dtype=np.int64))) == (-1, 3, -3, 1)

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
        big = IntMatrix(np.eye(41, dtype=np.int64))
        with pytest.raises(ValueError):
            char_poly_exact(big)


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
            want = char_poly_exact(m)
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

    def test_validations(self):
        with pytest.raises(ValueError, match="square"):
            char_poly_mod(IntMatrix([[1, 2, 3], [4, 5, 6]]), 7)
        with pytest.raises(ValueError, match="prime"):
            char_poly_mod(IntMatrix([[1]]), 6)
        with pytest.raises(ValueError, match="prime"):
            char_poly_mod(IntMatrix([[1]]), 1 << 25)

    def test_lowest_term_refuses_what_char_poly_mod_refuses(self):
        with pytest.raises(ValueError, match="square"):
            exact.lowest_charpoly_term_mod(IntMatrix([[1, 2, 3], [4, 5, 6]]), 7)
        with pytest.raises(ValueError, match="prime"):
            exact.lowest_charpoly_term_mod(IntMatrix([[1]]), 6)

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


class TestDetMod:
    """The LU kernel against det_exact mod the largest prime
    `_modular_primes(rows)` gives, and against the Hessenberg charpoly's
    constant term past 100 rows."""

    ROWS = (1, 2, 31, 32, 33, 64, 65, 100)

    @staticmethod
    def matrices(rng, n):
        """(name, rows) pairs: dense, zero column, zero diagonal,
        anti-triangular, and a last row the sum of the first two."""
        dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        out = [("dense", dense)]
        column = [list(r) for r in dense]
        for r in column:
            r[n // 2] = 0
        out.append(("zero column", column))
        diagonal = [list(r) for r in dense]
        for i in range(n):
            diagonal[i][i] = 0
        out.append(("zero diagonal", diagonal))
        # J U, J the exchange matrix and U upper triangular with a nonzero
        # diagonal: column 0's one nonzero is in the last row, and half the
        # steps swap a row from below (50 of 100 at 100 rows)
        upper = [
            [rng.randint(1, 9) if j == i else rng.randint(-9, 9) if j > i else 0 for j in range(n)]
            for i in range(n)
        ]
        out.append(("anti-triangular", upper[::-1]))
        if n > 2:
            late = [list(r) for r in dense]
            late[-1] = [x + y for x, y in zip(dense[0], dense[1])]
            out.append(("singular at the last step", late))
        return out

    @pytest.mark.parametrize("n", ROWS)
    def test_matches_det_exact(self, n):
        rng = random.Random(3100 + n)
        p = next(exact._modular_primes(n))
        assert p == ceiling_prime(n)
        zeros = 0
        for name, rows in self.matrices(rng, n):
            want = det_exact(IntMatrix(rows)) % p
            got = exact._det_mod((np.array(rows) % p).astype(np.float64), p)
            assert got == want, (n, name)
            zeros += want == 0
        assert zeros >= (2 if n > 2 else 1)  # the zero column, the repeated sum

    @pytest.mark.parametrize("n", (31, 33, 65))
    def test_entries_across_the_whole_residue_range(self, n):
        # entries up to p - 1 make the products as large as the bound
        # allows: p + (n - 1) * p**2 must stay below 2**53
        p = next(exact._modular_primes(n))
        assert p + (n - 1) * p * p < 2**53
        rng = random.Random(n)
        for _ in range(2):
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            want = det_exact(IntMatrix(rows)) % p
            assert exact._det_mod(np.array(rows, dtype=np.float64), p) == want

    # The LU is left-looking: column j is brought up to date by the earlier
    # steps only when step j reaches it, and its pivot is searched after
    # that update and its reduction.

    @staticmethod
    def dense(rng, n):
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]

    @staticmethod
    def det_mod(rows, p):
        return exact._det_mod((np.array(rows, dtype=object) % p).astype(np.float64), p)

    @pytest.mark.parametrize("j", (5, 31, 40))
    def test_column_zero_mod_p_only_after_its_update(self, j):
        # column j = column 1 + p * v, v random, is nonzero and det = p det'
        # != 0 over Z, but mod p it repeats column 1, so its update leaves
        # multiples of p
        n, p = 64, next(exact._modular_primes(64))
        rng = random.Random(3200 + j)
        rows = self.dense(rng, n)
        for r in rows:
            r[j] = r[1] + p * rng.randint(-9, 9)
        assert det_exact(IntMatrix(rows)) != 0
        assert det_exact(IntMatrix(rows)) % p == 0
        assert self.det_mod(rows, p) == 0

    @pytest.mark.parametrize("j", (5, 31, 40))
    def test_column_zero_on_and_below_the_diagonal_before_its_update(self, j):
        # rows j.. of column j are 0, so the column has its pivot only once
        # the earlier steps reach it
        n, p = 64, next(exact._modular_primes(64))
        rng = random.Random(3300 + j)
        rows = self.dense(rng, n)
        for r in rows[j:]:
            r[j] = 0
        want = det_exact(IntMatrix(rows)) % p
        assert want != 0
        assert self.det_mod(rows, p) == want

    @pytest.mark.parametrize("j", (31, 32))
    def test_zero_column_at_the_panel_edge(self, j):
        # columns 31 and 32, either side of where a _PANEL-column panel
        # would end, zero from the start and zero only after every earlier step
        n, p = 64, next(exact._modular_primes(64))
        rng = random.Random(3400 + j)
        zero, dependent = self.dense(rng, n), self.dense(rng, n)
        for r, d in zip(zero, dependent):
            r[j] = 0
            d[j] = d[0] - 2 * d[j - 1]
        assert self.det_mod(zero, p) == 0
        assert self.det_mod(dependent, p) == 0

    def test_pivot_row_from_below_the_panel(self):
        # rows 5..31 agree on columns 0..5 with combinations of rows 0..4,
        # so after five steps their column-5 entries are 0 and step 5 swaps
        # up a pivot row from rows 32..
        n, p = 64, next(exact._modular_primes(64))
        rng = random.Random(3500)
        rows = self.dense(rng, n)
        for r in rows[5:32]:
            c = [rng.randint(-2, 2) for _ in range(5)]
            r[:6] = [sum(ci * rows[i][col] for i, ci in enumerate(c)) for col in range(6)]
        lead = np.array([r[:6] for r in rows[:32]])
        assert np.linalg.matrix_rank(lead) == 5  # no pivot for column 5 in the first 32 rows
        want = det_exact(IntMatrix(rows)) % p
        assert want != 0
        assert self.det_mod(rows, p) == want

    @pytest.mark.parametrize("n", (95, 182, 337, 456))
    def test_matches_the_hessenberg_constant_term_past_100_rows(self, n):
        # det(b) = (-1)^n charpoly(0) on dense blocks with entries across
        # the whole residue range, beside the ceiling prime
        p = ceiling_prime(n)
        rng = np.random.default_rng(3600 + n)
        b = rng.integers(0, p, (n, n)).astype(np.float64)
        constant = int(exact._char_poly_hessenberg(b.copy(), p)[0])
        assert constant != 0
        assert exact._det_mod(b, p) == (-1) ** n * constant % p


class TestLowestCharpolyTerm:
    """lowest_charpoly_term_mod reads the lowest nonzero term of
    char_poly_mod off block determinants, with Hessenberg on the blocks
    singular mod p: the Macaulay M and M' the resultant gives it."""

    @pytest.mark.parametrize(
        "name",
        ["P3-k4", "P3-k5", "P3-k6", "P4-k3", "P4-k4", "S4-k3", "S4-k4", "crt-degenerate"],
    )
    def test_matches_the_lowest_term_of_char_poly_mod(self, name):
        if name == "crt-degenerate":
            s = HomogeneousSystem(4, 4, CRT_DEGENERATE_FORMS)
        else:
            g = {"P3": path_graph(3), "P4": path_graph(4), "S4": star_graph(4)}[name[:2]]
            s = gradient_system(build_steiner_hypermatrix(g, int(name[-1])))
        matrix, reduced = macaulay_matrix(s)
        minor = _nonreduced_minor(matrix, reduced)
        singular = []
        for p in itertools.islice(exact._modular_primes(matrix.rows), 3):
            for m in (matrix, minor):
                want = exact._lowest_term(char_poly_mod(m, p), p)
                assert exact.lowest_charpoly_term_mod(m, p) == want, (name, m.rows, p)
                linear = exact._charpoly_plan(m)[0]
                singular.append(want[0] > exact._lowest_term(linear, p)[0])
        # odd k and crt-degenerate have a block of M singular mod p, so
        # both branches run
        assert any(singular) == (name[-1] in "35" or name == "crt-degenerate")


def random_det_stack(rng, n, count):
    """Small-entry matrices, some with a zero leading column, a zero
    diagonal (every step needs a row from below) or a repeated row."""
    stack = []
    for _ in range(count):
        rows = [[rng.choice((0, 0, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        style = rng.randint(0, 3)
        if style == 1:
            for r in rows:
                r[0] = 0
        elif style == 2:
            for i in range(n):
                rows[i][i] = 0
        elif style == 3 and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i] = list(rows[j])
        stack.append(rows)
    return np.array(stack, dtype=np.int64)


class TestDetStack:
    """One Bareiss along a stack, against the Fraction elimination and the
    cofactor expansion above."""

    def test_random_stacks(self):
        rng = random.Random(22)
        for n in range(1, 7):
            stack = random_det_stack(rng, n, 60)
            dets = det_stack(stack)
            assert dets.dtype == np.int64
            want = [gauss_det(m) for m in stack.tolist()]
            assert dets.tolist() == want, n
            assert 0 in want and any(want), n
            if n <= 4:
                assert want == [cofactor_det(m) for m in stack.tolist()]

    def test_tree_distance_stacks(self):
        # a zero diagonal: every matrix needs a swap at step 0
        for n in range(2, 7):
            trees = np.concatenate([edges for _, edges in labeled_tree_blocks(n)])
            stack = np.array([bfs_rows(n, edges) for edges in trees.tolist()], dtype=np.int64)
            dets = det_stack(stack).tolist()
            assert dets == [gauss_det(m) for m in stack.tolist()], n
            assert set(dets) == {(1 - n) * (-2) ** (n - 2)}, n

    def test_entries_near_1e15(self):
        rng = random.Random(23)
        stack = [
            [[rng.randint(-(10**15), 10**15) for _ in range(5)] for _ in range(5)]
            for _ in range(20)
        ]
        dets = det_stack(np.array(stack))
        assert dets.dtype == object
        assert dets.tolist() == [gauss_det(m) for m in stack]

    def test_small_entries_past_the_int64_bound(self):
        # R <= 16 * 20**2, so 2 R^16 >= 2^63: the determinants themselves
        # pass 2^63, and int64 would wrap without a warning
        rng = random.Random(24)
        stack = np.array(
            [[[rng.randint(-20, 20) for _ in range(16)] for _ in range(16)] for _ in range(4)]
        )
        dets = det_stack(stack)
        assert dets.dtype == object
        want = [gauss_det(m) for m in stack.tolist()]
        assert dets.tolist() == want
        assert max(map(abs, want)) >= 2**63

    def test_dtype_follows_the_hadamard_bound(self):
        # 2 R^n < 2^63 runs in int64, else on Python ints; -2^63, whose
        # abs wraps in int64, counts at its full size
        for rows, dtype in [
            ([[2**31 - 1]], np.int64),
            ([[2**31]], object),
            ([[-(2**63)]], object),
            ([[-(2**63), 0], [0, 1]], object),
            ([[3, 0], [0, 0]], np.int64),
        ]:
            dets = det_stack(np.array([rows], dtype=np.int64))
            assert dets.dtype == dtype, rows
            assert dets.tolist() == [cofactor_det(rows)], rows

    def test_mixes_singular_and_nonsingular(self):
        # column 2 = column 0 + column 1 in every other matrix: its column
        # runs out of pivots at step 2, and it keeps the previous pivot so
        # the later steps' divisions stay exact for the whole stack
        rng = random.Random(25)
        stack = []
        for i in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]
            if i % 2:
                for r in rows:
                    r[2] = r[0] + r[1]
            stack.append(rows)
        dets = det_stack(np.array(stack)).tolist()
        want = [gauss_det(m) for m in stack]
        assert dets == want
        assert all(d == 0 for d in want[1::2]) and all(want[::2])


class TestCrtPrimes:
    def test_shortest_prefix_past_the_bound(self):
        pool = list(itertools.islice(exact._modular_primes(560), 24))
        # bound 0 still takes one prime, so the per-prime checks run; a bound
        # equal to the first two primes' product needs a third; 2 * 4^256 at
        # 560 rows, crt-degenerate's norm bound (||M||_inf = 4, N - N' = 256),
        # takes 24 (the resultant takes its block-mass bound and 15 primes,
        # test_resultant.py::TestCrtBound)
        for bound, count in [(0, 1), (pool[0] * pool[1], 3), (2 * 4**256, 24)]:
            assert exact._crt_primes(560, bound) == pool[:count]
        assert math.prod(pool[:23]) <= 2 * 4**256 < math.prod(pool)

    def test_both_modular_routines_refuse_the_same_moduli(self):
        for rows in (3, 8):
            q = bound = exact._float_exact_bound(rows)
            while not exact._is_prime_trial(q):
                q += 1
            want = f"modulus must be a prime below {bound} for {rows} rows"
            m = IntMatrix(np.eye(rows, dtype=np.int64))
            for p in (1, 9, q):
                with pytest.raises(ValueError) as by_charpoly:
                    char_poly_mod(m, p)
                with pytest.raises(ValueError) as by_lowest_term:
                    exact.lowest_charpoly_term_mod(m, p)
                assert str(by_charpoly.value) == str(by_lowest_term.value) == want, (rows, p)


class TestStrongComponents:
    def test_hand_built_pattern(self):
        # 0 <-> 1 -> 2 -> 3 -> 2, 4 alone, 3 -> 5 -> 4; nonzero diagonal
        pattern = np.eye(6, dtype=np.int64) * 7
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 5), (5, 4)]:
            pattern[i, j] = 1
        components = exact._strong_components(pattern)
        assert sorted(components) == [[0, 1], [2, 3], [4], [5]]
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
        assert sorted(exact._strong_components(pattern)) == [[v] for v in range(n)]


def mutual_reachability_components(pattern):
    """Reference SCCs, as sorted lists: BFS from every vertex, then group
    by mutual reach."""
    n = len(pattern)
    succ = [[j for j in range(n) if j != i and pattern[i][j] != 0] for i in range(n)]
    reach = []
    for source in range(n):
        seen = {source}
        queue = [source]
        for v in queue:
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach.append(seen)
    components = {tuple(v for v in sorted(reach[s]) if s in reach[v]) for s in range(n)}
    return sorted(map(list, components))


class TestStrongComponentsProperties:
    def test_matches_breadth_first_reference(self):
        rng = random.Random(31)
        for trial in range(60):
            n = rng.choice((1, 2, 3, rng.randint(4, 30), rng.randint(31, 200)))
            # from a forest of single vertices to a few large components
            density = rng.uniform(0.3, 3.0) / n
            big = trial % 2 == 1
            rows = [
                [
                    rng.choice((-1, 1)) * (rng.randint(1, 9) << (70 if big else 0))
                    if i == j or rng.random() < density
                    else 0
                    for j in range(n)
                ]
                for i in range(n)
            ]
            pattern = np.array(rows, dtype=object if big else np.int64)
            components = exact._strong_components(pattern)
            want = mutual_reachability_components(rows)
            assert sorted(components) == want, (trial, n)
            # the plan's mass: squared entries inside the diagonal blocks, in
            # Python ints (the 2**70 entries would overflow int64)
            mass = sum(rows[i][j] ** 2 for c in want for i in c for j in c)
            assert exact._charpoly_plan(IntMatrix(rows))[2] == mass, (trial, n)
            assert all(c == sorted(c) for c in components)

    @pytest.mark.parametrize(
        "graph, k, sizes, minor_sizes",
        [
            (path_graph(3), 6, [95], [8, 6, 4, 2]),
            (path_graph(4), 4, [182, 6, 6, 6], [26, 18, 9, 6, 6, 6, 4, 4, 4, 3, 2, 2, 2]),
            (star_graph(4), 4, [182, 6, 6, 6], [26, 18, 9, 6, 6, 6, 4, 4, 4, 3, 2, 2, 2]),
        ],
    )
    def test_tree_macaulay_blocks(self, graph, k, sizes, minor_sizes):
        # the blocks each prime pays for: a coarser split slows every prime
        matrix, reduced = macaulay_matrix(gradient_system(build_steiner_hypermatrix(graph, k)))
        minor = _nonreduced_minor(matrix, reduced)
        for m, want in ((matrix, sizes), (minor, minor_sizes)):
            linear, blocks, _ = exact._charpoly_plan(m)
            assert sorted((b.shape[0] for b in blocks), reverse=True) == want
            assert len(linear) - 1 + sum(want) == m.rows


class TestCirculantOracle:
    def test_known_values(self):
        assert circulant_det_oracle([1]) == 1
        assert circulant_det_oracle([1, 2]) == -3  # det [[1,2],[2,1]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty row"):
            circulant_det_oracle([])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(ValueError, match=r"entry 1\.5 is not an integer"):
            circulant_det_oracle([1.5, 2])
        with pytest.raises(ValueError, match="is not an integer"):
            circulant_det_oracle([1, Fraction(1, 2)])


def sylvester_det(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix of f and g, given
    by ascending coefficients with nonzero leading ones: deg g shifted rows
    of f above deg f shifted rows of g, 1 for two constants."""
    a, b = len(f) - 1, len(g) - 1
    if a + b == 0:
        return 1
    rows = [[0] * i + f[::-1] + [0] * (b - 1 - i) for i in range(b)]
    rows += [[0] * i + g[::-1] + [0] * (a - 1 - i) for i in range(a)]
    return det_exact(IntMatrix(rows))


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for (i, a), (j, b) in itertools.product(enumerate(f), enumerate(g)):
        out[i + j] += a * b
    return out


class TestPolyResultant:
    @staticmethod
    def random_poly(rng, degree):
        """Ascending coefficients of exact degree `degree`."""
        return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-3, -2, -1, 1, 2, 3))]

    def test_equals_the_sylvester_determinant(self):
        rng = random.Random(3301)
        for _ in range(300):
            f = self.random_poly(rng, rng.randint(0, 6))
            g = self.random_poly(rng, rng.randint(0, 6))
            # zero leading coefficients are trimmed away
            padded = f + [0] * rng.randint(0, 2), g + [0] * rng.randint(0, 2)
            res = poly_resultant(*padded)
            assert res == sylvester_det(f, g), (f, g)
            sign = (-1) ** ((len(f) - 1) * (len(g) - 1))
            assert poly_resultant(g, f) == sign * res, (f, g)

    def test_a_shared_factor_gives_zero(self):
        rng = random.Random(3302)
        for _ in range(50):
            h = self.random_poly(rng, rng.randint(1, 2))
            f = poly_mul(h, self.random_poly(rng, rng.randint(0, 4)))
            g = poly_mul(h, self.random_poly(rng, rng.randint(0, 4)))
            assert poly_resultant(f, g) == 0 == sylvester_det(f, g), (f, g)
            assert len(poly_gcd(f, g)) >= len(h), (f, g)

    def test_constants_and_the_zero_polynomial(self):
        g = [5, -1, 0, 2]  # degree 3
        assert poly_resultant([-2], g) == (-2) ** 3 == poly_resultant(g, [-2])
        assert poly_resultant([7], [-4]) == 1
        for zero in ([], [0], [0, 0]):
            assert poly_resultant(zero, g) == poly_resultant(g, zero) == 0
            for c in ([1], [3]):
                assert poly_resultant(zero, c) == poly_resultant(c, zero) == 0
            assert poly_resultant(zero, zero) == 0
