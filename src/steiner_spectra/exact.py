"""Exact integer linear algebra: Bareiss determinants, circulants, characteristic polynomials.

Everything here is arbitrary precision, except `char_poly_mod`, which
works over F_p.  Once per matrix it splits the nonzero pattern into
strongly connected components; per prime it runs a blocked Hessenberg
reduction in float64 on each block of more than one row.  Entries stay
in (-p, p) and every dot product has at most rows + 64 terms, so for the
primes it accepts, those below `_float_exact_bound(rows)`, where
p * p * (rows + 64) < 2**53, every BLAS product is exact.  Both
charpolys, exact (`char_poly_exact`) and modular, are tuples of
ascending coefficients.
"""

from __future__ import annotations

import functools
import math
import numbers

import mpmath
import numpy as np


class IntMatrix:
    """Dense matrix of exact integers."""

    __slots__ = ("rows", "cols", "_data", "_plan")

    def __init__(self, data):
        data = [list(row) for row in data]
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        for row in data:
            for j, v in enumerate(row):
                # floats would silently break the exact eliminations downstream,
                # and numpy integers would wrap there, so other integral types
                # become int; the exact type test skips the ABC check for ints
                if type(v) is not int:
                    if not isinstance(v, numbers.Integral):
                        raise ValueError(f"non-integer entry: {v!r}")
                    row[j] = int(v)
        self.rows = len(data)
        self.cols = cols
        self._data = data
        self._plan = None  # char_poly_mod's set-up, see _charpoly_plan

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> list:
        return list(self._data[i])

    def to_lists(self) -> list:
        return [list(row) for row in self._data]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self._data[i][j] == other._data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __repr__(self):
        return f"IntMatrix({self._data!r})"


def circulant(first_row) -> IntMatrix:
    """Circulant matrix: row i is the cyclic right-shift of ``first_row`` by i."""
    row = list(first_row)
    m = len(row)
    if m == 0:
        raise ValueError("empty row")
    return IntMatrix([row[-i:] + row[:-i] for i in range(m)])


def det_exact(m: IntMatrix):
    """Exact determinant by fraction-free Bareiss elimination.

    Pivoting takes the first nonzero entry in the column (rows swapped with
    sign tracking); a fully zero column means the determinant is 0.
    """
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    a = [list(row) for row in m._data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            if aik:
                ai[k + 1 :] = [
                    (pk * ai[j] - aik * ak[j]) // prev for j in range(k + 1, n)
                ]
            elif prev != 1:
                ai[k + 1 :] = [pk * v // prev for v in ai[k + 1 :]]
            elif pk != 1:
                ai[k + 1 :] = [pk * v for v in ai[k + 1 :]]
        prev = pk
    return int(sign * a[n - 1][n - 1])


def char_poly_exact(m: IntMatrix, max_size: int = 40) -> tuple:
    """Ascending coefficients of det(lambda*I - m), by the Faddeev-LeVerrier
    recurrence, all-integer: the same format as `char_poly_mod`.

    The per-step divisions are exact for integer input, so no rationals
    appear.  Cost is n matrix products; `max_size` guards against runaway
    inputs and can be raised by callers that accept the quartic cost.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    if n > max_size:
        raise ValueError(f"matrix size {n} exceeds the charpoly cap of {max_size}")
    a = m._data
    # M_1 = I, c_1 = -tr(A); M_{j+1} = A M_j + c_j I, c_{j+1} = -tr(A M_{j+1})/(j+1)
    mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]  # leading coefficient of lambda^n
    for step in range(1, n + 1):
        am = [
            [sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) // step
        coeffs.append(c)
        if step < n:
            mk = [
                [am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)
            ]
    return tuple(reversed(coeffs))  # ascending: (c_n, ..., c_1, 1)


@functools.cache
def _is_prime_trial(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


# row ceiling of char_poly_mod, a cost ceiling only: its float64 and int64
# products are exact at any row count once p * p * (rows + 64) < 2**53
_MOD_MAX_ROWS = 2000


def _strong_components(pattern) -> list:
    """Strongly connected components of the nonzero pattern of a square array.

    The digraph has an edge i -> j for every nonzero off-diagonal entry
    pattern[i, j]; diagonal entries are ignored.  Each component is a
    sorted list of indices, and the components come in reverse topological
    order (Tarjan), so listing them last to first permutes the matrix to
    block upper triangular form.  The depth-first search keeps its own
    stack, so a long chain costs no recursion depth.
    """
    n = pattern.shape[0]
    nonzero = pattern != 0
    np.fill_diagonal(nonzero, False)
    rows, cols = np.nonzero(nonzero)
    # successors of v are succ[first[v]:first[v + 1]] (rows come out sorted)
    first = np.searchsorted(rows, np.arange(n + 1)).tolist()
    succ = cols.tolist()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        path = [(root, first[root])]  # vertex and its next unexplored edge
        while path:
            v, e = path[-1]
            end = first[v + 1]
            while e < end:
                w = succ[e]
                e += 1
                if index[w] < 0:
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    component.sort()
                    components.append(component)
                continue
            path[-1] = (v, e)
            index[w] = low[w] = counter
            counter += 1
            stack.append(w)
            on_stack[w] = True
            path.append((w, first[w]))
    return components


# columns per panel of the blocked Hessenberg reduction
_PANEL = 32


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the float64 integers x (|x| < 2**53) into (-p, p), in place.

    Up to 256 entries, one np.remainder call: exact (it rests on fmod) and
    cheapest there, but several times slower per entry than the four
    vector operations of x - p * floor(x / p), which larger arrays take.
    That uses a true division: the rounded quotient is off by at most one,
    so the result is the residue or the residue minus p, and a multiple of
    p gives exactly 0.  A product with a rounded 1/p instead can leave a
    multiple of p as +-p, which breaks the zero tests of the pivot search.
    """
    if x.size <= 256:
        return np.remainder(x, p, out=x)
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _float_exact_bound(rows: int) -> int:
    """Primes below this keep p * p * (rows + 2 * _PANEL) < 2**53.

    Every dot product of `_char_poly_hessenberg` on a block of at most
    `rows` rows has at most rows + 2 * _PANEL terms, each a product of two
    entries in (-p, p), so below such a prime plain float64 BLAS products
    are exact.
    """
    return math.isqrt((1 << 53) // (rows + 2 * _PANEL))


def _char_poly_hessenberg(h: np.ndarray, p: int) -> np.ndarray:
    """Ascending int64 coefficients of det(lambda*I - h) over F_p.

    h is a float64 array of integers in (-p, p), overwritten by its
    similarity reduction to upper Hessenberg form.  Step j takes as pivot
    the first entry of column j below the subdiagonal that is nonzero mod
    p, swaps it onto the subdiagonal and scales it to 1 (row j + 1 by its
    inverse, column j + 1 by it), then clears the rest of column j with
    row operations and keeps the transform a similarity with one column
    addition, col_{j+1} += h[:, j+2:] @ f for the multipliers f.  A column
    with no pivot leaves a zero subdiagonal, which splits the matrix into
    diagonal blocks whose charpolys multiply.

    The steps run in panels of _PANEL columns (delayed updates, as in
    FFLAS-FFPACK).  Inside a panel the columns up to e (the panel's last
    step j reaches column e = j + 1) are updated at once; the trailing
    columns are held as A0 - G @ R, A0 their values at the start of the
    panel, G the multipliers and R the pivot rows of the panel's steps.
    A step then costs one matrix-vector product with h[:, j+2:] plus thin
    corrections through G and R, and the panel ends with one product
    G @ R and one reduction.  The pivot row, and a trailing column swapped
    in as pivot column, are brought up to date when they are needed.

    Entries stay in (-p, p) (`_reduce`), and every dot product has at most
    n + 2 * _PANEL terms, so for p below `_float_exact_bound(n)` all of it
    is exact float64 arithmetic.  Inside each diagonal block the
    leading-principal-minor recurrence
    p_c = x p_{c-1} - sum_{i <= c} h[i, c] p_{i-1} is one vector-matrix
    product per step.
    """
    n = h.shape[0]
    starts = [0]
    for c0 in range(0, n - 1, _PANEL):
        e = min(c0 + _PANEL, n - 1)
        lazy = n - e - 1  # trailing columns e + 1 .. n - 1
        g = np.zeros((n, _PANEL))
        r = np.zeros((_PANEL, lazy))
        t = 0  # steps of this panel with row operations so far
        for j in range(c0, e):
            nz = h[j + 1 :, j].nonzero()[0]
            if nz.size == 0:
                starts.append(j + 1)
                continue
            piv = j + 1 + int(nz[0])
            if piv != j + 1:
                h[[j + 1, piv]] = h[[piv, j + 1]]
                if t:
                    g[[j + 1, piv], :t] = g[[piv, j + 1], :t]
                if piv <= e:
                    h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
                else:
                    col = h[:, piv] - g[:, :t] @ r[:t, piv - e - 1]
                    h[:, piv] = h[:, j + 1]
                    h[:, j + 1] = _reduce(col, p)
                    r[:t, piv - e - 1] = 0
            if t:
                row = h[j + 1, e + 1 :]
                row -= r[:t].T @ g[j + 1, :t]
                _reduce(row, p)
                g[j + 1, :t] = 0
            # the pivot becomes 1: row j + 1 is scaled by its inverse now;
            # scaling column j + 1 by it commutes with the row operations,
            # so it joins the column addition
            pivot = int(h[j + 1, j]) % p
            if pivot != 1:
                h[j + 1, j:] *= pow(pivot, p - 2, p)
                _reduce(h[j + 1, j:], p)
            f = h[j + 2 :, j].copy()
            if f.any():
                below = h[j + 2 :, j + 1 : e + 1]
                below -= f[:, None] * h[j + 1, j + 1 : e + 1]
                _reduce(below, p)
                h[j + 2 :, j] = 0
                col = h[:, j + 1] * pivot + h[:, j + 2 :] @ f
                if lazy:
                    g[j + 2 :, t] = f
                    r[t] = h[j + 1, e + 1 :]
                    t += 1
                    rf = _reduce(r[:t] @ f[e - j - 1 :], p)
                    col -= g[:, :t] @ rf
                h[:, j + 1] = _reduce(col, p)
            elif pivot != 1:
                h[:, j + 1] = _reduce(h[:, j + 1] * pivot, p)
        if t:
            trailing = h[c0 + 2 :, e + 1 :]
            trailing -= g[c0 + 2 :, :t] @ r[:t]
            _reduce(trailing, p)
    charpoly = np.ones(1, dtype=np.int64)
    for s, e in zip(starts, starts[1:] + [n]):
        size = e - s
        polys = np.zeros((size + 1, size + 1))
        polys[0, 0] = 1
        for c in range(1, size + 1):
            polys[c, 1 : c + 1] = polys[c - 1, :c]
            polys[c, :c] -= polys[:c, :c].T @ h[s : s + c, s + c - 1]
            _reduce(polys[c, :c], p)
        charpoly = np.convolve(charpoly, polys[size].astype(np.int64) % p) % p
    return charpoly


def _charpoly_plan(m: IntMatrix) -> tuple:
    """The prime-independent part of char_poly_mod(m, p), built on first use.

    Returns the product of the 1-row diagonal blocks' charpolys x - m_ii as
    an ascending tuple of integers, and the larger diagonal blocks as
    integer arrays (int64 when every entry fits, else Python ints).  The
    blocks come from the strongly connected components of the integer
    pattern; an entry that vanishes over Z vanishes mod every p, so the
    block triangular form holds for every prime.  IntMatrix is never
    written after construction, so the plan stays valid.
    """
    if m._plan is None:
        try:
            a = np.array(m._data, dtype=np.int64)
        except OverflowError:
            a = np.array(m._data, dtype=object)
        linear = [1]
        blocks = []
        for component in _strong_components(a):
            if len(component) == 1:
                d = m._data[component[0]][component[0]]
                linear = [x - d * y for x, y in zip([0] + linear, linear + [0])]
            else:
                blocks.append(a[np.ix_(component, component)])
        m._plan = (tuple(linear), blocks)
    return m._plan


def char_poly_mod(m: IntMatrix, p: int) -> tuple:
    """Ascending coefficients of det(lambda*I - m) modulo a prime p below
    `_float_exact_bound(m.rows)`.

    The strongly connected components of the off-diagonal nonzero pattern
    (`_strong_components`) give a symmetric permutation of m to block
    upper triangular form, which leaves the charpoly unchanged: it is the
    product of the diagonal blocks' charpolys.  That split, and the
    product of the 1-row blocks' x - m_ii, are worked out once per matrix
    (`_charpoly_plan`); per prime only the larger blocks are reduced mod p
    and go through a blocked Hessenberg reduction in float64 with a
    leading-principal-minor recurrence (`_char_poly_hessenberg`), whose
    cost is cubic in the block size.  Macaulay matrices are sparse, and
    their patterns fall apart into many components.

    Every sum, float64 in the reduction of a block and int64 where the
    blocks' charpolys multiply, has at most rows + 64 terms below p**2, so
    below that bound it stays under 2**53 and the arithmetic is exact.
    Other moduli are refused.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    if n > _MOD_MAX_ROWS:
        raise ValueError(f"matrix size {n} exceeds the modular charpoly cap of {_MOD_MAX_ROWS}")
    bound = _float_exact_bound(n)
    if not 2 <= p < bound or not _is_prime_trial(p):
        raise ValueError(f"modulus must be a prime below {bound} for {n} rows")
    linear, blocks = _charpoly_plan(m)
    charpoly = np.array([c % p for c in linear], dtype=np.int64)
    for block in blocks:
        h = (block % p).astype(np.float64)
        charpoly = np.convolve(charpoly, _char_poly_hessenberg(h, p)) % p
    return tuple(int(c) for c in charpoly)


def circulant_det_oracle(first_row, dps: int = 60) -> int:
    """Independent floating oracle for circulant determinants.

    Evaluates the eigenvalue product ``prod_j sum_i row[i] w^{ij}`` over the
    m-th roots of unity at `dps` decimal digits and rounds to the nearest
    integer.  Raises if the result is not convincingly close to an integer.
    """
    row = list(first_row)
    m = len(row)
    if m == 0:
        raise ValueError("empty row")
    with mpmath.workdps(dps):
        prod = mpmath.mpc(1)
        for j in range(m):
            w = mpmath.exp(2j * mpmath.pi * j / m)
            prod *= mpmath.fsum(row[i] * w**i for i in range(m))
        nearest = int(mpmath.nint(prod.real))
        err = abs(prod - nearest)
        if err >= 0.5:
            raise ArithmeticError(
                f"circulant eigenproduct {prod} is not within 0.5 of an integer"
            )
    return nearest
