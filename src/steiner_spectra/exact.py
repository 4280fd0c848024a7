"""Exact integer linear algebra: Bareiss determinants, circulants, characteristic polynomials.

Everything here is arbitrary precision, except `char_poly_mod`, which
works over F_p on int64 arrays: it splits the matrix at the strongly
connected components of its nonzero pattern and runs a Hessenberg
reduction on each block of more than one row.
"""

from __future__ import annotations

import functools
import numbers

import mpmath
import numpy as np


class IntMatrix:
    """Dense matrix of exact integers."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        data = [list(row) for row in data]
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        for row in data:
            for v in row:
                # floats would silently break the exact eliminations downstream;
                # the exact type test skips the slow ABC check for plain ints
                if type(v) is not int and not isinstance(v, numbers.Integral):
                    raise ValueError(f"non-integer entry: {v!r}")
        self.rows = len(data)
        self.cols = cols
        self._data = data

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


class Poly:
    """Integer-coefficient polynomial, coefficients stored ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def char_poly_exact(m: IntMatrix, max_size: int = 40) -> Poly:
    """det(lambda*I - m) via the Faddeev-LeVerrier recurrence, all-integer.

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
    coeffs.reverse()  # now ascending: [c_n, ..., c_1, 1]
    return Poly(coeffs)


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


# row ceiling of char_poly_mod: its int64 sums must stay below 2**63
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


def _char_poly_hessenberg(h: np.ndarray, p: int) -> np.ndarray:
    """Ascending coefficients of det(lambda*I - h) over F_p, h reduced mod p.

    Similarity reduction of the int64 array h (overwritten) to upper
    Hessenberg form.  Each pivot is scaled to 1 as it is placed (row j + 1
    by its inverse, column j + 1 by it), so every subdiagonal entry ends
    up 1 or 0, and the zero ones split the matrix into diagonal blocks
    whose charpolys multiply.  Inside a block the
    leading-principal-minor recurrence
    p_c = x p_{c-1} - sum_{i <= c} h[i, c] p_{i-1} is one vector-matrix
    product per step.
    """
    n = h.shape[0]
    starts = [0]
    for j in range(n - 1):
        nz = np.flatnonzero(h[j + 1 :, j])
        if nz.size == 0:
            starts.append(j + 1)
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv], :] = h[[piv, j + 1], :]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        pivot = int(h[j + 1, j])
        h[j + 1] = h[j + 1] * pow(pivot, p - 2, p) % p
        h[:, j + 1] = h[:, j + 1] * pivot % p
        factors = h[j + 2 :, j].copy()
        if factors.any():
            # row eliminations below the subdiagonal (columns left of j + 1
            # are zero there already, column j becomes zero) plus the
            # compensating column additions that keep the transform a similarity
            below = h[j + 2 :, j + 1 :]
            below -= np.outer(factors, h[j + 1, j + 1 :])
            below %= p
            h[j + 2 :, j] = 0
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ factors) % p
    charpoly = np.ones(1, dtype=np.int64)
    for s, e in zip(starts, starts[1:] + [n]):
        size = e - s
        polys = np.zeros((size + 1, size + 1), dtype=np.int64)
        polys[0, 0] = 1
        for c in range(1, size + 1):
            polys[c, 1 : c + 1] = polys[c - 1, :c]
            polys[c, :c] = (polys[c, :c] - h[s : s + c, s + c - 1] @ polys[:c, :c]) % p
        charpoly = np.convolve(charpoly, polys[size]) % p
    return charpoly


def char_poly_mod(m: IntMatrix, p: int) -> tuple:
    """Ascending coefficients of det(lambda*I - m) modulo a prime p < 2**25.

    After one reduction mod p, the strongly connected components of the
    off-diagonal nonzero pattern (`_strong_components`) give a symmetric
    permutation of m to block upper triangular form, which leaves the
    charpoly unchanged: it is the product of the diagonal blocks'
    charpolys.  A 1-row block gives x - m_ii; a larger one goes through
    Hessenberg reduction over F_p and a leading-principal-minor recurrence
    (`_char_poly_hessenberg`), whose cost is cubic in the block size.
    Macaulay matrices are sparse, and their patterns fall apart into many
    components.

    Everything runs on int64 numpy arrays.  Every sum, in a block or in
    the product of the blocks' charpolys, has at most 2000 < 2**11
    terms, each below p**2 < 2**50, so it stays below 2**61: that is why
    both the prime ceiling and the 2000-row ceiling are enforced.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    if n > _MOD_MAX_ROWS:
        raise ValueError(f"matrix size {n} exceeds the modular charpoly cap of {_MOD_MAX_ROWS}")
    if not 2 <= p < (1 << 25) or not _is_prime_trial(p):
        raise ValueError("modulus must be a prime below 2**25")
    a = (np.array(m._data, dtype=object) % p).astype(np.int64)
    charpoly = np.ones(1, dtype=np.int64)
    for component in _strong_components(a):
        if len(component) == 1:
            i = component[0]
            block = np.array([-a[i, i] % p, 1], dtype=np.int64)
        else:
            block = _char_poly_hessenberg(a[np.ix_(component, component)], p)
        charpoly = np.convolve(charpoly, block) % p
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
