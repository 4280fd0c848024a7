"""Exact integer linear algebra: Bareiss determinants, circulants, characteristic polynomials.

Everything here is arbitrary precision, except `char_poly_mod`, which
works over F_p on int64 arrays.
"""

from __future__ import annotations

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
                # floats would silently break the exact eliminations downstream
                if not isinstance(v, numbers.Integral):
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


def char_poly_mod(m: IntMatrix, p: int) -> tuple:
    """Ascending coefficients of det(lambda*I - m) modulo a prime p < 2**25.

    Similarity reduction to upper Hessenberg form over F_p.  A diagonal
    similarity then turns every nonzero subdiagonal entry into 1, and the
    zero ones split the matrix into diagonal blocks whose charpolys
    multiply.  Inside a block the leading-principal-minor recurrence
    p_c = x p_{c-1} - sum_{i <= c} h[i, c] p_{i-1} is one vector-matrix
    product per step.

    Everything runs on int64 numpy arrays.  Every sum has at most
    2000 < 2**11 terms, each below p**2 < 2**50, so it stays below 2**61:
    that is why both the prime ceiling and the 2000-row ceiling are
    enforced.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    if n > _MOD_MAX_ROWS:
        raise ValueError(f"matrix size {n} exceeds the modular charpoly cap of {_MOD_MAX_ROWS}")
    if not 2 <= p < (1 << 25) or not _is_prime_trial(p):
        raise ValueError("modulus must be a prime below 2**25")
    h = (np.array(m._data, dtype=object) % p).astype(np.int64)
    for j in range(n - 2):
        nz = np.flatnonzero(h[j + 1 :, j])
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv], :] = h[[piv, j + 1], :]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        factors = h[j + 2 :, j] * pow(int(h[j + 1, j]), p - 2, p) % p
        if factors.any():
            # row eliminations below the subdiagonal (columns left of j + 1
            # are zero there already, column j becomes zero) plus the
            # compensating column additions that keep the transform a similarity
            below = h[j + 2 :, j + 1 :]
            below -= np.outer(factors, h[j + 1, j + 1 :])
            below %= p
            h[j + 2 :, j] = 0
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ factors) % p
    # D^-1 h D with d_i = h[i, i-1] d_{i-1}, restarting at 1 on each zero
    # subdiagonal entry, which is also where a new diagonal block starts
    d = [1] * n
    starts = [0]
    for i in range(1, n):
        sub = int(h[i, i - 1])
        if sub:
            d[i] = d[i - 1] * sub % p
        else:
            starts.append(i)
    d_inv = [pow(x, p - 2, p) for x in d]
    h *= np.array(d, dtype=np.int64)
    h %= p
    h *= np.array(d_inv, dtype=np.int64)[:, None]
    h %= p
    charpoly = np.ones(1, dtype=np.int64)
    for s, e in zip(starts, starts[1:] + [n]):
        size = e - s
        polys = np.zeros((size + 1, size + 1), dtype=np.int64)
        polys[0, 0] = 1
        for c in range(1, size + 1):
            polys[c, 1 : c + 1] = polys[c - 1, :c]
            polys[c, :c] = (polys[c, :c] - h[s : s + c, s + c - 1] @ polys[:c, :c]) % p
        charpoly = np.convolve(charpoly, polys[size]) % p
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
