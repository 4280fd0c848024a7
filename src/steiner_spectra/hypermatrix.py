"""Symmetric hypermatrices stored by index multiset.

An order-k dimension-n symmetric hypermatrix keeps one exact integer per
multiset of k indices from 1..n (C(n+k-1, k) values instead of n^k).  Its
gradient forms F_i = (A x^{k-1})_i, the tensor action behind H-eigenvalues
and the system whose resultant is the hyperdeterminant, are listed once
per hypermatrix (`gradient_forms`): one exponent vector per degree-(k-1)
monomial and one integer coefficient per (form, monomial), the multinomial
weight times the entry, rather than all n^{k-1} terms.  The exact and the
numpy `contract` and `resultant.gradient_system` all read that table.

Monomials have one enumerator, `exponent_vectors`: the count vectors of
the index multisets, in multiset order.  The gradient table and the
Macaulay matrix (`resultant.macaulay_matrix`) both list monomials so.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .graphs import Graph, steiner_distances


def multisets(dim: int, size: int):
    """Sorted index tuples of the given size over 1..dim."""
    return itertools.combinations_with_replacement(range(1, dim + 1), size)


def exponent_vectors(dim: int, degree: int) -> list:
    """Exponent vectors of the degree-`degree` monomials in `dim` variables:
    the count vectors of `multisets`, in multiset order (graded lex,
    largest first), C(dim + degree - 1, degree) of them."""
    return [tuple(ms.count(j) for j in range(1, dim + 1)) for ms in multisets(dim, degree)]


def multinomial_weight(ms) -> int:
    """Number of distinct orderings of the multiset ms."""
    w = math.factorial(len(ms))
    for c in Counter(ms).values():
        w //= math.factorial(c)
    return w


class SymmetricHypermatrix:
    """Order-k, dimension-n symmetric array with exact integer entries."""

    __slots__ = ("order", "dim", "entries", "_forms")

    def __init__(self, order: int, dim: int, entries: dict):
        if order < 2:
            raise ValueError("order must be at least 2")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        expected = math.comb(dim + order - 1, order)
        if len(entries) != expected:
            raise ValueError(
                f"expected {expected} multiset entries, got {len(entries)}"
            )
        for key in entries:
            if len(key) != order or tuple(sorted(key)) != key:
                raise ValueError(f"key {key} is not a sorted order-{order} tuple")
            if key[0] < 1 or key[-1] > dim:
                raise ValueError(f"key {key} out of range 1..{dim}")
        self.order = order
        self.dim = dim
        self.entries = dict(entries)
        self._forms = None

    @classmethod
    def from_function(cls, order: int, dim: int, fn) -> "SymmetricHypermatrix":
        return cls(order, dim, {ms: fn(ms) for ms in multisets(dim, order)})

    @classmethod
    def all_ones(cls, order: int, dim: int) -> "SymmetricHypermatrix":
        return cls.from_function(order, dim, lambda ms: 1)

    def entry(self, idx) -> int:
        """Entry at an arbitrary (unsorted) index tuple."""
        return self.entries[tuple(sorted(idx))]

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricHypermatrix)
            and self.order == other.order
            and self.dim == other.dim
            and self.entries == other.entries
        )

    # -- contraction --------------------------------------------------

    def gradient_forms(self) -> tuple:
        """The forms F_i = (A x^{k-1})_i as one table, built once.

        Returns (exponents, coeffs, counts, weights): exponents is
        `exponent_vectors(n, k-1)`, whose m-th entry is the exponent vector
        of the m-th multiset ms_m, and coeffs[i-1][m] =
        multinomial(ms_m) * entry((i,) + ms_m) is that monomial's integer
        coefficient in F_i.  counts (int64) and weights (float64) hold the
        same two tables as numpy arrays.
        """
        if self._forms is None:
            exponents = exponent_vectors(self.dim, self.order - 1)
            coeffs = [[] for _ in range(self.dim)]
            for ms in multisets(self.dim, self.order - 1):
                w = multinomial_weight(ms)
                for i, row in enumerate(coeffs, 1):
                    row.append(w * self.entries[tuple(sorted((i,) + ms))])
            self._forms = (
                exponents,
                coeffs,
                np.array(exponents, dtype=np.int64),
                np.array(coeffs, dtype=np.float64),
            )
        return self._forms

    def contract(self, x):
        """(A x^{k-1})_i = sum over k-1 index tuples of entry * x products.

        Exact inputs (ints, Fractions) stay exact; float inputs return
        floats; a numpy array takes a vectorized path and returns an array.
        """
        if len(x) != self.dim:
            raise ValueError(f"vector length {len(x)} != dimension {self.dim}")
        exponents, coeffs, counts, weights = self.gradient_forms()
        if isinstance(x, np.ndarray):
            return weights @ np.prod(np.power(x[np.newaxis, :], counts), axis=1)
        monos = [math.prod(v**e for v, e in zip(x, expo) if e) for expo in exponents]
        return [sum(c * p for c, p in zip(row, monos) if c) for row in coeffs]

    # -- structure maps ------------------------------------------------

    def relabel(self, perm) -> "SymmetricHypermatrix":
        """Push entries through a vertex permutation (dict or sequence of 1..n)."""
        if not isinstance(perm, dict):
            perm = {i + 1: p for i, p in enumerate(perm)}
        if sorted(perm) != list(range(1, self.dim + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.dim + 1)):
            raise ValueError("perm must be a bijection on 1..n")
        moved = {}
        for key, val in self.entries.items():
            moved[tuple(sorted(perm[i] for i in key))] = val
        return SymmetricHypermatrix(self.order, self.dim, moved)

    def dim2_profile(self) -> tuple:
        """Profile (a_0, ..., a_k) with a_t the entry whose index holds t twos."""
        if self.dim != 2:
            raise ValueError("profile is defined only for dimension 2")
        k = self.order
        return tuple(self.entries[(1,) * (k - t) + (2,) * t] for t in range(k + 1))


def build_steiner_hypermatrix(g: Graph, k: int) -> SymmetricHypermatrix:
    """Order-k Steiner distance hypermatrix: entry at (v_1..v_k) is d({v_1..v_k}).

    One `steiner_distances` pass over g serves every distinct support.
    """
    if k < 2:
        raise ValueError("order must be at least 2")
    if not g.is_connected():
        raise ValueError("disconnected graph")
    supports = list(dict.fromkeys(frozenset(ms) for ms in multisets(g.n, k)))
    dist = dict(zip(supports, steiner_distances(g, supports)))
    return SymmetricHypermatrix.from_function(k, g.n, lambda ms: dist[frozenset(ms)])
