"""Symmetric tensors in unique-entry storage.

A symmetric tensor of order k over dimension d is determined by its entries at
nondecreasing multi-indices. This module fixes one canonical enumeration of
those indices (nondecreasing tuples in lexicographic order) and everything else
in the package -- vectorisations, coefficient-matrix rows, cumulant vectors --
is aligned with it. Indices are 0-based.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from numbers import Integral
from types import MappingProxyType

import numpy as np

__all__ = [
    "unique_indices",
    "canonical_index",
    "slot_replacements",
    "SymmetricTensor",
]

SYMMETRY_TOL = 1e-8


@lru_cache(maxsize=None)
def unique_indices(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All nondecreasing k-tuples over {0,...,d-1} in lexicographic order."""
    if d < 1 or k < 1:
        raise ValueError("dimension and order must be positive")
    return tuple(itertools.combinations_with_replacement(range(d), k))


def _integer(value, what: str) -> int:
    """value as an int when it is an integer (numpy's too, but not a bool).

    Orders and counts go through here, so that 2.5 or True is a ValueError
    naming `what` instead of being truncated by int().
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"need an integer {what}, got {value!r}")
    return int(value)


def canonical_index(index) -> tuple[int, ...]:
    """Sort a multi-index into its nondecreasing representative."""
    return tuple(sorted(index))


@lru_cache(maxsize=None)
def _position_lookup(d: int, k: int) -> MappingProxyType:
    # read-only, as every caller shares the one cached mapping
    return MappingProxyType({idx: p for p, idx in enumerate(unique_indices(d, k))})


def _index_rank(d: int, indices: np.ndarray) -> np.ndarray:
    """Canonical numbers of nondecreasing indices, the rows of an integer
    array (..., j), among unique_indices(d, j).

    The indices before (i_0, ..., i_{j-1}) are, for each slot p, those that
    agree with it before p and hold a smaller value v >= i_{p-1} at p:
    comb(d - v + r - 1, r) of them for each v, with r = j - p - 1 slots left
    to fill. With below[r, x] the sum of those counts over v < x, the rank is
    the sum over p of below[r, i_p] - below[r, i_{p-1}] (the second term
    dropped at p = 0): two lookups and adds per slot, all within intp.
    """
    j = indices.shape[-1]
    below = np.zeros((j, d + 1), dtype=np.intp)
    for r in range(j):
        below[r, 1:] = np.cumsum([comb(d - v + r - 1, r) for v in range(d)])
    rank = np.zeros(indices.shape[:-1], dtype=np.intp)
    for p in range(j):
        left = below[j - p - 1]
        rank += left[indices[..., p]]
        if p:
            rank -= left[indices[..., p - 1]]
    return rank


@lru_cache(maxsize=None)
def slot_replacements(d: int, k: int) -> np.ndarray:
    """Every way to replace one slot of a canonical index, as an integer table.

    One row (row, a, j, col) per canonical index number `row`, slot and
    replacement coordinate j, in that order (so canonical index p owns rows
    p*k*d to (p+1)*k*d): a is the coordinate the slot held and `col` the
    canonical number of the index with that slot set to j. The order-k
    cumulant operator and the drift coefficient matrix are both scatters
    over this table. Read-only, since every caller shares it.
    """
    index = np.array(unique_indices(d, k))
    n = len(index)
    col = np.empty((n, k, d), dtype=np.intp)
    for slot in range(k):
        # the other slots, each followed by one replacement j, sorted
        moved = np.empty((n, d, k), dtype=index.dtype)
        moved[:, :, :-1] = np.delete(index, slot, axis=1)[:, None]
        moved[:, :, -1] = np.arange(d)
        col[:, slot] = _index_rank(d, np.sort(moved, axis=2))
    table = np.column_stack(
        [
            np.repeat(np.arange(n), k * d),
            np.repeat(index.ravel(), d),
            np.tile(np.arange(d), n * k),
            col.ravel(),
        ]
    )
    table.flags.writeable = False
    return table


class SymmetricTensor:
    """Order-k symmetric tensor over R^d stored by unique entries.

    Values are kept in a flat float array aligned with `unique_indices(d, k)`.
    Indexing accepts any permutation of a multi-index.
    """

    def __init__(self, d: int, k: int, values: np.ndarray | None = None):
        self.d = int(d)
        self.k = int(k)
        size = len(unique_indices(self.d, self.k))
        if values is None:
            self.values = np.zeros(size)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != (size,):
                raise ValueError(
                    f"expected {size} unique values for d={d}, k={k}, "
                    f"got shape {values.shape}"
                )
            self.values = values.copy()

    # -- element access -------------------------------------------------

    def _pos(self, index) -> int:
        key = canonical_index(index)
        try:
            return _position_lookup(self.d, self.k)[key]
        except KeyError:
            raise IndexError(f"index {tuple(index)} invalid for d={self.d}, k={self.k}")

    def __getitem__(self, index) -> float:
        return float(self.values[self._pos(index)])

    def __setitem__(self, index, value) -> None:
        self.values[self._pos(index)] = value

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return unique_indices(self.d, self.k)

    # -- conversions ----------------------------------------------------

    def vec_unique(self) -> np.ndarray:
        """Unweighted vector of unique entries in canonical order."""
        return self.values.copy()

    def to_dense(self) -> np.ndarray:
        out = np.empty((self.d,) * self.k)
        for idx, v in zip(self.indices, self.values):
            for perm in set(itertools.permutations(idx)):
                out[perm] = v
        return out

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "SymmetricTensor":
        """Read a dense tensor, checking its symmetry.

        The entries across each permutation class must agree to within
        SYMMETRY_TOL relative to the largest entry magnitude (at least 1).
        """
        arr = np.asarray(arr, dtype=float)
        d = arr.shape[0]
        k = arr.ndim
        if arr.shape != (d,) * k:
            raise ValueError(f"dense tensor must be hypercubic, got {arr.shape}")
        scale = max(np.max(np.abs(arr)), 1.0)
        values = np.empty(len(unique_indices(d, k)))
        for p, idx in enumerate(unique_indices(d, k)):
            group = [arr[perm] for perm in set(itertools.permutations(idx))]
            if max(group) - min(group) > SYMMETRY_TOL * scale:
                raise ValueError(f"tensor not symmetric at index class {idx}")
            values[p] = float(arr[idx])
        return cls(d, k, values)

    @classmethod
    def identity(cls, d: int, k: int) -> "SymmetricTensor":
        """Tensor with ones on the diagonal entries (i,...,i), zero elsewhere."""
        return cls.from_diagonal(np.ones(d), k)

    @classmethod
    def from_diagonal(cls, diag, k: int) -> "SymmetricTensor":
        diag = np.asarray(diag, dtype=float)
        t = cls(diag.shape[0], k)
        for i, v in enumerate(diag):
            t[(i,) * k] = v
        return t

    def __repr__(self) -> str:
        return f"SymmetricTensor(d={self.d}, k={self.k}, nnz={np.count_nonzero(self.values)})"

