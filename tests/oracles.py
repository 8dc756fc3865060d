"""Slow, independent references the tests check the package against.

Nothing here is used by the package itself: the dense Kronecker-sum form of
the cumulant operator, the first-index-fastest vectorisation it acts on, a
dense expansion of a symmetric tensor, a quadrature of the
matrix-exponential integral form of the solution, and the loop versions of
the two unique-entry operators.
"""

from collections import Counter

import numpy as np
import scipy.integrate
import scipy.linalg

from cumulyap.tensors import n_mode_product, unique_indices


def vec(tensor: np.ndarray) -> np.ndarray:
    """Flatten a dense tensor with the first index varying fastest."""
    return np.asarray(tensor).reshape(-1, order="F")


def dense(tensor) -> np.ndarray:
    """Dense array of a SymmetricTensor, filled position by position.

    Costs d^k lookups, where SymmetricTensor.to_dense enumerates the k!
    permutations of every unique index.
    """
    out = np.empty((tensor.d,) * tensor.k)
    for position in np.ndindex(out.shape):
        out[position] = tensor[position]
    return out


def kron_sum_matrix(M: np.ndarray, k: int) -> np.ndarray:
    """Matrix of T -> sum_n T x_n M on the d^k vectorisation used by `vec`.

    Built as sum over modes of I x ... x M x ... x I with M in the slot acting
    on that mode. Dense: d^k by d^k.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if M.shape != (d, d):
        raise ValueError("M must be square")
    total = np.zeros((d**k, d**k))
    for mode in range(k):
        # vec() puts axis 0 innermost, so the factor acting on axis `mode`
        # sits at position k-1-mode of the Kronecker product.
        outer, inner = np.eye(d ** (k - 1 - mode)), np.eye(d**mode)
        total += np.kron(outer, np.kron(M, inner))
    return total


def integral_cumulant(M: np.ndarray, C: np.ndarray, t_max: float, n_nodes: int = 400):
    """Quadrature evaluation of the matrix-exponential integral form.

    Integrates the k-fold mode product of C with exp(M t) over [0, t_max] with
    the trapezoid rule on a uniform grid.
    """
    M = np.asarray(M, dtype=float)
    C = np.asarray(C, dtype=float)
    ts = np.linspace(0.0, t_max, n_nodes)
    values = []
    for t in ts:
        E = scipy.linalg.expm(M * t)
        T = C
        for mode in range(C.ndim):
            T = n_mode_product(T, E, mode)
        values.append(T)
    return scipy.integrate.trapezoid(np.stack(values), ts, axis=0)


def operator_matrix_loop(M: np.ndarray, k: int) -> np.ndarray:
    """lyapunov_operator_matrix as a loop over rows, slots and replacements."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    rows = unique_indices(d, k)
    pos = {idx: n for n, idx in enumerate(rows)}
    B = np.zeros((len(rows), len(rows)))
    for rnum, idx in enumerate(rows):
        for slot in range(k):
            for j in range(d):
                col = list(idx)
                col[slot] = j
                B[rnum, pos[tuple(sorted(col))]] += M[idx[slot], j]
    return B


def coefficient_matrix_loop(kappa, rows, columns) -> np.ndarray:
    """drift_coefficient_matrix as a loop over rows and edges."""
    A = np.zeros((len(rows), len(columns)))
    for rnum, idx in enumerate(rows):
        counts = Counter(idx)
        for cnum, (src, dst) in enumerate(columns):
            n = counts.get(dst, 0)
            if n:
                slot = idx.index(dst)
                replaced = idx[:slot] + (src,) + idx[slot + 1:]
                A[rnum, cnum] = n * kappa[replaced]
    return A
