"""Steady-state cumulant solvers for linear SDEs driven by Lévy noise.

For a stable drift M, the order-k steady-state cumulant tensor K solves

    sum over modes m of (K x_m M) + C_k = 0,

where C_k = cum_k of the unit-rate noise increments, and x_m is the mode-m
matrix product. Both K and C_k are symmetric, so the equation is solved on
their C(d+k-1, k) unique entries: the operator on the left restricted to
symmetric tensors is the square matrix B(M) of lyapunov_operator_matrix. Its
eigenvalues are the sums of k-multisets of eigenvalues of M, so it is
invertible exactly when no k eigenvalues of M (with repetition) sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import factorial, isfinite

import numpy as np

from .graphs import DirectedGraph, topological_order
from .tensors import SymmetricTensor, _integer, slot_replacements, unique_indices

__all__ = [
    "SingularSystemError",
    "ModelParameters",
    "is_stable",
    "solve_lyapunov",
    "forward_map",
    "lyapunov_operator_matrix",
    "special_drift_matrix",
    "trek_closed_form",
]

STABILITY_TOL = 1e-10


class SingularSystemError(ValueError):
    """The cumulant equation has no unique solution for this drift and order."""


def is_stable(M: np.ndarray):
    """True when every eigenvalue of M has real part below -STABILITY_TOL.

    A stack of drifts (..., d, d) gets one verdict per drift, as a bool
    array; a single drift gets a bool.
    """
    M = np.asarray(M, dtype=float)
    stable = np.linalg.eigvals(M).real.max(axis=-1) < -STABILITY_TOL
    return bool(stable) if M.ndim == 2 else stable


def _eigenvalue_sum_margins(eigs: np.ndarray, k: int) -> np.ndarray:
    """Smallest |sum| over the k-multisets of each row of eigenvalues (..., d).

    The multisets are the canonical order-k indices, read from the cached
    slot_replacements table: its column a at j = 0 lists each index's slots.
    """
    d = eigs.shape[-1]
    multisets = slot_replacements(d, k)[::d, 1].reshape(-1, k)
    return np.abs(eigs[..., multisets].sum(axis=-1)).min(axis=-1)


def _solve_stacked(M: np.ndarray, C: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Unique entries of the solutions K_k of B_k(M) K_k + C_k = 0, stacked,
    for every order k of C.

    M is a stack of drifts (T, d, d) and C maps each order k to the (T, N_k)
    unique entries of the drifts' order-k noise cumulants. Each drift is
    eigen-decomposed once (one np.linalg.eigvals call for the stack), and its
    eigenvalues give its scale and every order's multiset-sum margin.
    SingularSystemError is raised, naming the first such order in sorted
    order, when any margin comes within rounding of zero; no order is solved
    before every order is checked. Then each order is one np.linalg.solve
    over its (T, N_k, N_k) operators, the same LAPACK call per matrix as a
    solve of one. With no orders, nothing is decomposed or solved.
    """
    if not C:
        return {}
    eigs = np.linalg.eigvals(M)
    scale = np.maximum(1.0, np.abs(eigs).max(axis=-1))
    orders = sorted(C)
    for k in orders:
        if np.any(_eigenvalue_sum_margins(eigs, k) <= 1e-12 * k * scale):
            raise SingularSystemError(
                f"{k} eigenvalues of the drift sum to zero; order-{k} equation is singular"
            )
    return {
        k: np.linalg.solve(lyapunov_operator_matrix(M, k), -C[k][..., None])[..., 0]
        for k in orders
    }


def solve_lyapunov(M: np.ndarray, noise_cumulant) -> SymmetricTensor:
    """Solve the order-k steady-state cumulant equation for K.

    `noise_cumulant` is the order-k noise cumulant tensor (SymmetricTensor or
    dense symmetric array). Solves B(M) K + C = 0 on the C(d+k-1, k) unique
    entries, with B(M) = lyapunov_operator_matrix(M, k); that system has a
    unique solution exactly when no k-multiset of eigenvalues of M sums to
    zero, and SingularSystemError is raised when one comes within rounding
    of zero. It is the one-drift, one-order case of the stacked solver
    `_solve_stacked`, which forward_map, population_state_cumulants and the
    identifiability checks run over every order at once.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if M.shape != (d, d):
        raise ValueError("drift matrix must be square")
    if isinstance(noise_cumulant, SymmetricTensor):
        C = noise_cumulant
    else:
        C = SymmetricTensor.from_dense(np.asarray(noise_cumulant, dtype=float))
    if C.d != d:
        raise ValueError(f"noise cumulant dimension {C.d} != drift dimension {d}")
    return SymmetricTensor(d, C.k, _solve_stacked(M[None], {C.k: C.values[None]})[C.k][0])


@dataclass
class ModelParameters:
    """A stable drift matrix plus noise cumulant tensors keyed by order."""

    drift: np.ndarray
    noise: dict[int, SymmetricTensor] = field(default_factory=dict)

    def __post_init__(self):
        self.drift = np.asarray(self.drift, dtype=float)
        d = self.drift.shape[0]
        if self.drift.shape != (d, d):
            raise ValueError("drift matrix must be square")
        fixed = {}
        for k, C in self.noise.items():
            if not isinstance(C, SymmetricTensor):
                C = SymmetricTensor.from_dense(np.asarray(C, dtype=float))
            if C.k != k:
                raise ValueError(f"noise tensor under key {k} has order {C.k}")
            if C.d != d:
                raise ValueError("noise tensor dimension does not match drift")
            fixed[int(k)] = C
        self.noise = fixed

    @property
    def d(self) -> int:
        return self.drift.shape[0]

    @property
    def orders(self) -> list[int]:
        return sorted(self.noise)


def forward_map(params: ModelParameters) -> dict[int, SymmetricTensor]:
    """Steady-state cumulant tensors of the state at every noise order.

    One `_solve_stacked` call over every order: the drift is eigen-decomposed
    once, and each order's tensor is what solve_lyapunov gives, bit for bit.
    """
    solved = _solve_stacked(
        params.drift[None], {k: C.values[None] for k, C in params.noise.items()}
    )
    return {k: SymmetricTensor(params.d, k, K[0]) for k, K in solved.items()}


def lyapunov_operator_matrix(M: np.ndarray, k: int) -> np.ndarray:
    """Matrix of the order-k cumulant operator on unique tensor entries.

    Rows and columns are indexed by the canonical nondecreasing index tuples
    of unique_indices(d, k). Row idx of the product with the unique-entry
    vector of K equals the idx entry of the mode-product sum, so

        lyapunov_operator_matrix(M, k) @ K.vec_unique() + C.vec_unique() = 0.

    A stack of drifts (..., d, d) gives the stack of operators (..., N, N).
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    row, a, j, col = slot_replacements(d, k).T
    n = len(unique_indices(d, k))
    B = np.zeros(M.shape[:-2] + (n, n))
    np.add.at(B, (..., row, col), M[..., a, j])
    return B


def _check_special_parametrization(graph: DirectedGraph, r, zeta) -> None:
    """Raise ValueError unless (graph, r, zeta) defines a special parametrization."""
    if not graph.has_all_self_loops():
        raise ValueError("the special parametrization needs all self-loops")
    try:
        positive_r = _integer(r, "r") > 0
    except ValueError:  # not an integer, or a bool
        positive_r = False
    if not (positive_r and zeta > 0 and isfinite(zeta)):
        raise ValueError(
            "the special parametrization needs a positive integer r and a "
            f"positive finite zeta, got r={r!r}, zeta={zeta!r}"
        )


def special_drift_matrix(graph: DirectedGraph, r: int, zeta: float) -> np.ndarray:
    """Drift with diagonal -1/(r*zeta) and unit weight on non-loop edges.

    The graph must have every self-loop, r must be a positive integer and
    zeta positive and finite, so the drift is stable; this is the
    parametrization whose steady-state cumulants the trek closed form
    reproduces.
    """
    _check_special_parametrization(graph, r, zeta)
    M = np.diag(np.full(graph.d, -1.0 / (r * zeta)))
    for src, dst in graph.non_loop_edges():
        M[dst, src] = 1.0
    return M


def _trek_polynomials(graph: DirectedGraph, k: int, r: int) -> tuple[np.ndarray, int]:
    """Exact order-k cumulants of the special parametrization, as polys in zeta.

    Returns (numerators, denominator): numerators is an object array of ints
    of shape (k(d-1) + 2, N), and numerators[L, p] / denominator, with the
    one denominator k^(k(d-1)+1) ((d-1)!)^k, is the zeta^L coefficient of
    index p of unique_indices(d, k). A trek to the index's nodes with path
    lengths l_1..l_k summing to L contributes (r/k)^(L+1) L! / prod(l_j!) at
    degree L+1. A trek picks its path to each node independently of the
    others, so the treks from one top sum to L! times the x^L coefficient of
    the product over the index's nodes t of sum_l paths[l][top, t] x^l / l!,
    where paths[l], the l-th power of the non-loop adjacency, counts the
    paths of length l. The non-loop part must be acyclic (GraphCycleError
    otherwise), so paths[l] is zero from l = d on.
    """
    topological_order(graph)  # acyclicity check
    d = graph.d
    step = np.zeros((d, d), dtype=object)  # exact ints: path counts can pass int64
    for src, dst in graph.non_loop_edges():
        step[src, dst] = 1
    paths = [np.identity(d, dtype=object)]
    for _ in range(d - 1):
        paths.append(paths[-1] @ step)
    # series[top][t][l] = paths[l][top, t] * D / l!, an integer for D = (d-1)!,
    # without trailing zeros
    D = factorial(d - 1)
    egf = np.array([p * (D // factorial(l)) for l, p in enumerate(paths)])
    series = [[np.trim_zeros(egf[:, top, t], "b") for t in range(d)] for top in range(d)]
    top_degree = k * (d - 1) + 1
    numerators = np.zeros((top_degree + 1, len(unique_indices(d, k))), dtype=object)
    for p, index in enumerate(unique_indices(d, k)):
        for top in range(d):
            factors = [series[top][t] for t in index]
            if all(map(len, factors)):  # a trek needs a path to every node
                product = reduce(np.convolve, factors)
                numerators[1 : len(product) + 1, p] += product
    # the scaled x^L coefficient times this weight is the zeta^(L+1) numerator
    weight = [r ** (L + 1) * factorial(L) * k ** (top_degree - L - 1) for L in range(top_degree)]
    numerators[1:] *= np.array(weight, dtype=object)[:, None]
    return numerators, k**top_degree * D**k


def trek_closed_form(graph: DirectedGraph, k: int, r: int, zeta: float) -> SymmetricTensor:
    """Order-k steady-state cumulants of the special parametrization, by treks.

    For the drift of special_drift_matrix(graph, r, zeta) and noise cumulant
    tensors equal to the identity tensor at every order, the entry at a given
    index is a sum over treks to that index's nodes: a trek with path lengths
    l_1..l_k and total L contributes (r*zeta/k)**(L+1) * L! / prod(l_j!).
    Each entry is the exact polynomial of _trek_polynomials, shared with the
    polytree witness, evaluated at zeta in floating point in ascending
    degree.

    The non-loop part of the graph must be acyclic, and r and zeta are
    checked as in special_drift_matrix.
    """
    _check_special_parametrization(graph, r, zeta)
    numerators, denominator = _trek_polynomials(graph, k, r)
    values = [
        sum(float(Fraction(c, denominator)) * zeta**deg for deg, c in enumerate(column) if c)
        for column in numerators.T
    ]
    return SymmetricTensor(graph.d, k, np.array(values))
