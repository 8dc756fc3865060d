"""Slow, independent references the tests check the package against.

Nothing here is used by the package itself: the dense Kronecker-sum form of
the cumulant operator, the first-index-fastest vectorisation it acts on, a
dense expansion of a symmetric tensor, a quadrature of the
matrix-exponential integral form of the solution, the loop versions of
the two unique-entry operators, the steady-state sampler's former
complex-arithmetic kernel and its former single-pass real kernel, together
with a replay of its random draws, and
the witness determinant's former route through exact rational evaluations
on an integer grid and interpolation, one trek polynomial summed by brute
force over path-length tuples, the per-index set-partition loops of
the cumulant layer (moments to cumulants and back, the cumulant Jacobian and
the population covariance built on them), the full (n, features) monomial
feature matrix with its means and np.cov covariance, a nonparametric
bootstrap of that covariance, the n-mode product of a dense tensor with
a matrix, and the identifiability checks' former trial-by-trial loops, with
their own copy of the random model draw.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

import numpy as np
import scipy.integrate
import scipy.linalg

from cumulyap.coefficients import (
    STABLE_DRAW_TRIES,
    assemble_system,
    drift_coefficient_matrix,
    numerical_rank,
)
from cumulyap.cumulants import (
    empirical_cumulants,
    set_partitions,
    stack_unique,
    stacked_labels,
)
from cumulyap.lyapunov import ModelParameters, forward_map, is_stable, solve_lyapunov
from cumulyap.sampling import CHUNK_DRAWS, TRUNCATION_TOL
from cumulyap.tensors import SymmetricTensor, canonical_index, unique_indices


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


def n_mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract `mode` of a dense tensor with the columns of a matrix.

    (T x_n M)[..., j, ...] = sum_i M[j, i] * T[..., i, ...] with j in axis
    `mode` (0-based) of the result.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    out = np.tensordot(matrix, tensor, axes=(1, mode))
    return np.moveaxis(out, 0, mode)


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


def sparse_model_loop(graph, orders, rng) -> ModelParameters:
    """random_sparse_model as one draw: the stability redraws, then each
    order's noise diagonal, signed for odd orders."""
    d = graph.d
    for _ in range(STABLE_DRAW_TRIES):
        M = np.where(graph.drift_mask(), rng.uniform(-1.0, 1.0, (d, d)), 0.0)
        for i in graph.self_loop_nodes():
            M[i, i] -= 2.0 * d
        if is_stable(M):
            break
    else:
        raise RuntimeError("found no stable drift for this sparsity pattern")
    noise = {}
    for k in sorted(orders):
        entries = rng.uniform(0.5, 2.0, d)
        if k % 2:
            entries *= rng.choice([-1.0, 1.0], d)
        noise[k] = SymmetricTensor.from_diagonal(entries, k)
    return ModelParameters(M, noise)


def generic_ranks_loop(graph, r: int, n_trials: int, seed) -> list[int]:
    """generic_identifiability_check's ranks, one model, solve and SVD per trial."""
    rng = np.random.default_rng(seed)
    return [
        numerical_rank(assemble_system(forward_map(sparse_model_loop(graph, [2, r], rng))))
        for _ in range(n_trials)
    ]


def known_noise_ranks_loop(graph, r: int, n_trials: int, seed) -> list[int]:
    """known_noise_identifiability_check's ranks, one trial at a time."""
    edges = sorted(graph.edges)
    rows = [canonical_index((src,) * (r - 1) + (dst,)) for src, dst in edges]
    rng = np.random.default_rng(seed)
    ranks = []
    for _ in range(n_trials):
        params = sparse_model_loop(graph, [r], rng)
        kappa = solve_lyapunov(params.drift, params.noise[r])
        ranks.append(numerical_rank(drift_coefficient_matrix(kappa, rows=rows, columns=edges)))
    return ranks


def steady_state_jumps(M, levy, n: int, seed=None):
    """Replay of sample_steady_state's random draws, one tuple per chunk.

    Yields (start, counts, times, coords, sizes): the chunk's first draw, the
    number of jumps in each of its draws, then the time, coordinate and size
    of every jump, drawn in the sampler's order from its per-chunk streams.
    """
    delta = np.linalg.eig(np.asarray(M, dtype=float))[0]
    horizon = np.log(TRUNCATION_TOL) / np.max(delta.real)
    total_rate = float(levy.rates.sum())
    starts = range(0, n, CHUNK_DRAWS)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for start, stream in zip(starts, root.spawn(len(starts))):
        rng = np.random.default_rng(stream)
        counts = rng.poisson(total_rate * horizon, size=min(CHUNK_DRAWS, n - start))
        total = int(counts.sum())
        times = rng.uniform(0.0, horizon, total)
        coords = rng.choice(levy.d, size=total, p=levy.rates / total_rate)
        sizes = levy.jumps.sample(rng, total)
        yield start, counts, times, coords, sizes


def complex_eigen_sampler(M, levy, n: int, seed=None):
    """sample_steady_state with the kernel it had before its real rewrite.

    Same eigendecomposition, horizon and random draws; every eigenvalue's
    weight exp(s delta_l) Q^-1[l, c] J is formed in complex arithmetic and
    accumulated per draw with np.add.at, and the real part of the mapped sum
    is kept.
    """
    M = np.asarray(M, dtype=float)
    delta, Q = np.linalg.eig(M)
    Qinv = np.linalg.inv(Q)
    out = np.empty((n, M.shape[0]))
    for start, counts, times, coords, sizes in steady_state_jumps(M, levy, n, seed):
        m = counts.size
        weights = np.exp(np.outer(times, delta)) * Qinv[:, coords].T
        weights *= sizes[:, None]
        accum = np.zeros((m, M.shape[0]), dtype=weights.dtype)
        np.add.at(accum, np.repeat(np.arange(m), counts), weights)
        out[start : start + m] = (accum @ Q.T).real
    return out


def single_pass_real_sampler(M, levy, n: int, seed=None):
    """sample_steady_state with the real kernel it had before it used blocks.

    Same eigendecomposition, horizon, random draws and real columns; each
    chunk weighs all its jumps at once and sums every column per draw with
    one np.bincount over the whole chunk.
    """
    M = np.asarray(M, dtype=float)
    delta, Q = np.linalg.eig(M)
    Qinv = np.linalg.inv(Q)
    real, upper = delta.imag == 0, delta.imag > 0
    real_rates, real_left = delta[real].real, Qinv[real].real
    pair_rates, pair_left = delta[upper], Qinv[upper]
    basis = np.vstack(
        [Q[:, real].real.T, 2.0 * Q[:, upper].real.T, -2.0 * Q[:, upper].imag.T]
    )
    out = np.empty((n, M.shape[0]))
    for start, counts, times, coords, sizes in steady_state_jumps(M, levy, n, seed):
        m = counts.size
        real_terms = np.exp(np.outer(real_rates, times)) * real_left[:, coords] * sizes
        pair_terms = np.exp(np.outer(pair_rates, times)) * pair_left[:, coords] * sizes
        draw = np.repeat(np.arange(m), counts)
        sums = [
            np.bincount(draw, column, minlength=m)
            for column in (*real_terms, *pair_terms.real, *pair_terms.imag)
        ]
        out[start : start + m] = np.column_stack(sums) @ basis
    return out


def fraction_det(matrix) -> Fraction:
    """Exact determinant of a Fraction matrix by Bareiss-style elimination."""
    n = len(matrix)
    A = [row[:] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) / prev
            A[i][k] = Fraction(0)
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def interpolate_fractions(xs, ys) -> list[Fraction]:
    """Monomial coefficients of the polynomial through the given points."""
    n = len(xs)
    newton = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        shifted = [Fraction(0)] * (n + 1)
        for p in range(n):
            if poly[p]:
                shifted[p + 1] += poly[p]
                shifted[p] -= poly[p] * xs[i]
        shifted[0] += newton[i]
        poly = shifted
    return poly[:n]


def interpolated_witness_determinant(entries) -> dict[int, Fraction]:
    """Determinant of a matrix of rational polynomials, leading term positive.

    Evaluates the entries at zeta = 1 .. degree_bound + 1, takes an exact
    Fraction determinant at each point and interpolates the values.
    """
    degree_bound = sum(
        max((max(poly, default=0) for poly in row), default=0) for row in entries
    )
    xs = [Fraction(z) for z in range(1, degree_bound + 2)]
    ys = [
        fraction_det(
            [
                [sum((c * x**deg for deg, c in poly.items()), Fraction(0)) for poly in row]
                for row in entries
            ]
        )
        for x in xs
    ]
    coeffs = interpolate_fractions(xs, ys)
    leading = next((c for c in reversed(coeffs) if c), None)
    if leading is not None and leading < 0:
        coeffs = [-c for c in coeffs]
    return {deg: c for deg, c in enumerate(coeffs) if c}


def trek_polynomial_by_enumeration(graph, index, r) -> dict[int, Fraction]:
    """Trek polynomial of one index of the special parametrization.

    For every top and every tuple (l_1..l_k) of path lengths below d, the
    number of path tuples from the top to the index's nodes with those
    lengths is the product of per-node path counts, each found by walking
    the non-loop edges; each such trek adds (r/k)^(L+1) L! / prod(l_j!) at
    degree L + 1, with L = sum(l_j). The non-loop part must be acyclic.
    """
    d, k = graph.d, len(index)
    edges = set(graph.non_loop_edges())

    @lru_cache(maxsize=None)
    def count(src, dst, length):
        if length == 0:
            return int(src == dst)
        return sum(count(nxt, dst, length - 1) for nxt in range(d) if (src, nxt) in edges)

    poly: dict[int, Fraction] = {}
    for top in range(d):
        for lengths in product(range(d), repeat=k):
            n = prod(count(top, t, l) for t, l in zip(index, lengths))
            if n:
                L = sum(lengths)
                weight = Fraction(factorial(L), prod(factorial(l) for l in lengths))
                poly[L + 1] = poly.get(L + 1, 0) + n * Fraction(r, k) ** (L + 1) * weight
    return poly


def cumulant_from_moments(index, moment) -> float:
    """Joint cumulant at `index` from a raw-moment lookup.

    `moment` maps a canonical index tuple (any length up to len(index)) to the
    raw moment of the corresponding coordinate product.
    """
    index = tuple(index)
    total = 0.0
    for partition in set_partitions(len(index)):
        term = (-1.0) ** (len(partition) - 1) * factorial(len(partition) - 1)
        for block in partition:
            term *= moment(tuple(sorted(index[p] for p in block)))
        total += term
    return total


def moment_from_cumulants(index, cumulant) -> float:
    """Raw moment at `index` from a joint-cumulant lookup (inverse map)."""
    index = tuple(index)
    total = 0.0
    for partition in set_partitions(len(index)):
        term = 1.0
        for block in partition:
            term *= cumulant(tuple(sorted(index[p] for p in block)))
        total += term
    return total


def cumulant_jacobian_loop(labels_out, labels_in, means: dict) -> np.ndarray:
    """Jacobian of stacked cumulants w.r.t. the monomial moment features."""
    pos = {idx: j for j, idx in enumerate(labels_in)}
    J = np.zeros((len(labels_out), len(labels_in)))
    for row, (_, index) in enumerate(labels_out):
        for partition in set_partitions(len(index)):
            sign = (-1.0) ** (len(partition) - 1) * factorial(len(partition) - 1)
            block_keys = [
                tuple(sorted(index[p] for p in block)) for block in partition
            ]
            values = [means[key] for key in block_keys]
            for b, key in enumerate(block_keys):
                rest = sign
                for bb, val in enumerate(values):
                    if bb != b:
                        rest *= val
                J[row, pos[key]] += rest
    return J


def population_omega_loop(cumulants, orders) -> np.ndarray:
    """population_omega's matrix with every moment and Jacobian entry looped."""
    orders = sorted(int(k) for k in orders)
    top = max(orders)
    d = cumulants[orders[0]].d
    moment_cache: dict[tuple[int, ...], float] = {}

    def moment(index: tuple[int, ...]) -> float:
        if index not in moment_cache:
            moment_cache[index] = moment_from_cumulants(
                index, lambda sub: cumulants[len(sub)][sub]
            )
        return moment_cache[index]

    feat_labels = [idx for j in range(1, top + 1) for idx in unique_indices(d, j)]
    p = len(feat_labels)
    S = np.empty((p, p))
    for i, v in enumerate(feat_labels):
        for j, w in enumerate(feat_labels[: i + 1]):
            S[i, j] = S[j, i] = moment(tuple(sorted(v + w))) - moment(v) * moment(w)
    means = {idx: moment(idx) for idx in feat_labels}
    J = cumulant_jacobian_loop(stacked_labels(d, orders), feat_labels, means)
    return J @ S @ J.T


def feature_matrix_full(samples: np.ndarray, max_order: int, dtype=float) -> np.ndarray:
    """Monomial features of every row, (n, features) in stacked order.

    One product over a fancy-index copy of the sample per feature, in
    `dtype` arithmetic.
    """
    samples = np.asarray(samples, dtype=dtype)
    labels = stacked_labels(samples.shape[1], range(1, max_order + 1))
    return np.column_stack([np.prod(samples[:, list(idx)], axis=1) for _, idx in labels])


def feature_moments_full(samples: np.ndarray, max_order: int):
    """Means and np.cov sample covariance of the full feature matrix."""
    F = feature_matrix_full(samples, max_order)
    return F.mean(axis=0), np.atleast_2d(np.cov(F, rowvar=False, ddof=1))


def empirical_raw_moment(samples: np.ndarray, index) -> float:
    """Sample mean of the coordinate product picked out by `index`."""
    samples = np.asarray(samples, dtype=float)
    return float(np.prod(samples[:, list(index)], axis=1).mean())


def bootstrap_omega(
    samples: np.ndarray, orders, n_boot: int = 200, seed=None
) -> np.ndarray:
    """Nonparametric bootstrap of estimate_omega's sqrt(n)-scaled covariance."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_boot):
        resampled = samples[rng.integers(0, n, size=n)]
        draws.append(stack_unique(empirical_cumulants(resampled, orders)))
    return n * np.cov(np.asarray(draws), rowvar=False, ddof=1)
