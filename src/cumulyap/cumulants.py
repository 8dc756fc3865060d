"""Multivariate cumulants: the moment-cumulant recursion, empirical
estimates, and the asymptotic covariance of the stacked cumulant estimator.

Cumulant tensors are stored as SymmetricTensor objects keyed by order. The
stacked coordinate vector concatenates the unique entries order by order
(increasing order, lexicographic indices within an order); every consumer of
that vector uses stacked_labels for the coordinate meaning.

Split an index I into the block holding its first slot and the rest: the raw
moment is m(I) = sum over subsets S of the other slots of
kappa(first slot and S) * m(the remaining slots), with m of the empty index
1. The term with every slot in the block is kappa(I), so the same line gives
cumulants from moments or moments from cumulants, order by order, and
differentiated it gives the Jacobian of the cumulants. _split_table(d, k)
holds the 2^(k-1) - 1 other terms of every order-k index as stacked
positions; each of the three is a few vectorised operations over it.

On the data side, the estimators need only the means of the monomial
features x_v = prod_i x_{v_i} and, for the delta method, their covariance.
Both come from one pass over the samples in blocks of BLOCK_ROWS rows: each
block's features are built as prefix products (an order-j feature is its
order-(j-1) prefix times one column, after the cached _prefix_table) and
folded into shifted sums and cross-products, so no (n, features) matrix is
ever held.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb

import numpy as np

from .tensors import SymmetricTensor, _index_rank, _integer, unique_indices

__all__ = [
    "empirical_cumulants",
    "stacked_labels",
    "stack_unique",
    "OmegaEstimate",
    "estimate_omega",
    "population_omega",
    "beta_raw_moment",
    "compound_poisson_cumulants",
]

# rows of samples whose features are built and folded into the moments at once
BLOCK_ROWS = 4096


def _start(d: int, k: int) -> int:
    """Stacked position of the first order-k entry: the number of entries of
    orders 1..k-1, comb(d + k - 1, k - 1) - 1."""
    return comb(d + k - 1, k - 1) - 1


@lru_cache(maxsize=None)
def _split_table(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails): the splits of every order-k canonical index, as
    stacked positions of shape (N_k, 2^(k-1) - 1).

    Column c is the subset S of slots 1..k-1 whose members s are the set
    bits s - 1 of c, so the columns are every proper subset (the full one
    would leave no tail): heads holds the position of the index at slot 0
    and S, tails its position at the other slots, each in the order-1..k-1
    stacked vector. Read-only, since every caller shares it.
    """
    index = np.array(unique_indices(d, k))
    columns = range(2 ** (k - 1) - 1)
    head_slots = [[0] + [s for s in range(1, k) if c >> (s - 1) & 1] for c in columns]
    heads = np.empty((len(index), len(columns)), dtype=np.intp)
    tails = np.empty_like(heads)
    # the columns whose heads have one size are ranked in one call per side
    for size in range(1, k):
        group = [c for c in columns if len(head_slots[c]) == size]
        head = np.array([head_slots[c] for c in group])
        tail = np.array([[s for s in range(k) if s not in head_slots[c]] for c in group])
        heads[:, group] = _start(d, size) + _index_rank(d, index[:, head])
        tails[:, group] = _start(d, k - size) + _index_rank(d, index[:, tail])
    heads.flags.writeable = False
    tails.flags.writeable = False
    return heads, tails


def _convert(values: np.ndarray, d: int, top: int, to_cumulants: bool) -> np.ndarray:
    """Stacked order-1..top cumulants from raw moments, or the reverse.

    `values` holds the other kind over orders 1..top or more. Order by order,
    m(I) = kappa(I) + sum over the splits of I of kappa[heads] * m[tails]
    (_split_table), whose terms read only lower orders.
    """
    out = np.array(values[: _start(d, top + 1)], dtype=float)
    kappa, moments = (out, values) if to_cumulants else (values, out)
    sign = -1.0 if to_cumulants else 1.0
    for k in range(2, top + 1):
        heads, tails = _split_table(d, k)
        terms = np.sum(kappa[heads] * moments[tails], axis=1)
        out[_start(d, k) : _start(d, k + 1)] += sign * terms
    return out


def _cumulants_at(means: np.ndarray, d: int, orders) -> dict[int, SymmetricTensor]:
    """Cumulant tensors of `orders` from stacked order-1..max raw moments."""
    kappa = _convert(means, d, max(orders), to_cumulants=True)
    return {k: SymmetricTensor(d, k, kappa[_start(d, k) : _start(d, k + 1)]) for k in orders}


@lru_cache(maxsize=None)
def _prefix_table(d: int, max_order: int) -> np.ndarray:
    """(parent, last) of every monomial feature, in stacked order.

    The feature of an order-j index (i_1, ..., i_j) is the feature of its
    prefix (i_1, ..., i_{j-1}) times column i_j: row r holds the prefix's
    stacked position, which comes before r (-1 for order 1, whose prefix is
    empty), and i_j, which is also the position of that column's feature.
    Read-only, since every caller shares it.
    """
    labels = [idx for _, idx in stacked_labels(d, range(1, max_order + 1))]
    position = {idx: r for r, idx in enumerate(labels)}
    table = np.array(
        [(position.get(idx[:-1], -1), idx[-1]) for idx in labels], dtype=np.intp
    )
    table.flags.writeable = False
    return table


def _feature_matrix(samples: np.ndarray, max_order: int) -> np.ndarray:
    """Monomial features of a block of rows, transposed: (features, rows).

    Features are in stacked order over orders 1..max_order, each the product
    of two earlier rows (see _prefix_table), so every product reads and
    writes contiguous rows.
    """
    d = samples.shape[1]
    table = _prefix_table(d, max_order)
    out = np.empty((len(table), samples.shape[0]))
    out[:d] = samples.T
    for r, (parent, last) in enumerate(table[d:].tolist(), d):
        np.multiply(out[parent], out[last], out=out[r])
    return out


def _feature_moments(samples, max_order: int, covariance: bool):
    """Means of the monomial features and, if asked, their sample covariance.

    One pass over blocks of BLOCK_ROWS rows. With c the first block's means
    and s the sum over rows of x - c, the means are c + s / n and the
    covariance is (sum (x - c)(x - c)^T - s s^T / n) / (n - 1): shifting by
    c keeps the precision of a two-pass covariance when the means are large
    against the spread (Chan, Golub & LeVeque 1979). Each block is checked
    for NaN and infinite values before its features are built, so no (n, d)
    mask is held and the error comes before any result. The covariance is
    None when not asked for. Every buffer is local, so threads may call this
    concurrently.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be an (n, d) array, got shape {samples.shape}")
    n = samples.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")

    def features(start: int) -> np.ndarray:
        block = samples[start : start + BLOCK_ROWS]
        if not np.isfinite(block).all():
            raise ValueError("samples contain NaN or infinite values")
        return _feature_matrix(block, max_order)

    blocks = map(features, range(0, n, BLOCK_ROWS))
    first = next(blocks)
    shift = first.mean(axis=1)
    sums = np.zeros_like(shift)
    cross = np.zeros((shift.size, shift.size)) if covariance else None
    for block in chain([first], blocks):
        block -= shift[:, None]
        sums += block.sum(axis=1)
        if covariance:
            cross += block @ block.T
    means = shift + sums / n
    if not covariance:
        return means, None
    return means, (cross - np.outer(sums, sums) / n) / (n - 1)


def _sorted_orders(orders) -> list[int]:
    """The requested cumulant orders, integers (numpy's too) of at least 1,
    as sorted ints; at least one of them."""
    orders = sorted(_integer(k, "cumulant order") for k in orders)
    if not orders:
        raise ValueError("need at least one cumulant order")
    if orders[0] < 1:
        raise ValueError(f"cumulant orders must be at least 1, got {orders}")
    return orders


def empirical_cumulants(samples: np.ndarray, orders) -> dict[int, SymmetricTensor]:
    """k-statistics-free plug-in cumulant tensors of the sample, by order."""
    orders = _sorted_orders(orders)
    means, _ = _feature_moments(samples, max(orders), covariance=False)
    return _cumulants_at(means, np.shape(samples)[1], orders)


def stacked_labels(d: int, orders) -> list[tuple[int, tuple[int, ...]]]:
    """Coordinate labels (order, index) of the stacked cumulant vector."""
    return [
        (k, idx)
        for k in sorted(_integer(k, "cumulant order") for k in orders)
        for idx in unique_indices(d, k)
    ]


def stack_unique(cumulants: dict[int, SymmetricTensor], orders=None) -> np.ndarray:
    """Concatenate unique entries over orders into the stacked vector."""
    if orders is None:
        orders = cumulants
    orders = sorted(_integer(k, "cumulant order") for k in orders)
    return np.concatenate([cumulants[k].vec_unique() for k in orders])


@dataclass
class OmegaEstimate:
    """Asymptotic covariance of sqrt(n) times the stacked cumulant estimator.

    `matrix` is aligned with stacked_labels over the requested orders;
    `cumulants` holds the cumulant tensors of the requested orders at the
    moments the covariance was evaluated at: the plug-in estimates for a
    sample, the given tensors for a population.
    """

    matrix: np.ndarray
    cumulants: dict[int, SymmetricTensor]


def _cumulant_jacobian(means: np.ndarray, d: int, orders) -> np.ndarray:
    """Jacobian of stacked cumulants w.r.t. the stacked monomial moments.

    The derivative of kappa(I) = m(I) - sum kappa[heads] * m[tails] (see
    _convert), taken order by order over every order up to the largest.
    """
    top = max(orders)
    kappa = _convert(means, d, top, to_cumulants=True)
    J = np.identity(means.size)
    for k in range(2, top + 1):
        heads, tails = _split_table(d, k)
        block = J[_start(d, k) : _start(d, k + 1)]
        block -= np.einsum("ns,nsp->np", means[tails], J[heads])
        np.add.at(block, (np.arange(len(block))[:, None], tails), -kappa[heads])
    rows = [np.arange(_start(d, k), _start(d, k + 1)) for k in orders]
    return J[np.concatenate(rows)]


def estimate_omega(samples: np.ndarray, orders) -> OmegaEstimate:
    """Delta-method estimate of the stacked cumulant covariance.

    Cumulants are smooth functions of the vector of monomial moment features;
    the estimator covariance is J S J^T with S the sample covariance of the
    features and J the analytic Jacobian at the empirical moments. The matrix
    returned is scaled for sqrt(n)-normalized errors (divide by n for the
    covariance of the plug-in estimate itself).
    """
    orders = _sorted_orders(orders)
    means, S = _feature_moments(samples, max(orders), covariance=True)
    d = np.shape(samples)[1]
    J = _cumulant_jacobian(means, d, orders)
    return OmegaEstimate(
        matrix=J @ S @ J.T,
        cumulants=_cumulants_at(means, d, orders),
    )


def population_omega(
    cumulants: dict[int, SymmetricTensor], orders
) -> OmegaEstimate:
    """Exact asymptotic covariance of the stacked cumulant estimator.

    `cumulants` must contain the population cumulant tensors of every order
    from 1 up to twice the largest requested order; the covariance of the
    monomial features is then available in closed form and the delta method
    needs no data.
    """
    orders = _sorted_orders(orders)
    top = max(orders)
    missing = [k for k in range(1, 2 * top + 1) if k not in cumulants]
    if missing:
        raise ValueError(f"need population cumulants of orders {missing}")
    d = cumulants[orders[0]].d
    every = range(1, 2 * top + 1)
    moments = _convert(stack_unique(cumulants, every), d, 2 * top, to_cumulants=False)
    pairs = _pair_table(d, top)
    means = moments[: len(pairs)]
    S = moments[pairs] - np.outer(means, means)
    J = _cumulant_jacobian(means, d, orders)
    return OmegaEstimate(
        matrix=J @ S @ J.T,
        cumulants={k: cumulants[k] for k in orders},
    )


@lru_cache(maxsize=None)
def _pair_table(d: int, top: int) -> np.ndarray:
    """Stacked position of the product of every two monomial features of
    orders 1..top, as a square table in stacked feature order.

    The product of the features of indices v and w is the feature of their
    sorted concatenation, so each block of two orders is one _index_rank call
    over the sorted concatenations of every pair. Read-only, since every
    caller shares it.
    """
    index = [np.array(unique_indices(d, j)) for j in range(1, top + 1)]

    def block(v: np.ndarray, w: np.ndarray) -> np.ndarray:
        joined = np.concatenate(
            [np.repeat(v, len(w), axis=0), np.tile(w, (len(v), 1))], axis=1
        )
        joined.sort(axis=1)
        rank = _start(d, joined.shape[1]) + _index_rank(d, joined)
        return rank.reshape(len(v), len(w))

    table = np.block([[block(v, w) for w in index] for v in index])
    table.flags.writeable = False
    return table


def beta_raw_moment(mu: float, nu: float, k: int) -> float:
    """k-th raw moment of a Beta law given by mean mu and precision nu.

    Shape parameters are (mu*nu, (1-mu)*nu), so the moment telescopes to
    prod_{r<k} (mu*nu + r) / (nu + r).
    """
    if not (0.0 < mu < 1.0 and nu > 0.0):
        raise ValueError("need 0 < mu < 1 and nu > 0")
    value = 1.0
    for r in range(k):
        value *= (mu * nu + r) / (nu + r)
    return value


def compound_poisson_cumulants(
    rates, jump_moment, orders
) -> dict[int, SymmetricTensor]:
    """Noise cumulant tensors of independent compound Poisson coordinates.

    Coordinate i jumps at rate rates[i] with i.i.d. jump sizes whose k-th raw
    moment is jump_moment(k). All cross entries vanish; the diagonal of the
    order-k tensor is rates * jump_moment(k).
    """
    rates = np.asarray(rates, dtype=float)
    orders = [_integer(k, "cumulant order") for k in orders]
    return {k: SymmetricTensor.from_diagonal(rates * jump_moment(k), k) for k in orders}
