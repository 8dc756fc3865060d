"""Coefficient matrices of the drift in the steady-state cumulant equations,
rank-based identifiability checks, and an exact polytree rank certificate.

The order-k cumulant equation is linear in the drift once the state cumulant
tensor K is fixed: row idx reads

    sum over slots s, targets a of M[idx[s], a] * K[idx with slot s -> a]
        + C_k[idx] = 0.

Collecting coefficients of the drift entries gives the matrix built by
drift_coefficient_matrix. Rows whose index mixes at least two coordinates
(_noise_free_rows) have C_k entry zero when the driving noise has independent
coordinates, so those rows annihilate vec(M); stacking them across orders and
asking for rank d*d - 1 is the identifiability check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod

import numpy as np

from .graphs import (
    DirectedGraph,
    connected_components,
    spanning_polytree,
    topological_order,
)
from .lyapunov import (
    ModelParameters,
    _solve_stacked,
    _trek_polynomials,
    is_stable,
    solve_lyapunov,
    trek_closed_form,
)
from .tensors import (
    SymmetricTensor,
    _integer,
    _position_lookup,
    canonical_index,
    slot_replacements,
    unique_indices,
)

__all__ = [
    "all_edges",
    "drift_coefficient_matrix",
    "CoefficientSystem",
    "assemble_system",
    "numerical_rank",
    "random_sparse_model",
    "generic_identifiability_check",
    "known_noise_identifiability_check",
    "det_expansion_coefficient",
    "det_expansion_identity_holds",
    "WitnessReport",
    "witness_matrix",
    "polytree_rank_witness",
    "witness_lowest_degree",
    "witness_lowest_coefficient_magnitude",
]

STABLE_DRAW_TRIES = 500
# The identifiability checks run their trials in groups whose Lyapunov
# operators hold at most this many float entries (2 MiB).
STACK_ELEMENTS = 1 << 18


def all_edges(d: int) -> list[tuple[int, int]]:
    """All d*d edges (src, dst), ordered to match vec of the drift matrix.

    Column p of a coefficient matrix over these edges multiplies vec(M)[p]
    where vec stacks M column by column (first index fastest), since edge
    (src, dst) corresponds to the entry M[dst, src].
    """
    return [(src, dst) for src in range(d) for dst in range(d)]


@lru_cache(maxsize=None)
def _noise_free_rows(d: int, k: int) -> np.ndarray:
    """Positions in unique_indices(d, k) of the indices touching two or more
    coordinates: the order-k rows whose noise entry vanishes when the noise
    coordinates are independent. Read-only, since every caller shares it.
    """
    # a nondecreasing index touches two coordinates when its ends differ
    rows = np.flatnonzero([idx[0] != idx[-1] for idx in unique_indices(d, k)])
    rows.flags.writeable = False
    return rows


def drift_coefficient_matrix(
    kappa: SymmetricTensor, rows=None, columns=None
) -> np.ndarray:
    """Coefficient matrix of the drift in the order-k cumulant equation.

    Row labels are canonical index tuples (default: all unique indices of the
    tensor's order); column labels are edges (src, dst) (default: all_edges).
    The entry at (idx, (src, dst)) is count(idx, dst) times the kappa entry at
    idx with one dst replaced by src, zero when dst does not occur in idx.
    For every drift M it satisfies

        drift_coefficient_matrix(K) @ vec(M)
            == lyapunov_operator_matrix(M, k) @ K.vec_unique().
    """
    return _coefficient_rows(kappa.values, kappa.d, kappa.k, rows, columns)


def _coefficient_rows(values: np.ndarray, d: int, k: int, rows=None, columns=None):
    """drift_coefficient_matrix over a stack of unique-entry vectors (..., N).

    Returns (..., rows, columns), with the labels of drift_coefficient_matrix,
    in the dtype of `values`: an object array of Python ints stays exact.
    """
    row, a, j, col = slot_replacements(d, k).T
    A = np.zeros(values.shape[:-1] + (len(unique_indices(d, k)), d * d), dtype=values.dtype)
    np.add.at(A, (..., row, j * d + a), values[..., col])
    if rows is not None:
        pos = _position_lookup(d, k)
        A = A[..., [pos[canonical_index(idx)] for idx in rows], :]
    if columns is not None:
        A = A[..., [src * d + dst for src, dst in columns]]
    return A


@dataclass
class CoefficientSystem:
    """A coefficient matrix: the square witness system of witness_matrix."""

    matrix: np.ndarray


def assemble_system(cumulants: dict[int, SymmetricTensor]) -> np.ndarray:
    """Stack the noise-free drift coefficient rows over the cumulant orders.

    Keeps, per order k, the rows of _noise_free_rows(d, k), in increasing
    order: their noise entry vanishes under independent noise coordinates,
    so they are exactly the rows annihilating vec(M). Columns are all_edges.
    """
    if not cumulants:
        raise ValueError("need at least one cumulant order")
    d = next(iter(cumulants.values())).d
    return _noise_free_system({k: kappa.values for k, kappa in cumulants.items()}, d)


def _noise_free_system(values: dict[int, np.ndarray], d: int) -> np.ndarray:
    """assemble_system over stacks: order -> unique cumulant entries (..., N_k)."""
    blocks = [
        _coefficient_rows(values[k], d, k)[..., _noise_free_rows(d, k), :] for k in sorted(values)
    ]
    return np.concatenate(blocks, axis=-2)


def _rank_cutoff(shape) -> float:
    """Relative singular-value cutoff behind every rank decision.

    1000 times looser than machine noise for the matrix size, which separates
    the tiny-but-structural singular values of these cumulant systems from
    genuine rank drops. numerical_rank and the estimator's fit
    (estimation._fit) both apply it through _above_cutoff.
    """
    return max(shape) * np.finfo(float).eps * 1e3


def _above_cutoff(sv: np.ndarray, shape) -> np.ndarray:
    """Which of the descending singular values `sv` (last axis) count toward the rank."""
    return sv > _rank_cutoff(shape) * sv[..., :1]


def numerical_rank(matrix: np.ndarray):
    """Rank by singular values above _rank_cutoff times the largest one.

    A stack of matrices (..., m, n) gets one rank per matrix, as an integer
    array; a single matrix gets an int.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    shape = matrix.shape[-2:]
    if 0 in shape:
        ranks = np.zeros(matrix.shape[:-2], dtype=int)
    else:
        # an all-zero matrix gets rank 0: no singular value exceeds cutoff * 0
        sv = np.linalg.svd(matrix, compute_uv=False)
        ranks = np.sum(_above_cutoff(sv, shape), axis=-1)
    return int(ranks) if matrix.ndim == 2 else ranks


def _check_stable_drift_exists(graph: DirectedGraph) -> None:
    """Raise ValueError when no drift on the graph can be stable.

    Ordered by the strongly connected parts of its edges, a drift is block
    triangular, and a part with no self-loop has a diagonal block of trace 0,
    hence an eigenvalue of real part >= 0: for a node on no directed cycle,
    the eigenvalue 0.
    """
    reach = np.identity(graph.d, dtype=bool) | graph.drift_mask().T
    for _ in range(graph.d.bit_length()):
        reach = reach | reach @ reach
    loops = set(graph.self_loop_nodes())
    for node in range(graph.d):
        part = np.flatnonzero(reach[node] & reach[:, node])
        if not loops.intersection(part.tolist()):
            where = (
                f"node {node + 1} has no self-loop and lies on no directed cycle, "
                "so every drift has the eigenvalue 0"
                if len(part) == 1
                else f"nodes {', '.join(str(i + 1) for i in part)} lie on directed "
                "cycles with no self-loop among them, so the drift's block on them has trace 0"
            )
            raise ValueError(f"no drift on this graph is stable: {where}")


def _draw_models(graph: DirectedGraph, orders, rng, n: int):
    """n random stable drifts respecting the graph, with diagonal noise.

    Returns the drifts (n, d, d) and, per sorted order k, the unique entries
    (n, N) of the diagonal noise tensors. The n drifts come first, from one
    rng.uniform(-1, 1) call; the unstable ones are redrawn together, round by
    round, at most STABLE_DRAW_TRIES draws each. Then each order takes one
    rng.uniform(0.5, 2) call for its magnitudes and, when odd, one
    rng.choice([-1, 1]) call for its signs. So n = 1 takes the stream of
    one draw-by-draw model, and rng may be any numpy Generator or
    RandomState.
    """
    d = graph.d
    orders = sorted(_integer(k, "cumulant order") for k in orders)
    _check_stable_drift_exists(graph)
    mask = graph.drift_mask()
    loops = graph.self_loop_nodes()

    def draw(m):
        M = np.where(mask, rng.uniform(-1.0, 1.0, (m, d, d)), 0.0)
        M[:, loops, loops] -= 2.0 * d
        return M

    drifts = draw(n)
    redraw = np.arange(n)
    for tries in range(1, STABLE_DRAW_TRIES + 1):
        redraw = redraw[~is_stable(drifts[redraw])]
        if not len(redraw):
            break
        if tries == STABLE_DRAW_TRIES:
            edges = ", ".join(f"{a + 1}->{b + 1}" for a, b in sorted(graph.edges))
            raise RuntimeError(
                f"found no stable drift for this sparsity pattern in {tries} draws "
                f"on the edges {edges}; the pattern may admit no stable drift at "
                "all, e.g. when a coefficient of the characteristic polynomial "
                "vanishes identically"
            )
        drifts[redraw] = draw(len(redraw))
    noise = {k: np.zeros((n, len(unique_indices(d, k)))) for k in orders}
    for k in orders:
        entries = rng.uniform(0.5, 2.0, (n, d))
        if k % 2:
            entries *= rng.choice([-1.0, 1.0], (n, d))
        noise[k][:, [_position_lookup(d, k)[(i,) * k] for i in range(d)]] = entries
    return drifts, noise


def random_sparse_model(graph: DirectedGraph, orders, rng) -> ModelParameters:
    """Random stable drift respecting the graph, with diagonal noise tensors.

    Off-pattern entries are zero; allowed entries are uniform on [-1, 1] with
    the diagonal pushed down by 2 d on self-loop nodes, redrawing until the
    drift is stable, at most STABLE_DRAW_TRIES times. Noise tensors are
    diagonal with magnitudes in [0.5, 2], signed at random for odd orders.
    rng is any numpy Generator or RandomState; the model is one draw-by-draw
    model of its rng.uniform and rng.choice calls (_draw_models with n = 1).
    """
    drifts, noise = _draw_models(graph, orders, rng, 1)
    return ModelParameters(
        drifts[0], {k: SymmetricTensor(graph.d, k, C[0]) for k, C in noise.items()}
    )


def _trial_groups(n_trials: int, d: int, k: int) -> list[slice]:
    """The groups of trials solved together: each group's order-k operators
    (N x N per trial) hold at most STACK_ELEMENTS entries, one trial at least."""
    size = max(1, STACK_ELEMENTS // len(unique_indices(d, k)) ** 2)
    return [slice(start, start + size) for start in range(0, n_trials, size)]


def _trial_ranks(graph: DirectedGraph, orders, n_trials: int, seed, system) -> list[int]:
    """Ranks of n_trials random models' systems, one trial at a time.

    All trials are drawn in one _draw_models call, then solved and ranked as
    stacks in the groups of _trial_groups for the top order, each group's
    orders by one _solve_stacked call (one eigen-decomposition); system maps a
    group's solved cumulants, order -> unique entries (trials, N_k), to its
    stack of matrices.
    """
    drifts, noise = _draw_models(graph, orders, np.random.default_rng(seed), n_trials)
    ranks = []
    for group in _trial_groups(n_trials, graph.d, max(orders)):
        kappas = _solve_stacked(drifts[group], {k: noise[k][group] for k in orders})
        ranks += numerical_rank(system(kappas)).tolist()
    return ranks


def _noise_order(r) -> int:
    """The higher cumulant order r of a check: an integer (numpy's too) r >= 3."""
    r = _integer(r, "noise order r")
    if r < 3:
        raise ValueError("need noise order r >= 3")
    return r


def generic_identifiability_check(
    graph: DirectedGraph,
    r: int,
    n_trials: int = 100,
    seed=None,
) -> dict:
    """Monte Carlo generic-rank check of the stacked off-diagonal system.

    Draws random models respecting the graph, forms the off-diagonal system
    for orders {2, r}, r >= 3, with all d*d columns, and records its rank.
    The rank can never exceed d*d minus the number of weakly connected
    components; hitting that bound on most of n_trials >= 1 draws certifies
    the generic rank. The trials are drawn, solved and ranked as stacks by
    _trial_ranks; the ranks are those of one trial at a time, whatever the
    grouping.
    """
    r = _noise_order(r)
    n_trials = _integer(n_trials, "trial count")
    if n_trials < 1:
        raise ValueError(f"need at least 1 trial, got {n_trials}")
    orders = [2, r]
    d = graph.d
    expected = d * d - len(connected_components(graph))
    ranks = _trial_ranks(
        graph, orders, n_trials, seed, lambda kappas: _noise_free_system(kappas, d)
    )
    achieved = sum(rank == expected for rank in ranks)
    return {
        "d": d,
        "edges": sorted([a + 1, b + 1] for a, b in graph.edges),
        "r": r,
        "orders": orders,
        "trials": n_trials,
        "ranks": ranks,
        "expected_rank": expected,
        "rank_bound_holds": all(rank <= expected for rank in ranks),
        "achieved_fraction": achieved / n_trials,
        "verdict": "maximal rank" if achieved >= 0.95 * n_trials else "rank deficient",
    }


def known_noise_identifiability_check(
    graph: DirectedGraph,
    r: int,
    n_trials: int = 100,
    seed=None,
) -> dict:
    """Identifiability of the drift when the order-r noise tensor is known.

    With the order-r noise known, the order-r equation rows indexed by
    (src repeated r-1 times, dst) for each edge give a square system in the
    graph's own edges. At any diagonal drift that square matrix has exactly
    one nonzero entry per row, with determinant equal to the product of the
    source-coordinate diagonal cumulants (times r per self-loop), so it is
    generically invertible for every graph with all self-loops. The report
    carries that closed-form certificate plus n_trials >= 0 random-draw ranks,
    stacked in groups as in generic_identifiability_check.
    """
    r = _noise_order(r)
    n_trials = _integer(n_trials, "trial count")
    if n_trials < 0:
        raise ValueError(f"need a nonnegative trial count, got {n_trials}")
    if not graph.has_all_self_loops():
        raise ValueError("the known-noise certificate needs all self-loops")
    d = graph.d
    edges = sorted(graph.edges)
    rows = [canonical_index((src,) * (r - 1) + (dst,)) for src, dst in edges]

    # Closed-form certificate at a distinct-diagonal drift with unit noise.
    M_diag = np.diag([-(1.0 + i) for i in range(d)])
    kappa = solve_lyapunov(M_diag, SymmetricTensor.identity(d, r))
    square = drift_coefficient_matrix(kappa, rows=rows, columns=edges)
    predicted = prod(
        (r if src == dst else 1.0) * kappa[(src,) * r] for src, dst in edges
    )
    certificate = bool(
        np.isclose(np.abs(np.linalg.det(square)), abs(predicted), rtol=1e-8)
        and abs(predicted) > 0.0
    )

    ranks = _trial_ranks(
        graph, [r], n_trials, seed,
        lambda kappas: _coefficient_rows(kappas[r], d, r, rows, edges),
    )
    achieved = sum(rank == len(edges) for rank in ranks)
    return {
        "d": d,
        "edges": sorted([a + 1, b + 1] for a, b in edges),
        "r": r,
        "trials": n_trials,
        "ranks": ranks,
        "expected_rank": len(edges),
        "diagonal_certificate": certificate,
        "achieved_fraction": achieved / n_trials if n_trials else 0.0,
        "verdict": (
            "identifiable with known order-r noise"
            if certificate and (n_trials == 0 or achieved >= 0.95 * n_trials)
            else "inconclusive"
        ),
    }


def det_expansion_coefficient(d: int, q: int, i: int, r: int) -> Fraction:
    """Combinatorial weight in the witness determinant expansion.

    Counts sign-weighted ways to pick i columns, j of them among q marked
    ones with weight (r-1) each: sum over j of (r-1)^j C(q, j) C(d-1-q, i-j).
    """
    return Fraction(
        sum(
            (r - 1) ** j * comb(q, j) * comb(d - 1 - q, i - j)
            for j in range(0, min(i, q) + 1)
        )
    )


def det_expansion_identity_holds(d: int, q: int, r: int) -> bool:
    """Exact alternating-sum identity used to evaluate the witness determinant.

    sum_{i=0}^{d-1} (r/2)^(d-1-i) (-1)^i c(d, q, i) == (r/2 - 1)^(d-1) (-1)^q
    in exact rational arithmetic.
    """
    half_r = Fraction(r, 2)
    lhs = sum(
        half_r ** (d - 1 - i) * (-1) ** i * det_expansion_coefficient(d, q, i, r)
        for i in range(d)
    )
    rhs = (half_r - 1) ** (d - 1) * (-1) ** q
    return lhs == rhs


# -- exact polytree witness ---------------------------------------------------


def witness_lowest_degree(d: int) -> int:
    """Degree of the lowest-order term of the witness determinant."""
    return (d - 1) * (d + 2)


def witness_lowest_coefficient_magnitude(d: int, r: int) -> Fraction:
    """Magnitude of the witness determinant's lowest-degree coefficient."""
    half_r = Fraction(r, 2)
    return (
        half_r ** (d - 1)
        * abs(half_r - 1) ** (d - 1)
        * half_r ** (d * (d - 1) // 2 - (d - 1))
    )


def _witness_layout(graph: DirectedGraph, r: int):
    """Topologically relabeled spanning polytree plus witness row/column labels.

    The rows are order -> indices, order 2 first, as the system stacks them.
    """
    r = _noise_order(r)
    if not graph.has_all_self_loops():
        raise ValueError("the polytree witness needs all self-loops")
    polytree = spanning_polytree(graph)
    d = graph.d
    tree_edges = polytree.non_loop_edges()
    order = topological_order(polytree)
    position = {old: new for new, old in enumerate(order)}
    relabeled = DirectedGraph(
        d,
        [(position[a], position[b]) for a, b in tree_edges]
        + [(i, i) for i in range(d)],
    )
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rows = {
        2: pairs,
        r: [(i,) + (j,) * (r - 1) for i, j in pairs]
        + [(src,) * (r - 1) + (dst,) for src, dst in sorted(relabeled.non_loop_edges())],
    }
    cols = [edge for edge in all_edges(d) if edge != (0, 0)]
    return relabeled, order, rows, cols


def _witness_entries(relabeled: DirectedGraph, rows, cols, r: int):
    """The witness system as exact polynomials in zeta: (entries, denominators).

    entries is an object array of ints (degree, rows, columns), and
    entries[deg, i, j] / denominators[i] is the zeta^deg coefficient of entry
    (i, j): per order, the _coefficient_rows scatter of the _trek_polynomials
    numerators, the rows that witness_matrix evaluates in floating point.
    """
    d = relabeled.d
    entries = np.zeros((r * (d - 1) + 2, sum(map(len, rows.values())), len(cols)), dtype=object)
    denominators: list[int] = []
    for k, indices in rows.items():
        numerators, denominator = _trek_polynomials(relabeled, k, r)
        block = _coefficient_rows(numerators, d, k, indices, cols)
        entries[: len(block), len(denominators) : len(denominators) + len(indices)] = block
        denominators += [denominator] * len(indices)
    return entries, denominators


def witness_matrix(graph: DirectedGraph, r: int, zeta: float) -> CoefficientSystem:
    """Float evaluation of the square witness system at one zeta value.

    Rows pair every coordinate couple at orders 2 and r and add one order-r
    row per polytree edge; columns are all edges except the first self-loop,
    both in the topological relabeling (see polytree_rank_witness). The
    entries are the drift_coefficient_matrix rows at the trek_closed_form
    cumulants of the relabeled polytree, so zeta must be positive and finite.
    """
    relabeled, _, rows, cols = _witness_layout(graph, r)
    blocks = [
        drift_coefficient_matrix(trek_closed_form(relabeled, k, r, zeta), indices, cols)
        for k, indices in rows.items()
    ]
    return CoefficientSystem(np.vstack(blocks))


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by Bareiss elimination with row pivoting.

    Every division is exact, since each updated entry is a minor of the
    input (Sylvester's identity). The empty matrix has determinant 1.
    """
    A = [row[:] for row in matrix]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if A[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        top, akk = A[k], A[k][k]
        for row in A[k + 1 :]:
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * akk - aik * top[j]) // prev
        prev = akk
    return sign * prev


def _polynomial_det(entries: np.ndarray, denominators) -> dict[int, Fraction]:
    """Exact determinant of a square matrix of rational polynomials in zeta.

    entries[deg, i, j] / denominators[i] is the zeta^deg coefficient of entry
    (i, j), with entries an object array of ints (degree, n, n). Each row is
    divided by the gcd of its coefficients and by its lowest power of zeta.
    No coefficient of the remaining integer determinant exceeds bound = prod
    over rows of the summed l1 norms of the row's entries (|pq|_1 <=
    |p|_1 |q|_1, and a determinant coefficient is at most the permanent's),
    so evaluating every entry at zeta = 2^B with 2^B > 4 bound and taking
    one integer Bareiss determinant packs the coefficients as signed base-2^B
    digits. Returns degree -> coefficient, zero coefficients omitted; the
    zero polynomial is the empty dict.
    """
    scale, shift = Fraction(1), 0
    rows = []
    for i, denominator in enumerate(denominators):
        row = entries[:, i, :]
        common = gcd(*row.flat)
        if not common:
            return {}  # an all-zero row
        low = next(deg for deg, terms in enumerate(row) if any(terms))
        rows.append((row[low:] // common).T.tolist())  # per entry, ascending degree
        scale *= Fraction(common, denominator)
        shift += low
    bound = prod(sum(abs(c) for poly in row for c in poly) for row in rows)
    B = (4 * bound).bit_length()
    det = _bareiss_det(
        [[sum(c << (B * deg) for deg, c in enumerate(poly) if c) for poly in row] for row in rows]
    )
    poly: dict[int, Fraction] = {}
    half, mask = 1 << (B - 1), (1 << B) - 1
    deg = shift
    while det:
        digit = det & mask
        if digit >= half:
            digit -= 1 << B
        if digit:
            poly[deg] = digit * scale
        det = (det - digit) >> B
        deg += 1
    return poly


@dataclass
class WitnessReport:
    """Exact witness determinant and the rank conclusion it certifies.

    The determinant is reported as degree -> coefficient with the leading
    coefficient normalized positive. With that normalization the lowest
    coefficient comes out negative for chains d = 2..5, opposite in sign to
    the lemma's; lowest_term_matches compares the lowest degree and the
    coefficient's magnitude only. The witness system is built in the
    topological relabeling: new node i is original node relabeling[i].
    """

    determinant: dict[int, Fraction]
    lowest_degree: int | None
    lowest_coefficient: Fraction | None
    expected_lowest_degree: int
    expected_lowest_magnitude: Fraction
    lowest_term_matches: bool
    generically_identifiable: bool
    relabeling: list[int]


def polytree_rank_witness(graph: DirectedGraph, r: int) -> WitnessReport:
    """Exact rank certificate for a connected graph with all self-loops.

    Takes the graph's own spanning_polytree, which the graph always
    contains, so the certificate holds at a point of the graph's parameter
    space. The square witness system's entries are the cumulants of the
    special polytree parametrization as exact polynomials in zeta
    (_witness_entries), and _polynomial_det gives its determinant exactly.
    A nonzero polynomial certifies that the stacked off-diagonal system at
    orders {2, r} has the maximal rank d*d - 1 for generic parameters on any
    graph containing the polytree. A one-node graph has the empty system,
    determinant 1.
    """
    r = _noise_order(r)
    relabeled, order, rows, cols = _witness_layout(graph, r)
    determinant = _polynomial_det(*_witness_entries(relabeled, rows, cols, r))
    if determinant and determinant[max(determinant)] < 0:
        determinant = {deg: -c for deg, c in determinant.items()}
    lowest = min(determinant) if determinant else None
    expected_degree = witness_lowest_degree(graph.d)
    expected_magnitude = witness_lowest_coefficient_magnitude(graph.d, r)
    return WitnessReport(
        determinant=determinant,
        lowest_degree=lowest,
        lowest_coefficient=determinant[lowest] if lowest is not None else None,
        expected_lowest_degree=expected_degree,
        expected_lowest_magnitude=expected_magnitude,
        lowest_term_matches=(
            lowest == expected_degree
            and abs(determinant[lowest]) == expected_magnitude
        ),
        generically_identifiable=bool(determinant),
        relabeling=order,
    )
