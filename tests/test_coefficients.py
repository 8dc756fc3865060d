import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cumulyap import coefficients
from cumulyap.coefficients import (
    _coefficient_rows,
    _draw_models,
    _noise_free_rows,
    _polynomial_det,
    _trial_groups,
    _witness_entries,
    _witness_layout,
    all_edges,
    assemble_system,
    det_expansion_coefficient,
    det_expansion_identity_holds,
    drift_coefficient_matrix,
    generic_identifiability_check,
    known_noise_identifiability_check,
    numerical_rank,
    polytree_rank_witness,
    random_sparse_model,
    witness_lowest_coefficient_magnitude,
    witness_lowest_degree,
    witness_matrix,
)
from cumulyap.graphs import DirectedGraph
from cumulyap.lyapunov import (
    SingularSystemError,
    _solve_stacked,
    forward_map,
    is_stable,
    lyapunov_operator_matrix,
    solve_lyapunov,
    special_drift_matrix,
)
from cumulyap.tensors import SymmetricTensor, canonical_index, unique_indices
from oracles import (
    coefficient_matrix_loop,
    dense,
    generic_ranks_loop,
    interpolated_witness_determinant,
    known_noise_ranks_loop,
    n_mode_product,
    sparse_model_loop,
    vec,
)

TWO_CHAIN = DirectedGraph(2, [(0, 0), (1, 1), (0, 1)])
# the graph of test_witness_relabels_against_label_order
RELABELED = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (2, 0), (0, 1)])
FOUR_NODE_SPARSE = DirectedGraph.from_edge_list(
    4, ["1->1", "2->2", "3->3", "4->4", "1->3", "4->2", "3->4", "2->3", "3->2"]
)


def chain(d):
    return DirectedGraph(d, [(i, i) for i in range(d)] + [(i, i + 1) for i in range(d - 1)])


def witness_entries(graph, r):
    """The witness system's entries as degree -> Fraction dicts, row by row."""
    relabeled, _, rows, cols = _witness_layout(graph, r)
    entries, denominators = _witness_entries(relabeled, rows, cols, r)
    assert entries.dtype == object and entries.shape[1:] == (len(denominators), len(cols))
    return [
        [{deg: Fraction(c, den) for deg, c in enumerate(poly) if c} for poly in entries[:, i].T]
        for i, den in enumerate(denominators)
    ]


def two_chain_cumulants(zeta=1.0):
    M = special_drift_matrix(TWO_CHAIN, 3, zeta)
    return M, {
        2: solve_lyapunov(M, SymmetricTensor.identity(2, 2)),
        3: solve_lyapunov(M, SymmetricTensor.identity(2, 3)),
    }


def test_all_edges_order_matches_vec():
    assert all_edges(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # edge (src, dst) must sit at the vec position of M[dst, src]
    M = np.arange(9.0).reshape(3, 3)
    v = vec(M)
    for pos, (src, dst) in enumerate(all_edges(3)):
        assert v[pos] == M[dst, src]


def test_noise_free_rows_table():
    assert _noise_free_rows(2, 2).tolist() == [1]  # (0, 1)
    assert _noise_free_rows(2, 3).tolist() == [1, 2]  # (0, 0, 1), (0, 1, 1)
    for d, k in [(1, 3), (3, 2), (3, 3), (4, 4)]:
        rows = _noise_free_rows(d, k)
        indices = unique_indices(d, k)
        expected = [p for p, idx in enumerate(indices) if len(set(idx)) >= 2]
        assert rows.tolist() == expected
        assert len(rows) == comb(d + k - 1, k) - d
        # one shared table per (d, k), which no caller can change
        assert _noise_free_rows(d, k) is rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[...] = 0


def test_two_chain_coefficient_rows():
    # with unit diagonal noise the steady-state cumulants at zeta = 1 are
    # S = [[3/2, 9/4], [9/4, 33/4]] and K = (1, 1, 2, 7), giving these rows
    _, cums = two_chain_cumulants()
    A2 = drift_coefficient_matrix(cums[2], rows=[(0, 1)])
    assert np.allclose(A2[0], [9 / 4, 3 / 2, 33 / 4, 9 / 4])
    A3 = drift_coefficient_matrix(cums[3], rows=[(0, 0, 1), (0, 1, 1)])
    assert np.allclose(A3[0], [2.0, 1.0, 4.0, 1.0])
    assert np.allclose(A3[1], [2.0, 2.0, 7.0, 4.0])


def test_two_chain_rows_annihilate_drift():
    M, cums = two_chain_cumulants()
    A = assemble_system(cums)
    # the rows (0, 1) of order 2, then (0, 0, 1) and (0, 1, 1) of order 3
    expected = np.vstack(
        [
            drift_coefficient_matrix(cums[2], rows=[(0, 1)]),
            drift_coefficient_matrix(cums[3], rows=[(0, 0, 1), (0, 1, 1)]),
        ]
    )
    assert np.array_equal(A, expected)
    assert np.allclose(A @ vec(M), 0.0, atol=1e-12)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_dual_route_identity(d, k):
    # A_k(K) vec(M) equals B_k(M) applied to the unique entries of K
    from cumulyap.lyapunov import lyapunov_operator_matrix

    rng = np.random.default_rng(20)
    M = rng.normal(size=(d, d)) - 2 * d * np.eye(d)
    K = SymmetricTensor(d, k, rng.normal(size=len(unique_indices(d, k))))
    lhs = drift_coefficient_matrix(K) @ vec(M)
    rhs = lyapunov_operator_matrix(M, k) @ K.vec_unique()
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_coefficient_rows_keeps_exact_integers():
    # an object stack of Python ints past 2^64 is scattered without rounding
    d, k = 3, 3
    indices = unique_indices(d, k)
    rng = np.random.default_rng(31)
    values = np.array(
        [[(1 << 70) + int(v) for v in rng.integers(-1000, 1000, len(indices))] for _ in range(2)],
        dtype=object,
    )
    got = _coefficient_rows(values, d, k)
    assert got.dtype == object and got.shape == (2, len(indices), d * d)
    position = {idx: p for p, idx in enumerate(indices)}
    for t in range(2):
        for p, idx in enumerate(indices):
            for c, (src, dst) in enumerate(all_edges(d)):
                count = idx.count(dst)
                replaced = list(idx)
                if count:
                    replaced[idx.index(dst)] = src
                expected = count * values[t, position[canonical_index(replaced)]]
                assert type(got[t, p, c]) is int and got[t, p, c] == expected


@pytest.mark.parametrize("d,k", [(1, 3), (2, 2), (2, 5), (3, 3), (4, 2), (4, 4)])
def test_coefficient_matrix_matches_mode_products(d, k):
    # A_k(K) vec(M) is the mode-product sum of K with M, read at canonical indices
    rng = np.random.default_rng(23)
    M = rng.normal(size=(d, d))
    K = SymmetricTensor(d, k, rng.normal(size=len(unique_indices(d, k))))
    image = sum(n_mode_product(dense(K), M, mode) for mode in range(k))
    expected = np.array([image[idx] for idx in unique_indices(d, k)])
    lhs = drift_coefficient_matrix(K) @ vec(M)
    assert np.allclose(lhs, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))


def test_coefficient_matrix_matches_loop():
    rng = np.random.default_rng(24)
    K = SymmetricTensor(3, 3, rng.normal(size=len(unique_indices(3, 3))))
    rows = [(2, 0, 1), (1, 1, 1), (0, 2, 2), (2, 0, 1)]
    columns = [(2, 1), (0, 0), (1, 2), (2, 2), (1, 0)]
    expected = coefficient_matrix_loop(K, [tuple(sorted(r)) for r in rows], columns)
    got = drift_coefficient_matrix(K, rows=rows, columns=columns)
    assert np.allclose(got, expected, rtol=1e-15, atol=0.0)
    full = coefficient_matrix_loop(K, unique_indices(3, 3), all_edges(3))
    assert np.allclose(drift_coefficient_matrix(K), full, rtol=1e-15, atol=0.0)


def test_assemble_system_full_rows_satisfy_balance():
    # full-row system: A vec(M) + stacked noise entries = 0 exactly
    rng = np.random.default_rng(21)
    graph = DirectedGraph.complete(3)
    params = random_sparse_model(graph, [2, 3], rng)
    cums = forward_map(params)
    full = np.vstack([drift_coefficient_matrix(cums[k]) for k in sorted(cums)])
    stacked_noise = np.concatenate(
        [params.noise[k].vec_unique() for k in sorted(params.noise)]
    )
    assert np.allclose(full @ vec(params.drift) + stacked_noise, 0.0, atol=1e-9)


def test_assemble_system_off_diagonal_kernel():
    rng = np.random.default_rng(22)
    graph = DirectedGraph.complete(3)
    params = random_sparse_model(graph, [2, 3], rng)
    A = assemble_system(forward_map(params))
    assert A.shape == (comb(4, 2) - 3 + comb(5, 3) - 3, 9)
    assert np.allclose(A @ vec(params.drift), 0.0, atol=1e-9)


def test_numerical_rank():
    assert numerical_rank(np.diag([3.0, 2.0, 0.0])) == 2
    assert numerical_rank(np.outer([1.0, 2.0], [3.0, 4.0, 5.0])) == 1
    assert numerical_rank(np.diag([1.0, 1e-16])) == 1
    assert numerical_rank(np.zeros((2, 2))) == 0


def test_random_sparse_model_respects_graph():
    rng = np.random.default_rng(23)
    graph = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    params = random_sparse_model(graph, [2, 3], rng)
    M = params.drift
    assert M[2, 0] == 0.0 and M[0, 2] == 0.0 and M[0, 1] == 0.0
    assert M[1, 0] != 0.0 and M[2, 1] != 0.0
    for k, tensor in params.noise.items():
        for idx in unique_indices(3, k):
            if len(set(idx)) > 1:
                assert tensor[idx] == 0.0


def test_generic_check_complete_graph():
    report = generic_identifiability_check(
        DirectedGraph.complete(2), 3, n_trials=10, seed=24
    )
    assert report["expected_rank"] == 3
    assert report["rank_bound_holds"]
    assert report["achieved_fraction"] == 1.0
    assert report["verdict"] == "maximal rank"


def test_generic_check_disconnected_bound():
    graph = DirectedGraph(2, [(0, 0), (1, 1)])  # two weak components
    report = generic_identifiability_check(graph, 3, n_trials=10, seed=25)
    assert report["expected_rank"] == 2
    assert report["rank_bound_holds"]
    assert all(rank <= 2 for rank in report["ranks"])


def test_known_noise_check_certificate():
    graph = DirectedGraph.from_edge_list(
        4,
        ["1->1", "2->2", "3->3", "4->4", "2->1", "3->1", "2->4", "3->4", "2->3", "3->2"],
    )
    report = known_noise_identifiability_check(graph, 3, n_trials=10, seed=26)
    assert report["diagonal_certificate"]
    assert report["expected_rank"] == len(graph.edges)
    assert report["verdict"] == "identifiable with known order-r noise"


def test_known_noise_check_validation():
    with pytest.raises(ValueError):
        known_noise_identifiability_check(DirectedGraph.complete(2), 2)
    no_loops = DirectedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        known_noise_identifiability_check(no_loops, 3)
    with pytest.raises(ValueError, match="trial"):
        known_noise_identifiability_check(DirectedGraph.complete(2), 3, n_trials=-3)
    # zero trials keeps meaning "closed-form certificate only"
    report = known_noise_identifiability_check(DirectedGraph.complete(2), 3, n_trials=0)
    assert report["ranks"] == [] and report["diagonal_certificate"]


@pytest.mark.parametrize("n_trials", [0, -3])
def test_generic_check_rejects_no_trials(n_trials):
    with pytest.raises(ValueError, match="trial"):
        generic_identifiability_check(DirectedGraph.complete(2), 3, n_trials=n_trials)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_generic_check_rejects_low_order(r):
    with pytest.raises(ValueError, match="need noise order r >= 3"):
        generic_identifiability_check(DirectedGraph.complete(2), r, n_trials=1)


@pytest.mark.parametrize("r", [3.7, 3.0, "4", None])
def test_checks_reject_non_integer_order(r):
    # a float or string r used to be truncated by int() and run as an integer
    with pytest.raises(ValueError, match="need an integer noise order r"):
        generic_identifiability_check(DirectedGraph.complete(2), r, n_trials=1)
    with pytest.raises(ValueError, match="need an integer noise order r"):
        known_noise_identifiability_check(DirectedGraph.complete(2), r, n_trials=0)
    with pytest.raises(ValueError, match="need an integer noise order r"):
        polytree_rank_witness(TWO_CHAIN, r)
    with pytest.raises(ValueError, match="need an integer noise order r"):
        witness_matrix(TWO_CHAIN, r, 1.0)


def test_checks_accept_numpy_integer_order():
    r = np.int64(3)
    assert generic_identifiability_check(TWO_CHAIN, r, n_trials=1, seed=1)["r"] == 3
    assert known_noise_identifiability_check(TWO_CHAIN, r, n_trials=0)["r"] == 3
    assert polytree_rank_witness(TWO_CHAIN, r).determinant == (
        polytree_rank_witness(TWO_CHAIN, 3).determinant
    )
    assert np.array_equal(
        witness_matrix(TWO_CHAIN, r, 0.7).matrix, witness_matrix(TWO_CHAIN, 3, 0.7).matrix
    )


# -- stacked trials against the trial-by-trial loops -----------------------------

# The benchmark's certify graphs, a graph missing self-loops (stability
# redraws), and a two-component graph.
CERTIFY_GRAPHS = [chain(d) for d in range(2, 6)] + [FOUR_NODE_SPARSE]
ONE_LOOP = DirectedGraph.from_edge_list(3, ["3->3", "1->2", "2->1", "2->3", "3->1"])
TWO_COMPONENTS = DirectedGraph(4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3)])


@pytest.mark.parametrize(
    "graph",
    CERTIFY_GRAPHS + [TWO_COMPONENTS],
    ids=["chain2", "chain3", "chain4", "chain5", "four-sparse", "two-components"],
)
def test_stacked_checks_match_trial_loop(graph):
    report = generic_identifiability_check(graph, 3, n_trials=100, seed=graph.d)
    assert report["ranks"] == generic_ranks_loop(graph, 3, 100, graph.d)
    report = known_noise_identifiability_check(graph, 3, n_trials=100, seed=graph.d)
    assert report["ranks"] == known_noise_ranks_loop(graph, 3, 100, graph.d)


def test_stacked_generic_check_with_stability_redraws():
    report = generic_identifiability_check(ONE_LOOP, 4, n_trials=60, seed=11)
    assert report["ranks"] == generic_ranks_loop(ONE_LOOP, 4, 60, 11)


@pytest.mark.parametrize("n_trials, groups", [(1, [1]), (2, [2]), (10, [3, 3, 3, 1])])
def test_stacked_checks_span_groups(monkeypatch, n_trials, groups):
    checks = (generic_identifiability_check, known_noise_identifiability_check)
    one_group = [check(chain(3), 3, n_trials=n_trials, seed=5) for check in checks]
    # groups of three trials: 10 is not a multiple of the group size
    monkeypatch.setattr(coefficients, "STACK_ELEMENTS", 3 * len(unique_indices(3, 3)) ** 2)
    assert [len(range(n_trials)[g]) for g in _trial_groups(n_trials, 3, 3)] == groups
    report = generic_identifiability_check(chain(3), 3, n_trials=n_trials, seed=5)
    assert report["ranks"] == generic_ranks_loop(chain(3), 3, n_trials, 5)
    assert report == one_group[0]
    report = known_noise_identifiability_check(chain(3), 3, n_trials=n_trials, seed=5)
    assert report["ranks"] == known_noise_ranks_loop(chain(3), 3, n_trials, 5)
    assert report == one_group[1]


def test_stacked_checks_split_large_operators():
    # d = 6 at r = 5: 252 x 252 operators, so the default budget makes groups of 4
    assert [len(range(6)[g]) for g in _trial_groups(6, 6, 5)] == [4, 2]
    report = known_noise_identifiability_check(chain(6), 5, n_trials=6, seed=3)
    assert report["ranks"] == known_noise_ranks_loop(chain(6), 5, 6, 3)
    report = generic_identifiability_check(chain(6), 5, n_trials=6, seed=3)
    assert report["ranks"] == generic_ranks_loop(chain(6), 5, 6, 3)


def generator_state(rng):
    """The generator's state; the carried half only while it is flagged,
    since numpy leaves a stale value there once the half is used."""
    if isinstance(rng, np.random.Generator):
        state = dict(rng.bit_generator.state)
    else:
        state = rng.get_state(legacy=False)
    if not state.get("has_uint32"):
        state.pop("uinteger", None)
    return repr(state)


def make_generator(name, seed):
    if name == "RandomState":
        return np.random.RandomState(seed)
    return np.random.Generator(getattr(np.random, name)(seed))


def bits(rng, n):
    """n random bits, by the integer call of a Generator or a RandomState."""
    if isinstance(rng, np.random.Generator):
        return rng.integers(0, 2, n)
    return rng.randint(0, 2, n)


# d = 3 signs an odd order with an odd number of 32-bit halves, so numpy's
# carried half alternates from model to model; with two odd orders it passes
# between them
@pytest.mark.parametrize(
    "graph, orders, halves, n",
    [
        (chain(3), [2, 3], 0, 40),
        (chain(3), [3, 5], 1, 40),
        (chain(3), [2, 3, 5], 1, 7),
        (FOUR_NODE_SPARSE, [2, 3], 1, 12),
        (FOUR_NODE_SPARSE, [2, 4], 1, 12),
        (ONE_LOOP, [2, 3], 0, 60),
        (ONE_LOOP, [3, 2, 5], 1, 60),
        (chain(1), [3, 5, 7], 1, 9),
    ],
    ids=["odd-d-one-odd", "odd-d-two-odd", "three-orders", "even-d-carry", "even-orders",
         "one-loop", "one-loop-carry", "one-node"],
)
@pytest.mark.parametrize(
    "bit_generator", ["PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState"]
)
def test_draws_match_draw_by_draw_stream(graph, orders, halves, n, bit_generator):
    # n one-model draws in a row take the stream of n draw-by-draw models,
    # the generator's state after them included; halves: how many 32-bit
    # halves the generator has handed out before, so with 1 it holds a carried half
    ours, theirs = (make_generator(bit_generator, n) for _ in "ab")
    for rng in (ours, theirs):
        bits(rng, halves)
    for _ in range(n):
        drifts, noise = _draw_models(graph, orders, ours, 1)
        want = sparse_model_loop(graph, orders, theirs)
        assert np.array_equal(drifts[0], want.drift)
        for k in want.orders:
            assert np.array_equal(noise[k][0], want.noise[k].values)
    assert generator_state(ours) == generator_state(theirs)
    assert np.array_equal(bits(ours, 5), bits(theirs, 5))
    assert np.array_equal(ours.random(3), theirs.random(3))


def test_random_sparse_model_matches_single_draw():
    for graph in (ONE_LOOP, FOUR_NODE_SPARSE):
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            got = random_sparse_model(graph, [3, 2, 5], ours)
            want = sparse_model_loop(graph, [2, 3, 5], theirs)
            assert np.array_equal(got.drift, want.drift)
            assert got.orders == want.orders == [2, 3, 5]
            for k in got.orders:
                assert np.array_equal(got.noise[k].values, want.noise[k].values)
        assert generator_state(ours) == generator_state(theirs)


@pytest.mark.parametrize(
    "graph, orders",
    [(chain(3), [2, 3]), (FOUR_NODE_SPARSE, [3, 2, 5]), (ONE_LOOP, [2, 4, 3]), (chain(1), [3, 4])],
    ids=["chain3", "four-sparse", "one-loop", "one-node"],
)
def test_draws_keep_the_model_contract(graph, orders):
    n, d = 300, graph.d
    drifts, noise = _draw_models(graph, orders, np.random.default_rng(17), n)
    assert drifts.shape == (n, d, d) and sorted(noise) == sorted(orders)
    assert np.all(drifts[:, ~graph.drift_mask()] == 0.0)  # off-pattern entries exactly 0
    shift = 2.0 * d * np.diag(np.isin(np.arange(d), graph.self_loop_nodes()))
    assert np.all(np.abs(drifts + shift) <= 1.0)  # uniform on [-1, 1] before the shift
    assert np.all(is_stable(drifts))
    for k in orders:
        diagonal = [unique_indices(d, k).index((i,) * k) for i in range(d)]
        entries = noise[k][:, diagonal]
        assert np.all(np.delete(noise[k], diagonal, axis=1) == 0.0)
        assert np.all((np.abs(entries) >= 0.5) & (np.abs(entries) <= 2.0))
        # signs only at odd orders, and there both signs occur
        assert np.any(entries < 0) == bool(k % 2)
        assert np.any(entries > 0)


def test_draws_are_reproducible_from_a_seed():
    first, again, other = (
        _draw_models(ONE_LOOP, [2, 3], np.random.default_rng(seed), 50) for seed in (5, 5, 6)
    )
    assert np.array_equal(first[0], again[0]) and not np.array_equal(first[0], other[0])
    for k in (2, 3):
        assert np.array_equal(first[1][k], again[1][k])
    report = generic_identifiability_check(ONE_LOOP, 3, n_trials=20, seed=5)
    assert report == generic_identifiability_check(ONE_LOOP, 3, n_trials=20, seed=5)


def test_random_sparse_model_accepts_mt19937_and_random_state():
    for rng in (np.random.Generator(np.random.MT19937(0)), np.random.RandomState(0)):
        model = random_sparse_model(ONE_LOOP, [2, 3], rng)
        assert model.orders == [2, 3] and is_stable(model.drift)
        drifts, noise = _draw_models(ONE_LOOP, [2, 3], rng, 20)
        assert drifts.shape == (20, 3, 3) and np.all(is_stable(drifts))


def test_exhausted_redraws_leave_generator_as_the_loop():
    # a loop on one node of a 3-cycle passes the structural check, yet no
    # drift is stable: the characteristic polynomial lacks its middle terms
    graph = DirectedGraph.from_edge_list(3, ["1->1", "1->2", "2->3", "3->1"])
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    ours.integers(0, 2, 1)
    theirs.integers(0, 2, 1)
    with pytest.raises(RuntimeError, match="found no stable drift"):
        _draw_models(graph, [3], ours, 1)
    with pytest.raises(RuntimeError, match="found no stable drift"):
        sparse_model_loop(graph, [3], theirs)
    assert generator_state(ours) == generator_state(theirs)


@pytest.mark.parametrize(
    "edges, named",
    [
        (["1->2", "2->3"], "node 1 has no self-loop and lies on no directed cycle"),
        (["1->1", "1->2", "3->3"], "node 2 has no self-loop and lies on no directed cycle"),
        (["3->3", "1->2", "2->1", "1->3"], "nodes 1, 2 lie on directed cycles with no self-loop"),
    ],
)
def test_draws_refuse_graphs_without_stable_drifts(edges, named):
    graph = DirectedGraph.from_edge_list(3, edges)
    rng = np.random.default_rng(0)
    before = generator_state(rng)
    with pytest.raises(ValueError, match=f"no drift on this graph is stable: {named}"):
        random_sparse_model(graph, [2, 3], rng)
    with pytest.raises(ValueError, match=named):
        generic_identifiability_check(graph, 3, n_trials=5, seed=0)
    assert generator_state(rng) == before  # refused before any draw


def counting_stability_calls(monkeypatch):
    calls = []

    def counting(M):
        calls.append(np.shape(M))
        return is_stable(M)

    monkeypatch.setattr(coefficients, "is_stable", counting)
    return calls


def test_generic_check_tests_stability_once(monkeypatch):
    calls = counting_stability_calls(monkeypatch)
    report = generic_identifiability_check(chain(4), 3, n_trials=100, seed=8)
    # every chain drift is stable: the 100 trials' drifts in one call
    assert calls == [(100, 4, 4)]
    assert report["ranks"] == generic_ranks_loop(chain(4), 3, 100, 8)


def test_redraw_cap_is_a_count_of_stacked_stability_calls(monkeypatch):
    # no drift on this graph is stable, so all 100 trials redraw together
    # until each has had STABLE_DRAW_TRIES draws
    graph = DirectedGraph.from_edge_list(3, ["1->1", "1->2", "2->3", "3->1"])
    calls = counting_stability_calls(monkeypatch)
    tries = coefficients.STABLE_DRAW_TRIES
    with pytest.raises(
        RuntimeError, match=f"found no stable drift for this sparsity pattern in {tries} draws"
    ):
        generic_identifiability_check(graph, 3, n_trials=100, seed=0)
    assert calls == [(100, 3, 3)] * tries


def test_stacked_operator_and_rank_match_single():
    rng = np.random.default_rng(31)
    drifts = rng.normal(size=(2, 3, 4, 4))
    stacked = lyapunov_operator_matrix(drifts, 3)
    assert stacked.shape == (2, 3, 20, 20)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(stacked[idx], lyapunov_operator_matrix(drifts[idx], 3))
    matrices = np.stack(
        [rng.normal(size=(6, 4)), np.zeros((6, 4)), np.outer(rng.normal(size=6), [1, 2, 3, 4])]
    )
    ranks = numerical_rank(matrices)
    assert ranks.tolist() == [numerical_rank(m) for m in matrices] == [4, 0, 1]
    assert isinstance(numerical_rank(matrices[0]), int)
    assert numerical_rank(np.zeros((2, 0, 3))).tolist() == [0, 0]


def test_stacked_solve_matches_single_and_rejects_one_singular_drift():
    rng = np.random.default_rng(32)
    drifts = rng.normal(size=(3, 3, 3)) - 6.0 * np.eye(3)
    noise = rng.normal(size=(3, 10))
    solved = _solve_stacked(drifts, {3: noise})
    assert list(solved) == [3]
    for M, C, K in zip(drifts, noise, solved[3]):
        assert np.array_equal(K, solve_lyapunov(M, SymmetricTensor(3, 3, C)).values)
    drifts[1] = np.diag([1.0, -1.0, -2.0])  # 1 + (-1) = 0 at order 2
    with pytest.raises(SingularSystemError):
        _solve_stacked(drifts, {2: rng.normal(size=(3, 6))})


def test_stacked_solve_of_every_order_matches_single_solves():
    rng = np.random.default_rng(33)
    drifts = rng.normal(size=(4, 3, 3)) - 6.0 * np.eye(3)
    noise = {k: rng.normal(size=(4, comb(k + 2, k))) for k in (5, 2, 4, 3)}
    solved = _solve_stacked(drifts, noise)
    assert list(solved) == [2, 3, 4, 5]
    for k, C in noise.items():
        for M, c, K in zip(drifts, C, solved[k]):
            assert np.array_equal(K, solve_lyapunov(M, SymmetricTensor(3, k, c)).values)


def test_stacked_solve_names_the_first_singular_order():
    # eigenvalues 1, -1/2, -3: 1 - 1/2 - 1/2 = 0 at order 3, 1 + 1 + 1 - 3 = 0
    # at order 4, and no two sum to zero
    drifts = np.stack([np.diag([1.0, -0.5, -3.0]), -np.eye(3)])
    noise = {k: np.ones((2, comb(k + 2, k))) for k in (4, 2, 3)}
    with pytest.raises(SingularSystemError, match="order-3 equation is singular"):
        _solve_stacked(drifts, noise)
    del noise[3]
    with pytest.raises(SingularSystemError, match="order-4 equation is singular"):
        _solve_stacked(drifts[::-1], noise)
    assert list(_solve_stacked(drifts[1:], noise)) == [2, 4]


@pytest.mark.parametrize("check", ["generic", "known-noise"])
def test_trial_ranks_eigen_decompose_once_per_group(monkeypatch, eigvals_calls, check):
    orders = [2, 3] if check == "generic" else [3]
    # three order-3 operators (10 x 10) per group: 10 trials make 4 groups
    monkeypatch.setattr(coefficients, "STACK_ELEMENTS", 3 * 10**2)
    groups = _trial_groups(10, 3, 3)
    assert len(groups) == 4
    draw_models, drawn = coefficients._draw_models, []

    def counted_draws(*args):
        out = draw_models(*args)
        drawn.append(len(eigvals_calls))  # the draws' stability checks
        return out

    monkeypatch.setattr(coefficients, "_draw_models", counted_draws)
    ranks = coefficients._trial_ranks(
        RELABELED, orders, 10, 4, lambda kappas: kappas[3][:, None]
    )
    assert len(ranks) == 10
    solves = eigvals_calls[drawn[0]:]
    assert solves == [(len(range(10)[group]), 3, 3) for group in groups]


@pytest.mark.parametrize("n_trials", [2.5, 3.0, True, "3", None])
def test_checks_reject_non_integer_trials(n_trials):
    with pytest.raises(ValueError, match="need an integer trial count"):
        generic_identifiability_check(TWO_CHAIN, 3, n_trials=n_trials)
    with pytest.raises(ValueError, match="need an integer trial count"):
        known_noise_identifiability_check(TWO_CHAIN, 3, n_trials=n_trials)


def test_checks_store_numpy_trial_count_as_int():
    for check in (generic_identifiability_check, known_noise_identifiability_check):
        report = check(TWO_CHAIN, 3, n_trials=np.int64(3), seed=2)
        assert type(report["trials"]) is int and report["trials"] == 3
        assert len(report["ranks"]) == 3
        json.dumps(report)


def test_random_sparse_model_rejects_non_integer_order():
    with pytest.raises(ValueError, match="need an integer cumulant order"):
        random_sparse_model(TWO_CHAIN, [2, 2.5], np.random.default_rng(0))
    model = random_sparse_model(TWO_CHAIN, [np.int64(3)], np.random.default_rng(0))
    assert model.orders == [3]


def test_det_expansion_coefficient_binomial_case():
    # at r = 2 the weight collapses to a plain binomial coefficient
    for d in range(2, 7):
        for q in range(d):
            for i in range(d):
                assert det_expansion_coefficient(d, q, i, 2) == comb(d - 1, i)


def test_det_expansion_identity_small_grid():
    for d in range(2, 6):
        for q in range(d):
            for r in (3, 4, 5):
                assert det_expansion_identity_holds(d, q, r)


def test_witness_laws():
    assert witness_lowest_degree(2) == 4
    assert witness_lowest_degree(3) == 10
    assert witness_lowest_coefficient_magnitude(2, 3) == Fraction(3, 4)
    assert witness_lowest_coefficient_magnitude(3, 3) == Fraction(27, 32)


def test_two_chain_witness_exact_determinant():
    report = polytree_rank_witness(TWO_CHAIN, 3)
    assert report.determinant == {
        4: Fraction(-3, 4),
        5: Fraction(3),
        7: Fraction(3),
    }
    assert report.lowest_degree == 4 == report.expected_lowest_degree
    assert abs(report.lowest_coefficient) == report.expected_lowest_magnitude
    assert report.lowest_term_matches
    assert report.generically_identifiable


def test_witness_matrix_matches_exact_polynomial():
    report = polytree_rank_witness(TWO_CHAIN, 3)
    zeta = 0.7
    system = witness_matrix(TWO_CHAIN, 3, zeta)
    det = np.linalg.det(system.matrix)
    exact = sum(float(c) * zeta**deg for deg, c in report.determinant.items())
    assert det == pytest.approx(exact, rel=1e-10) or det == pytest.approx(
        -exact, rel=1e-10
    )


@pytest.mark.parametrize(
    "graph,r",
    [(chain(2), 3), (chain(3), 4), (RELABELED, 3), (FOUR_NODE_SPARSE, 5)],
    ids=["chain2", "chain3-r4", "relabeled", "four-sparse-r5"],
)
def test_witness_matrix_evaluates_entry_polynomials(graph, r):
    # the float system is the exact entry polynomials evaluated at zeta
    for zeta in (0.3, 1.0, 2.5):
        exact = np.array(
            [
                [float(sum(c * Fraction(zeta) ** deg for deg, c in poly.items())) for poly in row]
                for row in witness_entries(graph, r)
            ]
        )
        got = witness_matrix(graph, r, zeta).matrix
        assert got.shape == exact.shape
        assert np.allclose(got, exact, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("zeta", [0.0, -1.0, float("inf"), float("nan")])
def test_witness_matrix_rejects_zeta_outside_the_parametrization(zeta):
    with pytest.raises(ValueError, match="positive finite zeta"):
        witness_matrix(TWO_CHAIN, 3, zeta)


def test_witness_matrix_full_rank_at_unit_zeta():
    system = witness_matrix(TWO_CHAIN, 3, 1.0)
    assert system.matrix.shape == (3, 3)
    assert numerical_rank(system.matrix) == 3


def test_witness_relabels_against_label_order():
    # tree edges running against the node labels must be relabeled, else two
    # witness rows collide and the determinant degenerates to zero
    graph = DirectedGraph(3, [(0, 0), (1, 1), (2, 2), (2, 0), (0, 1)])
    report = polytree_rank_witness(graph, 3)
    assert report.relabeling == [2, 0, 1]
    assert report.generically_identifiable
    assert report.lowest_degree == 10
    assert abs(report.lowest_coefficient) == Fraction(27, 32)
    assert report.lowest_term_matches


def test_witness_validation():
    no_loops = DirectedGraph(2, [(0, 1), (1, 0), (0, 0)])
    with pytest.raises(ValueError):
        polytree_rank_witness(no_loops, 3)
    for r in (1, 2):
        with pytest.raises(ValueError, match="r >= 3"):
            polytree_rank_witness(TWO_CHAIN, r)
        with pytest.raises(ValueError, match="r >= 3"):
            witness_matrix(TWO_CHAIN, r, 1.0)


def test_witness_single_node_is_empty_system():
    # no rows and no columns: determinant 1, matching both lemma values at d = 1
    report = polytree_rank_witness(DirectedGraph(1, [(0, 0)]), 3)
    assert report.determinant == {0: Fraction(1)}
    assert report.generically_identifiable
    assert report.lowest_term_matches
    assert witness_matrix(DirectedGraph(1, [(0, 0)]), 3, 1.0).matrix.shape == (0, 0)


@pytest.mark.parametrize(
    "graph,r",
    [
        (chain(2), 3),
        (chain(3), 3),
        (chain(4), 3),
        (chain(3), 4),
        (chain(3), 5),
        (RELABELED, 3),
        (FOUR_NODE_SPARSE, 3),
    ],
    ids=["chain2", "chain3", "chain4", "chain3-r4", "chain3-r5", "relabeled", "four-sparse"],
)
def test_witness_matches_interpolation_oracle(graph, r):
    expected = interpolated_witness_determinant(witness_entries(graph, r))
    report = polytree_rank_witness(graph, r)
    assert report.determinant == expected
    assert report.lowest_term_matches


@pytest.mark.parametrize(
    "graph,r",
    [(chain(2), 3), (chain(3), 3), (RELABELED, 4)],
    ids=["chain2", "chain3", "relabeled-r4"],
)
def test_witness_matches_sympy_determinant(graph, r):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def entry(poly):
        return sympy.Add(*(sympy.Rational(str(c)) * z**deg for deg, c in poly.items()))

    matrix = sympy.Matrix([[entry(p) for p in row] for row in witness_entries(graph, r)])
    det = sympy.Poly(matrix.det(method="domain-ge"), z)
    expected = {deg: Fraction(str(c)) for (deg,), c in det.terms()}
    if expected[max(expected)] < 0:
        expected = {deg: -c for deg, c in expected.items()}
    assert polytree_rank_witness(graph, r).determinant == expected


def test_polynomial_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def sympy_det(entries, denominators):
        matrix = sympy.Matrix(
            [
                [
                    sympy.Add(*(sympy.Rational(int(c), den) * z**deg for deg, c in enumerate(poly)))
                    for poly in entries[:, i].T
                ]
                for i, den in enumerate(denominators)
            ]
        )
        det = sympy.Poly(matrix.det(method="domain-ge"), z)
        return {deg: Fraction(int(c.p), int(c.q)) for (deg,), c in det.terms() if c}

    # row 0 has the common factor 6 and the factor zeta^2, row 1 negative
    # coefficients, row 2 the factor 4 zeta; every row a non-unit denominator
    entries = np.zeros((5, 3, 3), dtype=object)
    entries[2:4, 0, 0] = [6, 12]
    entries[2, 0, 1] = -18
    entries[0, 1, 0], entries[1, 1, 1], entries[0, 1, 2], entries[4, 1, 2] = -1, 3, 2, -1
    entries[1, 2, 0], entries[3, 2, 2] = 4, -8
    denominators = [5, 7, 3]
    expected = sympy_det(entries, denominators)
    assert expected and _polynomial_det(entries, denominators) == expected
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        entries = np.zeros((6, n, n), dtype=object)
        entries[:4] = rng.integers(-50, 51, (4, n, n)) * (rng.random((4, n, n)) < 0.6)
        for i in range(n):  # a common factor and a power of zeta per row
            entries[:, i] = np.roll(entries[:, i] * int(rng.integers(1, 9)), int(rng.integers(0, 3)), 0)
        denominators = [int(v) for v in rng.integers(1, 30, n)]
        assert _polynomial_det(entries, denominators) == sympy_det(entries, denominators)
    # an all-zero row makes the zero polynomial
    entries = np.zeros((2, 2, 2), dtype=object)
    entries[:, 0] = [[1, 2], [3, 4]]
    assert _polynomial_det(entries, [1, 1]) == {}
    assert sympy_det(entries, [1, 1]) == {}


@pytest.mark.slow
def test_witness_chain5_lowest_term():
    report = polytree_rank_witness(chain(5), 3)
    assert report.lowest_degree == witness_lowest_degree(5) == 28
    assert abs(report.lowest_coefficient) == witness_lowest_coefficient_magnitude(5, 3)
    assert report.lowest_coefficient == Fraction(-59049, 16384)
    assert report.lowest_term_matches
