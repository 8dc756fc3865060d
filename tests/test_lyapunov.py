import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from cumulyap.graphs import DirectedGraph, GraphCycleError
from cumulyap.lyapunov import (
    ModelParameters,
    SingularSystemError,
    _eigenvalue_sum_margins,
    _trek_polynomials,
    forward_map,
    is_stable,
    lyapunov_operator_matrix,
    solve_lyapunov,
    special_drift_matrix,
    trek_closed_form,
)
from cumulyap.tensors import SymmetricTensor, unique_indices
from oracles import (
    dense,
    integral_cumulant,
    kron_sum_matrix,
    n_mode_product,
    operator_matrix_loop,
    trek_polynomial_by_enumeration,
    vec,
)

# Every (d, k) whose dense Kronecker system has at most 4096 unknowns.
DENSE_CASES = [(d, k) for d in range(2, 65) for k in range(2, 13) if d**k <= 4096]


def random_stable(rng, d):
    return rng.normal(size=(d, d)) - 2.0 * d * np.eye(d)


def test_is_stable():
    assert is_stable(-np.eye(2))
    assert not is_stable(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # purely imaginary
    assert not is_stable(np.array([[1.0]]))


def test_solve_lyapunov_order2_matches_scipy():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        M = random_stable(rng, d)
        C = rng.normal(size=(d, d))
        C = C @ C.T
        K = solve_lyapunov(M, C).to_dense()
        expected = scipy.linalg.solve_continuous_lyapunov(M, -C)
        assert np.allclose(K, expected, rtol=1e-10)


def test_solve_lyapunov_order3_matches_quadrature():
    import scipy.integrate

    rng = np.random.default_rng(3)
    M = random_stable(rng, 2)
    C = SymmetricTensor.from_diagonal(rng.uniform(0.5, 2.0, 2), 3)
    K = solve_lyapunov(M, C)
    horizon = float(np.log(1e-14) / np.max(np.linalg.eigvals(M).real))
    dense_C = C.to_dense()

    def entry(t, idx):
        E = scipy.linalg.expm(M * t)
        T = dense_C
        for mode in range(3):
            T = n_mode_product(T, E, mode)
        return T[idx]

    for idx in K.indices:
        ref, err = scipy.integrate.quad(entry, 0.0, horizon, args=(idx,), limit=200)
        assert K[idx] == pytest.approx(ref, rel=1e-8, abs=1e-10)

    # the coarse trapezoid reference agrees at its own accuracy
    coarse = integral_cumulant(M, dense_C, horizon, n_nodes=4000)
    assert np.allclose(K.to_dense(), coarse, rtol=1e-4, atol=1e-5)


def test_solve_lyapunov_residual_invariant():
    rng = np.random.default_rng(4)
    for d, k in [(2, 2), (3, 3), (2, 4)]:
        M = random_stable(rng, d)
        C = SymmetricTensor(d, k, rng.normal(size=len(SymmetricTensor(d, k).values)))
        K = solve_lyapunov(M, C).to_dense()
        residual = sum(n_mode_product(K, M, mode) for mode in range(k)) + C.to_dense()
        assert np.max(np.abs(residual)) < 1e-10 * max(1.0, np.max(np.abs(K)))


def test_solve_lyapunov_singular_system():
    # eigenvalues 1 and -1 sum to zero at order 2
    with pytest.raises(SingularSystemError):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
    # -1, -1, 2 sum to zero at order 3
    M = np.diag([-1.0, -1.0, 2.0])
    with pytest.raises(SingularSystemError):
        solve_lyapunov(M, SymmetricTensor.identity(3, 3))
    # but the same drift is fine at order 2
    solve_lyapunov(M, np.eye(3))
    # 1 + 1 - 2 = 0 needs a repeated eigenvalue: singular at order 3 only
    M = np.diag([1.0, -2.0])
    solve_lyapunov(M, np.eye(2))
    with pytest.raises(SingularSystemError):
        solve_lyapunov(M, SymmetricTensor.identity(2, 3))
    # eigenvalues +-i: i - i = 0 at order 2, but no 3-multiset sums to zero
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(SingularSystemError):
        forward_map(ModelParameters(rotation, {2: np.eye(2)}))
    C = SymmetricTensor.identity(2, 3)
    K = solve_lyapunov(rotation, C)
    resid = lyapunov_operator_matrix(rotation, 3) @ K.values + C.values
    assert np.max(np.abs(resid)) < 1e-12


@pytest.mark.slow
def test_solve_lyapunov_matches_kronecker_oracle():
    rng = np.random.default_rng(30)
    for d, k in DENSE_CASES:
        M = random_stable(rng, d)
        C = SymmetricTensor(d, k, rng.normal(size=len(unique_indices(d, k))))
        K = solve_lyapunov(M, C)
        x = np.linalg.solve(kron_sum_matrix(M, k), -vec(dense(C)))
        x = x.reshape((d,) * k, order="F")
        expected = np.array([x[idx] for idx in unique_indices(d, k)])
        err = np.max(np.abs(K.values - expected)) / np.max(np.abs(expected))
        assert err < 1e-12, (d, k, err)


def test_solve_lyapunov_d5_order6_residual():
    # the dense Kronecker system here would be 15625 x 15625 (1.95 GB)
    rng = np.random.default_rng(31)
    d, k = 5, 6
    M = random_stable(rng, d)
    C = SymmetricTensor(d, k, rng.normal(size=len(unique_indices(d, k))))
    K = dense(solve_lyapunov(M, C))
    residual = sum(n_mode_product(K, M, mode) for mode in range(k)) + dense(C)
    assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(dense(C))


def test_eigenvalue_sum_margin():
    # the solver's margin, per row of a stack of eigenvalue vectors
    eigs = np.array([[-1.0, -2.0], [1.0, -1.0]], dtype=complex)
    assert _eigenvalue_sum_margins(eigs[0], 2) == pytest.approx(2.0)
    assert _eigenvalue_sum_margins(eigs, 2) == pytest.approx([2.0, 0.0])
    # every 3-multiset of a rotation pair plus -1: |(-1) + i + (-i)| = 1 is least
    assert _eigenvalue_sum_margins(np.array([-1.0, 1j, -1j]), 3) == pytest.approx(1.0)


def test_solve_lyapunov_input_validation():
    with pytest.raises(ValueError):
        solve_lyapunov(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError):
        solve_lyapunov(-np.eye(3), np.eye(2))
    with pytest.raises(ValueError):  # asymmetric dense noise
        solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_lyapunov_operator_matrix_d2_example():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = lyapunov_operator_matrix(M, 2)
    expected = np.array(
        [
            [2 * 1.0, 2 * 2.0, 0.0],
            [3.0, 1.0 + 4.0, 2.0],
            [0.0, 2 * 3.0, 2 * 4.0],
        ]
    )
    assert np.array_equal(B, expected)


def test_lyapunov_operator_matrix_matches_mode_products():
    rng = np.random.default_rng(5)
    for d, k in [(2, 3), (3, 2), (3, 4)]:
        M = rng.normal(size=(d, d))
        K = SymmetricTensor(d, k, rng.normal(size=len(SymmetricTensor(d, k).values)))
        image = sum(n_mode_product(K.to_dense(), M, mode) for mode in range(k))
        lhs = lyapunov_operator_matrix(M, k) @ K.vec_unique()
        rhs = SymmetricTensor.from_dense(image).vec_unique()
        assert np.allclose(lhs, rhs)


def test_lyapunov_operator_matrix_equals_loop():
    rng = np.random.default_rng(8)
    for d, k in [(1, 3), (2, 5), (3, 3), (4, 4), (6, 2)]:
        M = rng.normal(size=(d, d))
        assert np.array_equal(lyapunov_operator_matrix(M, k), operator_matrix_loop(M, k))


def test_solver_and_operator_agree():
    rng = np.random.default_rng(6)
    M = random_stable(rng, 3)
    C = SymmetricTensor.from_diagonal(rng.uniform(0.5, 1.5, 3), 3)
    K = solve_lyapunov(M, C)
    resid = lyapunov_operator_matrix(M, 3) @ K.vec_unique() + C.vec_unique()
    assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(K.vec_unique()))


def test_model_parameters_validation():
    params = ModelParameters(-np.eye(2), {2: np.eye(2)})
    assert params.d == 2 and params.orders == [2]
    with pytest.raises(ValueError):
        ModelParameters(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ModelParameters(-np.eye(2), {3: np.eye(2)})  # order mismatch
    with pytest.raises(ValueError):
        ModelParameters(-np.eye(2), {2: np.eye(3)})  # dimension mismatch


def test_forward_map():
    rng = np.random.default_rng(7)
    M = random_stable(rng, 2)
    params = ModelParameters(
        M, {2: np.eye(2), 3: SymmetricTensor.identity(2, 3)}
    )
    out = forward_map(params)
    assert sorted(out) == [2, 3]
    assert np.allclose(
        out[2].values, solve_lyapunov(M, np.eye(2)).values, rtol=1e-9, atol=1e-12
    )


def test_special_drift_matrix():
    g = DirectedGraph(2, [(0, 0), (1, 1), (0, 1)])
    M = special_drift_matrix(g, 3, 0.5)
    assert np.allclose(M, [[-2.0 / 3.0, 0.0], [1.0, -2.0 / 3.0]])
    # numpy integers are integers, as for every other order
    assert np.array_equal(special_drift_matrix(g, np.int64(3), 0.5), M)
    assert np.array_equal(
        trek_closed_form(g, 2, np.int64(3), 0.5).values, trek_closed_form(g, 2, 3, 0.5).values
    )
    with pytest.raises(ValueError):
        special_drift_matrix(DirectedGraph(2, [(0, 1)]), 3, 1.0)


def test_trek_closed_form_two_node_frozen_values():
    g = DirectedGraph(2, [(0, 0), (1, 1), (0, 1)])
    for zeta in (0.5, 1.0, 2.0):
        sigma = trek_closed_form(g, 2, 3, zeta)
        assert sigma[0, 0] == pytest.approx(1.5 * zeta)
        assert sigma[0, 1] == pytest.approx(2.25 * zeta**2)
        assert sigma[1, 1] == pytest.approx(1.5 * zeta + 6.75 * zeta**3)
        kappa = trek_closed_form(g, 3, 3, zeta)
        assert kappa[0, 0, 0] == pytest.approx(zeta)
        assert kappa[0, 0, 1] == pytest.approx(zeta**2)
        assert kappa[0, 1, 1] == pytest.approx(2 * zeta**3)
        assert kappa[1, 1, 1] == pytest.approx(zeta + 6 * zeta**4)


def test_trek_closed_form_matches_solver_on_a_tree():
    # polytree with a fork: 0 -> 1, 0 -> 2, plus 3 <- 1
    g = DirectedGraph(4, [(i, i) for i in range(4)] + [(0, 1), (0, 2), (1, 3)])
    r, zeta = 4, 0.8
    M = special_drift_matrix(g, r, zeta)
    for k in (2, r):
        expected = solve_lyapunov(M, SymmetricTensor.identity(4, k))
        got = trek_closed_form(g, k, r, zeta)
        assert np.allclose(got.values, expected.values, rtol=1e-10, atol=1e-12)


def test_trek_closed_form_needs_self_loops():
    with pytest.raises(ValueError):
        trek_closed_form(DirectedGraph(2, [(0, 1), (0, 0)]), 2, 3, 1.0)


def test_trek_closed_form_rejects_cycles():
    two_cycle = DirectedGraph(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    with pytest.raises(GraphCycleError):
        trek_closed_form(two_cycle, 2, 3, 1.0)


BAD_SPECIAL_PARAMETERS = [
    (0, 1.0),
    (3, 0.0),
    (3, -1.0),
    (-3, 1.0),
    (3, float("inf")),
    (3, float("nan")),
    (2.5, 1.0),
    (True, 1.0),
]


@pytest.mark.parametrize("r, zeta", BAD_SPECIAL_PARAMETERS)
def test_special_parametrization_needs_positive_r_and_zeta(r, zeta):
    # r*zeta <= 0 gives a singular or unstable drift, whose stationary law
    # does not exist, so neither function may return a value
    g = DirectedGraph(2, [(0, 0), (1, 1), (0, 1)])
    with pytest.raises(ValueError, match="r=.*zeta="):
        special_drift_matrix(g, r, zeta)
    with pytest.raises(ValueError, match="r=.*zeta="):
        trek_closed_form(g, 3, r, zeta)


def random_dag(rng, d):
    order = rng.permutation(d)
    edges = [
        (int(order[i]), int(order[j]))
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < 0.5
    ]
    return DirectedGraph(d, edges + [(i, i) for i in range(d) if rng.random() < 0.5])


def trek_polynomials(graph, k, r):
    """_trek_polynomials as one degree -> Fraction dict per index."""
    numerators, denominator = _trek_polynomials(graph, k, r)
    assert numerators.shape == (k * (graph.d - 1) + 2, len(unique_indices(graph.d, k)))
    assert all(type(c) is int for c in numerators.flat)
    return [
        {deg: Fraction(c, denominator) for deg, c in enumerate(column) if c}
        for column in numerators.T
    ]


def test_trek_polynomials_match_enumeration():
    # the diamond 0->1->3, 0->2->3 has four path pairs from 0 to (3, 3)
    diamond = DirectedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert trek_polynomials(diamond, 2, 3)[-1] == {
        1: Fraction(3, 2),  # top 3
        3: Fraction(27, 2),  # tops 1 and 2
        5: 4 * Fraction(3, 2) ** 5 * 6,  # top 0: four pairs, 4!/(2!2!) = 6 each
    }
    rng = np.random.default_rng(18)
    graphs = [diamond] + [random_dag(rng, int(rng.integers(1, 6))) for _ in range(30)]
    for graph in graphs:
        r = int(rng.choice([3, 4, 5]))
        # the oracle walks d**k length tuples, so order r only up to d = 4
        for k in (2, 3, r) if graph.d <= 4 else (2, 3):
            got = trek_polynomials(graph, k, r)
            for index, poly in zip(unique_indices(graph.d, k), got):
                assert poly == trek_polynomial_by_enumeration(graph, index, r), (graph, index)


def test_trek_closed_form_complete_dag_matches_solver_quickly():
    # 6 nodes, every forward edge: entry (5, 5, 5, 5) alone has 69906 treks,
    # which the path counts sum without listing them
    d, r, zeta = 6, 4, 0.2
    g = DirectedGraph(d, [(i, j) for i in range(d) for j in range(i, d)])
    M = special_drift_matrix(g, r, zeta)
    start = time.perf_counter()
    closed = {k: trek_closed_form(g, k, r, zeta) for k in (2, 3, 4)}
    assert time.perf_counter() - start < 1.0
    for k, got in closed.items():
        expected = solve_lyapunov(M, SymmetricTensor.identity(d, k))
        assert np.allclose(got.values, expected.values, rtol=1e-9, atol=0)
