import numpy as np
import pytest

from cumulyap.coefficients import (
    _rank_cutoff,
    numerical_rank,
    random_sparse_model,
)
from cumulyap.cumulants import empirical_cumulants, population_omega, stacked_labels
from cumulyap.estimation import (
    AsymptoticCovariance,
    DriftEstimate,
    asymptotic_covariance,
    estimate_drift,
    least_singular_vector,
    singular_vector_jacobian,
)
from cumulyap.estimation import _sign_fix
from cumulyap.graphs import DirectedGraph
from cumulyap.lyapunov import forward_map
from cumulyap.sampling import (
    LevySpec,
    TwoPointJumps,
    population_state_cumulants,
    study_drift_matrix,
)
from oracles import covariance_block_diag


def test_least_singular_vector_square():
    v, sigma_min, gap = least_singular_vector(np.diag([3.0, 2.0, 1.0]))
    assert sigma_min == pytest.approx(1.0)
    assert gap == pytest.approx(1.0)
    assert np.allclose(np.abs(v), [0, 0, 1])


def test_least_singular_vector_wide_matrix_padded():
    A = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]])
    v, sigma_min, gap = least_singular_vector(A)
    # a wide matrix has a genuine null vector: missing values count as zeros
    assert sigma_min == 0.0
    assert np.allclose(A @ v, 0.0, atol=1e-12)
    s = np.linalg.svd(A, compute_uv=False)
    assert gap == pytest.approx(s[-1])


def test_least_singular_vector_single_column():
    _, sigma_min, gap = least_singular_vector(np.array([[2.0]]))
    assert sigma_min == pytest.approx(2.0)
    assert gap == float("inf")


def test_pseudoinverse_leaves_out_the_least_singular_triplet():
    # the smallest singular value of an empirical system is small but not
    # zero, and is not inverted; a wide matrix's missing one is the zero
    P = singular_vector_jacobian(np.diag([2.0, 1.0, 1e-3])).pinv
    assert np.allclose(P, np.diag([0.5, 1.0, 0.0]))
    wide = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(singular_vector_jacobian(wide).pinv, np.linalg.pinv(wide))


def test_rank_and_pseudoinverse_share_one_cutoff():
    # a singular value just above the cutoff counts and is inverted; one just
    # below neither counts nor is inverted
    t = _rank_cutoff((3, 3))
    above, below = np.diag([1.0, 1.5 * t, 0.0]), np.diag([1.0, t / 1.5, 0.0])
    assert numerical_rank(above) == 2
    assert singular_vector_jacobian(above).pinv[1, 1] == pytest.approx(1.0 / (1.5 * t))
    assert numerical_rank(below) == 1
    assert singular_vector_jacobian(below).pinv[1, 1] == 0.0


def test_sign_fix():
    keep = np.array([[-2.0, 5.0], [1.0, 1.0]])  # trace -1
    assert np.array_equal(_sign_fix(keep), keep)
    flip = -keep  # trace +1
    assert np.array_equal(_sign_fix(flip), keep)
    # balanced trace: the largest-magnitude diagonal entry goes negative
    tied = np.array([[3.0, 0.0], [1.0, -3.0]])
    assert _sign_fix(tied)[0, 0] == -3.0
    assert np.array_equal(_sign_fix(tied), -tied)
    assert np.array_equal(_sign_fix(-tied), -tied)


def test_estimate_drift_recovers_direction_from_true_cumulants():
    rng = np.random.default_rng(30)
    params = random_sparse_model(DirectedGraph.complete(3), [2, 3], rng)
    estimate = estimate_drift(cumulants=forward_map(params))
    assert isinstance(estimate, DriftEstimate)
    target = params.drift / np.linalg.norm(params.drift)
    assert np.allclose(estimate.matrix, target, atol=1e-8)
    assert np.linalg.norm(estimate.matrix) == pytest.approx(1.0)
    assert estimate.sigma_min == pytest.approx(0.0, abs=1e-10)
    assert estimate.gap > 1e-3
    assert estimate.stable


def test_estimate_drift_from_samples_smoke():
    M = study_drift_matrix(2, 4.0, 0.3)
    levy = LevySpec(np.array([1.0, 1.0]), TwoPointJumps(1.0, -0.5, 0.6))
    from cumulyap.sampling import sample_steady_state

    X = sample_steady_state(M, levy, 4000, seed=31)
    estimate = estimate_drift(empirical_cumulants(X, (2, 3)))
    target = M / np.linalg.norm(M)
    err = min(
        np.linalg.norm(estimate.matrix - target),
        np.linalg.norm(estimate.matrix + target),
    )
    assert err < 0.5  # loose: finite-sample direction, right ballpark only


def test_singular_vector_jacobian_matches_finite_differences():
    rng = np.random.default_rng(32)
    n = 4
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    R = rng.normal(size=(n, n)) + 3 * np.eye(n)
    A0 = R @ (np.eye(n) - np.outer(v, v))  # exact kernel along v
    jac = singular_vector_jacobian(A0)
    base, _, _ = least_singular_vector(A0)
    eps = 1e-6
    for _ in range(5):
        H = rng.normal(size=(n, n))
        vp, _, _ = least_singular_vector(A0 + eps * H)
        vm, _, _ = least_singular_vector(A0 - eps * H)
        if vp @ base < 0:
            vp = -vp
        if vm @ base < 0:
            vm = -vm
        fd = (vp - vm) / (2 * eps)
        # both sides track the branch aligned with A0's own singular vector
        assert np.allclose(fd, jac.apply(H), rtol=1e-5, atol=1e-7)


def test_asymptotic_covariance_shape_and_kernel_invariance():
    M = study_drift_matrix(3, 10.0, 0.2)
    levy = LevySpec(np.full(3, 0.5), TwoPointJumps(1.0, 0.8, 0.3))
    cums = population_state_cumulants(M, levy, [2, 3])
    full = population_state_cumulants(M, levy, range(1, 7))
    omega = population_omega(full, [2, 3])
    out = asymptotic_covariance(M, cums, omega.matrix)
    assert isinstance(out, AsymptoticCovariance)
    assert out.matrix.shape == (9, 9)
    assert out.total == pytest.approx(np.trace(out.matrix))
    assert out.total > 0
    # the error covariance is singular along the drift direction itself
    unit = M.reshape(-1, order="F")
    unit = unit / np.linalg.norm(unit)
    assert abs(unit @ out.matrix @ unit) < 1e-8 * out.total


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("orders", [(2, 3), (2, 3, 4), (3, 4)])
def test_asymptotic_covariance_equals_block_diag_oracle(d, orders):
    # B is placed block by block into one zeros array; placement changes no
    # value, so the covariance equals the block_diag route bit for bit
    M = study_drift_matrix(d, 10.0, 0.2)
    levy = LevySpec(np.full(d, 0.5), TwoPointJumps(1.0, 0.8, 0.3))
    cums = population_state_cumulants(M, levy, orders)
    size = len(stacked_labels(d, orders))
    G = np.random.default_rng(d).normal(size=(size, size))
    omega = G @ G.T
    out = asymptotic_covariance(2.0 * M, cums, omega)
    expected = covariance_block_diag(2.0 * M, cums, omega)
    assert np.array_equal(out.matrix, expected)
    assert out.total == float(np.trace(expected))


def test_asymptotic_covariance_rejects_misaligned_omega():
    M = study_drift_matrix(2, 4.0, 0.2)
    levy = LevySpec(np.full(2, 0.5), TwoPointJumps(1.0, 0.8, 0.3))
    cums = population_state_cumulants(M, levy, [2, 3])
    labels = stacked_labels(2, [2, 3])
    bad = np.eye(len(labels) + 1)
    with pytest.raises(ValueError):
        asymptotic_covariance(M, cums, bad)
