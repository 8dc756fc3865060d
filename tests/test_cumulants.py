import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cumulyap import cumulants
from cumulyap.cumulants import (
    BLOCK_ROWS,
    OmegaEstimate,
    beta_raw_moment,
    compound_poisson_cumulants,
    empirical_cumulants,
    estimate_omega,
    population_omega,
    stack_unique,
    stacked_labels,
)
from cumulyap.cumulants import (
    _convert,
    _cumulant_jacobian,
    _feature_moments,
    _pair_table,
    _prefix_table,
    _split_table,
    _start,
)
from cumulyap.sampling import (
    BetaJumps,
    LevySpec,
    population_state_cumulants,
    study_drift_matrix,
)
from cumulyap.tensors import SymmetricTensor, unique_indices
from oracles import (
    bootstrap_omega,
    cumulant_from_moments,
    empirical_raw_moment,
    feature_matrix_full,
    feature_moments_full,
    moment_from_cumulants,
    pair_table_loop,
    population_omega_loop,
    set_partitions,
    split_table_loop,
)


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for k, b in enumerate(bell):
        assert len(set_partitions(k)) == b


def test_set_partitions_are_partitions():
    for partition in set_partitions(4):
        flat = sorted(p for block in partition for p in block)
        assert flat == [0, 1, 2, 3]
        assert all(block == tuple(sorted(block)) for block in partition)
    assert len({p for p in set_partitions(4)}) == 15


@pytest.mark.parametrize(
    "d, k", [(d, k) for d in range(1, 5) for k in range(1, 7)] + [(3, 8)]
)
def test_partition_table_matches_loop_references(d, k):
    # the split recursion (_convert) against the set-partition loops
    rng = np.random.default_rng(100 * d + k)
    labels = [idx for _, idx in stacked_labels(d, range(1, k + 1))]
    rows = unique_indices(d, k)
    for signed, loop in ((True, cumulant_from_moments), (False, moment_from_cumulants)):
        x = rng.uniform(-1.0, 1.0, len(labels))
        want = np.array([loop(idx, dict(zip(labels, x)).__getitem__) for idx in rows])
        got = _convert(x, d, k, signed)[_start(d, k):]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_split_table_is_shared_and_read_only():
    heads, tails = _split_table(3, 4)
    assert _split_table(3, 4)[0] is heads and _split_table(3, 4)[1] is tails
    assert heads.shape == tails.shape == (len(unique_indices(3, 4)), 2**3 - 1)
    # the head and the tail of one split share out the index's four slots
    labels = [idx for _, idx in stacked_labels(3, range(1, 4))]
    for row, idx in enumerate(unique_indices(3, 4)):
        for head, tail in zip(heads[row], tails[row]):
            assert labels[head][0] == idx[0]
            assert sorted(labels[head] + labels[tail]) == list(idx)
    # the other cached tables of the stacked vector are shared and read-only too
    pairs, prefixes = _pair_table(3, 2), _prefix_table(3, 4)
    assert _pair_table(3, 2) is pairs and _prefix_table(3, 4) is prefixes
    for array in (heads, tails, pairs, prefixes):
        with pytest.raises(ValueError):
            array[0, 0] = 0


@pytest.mark.parametrize("d, k", [(3, 3), (4, 6), (6, 8), (8, 8)])
def test_split_table_matches_column_by_column_ranks(d, k):
    heads, tails = _split_table(d, k)
    want_heads, want_tails = split_table_loop(d, k)
    assert np.array_equal(heads, want_heads) and np.array_equal(tails, want_tails)


@pytest.mark.parametrize("orders", [(2, 3), (2, 3, 4)])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_pair_table_matches_pair_by_pair_lookup(d, orders):
    assert np.array_equal(_pair_table(d, max(orders)), pair_table_loop(d, max(orders)))


def test_cumulants_of_normal_from_scipy_moments():
    loc, scale = 1.3, 0.7
    dist = scipy.stats.norm(loc, scale)

    def moment(index):
        return dist.moment(len(index))

    assert cumulant_from_moments((0,), moment) == pytest.approx(loc)
    assert cumulant_from_moments((0, 0), moment) == pytest.approx(scale**2)
    assert cumulant_from_moments((0, 0, 0), moment) == pytest.approx(0.0, abs=1e-12)
    assert cumulant_from_moments((0,) * 4, moment) == pytest.approx(0.0, abs=1e-10)


def test_cumulants_of_gamma_from_scipy_moments():
    shape, scale = 2.5, 1.4
    dist = scipy.stats.gamma(shape, scale=scale)

    def moment(index):
        return dist.moment(len(index))

    for k in range(1, 5):
        expected = shape * scale**k * math.factorial(k - 1)
        assert cumulant_from_moments((0,) * k, moment) == pytest.approx(expected)


@settings(max_examples=50)
@given(st.data())
def test_moment_cumulant_round_trip(data):
    d, k = 2, 4
    keys = [idx for j in range(1, k + 1) for idx in unique_indices(d, j)]
    moments = {
        idx: data.draw(st.floats(-2, 2, allow_nan=False, allow_infinity=False))
        for idx in keys
    }
    cumulants = {idx: cumulant_from_moments(idx, moments.__getitem__) for idx in keys}
    for idx in keys:
        back = moment_from_cumulants(idx, cumulants.__getitem__)
        assert back == pytest.approx(moments[idx], rel=1e-9, abs=1e-9)


def test_empirical_first_two_orders_match_numpy():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(500, 3))
    out = empirical_cumulants(X, [1, 2])
    assert np.allclose(out[1].vec_unique(), X.mean(axis=0))
    plug_in_cov = np.cov(X.T, bias=True)
    assert np.allclose(out[2].to_dense(), plug_in_cov)


def test_empirical_third_cumulant_is_central_moment():
    rng = np.random.default_rng(11)
    X = rng.exponential(size=(400, 2))
    out = empirical_cumulants(X, [3])
    centered = X - X.mean(axis=0)
    manual = (centered[:, 0] * centered[:, 0] * centered[:, 1]).mean()
    assert out[3][0, 0, 1] == pytest.approx(manual)


def test_empirical_raw_moment():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert empirical_raw_moment(X, (0, 1)) == pytest.approx((2.0 + 12.0) / 2)


def test_stacked_labels_and_stack_unique():
    labels = stacked_labels(2, [2, 3])
    assert labels[0] == (2, (0, 0)) and labels[3] == (3, (0, 0, 0))
    assert len(labels) == 3 + 4
    cums = {
        2: SymmetricTensor(2, 2, np.array([1.0, 2.0, 3.0])),
        3: SymmetricTensor(2, 3, np.array([4.0, 5.0, 6.0, 7.0])),
    }
    assert np.array_equal(stack_unique(cums), [1, 2, 3, 4, 5, 6, 7])


def test_cumulant_estimators_need_an_order():
    X = np.random.default_rng(18).normal(size=(50, 2))
    with pytest.raises(ValueError, match="need at least one cumulant order"):
        empirical_cumulants(X, [])
    with pytest.raises(ValueError, match="need at least one cumulant order"):
        estimate_omega(X, [])
    cums = {k: SymmetricTensor(2, k) for k in range(1, 5)}
    with pytest.raises(ValueError, match="need at least one cumulant order"):
        population_omega(cums, [])


@pytest.mark.parametrize("orders", [[0], [-2], [0, 2], [3, -1, 2]])
@pytest.mark.parametrize("estimator", ["empirical", "estimate", "population"])
def test_cumulant_estimators_refuse_orders_below_one(estimator, orders):
    # these used to leak numpy broadcast errors, a "k must be a non-negative
    # integer" from deeper down, or a bare KeyError
    X = np.random.default_rng(19).normal(size=(50, 2))
    cums = {k: SymmetricTensor(2, k) for k in range(1, 7)}
    call = {
        "empirical": lambda: empirical_cumulants(X, orders),
        "estimate": lambda: estimate_omega(X, orders),
        "population": lambda: population_omega(cums, orders),
    }[estimator]
    message = f"cumulant orders must be at least 1, got {sorted(orders)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_beta_raw_moment_matches_scipy():
    mu, nu = 0.8, 1.0
    a, b = mu * nu, (1 - mu) * nu
    dist = scipy.stats.beta(a, b)
    for k in range(1, 7):
        assert beta_raw_moment(mu, nu, k) == pytest.approx(dist.moment(k), rel=1e-12)
    with pytest.raises(ValueError):
        beta_raw_moment(1.2, 1.0, 2)


def test_compound_poisson_cumulants_are_diagonal():
    rates = np.array([0.5, 2.0])
    out = compound_poisson_cumulants(rates, lambda k: 3.0**k, [2, 3])
    assert out[2][0, 0] == pytest.approx(0.5 * 9.0)
    assert out[3][1, 1, 1] == pytest.approx(2.0 * 27.0)
    assert out[2][0, 1] == 0.0
    assert out[3][0, 1, 1] == 0.0


def test_cumulant_orders_must_be_integers():
    # each of these used to truncate the order with int()
    samples = np.random.default_rng(14).normal(size=(50, 2))
    with pytest.raises(ValueError, match="need an integer cumulant order"):
        compound_poisson_cumulants([1.0], lambda k: 1.0, [2.5])
    with pytest.raises(ValueError, match="need an integer cumulant order"):
        cumulants._sorted_orders([2.7, 3])
    with pytest.raises(ValueError, match="need an integer cumulant order"):
        empirical_cumulants(samples, [2, 3.0])
    with pytest.raises(ValueError, match="need an integer cumulant order"):
        stacked_labels(2, [2.5])
    with pytest.raises(ValueError, match="need an integer cumulant order"):
        stack_unique(empirical_cumulants(samples, [2]), [True])
    assert cumulants._sorted_orders([np.int64(3), 2]) == [2, 3]
    assert list(compound_poisson_cumulants([1.0], lambda k: 1.0, [np.int32(2)])) == [2]


@pytest.mark.parametrize(
    "d, orders", [(2, (2, 3)), (3, (2, 3, 4))], ids=["d2-o23", "d3-o234"]
)
def test_cumulant_jacobian_matches_finite_differences(d, orders):
    rng = np.random.default_rng(12)
    k = max(orders)
    feat_labels = [idx for j in range(1, k + 1) for idx in unique_indices(d, j)]
    means = {idx: float(v) for idx, v in zip(feat_labels, rng.uniform(0.5, 1.5, len(feat_labels)))}
    out_labels = stacked_labels(d, orders)
    J = _cumulant_jacobian(np.array([means[f] for f in feat_labels]), d, orders)
    eps = 1e-6
    for col, feat in enumerate(feat_labels):
        up = dict(means)
        down = dict(means)
        up[feat] += eps
        down[feat] -= eps
        for row, (_, index) in enumerate(out_labels):
            fd = (
                cumulant_from_moments(index, up.__getitem__)
                - cumulant_from_moments(index, down.__getitem__)
            ) / (2 * eps)
            assert J[row, col] == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_estimate_omega_normal_variance():
    # sqrt(n)-scaled variance of the sample variance of N(0, s^2) is 2 s^4
    rng = np.random.default_rng(13)
    s = 1.5
    X = rng.normal(0.0, s, size=(200_000, 1))
    omega = estimate_omega(X, [2])
    assert isinstance(omega, OmegaEstimate)
    assert omega.matrix.shape == (1, 1)
    assert omega.matrix[0, 0] == pytest.approx(2 * s**4, rel=0.05)


def test_population_omega_gaussian_isserlis():
    # for a centered Gaussian the covariance of empirical second cumulants is
    # C[(i,j),(k,l)] = S_ik S_jl + S_il S_jk
    S = np.array([[2.0, 0.6], [0.6, 1.0]])
    d = 2
    cums = {
        1: SymmetricTensor(d, 1),
        2: SymmetricTensor.from_dense(S),
        3: SymmetricTensor(d, 3),
        4: SymmetricTensor(d, 4),
    }
    omega = population_omega(cums, [2])
    labels = [idx for _, idx in stacked_labels(d, [2])]
    for a, (i, j) in enumerate(labels):
        for b, (k, l) in enumerate(labels):
            expected = S[i, k] * S[j, l] + S[i, l] * S[j, k]
            assert omega.matrix[a, b] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d, orders", [(3, (2, 3, 4)), (4, (2, 3))])
def test_population_omega_matches_loop_reference(d, orders):
    M = study_drift_matrix(d, 10.0, 0.2)
    levy = LevySpec(np.full(d, 0.5), BetaJumps(0.8, 1.0))
    cums = population_state_cumulants(M, levy, range(1, 2 * max(orders) + 1))
    omega = population_omega(cums, orders)
    want = population_omega_loop(cums, orders)
    assert np.max(np.abs(omega.matrix - want)) <= 1e-12 * np.max(np.abs(want))
    assert omega.matrix.shape == (len(stacked_labels(d, orders)),) * 2
    assert all(omega.cumulants[k] is cums[k] for k in orders)


def test_estimate_omega_carries_empirical_cumulants():
    X = np.random.default_rng(17).exponential(size=(500, 3))
    omega = estimate_omega(X, [2, 3])
    plug_in = empirical_cumulants(X, [2, 3])
    assert sorted(omega.cumulants) == [2, 3]
    for k in (2, 3):
        assert np.array_equal(omega.cumulants[k].values, plug_in[k].values)


def test_population_omega_requires_all_orders():
    with pytest.raises(ValueError):
        population_omega({2: SymmetricTensor(2, 2)}, [2])


def test_bootstrap_omega_roughly_matches_delta_method():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(3000, 2))
    delta = estimate_omega(X, [2]).matrix
    boot = bootstrap_omega(X, [2], n_boot=300, seed=15)
    assert np.allclose(np.diag(boot), np.diag(delta), rtol=0.25)


def test_estimate_omega_approaches_population_omega():
    rng = np.random.default_rng(16)
    S = np.array([[1.0, 0.3], [0.3, 0.5]])
    L = np.linalg.cholesky(S)
    X = rng.normal(size=(150_000, 2)) @ L.T
    pop = population_omega(
        {
            1: SymmetricTensor(2, 1),
            2: SymmetricTensor.from_dense(S),
            3: SymmetricTensor(2, 3),
            4: SymmetricTensor(2, 4),
        },
        [2],
    )
    emp = estimate_omega(X, [2])
    assert np.allclose(np.diag(emp.matrix), np.diag(pop.matrix), rtol=0.1)


def test_prefix_table_is_shared_and_read_only():
    table = _prefix_table(3, 4)
    assert _prefix_table(3, 4) is table
    labels = [idx for _, idx in stacked_labels(3, range(1, 5))]
    assert len(table) == len(labels)
    for r, (parent, last) in enumerate(table):
        prefix = () if parent < 0 else labels[parent]
        assert parent < r and prefix + (last,) == labels[r]
    with pytest.raises(ValueError):
        table[0, 0] = 0


def _block_cases():
    for rows in (1, 2, 3, BLOCK_ROWS):
        for n in sorted({2, rows - 1, rows, rows + 1, 3 * rows + 7}):
            if n >= 2:
                yield rows, n


@pytest.mark.parametrize("rows, n", list(_block_cases()))
def test_feature_moments_match_full_matrix_oracle(rows, n, monkeypatch):
    monkeypatch.setattr(cumulants, "BLOCK_ROWS", rows)
    X = np.random.default_rng(n).exponential(size=(n, 3))
    want_means, want_cov = feature_moments_full(X, 3)
    means, cov = _feature_moments(X, 3, covariance=True)
    assert np.linalg.norm(means - want_means) <= 1e-12 * np.linalg.norm(want_means)
    assert np.linalg.norm(cov - want_cov) <= 1e-12 * np.linalg.norm(want_cov)
    only_means, no_cov = _feature_moments(X, 3, covariance=False)
    assert no_cov is None and np.array_equal(only_means, means)


@pytest.mark.parametrize("rows", [1, 2, 3, BLOCK_ROWS])
def test_feature_moments_hold_precision_under_offset(rows, monkeypatch):
    # features of order 3 near 1e12 with a spread near 3e8: an unshifted
    # one-pass covariance loses about 1e-8 relative, a two-pass one does not
    monkeypatch.setattr(cumulants, "BLOCK_ROWS", rows)
    X = np.random.default_rng(18).exponential(size=(1000, 3)) + 1e4
    F = feature_matrix_full(X, 3, dtype=np.longdouble)
    exact_means = F.mean(axis=0)
    centred = F - exact_means
    exact_cov = centred.T @ centred / (len(X) - 1)

    def error(got, want):
        return float(np.linalg.norm((got - want).astype(float)) / np.linalg.norm(want))

    np_means, np_cov = feature_moments_full(X, 3)
    means, cov = _feature_moments(X, 3, covariance=True)
    assert error(cov, exact_cov) <= 4 * error(np_cov, exact_cov)
    assert error(means, exact_means) <= 4 * error(np_means, exact_means)


@pytest.mark.parametrize(
    "rows, n",
    [(64, 2), (64, 63), (64, 64), (64, 65), (64, 200), (BLOCK_ROWS, 2 * BLOCK_ROWS + 1)],
)
def test_estimate_omega_builds_each_block_once(rows, n, monkeypatch):
    monkeypatch.setattr(cumulants, "BLOCK_ROWS", rows)
    calls = []
    build = cumulants._feature_matrix

    def counted(block, max_order):
        calls.append(len(block))
        return build(block, max_order)

    monkeypatch.setattr(cumulants, "_feature_matrix", counted)
    estimate_omega(np.random.default_rng(n).exponential(size=(n, 2)), [2, 3])
    assert len(calls) == math.ceil(n / rows) and sum(calls) == n


def test_estimate_omega_memory_stays_below_feature_matrix():
    X = np.random.default_rng(19).exponential(size=(100_000, 5))
    full_bytes = X.shape[0] * len(stacked_labels(5, range(1, 4))) * 8
    tracemalloc.start()
    try:
        estimate_omega(X, [2, 3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_bytes / 4


@pytest.mark.parametrize("estimator", [empirical_cumulants, estimate_omega])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_value_in_last_block_is_rejected(estimator, bad, monkeypatch):
    X = np.random.default_rng(20).exponential(size=(2 * BLOCK_ROWS + 5, 3))
    X[-1, 2] = bad
    built = []
    build = cumulants._feature_matrix

    def counted(block, max_order):
        built.append(len(block))
        return build(block, max_order)

    monkeypatch.setattr(cumulants, "_feature_matrix", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning ahead of the error
        with pytest.raises(ValueError, match="NaN or infinite"):
            estimator(X, [2, 3])
    # each block is checked before its features are built
    assert built == [BLOCK_ROWS, BLOCK_ROWS]


@pytest.mark.parametrize("estimator", [empirical_cumulants, estimate_omega])
@pytest.mark.parametrize(
    "samples, message",
    [
        (np.ones(5), r"\(n, d\) array"),
        (np.ones((2, 2, 2)), r"\(n, d\) array"),
        (np.empty((0, 2)), "need at least 2 samples, got 0"),
        (np.ones((1, 2)), "need at least 2 samples, got 1"),
        ([[1.0, np.nan], [0.5, 0.2]], "NaN or infinite"),
        ([[1.0, 2.0], [-np.inf, 0.2]], "NaN or infinite"),
    ],
    ids=["1-d", "3-d", "no-rows", "one-row", "nan", "inf"],
)
def test_moment_estimators_reject_bad_samples(estimator, samples, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning ahead of the error
        with pytest.raises(ValueError, match=message):
            estimator(samples, [2, 3])
