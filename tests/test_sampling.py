import os
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from cumulyap import sampling
from cumulyap.lyapunov import is_stable, solve_lyapunov
from cumulyap.sampling import (
    BLOCK_JUMPS,
    CHUNK_DRAWS,
    BetaJumps,
    LevySpec,
    TwoPointJumps,
    population_state_cumulants,
    sample_steady_state,
    steady_state_mean,
    study_covariance,
    study_drift_matrix,
    two_point_jumps,
)
from cumulyap.tensors import SymmetricTensor
from oracles import complex_eigen_sampler, single_pass_real_sampler, steady_state_jumps


def two_point_moment(law, k):
    return law.p * law.a**k + (1 - law.p) * law.b**k


@pytest.mark.parametrize(
    "c2,cr,r",
    [
        (1.0, 4.0, 3),  # large positive third moment: one point at zero
        (1.0, -4.0, 3),  # large negative third moment
        (2.0, 0.5, 3),  # small odd moment: symmetric points
        (2.0, -0.5, 3),
        (1.0, 5.0, 4),  # even order above the floor
        (0.7, 0.7**2.5, 5),  # exactly at the threshold
        (9.581334093833094, 9.581334093833094**2.5, 5),  # rounding puts p above 1
    ],
)
def test_two_point_jumps_exact_moments(c2, cr, r):
    law = two_point_jumps(c2, cr, r)
    assert 0.0 <= law.p <= 1.0
    assert two_point_moment(law, 2) == pytest.approx(c2, rel=1e-12)
    assert two_point_moment(law, r) == pytest.approx(cr, rel=1e-12)
    assert law.raw_moment(2) == pytest.approx(c2, rel=1e-12)
    assert law.raw_moment(r) == pytest.approx(cr, rel=1e-12)


def test_two_point_jumps_validation():
    with pytest.raises(ValueError):
        two_point_jumps(-1.0, 1.0, 3)
    with pytest.raises(ValueError):
        two_point_jumps(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        two_point_jumps(1.0, 0.5, 4)  # even order below the power-mean floor
    for mu, nu in [(0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.5, -1.0), (float("nan"), 1.0)]:
        with pytest.raises(ValueError, match="need 0 < mu < 1 and nu > 0"):
            BetaJumps(mu, nu)


def test_two_point_jumps_rejects_non_integer_order():
    # 3.5 used to be truncated to the r = 3 law
    for r in (3.5, 3.0, True):
        with pytest.raises(ValueError, match="need an integer moment order r"):
            two_point_jumps(1.0, 2.0, r)
    assert two_point_jumps(1.0, 2.0, np.int64(3)) == two_point_jumps(1.0, 2.0, 3)


def test_population_state_cumulants_rejects_non_integer_order():
    M = study_drift_matrix(2, 1.0, 0.2)
    levy = LevySpec(np.ones(2), BetaJumps(0.5, 2.0))
    with pytest.raises(ValueError, match="need an integer cumulant order"):
        population_state_cumulants(M, levy, [2, 2.5])
    assert list(population_state_cumulants(M, levy, [np.int64(3), 1])) == [1, 3]


@pytest.mark.parametrize("orders", [[1], [2], [1, 2], range(1, 7), []])
def test_population_state_cumulants_checks_noise_dimension_first(orders):
    # order 1 alone used to leak numpy's "solve1: Input operand 1 has a
    # mismatch" from the stationary mean
    M = study_drift_matrix(3, 1.0, 0.2)
    levy = LevySpec(np.ones(2), BetaJumps(0.5, 2.0))
    with pytest.raises(ValueError, match="noise cumulant dimension 2 != drift dimension 3"):
        population_state_cumulants(M, levy, orders)
    with pytest.raises(ValueError, match="drift matrix must be square"):
        population_state_cumulants(np.ones((3, 2)), levy, orders)


def test_population_state_cumulants_eigen_decompose_once(eigvals_calls):
    M = study_drift_matrix(3, 1.0, 0.2)
    levy = LevySpec(np.ones(3), BetaJumps(0.5, 2.0))
    eigvals_calls.clear()  # the drift's stability check
    out = population_state_cumulants(M, levy, range(1, 7))
    assert eigvals_calls == [(1, 3, 3)]
    assert list(out) == [1, 2, 3, 4, 5, 6]
    for k in range(2, 7):
        want = solve_lyapunov(M, levy.noise_cumulants([k])[k])
        assert np.array_equal(out[k].values, want.values)
    # the five single-order solves above; the mean alone decomposes nothing
    population_state_cumulants(M, levy, [1])
    assert len(eigvals_calls) == 1 + 5


@pytest.mark.parametrize(
    "c2,cr", [(1.0, float("nan")), (float("nan"), 1.0), (1.0, float("inf")), (float("inf"), 2.0)]
)
def test_two_point_jumps_rejects_non_finite_moments(c2, cr):
    with pytest.raises(ValueError, match="moments must be finite"):
        two_point_jumps(c2, cr, 3)


@pytest.mark.parametrize(
    "a,b,p",
    [(1.0, 0.0, 1.5), (1.0, 0.0, -0.1), (1.0, 0.0, float("nan")),
     (float("inf"), 0.0, 0.5), (1.0, float("nan"), 0.5)],
)
def test_two_point_law_rejects_bad_parameters(a, b, p):
    # p outside [0, 1] made raw_moment disagree with the law's own draws
    with pytest.raises(ValueError, match="need finite points and 0 <= p <= 1"):
        TwoPointJumps(a, b, p)


def test_two_point_law_accepts_endpoint_probabilities():
    rng = np.random.default_rng(41)
    assert np.all(TwoPointJumps(2.0, 0.0, 1.0).sample(rng, 10) == 2.0)
    assert np.all(TwoPointJumps(2.0, -1.0, 0.0).sample(rng, 10) == -1.0)


def test_jump_law_samples_match_moments():
    rng = np.random.default_rng(40)
    law = two_point_jumps(1.0, 2.0, 3)
    draws = law.sample(rng, 200_000)
    assert set(np.round(np.unique(draws), 10)) <= {round(law.a, 10), round(law.b, 10)}
    assert draws.mean() == pytest.approx(law.raw_moment(1), abs=0.02)

    beta = BetaJumps(0.8, 1.0)
    dist = scipy.stats.beta(0.8 * 1.0, 0.2 * 1.0)
    for k in range(1, 5):
        assert beta.raw_moment(k) == pytest.approx(dist.moment(k), rel=1e-12)
    bdraws = beta.sample(rng, 200_000)
    assert bdraws.mean() == pytest.approx(0.8, abs=0.005)

    const = TwoPointJumps(2.5, 2.5, 1.0)  # a constant jump size
    assert const.raw_moment(3) == pytest.approx(2.5**3)
    assert np.all(const.sample(rng, 5) == 2.5)


@pytest.mark.parametrize(
    "law", [BetaJumps(0.8, 1.0), BetaJumps(0.3, 1.5), two_point_jumps(1.0, 0.3, 3)]
)
@pytest.mark.parametrize(
    "sizes", [(0, 9), (9, 0), (1, 2, 3), (5, 0, 11, 0, 1), (1000, 1, 0, 37)]
)
def test_jump_law_draws_split_bit_for_bit(law, sizes):
    # the sampler draws a chunk's sizes block by block from one stream
    whole_rng, rng = np.random.default_rng(42), np.random.default_rng(42)
    whole = law.sample(whole_rng, sum(sizes))
    parts = [law.sample(rng, size) for size in sizes]
    assert [part.shape for part in parts] == [(size,) for size in sizes]
    assert np.array_equal(np.concatenate(parts), whole)
    # and the stream is left where the whole call leaves it
    assert rng.bit_generator.state == whole_rng.bit_generator.state


def test_levy_spec_validation_and_cumulants():
    with pytest.raises(ValueError):
        LevySpec(np.array([-0.1, 1.0]), TwoPointJumps(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        LevySpec(np.zeros(2), TwoPointJumps(1.0, 1.0, 1.0))
    for bad in ([0.5, float("nan")], [float("inf"), 1.0]):
        with pytest.raises(ValueError, match=r"rates must be finite.*got \["):
            LevySpec(np.array(bad), TwoPointJumps(1.0, 1.0, 1.0))
    levy = LevySpec(np.array([0.5, 2.0]), TwoPointJumps(3.0, 3.0, 1.0))
    cums = levy.noise_cumulants([2, 3])
    assert cums[2][0, 0] == pytest.approx(0.5 * 9.0)
    assert cums[3][1, 1, 1] == pytest.approx(2.0 * 27.0)
    assert cums[2][0, 1] == 0.0


def test_study_drift_matrix_stable_across_grid():
    for d in (2, 3, 5):
        for gamma in (0.0, 1.0, 10.0):
            for rho in (0.0, 0.2, 0.9):
                assert is_stable(study_drift_matrix(d, gamma, rho))
    with pytest.raises(ValueError):
        study_drift_matrix(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        study_drift_matrix(3, 1.0, -0.2)


def test_study_covariance_solves_lyapunov():
    d, gamma, rho, c2 = 3, 10.0, 0.2, 1.25
    M = study_drift_matrix(d, gamma, rho)
    Sigma = study_covariance(d, rho, c2)
    direct = solve_lyapunov(M, SymmetricTensor.from_dense(c2 * np.eye(d)))
    assert np.allclose(Sigma, direct.to_dense(), rtol=1e-12)
    # rotation strength must not enter the covariance
    Sigma_other = solve_lyapunov(
        study_drift_matrix(d, 2.0, rho), SymmetricTensor.from_dense(c2 * np.eye(d))
    )
    assert np.allclose(Sigma, Sigma_other.to_dense(), rtol=1e-10)


def test_steady_state_mean():
    M = np.array([[-2.0, 0.0], [1.0, -1.0]])
    levy = LevySpec(np.array([1.0, 3.0]), TwoPointJumps(2.0, 2.0, 1.0))
    mean = steady_state_mean(M, levy)
    assert np.allclose(M @ mean, -levy.rates * 2.0)


def test_population_state_cumulants():
    M = study_drift_matrix(3, 10.0, 0.2)
    levy = LevySpec(np.full(3, 0.5), BetaJumps(0.8, 1.0))
    out = population_state_cumulants(M, levy, [1, 2, 3])
    assert np.allclose(out[1].vec_unique(), steady_state_mean(M, levy))
    c2 = 0.5 * BetaJumps(0.8, 1.0).raw_moment(2)
    assert np.allclose(out[2].to_dense(), study_covariance(3, 0.2, c2), rtol=1e-12)
    assert out[3].k == 3


def test_sampler_deterministic_and_shaped():
    M = study_drift_matrix(2, 4.0, 0.3)
    levy = LevySpec(np.array([0.5, 0.5]), BetaJumps(0.8, 1.0))
    X1 = sample_steady_state(M, levy, 500, seed=41)
    X2 = sample_steady_state(M, levy, 500, seed=41)
    X3 = sample_steady_state(M, levy, 500, seed=42)
    assert X1.shape == (500, 2)
    assert np.array_equal(X1, X2)
    assert not np.array_equal(X1, X3)


def test_sampler_matches_population_moments():
    d = 3
    M = study_drift_matrix(d, 10.0, 0.2)
    levy = LevySpec(np.full(d, 0.5), BetaJumps(0.8, 1.0))
    n = 20_000
    X = sample_steady_state(M, levy, n, seed=43)
    mean = steady_state_mean(M, levy)
    c2 = 0.5 * BetaJumps(0.8, 1.0).raw_moment(2)
    Sigma = study_covariance(d, 0.2, c2)
    # 6 monte carlo standard errors on each coordinate mean
    se = np.sqrt(np.diag(Sigma) / n)
    assert np.all(np.abs(X.mean(axis=0) - mean) < 6 * se)
    centered = X - mean
    for i in range(d):
        for j in range(i, d):
            prods = centered[:, i] * centered[:, j]
            assert abs(prods.mean() - Sigma[i, j]) < 6 * prods.std() / np.sqrt(n)


def test_sampler_input_validation():
    levy = LevySpec(np.array([0.5, 0.5]), TwoPointJumps(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        sample_steady_state(np.eye(2), levy, 10, seed=0)  # unstable
    with pytest.raises(ValueError):
        sample_steady_state(study_drift_matrix(3, 1.0, 0.1), levy, 10, seed=0)
    near_defective = np.array([[-1.0, 1.0], [0.0, -1.0 + 1e-12]])
    with pytest.raises(ValueError):
        sample_steady_state(near_defective, levy, 10, seed=0)


def test_sampler_accepts_seed_sequence():
    M = study_drift_matrix(2, 4.0, 0.3)
    levy = LevySpec(np.array([0.5, 0.5]), TwoPointJumps(1.0, 1.0, 1.0))
    root = np.random.SeedSequence(44)
    X1 = sample_steady_state(M, levy, 100, seed=root)
    X2 = sample_steady_state(M, levy, 100, seed=np.random.SeedSequence(44))
    assert np.array_equal(X1, X2)


def test_sampler_leaves_seed_sequence_unchanged():
    M = study_drift_matrix(2, 4.0, 0.3)
    levy = LevySpec(np.array([0.5, 0.5]), TwoPointJumps(1.0, 1.0, 1.0))
    n = CHUNK_DRAWS + 1  # two chunk streams

    def child():  # a spawned seed, as run_study passes
        return np.random.SeedSequence(44).spawn(2)[1]

    seed = child()
    X1 = sample_steady_state(M, levy, n, seed=seed)
    X2 = sample_steady_state(M, levy, n, seed=seed)
    assert seed.n_children_spawned == 0
    assert np.array_equal(X1, X2)
    assert np.array_equal(X1, sample_steady_state(M, levy, n, seed=child()))
    # the oracle draws from a fresh seed's first spawn
    assert np.array_equal(X1, single_pass_real_sampler(M, levy, n, seed=child()))


STUDY_LEVY_3 = LevySpec(np.full(3, 0.5), BetaJumps(0.8, 1.0))

# (drift, noise, n); the study drifts have one real eigenvalue plus one
# conjugate pair (d = 3) or two pairs (d = 5), the d = 4 drift only pairs.
ORACLE_CASES = {
    "study-d3-one-pair": (study_drift_matrix(3, 10.0, 0.2), STUDY_LEVY_3, 3000),
    "study-d5-two-pairs": (
        study_drift_matrix(5, 10.0, 0.2),
        LevySpec(np.full(5, 0.5), BetaJumps(0.8, 1.0)),
        3000,
    ),
    "upper-triangular-real": (
        np.array([[-1.0, 0.5, 0.2], [0.0, -2.0, 0.3], [0.0, 0.0, -3.5]]),
        LevySpec(np.array([0.5, 1.0, 0.7]), BetaJumps(0.8, 1.0)),
        3000,
    ),
    "two-chunks": (study_drift_matrix(3, 10.0, 0.2), STUDY_LEVY_3, CHUNK_DRAWS + 1),
    "two-chunks-d5": (
        study_drift_matrix(5, 10.0, 0.2),
        LevySpec(np.full(5, 0.5), BetaJumps(0.8, 1.0)),
        CHUNK_DRAWS + 1,
    ),
    "constant-jumps-zero-rate": (
        study_drift_matrix(3, 10.0, 0.2),
        LevySpec(np.array([0.5, 0.0, 1.0]), TwoPointJumps(1.5, 1.5, 1.0)),
        3000,
    ),
    "two-point-jumps-zero-rate": (
        study_drift_matrix(4, 3.0, 0.4),
        LevySpec(np.array([0.0, 0.5, 1.0, 0.3]), two_point_jumps(1.0, 0.3, 3)),
        3000,
    ),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_sampler_matches_complex_kernel_draw_for_draw(case):
    M, levy, n = ORACLE_CASES[case]
    X = sample_steady_state(M, levy, n, seed=45)
    ref = complex_eigen_sampler(M, levy, n, seed=45)
    assert X.shape == ref.shape == (n, M.shape[0])
    scale = np.max(np.abs(ref), axis=1)
    assert np.all(scale > 0)
    # each draw within 1e-12 of its own size: the kernels differ only in rounding
    assert np.all(np.max(np.abs(X - ref), axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_blocked_kernel_equals_single_pass_kernel(case):
    M, levy, n = ORACLE_CASES[case]
    chunk_jumps = [counts.sum() for _, counts, *_ in steady_state_jumps(M, levy, n, 45)]
    # every case's first chunk spans several blocks
    assert chunk_jumps[0] > BLOCK_JUMPS
    X = sample_steady_state(M, levy, n, seed=45)
    assert np.array_equal(X, single_pass_real_sampler(M, levy, n, seed=45))


@pytest.mark.parametrize("block_jumps", [1, 2, 3])
def test_blocked_kernel_exact_around_draws_without_jumps(block_jumps, monkeypatch):
    M = study_drift_matrix(3, 10.0, 0.2)
    levy = LevySpec(np.array([0.05, 0.0, 0.1]), BetaJumps(0.8, 1.0))
    n = 2000
    counts = np.concatenate([c for _, c, *_ in steady_state_jumps(M, levy, n, seed=47)])
    # empty draws next to draws with jumps, and draws larger than a block,
    # so some block boundaries sit beside an empty draw and some blocks hold
    # a single draw over the limit or only empty draws
    assert np.any((counts[:-1] == 0) & (counts[1:] > 0))
    assert np.any((counts[:-1] > 0) & (counts[1:] == 0))
    assert np.any(counts > block_jumps)
    monkeypatch.setattr(sampling, "BLOCK_JUMPS", block_jumps)
    X = sample_steady_state(M, levy, n, seed=47)
    assert np.array_equal(X, single_pass_real_sampler(M, levy, n, seed=47))


def test_sampler_draw_without_jumps_is_exact_zero():
    M = study_drift_matrix(3, 10.0, 0.2)
    levy = LevySpec(np.array([0.01, 0.0, 0.02]), BetaJumps(0.8, 1.0))
    n = 2000
    X = sample_steady_state(M, levy, n, seed=46)
    counts = np.concatenate([c for _, c, *_ in steady_state_jumps(M, levy, n, seed=46)])
    assert 0 < np.sum(counts == 0) < n
    assert np.all(X[counts == 0] == 0.0)
    assert np.all(np.any(X[counts > 0] != 0.0, axis=1))


def test_sampler_rejects_bad_size_and_tolerance():
    M = study_drift_matrix(2, 4.0, 0.3)
    levy = LevySpec(np.array([0.5, 0.5]), TwoPointJumps(1.0, 1.0, 1.0))
    for n in (-1, 2.0, 2.5, True, "10"):
        with pytest.raises(ValueError, match="non-negative integer"):
            sample_steady_state(M, levy, n, seed=0)
    assert sample_steady_state(M, levy, 0, seed=0).shape == (0, 2)
    assert sample_steady_state(M, levy, np.int64(3), seed=0).shape == (3, 2)


def test_sampler_memory_stays_near_its_output(monkeypatch):
    # one chunk on one core, so the peak is one chunk's: its counts and one
    # block's jumps. The times, coordinates and sizes of all its ~557k jumps
    # alone would take 12.8 MiB, ten times the 1.25 MiB output.
    monkeypatch.setattr(sampling, "_available_cores", lambda: 1)
    M = study_drift_matrix(5, 10.0, 0.2)
    levy = LevySpec(np.full(5, 0.5), BetaJumps(0.8, 1.0))
    tracemalloc.start()
    try:
        X = sample_steady_state(M, levy, CHUNK_DRAWS, seed=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * X.nbytes


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_threaded_chunks_equal_single_pass_kernel(cores, monkeypatch):
    # four chunks, the last one short; 1 core is the serial path, and 3
    # threads switching every microsecond interleave far more than a real run
    monkeypatch.setattr(sampling, "_available_cores", lambda: cores)
    M, levy = study_drift_matrix(3, 10.0, 0.2), STUDY_LEVY_3
    n = 3 * CHUNK_DRAWS + 17
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        X = sample_steady_state(M, levy, n, seed=48)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before
    assert np.array_equal(X, single_pass_real_sampler(M, levy, n, seed=48))


def test_one_chunk_starts_no_thread(monkeypatch):
    monkeypatch.setattr(sampling, "_available_cores", lambda: 3)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    M = study_drift_matrix(3, 10.0, 0.2)
    sample_steady_state(M, STUDY_LEVY_3, 8000, seed=49)
    assert started == []
    # two chunks on three cores: the caller and one helper
    sample_steady_state(M, STUDY_LEVY_3, CHUNK_DRAWS + 1, seed=49)
    assert len(started) == 1


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_map_on_cores_returns_results_in_index_order(cores, monkeypatch):
    monkeypatch.setattr(sampling, "_available_cores", lambda: cores)
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = sampling._map_on_cores(lambda i: (i, sum(range(1000 * i))), 20)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before
    assert results == [(i, sum(range(1000 * i))) for i in range(20)]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_fork_map_returns_results_in_item_order(cores, monkeypatch):
    monkeypatch.setattr(sampling, "_available_cores", lambda: cores)
    results = sampling._fork_map(lambda x: (x * x, os.getpid()), range(7))
    assert [value for value, _ in results] == [x * x for x in range(7)]
    pids = [pid for _, pid in results]
    if cores == 1:
        assert set(pids) == {os.getpid()}
    else:
        # one contiguous share per child, none run in this process
        assert len(set(pids)) == cores and os.getpid() not in pids
        assert sum(a != b for a, b in zip(pids, pids[1:])) == cores - 1


def waited_for_every_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_fork_map_raises_a_task_error_after_waiting(monkeypatch):
    monkeypatch.setattr(sampling, "_available_cores", lambda: 3)

    def task(x):
        if x == 5:
            raise ValueError(f"bad item {x}")
        return x

    with pytest.raises(ValueError, match="^bad item 5$"):
        sampling._fork_map(task, range(9))
    assert waited_for_every_child()


def exits(x):
    os._exit(0)


def is_killed(x):
    os.kill(os.getpid(), signal.SIGKILL)


def returns_a_lock(x):
    return threading.Lock()


def raises_a_lock(x):
    raise ValueError(threading.Lock())


@pytest.mark.parametrize("task", [exits, is_killed, returns_a_lock, raises_a_lock])
def test_fork_map_child_without_results_is_a_runtime_error(task, monkeypatch):
    # the task fails in the last child only; the others send their results
    monkeypatch.setattr(sampling, "_available_cores", lambda: 2)
    with pytest.raises(RuntimeError, match="^a forked worker ended without its results$"):
        sampling._fork_map(lambda x: task(x) if x == 3 else x, range(4))
    assert waited_for_every_child()


@pytest.mark.parametrize("setting", ["one-item", "one-core", "no-fork"])
def test_fork_map_in_process_starts_no_child(setting, monkeypatch):
    monkeypatch.setattr(sampling, "_available_cores", lambda: 1 if setting == "one-core" else 3)
    if setting == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:

        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
    items = [4] if setting == "one-item" else range(5)
    assert sampling._fork_map(lambda x: (x, os.getpid()), items) == [
        (x, os.getpid()) for x in items
    ]


@pytest.mark.parametrize(
    "d, zero",
    [
        (d, zero)
        for d in range(1, 11)
        for zero in ([], [0], [d // 2], [d - 1], [0, d // 2, d - 1])
        if len(set(zero)) < d
    ],
)
def test_coordinates_equal_cdf_search(d, zero):
    # the sampler's cdf, with zero rates at the first, a middle and the last
    # coordinate, and u at 0, at each edge, one ulp either side and 1 - 2^-53
    rates = np.random.default_rng(d).uniform(0.1, 2.0, d)
    rates[zero] = 0.0
    cdf = (rates / rates.sum()).cumsum()
    cdf /= cdf[-1]
    edges = cdf[:-1]
    u = np.concatenate(
        [[0.0, 1.0 - 2.0**-53], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]
    )
    u = u[u < 1.0]  # Generator.random never gives 1
    assert np.array_equal(sampling._coordinates(cdf, u), cdf.searchsorted(u, "right"))
