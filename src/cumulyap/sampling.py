"""Exact steady-state sampling for linear SDEs driven by compound Poisson
noise, plus the benchmark drift family used by the simulation study.

A stationary draw is the sum of exp(s M) applied to the jumps of an
independent copy of the noise over s in (0, infinity); truncating where the
matrix exponential is negligible gives i.i.d. draws without time
discretization. The jumps are mapped through an eigendecomposition of M in
real arithmetic: one exponential per real eigenvalue and one per conjugate
pair (the partner's term is its complex conjugate), real columns summed per
draw with `np.bincount`, and one real product back to the state. A chunk's
jumps are weighted in blocks of whole draws, at most BLOCK_JUMPS jumps each
unless one draw has more, so a call's temporaries stay bounded however many
jumps a chunk holds; the output does not depend on the block size. Draws are
made in chunks of CHUNK_DRAWS, each from its own seed stream and into its own
rows, on the calling thread plus one helper thread per further available core
(at most one per further chunk); a one-chunk call starts no thread, and the
output does not depend on the number of cores.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cumulants import beta_raw_moment, compound_poisson_cumulants
from .lyapunov import is_stable, solve_lyapunov
from .tensors import SymmetricTensor

__all__ = [
    "BetaJumps",
    "TwoPointJumps",
    "ConstantJumps",
    "two_point_jumps",
    "LevySpec",
    "study_drift_matrix",
    "study_covariance",
    "steady_state_mean",
    "population_state_cumulants",
    "sample_steady_state",
]

TRUNCATION_TOL = 1e-12
CHUNK_DRAWS = 32768
BLOCK_JUMPS = 8192
EIGENBASIS_COND_LIMIT = 1e8


@dataclass(frozen=True)
class BetaJumps:
    """Beta-distributed jump sizes given by mean and precision."""

    mu: float
    nu: float

    def __post_init__(self):
        beta_raw_moment(self.mu, self.nu, 0)  # raises unless 0 < mu < 1 and nu > 0

    def raw_moment(self, k: int) -> float:
        return beta_raw_moment(self.mu, self.nu, k)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        a = self.mu * self.nu
        b = (1.0 - self.mu) * self.nu
        return rng.beta(a, b, size)


@dataclass(frozen=True)
class TwoPointJumps:
    """Jumps equal to `a` with probability `p` and `b` otherwise."""

    a: float
    b: float
    p: float

    def raw_moment(self, k: int) -> float:
        return self.p * self.a**k + (1.0 - self.p) * self.b**k

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.where(rng.random(size) < self.p, self.a, self.b)


@dataclass(frozen=True)
class ConstantJumps:
    """Deterministic jump size."""

    value: float

    def raw_moment(self, k: int) -> float:
        return self.value**k

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)


def two_point_jumps(c2: float, cr: float, r: int) -> TwoPointJumps:
    """Two-point jump law matching prescribed second and order-r raw moments.

    For |cr| at least c2^(r/2) one point sits at zero; otherwise, for odd r,
    the points are symmetric at +-sqrt(c2) with a tilted probability. Even r
    below that threshold is impossible for any real jump law (the power-mean
    inequality forces the order-r moment up to c2^(r/2)).
    """
    r = int(r)
    if r < 3:
        raise ValueError("need moment order r >= 3")
    if c2 <= 0.0:
        raise ValueError("second moment must be positive")
    threshold = c2 ** (r / 2.0)
    if r % 2 == 0 and cr < threshold:
        raise ValueError(
            f"order-{r} moment {cr} below the floor {threshold} forced by c2"
        )
    if abs(cr) >= threshold:
        a = float(np.sign(cr)) * abs(cr / c2) ** (1.0 / (r - 2))
        p = c2 * abs(c2 / cr) ** (2.0 / (r - 2))
        return TwoPointJumps(a=a, b=0.0, p=p)
    root = np.sqrt(c2)
    p = 0.5 * (1.0 + cr / threshold)
    return TwoPointJumps(a=root, b=-root, p=p)


@dataclass
class LevySpec:
    """Compound Poisson driving noise: per-coordinate rates, one jump law."""

    rates: np.ndarray
    jumps: BetaJumps | TwoPointJumps | ConstantJumps

    def __post_init__(self):
        self.rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if np.any(self.rates < 0) or not np.any(self.rates > 0):
            raise ValueError("rates must be nonnegative with at least one positive")

    @property
    def d(self) -> int:
        return self.rates.size

    def noise_cumulants(self, orders) -> dict[int, SymmetricTensor]:
        return compound_poisson_cumulants(self.rates, self.jumps.raw_moment, orders)


def study_drift_matrix(d: int, gamma: float, rho: float) -> np.ndarray:
    """Benchmark drift family: rotation strength gamma, coupling rho.

    The product of (gamma * skew - d * I) with (I - eta * ones), where
    eta = rho / (1 + rho (d - 1)), is stable for every rho in (0, 1) since
    the inverse of the second factor is a Lyapunov certificate.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("need coupling rho in [0, 1)")
    eta = rho / (1.0 + rho * (d - 1))
    skew = np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1)
    M = (gamma * skew - d * np.eye(d)) @ (np.eye(d) - eta * np.ones((d, d)))
    if not is_stable(M):
        raise ValueError("drift parametrization produced an unstable matrix")
    return M


def study_covariance(d: int, rho: float, c2_diagonal: float) -> np.ndarray:
    """Closed-form steady-state covariance of the benchmark drift.

    For noise covariance c2_diagonal * I the covariance is
    (c2_diagonal / 2d) * inverse(I - eta * ones); the rotation part of the
    drift drops out exactly.
    """
    eta = rho / (1.0 + rho * (d - 1))
    c = c2_diagonal / (2.0 * d)
    return c * (np.eye(d) + eta / (1.0 - d * eta) * np.ones((d, d)))


def steady_state_mean(M: np.ndarray, levy: LevySpec) -> np.ndarray:
    """Stationary mean: minus the drift inverse applied to the noise rate."""
    M = np.asarray(M, dtype=float)
    return -np.linalg.solve(M, levy.rates * levy.jumps.raw_moment(1))


def population_state_cumulants(
    M: np.ndarray, levy: LevySpec, orders
) -> dict[int, SymmetricTensor]:
    """Exact stationary cumulant tensors of the state, keyed by order.

    Order 1 is the stationary mean; higher orders come from the cumulant
    equations with the compound Poisson noise tensors.
    """
    M = np.asarray(M, dtype=float)
    out: dict[int, SymmetricTensor] = {}
    for k in sorted(int(k) for k in orders):
        if k == 1:
            out[1] = SymmetricTensor(M.shape[0], 1, steady_state_mean(M, levy))
        else:
            out[k] = solve_lyapunov(M, levy.noise_cumulants([k])[k])
    return out


def sample_steady_state(M: np.ndarray, levy: LevySpec, n: int, seed=None) -> np.ndarray:
    """n independent draws from the stationary law, as an (n, d) array.

    Each draw accumulates exp(s M) e_c J over the jumps (s, c, J) of a
    Poisson stream on (0, T), with T chosen so the discarded tail of the
    matrix exponential is below TRUNCATION_TOL. With M = Q diag(delta) Q^-1,
    exp(s M) e_c = sum_l Q[:, l] exp(s delta_l) Q^-1[l, c]. A real eigenvalue
    contributes one real exponential; a conjugate pair contributes
    2 Re(Q[:, l] z_l) from the exponential of its member with positive
    imaginary part alone. The real and imaginary parts of these weighted
    exponentials are summed per draw with `np.bincount` and mapped back to
    the state by one real product per chunk. Draws are made in chunks of
    CHUNK_DRAWS, chunk i from the stream SeedSequence(seed) would give as its
    i-th spawned child; `seed` itself is left as it was, so the same seed and
    n always reproduce the same array bit for bit. Each chunk draws all its
    random numbers first and then weighs its jumps in blocks of whole draws
    (see BLOCK_JUMPS), keeping each draw's jumps together and in order, so
    the blocks change no bit of the result. The chunks run on the calling
    thread plus min(cores, chunks) - 1 helper threads, started for this call
    and joined before it returns, each chunk writing only its own rows: a
    call with one chunk (n <= CHUNK_DRAWS) or on one core starts no thread,
    and the array is the same bit for bit on any number of cores. Safe to
    call from several threads at once; each such call may start its own
    helpers.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if levy.d != d:
        raise ValueError("noise dimension does not match the drift")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if not is_stable(M):
        raise ValueError("drift must be stable to have a stationary law")
    delta, Q = np.linalg.eig(M)
    if np.linalg.cond(Q) > EIGENBASIS_COND_LIMIT:
        raise ValueError(
            "drift eigenbasis too ill-conditioned for the exponential route"
        )
    Qinv = np.linalg.inv(Q)
    horizon = np.log(TRUNCATION_TOL) / np.max(delta.real)
    total_rate = float(levy.rates.sum())
    coord_probs = levy.rates / total_rate
    real, upper = delta.imag == 0, delta.imag > 0
    real_rates, real_left = delta[real].real, Qinv[real].real
    pair_rates, pair_left = delta[upper], Qinv[upper]
    # rows: one per real eigenvalue, then Re and Im of each pair's sum
    basis = np.vstack(
        [Q[:, real].real.T, 2.0 * Q[:, upper].real.T, -2.0 * Q[:, upper].imag.T]
    )

    out = np.empty((n, d))
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    def draw_chunk(i: int) -> None:
        # the child root.spawn would give, without advancing root's counter
        stream = np.random.SeedSequence(
            root.entropy, spawn_key=(*root.spawn_key, i), pool_size=root.pool_size
        )
        start = i * CHUNK_DRAWS
        m = min(CHUNK_DRAWS, n - start)
        rng = np.random.default_rng(stream)
        counts = rng.poisson(total_rate * horizon, size=m)
        total = int(counts.sum())
        times = rng.uniform(0.0, horizon, total)
        coords = rng.choice(d, size=total, p=coord_probs)
        sizes = levy.jumps.sample(rng, total)
        ends = np.cumsum(counts)
        sums = np.empty((m, basis.shape[0]))
        lo = 0
        while lo < m:
            first = int(ends[lo] - counts[lo])
            # the most whole draws that fit in BLOCK_JUMPS jumps, at least one
            hi = max(lo + 1, int(np.searchsorted(ends, first + BLOCK_JUMPS, "right")))
            jumps = slice(first, int(ends[hi - 1]))
            t, c, s = times[jumps], coords[jumps], sizes[jumps]
            real_terms = np.exp(np.outer(real_rates, t)) * real_left[:, c] * s
            pair_terms = np.exp(np.outer(pair_rates, t)) * pair_left[:, c] * s
            draw = np.repeat(np.arange(hi - lo), counts[lo:hi])
            for col, column in enumerate(
                (*real_terms, *pair_terms.real, *pair_terms.imag)
            ):
                sums[lo:hi, col] = np.bincount(draw, column, minlength=hi - lo)
            lo = hi
        out[start : start + m] = sums @ basis

    _run_chunks(draw_chunk, -(-n // CHUNK_DRAWS))
    return out


def _available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(draw_chunk, chunks: int) -> None:
    """Call draw_chunk(i) once for each i in range(chunks).

    The calling thread works through the chunks together with
    min(cores, chunks) - 1 helper threads, created here and joined before
    return; each thread takes the next index from one shared iterator until
    none are left. One chunk, or one core, starts no thread. An exception
    raised by any chunk is raised here, after every thread has stopped.
    """
    indices = iter(range(chunks))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            draw_chunk(i)

    helpers = min(_available_cores(), chunks) - 1
    if helpers < 1:
        work()
        return
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
