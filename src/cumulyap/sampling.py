"""Exact steady-state sampling for linear SDEs driven by compound Poisson
noise, plus the benchmark drift family used by the simulation study.

A stationary draw is the sum of exp(s M) applied to the jumps of an
independent copy of the noise over s in (0, infinity); truncating where the
matrix exponential is negligible gives i.i.d. draws without time
discretization. The jumps are mapped through an eigendecomposition of M in
real arithmetic: one exponential per real eigenvalue and one per conjugate
pair (the partner's term is its complex conjugate), real columns summed per
draw with `np.bincount`, and one real product back to the state. A chunk
draws its per-draw jump counts first, then draws and weighs its jumps in
blocks of whole draws, at most BLOCK_JUMPS jumps each unless one draw has
more, so a chunk holds its counts and one block's jumps however many jumps
it has; the output does not depend on the block size. Draws are made in
chunks of CHUNK_DRAWS, each from its own seed stream and into its own rows,
on the calling thread plus one helper thread per further available core (at
most one per further chunk); a one-chunk call starts no thread, and the
output does not depend on the number of cores.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cumulants import beta_raw_moment, compound_poisson_cumulants
from .lyapunov import is_stable, solve_lyapunov
from .tensors import SymmetricTensor, _integer

__all__ = [
    "BetaJumps",
    "TwoPointJumps",
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
# a chunk's jump total, about CHUNK_DRAWS times this, and the 2 * total words
# its size stream skips then stay below 2**62 (see sample_steady_state)
MAX_JUMPS_PER_DRAW = 2**62 // (2 * CHUNK_DRAWS)
BLOCK_JUMPS = 8192
EIGENBASIS_COND_LIMIT = 1e8


@dataclass(frozen=True)
class BetaJumps:
    """Beta-distributed jump sizes given by mean and precision.

    Draws are consumed one value after another, so sample(rng, a) followed
    by sample(rng, b) gives bit for bit what sample(rng, a + b) gives; the
    sampler relies on this (see LevySpec).
    """

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
    """Jumps equal to `a` with probability `p` and `b` otherwise.

    One uniform per jump, so sample(rng, a) followed by sample(rng, b) gives
    bit for bit what sample(rng, a + b) gives (see LevySpec).
    """

    a: float
    b: float
    p: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"need finite points and 0 <= p <= 1, got {self!r}")

    def raw_moment(self, k: int) -> float:
        return self.p * self.a**k + (1.0 - self.p) * self.b**k

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.where(rng.random(size) < self.p, self.a, self.b)


def two_point_jumps(c2: float, cr: float, r: int) -> TwoPointJumps:
    """Two-point jump law matching prescribed second and order-r raw moments.

    For |cr| at least c2^(r/2) one point sits at zero; otherwise, for odd r,
    the points are symmetric at +-sqrt(c2) with a tilted probability. Even r
    below that threshold is impossible for any real jump law (the power-mean
    inequality forces the order-r moment up to c2^(r/2)).
    """
    r = _integer(r, "moment order r")
    if r < 3:
        raise ValueError("need moment order r >= 3")
    if not (np.isfinite(c2) and np.isfinite(cr)):
        raise ValueError(f"moments must be finite, got c2={c2!r}, cr={cr!r}")
    if c2 <= 0.0:
        raise ValueError("second moment must be positive")
    threshold = c2 ** (r / 2.0)
    if r % 2 == 0 and cr < threshold:
        raise ValueError(
            f"order-{r} moment {cr} below the floor {threshold} forced by c2"
        )
    if abs(cr) >= threshold:
        a = float(np.sign(cr)) * abs(cr / c2) ** (1.0 / (r - 2))
        p = c2 * abs(c2 / cr) ** (2.0 / (r - 2))  # at most 1, up to rounding
        return TwoPointJumps(a=a, b=0.0, p=min(p, 1.0))
    root = np.sqrt(c2)
    p = 0.5 * (1.0 + cr / threshold)
    return TwoPointJumps(a=root, b=-root, p=p)


@dataclass
class LevySpec:
    """Compound Poisson driving noise: per-coordinate rates, one jump law.

    The jump law's sample(rng, size) must split: sample(rng, a) followed by
    sample(rng, b) gives bit for bit what sample(rng, a + b) gives. The
    sampler draws a chunk's sizes block by block from one stream, and its
    output equals that of one whole-chunk call only under this contract.
    """

    rates: np.ndarray
    jumps: BetaJumps | TwoPointJumps

    def __post_init__(self):
        rates = self.rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if not (np.all(np.isfinite(rates)) and np.all(rates >= 0) and np.any(rates > 0)):
            raise ValueError(
                "rates must be finite and nonnegative with at least one positive, "
                f"got {rates.tolist()}"
            )

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
    if d < 1:
        raise ValueError(f"need dimension d >= 1, got {d}")
    if not np.isfinite(gamma):
        raise ValueError(f"need a finite rotation strength gamma, got {gamma}")
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
    if d < 1:
        raise ValueError(f"need dimension d >= 1, got {d}")
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
    for k in sorted(_integer(k, "cumulant order") for k in orders):
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
    n always reproduce the same array bit for bit. Each chunk draws its
    Poisson counts, then draws and weighs its jumps in blocks of whole draws
    (see BLOCK_JUMPS), keeping each draw's jumps together and in order. The
    times, coordinates and sizes come from three positions of the chunk's
    stream (`PCG64.advance`): where one whole-chunk `uniform`, `choice` and
    jump-law call would start. A jump's coordinate is the number of interior
    edges of the rates' cdf at or below its uniform (`_coordinates`), the
    coordinate a binary search of the cdf gives, counted by comparisons that
    release the GIL. A block draws only its own jumps, so with
    the jump law's split contract (see LevySpec) the blocks change no bit of
    the result. The chunks run on the calling thread plus min(cores, chunks)
    - 1 helper threads, started for this call and joined before it returns,
    each chunk writing only its own rows: a call with one chunk
    (n <= CHUNK_DRAWS) or on one core starts no thread, and the array is the
    same bit for bit on any number of cores. Safe to call from several
    threads at once; each such call may start its own helpers.

    The expected jumps per draw, total_rate * horizon, the Poisson lam of
    each count, must be at most MAX_JUMPS_PER_DRAW = 2**62 / (2 CHUNK_DRAWS)
    = 2**46, or a ValueError naming the rate, the horizon and their product
    is raised before any draw. A chunk then expects at most 2**61 jumps, so
    its int64 `np.cumsum(counts)` and the 2 * total words by which its size
    stream is advanced stay below 2**62, half the int64 range, leaving room
    for the counts to exceed their mean; past the bound the cumsum could
    wrap, and numpy's Poisson draw refuses lam above about 9.2e18 anyway.
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
    if total_rate * horizon > MAX_JUMPS_PER_DRAW:
        raise ValueError(
            f"too many jumps per draw: total jump rate {total_rate:.6g} x horizon "
            f"{horizon:.6g} gives a Poisson lam of {total_rate * horizon:.6g}, "
            f"above MAX_JUMPS_PER_DRAW = {MAX_JUMPS_PER_DRAW}"
        )
    # the cdf Generator.choice would search, so the coordinates match its draws
    coord_cdf = (levy.rates / total_rate).cumsum()
    coord_cdf /= coord_cdf[-1]
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
        # rng goes on with the times; the coordinates and sizes streams start
        # where one call each for the whole chunk would, a float64 taking
        # one 64-bit word
        coord_rng, size_rng = _advanced(rng, total), _advanced(rng, 2 * total)
        ends = np.cumsum(counts)
        sums = np.empty((m, basis.shape[0]))
        lo = 0
        while lo < m:
            first = int(ends[lo] - counts[lo])
            # the most whole draws that fit in BLOCK_JUMPS jumps, at least one
            hi = max(lo + 1, int(np.searchsorted(ends, first + BLOCK_JUMPS, "right")))
            k = int(ends[hi - 1]) - first
            t = rng.uniform(0.0, horizon, k)
            c = _coordinates(coord_cdf, coord_rng.random(k))
            s = levy.jumps.sample(size_rng, k)
            real_terms = np.exp(np.outer(real_rates, t)) * real_left[:, c] * s
            pair_terms = np.exp(np.outer(pair_rates, t)) * pair_left[:, c] * s
            draw = np.repeat(np.arange(hi - lo), counts[lo:hi])
            for col, column in enumerate(
                (*real_terms, *pair_terms.real, *pair_terms.imag)
            ):
                sums[lo:hi, col] = np.bincount(draw, column, minlength=hi - lo)
            lo = hi
        out[start : start + m] = sums @ basis

    _map_on_cores(draw_chunk, -(-n // CHUNK_DRAWS))
    return out


def _coordinates(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, "right") for a nondecreasing cdf ending at 1 and
    every u below 1: the count of interior edges at or below each u.

    The last edge, 1, is above every u, so counting the interior edges gives
    the same integers, repeated edges of zero-rate coordinates included. The
    count is a comparison and an add per edge, ufuncs that release the GIL.
    """
    c = np.zeros(u.shape, dtype=np.intp)
    for edge in cdf[:-1]:
        c += u >= edge
    return c


def _advanced(rng: np.random.Generator, words: int) -> np.random.Generator:
    """A generator whose PCG64 stream starts `words` 64-bit words past rng's."""
    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits.advance(words))


def _available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_on_cores(task, count: int) -> list:
    """[task(i) for i in range(count)], in index order, on the available cores.

    The sampler's chunks run through here; the study's replications run in
    forked children instead (`_fork_map`), where these threads would hold
    one GIL between them. The calling thread works through the indices
    together with min(cores, count) - 1 helper threads, created here and
    joined before return; each thread takes the next index from one shared
    iterator until none are left, and stores its result at that index. One
    item, or one core, starts no thread. An exception raised by any task is
    raised here, after every thread has stopped.
    """
    results = [None] * count
    indices = iter(range(count))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            results[i] = task(i)

    helpers = min(_available_cores(), count) - 1
    if helpers < 1:
        work()
        return results
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    return results


def _fork_map(task, items) -> list:
    """[task(x) for x in items], in order, for a sequence of items shared out
    among forked children.

    The package's one `os.fork` site, with three callers: the study's
    replications (`study.run_study`), and the ranges of a samples CSV that
    `cli._read_samples` parses and the runs of row blocks that
    `cli._write_samples` formats. One item, one core, or no `os.fork` runs
    the tasks in this process.
    Otherwise min(cores, items) children are forked, each running one
    contiguous share of the items (`_run_share`), and their pipes are loaded
    in order. A task's exception is raised here; a child that ends without
    sending its results (killed, exited, or with a result or exception that
    will not pickle) raises RuntimeError. Every read end is closed and every
    child waited for before this returns or raises.
    """
    workers = min(_available_cores(), len(items))
    if workers < 2 or not hasattr(os, "fork"):
        return [task(x) for x in items]
    readers, pids = [], []
    try:
        for i in range(workers):
            share = items[i * len(items) // workers : (i + 1) * len(items) // workers]
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _run_share(task, share, readers, writer)
            pids.append(pid)
        results = []
        for reader in readers:
            try:
                ok, value = pickle.load(reader)
            except Exception as exc:  # no bytes, too few, or an exception that won't rebuild
                raise RuntimeError("a forked worker ended without its results") from exc
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        # a child still writing meets a closed pipe and exits
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _run_share(task, share, readers, writer) -> None:
    """In a forked child: close the inherited read ends, so that the
    parent's closing one breaks a write, pickle (True, results) or (False,
    the exception) into writer, and exit without returning to the caller or
    flushing the stdio buffers shared with the parent."""
    try:
        for reader in readers:
            os.close(reader.fileno())
        try:
            payload = (True, [task(x) for x in share])
        except Exception as exc:
            payload = (False, exc)
        writer.write(pickle.dumps(payload))
        writer.flush()
    finally:
        os._exit(0)
