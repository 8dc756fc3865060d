"""The drift-recovery Monte Carlo study: its settings, its per-sample-size
error summaries, and the run that produces them.

The study draws repeated steady-state samples from the benchmark model,
estimates the unit-norm drift from each, and compares the scaled errors with
the delta-method asymptotic variance computed exactly from population
cumulants.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .cumulants import empirical_cumulants, population_omega
from .estimation import DriftEstimate, asymptotic_covariance, estimate_drift
from .sampling import (
    BetaJumps,
    LevySpec,
    _fork_map,
    population_state_cumulants,
    sample_steady_state,
    study_drift_matrix,
)

__all__ = ["StudyConfig", "StudyResult", "run_study"]


@dataclass
class StudyConfig:
    """Monte Carlo study settings; defaults are the desk-scale benchmark."""

    d: int = 3
    gamma: float = 10.0
    rho: float = 0.2
    lam: float = 0.5
    mu: float = 0.8
    nu: float = 1.0
    sample_sizes: tuple[int, ...] = (1000, 2000, 4000, 8000)
    n_replications: int = 100
    orders: tuple[int, ...] = (2, 3)
    seed: int = 1234


@dataclass
class StudyResult:
    """Per-sample-size error summaries plus the asymptotic reference."""

    config: StudyConfig
    rows: list[dict] = field(default_factory=list)
    total_asymptotic_variance: float = float("nan")

    @property
    def asymptotic_rmse(self) -> float:
        return float(np.sqrt(self.total_asymptotic_variance))

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": asdict(self.config),
                "total_asymptotic_variance": self.total_asymptotic_variance,
                "asymptotic_rmse": self.asymptotic_rmse,
                "rows": self.rows,
            },
            indent=2,
            allow_nan=False,
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(self.rows[0]))
            writer.writeheader()
            writer.writerows(self.rows)


def run_study(config: StudyConfig, log=None) -> StudyResult:
    """Run the drift-recovery Monte Carlo experiment.

    For each sample size, draws n_replications independent steady-state
    samples from the benchmark model, estimates the unit-norm drift from the
    chosen cumulant orders, and summarizes squared Frobenius errors against
    the true unit drift, alongside the delta-method asymptotic variance
    computed exactly from population cumulants. Each row also records the
    wall time its sample size took, in seconds. Each sample size's
    replications run through `_fork_map`: shared out among min(cores,
    replications) forked children, every one waited for before the next
    sample size starts; one replication, or one core, runs them in this
    process and starts no process. Each replication has its own seed stream
    and the estimates come back in replication order, so every row except
    `seconds` is the same bit for bit for any number of children. An error
    inside a replication is raised here. `log` is called in this process, on
    the calling thread, after each sample size's replications have all
    finished. Raises ValueError unless the dimension is at least 2 (a
    unit-norm 1 x 1 drift has no error to study), there is at least one
    replication, every sample size is at least 2 and every order at least 2;
    the sampler's own checks (see sample_steady_state), its bound on the
    jumps per draw among them, run before the population reference.
    """
    log = log or (lambda msg: None)
    if config.d < 2:
        raise ValueError(f"need dimension d >= 2, got {config.d}")
    if config.n_replications < 1:
        raise ValueError(f"need at least 1 replication, got {config.n_replications}")
    if not config.sample_sizes or min(config.sample_sizes) < 2:
        raise ValueError(f"sample sizes must be at least 2, got {config.sample_sizes}")
    if not config.orders or min(config.orders) < 2:
        raise ValueError(f"orders must be integers >= 2, got {config.orders}")
    orders = sorted(config.orders)
    M = study_drift_matrix(config.d, config.gamma, config.rho)
    unit = M / np.linalg.norm(M)
    levy = LevySpec(np.full(config.d, config.lam), BetaJumps(config.mu, config.nu))

    # zero draws: the sampler's checks alone, ahead of the population
    # reference, whose arithmetic overflows at rates the sampler refuses
    sample_steady_state(M, levy, 0)
    population = population_state_cumulants(M, levy, range(1, 2 * max(orders) + 1))
    omega = population_omega(population, orders)
    total = asymptotic_covariance(M, omega.cumulants, omega.matrix).total
    result = StudyResult(config=config, total_asymptotic_variance=total)
    log(f"asymptotic rmse {result.asymptotic_rmse:.3f}")

    def replicate(seed) -> DriftEstimate:
        # n is the sample size of the loop below
        samples = sample_steady_state(M, levy, n, seed=seed)
        return estimate_drift(empirical_cumulants(samples, orders))

    reps = config.n_replications
    streams = np.random.SeedSequence(config.seed).spawn(len(config.sample_sizes) * reps)
    for i, n in enumerate(config.sample_sizes):
        t0 = time.perf_counter()
        estimates, sq_errors, gaps, stable = [], [], [], 0
        # the estimates come back in replication order for any number of
        # children, so every sum below runs in the same order as a serial loop's
        for est in _fork_map(replicate, streams[i * reps : (i + 1) * reps]):
            estimates.append(est.matrix)
            sq_errors.append(float(np.sum((est.matrix - unit) ** 2)))
            gaps.append(est.gap)
            stable += est.stable
        mse = float(np.mean(sq_errors))
        mean_matrix = np.mean(estimates, axis=0)
        bias_norm = float(np.linalg.norm(mean_matrix - unit))
        row = {
            "n": n,
            "replications": reps,
            "mse": mse,
            "bias_norm": bias_norm,
            "variance": mse - bias_norm**2,
            "scaled_rmse": float(np.sqrt(n * mse)),
            "scaled_bias": float(np.sqrt(n) * bias_norm),
            "rmse_ratio": float(np.sqrt(n * mse) / result.asymptotic_rmse),
            "stable_fraction": stable / reps,
            "mean_gap": float(np.mean(gaps)),
            "seconds": time.perf_counter() - t0,
        }
        result.rows.append(row)
        log(
            f"n={n}: scaled rmse {row['scaled_rmse']:.3f} "
            f"(ratio {row['rmse_ratio']:.3f}) in {row['seconds']:.1f}s"
        )
    return result
