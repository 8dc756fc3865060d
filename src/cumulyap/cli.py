"""Command line interface: simulate, estimate, identifiability, study.

simulate draws steady-state samples to CSV; estimate recovers the scale-free
drift from such samples with plug-in inference; identifiability runs the
rank checks for a sparsity graph; study reproduces the benchmark Monte Carlo
experiment at a configurable scale and writes CSV/JSON (optionally SVG).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .coefficients import (
    generic_identifiability_check,
    known_noise_identifiability_check,
    polytree_rank_witness,
)
from .cumulants import empirical_cumulants, estimate_omega, population_omega
from .estimation import asymptotic_covariance, estimate_drift
from .graphs import DirectedGraph
from .sampling import (
    BetaJumps,
    LevySpec,
    population_state_cumulants,
    sample_steady_state,
    study_drift_matrix,
)

__all__ = ["StudyConfig", "StudyResult", "run_study", "main"]


# -- study ---------------------------------------------------------------


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
    wall time its sample size took, in seconds. The replications run on a
    pool of threads, one per core available to the process, created for
    this call and joined before it returns; each replication has its own
    seed stream and the results are summed in replication order, so every
    row except `seconds` is the same bit for bit on any number of cores.
    `log` is called on the calling thread, after each sample size's
    replications have all finished. Raises ValueError unless the
    dimension is at least 2 (a unit-norm 1 x 1 drift has no error to study),
    there is at least one replication, every sample size is at least 2 and
    every order at least 2.
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

    population = population_state_cumulants(M, levy, range(1, 2 * max(orders) + 1))
    omega = population_omega(population, orders)
    total = asymptotic_covariance(M, omega.cumulants, omega.matrix).total
    result = StudyResult(config=config, total_asymptotic_variance=total)
    log(f"asymptotic rmse {result.asymptotic_rmse:.3f}")

    def replicate(n: int, seed: np.random.SeedSequence):
        samples = sample_steady_state(M, levy, n, seed=seed)
        return estimate_drift(empirical_cumulants(samples, orders))

    reps = config.n_replications
    streams = np.random.SeedSequence(config.seed).spawn(len(config.sample_sizes) * reps)
    with ThreadPoolExecutor(max_workers=_available_cores()) as pool:
        for i, n in enumerate(config.sample_sizes):
            t0 = time.perf_counter()
            seeds = streams[i * reps : (i + 1) * reps]
            estimates, sq_errors, gaps, stable = [], [], [], 0
            # map yields in replication order for any number of workers, so
            # every sum below runs in the same order as a serial loop's
            for est in pool.map(replicate, [n] * reps, seeds):
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
            # every replication of this size has finished: no worker is busy
            log(
                f"n={n}: scaled rmse {row['scaled_rmse']:.3f} "
                f"(ratio {row['rmse_ratio']:.3f}) in {row['seconds']:.1f}s"
            )
    return result


def _available_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_svg_plot(path, result: StudyResult) -> None:
    """Minimal self-contained SVG: scaled errors against sample size."""
    width, height, margin = 640, 420, 60
    ns = [row["n"] for row in result.rows]
    series = {
        "scaled rmse": [row["scaled_rmse"] for row in result.rows],
        "scaled bias": [row["scaled_bias"] for row in result.rows],
    }
    hline = result.asymptotic_rmse
    xs = np.log2(ns)
    # a single distinct sample size is centred in a span of 2
    x0, x1 = (xs.min(), xs.max()) if np.ptp(xs) else (xs[0] - 1.0, xs[0] + 1.0)
    ymax = max(max(max(v) for v in series.values()), hline) * 1.1

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y):
        return height - margin - y / ymax * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 16}" text-anchor="middle" '
        f'font-size="13">sample size</text>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">'
        f"drift recovery error, scaled by sqrt(n)</text>",
    ]
    for n, x in zip(ns, xs):
        parts.append(
            f'<text x="{px(x)}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11">{n}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        y = ymax * frac / 1.1
        parts.append(
            f'<text x="{margin - 8}" y="{py(y) + 4}" text-anchor="end" '
            f'font-size="11">{y:.1f}</text>'
        )
    y = py(hline)
    parts.append(
        f'<line x1="{margin}" y1="{y}" x2="{width - margin}" y2="{y}" '
        f'stroke="gray" stroke-dasharray="6,4"/>'
    )
    parts.append(
        f'<text x="{width - margin}" y="{y - 6}" text-anchor="end" font-size="11" '
        f'fill="gray">asymptotic rmse</text>'
    )
    for (name, values), color in zip(series.items(), ("#1f77b4", "#d62728")):
        points = " ".join(f"{px(x):.1f},{py(v):.1f}" for x, v in zip(xs, values))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, v in zip(xs, values):
            parts.append(
                f'<circle cx="{px(x):.1f}" cy="{py(v):.1f}" r="3" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{px(xs[-1]) - 4}" y="{py(values[-1]) - 8}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


# -- shared option handling ----------------------------------------------

# the model options of simulate and study; their defaults are StudyConfig's
_MODEL_OPTIONS = {
    "d": "benchmark dimension",
    "gamma": "rotation strength",
    "rho": "coupling in [0,1)",
    "lam": "jump rate per coordinate",
    "mu": "jump size mean",
    "nu": "jump size precision",
}


def _int_list(text: str, option: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{option} takes comma-separated integers, got {text!r}")
    return values


def _parse_orders(text: str) -> list[int]:
    orders = sorted(set(_int_list(text, "--orders")))
    if min(orders) < 2:
        raise ValueError("orders must be integers >= 2, e.g. '2,3'")
    return orders


def _load_graph(args) -> DirectedGraph:
    if args.graph:
        with open(args.graph) as fh:
            return DirectedGraph.from_json(fh.read())
    if args.d is None or not args.edges:
        raise ValueError("need --graph FILE or both --d and --edges")
    return DirectedGraph.from_edge_list(args.d, args.edges)


def _load_drift(args) -> np.ndarray:
    if args.drift:
        with open(args.drift) as fh:
            obj = json.load(fh)
        M = np.asarray(obj["m"] if isinstance(obj, dict) else obj, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("drift JSON must hold a square matrix")
        return M
    return study_drift_matrix(args.d, args.gamma, args.rho)


def _read_samples(path) -> np.ndarray:
    # a header is a first line that does not parse as numbers; np.savetxt
    # writes an "e" into every number, so letters alone do not mark one
    with open(path) as fh:
        first = fh.readline()
    try:
        [float(tok) for tok in first.split(",")]
        skip = 0
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        # no data rows is reported by estimate_omega as "need at least 2 samples"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _write_json(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommands ----------------------------------------------------------


def _cmd_simulate(args) -> int:
    M = _load_drift(args)
    levy = LevySpec(np.full(M.shape[0], args.lam), BetaJumps(args.mu, args.nu))
    samples = sample_steady_state(M, levy, args.n, seed=args.seed)
    header = ",".join(f"x{i + 1}" for i in range(samples.shape[1]))
    np.savetxt(args.out, samples, delimiter=",", header=header, comments="")
    print(f"wrote {samples.shape[0]} draws of dimension {samples.shape[1]} to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    samples = _read_samples(args.samples)
    orders = _parse_orders(args.orders)
    omega = estimate_omega(samples, orders)
    est = estimate_drift(omega.cumulants)
    total = asymptotic_covariance(est.matrix, omega.cumulants, omega.matrix).total
    _write_json(
        args,
        {
            "d": samples.shape[1],
            "n": samples.shape[0],
            "orders": orders,
            "m_hat": est.matrix.tolist(),
            "sigma_min": est.sigma_min,
            # null when d = 1: there is no second singular value
            "gap": None if np.isinf(est.gap) else est.gap,
            "stable": est.stable,
            "total_asymptotic_variance": total,
        },
    )
    return 0


def _cmd_identifiability(args) -> int:
    graph = _load_graph(args)
    if args.method == "generic":
        report = generic_identifiability_check(
            graph, args.r, n_trials=args.trials, seed=args.seed
        )
    elif args.method == "known-noise":
        report = known_noise_identifiability_check(
            graph, args.r, n_trials=args.trials, seed=args.seed
        )
    else:
        witness = polytree_rank_witness(graph, args.r)
        report = {
            "d": graph.d,
            "edges": sorted([a + 1, b + 1] for a, b in graph.edges),
            "r": args.r,
            "determinant": {
                str(deg): str(c) for deg, c in sorted(witness.determinant.items())
            },
            "lowest_degree": witness.lowest_degree,
            "lowest_coefficient": (
                None
                if witness.lowest_coefficient is None
                else str(witness.lowest_coefficient)
            ),
            "expected_lowest_degree": witness.expected_lowest_degree,
            "expected_lowest_magnitude": str(witness.expected_lowest_magnitude),
            "lowest_term_matches": witness.lowest_term_matches,
            "relabeling": [i + 1 for i in witness.relabeling],
            "generically_identifiable": witness.generically_identifiable,
            "verdict": (
                "maximal rank"
                if witness.generically_identifiable
                else "witness degenerate"
            ),
        }
    _write_json(args, report)
    return 0


def _cmd_study(args) -> int:
    config = StudyConfig(
        **{name: getattr(args, name) for name in _MODEL_OPTIONS},
        sample_sizes=tuple(_int_list(args.sizes, "--sizes")),
        n_replications=args.reps,
        orders=tuple(_parse_orders(args.orders)),
        seed=args.seed,
    )
    if args.quick:
        config.sample_sizes = tuple(config.sample_sizes[:2])
        config.n_replications = min(config.n_replications, 10)
    os.makedirs(args.out_dir, exist_ok=True)
    result = run_study(config, log=lambda msg: print(msg, file=sys.stderr))
    csv_path = os.path.join(args.out_dir, "study.csv")
    json_path = os.path.join(args.out_dir, "study.json")
    result.write_csv(csv_path)
    with open(json_path, "w") as fh:
        fh.write(result.to_json() + "\n")
    written = [csv_path, json_path]
    if args.plots:
        svg_path = os.path.join(args.out_dir, "study.svg")
        _write_svg_plot(svg_path, result)
        written.append(svg_path)
    print("wrote " + ", ".join(written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    defaults = StudyConfig()
    model = argparse.ArgumentParser(add_help=False)
    for name, text in _MODEL_OPTIONS.items():
        default = getattr(defaults, name)
        model.add_argument(f"--{name}", type=type(default), default=default, help=text)

    parser = argparse.ArgumentParser(
        prog="cumulyap",
        description="steady-state cumulant tools for Levy-driven linear SDE models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[model], help="draw steady-state samples to CSV")
    sim.add_argument("--drift", help="JSON file with a square drift matrix")
    sim.add_argument("-n", type=int, required=True, help="number of draws")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the drift from samples")
    est.add_argument("--samples", required=True, help="CSV of steady-state draws")
    est.add_argument("--orders", default="2,3", help="cumulant orders, e.g. 2,3")
    est.add_argument("--out", help="output JSON path (default: stdout)")
    est.set_defaults(func=_cmd_estimate)

    ident = sub.add_parser("identifiability", help="rank checks for a graph")
    ident.add_argument("--graph", help="JSON file {d, edges} with 1-based edges")
    ident.add_argument("--d", type=int, help="dimension when using --edges")
    ident.add_argument(
        "--edges", nargs="+", help="edges as 1-based 'a->b' strings"
    )
    ident.add_argument("--r", type=int, default=3, help="higher cumulant order, at least 3")
    ident.add_argument(
        "--method",
        choices=("generic", "known-noise", "witness"),
        default="generic",
    )
    ident.add_argument("--trials", type=int, default=100)
    ident.add_argument("--seed", type=int, default=None)
    ident.add_argument("--out", help="output JSON path (default: stdout)")
    ident.set_defaults(func=_cmd_identifiability)

    study = sub.add_parser("study", parents=[model], help="run the Monte Carlo benchmark")
    study.add_argument("--sizes", default=",".join(map(str, defaults.sample_sizes)))
    study.add_argument("--reps", type=int, default=defaults.n_replications)
    study.add_argument("--orders", default=",".join(map(str, defaults.orders)))
    study.add_argument("--seed", type=int, default=defaults.seed)
    study.add_argument("--quick", action="store_true", help="small smoke run")
    study.add_argument("--plots", action="store_true", help="also write an SVG")
    study.add_argument("--out-dir", required=True)
    study.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
