"""Command line interface: simulate, estimate, identifiability, study.

simulate draws steady-state samples to CSV; estimate recovers the scale-free
drift from such samples with plug-in inference; identifiability runs the
rank checks for a sparsity graph; study reproduces the benchmark Monte Carlo
experiment of `cumulyap.study` at a configurable scale and writes CSV/JSON.
A large samples CSV is formatted (`_write_samples`) and parsed
(`_read_samples`) on every available core by children forked through
`sampling._fork_map`; the file and the array are the same as in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import stat
import sys
import tempfile
import warnings

import numpy as np

from .coefficients import (
    generic_identifiability_check,
    known_noise_identifiability_check,
    polytree_rank_witness,
)
from .cumulants import BLOCK_ROWS, estimate_omega
from .estimation import _covariance, _estimate
from .graphs import DirectedGraph
from .sampling import (
    BetaJumps,
    LevySpec,
    _available_cores,
    _fork_map,
    sample_steady_state,
    study_drift_matrix,
)
from .study import StudyConfig, run_study

__all__ = ["main"]

# bytes of samples CSV per forked parser; a body under twice this is parsed
# in-process (see _read_samples)
SPLIT_BYTES = 1 << 20


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


def _seed(text: str) -> int:
    """A --seed value: numpy seeds with nonnegative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return seed


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
        # an object without "m" gives a 0-d array, rejected with the rest
        M = np.asarray(obj.get("m") if isinstance(obj, dict) else obj, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(
                'drift JSON must hold a square matrix, as [[...]] or {"m": [[...]]}'
            )
        return M
    return study_drift_matrix(args.d, args.gamma, args.rho)


def _read_samples(path) -> np.ndarray:
    """The (n, d) array of a samples CSV, after an optional header line.

    A header is a first line that does not parse as numbers. The body is one
    `np.loadtxt` call, or, when it holds at least 2 * SPLIT_BYTES bytes and
    more than one core is available, min(cores, body // SPLIT_BYTES) ranges
    of whole lines parsed by forked children (`_fork_map` over
    `_parse_range`) and stacked. The array is the same bit for bit either
    way: a child parses its lines with the same call, and if any child
    fails, warns, or disagrees on the number of columns, the whole file is
    parsed again by the single call, so every error and warning, row numbers
    included, is that call's.
    """
    # numbers may hold letters too ("1e-05", "inf", "nan"), so letters alone
    # do not mark a header
    with open(path) as fh:
        first = fh.readline()
        encoding = fh.encoding
    try:
        [float(tok) for tok in first.split(",")]
        skip = 0
    except ValueError:
        skip = 1
    with open(path, "rb") as fh:
        # in bytes: text mode reads a CRLF line end as one character
        head = fh.readline() if skip else b""
        size = fh.seek(0, os.SEEK_END)
        body = size - len(head)
        parts = min(_available_cores(), body // SPLIT_BYTES)
        # a lone CR ends the header line in text mode but not in bytes
        if parts >= 2 and hasattr(os, "fork") and b"\r" not in head.rstrip(b"\r\n"):
            cuts = [len(head)]
            for i in range(1, parts):
                # the first line start at or after the i-th equal share
                fh.seek(len(head) + i * body // parts - 1)
                fh.readline()
                cuts.append(fh.tell())
            cuts.append(size)
            ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
            try:
                blocks = _fork_map(lambda r: _parse_range(path, *r, encoding), ranges)
                if len({block.shape[1] for block in blocks}) == 1:
                    return np.concatenate(blocks)
            except Exception:  # the single parse below raises or warns as it should
                pass
    with warnings.catch_warnings():
        # no data rows is reported by estimate_omega as "need at least 2 samples"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _parse_range(path, lo: int, hi: int, encoding: str) -> np.ndarray:
    """The rows in bytes [lo, hi) of path, whole lines, read as the single
    parse reads the file: in text mode, with its encoding. Warnings are
    errors, so a warning sends the read back to the single parse, which
    gives it."""
    with open(path, "rb") as fh:
        fh.seek(lo)
        data = fh.read(hi - lo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = io.TextIOWrapper(io.BytesIO(data), encoding=encoding)
        return np.loadtxt(text, delimiter=",", ndmin=2)


def _write_samples(path, samples: np.ndarray) -> None:
    """CSV with an x1,...,xd header line, then one line per draw.

    Each number has 17 significant digits, so it reads back as the same
    double; BLOCK_ROWS rows are formatted at a time, by one % over a
    template of that many lines (`_write_rows`). With more than one block
    and more than one core, the blocks are shared out in min(cores, blocks)
    contiguous runs among forked children (`_fork_map`); each child formats
    its run into an unlinked temporary file opened here before the fork,
    and the parts are copied into the output in row order once every child
    has finished. The file is the same byte for byte either way. The output
    is opened before any fork, so a path that cannot be written starts no
    child. If anything fails once it is open (a child that raises or exits,
    or a write error here), the partial file is removed, unless it is not a
    regular file (such as /dev/stdout), and the failure is raised here.
    """
    n, d = samples.shape
    blocks = -(-n // BLOCK_ROWS)
    workers = min(_available_cores(), blocks)
    fh = open(path, "w")
    try:
        with fh:
            fh.write(",".join(f"x{i + 1}" for i in range(d)) + "\n")
            if workers < 2 or not hasattr(os, "fork"):
                _write_rows(fh, samples)
            else:
                # flushed before the fork, so no child holds the header in a buffer
                fh.flush()
                _write_forked(fh, samples, blocks, workers)
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _write_forked(fh, samples: np.ndarray, blocks: int, workers: int) -> None:
    """Write the rows of samples to fh after its header, formatted by
    `workers` forked children in contiguous runs of whole blocks."""
    cuts = [i * blocks // workers * BLOCK_ROWS for i in range(workers)] + [len(samples)]
    with contextlib.ExitStack() as stack:
        # unbuffered, so that the seek below moves the descriptor the
        # children wrote through rather than a cached position
        parts = [
            stack.enter_context(tempfile.TemporaryFile(buffering=0)) for _ in range(workers)
        ]

        def write_run(i: int) -> None:
            with open(parts[i].fileno(), "w", encoding=fh.encoding, closefd=False) as out:
                _write_rows(out, samples[cuts[i] : cuts[i + 1]])

        _fork_map(write_run, range(workers))
        for part in parts:
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer)


def _write_rows(out, samples: np.ndarray) -> None:
    """Write one CSV line per row of samples to the text stream out."""
    line = ",".join(["%.17g"] * samples.shape[1]) + "\n"
    for start in range(0, len(samples), BLOCK_ROWS):
        block = samples[start : start + BLOCK_ROWS]
        out.write(line * len(block) % tuple(block.ravel().tolist()))


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
    _write_samples(args.out, samples)
    print(f"wrote {samples.shape[0]} draws of dimension {samples.shape[1]} to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    samples = _read_samples(args.samples)
    orders = _parse_orders(args.orders)
    omega = estimate_omega(samples, orders)
    est, fit = _estimate(omega.cumulants)
    total = _covariance(est.matrix, omega.cumulants, omega.matrix, fit).total
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
    print(f"wrote {csv_path}, {json_path}")
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
    sim.add_argument("--seed", type=_seed, default=None)
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
    ident.add_argument("--seed", type=_seed, default=None)
    ident.add_argument("--out", help="output JSON path (default: stdout)")
    ident.set_defaults(func=_cmd_identifiability)

    study = sub.add_parser("study", parents=[model], help="run the Monte Carlo benchmark")
    study.add_argument("--sizes", default=",".join(map(str, defaults.sample_sizes)))
    study.add_argument("--reps", type=int, default=defaults.n_replications)
    study.add_argument("--orders", default=",".join(map(str, defaults.orders)))
    study.add_argument("--seed", type=_seed, default=defaults.seed)
    study.add_argument("--quick", action="store_true", help="small smoke run")
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
