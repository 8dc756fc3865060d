"""Command line interface: simulate, estimate, identifiability, study.

simulate draws steady-state samples to CSV; estimate recovers the scale-free
drift from such samples with plug-in inference; identifiability runs the
rank checks for a sparsity graph; study reproduces the benchmark Monte Carlo
experiment of `cumulyap.study` at a configurable scale and writes CSV/JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
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
    of whole lines parsed at once by forked children (`_parse_forked`). The
    array is the same bit for bit either way: a child parses its lines with
    the same call, and if any child fails, warns, or disagrees on the number
    of columns, the whole file is parsed again by the single call, so every
    error and warning, row numbers included, is that call's.
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
            samples = _parse_forked(path, ranges, encoding)
            if samples is not None:
                return samples
    with warnings.catch_warnings():
        # no data rows is reported by estimate_omega as "need at least 2 samples"
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _parse_forked(path, ranges, encoding) -> np.ndarray | None:
    """The rows of each byte range of whole lines, stacked, or None.

    One child per range is forked; it parses its lines and sends its shape,
    then its float64 values, through a pipe, and the values are read
    straight into that child's rows of the one output array. Every child is
    waited for before return. None when any child could not be started,
    failed or ended its output early, or the column counts differ.
    """
    children = []
    try:
        for lo, hi in ranges:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                return None
            if pid == 0:
                read_ends = [read_end] + [reader.fileno() for _, reader in children]
                _parse_range(path, lo, hi, encoding, read_ends, write_end)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        shapes = [reader.read(16) for _, reader in children]
        if any(len(shape) < 16 for shape in shapes):
            return None
        rows, cols = np.frombuffer(b"".join(shapes), np.int64).reshape(-1, 2).T
        if len(set(cols.tolist())) != 1:
            return None
        out = np.empty((int(rows.sum()), int(cols[0])))
        view = memoryview(out).cast("B")
        start = 0
        for (_, reader), count in zip(children, rows.tolist()):
            stop = start + count * out.shape[1] * out.itemsize
            if reader.readinto(view[start:stop]) != stop - start:
                return None
            start = stop
    finally:
        # a child still writing meets a closed pipe and exits
        for _, reader in children:
            reader.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    return out if not any(statuses) else None


def _parse_range(path, lo: int, hi: int, encoding: str, read_ends, write_end: int) -> None:
    """In a forked child: parse bytes [lo, hi) of path, write them to the
    pipe, and exit, with status 0 only when all of it was written.

    read_ends are the pipes' read ends the child inherited, its own included.
    The bytes are read as the single parse reads the file: in text mode,
    with its encoding. Warnings are errors, so a warning sends the parent to
    the single parse, which gives it. The child never returns to its caller
    or flushes the stdio buffers it shares with it.
    """
    status = 1
    try:
        # the parent alone holds read ends, so its closing one breaks a write
        for fd in read_ends:
            os.close(fd)
        with open(path, "rb") as fh:
            fh.seek(lo)
            data = fh.read(hi - lo)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = io.TextIOWrapper(io.BytesIO(data), encoding=encoding)
            rows = np.loadtxt(text, delimiter=",", ndmin=2)
        with open(write_end, "wb") as pipe:
            pipe.write(np.array(rows.shape, np.int64).tobytes())
            pipe.write(np.ascontiguousarray(rows).data)
        status = 0
    finally:
        os._exit(status)


def _write_samples(path, samples: np.ndarray) -> None:
    """CSV with an x1,...,xd header line, then one line per draw.

    Each number has 17 significant digits, so it reads back as the same
    double; BLOCK_ROWS rows are formatted at a time, by one % over a
    template of that many lines.
    """
    n, d = samples.shape
    line = ",".join(["%.17g"] * d) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(d)) + "\n")
        for start in range(0, n, BLOCK_ROWS):
            block = samples[start : start + BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
