import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cumulyap import cli, coefficients, cumulants, estimation, sampling, study
from cumulyap.cli import StudyConfig, _read_samples, build_parser, main, run_study
from cumulyap.cumulants import empirical_cumulants, population_omega
from cumulyap.estimation import asymptotic_covariance, estimate_drift
from cumulyap.sampling import (
    BetaJumps,
    LevySpec,
    population_state_cumulants,
    sample_steady_state,
    study_drift_matrix,
)


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that strict JSON lacks."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_simulate_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--d", "2", "-n", "50", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    X1 = np.loadtxt(out1, delimiter=",", skiprows=1)
    X2 = np.loadtxt(out2, delimiter=",", skiprows=1)
    assert X1.shape == (50, 2)
    assert np.array_equal(X1, X2)
    header = out1.read_text().splitlines()[0]
    assert "x1" in header and "x2" in header


def test_simulate_accepts_drift_file(tmp_path):
    drift = tmp_path / "m.json"
    drift.write_text(json.dumps({"m": [[-2.0, 0.0], [1.0, -1.0]]}))
    out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "--drift", str(drift), "-n", "20", "--seed", "6", "--out", str(out)]
    )
    assert code == 0
    assert np.loadtxt(out, delimiter=",", skiprows=1).shape == (20, 2)


@pytest.mark.parametrize("text", ['{"M": [[-1.0]]}', "[[-1.0, 0.0]]"])
def test_simulate_rejects_drift_json_without_square_matrix(tmp_path, capsys, text):
    drift = tmp_path / "m.json"
    drift.write_text(text)
    args = ["simulate", "--drift", str(drift), "-n", "5", "--out", str(tmp_path / "x.csv")]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        'error: drift JSON must hold a square matrix, as [[...]] or {"m": [[...]]}\n'
    )


@pytest.mark.parametrize("d", [0, -2])
def test_simulate_rejects_dimension_below_one(tmp_path, capsys, d):
    args = ["simulate", "--d", str(d), "-n", "5", "--out", str(tmp_path / "x.csv")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: need dimension d >= 1, got {d}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("lam", ["inf", "nan", "-1"])
def test_simulate_rejects_bad_rate(tmp_path, capsys, lam):
    args = ["simulate", "--d", "2", "--lam", lam, "-n", "5", "--out", str(tmp_path / "x.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning ahead of the error line fails
        assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rates must be finite") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def study_model(d):
    """Drift and noise simulate builds from StudyConfig's defaults at dimension d."""
    c = StudyConfig()
    M = study_drift_matrix(d, c.gamma, c.rho)
    return M, LevySpec(np.full(d, c.lam), BetaJumps(c.mu, c.nu))


JUMP_BOUND_LINES = {
    "1e16": "error: too many jumps per draw: total jump rate 3e+16 x horizon 11.1745 gives a "
    "Poisson lam of 3.35236e+17, above MAX_JUMPS_PER_DRAW = 70368744177664",
    "1e18": "error: too many jumps per draw: total jump rate 3e+18 x horizon 11.1745 gives a "
    "Poisson lam of 3.35236e+19, above MAX_JUMPS_PER_DRAW = 70368744177664",
}


STUDY_ARGS = ["study", "--sizes", "100", "--reps", "3", "--out-dir", "s"]


@pytest.mark.parametrize(
    "lam, command",
    [("1e16", ["simulate", "-n", "5", "--out", "x.csv"]), ("1e16", STUDY_ARGS), ("1e18", STUDY_ARGS)],
    ids=["simulate", "study", "study-lam-1e18"],
)
def test_jumps_per_draw_are_bounded(tmp_path, monkeypatch, capsys, lam, command):
    # 1e16 per coordinate wrapped a chunk's int64 jump total; at 1e18 the
    # study's population reference overflowed, unless refused before it
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning ahead of the error line fails
        assert main([command[0], "--lam", lam, *command[1:]]) == 1
    assert capsys.readouterr().err.splitlines() == [JUMP_BOUND_LINES[lam]]
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "s" / "study.json").exists()


@pytest.mark.parametrize("gamma", ["nan", "inf"])
@pytest.mark.parametrize(
    "command", [["simulate", "-n", "5", "--out", "x.csv"], STUDY_ARGS], ids=["simulate", "study"]
)
def test_non_finite_gamma_is_one_error_line(tmp_path, monkeypatch, capsys, command, gamma):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], "--gamma", gamma, *command[1:]]) == 1
    assert capsys.readouterr().err == f"error: need a finite rotation strength gamma, got {gamma}\n"
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "s" / "study.json").exists()


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_simulate_csv_reads_back_bit_for_bit(tmp_path, d, offset):
    n = cumulants.BLOCK_ROWS + offset
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--d", str(d), "-n", str(n), "--seed", "21", "--out", str(out)]) == 0
    with open(out) as fh:
        assert fh.readline() == ",".join(f"x{i + 1}" for i in range(d)) + "\n"
    X = _read_samples(out)
    assert X.shape == (n, d)
    assert np.array_equal(X, sample_steady_state(*study_model(d), n, seed=21))


def test_simulate_zero_draws_writes_header_alone(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["simulate", "--d", "3", "-n", "0", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text() == "x1,x2,x3\n"


def test_estimate_same_on_savetxt_copy(tmp_path):
    sim, copy = tmp_path / "sim.csv", tmp_path / "copy.csv"
    assert main(["simulate", "--d", "3", "-n", "3000", "--seed", "22", "--out", str(sim)]) == 0
    X = _read_samples(sim)
    np.savetxt(copy, X, delimiter=",", header="x1,x2,x3", comments="")  # "%.18e"
    reports = []
    for path in (sim, copy):
        out = tmp_path / f"{path.stem}.json"
        assert main(["estimate", "--samples", str(path), "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_read_samples_header_detection(tmp_path):
    X = np.random.default_rng(8).normal(size=(5, 3))
    bare, headed = tmp_path / "bare.csv", tmp_path / "headed.csv"
    np.savetxt(bare, X, delimiter=",")  # "%.18e": a letter in every number
    np.savetxt(headed, X, delimiter=",", header="x1,x2,x3", comments="")
    assert np.array_equal(_read_samples(bare), X)
    assert np.array_equal(_read_samples(headed), X)


def csv_text(X, fmt="%.17g", header=True, newline="\n"):
    lines = [",".join(fmt % v for v in row) for row in X]
    if header:
        lines.insert(0, ",".join(f"x{i + 1}" for i in range(X.shape[1])))
    return newline.join(lines) + newline


def with_lines_every(text, every, *extra):
    lines = text.split("\n")
    for at in range(len(lines) - 1, 0, -every):
        lines[at:at] = extra
    return "\n".join(lines)


def with_middle_comment(text):
    # half the body: it spans the middle cut of 2 shares and both cuts of 3
    middle = text.index("\n", len(text) // 2) + 1
    return text[:middle] + "#" * len(text) + "\n" + text[middle:]


FORK_X = np.random.default_rng(9).normal(size=(20000, 3)) * np.logspace(-3, 3, 20000)[:, None]
FORK_CASES = {
    "header": lambda X: csv_text(X),
    "no-header-18e": lambda X: csv_text(X, "%.18e", header=False),
    "crlf": lambda X: csv_text(X, newline="\r\n"),
    "no-final-newline": lambda X: csv_text(X)[:-1],
    "blank-and-comment-lines": lambda X: with_lines_every(csv_text(X), 997, "", "# note"),
    "line-across-cuts": lambda X: with_middle_comment(csv_text(X)),
    "one-column": lambda X: csv_text(X[:, :1]),
    "inf-and-nan": lambda X: csv_text(np.where(X > 2.5, np.inf, np.where(X < -2.5, np.nan, X))),
    # the children decode the file as the single parse does: NBSP is
    # whitespace only when the UTF-8 bytes are read as UTF-8
    "nbsp-padding": lambda X: csv_text(X).replace(",", "\u00a0,"),
}


def forked_reads(monkeypatch, cores):
    """Run _read_samples on `cores` cores with 64 KiB shares; returns the
    list that gets each forked parse's blocks (None when it raised)."""
    monkeypatch.setattr(cli, "_available_cores", lambda: cores)
    monkeypatch.setattr(sampling, "_available_cores", lambda: cores)
    monkeypatch.setattr(cli, "SPLIT_BYTES", 1 << 16)
    results = []
    fork_map = cli._fork_map

    def recorded(*args):
        results.append(None)
        results[-1] = fork_map(*args)
        return results[-1]

    monkeypatch.setattr(cli, "_fork_map", recorded)
    return results


@pytest.mark.parametrize("case", FORK_CASES)
@pytest.mark.parametrize("cores", [2, 3])
def test_read_samples_forked_equals_serial(tmp_path, monkeypatch, cores, case):
    path = tmp_path / "samples.csv"
    path.write_bytes(FORK_CASES[case](FORK_X).encode("utf-8"))
    skip = 0 if case == "no-header-18e" else 1
    serial = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    results = forked_reads(monkeypatch, cores)
    X = _read_samples(path)
    assert len(results) == 1 and results[0] is not None
    assert X.shape == serial.shape and np.array_equal(X, serial, equal_nan=True)
    assert X.flags.c_contiguous and X.dtype == np.float64


def with_line(text, at, line):
    lines = text.split("\n")
    lines[at] = line
    return "\n".join(lines)


def columns_change_at_the_cut():
    # no header, and two halves of equal bytes, so 2 shares cut exactly
    # between the 2-column and the 3-column rows. The second child's whole
    # output fits in a pipe's buffer, so it exits 0 whatever the parent
    # reads, and only the column check stops 3 columns read as 2
    first = csv_text(FORK_X[:4000, :2], header=False)
    second = csv_text(FORK_X[4000:6000], header=False)
    return first + second + "#" * (len(first) - len(second) - 1) + "\n"


BAD_CASES = {
    # in the last of 2 or 3 ranges
    "ragged-row": lambda: with_line(csv_text(FORK_X), 15000, "1.0,2.0"),
    "non-numeric-cell": lambda: with_line(csv_text(FORK_X), 15000, "1.0,x,3.0"),
    "columns-change-at-the-cut": columns_change_at_the_cut,
}


@pytest.mark.parametrize("case", BAD_CASES)
def test_read_samples_forked_errors_are_the_serial_ones(tmp_path, monkeypatch, capsys, case):
    path = tmp_path / "bad.csv"
    path.write_text(BAD_CASES[case]())
    argv = ["estimate", "--samples", str(path)]
    monkeypatch.setattr(cli, "_available_cores", lambda: 1)
    assert main(argv) == 1
    serial = capsys.readouterr().err
    assert serial.startswith("error: ") and " row " in serial
    for cores in (2, 3):
        results = forked_reads(monkeypatch, cores)
        assert main(argv) == 1
        assert capsys.readouterr().err == serial
        # a child raised, or the children's column counts differ
        assert len(results) == 1
        assert results[0] is None or len({block.shape[1] for block in results[0]}) > 1


def test_read_samples_child_failure_falls_back(tmp_path, monkeypatch):
    path = tmp_path / "samples.csv"
    path.write_text(csv_text(FORK_X))
    loadtxt = np.loadtxt

    def only_paths(fname, *args, **kwargs):
        # the children parse an in-memory stream; the single parse, a path
        if isinstance(fname, io.IOBase):
            raise RuntimeError("child fails")
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", only_paths)
    results = forked_reads(monkeypatch, 3)
    X = _read_samples(path)
    assert results == [None]
    assert np.array_equal(X, loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def test_read_samples_child_warning_falls_back(tmp_path):
    # the middle of 3 ranges holds comment lines only, on which loadtxt warns;
    # with one column its empty result alone would not send the read back.
    # In a subprocess, so that a warning a child prints reaches its stderr
    lines = csv_text(FORK_X[:, :1]).split("\n")
    lines[10000:10000] = ["# comment"] * 200_000
    path, out = tmp_path / "samples.csv", tmp_path / "read.npy"
    path.write_text("\n".join(lines))
    script = (
        "import sys, numpy as np\n"
        "from cumulyap import cli\n"
        "from cumulyap import sampling\n"
        "cli.SPLIT_BYTES, cli._available_cores = 1 << 16, lambda: 3\n"
        "sampling._available_cores = cli._available_cores\n"
        "np.save(sys.argv[2], cli._read_samples(sys.argv[1]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert np.array_equal(np.load(out), np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


@pytest.mark.parametrize("setting", ["one-core", "small-body", "no-fork", "lone-cr-header"])
def test_read_samples_in_process_starts_no_child(tmp_path, monkeypatch, setting):
    path = tmp_path / "samples.csv"
    X = FORK_X[:1000] if setting == "small-body" else FORK_X
    if setting == "lone-cr-header":
        # a header line in text mode, but not a line of its own in bytes
        path.write_bytes(b"x1,x2,x3\r" + csv_text(X, header=False).encode())
    else:
        path.write_text(csv_text(X))
    monkeypatch.setattr(cli, "SPLIT_BYTES", 1 << 16)
    assert (path.stat().st_size < 2 * cli.SPLIT_BYTES) == (setting == "small-body")
    monkeypatch.setattr(cli, "_available_cores", lambda: 1 if setting == "one-core" else 2)
    if setting == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:

        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
    assert np.array_equal(_read_samples(path), np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def test_estimate_forks_on_a_large_sample(tmp_path, monkeypatch):
    # at the real SPLIT_BYTES: 40k rows x 3 is about 2.7 MB, two shares
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--d", "3", "-n", "40000", "--seed", "5", "--out", str(sim)]) == 0
    assert sim.stat().st_size >= 2 * cli.SPLIT_BYTES
    reports, forks, fork = [], [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_available_cores", lambda: cores)
        monkeypatch.setattr(sampling, "_available_cores", lambda: cores)
        forks.clear()
        out = tmp_path / f"est{cores}.json"
        assert main(["estimate", "--samples", str(sim), "--out", str(out)]) == 0
        assert len(forks) == (0 if cores == 1 else 2)
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def counted_forks(monkeypatch, cores):
    """Give cli and sampling `cores` cores; returns the list that gets one
    entry per os.fork call."""
    monkeypatch.setattr(cli, "_available_cores", lambda: cores)
    monkeypatch.setattr(sampling, "_available_cores", lambda: cores)
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


ROWS = cumulants.BLOCK_ROWS


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("n", [0, 1, ROWS, ROWS + 1, 3 * ROWS + 5])
def test_simulate_forked_write_equals_in_process_bytes(tmp_path, monkeypatch, n, d):
    # the reference formats row by row: header once, then the rows in order
    expected = csv_text(sample_steady_state(*study_model(d), n, seed=23)).encode()
    blocks = -(-n // ROWS)
    for cores in (1, 2, 3):
        forks = counted_forks(monkeypatch, cores)
        out = tmp_path / f"sim{cores}.csv"
        assert main(["simulate", "--d", str(d), "-n", str(n), "--seed", "23", "--out", str(out)]) == 0
        assert out.read_bytes() == expected
        assert len(forks) == (0 if cores == 1 or blocks < 2 else min(cores, blocks))


@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_simulate_failing_writer_child_is_one_error_line(tmp_path, monkeypatch, capsys, failure):
    parent, write_rows = os.getpid(), cli._write_rows

    def failing(out, samples):
        if os.getpid() != parent:
            if failure == "raises":
                raise ValueError("marker from a writer")
            os._exit(3)
        write_rows(out, samples)

    monkeypatch.setattr(cli, "_write_rows", failing)
    forks = counted_forks(monkeypatch, 2)
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--d", "3", "-n", str(3 * ROWS + 5), "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    assert len(forks) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert ("marker from a writer" if failure == "raises" else "forked worker") in err[0]
    # no header-only CSV is left for a later estimate to misread
    assert not out.exists()


def test_simulate_write_error_in_process_leaves_no_file(tmp_path, monkeypatch, capsys):
    write_rows = cli._write_rows

    def failing(out, samples):
        write_rows(out, samples[:ROWS])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_rows", failing)
    forks = counted_forks(monkeypatch, 1)
    out = tmp_path / "sim.csv"
    out.write_text("an older file\n")
    argv = ["simulate", "--d", "3", "-n", str(3 * ROWS + 5), "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    assert forks == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: [Errno 28] No space left on device"]
    assert not out.exists()


def test_simulate_unwritable_out_starts_no_child(tmp_path, monkeypatch, capsys):
    forks = counted_forks(monkeypatch, 3)
    out = tmp_path / "missing" / "sim.csv"
    argv = ["simulate", "--d", "3", "-n", str(3 * ROWS + 5), "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    assert forks == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "missing" in err[0]


def test_estimate_schema(tmp_path):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--d", "2", "-n", "2000", "--seed", "7", "--out", str(sim)]) == 0
    out = tmp_path / "est.json"
    assert main(["estimate", "--samples", str(sim), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["d"] == 2
    assert report["n"] == 2000
    assert report["orders"] == [2, 3]
    m_hat = np.array(report["m_hat"])
    assert m_hat.shape == (2, 2)
    assert np.linalg.norm(m_hat) == pytest.approx(1.0, rel=1e-9)
    for key in ("sigma_min", "gap", "stable", "total_asymptotic_variance"):
        assert key in report


def test_estimate_one_column_writes_strict_json(tmp_path):
    # d = 1: the drift is identified (rank 0 = d*d - 1) but has no second
    # singular value, so there is no gap
    path = tmp_path / "one.csv"
    path.write_text("x1\n0.3\n1.2\n-0.4\n2.0\n")
    out = tmp_path / "one.json"
    assert main(["estimate", "--samples", str(path), "--out", str(out)]) == 0
    report = strict_json(out.read_text())
    assert report["d"] == 1
    assert report["gap"] is None
    assert report["m_hat"] == [[-1.0]]
    assert report["total_asymptotic_variance"] == 0.0


def test_identifiability_generic_with_edges(tmp_path):
    out = tmp_path / "gen.json"
    code = main(
        [
            "identifiability",
            "--d", "2",
            "--edges", "1->1", "2->2", "1->2",
            "--r", "3",
            "--trials", "10",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["expected_rank"] == 3
    assert report["verdict"] == "maximal rank"


def test_identifiability_known_noise_with_graph_file(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(
        json.dumps({"d": 2, "edges": [[1, 1], [2, 2], [1, 2]]})
    )
    out = tmp_path / "kn.json"
    code = main(
        [
            "identifiability",
            "--graph", str(graph),
            "--method", "known-noise",
            "--trials", "10",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["diagonal_certificate"] is True
    assert report["verdict"] == "identifiable with known order-r noise"


def test_identifiability_witness(tmp_path):
    out = tmp_path / "wit.json"
    code = main(
        [
            "identifiability",
            "--d", "2",
            "--edges", "1->1", "2->2", "1->2",
            "--method", "witness",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["generically_identifiable"] is True
    assert report["lowest_degree"] == 4
    assert report["determinant"]["4"] == "-3/4"
    assert report["determinant"]["7"] == "3"
    assert report["lowest_term_matches"] is True


def test_identifiability_witness_single_node(tmp_path):
    out = tmp_path / "wit1.json"
    args = ["identifiability", "--d", "1", "--edges", "1->1", "--method", "witness"]
    assert main(args + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["determinant"] == {"0": "1"}
    assert report["generically_identifiable"] is True
    assert report["lowest_term_matches"] is True
    assert report["verdict"] == "maximal rank"


@pytest.mark.parametrize(
    "text", ["[[1, 2]]", '{"d": 2, "edges": 5}', '{"d": 2, "edges": [[1, 2, 3]]}']
)
def test_identifiability_rejects_malformed_graph_json(tmp_path, capsys, text):
    graph = tmp_path / "g.json"
    graph.write_text(text)
    assert main(["identifiability", "--graph", str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: graph JSON must be {") and err.count("\n") == 1


@pytest.mark.parametrize("d", [0, -2])
def test_identifiability_rejects_graph_without_nodes(tmp_path, capsys, d):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"d": d, "edges": []}))
    assert main(["identifiability", "--graph", str(graph)]) == 1
    assert capsys.readouterr().err == f"error: a graph needs at least one node, got d={d}\n"


@pytest.mark.parametrize("r", ["1", "2"])
def test_identifiability_witness_rejects_low_order(r, capsys):
    args = ["identifiability", "--d", "2", "--edges", "1->1", "2->2", "1->2"]
    assert main(args + ["--method", "witness", "--r", r]) == 1
    assert "r >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["0", "1"])
def test_identifiability_generic_rejects_low_order(r, capsys):
    args = ["identifiability", "--d", "2", "--edges", "1->1", "2->2", "1->2"]
    assert main(args + ["--method", "generic", "--r", r]) == 1
    assert capsys.readouterr().err == "error: need noise order r >= 3\n"


@pytest.mark.parametrize(
    "method, trials", [("generic", "0"), ("known-noise", "-3")]
)
def test_identifiability_rejects_meaningless_trials(method, trials, capsys):
    args = ["identifiability", "--d", "2", "--edges", "1->1", "2->2"]
    assert main(args + ["--method", method, "--trials", trials]) == 1
    assert "trial" in capsys.readouterr().err


def test_identifiability_names_node_without_stable_drift(capsys):
    args = ["identifiability", "--d", "3", "--edges", "1->2", "2->3"]
    assert main(args + ["--trials", "5", "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert "error: no drift on this graph is stable: node 1 has no self-loop" in err


def test_identifiability_names_draws_and_edges_without_stable_drift(capsys):
    # passes the structural check, but the characteristic polynomial of a
    # 3-cycle with one self-loop has no linear term, so no drift is stable
    args = ["identifiability", "--d", "3", "--edges", "1->1", "1->2", "2->3", "3->1"]
    assert main(args + ["--trials", "5", "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert "error: found no stable drift for this sparsity pattern" in err
    assert f"in {coefficients.STABLE_DRAW_TRIES} draws" in err
    assert "on the edges 1->1, 1->2, 2->3, 3->1;" in err


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--d", "2", "-n", "10", "--out", "unused.csv"],
        ["identifiability", "--d", "2", "--edges", "1->1", "2->2"],
        ["study", "--quick", "--out-dir", "unused"],
    ],
    ids=["simulate", "identifiability", "study"],
)
def test_negative_seed_is_refused_by_name(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: expected a nonnegative integer, got '-1'" in capsys.readouterr().err


def test_python_m_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "cumulyap", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert "usage: cumulyap" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


NO_SCIPY_SCRIPT = """
import os
import sys
from pathlib import Path

import cumulyap
from cumulyap import cli, sampling

# two cores on any machine, so that simulate, estimate and study take their forked paths
cli._available_cores = sampling._available_cores = lambda: 2
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()

def check(step):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"{step} imported {loaded[:5]}"

out = Path(sys.argv[1])
graph = ["identifiability", "--d", "2", "--edges", "1->1", "2->2", "1->2"]
check("import cumulyap")
for command in (
    ["simulate", "--d", "2", "-n", "100000", "--seed", "7", "--out", str(out / "sim.csv")],
    ["estimate", "--samples", str(out / "sim.csv"), "--out", str(out / "est.json")],
    graph + ["--trials", "10", "--seed", "1", "--out", str(out / "generic.json")],
    graph + ["--method", "witness", "--out", str(out / "witness.json")],
    ["study", "--quick", "--sizes", "400", "--reps", "2", "--out-dir", str(out / "study")],
):
    assert cli.main(command) == 0, command
    check(command[0])
    if command[0] in ("simulate", "estimate", "study"):
        # all three fork directly: multiprocessing would add to their start-up and peak RSS
        assert forks, f"{command[0]} did not fork"
        assert "multiprocessing" not in sys.modules, f"{command[0]} imported multiprocessing"
    forks.clear()
"""


def test_cli_commands_load_no_scipy(tmp_path):
    # numpy is the one heavy runtime dependency: importing cumulyap and
    # running each command leaves no scipy module loaded
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "witness.json").exists()
    assert (tmp_path / "study" / "study.json").exists()


def test_study_quick_outputs(tmp_path):
    out_dir = tmp_path / "study"
    code = main(
        [
            "study",
            "--quick",
            "--sizes", "400,800",
            "--reps", "20",
            "--seed", "9",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "study.csv").exists()
    report = strict_json((out_dir / "study.json").read_text())
    assert len(report["rows"]) == 2
    assert report["total_asymptotic_variance"] > 0
    for row in report["rows"]:
        for key in ("n", "scaled_rmse", "scaled_bias", "rmse_ratio", "stable_fraction", "seconds"):
            assert key in row
        assert row["seconds"] > 0


def serial_study_rows(config):
    """run_study's rows without `seconds`, from one plain loop on this thread."""
    orders = sorted(config.orders)
    M = study_drift_matrix(config.d, config.gamma, config.rho)
    unit = M / np.linalg.norm(M)
    levy = LevySpec(np.full(config.d, config.lam), BetaJumps(config.mu, config.nu))
    population = population_state_cumulants(M, levy, range(1, 2 * max(orders) + 1))
    omega = population_omega(population, orders)
    total = asymptotic_covariance(M, omega.cumulants, omega.matrix).total
    reps = config.n_replications
    streams = np.random.SeedSequence(config.seed).spawn(len(config.sample_sizes) * reps)
    rows = []
    for i, n in enumerate(config.sample_sizes):
        estimates, sq_errors, gaps, stable = [], [], [], 0
        for seed in streams[i * reps : (i + 1) * reps]:
            samples = sample_steady_state(M, levy, n, seed=seed)
            est = estimate_drift(empirical_cumulants(samples, orders))
            estimates.append(est.matrix)
            sq_errors.append(float(np.sum((est.matrix - unit) ** 2)))
            gaps.append(est.gap)
            stable += est.stable
        mse = float(np.mean(sq_errors))
        bias_norm = float(np.linalg.norm(np.mean(estimates, axis=0) - unit))
        rows.append(
            {
                "n": n,
                "replications": reps,
                "mse": mse,
                "bias_norm": bias_norm,
                "variance": mse - bias_norm**2,
                "scaled_rmse": float(np.sqrt(n * mse)),
                "scaled_bias": float(np.sqrt(n) * bias_norm),
                "rmse_ratio": float(np.sqrt(n * mse) / np.sqrt(total)),
                "stable_fraction": stable / reps,
                "mean_gap": float(np.mean(gaps)),
            }
        )
    return rows


@pytest.mark.parametrize("cores", [1, 3])
def test_run_study_workers_match_serial_loop(cores, monkeypatch):
    # 1 core runs the replications in this process; 3 cores run them in three
    # worker processes, whatever this machine has
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cores)))
    config = StudyConfig(sample_sizes=(300, 500), n_replications=7, orders=(2, 3), seed=5)
    log_threads, log_forks, forks, fork = [], [], [], os.fork

    def counted():
        forks.append(1)
        return fork()

    def log(msg):
        log_threads.append(threading.current_thread())
        log_forks.append(len(forks))
        forks.clear()

    monkeypatch.setattr(os, "fork", counted)
    threads_before = threading.active_count()
    result = run_study(config, log=log)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before
    assert log_threads == [threading.main_thread()] * 3
    # no fork before the first line, then three for each sample size
    assert log_forks == ([0, 0, 0] if cores == 1 else [0, 3, 3])
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in result.rows]
    assert rows == serial_study_rows(config)


SPAWN_STUDY_SCRIPT = """
import json, multiprocessing, os
multiprocessing.set_start_method("spawn")
os.sched_getaffinity = lambda pid: {0, 1, 2}
from cumulyap import StudyConfig, run_study
config = StudyConfig(sample_sizes=(300, 500), n_replications=7, orders=(2, 3), seed=5)
rows = [{k: v for k, v in row.items() if k != "seconds"} for row in run_study(config).rows]
print(json.dumps(rows))
"""


def test_run_study_workers_started_by_spawn():
    # spawned workers import cumulyap afresh and receive every argument
    # pickled, so the study does not rely on forked memory
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN_STUDY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    config = StudyConfig(sample_sizes=(300, 500), n_replications=7, orders=(2, 3), seed=5)
    assert json.loads(proc.stdout) == serial_study_rows(config)


def test_study_error_in_a_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    def failing(*args):
        raise ValueError("marker from a replication")

    monkeypatch.setattr(study, "estimate_drift", failing)
    forks = counted_forks(monkeypatch, 3)
    out_dir = tmp_path / "s"
    argv = ["study", "--sizes", "100", "--reps", "3", "--out-dir", str(out_dir)]
    assert main(argv) == 1
    assert len(forks) == 3
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == err[-1:]
    assert "marker from a replication" in err[-1]
    assert not (out_dir / "study.json").exists()


@pytest.mark.parametrize("sizes", ["100", "100,100"])
def test_study_with_one_sample_size(tmp_path, sizes):
    out_dir = tmp_path / "study"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["study", "--sizes", sizes, "--reps", "2", "--out-dir", str(out_dir)])
    assert code == 0
    report = strict_json((out_dir / "study.json").read_text())
    assert [row["n"] for row in report["rows"]] == [int(n) for n in sizes.split(",")]


def test_cli_study_names_are_the_study_modules():
    # the acceptance gate imports both from cumulyap.cli
    assert cli.StudyConfig is study.StudyConfig
    assert cli.run_study is study.run_study


def test_missing_samples_file_fails_cleanly(tmp_path, capsys):
    code = main(["estimate", "--samples", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_builds_features_once(tmp_path, monkeypatch):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--d", "2", "-n", "300", "--seed", "4", "--out", str(sim)]) == 0
    calls = []
    build = cumulants._feature_matrix

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return build(*args, **kwargs)

    monkeypatch.setattr(cumulants, "_feature_matrix", counted)
    assert main(["estimate", "--samples", str(sim), "--out", str(tmp_path / "e.json")]) == 0
    assert calls == [(3,)]


def test_estimate_assembles_and_decomposes_once(tmp_path, monkeypatch):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--d", "3", "-n", "2000", "--seed", "4", "--out", str(sim)]) == 0
    calls = []

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return fn(*args, **kwargs)

        return wrapper

    for module in (coefficients, estimation):
        monkeypatch.setattr(module, "assemble_system", counted("assemble", module.assemble_system))
    for name in ("svd", "pinv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    assert main(["estimate", "--samples", str(sim), "--out", str(tmp_path / "e.json")]) == 0
    assert sorted(calls) == ["assemble", "svd"]


def test_estimate_total_tracks_population_asymptote(tmp_path):
    # the plug-in leaves the least singular triplet out of the pseudoinverse;
    # inverting that small but nonzero singular value of the empirical system
    # made the total orders of magnitude too large
    sim, out = tmp_path / "sim.csv", tmp_path / "est.json"
    assert main(["simulate", "--d", "3", "-n", "20000", "--seed", "3", "--out", str(sim)]) == 0
    assert main(["estimate", "--samples", str(sim), "--orders", "2,3", "--out", str(out)]) == 0
    total = json.loads(out.read_text())["total_asymptotic_variance"]
    config = StudyConfig()
    M = study_drift_matrix(3, config.gamma, config.rho)
    levy = LevySpec(np.full(3, config.lam), BetaJumps(config.mu, config.nu))
    omega = population_omega(population_state_cumulants(M, levy, range(1, 7)), [2, 3])
    truth = asymptotic_covariance(M, omega.cumulants, omega.matrix).total
    assert truth == pytest.approx(268.9, rel=1e-3)
    assert 0.5 * truth <= total <= 2.0 * truth


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1,x2\n", "need at least 2 samples, got 0"),
        ("x1,x2\n1.0,2.0\n", "need at least 2 samples, got 1"),
        ("x1,x2\n1.0,2.0\nnan,3.0\n0.5,0.1\n", "NaN or infinite"),
        ("x1,x2\n1.0,2.0\n0.5,0.1\n", "do not identify the drift"),
        ("x1,x2\n1.0,0.3\n1.0,2.0\n1.0,-1.0\n1.0,0.7\n", "has rank 1"),
    ],
    ids=["header-only", "one-row", "nan-cell", "two-rows", "constant-column"],
)
def test_estimate_rejects_degenerate_samples(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning ahead of the error line fails
        code = main(["estimate", "--samples", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        {"n_replications": 0},
        {"sample_sizes": (1, 100)},
        {"orders": (1, 2)},
        {"d": 1},
        {"orders": (2,)},
    ],
    ids=[
        "no-replications",
        "one-row-samples",
        "order-1",
        "one-dimension",
        "not-identifying",
    ],
)
def test_run_study_rejects_bad_config(change):
    with pytest.raises(ValueError):
        run_study(StudyConfig(**change))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--reps", "0"], "replication"),
        (["--sizes", "1"], "sample sizes"),
        (["--d", "1"], "d >= 2"),
        (["--orders", "2"], "do not identify"),
        (["--sizes", "1000,abc"], "--sizes takes comma-separated integers"),
        (["--sizes", ""], "--sizes takes comma-separated integers"),
        (["--orders", "2,x"], "--orders takes comma-separated integers"),
    ],
)
def test_study_bad_config_fails_cleanly(tmp_path, capsys, flags, message):
    code = main(["study", "--sizes", "100", *flags, "--out-dir", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_bad_orders_fail_cleanly(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--d", "2", "-n", "100", "--seed", "3", "--out", str(sim)]) == 0
    code = main(["estimate", "--samples", str(sim), "--orders", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = main(["estimate", "--samples", str(sim), "--orders", "2,x"])
    assert code == 1
    assert "error: --orders takes comma-separated integers" in capsys.readouterr().err


def test_no_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_defaults_are_study_config(tmp_path, monkeypatch):
    seen = []

    def fake_run_study(config, log=None):
        seen.append(config)
        raise RuntimeError("stop after the config")

    monkeypatch.setattr(cli, "run_study", fake_run_study)
    assert main(["study", "--out-dir", str(tmp_path / "s")]) == 1
    assert seen == [StudyConfig()]

    args = build_parser().parse_args(["simulate", "-n", "1", "--out", "x"])
    defaults = StudyConfig()
    for name in ("d", "gamma", "rho", "lam", "mu", "nu"):
        assert getattr(args, name) == getattr(defaults, name)


def test_study_quick_runs_at_d5(tmp_path):
    # needs the order-6 cumulants of a 5-dimensional model
    out_dir = tmp_path / "study5"
    assert main(["study", "--d", "5", "--quick", "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "study.json").read_text())
    assert report["total_asymptotic_variance"] > 0
