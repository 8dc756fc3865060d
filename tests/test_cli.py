import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cumulyap import cli, cumulants
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


def study_model(d):
    """Drift and noise simulate builds from StudyConfig's defaults at dimension d."""
    c = StudyConfig()
    M = study_drift_matrix(d, c.gamma, c.rho)
    return M, LevySpec(np.full(d, c.lam), BetaJumps(c.mu, c.nu))


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


def test_study_quick_outputs(tmp_path):
    out_dir = tmp_path / "study"
    code = main(
        [
            "study",
            "--quick",
            "--plots",
            "--sizes", "400,800",
            "--reps", "20",
            "--seed", "9",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "study.csv").exists()
    assert (out_dir / "study.svg").exists()
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
def test_run_study_threads_match_serial_loop(cores, monkeypatch):
    # 1 worker is the serial path; 3 workers with a thread switch every
    # microsecond interleave far more often than the workers of a real run
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cores)))
    config = StudyConfig(sample_sizes=(300, 500), n_replications=7, orders=(2, 3), seed=5)
    log_threads = []

    def log(msg):
        log_threads.append(threading.current_thread())

    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_study(config, log=log)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads_before
    assert log_threads == [threading.main_thread()] * 3
    rows = [{k: v for k, v in row.items() if k != "seconds"} for row in result.rows]
    assert rows == serial_study_rows(config)


@pytest.mark.parametrize("sizes", ["100", "100,100"])
def test_study_plot_with_one_sample_size(tmp_path, sizes):
    out_dir = tmp_path / "study"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(
            ["study", "--plots", "--sizes", sizes, "--reps", "2", "--out-dir", str(out_dir)]
        )
    assert code == 0
    svg = (out_dir / "study.svg").read_text()
    assert "nan" not in svg


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
