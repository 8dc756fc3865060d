"""The benchmark's workloads: inputs made from a seed, a fixed job list per
pass, and a correctness check per job against an oracle other than the code
path the job times.

Every job calls the package through module attributes looked up at call
time (``cumulyap.run_study``, ``cli.main``), so the tracer's patched bindings
are the ones that run when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys
import traceback

import numpy as np

import cumulyap
from cumulyap import cli

# Benchmark model of the paper's study: rotation strength, coupling, jump
# rate per coordinate, and the Beta jump law's mean and precision.
GAMMA, RHO, LAM, MU, NU = 10.0, 0.2, 0.5, 0.8, 1.0

FOUR_NODE_SPARSE_EDGES = (
    "1->1", "2->2", "3->3", "4->4", "1->3", "4->2", "3->4", "2->3", "3->2",
)


class CheckFailed(Exception):
    """A job's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def int_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def beta_moment(k: int) -> float:
    """E[J^k] for J ~ Beta(MU*NU, (1-MU)*NU), from the Beta function ratio."""
    a, b = MU * NU, (1.0 - MU) * NU
    return math.exp(
        math.lgamma(a + k) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(a + b + k)
    )


def unit_drift(d: int) -> np.ndarray:
    M = cumulyap.study_drift_matrix(d, GAMMA, RHO)
    return M / np.linalg.norm(M)


def chain(d: int):
    """Chain 1 -> 2 -> ... -> d with every self-loop."""
    edges = [(i, i) for i in range(d)] + [(i, i + 1) for i in range(d - 1)]
    return cumulyap.DirectedGraph(d, edges)


def quiet(fn, *args):
    """Call fn with its standard output discarded (the CLI prints progress)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Workload:
    """A fixed job list; subclasses give inputs, jobs and checks."""

    size = ""

    def make_inputs(self, seq: np.random.SeedSequence, workdir: str) -> dict:
        raise NotImplementedError

    def jobs(self, inputs: dict, tick=lambda: None) -> list:
        """(label, thunk) pairs; one pass runs every thunk once, in order.

        A thunk may call ``tick`` where the runner may end a timed segment
        (see ``SegmentClock`` in ``calibration.py``); the runner also ticks between jobs.
        """
        raise NotImplementedError

    def check(self, inputs: dict, label: str, output) -> None:
        raise NotImplementedError

    def warm_up(self, inputs: dict, tick=lambda: None) -> None:
        for _, job in self.jobs(inputs, tick):
            job()
            tick()

    def count_failures(self, inputs: dict, results) -> int:
        """Jobs of one pass that raised or failed their check, each reported."""
        failed = 0
        for label, output, error in results:
            if error is None:
                try:
                    self.check(inputs, label, output)
                except CheckFailed as exc:
                    error = exc
            if error is not None:
                failed += 1
                detail = "".join(traceback.format_exception_only(type(error), error))
                print(f"FAILED {label}: {detail.strip()}", file=sys.stderr)
        return failed


class Study(Workload):
    size = "d=3, n in {1000,2000,4000,8000} x 100 replications (1.5M draws), orders {2,3}"

    def make_inputs(self, seq, workdir):
        return {"seed": int_seed(seq)}

    def warm_up(self, inputs, tick=lambda: None):
        # Same dimension, orders and sample sizes as a pass, so the same
        # caches fill, but 5 replications per size: a full pass takes ~9 s.
        config = cumulyap.StudyConfig(seed=inputs["seed"], n_replications=5)
        cumulyap.run_study(config, log=lambda msg: tick())

    def jobs(self, inputs, tick=lambda: None):
        # run_study logs once per sample size: a segment boundary for the clock.
        config = cumulyap.StudyConfig(seed=inputs["seed"])
        return [("study", lambda: cumulyap.run_study(config, log=lambda msg: tick()))]

    def check(self, inputs, label, result):
        # The acceptance gate's bounds on the desk-scale study.
        rows = {row["n"]: row for row in result.rows}
        expect(sorted(rows) == [1000, 2000, 4000, 8000], f"sample sizes {sorted(rows)}")
        expect(all(r["replications"] == 100 for r in result.rows), "replications")
        total = result.total_asymptotic_variance
        expect(math.isfinite(total) and total > 0, f"asymptotic variance {total}")
        ratio = rows[8000]["rmse_ratio"]
        expect(0.7 <= ratio <= 1.3, f"rmse ratio at n=8000 is {ratio}")
        expect(
            rows[1000]["scaled_bias"] > rows[8000]["scaled_bias"],
            "scaled bias does not shrink from n=1000 to n=8000",
        )


class Estimate(Workload):
    ROWS = 100_000
    SPECS = (("d3_o23", 3, "2,3"), ("d5_o23", 5, "2,3"), ("d3_o234", 3, "2,3,4"))
    size = "three 100k-row CSVs: d=3 orders 2,3; d=5 orders 2,3; d=3 orders 2,3,4"

    def make_inputs(self, seq, workdir):
        inputs = {}
        for (name, d, orders), child in zip(self.SPECS, seq.spawn(len(self.SPECS))):
            csv = f"{workdir}/{name}.csv"
            argv = [
                "simulate", "--d", str(d), "--gamma", str(GAMMA), "--rho", str(RHO),
                "--lam", str(LAM), "--mu", str(MU), "--nu", str(NU),
                "-n", str(self.ROWS), "--seed", str(int_seed(child)), "--out", csv,
            ]
            if quiet(cli.main, argv) != 0:
                raise RuntimeError(f"cumulyap simulate failed for {name}")
            inputs[name] = (d, orders, csv, f"{workdir}/{name}.json")
        return inputs

    def jobs(self, inputs, tick=lambda: None):
        return [
            (name, lambda csv=csv, orders=orders, out=out: quiet(
                cumulyap.cli.main,
                ["estimate", "--samples", csv, "--orders", orders, "--out", out],
            ))
            for name, (d, orders, csv, out) in inputs.items()
        ]

    def check(self, inputs, label, code):
        d, orders, _, out = inputs[label]
        expect(code == 0, f"estimate exited with {code}")
        with open(out) as fh:
            report = json.load(fh)
        expect(report["d"] == d and report["n"] == self.ROWS, "echoed d or n")
        expect(report["orders"] == [int(k) for k in orders.split(",")], "echoed orders")
        m_hat = np.asarray(report["m_hat"])
        expect(np.max(np.linalg.eigvals(m_hat).real) < 0, "m_hat is not stable")
        expect(report["stable"] is True, "CLI reports an unstable estimate")
        total = report["total_asymptotic_variance"]
        expect(math.isfinite(total) and total > 0, f"asymptotic variance {total}")
        error = np.linalg.norm(m_hat - unit_drift(d))
        scale = math.sqrt(total / self.ROWS)
        expect(error <= 4.0 * scale, f"error {error:.4g} above 4 x {scale:.4g}")


class Certify(Workload):
    R = 3
    TRIALS = 100
    CHECKED = tuple(range(2, 6))
    WITNESSED = tuple(range(2, 5))
    size = (
        "generic and known-noise checks (r=3, 100 trials) on chains d=2..5 and "
        "FOUR_NODE_SPARSE; exact witness on chains d=2..4"
    )

    def make_inputs(self, seq, workdir):
        graphs = {f"chain{d}": chain(d) for d in self.CHECKED}
        graphs["four_node_sparse"] = cumulyap.DirectedGraph.from_edge_list(
            4, list(FOUR_NODE_SPARSE_EDGES)
        )
        seeds = iter(seq.spawn(2 * len(graphs)))
        jobs = [
            (f"{method}/{name}", graph, int_seed(next(seeds)))
            for name, graph in graphs.items()
            for method in ("generic", "known-noise")
        ]
        jobs += [(f"witness/chain{d}", chain(d), None) for d in self.WITNESSED]
        return {"jobs": jobs}

    def jobs(self, inputs, tick=lambda: None):
        out = []
        for label, graph, seed in inputs["jobs"]:
            method = label.split("/")[0]
            if method == "generic":
                job = lambda g=graph, s=seed: cumulyap.generic_identifiability_check(
                    g, self.R, n_trials=self.TRIALS, seed=s
                )
            elif method == "known-noise":
                job = lambda g=graph, s=seed: cumulyap.known_noise_identifiability_check(
                    g, self.R, n_trials=self.TRIALS, seed=s
                )
            else:
                job = lambda g=graph: cumulyap.polytree_rank_witness(g, self.R)
            out.append((label, job))
        return out

    def check(self, inputs, label, report):
        method = label.split("/")[0]
        if method == "generic":
            expect(report["verdict"] == "maximal rank", f"verdict {report['verdict']}")
            expect(report["rank_bound_holds"], "a rank exceeds d*d - components")
        elif method == "known-noise":
            expect(
                report["verdict"] == "identifiable with known order-r noise",
                f"verdict {report['verdict']}",
            )
        else:
            d = len(report.relabeling)
            expect(
                report.lowest_degree == cumulyap.witness_lowest_degree(d),
                f"lowest degree {report.lowest_degree}",
            )
            # Magnitude only: the construction's sign is opposite the lemma's.
            expect(
                abs(report.lowest_coefficient)
                == cumulyap.witness_lowest_coefficient_magnitude(d, self.R),
                f"lowest coefficient {report.lowest_coefficient}",
            )


class Theory(Workload):
    DIMS = (3, 4)
    ORDERS = (2, 3)
    size = "population pipeline, d in {3,4}, cumulant orders 1..6, estimator orders {2,3}"

    def make_inputs(self, seq, workdir):
        return {
            d: (
                cumulyap.study_drift_matrix(d, GAMMA, RHO),
                cumulyap.LevySpec(np.full(d, LAM), cumulyap.BetaJumps(MU, NU)),
            )
            for d in self.DIMS
        }

    def jobs(self, inputs, tick=lambda: None):
        return [(f"d{d}", lambda M=M, levy=levy: self._pipeline(M, levy))
                for d, (M, levy) in inputs.items()]

    def _pipeline(self, M, levy):
        top = 2 * max(self.ORDERS)
        population = cumulyap.population_state_cumulants(M, levy, range(1, top + 1))
        omega = cumulyap.population_omega(population, self.ORDERS)
        target = {k: population[k] for k in self.ORDERS}
        total = cumulyap.asymptotic_covariance(M, target, omega.matrix).total
        return population, total

    def check(self, inputs, label, output):
        population, total = output
        d = int(label[1:])
        M = inputs[d][0]
        cov = cumulyap.study_covariance(d, RHO, LAM * beta_moment(2))
        got = population[2].to_dense()
        rel = np.max(np.abs(got - cov)) / np.max(np.abs(cov))
        expect(rel <= 1e-10, f"covariance off the closed form by {rel:.3g}")
        for k in range(2, 2 * max(self.ORDERS) + 1):
            noise = np.array([
                LAM * beta_moment(k) if len(set(idx)) == 1 else 0.0
                for idx in itertools.combinations_with_replacement(range(d), k)
            ])
            B = cumulyap.lyapunov_operator_matrix(M, k)
            residual = np.linalg.norm(B @ population[k].values + noise) / np.linalg.norm(noise)
            expect(residual < 1e-10, f"order-{k} Lyapunov residual {residual:.3g}")
        expect(math.isfinite(total) and total > 0, f"asymptotic variance {total}")


WORKLOADS = {
    "study": Study(),
    "estimate": Estimate(),
    "certify": Certify(),
    "theory": Theory(),
}
