"""Per-layer tracing from outside the package.

The tracer wraps each public callable of every cumulyap module (its
``__all__``, plus ``SymmetricTensor.from_dense``) and patches the wrapper into
every module namespace that binds the same object, because ``from .lyapunov
import solve_lyapunov`` gives ``coefficients`` and ``sampling`` bindings of
their own. A span is assigned to the layer named by ``fn.__module__``, so a
function keeps its layer when it moves between modules.

Spans are kept in memory as ``(key, parent, start, end, meter)`` tuples and
reduced to per-layer numbers only after the traced passes end. A layer's self
time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import inspect
import statistics
import time

# The layers are the package's modules.
LAYERS = (
    "tensors",
    "graphs",
    "lyapunov",
    "cumulants",
    "coefficients",
    "estimation",
    "sampling",
    "cli",
)

# Per-element helpers: wrapping them costs more than the work they do
# (canonical_index alone runs ~90k times in one certify pass).
SKIP = frozenset({"canonical_index", "multiplicity"})


def _solve_size(M, noise_cumulant, *args, **kwargs):
    k = getattr(noise_cumulant, "k", None)
    return (len(M), k if k is not None else noise_cumulant.ndim)


# Work counted at the call boundary: the base of each per-layer rate.
METERS = {
    "sampling.sample_steady_state": lambda M, levy, n, *a, **kw: n,
    "cumulants.empirical_cumulants": lambda samples, *a, **kw: len(samples),
    "cumulants.estimate_omega": lambda samples, *a, **kw: len(samples),
    "lyapunov.solve_lyapunov": _solve_size,
    "coefficients.polytree_rank_witness": lambda graph, *a, **kw: graph.d**2 - 1,
}


class Tracer:
    """Records spans around the package's public calls while installed."""

    def __init__(self, package):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [getattr(package, name) for name in LAYERS]
        namespaces = [package, *modules]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                fn = getattr(module, name)
                if name in SKIP or inspect.isclass(fn):
                    continue
                owner = fn.__module__.rsplit(".", 1)[1]
                if owner != layer:
                    continue  # re-export; patched from its own module
                wrapped = self._wrap(fn, f"{owner}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn, wrapped))
        cls = package.tensors.SymmetricTensor
        original = vars(cls)["from_dense"]
        wrapped = classmethod(self._wrap(original.__func__, "tensors.from_dense"))
        self._patches.append((cls, "from_dense", original, wrapped))

    def _wrap(self, fn, key):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        meter = METERS.get(key)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            work = meter(*args, **kwargs) if meter else None
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key, parent, start, end, work)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for ns, attr, _, wrapped in self._patches:
            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)


def _outermost(spans, lo, keys=None):
    """Spans in `keys` with no ancestor in `keys`; without `keys`, spans with
    no ancestor of their own key (a recursive function counted once)."""
    for i in range(lo, len(spans)):
        key, parent = spans[i][0], spans[i][1]
        group = (key,) if keys is None else keys
        if key not in group:
            continue
        while parent >= lo and spans[parent][0] not in group:
            parent = spans[parent][1]
        if parent < lo:
            yield spans[i]


def _incl(spans, lo, *keys):
    return sum(s[3] - s[2] for s in _outermost(spans, lo, frozenset(keys)))


def _self_times(spans, lo):
    """Self time of each span in spans[lo:], and the time root spans cover."""
    child = [0.0] * (len(spans) - lo)
    roots = 0.0
    for _, parent, start, end, _ in spans[lo:]:
        if parent >= lo:
            child[parent - lo] += end - start
        else:
            roots += end - start
    own = [end - start - c for (_, _, start, end, _), c in zip(spans[lo:], child)]
    return own, roots


def pass_metrics(spans: list, lo: int, wall: float) -> dict[str, float]:
    """Per-layer numbers for the spans spans[lo:] of one traced pass."""
    own, roots = _self_times(spans, lo)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans[lo:], own):
        layer = span[0].split(".", 1)[0]
        calls[layer] += 1
        self_s[layer] += t
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall

    def rate(*keys):
        picked = list(_outermost(spans, lo, frozenset(keys)))
        busy = sum(s[3] - s[2] for s in picked)
        return sum(s[4] for s in picked) / busy if busy else 0.0

    solves = [s for s in spans[lo:] if s[0] == "lyapunov.solve_lyapunov"]
    out.update(
        {
            "sampling.draws_per_s": rate("sampling.sample_steady_state"),
            "cumulants.rows_per_s": rate(
                "cumulants.empirical_cumulants", "cumulants.estimate_omega"
            ),
            "cumulants.omega_s": _incl(
                spans, lo, "cumulants.estimate_omega", "cumulants.population_omega"
            ),
            "lyapunov.solve_s": _incl(spans, lo, "lyapunov.solve_lyapunov"),
            "lyapunov.solves": len(solves),
            "lyapunov.solve_max_s": max((s[3] - s[2] for s in solves), default=0.0),
            "tensors.kron_sum_s": _incl(spans, lo, "tensors.kron_sum_matrix"),
            "tensors.from_dense_s": _incl(spans, lo, "tensors.from_dense"),
            "coefficients.assemble_s": _incl(
                spans,
                lo,
                "coefficients.assemble_system",
                "coefficients.drift_coefficient_matrix",
            ),
            "coefficients.rank_s": _incl(spans, lo, "coefficients.numerical_rank"),
            "coefficients.witness_s": _incl(
                spans, lo, "coefficients.polytree_rank_witness"
            ),
            "estimation.svd_s": _incl(
                spans,
                lo,
                "estimation.least_singular_vector",
                "estimation.moore_penrose",
            ),
            "estimation.asymcov_s": _incl(
                spans, lo, "estimation.asymptotic_covariance"
            ),
            "graphs.treks_s": _incl(spans, lo, "graphs.enumerate_treks"),
            "trace.coverage": roots / wall,
        }
    )
    return out


def pass_bases(spans: list, lo: int) -> dict:
    """Work counted by the meters in one traced pass: the bases of the rates."""
    work: dict[str, list] = {}
    for key, _, _, _, value in spans[lo:]:
        if value is not None:
            work.setdefault(key, []).append(value)
    solves = work.get("lyapunov.solve_lyapunov", [])
    largest = max(solves, key=lambda dk: dk[0] ** dk[1], default=None)
    return {
        "draws": sum(work.get("sampling.sample_steady_state", [])),
        "rows": sum(work.get("cumulants.empirical_cumulants", []))
        + sum(work.get("cumulants.estimate_omega", [])),
        "lyapunov_solves": len(solves),
        "largest_solve_d_k": list(largest) if largest else None,
        "witness_sizes": work.get("coefficients.polytree_rank_witness", []),
    }


def function_table(spans: list, passes: int) -> dict[str, list]:
    """Per function: calls, self seconds and inclusive seconds per pass."""
    own, _ = _self_times(spans, 0)
    table: dict[str, list] = {}
    for span, t in zip(spans, own):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t
    for span in _outermost(spans, 0):
        table[span[0]][2] += span[3] - span[2]
    return {
        key: [value / passes for value in row]
        for key, row in sorted(table.items(), key=lambda kv: -kv[1][1])
    }


def unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith((".calls", ".solves")):
        return "count"
    return "ratio"


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
