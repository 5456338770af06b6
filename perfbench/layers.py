"""Per-layer metrics, named <module>.<function>.<what>, computed from spans.

A traced pass contributes the spans of its own operation plus those of one
traced set-up. Counts (calls, evaluations, pairs, bytes, gaps) are taken from
the first traced pass, where they repeat exactly for a given seed; times are
the median over traced passes. A layer a workload never calls reads 0.
"""
from __future__ import annotations

import statistics

from perfbench.tracer import SOLVER_SPANS, Span, nearest, self_times
from perfbench.workloads import QUBO_SIZES, SOLVE_SIZES as SOLVER_SIZES, Solve

SOLVER_KINDS = Solve.kinds
STAGES = ("experiments.calibrate", "experiments.sweep_elevation",
          "experiments.phase_histogram")
_CALL_LAYERS = ("geometry.link_geometry", "channels.direct_gain", "ris.cascade_gains",
                "metrics.link_metrics", "qubo.objective_init",
                "experiments.build_channel_state")

_UNITS = {  # last name component -> (unit, better)
    "calls": ("count", "lower"), "self_s": ("s", "lower"), "s": ("s", "lower"),
    "pairs": ("count", "lower"), "bytes": ("B", "lower"),
    "bytes_per_s": ("B/s", "higher"), "evals": ("count", "lower"),
    "evals_per_s": ("1/s", "higher"), "gap": ("relative", "lower"),
    "fallbacks": ("count", "lower"), "solves": ("count", "lower"),
    "solver_evals": ("count", "lower"), "solver_s": ("s", "lower"),
    "solver_share": ("fraction", "lower"), "overhead_frac": ("fraction", "lower"),
}
# repeat exactly for a fixed seed, so they are read from one pass
COUNTS = {"calls", "pairs", "bytes", "evals", "gap", "fallbacks", "solves",
          "solver_evals"}


def names() -> list[str]:
    out = []
    for layer in _CALL_LAYERS:
        out += [f"{layer}.calls", f"{layer}.self_s"]
    for n in QUBO_SIZES:
        out += [f"qubo.build_qubo.n{n}.s", f"qubo.build_qubo.n{n}.pairs"]
    out += ["qubo.export_qubo.s", "qubo.export_qubo.bytes",
            "qubo.load_qubo.s", "qubo.load_qubo.bytes_per_s"]
    for kind in SOLVER_KINDS:
        for n in SOLVER_SIZES:
            out += [f"solvers.{kind}.n{n}.{what}"
                    for what in ("s", "evals", "evals_per_s", "gap")]
    out += ["solvers.quadratic_anneal.evals_per_s", "solvers.quadratic_anneal.gap",
            "solvers.brute_force.s", "solvers.brute_force.evals",
            "solvers.enforce_security.fallbacks",
            "experiments.calibrate.self_s", "experiments.calibrate.solves",
            "experiments.calibrate.solver_evals", "experiments.calibrate.solver_s",
            "experiments.calibrate.solver_share",
            "experiments.sweep_elevation.self_s", "experiments.sweep_elevation.solver_s",
            "experiments.phase_histogram.self_s",
            "cli.write_csv.s", "cli.write_csv.bytes",
            "trace.overhead_frac", "oracle.s"]
    return out


def spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json."""
    out = []
    for name in names():
        unit, better = _UNITS[name.rsplit(".", 1)[1]]
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of one traced pass (its spans plus one traced set-up)."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def self_sum(name: str) -> float:
        return sum(selfs[s.id] for s in named.get(name, ()))

    def dur_sum(group) -> float:
        return sum(s.duration for s in group)

    m: dict[str, float] = {}
    for layer in _CALL_LAYERS:
        m[f"{layer}.calls"] = len(named.get(layer, ()))
        m[f"{layer}.self_s"] = self_sum(layer)
    for n in QUBO_SIZES:
        built = [s for s in named.get("qubo.build_qubo", ()) if s.attrs.get("n") == n]
        m[f"qubo.build_qubo.n{n}.s"] = dur_sum(built)
        m[f"qubo.build_qubo.n{n}.pairs"] = built[-1].attrs["pairs"] if built else 0
    exports = named.get("qubo.export_qubo", ())
    loads = named.get("qubo.load_qubo", ())
    m["qubo.export_qubo.s"] = dur_sum(exports)
    m["qubo.export_qubo.bytes"] = sum(s.attrs["bytes"] for s in exports)
    m["qubo.load_qubo.s"] = dur_sum(loads)
    m["qubo.load_qubo.bytes_per_s"] = _ratio(sum(s.attrs["bytes"] for s in loads),
                                             dur_sum(loads))

    for kind in SOLVER_KINDS:
        calls = [s for s in named.get(f"solvers.{kind}", ()) if "value" in s.attrs]
        for n in SOLVER_SIZES:
            group = [s for s in calls if s.attrs["n"] == n]
            evals = sum(s.attrs["evals"] for s in group)
            m[f"solvers.{kind}.n{n}.s"] = _ratio(dur_sum(group), len(group))
            m[f"solvers.{kind}.n{n}.evals"] = _ratio(evals, len(group))
            m[f"solvers.{kind}.n{n}.evals_per_s"] = _ratio(evals, dur_sum(group))
            m[f"solvers.{kind}.n{n}.gap"] = _ratio(
                sum(s.attrs.get("gap", 0.0) for s in group), len(group))
    quad = [s for s in named.get("solvers.anneal", ()) if s.attrs.get("quadratic")]
    m["solvers.quadratic_anneal.evals_per_s"] = _ratio(
        sum(s.attrs["evals"] for s in quad), dur_sum(quad))
    # the surrogate's result is scored by the qubo workload's check; the runner
    # fills this in from there
    m["solvers.quadratic_anneal.gap"] = 0.0
    brute = named.get("solvers.brute_force", ())
    m["solvers.brute_force.s"] = dur_sum(brute)
    m["solvers.brute_force.evals"] = sum(s.attrs["evals"] for s in brute)
    m["solvers.enforce_security.fallbacks"] = sum(
        s.attrs["fallback"] for s in named.get("solvers.enforce_security", ()))

    under: dict[str, list[Span]] = {stage: [] for stage in STAGES}
    for s in spans:
        if s.name in SOLVER_SPANS:
            stage = nearest(by_id, s, STAGES)
            if stage is not None:
                under[stage.name].append(s)
    cal_solves = under["experiments.calibrate"]
    m["experiments.calibrate.self_s"] = self_sum("experiments.calibrate")
    m["experiments.calibrate.solves"] = len(cal_solves)
    m["experiments.calibrate.solver_evals"] = sum(s.attrs["evals"] for s in cal_solves)
    m["experiments.calibrate.solver_s"] = dur_sum(cal_solves)
    m["experiments.calibrate.solver_share"] = _ratio(
        dur_sum(cal_solves), dur_sum(named.get("experiments.calibrate", ())))
    m["experiments.sweep_elevation.self_s"] = self_sum("experiments.sweep_elevation")
    m["experiments.sweep_elevation.solver_s"] = dur_sum(
        under["experiments.sweep_elevation"])
    m["experiments.phase_histogram.self_s"] = self_sum("experiments.phase_histogram")
    writes = named.get("cli.write_csv", ())
    m["cli.write_csv.s"] = dur_sum(writes)
    m["cli.write_csv.bytes"] = sum(s.attrs["bytes"] for s in writes)
    return m


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, times as the median over passes."""
    out = {}
    for name in per_pass[0]:
        if name.rsplit(".", 1)[1] in COUNTS:
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    return out
