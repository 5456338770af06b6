#!/usr/bin/env python3
"""Run one benchmark workload against the dualris sources of this checkout.

    python3 perfbench/run.py --workload reproduce|solve|qubo --seed N \\
        --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):

  reproduce  calibrate -> sweep -> histogram -> CSVs, run seed = seed + pass
  solve      bcd, anneal and tabu on 9 fixed channel states, oracle-scored
  qubo       build + export, load, quadratic anneal at N = 64 / 128 / 256

One process, one client, a closed loop: each operation starts when the last
one has returned. Operations come in passes (a pass of solve is 27 solver
calls, a pass of the others is one operation), repeated until --seconds have
passed, and at least MIN_PASSES times. Every operation's output is checked.
With --trace 0 the end-to-end metrics are reported: op_s is one whole pass and
step1_s..step3_s are parts of it (reproduce: calibrate_s, sweep_s and
outputs_s, the sweep, histogram and CSVs after calibration; solve: bcd_s,
anneal_s, tabu_s; qubo: export_s, load_s, quad_solve_s). Each is the median
over the run's passes; the table beside it shows the fastest pass, the highest
percentile with ten passes beyond it, and the pass count. setup_s is the
median of SETUP_REPEATS set-ups, each in a fresh interpreter (setup_probe.py):
imports plus input generation. With --trace 1 untraced and traced passes
alternate on the same seeds, and the per-layer metrics and the tracing
overhead are reported instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are a readable table and a
run record, which is also written to perfbench/out/ with the spans of a traced
run. The exit code is 0 only when a result was printed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3          # passes per run even when --seconds is shorter
MIN_TRACED_PAIRS = 2    # untraced + traced pass pairs in a traced run
SETUP_REPEATS = 5       # fresh-interpreter set-ups whose median is setup_s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("reproduce", "solve", "qubo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    n = len(samples)
    if n < 11:
        return None
    return f"p{100.0 * (n - 10) / n:.0f}", sorted(samples)[n - 11]


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (no git metadata)"


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds for imports plus input generation in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload,
         str(seed), str(workdir / "probe")],
        capture_output=True, text=True, check=True, timeout=120)
    times = json.loads(done.stdout.strip().splitlines()[-1])
    return times["import_s"] + times["inputs_s"]


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "dualris").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Counter:
    """Operations attempted and failed; failures go to stderr with their cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, fn, check=None, ops: int = 1):
        """Run fn, then check(result); without a check, fn's result is the check.

        A check returns one line per failed operation.
        """
        self.attempted += ops
        try:
            result = fn()
            errors = check(result) if check else result
        except Exception:                       # the whole attempt failed, keep going
            self.failed += ops
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self.failed += min(len(errors), ops)
        for e in errors:
            print(f"FAILED {what}: {e}", file=sys.stderr)
        return result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:                     # before numpy is imported
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "dualris" / "__init__.py").is_file():
        print(f"perfbench: no dualris sources under {src}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(src), str(ROOT)]

    t0 = time.perf_counter()
    import dualris
    from perfbench import workloads
    import_s = time.perf_counter() - t0
    if Path(dualris.__file__).resolve().parent != (src / "dualris").resolve():
        print(f"perfbench: imported dualris from {dualris.__file__}, not {src}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        setups = [probe_setup(args.workload, args.seed, workdir)
                  for _ in range(SETUP_REPEATS)]
        return _run(args, wl, import_s, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, import_s: float, setups: list[float]) -> int:
    import numpy
    from perfbench import layers, oracle, tracer, workloads

    setup_s = statistics.median(setups)
    wl.setup()

    counter = Counter()
    untraced = []                               # Outcome per untraced pass
    pairs = []                                  # (untraced, traced) of one pass
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.op = "setup"
        with tr:
            wl.setup()
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        out = counter.attempt(f"{wl.name} pass {i}", lambda: wl.run(i), wl.check,
                              wl.ops_per_pass)
        if out:
            out.data = {}                       # checked; keep only the timings
            untraced.append(out)
        if tr:
            tr.op = i
            with tr:
                traced = counter.attempt(f"traced {wl.name} pass {i}",
                                         lambda: wl.run(i), wl.check, wl.ops_per_pass)
            if out and traced:
                traced.data = {}
                pairs.append((out, traced))
            _score_solver_spans(tr, i, wl, oracle)
        i += 1
        if i >= (MIN_TRACED_PAIRS if tr else MIN_PASSES) and time.perf_counter() >= deadline:
            break

    counter.attempt(f"{wl.name} end-of-run checks", wl.finish)
    if tr:
        tr.op = "selfcheck"
        tr.install()
    try:
        counter.attempt("oracle against brute force", oracle.check_against_brute_force)
    finally:
        if tr:
            tr.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    names = ("op_s", "step1_s", "step2_s", "step3_s")
    samples = {name: [o.op_s if k == 0 else o.steps[k - 1] for o in untraced]
               for k, name in enumerate(names)}
    if not untraced:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(untraced)}")
    print(f"  {'metric':<28} {'unit':<9} {'value':<13} {'fastest':<13} {'tail':<16} n")
    table = [("setup_s", "s", setup_s, min(setups), None, SETUP_REPEATS)]
    for name, label in zip(names, wl.metric_names):
        v = samples[name]
        table.append((f"{label} ({name})", "s", statistics.median(v), min(v), tail(v),
                      len(v)))
    for kind, gaps in wl.gaps.items():
        table.append((f"{kind}_gap", "relative", statistics.fmean(gaps), None, None,
                      len(gaps)))
    table.append(("error_rate", "fraction", counter.failed / counter.attempted, None,
                  None, counter.attempted))
    table.append(("peak_rss_mb", "MB", peak_rss_mb, None, None, 1))
    for name, unit, value, fastest, pct, n in table:
        fastest_s = f"{fastest:.6g}" if fastest is not None else "-"
        pct_s = f"{pct[0]}={pct[1]:.6g}" if pct else "-"
        print(f"  {name:<28} {unit:<9} {value:<13.6g} {fastest_s:<13} {pct_s:<16} {n}")

    if tr:
        metrics = _layer_metrics(wl, tr, pairs, layers)
        values = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                  for e in layers.spec()}
    else:
        values = {"setup_s": {"value": setup_s, "unit": "s"},
                  "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        for name in names:
            values[name] = {"value": statistics.median(samples[name]), "unit": "s"}

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "passes": len(untraced),
        "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pinned_calibration": workloads.PINNED_CALIBRATION,
        "inputs": wl.record(),
        "metric_names": dict(zip(names, wl.metric_names)),
        "setup_samples_s": setups, "import_s": import_s,
        "samples_s": samples,
        "waiting": "none: single-threaded, no locks",
    }
    if tr:
        record["trace_missing_sites"] = tr.missing
    print("record " + json.dumps(record, sort_keys=True))
    dump = dict(record, metrics=values)
    if tr:
        dump["spans"] = tracer.serializable(tr.spans)
    path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dump) + "\n")

    print(json.dumps({"correct": counter.failed == 0, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": values}))
    return 0


def _score_solver_spans(tr, op, wl, oracle) -> None:
    """Give each traced exact-objective solver call of one pass its gap."""
    for span in tr.spans:
        obj = span.attrs.pop("_objective", None) if span.op == op else None
        if obj is not None:
            t0 = time.perf_counter()
            opt = oracle.optimum(obj)
            wl.oracle_s.append(time.perf_counter() - t0)
            span.attrs["gap"] = oracle.gap(span.attrs["value"], opt)


def _layer_metrics(wl, tr, pairs, layers) -> dict[str, float]:
    setup_spans = [s for s in tr.spans if s.op == "setup"]
    per_pass = [layers.pass_metrics(setup_spans + [s for s in tr.spans if s.op == k])
                for k in sorted({s.op for s in tr.spans if isinstance(s.op, int)})]
    m = layers.combine(per_pass or [layers.pass_metrics(setup_spans)])
    # brute force runs once per run, in the oracle's self-check
    brute = layers.pass_metrics([s for s in tr.spans if s.op == "selfcheck"])
    for name in ("solvers.brute_force.s", "solvers.brute_force.evals"):
        m[name] = brute[name]

    def key(o):
        k = wl.overhead_step
        return o.op_s if k == 0 else o.steps[k - 1]

    # each pair ran the same pass back to back, so host drift mostly cancels
    m["trace.overhead_frac"] = statistics.median(
        key(t) / key(u) - 1.0 for u, t in pairs) if pairs else 0.0
    m["oracle.s"] = statistics.fmean(wl.oracle_s) if wl.oracle_s else 0.0
    quad = wl.gaps.get("quadratic_anneal")
    if quad:
        m["solvers.quadratic_anneal.gap"] = statistics.fmean(quad)
    return m


if __name__ == "__main__":
    sys.exit(main())
