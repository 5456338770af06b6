#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts and write one BENCH_*.json each.

    python3 scripts/bench.py [--rounds R] [--seconds S] [--seed N] [--out-dir DIR] \\
        CHECKOUT [CHECKOUT ...]

Each round runs `perfbench/run.py --trace 0` of every checkout, unchanged, for
each of the three workloads (reproduce, solve, qubo). Within a round and
workload the checkouts run back to back, and the order reverses every round,
so a host whose speed drifts treats each side alike. Round r uses the seed
N + r on every checkout, so each round gives one pair (or tuple) of runs on
the same inputs.

For each checkout the script writes BENCH_<first 12 hex digits of the source
sha256>.json into DIR. The file is named by the digest of src/dualris, the
code that was measured, because a commit cannot hold its own hash. It holds:
  - per workload and metric (op_s, step1_s..step3_s from samples_s, setup_s
    from setup_samples_s, peak_rss_mb): median, minimum, IQR/median and n
    over the passes of all runs;
  - per run: seed, position in its round, wall time and the CPU time of the
    run's processes (resource.getrusage(RUSAGE_CHILDREN), set-up probes
    included), passes, attempted and failed operations, the run's own medians
    and, on solve, each solver's gap to the exact optimum per state;
  - CPU count, Python and numpy versions, BLAS thread settings, the source
    sha256 and the commit that run.py recorded, followed by
    " + uncommitted changes" when `git status` lists changes under src/ or
    perfbench/ of a checkout that has git metadata.
The closing table prints, per workload and metric, the median of the run
medians of each checkout and, with two checkouts, in how many rounds the
second was faster than the first.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("reproduce", "solve", "qubo")
STEP_METRICS = ("op_s", "step1_s", "step2_s", "step3_s")
METRICS = ("setup_s",) + STEP_METRICS + ("peak_rss_mb",)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="+", help="directories holding perfbench/ and src/")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    args = p.parse_args(argv)
    if args.rounds < 1 or not args.seconds > 0:
        p.error("--rounds must be >= 1 and --seconds > 0")
    for c in args.checkouts:
        if not (Path(c) / "perfbench" / "run.py").is_file():
            p.error(f"{c}: no perfbench/run.py")
    return args


def summary(samples: list[float]) -> dict:
    """Median, minimum, IQR/median and n of one metric's samples."""
    med = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / med if med else 0.0
    else:
        spread = 0.0
    return {"median": med, "min": min(samples), "iqr_over_median": spread,
            "n": len(samples)}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py invocation: its run record plus wall and child CPU time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text())
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"record": record, "result": result, "wall_s": wall, "cpu_s": cpu}


def run_entry(run: dict, seed: int, position: int) -> dict:
    rec, res = run["record"], run["result"]
    entry = {"seed": seed, "position_in_round": position, "wall_s": run["wall_s"],
             "cpu_s": run["cpu_s"], "passes": rec["passes"],
             "attempted": res["attempted"], "failed": res["failed"],
             "medians": {name: res["metrics"][name]["value"] for name in METRICS}}
    if "gap" in rec["inputs"]:
        entry["gap"] = rec["inputs"]["gap"]
    return entry


def commit_label(checkout: Path, recorded: str) -> str:
    """run.py's commit, marked when the measured code differs from that commit.

    run.py reads HEAD only, so a working copy with edits would otherwise be
    recorded under its parent's commit.
    """
    if not (checkout / ".git").exists():
        return recorded
    status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                            cwd=checkout, capture_output=True, text=True, check=True)
    return recorded + " + uncommitted changes" if status.stdout.strip() else recorded


def bench_file(checkout: Path, runs: dict, args) -> dict:
    """The BENCH_*.json content of one checkout from its runs per workload."""
    first = next(iter(runs.values()))[0]["record"]
    doc = {"command": f"python3 scripts/bench.py --rounds {args.rounds} "
                      f"--seconds {args.seconds:g} --seed {args.seed} CHECKOUT...",
           "source_sha256": first["source_sha256"],
           "commit": commit_label(checkout, first["commit"]),
           "cpu_count": first["cpu_count"], "python": first["python"],
           "numpy": first["numpy"], "threads": first["threads"],
           "workloads": {}}
    for workload, wl_runs in runs.items():
        samples = {name: [] for name in METRICS}
        for run in wl_runs:
            rec, res = run["record"], run["result"]
            samples["setup_s"] += rec["setup_samples_s"]
            for name in STEP_METRICS:
                samples[name] += rec["samples_s"][name]
            samples["peak_rss_mb"].append(res["metrics"]["peak_rss_mb"]["value"])
        doc["workloads"][workload] = {
            "metric_names": wl_runs[0]["record"]["metric_names"],
            "metrics": {name: summary(v) for name, v in samples.items()},
            "failed": sum(r["result"]["failed"] for r in wl_runs),
            "attempted": sum(r["result"]["attempted"] for r in wl_runs),
            "runs": [r["entry"] for r in wl_runs]}
    return doc


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = [Path(c).resolve() for c in args.checkouts]
    runs = {c: {w: [] for w in WORKLOADS} for c in checkouts}
    for r in range(args.rounds):
        seed = args.seed + r
        order = checkouts if r % 2 == 0 else checkouts[::-1]
        for workload in WORKLOADS:
            for position, checkout in enumerate(order):
                run = run_once(checkout, workload, seed, args.seconds)
                run["entry"] = run_entry(run, seed, position)
                runs[checkout][workload].append(run)
                print(f"round {r} {workload:<9} {checkout.name:<20} "
                      f"op_s {run['entry']['medians']['op_s']:.4g}  "
                      f"failed {run['entry']['failed']}  wall {run['wall_s']:.1f} s  "
                      f"cpu {run['cpu_s']:.1f} s", flush=True)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = {c: bench_file(c, runs[c], args) for c in checkouts}
    for c, doc in docs.items():
        path = out_dir / f"BENCH_{doc['source_sha256'][:12]}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({c.name})")

    print(f"\n{'workload':<10} {'metric':<12} " + " ".join(
        f"{doc['source_sha256'][:12]:>14}" for doc in docs.values())
          + ("  wins of 2nd" if len(docs) == 2 else ""))
    for workload in WORKLOADS:
        for name in METRICS:
            per = [[e["medians"][name] for e in doc["workloads"][workload]["runs"]]
                   for doc in docs.values()]
            line = f"{workload:<10} {name:<12} " + " ".join(
                f"{statistics.median(v):>14.5g}" for v in per)
            if len(per) == 2:
                wins = sum(b < a for a, b in zip(*per))
                line += f"  {wins}/{len(per[0])}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
