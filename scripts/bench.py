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
    included), passes, attempted and failed operations, the run's own medians,
    on solve each solver's gap to the exact optimum per state, and on qubo
    the quadratic anneal's gap from the quadratic_anneal_gap row run.py
    prints;
  - CPU count, Python and numpy versions, BLAS thread settings, the source
    sha256 and the commit that run.py recorded, followed by
    " + uncommitted changes" when `git status` lists changes under src/ or
    perfbench/ of a checkout that has git metadata.
Each round also runs the Tier-1 suite of every checkout once, in the same
alternating order, as `python -m pytest -q --continue-on-collection-errors`
with src/ on PYTHONPATH and the BLAS thread variables pinned to 1 as run.py
pins them. The file's tier1 section holds the median, minimum, IQR/median and
n of its wall time and child CPU time, and per run the passed and failed
counts from pytest's summary line.
Each round also starts every CLI command of CLI_COMMANDS from a cold process
CLI_RUNS times per checkout, in the same alternating order, as
`python -m dualris.cli ...` with the checkout's src/ on PYTHONPATH, the BLAS
thread variables pinned to 1 and a fresh temporary directory as the working
directory, which the commands write their files into. The file's cli section
holds, per command, the median, minimum, IQR/median and n of the wall time
and of the child CPU time over all of its starts, and each start's round,
position, wall and CPU time.
The closing table prints, per workload and metric, for the Tier-1 wall and
CPU time and for each CLI command's wall and CPU time, the median of the
per-round medians of each checkout and, with two checkouts, in how many
rounds the second was faster than the first, with the exact two-sided
sign-test p-value over the rounds that differ (sign_test_p): how often two
checkouts of equal speed would split those rounds at least as unevenly.
With two checkouts, each workload row also gives the ratio of the second
median to the first, the metric's bound from the end_to_end list of
BENCHMARK.json beside this script, and past_bound: whether the second is
worse than the first by more than the bound (ratio - 1 > bound; every
end_to_end metric is lower-is-better). The table ends with a line naming the rows past
their bound, or "none". This is a guide for reading a run, not a verdict.
With two checkouts, the second one's file also holds this table as
comparison: the first checkout's source sha256 (against_source_sha256) and
per row the workload (or tier1, or the CLI command's first word), metric,
both medians, rounds, wins and losses of the second, and sign_test_p, plus
ratio, bound and past_bound on the workload rows.
With two checkouts, each round also runs SETUP_PAIRS pairs of fresh-process
`perfbench/setup_probe.py` set-ups per workload: one probe of each checkout,
back to back, with the checkout that goes first alternating from pair to
pair. The two probes of a pair see the same host, while setup_s, the median
of one run's five probes, drifts with the host. The second file's setup_pairs
section holds per workload each pair's round, both set-up times (imports plus
inputs) and their ratio, second over first, and the median ratio, the pairs
the second won and lost, and sign_test_p; the closing table prints the same.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("reproduce", "solve", "qubo")
STEP_METRICS = ("op_s", "step1_s", "step2_s", "step3_s")
METRICS = ("setup_s",) + STEP_METRICS + ("peak_rss_mb",)
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")   # as perfbench/run.py
CLI_COMMANDS = ("calibrate", "link-budget --elevation 45 --n 512",
                "optimize --elevation 45 --n 512", "sweep", "histogram",
                "qubo-export --n 128")
CLI_RUNS = 3                     # cold starts per command, checkout and round
SETUP_PAIRS = 5                  # set-up probe pairs per workload and round
QUAD_GAP_ROW = re.compile(r"^\s+quadratic_anneal_gap\s+relative\s+(\S+)", re.M)
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


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


def timed_child(argv: list[str], cwd: Path, src: Path):
    """Run argv with src on PYTHONPATH and the BLAS threads pinned.

    Returns the finished process, its wall time and its CPU time.
    """
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return done, wall, cpu


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py invocation: its run record plus wall and child CPU time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done, wall, cpu = timed_child(cmd, checkout, Path("src"))   # run.py pins the same
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text())
    return {"record": record, "result": result, "wall_s": wall, "cpu_s": cpu,
            "stdout": done.stdout}


def run_tier1(checkout: Path, position: int) -> dict:
    """One Tier-1 run: wall and child CPU time and the passed and failed counts."""
    done, wall, cpu = timed_child([sys.executable, *TIER1], checkout, Path("src"))
    tail = done.stdout.strip().splitlines()[-1:] or [""]
    counts = {word: int(k) for k, word in re.findall(r"(\d+) (passed|failed)", tail[0])}
    if not counts:
        raise RuntimeError(f"{checkout}: no pytest summary line:\n{done.stdout[-2000:]}"
                           f"{done.stderr[-2000:]}")
    return {"position_in_round": position, "wall_s": wall, "cpu_s": cpu,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "summary": tail[0]}


def run_cli(checkout: Path, command: str, round_: int, position: int) -> dict:
    """One cold start of `python -m dualris.cli command` in a fresh directory."""
    argv = [sys.executable, "-m", "dualris.cli", *command.split()]
    with tempfile.TemporaryDirectory(prefix="bench-cli-") as tmp:
        done, wall, cpu = timed_child(argv, Path(tmp), checkout / "src")
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: dualris {command} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return {"round": round_, "position_in_round": position, "wall_s": wall, "cpu_s": cpu}


def probe_setup(checkout: Path, workload: str, seed: int) -> float:
    """One fresh-process set-up of the checkout's setup_probe.py: imports plus inputs."""
    argv = [sys.executable, "perfbench/setup_probe.py", workload, str(seed)]
    with tempfile.TemporaryDirectory(prefix="bench-setup-") as tmp:
        done, _, _ = timed_child(argv + [tmp], checkout, Path("src"))
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    times = json.loads(done.stdout.strip().splitlines()[-1])
    return times["import_s"] + times["inputs_s"]


def setup_pair_summary(pairs: list[dict]) -> dict:
    """Median ratio, the second's wins and losses and sign_test_p of one workload's pairs."""
    ratios = [p["ratio"] for p in pairs]
    wins, losses = sum(x < 1.0 for x in ratios), sum(x > 1.0 for x in ratios)
    return {"pairs": pairs, "median_ratio": statistics.median(ratios), "wins": wins,
            "losses": losses, "sign_test_p": sign_test_p(wins, losses)}


def run_entry(run: dict, seed: int, position: int) -> dict:
    rec, res = run["record"], run["result"]
    entry = {"seed": seed, "position_in_round": position, "wall_s": run["wall_s"],
             "cpu_s": run["cpu_s"], "passes": rec["passes"],
             "attempted": res["attempted"], "failed": res["failed"],
             "medians": {name: res["metrics"][name]["value"] for name in METRICS}}
    if "gap" in rec["inputs"]:
        entry["gap"] = rec["inputs"]["gap"]
    quad_gap = QUAD_GAP_ROW.search(run["stdout"])
    if quad_gap:
        entry["quadratic_anneal_gap"] = float(quad_gap.group(1))
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


def bench_file(checkout: Path, runs: dict, tier1: list[dict], cli: dict, args) -> dict:
    """The BENCH_*.json content of one checkout from its workload, Tier-1 and CLI runs."""
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
    doc["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                    "wall_s": summary([r["wall_s"] for r in tier1]),
                    "cpu_s": summary([r["cpu_s"] for r in tier1]),
                    "runs": tier1}
    doc["cli"] = {"command": "PYTHONPATH=CHECKOUT/src python -m dualris.cli COMMAND",
                  "runs_per_round": CLI_RUNS,
                  "commands": {command: {"wall_s": summary([e["wall_s"] for e in starts]),
                                         "cpu_s": summary([e["cpu_s"] for e in starts]),
                                         "runs": starts}
                               for command, starts in cli.items()}}
    return doc


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def round_medians(entries: list[dict], name: str, rounds: int) -> list[float]:
    """Per round, the median of the entries' values of name."""
    return [statistics.median(e[name] for e in entries if e["round"] == r)
            for r in range(rounds)]


def end_to_end_bounds() -> dict[str, float]:
    """BENCHMARK.json's end_to_end bound of each metric."""
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def comparison_rows(docs: list[dict], rounds: int) -> list[dict]:
    """The closing table: per workload and metric, the Tier-1 times and each
    CLI command's times, the median of each checkout's per-round values and,
    with two checkouts, the rounds the second won and lost and sign_test_p,
    and on the workload rows the ratio of the medians, second over first,
    the metric's bound and past_bound."""
    bounds = end_to_end_bounds() if len(docs) == 2 else {}
    rows = [(workload, name, [[e["medians"][name] for e in doc["workloads"][workload]["runs"]]
                              for doc in docs])
            for workload in WORKLOADS for name in METRICS]
    rows += [("tier1", name, [[e[name] for e in doc["tier1"]["runs"]] for doc in docs])
             for name in ("wall_s", "cpu_s")]
    rows += [(command.split()[0], name,
              [round_medians(doc["cli"]["commands"][command]["runs"], name, rounds)
               for doc in docs])
             for command in CLI_COMMANDS for name in ("wall_s", "cpu_s")]
    table = []
    for workload, name, per in rows:
        row = {"workload": workload, "metric": name,
               "medians": [statistics.median(v) for v in per]}
        if len(per) == 2:
            wins = sum(b < a for a, b in zip(*per))
            losses = sum(b > a for a, b in zip(*per))
            row.update(rounds=len(per[0]), wins=wins, losses=losses,
                       sign_test_p=sign_test_p(wins, losses))
            if workload in WORKLOADS:
                first, second = row["medians"]
                ratio = second / first if first else math.inf
                bound = bounds[name]       # every end_to_end metric is lower-is-better
                row.update(ratio=ratio, bound=bound, past_bound=ratio - 1.0 > bound)
        table.append(row)
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = [Path(c).resolve() for c in args.checkouts]
    runs = {c: {w: [] for w in WORKLOADS} for c in checkouts}
    tier1 = {c: [] for c in checkouts}
    cli = {c: {command: [] for command in CLI_COMMANDS} for c in checkouts}
    setup_pairs = {w: [] for w in WORKLOADS}
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
                      f"peak_rss_mb {run['entry']['medians']['peak_rss_mb']:.4g}  "
                      f"failed {run['entry']['failed']}  wall {run['wall_s']:.1f} s  "
                      f"cpu {run['cpu_s']:.1f} s", flush=True)
        for workload in WORKLOADS if len(checkouts) == 2 else ():
            for k in range(SETUP_PAIRS):
                times = {c: probe_setup(c, workload, seed)
                         for c in (order if k % 2 == 0 else order[::-1])}
                first, second = (times[c] for c in checkouts)
                setup_pairs[workload].append({
                    "round": r, "first_ran_first": next(iter(times)) == checkouts[0],
                    "first_s": first, "second_s": second, "ratio": second / first})
            ratios = [p["ratio"] for p in setup_pairs[workload][-SETUP_PAIRS:]]
            print(f"round {r} {'setup':<9} {workload:<20} second/first "
                  + " ".join(f"{x:.3f}" for x in ratios), flush=True)
        for position, checkout in enumerate(order):
            t1 = run_tier1(checkout, position)
            tier1[checkout].append(t1)
            print(f"round {r} {'tier1':<9} {checkout.name:<20} {t1['summary']}  "
                  f"wall {t1['wall_s']:.1f} s  cpu {t1['cpu_s']:.1f} s", flush=True)
        for command in CLI_COMMANDS:
            for position, checkout in enumerate(order):
                starts = [run_cli(checkout, command, r, position) for _ in range(CLI_RUNS)]
                cli[checkout][command] += starts
                print(f"round {r} {'cli':<9} {checkout.name:<20} {command}  wall "
                      f"{statistics.median(e['wall_s'] for e in starts):.3f} s", flush=True)

    docs = {c: bench_file(c, runs[c], tier1[c], cli[c], args) for c in checkouts}
    rows = comparison_rows(list(docs.values()), args.rounds)
    if len(docs) == 2:
        first, second = docs.values()
        second["comparison"] = {"against_source_sha256": first["source_sha256"],
                                "rows": rows}
        second["setup_pairs"] = {
            "against_source_sha256": first["source_sha256"], "pairs_per_round": SETUP_PAIRS,
            "workloads": {w: setup_pair_summary(p) for w, p in setup_pairs.items()}}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for c, doc in docs.items():
        path = out_dir / f"BENCH_{doc['source_sha256'][:12]}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({c.name})")

    print(f"\n{'workload':<12} {'metric':<12} " + " ".join(
        f"{doc['source_sha256'][:12]:>14}" for doc in docs.values())
          + ("  wins of 2nd  sign-test p   ratio  bound  past" if len(docs) == 2 else ""))
    for row in rows:
        line = f"{row['workload']:<12} {row['metric']:<12} " + " ".join(
            f"{m:>14.5g}" for m in row["medians"])
        if "wins" in row:
            line += f"  {row['wins']}/{row['rounds']:<10} {row['sign_test_p']:<11.4f}"
        if "ratio" in row:
            mark = "yes" if row["past_bound"] else "no"
            line += f" {row['ratio']:>7.4f}  {row['bound']:<5g}  {mark}"
        print(line)
    if len(docs) == 2:
        past = [f"{row['workload']} {row['metric']}" for row in rows if row.get("past_bound")]
        print("past their bound: " + (", ".join(past) or "none"))
        print(f"\n{'workload':<12} {'setup pairs':<12} {'median ratio':>14}"
              "  wins of 2nd  sign-test p")
        for workload, pairs in second["setup_pairs"]["workloads"].items():
            print(f"{workload:<12} {len(pairs['pairs']):<12} {pairs['median_ratio']:>14.4f}"
                  f"  {pairs['wins']}/{len(pairs['pairs']):<10} {pairs['sign_test_p']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
