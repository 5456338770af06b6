#!/usr/bin/env python3
"""Benchmark the solvers against the exhaustive oracle and the exact band sweep.

Part one generates seeded random small instances (N <= 4 elements, 2-bit
phases in both bands, at most 16 binary variables), solves each with every
method, and prints optimum hit rates and timings against brute force. Part two
builds the calibrated channel state at 20, 45 and 80 deg for N = 128 / 512 /
4096 and prints each heuristic's relative gap to the exact band sweep and its
CPU time next to the sweep's own. Part three times the QUBO layers at 45 deg
for N = 64 / 128 / 256: build, text export and load CPU time and pair count.
"""
import argparse
import math
import os
import sys
import tempfile
import time

import numpy as np

from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.experiments import RunConfig, build_channel_state, calibrate
from dualris.metrics import BOLTZMANN, Calibration, CostWeights
from dualris.qubo import ExactObjective, build_qubo, export_qubo, load_qubo
from dualris.ris import ChannelState, RisConfig
from dualris.solvers import (
    SolverConfig,
    band_sweep,
    block_coordinate_descent,
    brute_force,
    simulated_annealing,
    tabu_search,
)


def random_instance(seed: int, n_elements: int) -> tuple[ExactObjective, RisConfig]:
    rng = np.random.default_rng(seed)
    cfg = RisConfig(n_elements=n_elements, bits_quantum=2, bits_classical=2)
    state = ChannelState(
        ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
        ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
        rng.uniform(0.02, 0.3, n_elements) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_elements)),
        rng.uniform(0.02, 0.3, n_elements) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_elements)),
    )
    rf = RfParams()
    noise = BOLTZMANN * rf.sys_temp_k * rf.bandwidth_hz
    offset_db = 10 * math.log10(100 * noise / rf.tx_power_w)  # SNR ~ 20 dB scale
    cal = Calibration(raw_rate_scale=1000.0, effective_visibility=0.98,
                      h_ref_sq=1.0 / rng.uniform(50, 200), rf_gain_offset_db=offset_db)
    return ExactObjective(state, CostWeights(), cal, OpticalParams(), rf, cfg), cfg


# heuristic budgets per N for the large states: (anneal sweeps, tabu moves)
LARGE_BUDGETS = {128: (16, 32), 512: (4, 8), 4096: (1, 2)}


def _timed(run):
    t0 = time.process_time()
    result = run()
    return result, time.process_time() - t0


def large_states(cfg: RunConfig, cal: Calibration) -> None:
    """Gap of each heuristic to the exact band sweep on calibrated states."""
    print("\ncalibrated states, gap = (value - exact) / |exact|, CPU time in ms:")
    for n, (sweeps, moves) in LARGE_BUDGETS.items():
        for elevation in (20.0, 45.0, 80.0):
            state, ris_cfg, _ = build_channel_state(cfg, cal, elevation, n)
            obj = ExactObjective(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
            exact, spent = _timed(lambda: band_sweep(obj))
            cells = [f"exact {1e3 * spent:7.1f}"]
            for name, run in (
                ("bcd", lambda: block_coordinate_descent(obj, SolverConfig(kind="bcd"))),
                ("anneal", lambda: simulated_annealing(obj, obj.dim, SolverConfig(
                    kind="anneal", seed=1, max_iters=sweeps, restarts=1))),
                ("tabu", lambda: tabu_search(obj, obj.dim, SolverConfig(
                    kind="tabu", seed=1, max_iters=moves, restarts=1))),
            ):
                result, spent = _timed(run)
                gap = (result.best_value - exact.best_value) / abs(exact.best_value)
                cells.append(f"{name} gap {gap:9.3e} {1e3 * spent:8.1f}")
            print(f"  N={n:<5d} {elevation:4.0f} deg  " + "  ".join(cells))


def qubo_layers(cfg: RunConfig, cal: Calibration) -> None:
    """CPU time of the QUBO build, export and load at 45 deg."""
    print("\nQUBO layers at 45 deg, CPU time in ms:")
    with tempfile.TemporaryDirectory() as tmp:
        for n in (64, 128, 256):
            state, ris_cfg, _ = build_channel_state(cfg, cal, 45.0, n)
            path = os.path.join(tmp, f"n{n}.qubo")
            model, build_s = _timed(lambda: build_qubo(
                state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg))
            _, export_s = _timed(lambda: export_qubo(model, path))
            _, load_s = _timed(lambda: load_qubo(path))
            print(f"  N={n:<4d} build {1e3 * build_s:7.1f}  export {1e3 * export_s:7.1f}"
                  f"  load {1e3 * load_s:7.1f}  pairs {model.pair_w.size}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()

    hits = {"exact": 0, "anneal": 0, "tabu": 0, "bcd": 0}
    spent = {"brute": 0.0, "exact": 0.0, "anneal": 0.0, "tabu": 0.0, "bcd": 0.0}
    for i in range(args.instances):
        obj, cfg = random_instance(args.seed + i, 1 + i % 4)
        dim = cfg.bits_total
        t0 = time.time()
        oracle = brute_force(obj, dim)
        spent["brute"] += time.time() - t0
        tol = 1e-9 * abs(oracle.best_value) + 1e-12
        runs = {
            "exact": lambda: band_sweep(obj),
            "anneal": lambda: simulated_annealing(
                obj, dim, SolverConfig(kind="anneal", seed=i, max_iters=400, restarts=3)),
            "tabu": lambda: tabu_search(
                obj, dim, SolverConfig(kind="tabu", seed=i, max_iters=150,
                                       tabu_tenure=8, restarts=5)),
            "bcd": lambda: block_coordinate_descent(
                obj, SolverConfig(kind="bcd", max_iters=50)),
        }
        for name, run in runs.items():
            t0 = time.time()
            result = run()
            spent[name] += time.time() - t0
            assert result.best_value >= oracle.best_value - tol, "oracle is a lower bound"
            hits[name] += result.best_value <= oracle.best_value + tol

    print(f"instances: {args.instances} (N = 1..4, 2+2 phase bits)")
    print(f"brute force oracle time: {spent['brute']:.1f} s")
    for name in ("exact", "anneal", "tabu", "bcd"):
        rate = 100.0 * hits[name] / args.instances
        print(f"  {name:7s} optimum rate {rate:5.1f} %   time {spent[name]:.1f} s")
    cfg = RunConfig()
    cal = calibrate(cfg)
    large_states(cfg, cal)
    qubo_layers(cfg, cal)
    return 0


if __name__ == "__main__":
    sys.exit(main())
