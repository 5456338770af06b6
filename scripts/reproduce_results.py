#!/usr/bin/env python3
"""Run the full benchmark reproduction: calibration, sweep, gain tables, histogram.

Writes sweep.csv and histogram.csv into the chosen output directory and prints
the headline tables (baseline anchors, QBER reduction, SKR enhancement).
"""
import argparse
import os
import sys
import time

from dualris.cli import write_histogram_csv, write_sweep_csv
from dualris.experiments import (
    RunConfig,
    calibrate,
    chi_square_uniform,
    delta_metrics,
    phase_histogram,
    sweep_elevation,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    cfg = RunConfig(seed=args.seed, output_dir=args.out)
    t0 = time.perf_counter()
    cal = calibrate(cfg)
    print(f"calibration finished in {time.perf_counter() - t0:.2f} s")
    print(f"  rf_gain_offset_db    = {cal.rf_gain_offset_db:.4f}")
    print(f"  effective_visibility = {cal.effective_visibility:.6f}")
    print(f"  h_ref_sq             = {cal.h_ref_sq:.6e}")
    print(f"  raw_rate_scale       = {cal.raw_rate_scale:.4f}")
    print(f"  element_amp_scale    = {cal.element_amp_scale:.6e}")
    print(f"  rf_element_scale     = {cal.rf_element_scale:.6e}")

    t0 = time.perf_counter()
    rows = delta_metrics(sweep_elevation(cfg, cal))
    print(f"sweep finished in {time.perf_counter() - t0:.2f} s ({len(rows)} rows)")
    by = {(r.elevation_deg, r.n_elements): r for r in rows}

    print("\nbaseline anchors:")
    print(f"  QBER 20deg {by[(20.0, 0)].qber * 100:.3f} %   "
          f"QBER 80deg {by[(80.0, 0)].qber * 100:.3f} %")
    print(f"  SKR 20deg {by[(20.0, 0)].skr_bits_s:.0f} bit/s   "
          f"SKR 80deg {by[(80.0, 0)].skr_bits_s:.0f} bit/s")
    print(f"  SNR 10deg {by[(10.0, 0)].snr_db:.2f} dB   "
          f"SNR 90deg {by[(90.0, 0)].snr_db:.2f} dB")

    sizes = [n for n in cfg.sweep.ris_sizes if n > 0]
    print("\nQBER vs RIS size [%]:")
    for theta in (20.0, 80.0):
        cells = "  ".join(f"N={n}: {by[(theta, n)].qber * 100:.3f}" for n in sizes)
        print(f"  {theta:4.0f} deg  base {by[(theta, 0)].qber * 100:.3f}  {cells}")

    print("\nSKR gain over baseline [%]:")
    for theta in (20.0, 80.0):
        base = by[(theta, 0)].skr_bits_s
        cells = "  ".join(
            f"N={n}: {100 * (by[(theta, n)].skr_bits_s / base - 1):+.1f}" for n in sizes)
        print(f"  {theta:4.0f} deg  {cells}")

    print("\nSNR gain over baseline [dB]:")
    for theta in (20.0, 80.0):
        cells = "  ".join(
            f"N={n}: {by[(theta, n)].dsnr_db:+.2f}" for n in sizes)
        print(f"  {theta:4.0f} deg  {cells}")

    os.makedirs(args.out, exist_ok=True)
    write_sweep_csv(os.path.join(args.out, "sweep.csv"), cfg, cal, rows)
    grids = phase_histogram(cfg, cal)
    write_histogram_csv(os.path.join(args.out, "histogram.csv"), cfg, cal, grids)
    print(f"\nphase histogram (N={cfg.ris.n_elements}):")
    for att, grid in grids.items():
        print(f"  att={att:3.1f}: bins min {grid.min()} max {grid.max()} "
              f"chi2-to-uniform {chi_square_uniform(grid):.2f}")
    print(f"\nwrote {args.out}/sweep.csv and {args.out}/histogram.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
