"""Acceptance suite: every reproduction criterion at its stated tolerance.

Each test prints the measured quantities next to their targets so a -s run
reads as a one-line-per-criterion report. Criterion 2's SNR(90) check is
implemented at its stated tolerance and currently fails: the shared spherical
slant-range geometry plus the tabulated attenuation coefficients give the
baseline RF link an 11.1 dB span from 10 to 90 degrees, while the benchmark
curve implies roughly 15 dB. See the README for the full analysis.
"""
import hashlib
import math

import numpy as np

from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.cli import run_cli
from dualris.experiments import (
    CalibrationAnchors,
    chi_square_uniform,
    evaluate_point,
    phase_histogram,
)
from dualris.metrics import BOLTZMANN, Calibration, CostWeights
from dualris.qubo import ExactObjective, build_qubo, eval_quadratic, expansion_error
from dualris.ris import ChannelState, RisConfig, levels_to_bits
from dualris.solvers import (
    SolverConfig,
    block_coordinate_descent,
    brute_force,
    simulated_annealing,
    tabu_search,
)
from perfbench.oracle import campaign_instance

OPT = OpticalParams()
RF = RfParams()


def test_criterion_1_calibration_anchors(calibrated, sweep_result):
    by = sweep_result["by"]
    a = CalibrationAnchors()
    qber20 = by[(20.0, 0)].qber
    qber80 = by[(80.0, 0)].qber
    skr80 = by[(80.0, 0)].skr_bits_s
    snr10 = by[(10.0, 0)].snr_db
    print(f"\ncriterion 1: QBER(20)={qber20 * 100:.4f}% (1.20+-0.02) "
          f"QBER(80)={qber80 * 100:.4f}% (0.90+-0.02) "
          f"SKR(80)={skr80:.1f} (3500+-1%) SNR(10)={snr10:.3f} dB (11+-0.1) "
          f"calibration={calibrated['seconds']:.2f}s (<5s)")
    assert abs(qber20 - a.qber_low) <= 2e-4
    assert abs(qber80 - a.qber_high) <= 2e-4
    assert abs(skr80 - a.skr_high_bits_s) <= 0.01 * a.skr_high_bits_s
    assert abs(snr10 - a.snr_low_db) <= 0.1
    assert calibrated["seconds"] < 5.0


def test_criterion_2a_held_out_skr(sweep_result):
    skr20 = sweep_result["by"][(20.0, 0)].skr_bits_s
    print(f"\ncriterion 2a: held-out baseline SKR(20)={skr20:.1f} bit/s (1100+-10%)")
    assert abs(skr20 - 1100.0) <= 110.0


def test_criterion_2b_held_out_snr_zenith(sweep_result):
    # Known model/benchmark conflict: the spherical slant-range geometry that
    # reproduces the quantum-side anchors cannot also stretch the baseline RF
    # span to 15 dB, so this check fails at ~22.1 dB. Kept at its stated
    # tolerance rather than loosened.
    snr90 = sweep_result["by"][(90.0, 0)].snr_db
    print(f"\ncriterion 2b: held-out baseline SNR(90)={snr90:.2f} dB (26+-1.5)")
    assert abs(snr90 - 26.0) <= 1.5


def test_criterion_3_ris_scaling_single_fitted_point(sweep_result):
    by = sweep_result["by"]
    gains = {}
    for theta in (20.0, 80.0):
        base = by[(theta, 0)].skr_bits_s
        for n in (128, 265, 512):
            gains[(theta, n)] = 100.0 * (by[(theta, n)].skr_bits_s / base - 1.0)
    print(f"\ncriterion 3: SKR gains 20deg {gains[(20.0, 128)]:.1f}/"
          f"{gains[(20.0, 265)]:.1f}/{gains[(20.0, 512)]:.1f}% "
          f"80deg {gains[(80.0, 128)]:.1f}/{gains[(80.0, 265)]:.1f}/"
          f"{gains[(80.0, 512)]:.1f}% (targets 25/53 +-8pp, fit 102 at 80deg) "
          f"sweep={sweep_result['seconds']:.1f}s (<60s)")
    for theta in (20.0, 80.0):
        assert abs(gains[(theta, 128)] - 25.0) <= 8.0
        assert abs(gains[(theta, 265)] - 53.0) <= 8.0
    assert abs(gains[(80.0, 512)] - 102.0) <= 1.0   # the fitted point itself
    assert sweep_result["seconds"] < 60.0


def test_criterion_4_qber_table_20deg(sweep_result):
    by = sweep_result["by"]
    measured = {n: by[(20.0, n)].qber * 100.0 for n in (128, 265, 512)}
    targets = {128: 1.02, 265: 0.98, 512: 0.75}
    print(f"\ncriterion 4: QBER(20deg) N=128 {measured[128]:.3f}% (1.02+-0.15) "
          f"N=265 {measured[265]:.3f}% (0.98+-0.15) "
          f"N=512 {measured[512]:.3f}% (0.75+-0.15)")
    for n, target in targets.items():
        assert abs(measured[n] - target) <= 0.15


def test_criterion_5_orderings_and_cost_monotonicity(run_config, sweep_result):
    by = sweep_result["by"]
    elevations = run_config.sweep.elevations_deg
    for theta in elevations:
        qbers = [by[(theta, n)].qber for n in (512, 265, 128, 0)]
        skrs = [by[(theta, n)].skr_bits_s for n in (0, 128, 265, 512)]
        assert all(a < b for a, b in zip(qbers, qbers[1:])), \
            f"QBER ordering violated at {theta} deg"
        assert all(a < b for a, b in zip(skrs, skrs[1:])), \
            f"SKR ordering violated at {theta} deg"
    for n in run_config.sweep.ris_sizes:
        costs = [by[(theta, n)].cost for theta in elevations]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:])), \
            f"cost not monotone for N={n}"
    print(f"\ncriterion 5: QBER/SKR orderings hold at all {len(elevations)} "
          f"elevations; cost monotone for every N")


def test_criterion_6_solver_oracle_campaign():
    import time
    t0 = time.time()
    instances = 200
    hits = {"anneal": 0, "tabu": 0, "bcd": 0}
    for i in range(instances):
        obj = campaign_instance(1000 + i, 1 + i % 4)
        dim = obj.dim
        oracle = brute_force(obj, dim)
        tol = 1e-9 * abs(oracle.best_value) + 1e-12
        results = {
            "anneal": simulated_annealing(obj, dim, SolverConfig(
                kind="anneal", seed=i, max_iters=400, restarts=3)),
            "tabu": tabu_search(obj, dim, SolverConfig(
                kind="tabu", seed=i, max_iters=150, tabu_tenure=8, restarts=5)),
            "bcd": block_coordinate_descent(obj, SolverConfig(kind="bcd", max_iters=50)),
        }
        for name, result in results.items():
            assert result.best_value >= oracle.best_value - tol, \
                f"{name} beat the exhaustive oracle on instance {i}"
            hits[name] += result.best_value <= oracle.best_value + tol
    elapsed = time.time() - t0
    print(f"\ncriterion 6: optimum rates over {instances} instances "
          f"anneal {hits['anneal'] / 2:.1f}% (>=95) tabu {hits['tabu'] / 2:.1f}% (>=95) "
          f"bcd {hits['bcd'] / 2:.1f}% (>=90) in {elapsed:.0f}s (<120s)")
    assert hits["anneal"] >= 0.95 * instances
    assert hits["tabu"] >= 0.95 * instances
    assert hits["bcd"] >= 0.90 * instances
    assert elapsed < 120.0


def _regime_state(amp_ratio: float, psi_half_width_rad: float, seed: int = 0,
                  bits: int = 2):
    """Synthetic state for the expansion-error regimes (direct amplitude 1)."""
    rng = np.random.default_rng(seed)
    n = 3
    cfg = RisConfig(n_elements=n, bits_quantum=bits, bits_classical=bits)
    phase_q = rng.uniform(0, 2 * math.pi)
    phase_c = rng.uniform(0, 2 * math.pi)
    off_q = rng.uniform(-psi_half_width_rad, psi_half_width_rad, n)
    off_c = rng.uniform(-psi_half_width_rad, psi_half_width_rad, n)
    state = ChannelState(
        ComplexGain(1.0, phase_q), ComplexGain(1.0, phase_c),
        amp_ratio * np.exp(1j * (phase_q + off_q)),
        amp_ratio * np.exp(1j * (phase_c + off_c)))
    noise = BOLTZMANN * RF.sys_temp_k * RF.bandwidth_hz
    # low-elevation operating point: qber ~2%, snr ~11 dB
    cal = Calibration(raw_rate_scale=1000.0, effective_visibility=0.983,
                      h_ref_sq=1.0 / 38.0,
                      rf_gain_offset_db=10 * math.log10(12.6 * noise / RF.tx_power_w))
    return state, cal, cfg


def test_criterion_7_qubo_fidelity():
    w = CostWeights()
    # (a) surrogate equals the exact objective at the expansion point
    state, cal, cfg = _regime_state(0.15, math.pi, seed=3)
    rng = np.random.default_rng(5)
    x0 = rng.integers(0, 2, cfg.bits_total, dtype=np.uint8)
    model = build_qubo(state, w, cal, OPT, RF, cfg, expansion_point=x0)
    exact0 = ExactObjective(state, w, cal, OPT, RF, cfg).value(x0)
    quad0 = eval_quadratic(model, x0)
    rel = abs(quad0 - exact0) / abs(exact0)
    # (b) small-angle regime: static offsets within +-10 deg (pairwise 20 deg),
    # per-element amplitude 1e-3 of the direct path, 11.25-degree quantization
    # steps sampled one level around the expansion point
    state_s, cal_s, cfg_s = _regime_state(1e-3, math.radians(10.0), seed=1, bits=5)
    mid = np.full(3, 16)                  # level 16 of 32: a half turn
    centre = levels_to_bits(mid, mid, cfg_s)
    small = expansion_error(state_s, w, cal_s, OPT, RF, cfg_s,
                            samples=1000, rng_seed=7,
                            expansion_point=centre, max_step=1)
    # (c) 90-degree-step regime: full 2-bit hypercube, measured and reported,
    # no bound asserted (the second-order cosine model is far off there)
    state_w, cal_w, cfg_w = _regime_state(0.15, math.pi, seed=2)
    wide = expansion_error(state_w, w, cal_w, OPT, RF, cfg_w,
                           samples=1000, rng_seed=7)
    print(f"\ncriterion 7: expansion-point relative gap {rel:.2e} (<=1e-9); "
          f"small-angle max deviation {small * 100:.4f}% (<=2%); "
          f"90deg-step regime measured {wide * 100:.1f}% (reported only)")
    assert rel <= 1e-9
    assert small <= 0.02
    assert math.isfinite(wide)


def test_criterion_8_security_invariant(run_config, calibrated, sweep_result):
    threshold = 0.11
    assert all(r.feasible for r in sweep_result["rows"])
    assert all(r.qber <= threshold for r in sweep_result["rows"])
    worst = max(r.qber for r in sweep_result["rows"])
    # histogram operating points, one per attenuation level
    hist_worst = 0.0
    for att in run_config.sweep.attenuation_levels:
        row, _, _ = evaluate_point(run_config, calibrated["cal"], 45.0,
                                     run_config.ris.n_elements, att)
        assert row.feasible and row.qber <= threshold
        hist_worst = max(hist_worst, row.qber)
    print(f"\ncriterion 8: worst accepted QBER sweep {worst * 100:.3f}% "
          f"histogram {hist_worst * 100:.3f}% (all <= 11%)")


def test_criterion_9_histogram_properties(run_config, calibrated):
    grids = phase_histogram(run_config, calibrated["cal"])
    levels = run_config.sweep.attenuation_levels
    chis = []
    for att in levels:
        grid = grids[att]
        assert grid.sum() == 512
        assert grid.shape == (4, 4)
        assert (grid > 0).all(), f"empty joint phase bin at att={att}"
        chis.append(chi_square_uniform(grid))
    for earlier, later in zip(chis, chis[1:]):   # levels are ordered 1.0 -> 0.1
        assert later <= earlier + 1e-9
    print(f"\ncriterion 9: counts sum 512, all 16 bins occupied at every att; "
          f"chi2 {['%.2f' % c for c in chis]} non-increasing")


def test_criterion_10_byte_identical_reruns(tmp_path):
    digests = []
    for run in ("one", "two"):
        out = tmp_path / run
        out.mkdir()
        ini = out / "run.ini"
        ini.write_text("[sweep]\nelevations_deg = 20,50,80\nris_sizes = 0,32\n"
                       f"[ris]\nn_elements = 32\n[run]\nseed = 7\noutput_dir = {out}\n")
        assert run_cli(["--config", str(ini), "sweep", "--out", "sweep.csv",
                        "--no-timestamp"]) == 0
        assert run_cli(["--config", str(ini), "histogram", "--out", "hist.csv",
                        "--no-timestamp"]) == 0
        payload = (out / "sweep.csv").read_bytes() + (out / "hist.csv").read_bytes()
        digests.append(hashlib.sha256(payload).hexdigest())
    print(f"\ncriterion 10: rerun sha256 {digests[0][:16]}... == {digests[1][:16]}...")
    assert digests[0] == digests[1]
