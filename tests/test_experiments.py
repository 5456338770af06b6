import dataclasses
import hashlib
import os
import pickle
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualris import cli, experiments
from dualris.cli import (
    ConfigError,
    EXIT_CALIBRATION,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    load_config,
    run_cli,
    write_histogram_csv,
    write_sweep_csv,
)
from dualris.experiments import (
    CalibrationAnchors,
    CalibrationError,
    RunConfig,
    SweepSpec,
    build_channel_state,
    calibrate,
    delta_metrics,
    derived_seed,
    evaluate_point,
    objective_problem,
    phase_histogram,
    solve_point,
    sweep_elevation,
)
from dualris.metrics import Calibration, CostWeights
from dualris.qubo import ExactObjective, ObjectiveError, load_qubo
from dualris.ris import RisConfig
from dualris.solvers import SolverConfig
from perfbench import workloads
from test_qubo import run_child
from test_solvers import random_instance


class TestCalibration:
    def test_anchor_values(self, run_config, calibrated, sweep_result):
        by = sweep_result["by"]
        a = CalibrationAnchors()
        assert by[(20.0, 0)].qber == pytest.approx(a.qber_low, abs=2e-7)
        assert by[(80.0, 0)].qber == pytest.approx(a.qber_high, abs=2e-7)
        assert by[(80.0, 0)].skr_bits_s == pytest.approx(a.skr_high_bits_s, rel=1e-4)
        assert by[(10.0, 0)].snr_db == pytest.approx(a.snr_low_db, abs=1e-4)

    def test_rf_element_scale_hits_dsnr(self, run_config, calibrated, sweep_result):
        by = sweep_result["by"]
        dsnr = by[(80.0, 512)].snr_db - by[(80.0, 0)].snr_db
        assert dsnr == pytest.approx(1.1, abs=0.01)

    def test_zero_element_anchor_skips_cascade_fits(self, run_config):
        from dualris.experiments import calibrate
        cal = calibrate(run_config, CalibrationAnchors(ris_n=0))
        assert cal.element_amp_scale == 1.0
        assert cal.rf_element_scale == 1.0
        assert cal.effective_visibility == pytest.approx(0.98282, abs=1e-4)

    def test_visibility_physical(self, calibrated):
        assert 0.0 < calibrated["cal"].effective_visibility <= 1.0


def plain_fit_cascade_scale(cfg, cal, a, name, residual_of):
    """experiments._fit_cascade_scale as one exact solve_point per step (reference)."""
    def residual(scale):
        c = dataclasses.replace(cal, **{name: scale})
        result, objective = experiments.solve_point(cfg, c, a.high_deg, a.ris_n,
                                                    solver=SolverConfig(kind="exact"))
        return residual_of(objective.metrics_of(result.best_bits))

    lo, hi = 1e-12, 1e-6
    while residual(hi) < 0 and hi < 1e12:
        lo, hi = hi, hi * 10.0
    return dataclasses.replace(cal, **{name: experiments._bisect(residual, lo, hi, what=name)})


def calibrate_outcome(cfg, anchors=None):
    """calibrate's six constants, or the type and message of its refusal."""
    try:
        return dataclasses.astuple(calibrate(cfg, anchors))
    except (CalibrationError, ObjectiveError) as exc:
        return type(exc).__name__, str(exc)


def counted(calls, fn):
    """fn, appending the arguments of each call to calls."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


class TestCascadeFits:
    # the fits rescale one band of a point built once and re-sweep that band
    # only; every constant and refusal equals a solve_point per step

    @pytest.mark.parametrize("bits", [(2, 2), (1, 1), (3, 1)])
    @pytest.mark.parametrize("n,elevation", [(512, 80.0), (128, 80.0), (265, 45.0)])
    def test_constants_equal_the_reference(self, monkeypatch, n, elevation, bits):
        anchors = CalibrationAnchors(ris_n=n, high_deg=elevation)
        for seed in range(5):
            cfg = RunConfig(seed=seed, ris=RisConfig(bits_quantum=bits[0],
                                                     bits_classical=bits[1]))
            got = dataclasses.astuple(calibrate(cfg, anchors))
            with monkeypatch.context() as m:
                m.setattr(experiments, "_fit_cascade_scale", plain_fit_cascade_scale)
                assert got == dataclasses.astuple(calibrate(cfg, anchors)), seed

    @pytest.mark.parametrize("weights,anchors,kind", [
        (CostWeights(alpha=1.0, beta=1e308), None, "ObjectiveError"),
        (CostWeights(), CalibrationAnchors(dsnr_high_db=1000.0), "CalibrationError"),
        (CostWeights(), CalibrationAnchors(skr_gain_high=-0.5), "CalibrationError"),
    ])
    def test_refusals_equal_the_reference(self, monkeypatch, weights, anchors, kind):
        cfg = RunConfig(weights=weights)
        got = calibrate_outcome(cfg, anchors)
        assert got[0] == kind
        monkeypatch.setattr(experiments, "_fit_cascade_scale", plain_fit_cascade_scale)
        assert got == calibrate_outcome(cfg, anchors)

    def test_each_fit_builds_its_point_once(self, monkeypatch):
        cfg = RunConfig()
        solves = []            # per fit, the calibration of each point the reference solves

        def reference(*args):
            solves.append([])
            return plain_fit_cascade_scale(*args)

        def solve(cfg, cal, *args, **kwargs):
            solves[-1].append(cal)
            return solve_point(cfg, cal, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(experiments, "_fit_cascade_scale", reference)
            m.setattr(experiments, "solve_point", solve)
            calibrate(cfg)
        scales = sum(len(set(fit)) for fit in solves)
        assert (sum(map(len, solves)), scales) == (76, 72)
        builds, sweeps = [], []
        monkeypatch.setattr(experiments, "build_channel_state",
                            counted(builds, experiments.build_channel_state))
        monkeypatch.setattr(experiments, "band_levels", counted(sweeps, experiments.band_levels))
        calibrate(cfg)
        assert len(builds) == 2
        # the fitted band once per distinct scale of its fit, the other band once per fit
        assert len(sweeps) == scales + 2


class TestSeeds:
    def test_derived_seed_stable(self):
        assert derived_seed(1, 20.0, 512) == derived_seed(1, 20.0, 512)
        assert derived_seed(1, 20.0, 512) != derived_seed(1, 25.0, 512)
        assert derived_seed(1, 20.0, 512) != derived_seed(1, 20.0, 256)
        assert derived_seed(1, 20.0, 512) != derived_seed(2, 20.0, 512)

    def test_rows_unchanged_when_grid_grows(self, run_config, calibrated):
        cal = calibrated["cal"]
        small = RunConfig(sweep=SweepSpec(elevations_deg=(20.0,), ris_sizes=(0, 128)))
        large = RunConfig(sweep=SweepSpec(elevations_deg=(20.0, 50.0),
                                          ris_sizes=(0, 128, 265)))
        rows_small = sweep_elevation(small, cal)
        rows_large = sweep_elevation(large, cal)
        small_by = {(r.elevation_deg, r.n_elements): r for r in rows_small}
        large_by = {(r.elevation_deg, r.n_elements): r for r in rows_large}
        for key, row in small_by.items():
            assert large_by[key] == row


class TestChannelStateAssembly:
    def test_attenuation_scales_all_deterministic_amplitudes(self, run_config, calibrated):
        cal = calibrated["cal"]
        full, _, _ = build_channel_state(run_config, cal, 45.0, 8, att=1.0)
        dim_state, _, _ = build_channel_state(run_config, cal, 45.0, 8, att=0.25)
        assert dim_state.direct_quantum.amplitude == pytest.approx(
            0.5 * full.direct_quantum.amplitude, rel=1e-12)
        assert dim_state.direct_classical.amplitude == pytest.approx(
            0.5 * full.direct_classical.amplitude, rel=1e-12)
        assert np.allclose(np.abs(dim_state.cascade_quantum),
                           0.5 * np.abs(full.cascade_quantum))
        # phases are untouched by the attenuation factor
        assert np.allclose(np.angle(dim_state.cascade_quantum),
                           np.angle(full.cascade_quantum))

    def test_calibration_scales_cascades(self, run_config, calibrated):
        cal = calibrated["cal"]
        unit = Calibration(raw_rate_scale=cal.raw_rate_scale,
                           effective_visibility=cal.effective_visibility,
                           h_ref_sq=cal.h_ref_sq,
                           rf_gain_offset_db=cal.rf_gain_offset_db)
        scaled, _, _ = build_channel_state(run_config, cal, 45.0, 4)
        plain, _, _ = build_channel_state(run_config, unit, 45.0, 4)
        assert np.allclose(np.abs(scaled.cascade_quantum),
                           cal.element_amp_scale * np.abs(plain.cascade_quantum))


class TestSweep:
    def test_row_count_and_order(self, run_config, sweep_result):
        rows = sweep_result["rows"]
        spec = run_config.sweep
        assert len(rows) == len(spec.elevations_deg) * len(spec.ris_sizes)
        keys = [(r.elevation_deg, r.n_elements) for r in rows]
        assert keys == [(e, n) for e in spec.elevations_deg for n in spec.ris_sizes]

    def test_baseline_rows_skip_solver(self, sweep_result):
        for row in sweep_result["rows"]:
            if row.n_elements == 0:
                assert row.solver_evals == 0

    def test_delta_columns(self, sweep_result):
        for row in sweep_result["rows"]:
            if row.n_elements == 0:
                assert row.dsnr_db == 0.0
                assert row.dqber_pp == 0.0
            else:
                assert row.dsnr_db > 0.0
                assert row.dqber_pp > 0.0

    def test_cost_is_the_value_the_solver_minimized(self, run_config, calibrated,
                                                    sweep_result):
        # bit for bit on every row: a RIS row's cost is its result's value, and
        # a baseline row's is the cost at the direct totals
        cal = calibrated["cal"]
        for row in sweep_result["rows"]:
            e, n = row.elevation_deg, row.n_elements
            if n == 0:
                state, ris_cfg, _ = build_channel_state(run_config, cal, e, 0)
                obj = ExactObjective(state, run_config.weights, cal, run_config.optical,
                                     run_config.rf, ris_cfg)
                assert row.cost.hex() == obj.cost_from_totals(obj.h0q, obj.h0c).hex()
                continue
            _, result, obj = evaluate_point(run_config, cal, e, n)
            assert row.cost.hex() == result.best_value.hex()
            assert row.cost.hex() == obj.value(result.best_bits).hex()

    def test_delta_requires_baseline(self, sweep_result):
        ris_only = [r for r in sweep_result["rows"] if r.n_elements > 0]
        with pytest.raises(ValueError):
            delta_metrics(ris_only)

    def test_swing_cost_uses_the_resolved_weights(self, calibrated):
        # swing weights with beta_o = 0 resolve to (1 / qber_threshold, 0) on every row
        cfg = RunConfig(weights=CostWeights(mode="swing", beta_o=0.0))
        for n in (0, 128):
            row, _, _ = evaluate_point(cfg, calibrated["cal"], 45.0, n)
            assert abs(row.cost - row.qber / cfg.weights.qber_threshold) <= 1e-12

    def test_point_with_quadratic_proposals_rescores_exactly(self, run_config, calibrated):
        cfg = RunConfig(solver=SolverConfig(kind="anneal", seed=3, max_iters=40,
                                            restarts=1, objective="quadratic"),
                        sweep=run_config.sweep)
        row, result, _ = evaluate_point(cfg, calibrated["cal"], 45.0, 4)
        assert result is not None
        assert row.feasible

    @pytest.mark.parametrize("beta,finite", [(0.0, True), (1.0, True), (1e300, True),
                                             (1e308, False)])
    def test_point_refuses_a_cost_that_overflows(self, run_config, calibrated, beta, finite):
        # the objective itself accepts the weights; solve_point refuses them
        # before any solve when a term's extreme is not finite
        cal = calibrated["cal"]
        cfg = dataclasses.replace(run_config, weights=CostWeights(alpha=1.0, beta=beta))
        state, ris_cfg, _ = build_channel_state(cfg, cal, 45.0, 4)
        obj = ExactObjective(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        assert (objective_problem(obj) is None) == finite
        if finite:
            solve_point(cfg, cal, 45.0, 4)
        else:
            assert "not finite" in objective_problem(obj)
            with pytest.raises(ObjectiveError, match="not finite"):
                solve_point(cfg, cal, 45.0, 4)


class TestHistogramApi:
    def test_requires_two_bit_phases(self, run_config, calibrated):
        cfg = RunConfig(ris=RisConfig(n_elements=16, bits_quantum=1, bits_classical=2))
        with pytest.raises(ValueError):
            phase_histogram(cfg, calibrated["cal"])

    def test_requires_elements(self, calibrated):
        with pytest.raises(ValueError):
            phase_histogram(RunConfig(ris=RisConfig(n_elements=0)), calibrated["cal"])


class TestAttenuationInvariance:
    # build_channel_state scales every amplitude of both bands by sqrt(att),
    # and a common positive factor does not move the maximizer of |T|
    @settings(max_examples=100, deadline=None)
    @given(elevation=st.sampled_from((10.0, 30.0, 45.0, 70.0, 90.0)),
           n=st.sampled_from((1, 7, 128, 512, 4096)),
           att=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_optimized_levels_ignore_uniform_attenuation(self, run_config, calibrated,
                                                         elevation, n, att):
        cal = calibrated["cal"]
        full, obj_full = solve_point(run_config, cal, elevation, n)
        dim, obj_dim = solve_point(run_config, cal, elevation, n, att)
        for a, b in zip(obj_full.levels_of(full.best_bits), obj_dim.levels_of(dim.best_bits)):
            assert np.array_equal(a, b)


class TestConfigFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    def test_load_overrides(self, tmp_path):
        path = self._write(tmp_path, """
[geometry]
sat_altitude_km = 550
[ris]
n_elements = 128
[sweep]
elevations_deg = 10:30:10
ris_sizes = 0,128
[solver]
kind = tabu
seed = 9
[run]
seed = 42
output_dir = out
""")
        cfg = load_config(path)
        assert cfg.geometry.sat_altitude_km == 550.0
        assert cfg.ris.n_elements == 128
        assert cfg.sweep.elevations_deg == (10.0, 20.0, 30.0)
        assert cfg.sweep.ris_sizes == (0, 128)
        assert cfg.solver.kind == "tabu"
        assert cfg.seed == 42
        assert cfg.output_dir == "out"

    def test_defaults_when_absent(self, tmp_path):
        cfg = load_config(self._write(tmp_path, "[geometry]\nsat_altitude_km = 500\n"))
        assert cfg.rf.tx_power_w == 10.0
        assert cfg.optical.wavelength_m == 850e-9

    def test_unknown_key_rejected(self, tmp_path):
        # after the typo, keys of removed settings that never changed an output
        for text in ("[geometry]\naltitude = 1\n",
                     "[optical]\ncn2 = 1e-13\n",
                     "[optical]\nrytov_variance = 1.0\n",
                     "[optical]\nbaseline_visibility = 0.9\n",
                     "[optical]\nphase_variance = 0.5\n",
                     "[ris]\nris_offset_phase_seed = 3\n"):
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(self._write(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self._write(tmp_path, "[orbit]\nx = 1\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self._write(tmp_path, "[geometry]\nsat_altitude_km = tall\n"))

    def test_invalid_domain_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self._write(tmp_path, "[rf]\ncarrier_ghz = 9.0\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    @pytest.mark.parametrize("raw", ["0,1.5", "0:3:1.5", "inf"])
    def test_non_integer_list_item_rejected(self, tmp_path, raw):
        with pytest.raises(ConfigError):
            load_config(self._write(tmp_path, f"[sweep]\nris_sizes = {raw}\n"))

    def test_bad_run_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self._write(tmp_path, "[run]\nseed = abc\n"))


class TestCsvOutput:
    def test_byte_identical_without_timestamp(self, run_config, calibrated,
                                              sweep_result, tmp_path):
        cal = calibrated["cal"]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_sweep_csv(p1, run_config, cal, sweep_result["rows"], with_timestamp=False)
        write_sweep_csv(p2, run_config, cal, sweep_result["rows"], with_timestamp=False)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_timestamp_suppression(self, run_config, calibrated, sweep_result, tmp_path):
        cal = calibrated["cal"]
        path = str(tmp_path / "t.csv")
        write_sweep_csv(path, run_config, cal, sweep_result["rows"], with_timestamp=True)
        assert any(line.startswith("# timestamp:")
                   for line in open(path).read().splitlines())
        write_sweep_csv(path, run_config, cal, sweep_result["rows"], with_timestamp=False)
        assert not any(line.startswith("# timestamp:")
                       for line in open(path).read().splitlines())

    def test_default_csv_digests(self, run_config, calibrated, sweep_result, tmp_path):
        # the default seed-1 CSVs, written in process and by
        # scripts/reproduce_results.py, whose files keep their timestamp line; a
        # change that alters them on purpose updates these digests and records
        # the old and new values
        cal = calibrated["cal"]
        write_sweep_csv(str(tmp_path / "sweep.csv"), run_config, cal, sweep_result["rows"],
                        with_timestamp=False)
        write_histogram_csv(str(tmp_path / "histogram.csv"), run_config, cal,
                            phase_histogram(run_config, cal), with_timestamp=False)
        scripts = Path(__file__).parents[1] / "scripts"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(experiments.__file__).parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        subprocess.run([sys.executable, str(scripts / "reproduce_results.py"),
                        "--out", str(tmp_path / "script")], env=env, check=True,
                       capture_output=True)
        for out in (tmp_path, tmp_path / "script"):
            digest = {}
            for name in ("sweep.csv", "histogram.csv"):
                lines = (out / name).read_bytes().splitlines(keepends=True)
                body = b"".join(line for line in lines if not line.startswith(b"# timestamp:"))
                digest[name] = hashlib.sha256(body).hexdigest()
            assert digest["sweep.csv"] == ("12701dbc55cc3225d12d15f5d19437ee"
                                           "820dca7603f2d0e51ff2c3df1e962732")
            assert digest["histogram.csv"] == ("633c977bafcc228cb2a860541fea2960"
                                               "574f14b7984908bb79df393015f572dc")
        # the benchmark harness of record imports and parses its options
        subprocess.run([sys.executable, str(scripts / "bench.py"), "--help"], env=env,
                       check=True, capture_output=True)

    def test_no_partial_files_left(self, run_config, calibrated, sweep_result, tmp_path):
        write_sweep_csv(str(tmp_path / "ok.csv"), run_config, calibrated["cal"],
                        sweep_result["rows"], with_timestamp=False)
        assert sorted(os.listdir(tmp_path)) == ["ok.csv"]


# runs sweep, histogram and calibrate through the CLI into argv[1], BCD on the
# objective pickled at argv[2], an anneal and BCD on the (objective, sweeps,
# restarts) pickled at argv[3] and an anneal on the QUBO file argv[4], writes
# calibrate's output and the solver results there too, checks that np.hypot
# rounds as abs(complex) on drawn totals (ExactObjective.exact_terms relies on
# it), and prints whether numpy dispatches to AVX2 (x86-64-v3) kernels
_DISPATCH_CHILD = """
import contextlib, pickle, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from dualris.cli import run_cli
from dualris.qubo import QuadraticObjective, load_qubo
from dualris.solvers import SolverConfig, band_sweep, block_coordinate_descent, simulated_annealing


def write_result(name, result):
    with open(out + "/" + name, "w") as fh:
        fh.write(repr((result.best_bits.tolist(), float(result.best_value).hex(),
                       result.evaluations, [(e, float(v).hex()) for e, v in result.trace])))


out = sys.argv[1]
with open(out + "/run.ini", "w") as fh:
    fh.write("[run]\\noutput_dir = " + out + "\\n")
for argv in (["sweep", "--no-timestamp"], ["histogram", "--no-timestamp"]):
    assert run_cli(["--config", out + "/run.ini", *argv]) == 0
with open(out + "/calibrate.txt", "w") as fh, contextlib.redirect_stdout(fh):
    assert run_cli(["--config", out + "/run.ini", "calibrate"]) == 0
with open(sys.argv[2], "rb") as fh:
    obj = pickle.load(fh)
write_result("bcd.txt", block_coordinate_descent(obj, SolverConfig(kind="bcd", max_iters=50)))
with open(sys.argv[3], "rb") as fh:
    exact, sweeps, restarts = pickle.load(fh)
write_result("anneal_exact.txt", simulated_annealing(exact, exact.dim, SolverConfig(
    kind="anneal", seed=1, max_iters=sweeps, restarts=restarts)))
write_result("bcd_exact.txt", block_coordinate_descent(exact, SolverConfig(kind="bcd")))
rng = np.random.default_rng(5)
re, im = rng.standard_normal((2, 200000)) * 10.0 ** rng.uniform(-150, 150, (2, 200000))
assert np.hypot(re, im).tolist() == [abs(complex(a, b))
                                     for a, b in zip(re.tolist(), im.tolist())]
with open(out + "/band_sweep.txt", "w") as fh:     # bits only: best_value is numpy's product
    fh.write(repr([band_sweep(o).best_bits.tolist() for o in (obj, exact)]))
model = load_qubo(sys.argv[4])
write_result("anneal_quadratic.txt", simulated_annealing(
    QuadraticObjective(model), model.dim, SolverConfig(kind="anneal", seed=1, max_iters=20,
                                                       restarts=1)))
print(__cpu_features__["X86_V3"])
"""


def _float_keys() -> list[tuple[str, str]]:
    """(section, key) of every config field that holds floats."""
    keys = []
    for section, cls in cli._SECTION_TYPES.items():
        hints = typing.get_type_hints(cls)
        keys += [(section, f.name) for f in dataclasses.fields(cls)
                 if float in (hints[f.name], *typing.get_args(hints[f.name]))]
    return keys


class TestCli:
    def test_link_budget_runs(self, capsys):
        assert run_cli(["link-budget", "--elevation", "90", "--n", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "snr_db" in out
        assert "min_qber:" in out and "below 0.11" in out

    def test_calibrate_prints_constants(self, capsys):
        assert run_cli(["calibrate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "raw_rate_scale" in out and "rf_gain_offset_db" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[geometry]\nheight = 1\n")
        assert run_cli(["--config", str(bad), "calibrate"]) == EXIT_CONFIG

    def test_calibration_failure_exit_code(self, tmp_path):
        # a torrential default rain rate zeroes the RF channel: anchor unreachable
        cfg = tmp_path / "wet.ini"
        cfg.write_text("[rf]\nrain_rate_mm_h = 1e9\n")
        assert run_cli(["--config", str(cfg), "calibrate"]) == EXIT_CALIBRATION

    def test_optimize_infeasible_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "fast.ini"
        cfg.write_text("[ris]\nn_elements = 4\n")
        assert run_cli(["--config", str(cfg), "optimize", "--elevation", "45",
                        "--n", "4", "--att", "1e-5"]) == EXIT_INFEASIBLE
        # the default exact solver proves it: even the best QBER is above 11 %
        err = capsys.readouterr().err
        assert "minimum achievable QBER" in err and "(margin -" in err

    def test_histogram_infeasible_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "dim.ini"
        cfg.write_text("[ris]\nn_elements = 4\n[sweep]\nattenuation_levels = 1.0,1e-5\n"
                       f"[run]\noutput_dir = {tmp_path}\n")
        assert run_cli(["--config", str(cfg), "histogram", "--no-timestamp"]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "att=1e-05" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["dim.ini"]

    @pytest.mark.parametrize("solver", ["kind = tabu\nmax_iters = 2",
                                        "kind = anneal\nobjective = quadratic\nmax_iters = 0"])
    def test_short_heuristic_falls_back_to_the_optimum(self, tmp_path, capsys, solver):
        # two tabu moves, or the random start of zero anneal sweeps, end above
        # 11 %, though the optimum (QBER 0.101089) is below it: the printed
        # QBER is the optimum's, so the fallback ran
        cfg = tmp_path / "short.ini"
        cfg.write_text(f"[solver]\n{solver}\nrestarts = 1\nseed = 1\n")
        assert run_cli(["--config", str(cfg), "optimize", "--elevation", "45",
                        "--n", "64", "--att", "0.006133"]) == EXIT_OK
        qber = float(re.search(r"\bqber: ([0-9.]+)", capsys.readouterr().out).group(1))
        assert qber == 0.101089

    def test_link_budget_builds_its_point_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_channel_state(*args, **kwargs)

        for module in ("dualris.experiments", "dualris.cli"):
            monkeypatch.setattr(f"{module}.build_channel_state", counted)
        assert run_cli(["calibrate"]) == EXIT_OK
        calibrate_calls = len(calls)
        calls.clear()
        assert run_cli(["link-budget", "--elevation", "45", "--n", "256"]) == EXIT_OK
        assert len(calls) == calibrate_calls + 1

    def test_optimize_feasible(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "small.ini"
        cfg.write_text("[ris]\nn_elements = 4\n[solver]\nkind = bcd\n")
        code = run_cli(["--config", str(cfg), "optimize", "--elevation", "45",
                        "--n", "4", "--trace", "trace.csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "x*:" in out
        assert "min_qber:" in out
        assert (tmp_path / "trace.csv").exists()

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "quick.ini"
        cfg.write_text("[sweep]\nelevations_deg = 20,80\nris_sizes = 0,8\n"
                       f"[run]\noutput_dir = {tmp_path}\n")
        assert run_cli(["--config", str(cfg), "sweep", "--out", "s.csv",
                        "--no-timestamp"]) == EXIT_OK
        lines = (tmp_path / "s.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("elevation_deg,")
        assert len(data) == 1 + 4

    @pytest.mark.parametrize("argv", [
        ["link-budget", "--elevation", "45", "--att", "-1"],
        ["link-budget", "--elevation", "0"],
        ["link-budget", "--elevation", "nan"],
        ["link-budget", "--elevation", "45", "--n", "-3"],
        ["qubo-export", "--n", "-1"],
    ])
    def test_bad_numbers_exit_config(self, argv, capsys):
        assert run_cli(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert argv[-2] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ini,argv", [
        ("", ["link-budget", "--elevation", "45", "--n", str(10**15)]),
        ("", ["optimize", "--elevation", "45", "--n", str(10**15)]),
        (f"[ris]\nn_elements = {10**15}\n", ["histogram", "--no-timestamp"]),
    ], ids=["link-budget", "optimize", "histogram"])
    def test_unallocatable_element_count_exits_config(self, tmp_path, capsys, ini, argv):
        # the first array of N = 10^15 floats needs 7.11 PiB, beyond a process's
        # address space, so numpy refuses it at once without touching memory
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        assert run_cli(["--config", str(cfg), *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate 7.11 PiB")
        assert err.count("\n") == 1

    HUGE_BETA = "[weights]\nalpha = 1\nbeta = 1e308\n[solver]\nkind = tabu\nobjective = quadratic\n"
    HUGE_EXACT_BETA = "[weights]\nalpha = 1\nbeta = 1e308\n[solver]\nkind = anneal\n"

    @pytest.mark.parametrize("argv", [["optimize", "--elevation", "20", "--n", "8"],
                                      ["qubo-export", "--n", "4"], ["calibrate"]])
    def test_overflowing_cascade_prints_one_line(self, tmp_path, argv):
        # a 5e-324 km ground segment overflows the cascade gains; four lines
        # of numpy RuntimeWarning came before the config error, so the CLI
        # runs in its own process, where stderr holds every line it prints
        cfg = tmp_path / "near.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n[ris]\nris_to_ground_km = 5e-324\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(experiments.__file__).parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-m", "dualris.cli", "--config", str(cfg),
                              *argv], env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_CONFIG
        assert run.stderr.startswith("config error: the RIS cascade gains are not finite")
        assert run.stderr.count("\n") == 1
        assert os.listdir(tmp_path) == ["near.ini"]

    @pytest.mark.parametrize("ini,argv", [
        ("[sweep]\nris_sizes = 0,1.5\n", ["sweep"]),
        ("[sweep]\nris_sizes = 0:3:1.5\n", ["sweep"]),
        ("[ris]\nn_elements = 0\n", ["histogram"]),
        ("[ris]\nbits_quantum = 3\n", ["histogram"]),
        ("[sweep]\nelevations_deg = 10:inf:5\n", ["sweep"]),
        ("[sweep]\nelevations_deg = 0:1e12:1\n", ["sweep"]),
        ("[sweep]\nris_sizes = 0,-1\n", ["sweep"]),
        ("[sweep]\nattenuation_levels = 1.0,-0.5\n", ["histogram"]),
        ("[sweep]\nattenuation_levels = 1.0,inf\n", ["histogram"]),
        ("[sweep]\nattenuation_levels = 1.0,0\n", ["histogram"]),
        ("[solver]\nrestarts = 0\n", ["sweep"]),
        ("[solver]\nmax_iters = -1\n", ["sweep"]),
        ("seed = -1\n", ["sweep"]),            # no header: stays in [run]
        ("[solver]\nkind = anneal\nseed = -1\n", ["sweep"]),
        # keys of removed settings, at the one value every run used
        ("[solver]\ninitial_temp = none\n", ["sweep"]),
        ("[solver]\ncooling_rate = 0.97\n", ["sweep"]),
        ("[sweep]\ntrials = 1\n", ["sweep"]),
        ("[solver]\nkind = brute\n", ["sweep"]),
        ("[solver]\nkind = brute\n", ["optimize", "--elevation", "45", "--n", "10"]),
        # files the INI parser itself rejects; bytes are the whole file
        ("[run]\nseed = 1\n", ["calibrate"]),
        ("seed = 1\nseed = 2\n", ["calibrate"]),
        (b"seed = 1\n", ["calibrate"]),
        ("seed 1\n", ["calibrate"]),
        (b"\xff\xfe[run]\nseed = 1\n", ["calibrate"]),
        ("[sweep]\ntrials = 5%\n", ["calibrate"]),
        # values the physics would only reject deep inside calibration
        ("[optical]\nbeam_divergence_rad = 0\n", ["calibrate"]),
        ("[optical]\nrx_aperture_m = -1\n", ["calibrate"]),
        ("[optical]\njitter_rad = -1e-6\n", ["calibrate"]),
        ("[weights]\nsnr_target = -5\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        ("[weights]\nmode = swing\nbeta_o = -0.01\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        ("[weights]\nalpha = 7\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        # the sweep pairs each elevation's rows with its leading N = 0 row
        ("[sweep]\nris_sizes = 128,0\n", ["sweep"]),
        ("[sweep]\nris_sizes = 128\n", ["sweep"]),
        # 0 divided by zero in the cascade; -1 ran as +1 through its square
        ("[ris]\nris_to_ground_km = 0\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        ("[ris]\nris_to_ground_km = -1\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        # tables of 2^bits levels per element: 30 ran out of memory, 62 was too big
        ("[ris]\nbits_quantum = 30\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        ("[ris]\nbits_quantum = 62\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        ("[ris]\nbits_classical = 30\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        # the surrogate's offset overflows: optimize ended in a traceback, and
        # qubo-export wrote a header offset of nan
        (HUGE_BETA, ["optimize", "--elevation", "45", "--n", "4"]),
        (HUGE_BETA, ["qubo-export", "--n", "4"]),
        # every exact cost is -inf, so no solver can rank them: optimize and
        # link-budget printed cost: -inf, and sweep and histogram wrote files
        (HUGE_EXACT_BETA, ["optimize", "--elevation", "45", "--n", "4"]),
        (HUGE_EXACT_BETA, ["link-budget", "--elevation", "45", "--n", "4"]),
        (HUGE_EXACT_BETA, ["sweep"]),
        (HUGE_EXACT_BETA, ["histogram"]),
        (HUGE_EXACT_BETA, ["calibrate"]),      # its fits solve points with these weights
        # log2(1 + snr_target) is 0, and the static weights divided by it
        ("[weights]\nsnr_target = 1e-300\n", ["optimize", "--elevation", "20", "--n", "8"]),
        ("[weights]\nsnr_target = 5e-324\n", ["optimize", "--elevation", "20", "--n", "8"]),
        ("[weights]\nsnr_target = 1e-17\n", ["link-budget", "--elevation", "45", "--n", "8"]),
        ("[weights]\nmode = swing\nsnr_target = 1e-300\n", ["calibrate"]),
        # divisors that underflow to 0 divided by zero: k_B T B in snr, and the
        # squares in the optical antenna gains
        *[(f"[{section}]\n{key} = {raw}\n", ["link-budget", "--elevation", "45", "--n", "16"])
          for section, key, raws in (("rf", "sys_temp_k", ("5e-324",)),
                                     ("rf", "bandwidth_hz", ("5e-324",)),
                                     ("optical", "wavelength_m", ("1e-300", "5e-324")),
                                     ("optical", "beam_divergence_rad", ("1e-300", "5e-324")))
          for raw in raws],
        # optical gains that are not finite and > 0: the product of the two
        # antenna gains, one of them or the mean pointing gain; each raised
        # OverflowError, a math domain error or failed the QBER's range check
        *[(f"[optical]\n{key} = {raw}\n", ["link-budget", "--elevation", "45", "--n", "16"])
          for key, raws in (("wavelength_m", ("1e-150", "1e-160", "1e300")),
                            ("beam_divergence_rad", ("1e-150", "1e300")),
                            ("rx_aperture_m", ("1e300", "1e-300")),
                            ("jitter_rad", ("1e300",)))
          for raw in raws],
    ])
    def test_boundary_config_exits_config(self, tmp_path, capsys, ini, argv):
        cfg = tmp_path / "edge.ini"
        if isinstance(ini, bytes):
            cfg.write_bytes(ini)
        else:
            cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n" + ini)
        assert run_cli(["--config", str(cfg)] + argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["edge.ini"]

    # each ended in a traceback: the link model overflowed (OverflowError, or
    # an RF amplitude whose square is inf) or took the phase of an infinite
    # ratio (math domain error), or calibration step 2 divided by, or took the
    # log10 of, an optical power of 0 or a power whose reference bracket underflows
    @pytest.mark.parametrize("section,key,raw,code", [
        *[(section, key, raw, EXIT_CONFIG)
          for section, key, raws in (("geometry", "earth_radius_km", ("1e300", "1.7e308")),
                                     ("geometry", "sat_altitude_km", ("1e300", "1.7e308")),
                                     ("rf", "wavelength_m", ("1e300", "1.7e308", "5e-324")),
                                     ("rf", "ref_freq_ghz", ("1e300", "1.7e308")),
                                     ("rf", "rain_rate_mm_h", ("1e300", "1.7e308")))
          for raw in raws],
        *[("optical", key, raw, EXIT_CALIBRATION)
          for key, raws in (("atten_per_km", ("100", "1000", "1e300")),
                            ("beam_divergence_rad", ("1e150",)),
                            ("rx_aperture_m", ("1e-160",)))
          for raw in raws],
    ])
    def test_link_model_failure_exits_with_one_line(self, tmp_path, capsys, section, key,
                                                    raw, code):
        cfg = tmp_path / "edge.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n[{section}]\n{key} = {raw}\n")
        argv = ["--config", str(cfg), "link-budget", "--elevation", "45", "--n", "16"]
        assert run_cli(argv) == code
        err = capsys.readouterr().err
        prefix = "config error: the link model" if code == EXIT_CONFIG else \
            "calibration failed: baseline optical channel power"
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["edge.ini"]

    # every value the removed settings once parsed or refused: the optional
    # float's none and 2.5, the out-of-range temperatures, the non-finite
    # floats, and a two-trial and a negative sweep
    @pytest.mark.parametrize("section,key,raw", [
        *[("solver", "initial_temp", raw)
          for raw in ("none", "2.5", "0", "-5", "nan", "inf", "-inf")],
        *[("solver", "cooling_rate", raw) for raw in ("nan", "inf", "-inf")],
        ("sweep", "trials", "2"),
        ("sweep", "trials", "-3"),
    ])
    def test_removed_key_exits_config(self, tmp_path, capsys, section, key, raw):
        cfg = tmp_path / "edge.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n[{section}]\n{key} = {raw}\n")
        assert run_cli(["--config", str(cfg), "sweep"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: unknown key {key!r} in [{section}]\n"
        assert os.listdir(tmp_path) == ["edge.ini"]

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", _float_keys())
    def test_non_finite_float_exits_config(self, tmp_path, capsys, section, key, raw):
        # before the rule, some of these ran on and printed cost nan or -inf,
        # or fell back to the default weights without a word
        self.test_boundary_config_exits_config(
            tmp_path, capsys, f"[{section}]\n{key} = {raw}\n",
            ["link-budget", "--elevation", "45", "--n", "8"])

    QUADRATIC = "[solver]\nkind = anneal\nobjective = quadratic\n"

    @pytest.mark.parametrize("ini,argv", [
        ("", ["qubo-export", "--n", "4096"]),
        ("[ris]\nbits_classical = 4\n", ["qubo-export", "--n", "1024"]),
        (QUADRATIC, ["optimize", "--elevation", "45", "--n", "2048"]),
        (QUADRATIC, ["link-budget", "--elevation", "45", "--n", "2048"]),
        (QUADRATIC + "[sweep]\nris_sizes = 0,2048\n", ["sweep"]),
        (QUADRATIC + "[ris]\nn_elements = 2048\n", ["histogram"]),
    ])
    def test_qubo_pair_cap_exits_config(self, tmp_path, capsys, monkeypatch, ini, argv):
        # refused from (N, b_Q, b_C) alone: neither calibration nor the build runs
        def unreachable(*args, **kwargs):
            raise AssertionError("the pair cap must refuse before this call")

        for name in ("calibrate", "build_qubo"):
            monkeypatch.setattr(f"dualris.cli.{name}", unreachable)
        monkeypatch.setattr("dualris.experiments.build_qubo", unreachable)
        cfg = tmp_path / "big.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n" + ini)
        assert run_cli(["--config", str(cfg)] + argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: the QUBO surrogate refuses")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == ["big.ini"]

    @pytest.mark.parametrize("objective,command,n,refused", [
        ("quadratic", "qubo-export", 1024, False),     # 4.2M pairs fit under the cap
        ("quadratic", "optimize", 1024, False),
        ("exact", "optimize", 4096, False),            # no QUBO is built
        ("exact", "calibrate", 4096, False),
        ("exact", "qubo-export", 2048, True),
    ])
    def test_qubo_pair_cap_boundary(self, objective, command, n, refused):
        cfg = RunConfig(solver=SolverConfig(kind="anneal", objective=objective))
        assert (cli._size_problem(cfg, command, n) is not None) == refused

    def test_qubo_export_roundtrip(self, tmp_path):
        cfg = tmp_path / "q.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n")
        assert run_cli(["--config", str(cfg), "qubo-export", "--n", "2",
                        "--out", "m.qubo"]) == EXIT_OK
        model = load_qubo(str(tmp_path / "m.qubo"))
        assert model.dim == 8

    def test_qubo_export_bytes(self, tmp_path, capsys):
        # the default seed-1 export; the file format and build are byte-stable,
        # also across numpy dispatch levels (see test_qubo.py,
        # test_same_exports_and_loads_under_pre_avx2_dispatch)
        cfg = tmp_path / "q.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n")
        assert run_cli(["--config", str(cfg), "qubo-export", "--n", "20",
                        "--out", "m.qubo"]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "m.qubo").read_bytes()).hexdigest()
        assert digest == "42755a3e46df050fc9cdb948315de81f353ec2e401ce7327a502750f4ad299f8"

    def test_same_csvs_and_bcd_under_pre_avx2_dispatch(self, tmp_path, model_n64):
        # the pinned CSVs, calibrate's output and coordinate descent do not
        # depend on numpy's SIMD kernels; BCD on this instance did while its
        # candidate table was numpy's complex product, nor does it at the
        # solve workload's (45 deg, N = 4096) state, whose first sweep scores
        # its blocks exactly (np.hypot, math.log2). Nor did two anneals: the
        # exact walk at that state and the quadratic walk on the N = 64
        # model. Their start temperatures differ by ulps (numpy's log2 and
        # sum), so this holds on this data.
        # Nor did the band sweep's bits at both states, though np.angle's
        # breakpoints may differ by ulps and argsort is another algorithm
        from numpy._core._multiarray_umath import __cpu_features__
        if "X86_V3" not in __cpu_features__:
            pytest.skip("x86-64 dispatch levels only")
        obj, _ = random_instance(4, 430, bits=(2, 3))
        with open(tmp_path / "obj.pkl", "wb") as fh:
            pickle.dump(obj, fh)
        cfg, cal = RunConfig(seed=workloads.STATE_SEED), workloads.pinned_calibration()
        state, ris_cfg, _ = build_channel_state(cfg, cal, 45.0, 4096)
        exact = ExactObjective(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        with open(tmp_path / "exact.pkl", "wb") as fh:
            pickle.dump((exact, *workloads.ANNEAL_BUDGET[4096]), fh)
        for level in ("X86_V2", None):
            (tmp_path / str(level)).mkdir()
            has_avx2 = run_child(_DISPATCH_CHILD, level, tmp_path / str(level),
                                 tmp_path / "obj.pkl", tmp_path / "exact.pkl", model_n64[1])
            if level:              # the variable took effect: no AVX2 kernels in this child
                assert has_avx2 == "False"
        for name in ("sweep.csv", "histogram.csv", "calibrate.txt", "bcd.txt",
                     "anneal_exact.txt", "bcd_exact.txt", "anneal_quadratic.txt",
                     "band_sweep.txt"):
            files = [tmp_path / str(level) / name for level in ("X86_V2", None)]
            assert files[0].read_bytes() == files[1].read_bytes(), name

    @pytest.mark.parametrize("argv", [
        ["qubo-export", "--n", "4", "--out", "."],
        ["calibrate", "--out", "blocker/c.txt"],
    ])
    def test_unwritable_output_exits_config(self, tmp_path, capsys, argv):
        # '.' names the output directory itself; 'blocker' is a plain file
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "blocker").write_text("")
        cfg = tmp_path / "w.ini"
        cfg.write_text(f"[run]\noutput_dir = {out_dir}\n")
        assert run_cli(["--config", str(cfg)] + argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        path = os.path.join(str(out_dir), argv[-1])
        assert err.startswith(f"output error: cannot write {path}:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["out", "w.ini"]
        assert os.listdir(out_dir) == ["blocker"]
