import hashlib
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    RunConfig,
    SweepSpec,
    build_channel_state,
    delta_metrics,
    derived_seed,
    evaluate_point,
    phase_histogram,
    solve_point,
    sweep_elevation,
)
from dualris.metrics import Calibration
from dualris.qubo import load_qubo
from dualris.ris import RisConfig
from dualris.solvers import SolverConfig


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

    def test_delta_requires_baseline(self, sweep_result):
        ris_only = [r for r in sweep_result["rows"] if r.n_elements > 0]
        with pytest.raises(ValueError):
            delta_metrics(ris_only)

    def test_trials_emit_independent_blocks(self, calibrated):
        cfg = RunConfig(sweep=SweepSpec(elevations_deg=(45.0,), ris_sizes=(0, 8),
                                        trials=2))
        rows = sweep_elevation(cfg, calibrated["cal"])
        assert len(rows) == 4
        assert [r.n_elements for r in rows] == [0, 8, 0, 8]
        # distinct trial seeds give distinct cascade draws, baselines agree
        assert rows[0] == rows[2]
        assert rows[1] != rows[3]
        deltas = delta_metrics(rows)
        assert all(d.dqber_pp > 0 for d in deltas if d.n_elements > 0)

    def test_point_with_quadratic_proposals_rescores_exactly(self, run_config, calibrated):
        cfg = RunConfig(solver=SolverConfig(kind="anneal", seed=3, max_iters=40,
                                            restarts=1, objective="quadratic"),
                        sweep=run_config.sweep)
        row, result, _ = evaluate_point(cfg, calibrated["cal"], 45.0, 4)
        assert result is not None
        assert row.feasible


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

    @pytest.mark.parametrize("raw,expected", [("none", None), ("2.5", 2.5)])
    def test_optional_float_field(self, tmp_path, raw, expected):
        cfg = load_config(self._write(tmp_path, f"[solver]\ninitial_temp = {raw}\n"))
        assert cfg.solver.initial_temp == expected

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
        # the default seed-1 CSVs; a change that alters them on purpose updates
        # these digests and records the old and new values
        cal = calibrated["cal"]
        sweep, hist = str(tmp_path / "sweep.csv"), str(tmp_path / "histogram.csv")
        write_sweep_csv(sweep, run_config, cal, sweep_result["rows"], with_timestamp=False)
        write_histogram_csv(hist, run_config, cal, phase_histogram(run_config, cal),
                            with_timestamp=False)
        digest = {p: hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (sweep, hist)}
        assert digest[sweep] == ("f72476dbe1702a35db6845b001579db9"
                                 "1843bf21e840bc3b3ac39bdb3d1c914e")
        assert digest[hist] == ("633c977bafcc228cb2a860541fea2960"
                                "574f14b7984908bb79df393015f572dc")

    def test_no_partial_files_left(self, run_config, calibrated, sweep_result, tmp_path):
        write_sweep_csv(str(tmp_path / "ok.csv"), run_config, calibrated["cal"],
                        sweep_result["rows"], with_timestamp=False)
        assert sorted(os.listdir(tmp_path)) == ["ok.csv"]


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

    @pytest.mark.parametrize("solver", ["kind = tabu", "kind = anneal\nobjective = quadratic"])
    def test_short_heuristic_falls_back_to_the_optimum(self, tmp_path, capsys, solver):
        # two moves from a random start end above 11 %, though the optimum
        # (QBER 0.101089) is below it
        cfg = tmp_path / "short.ini"
        cfg.write_text(f"[solver]\n{solver}\nmax_iters = 2\nrestarts = 1\nseed = 1\n")
        assert run_cli(["--config", str(cfg), "optimize", "--elevation", "45",
                        "--n", "64", "--att", "0.006133"]) == EXIT_OK
        qber = float(re.search(r"\bqber: ([0-9.]+)", capsys.readouterr().out).group(1))
        assert qber <= 0.11

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
        ("[sweep]\nris_sizes = 0,1.5\n", ["sweep"]),
        ("[sweep]\nris_sizes = 0:3:1.5\n", ["sweep"]),
        ("[ris]\nn_elements = 0\n", ["histogram"]),
        ("[ris]\nbits_quantum = 3\n", ["histogram"]),
        ("[sweep]\nelevations_deg = 10:inf:5\n", ["sweep"]),
        ("[sweep]\nelevations_deg = 0:1e12:1\n", ["sweep"]),
        ("[sweep]\nris_sizes = 0,-1\n", ["sweep"]),
        ("[sweep]\ntrials = -3\n", ["sweep"]),
        ("[sweep]\nattenuation_levels = 1.0,-0.5\n", ["histogram"]),
        ("[sweep]\nattenuation_levels = 1.0,inf\n", ["histogram"]),
        ("[sweep]\nattenuation_levels = 1.0,0\n", ["histogram"]),
        ("[solver]\nrestarts = 0\n", ["sweep"]),
        ("[solver]\nmax_iters = -1\n", ["sweep"]),
        ("seed = -1\n", ["sweep"]),            # no header: stays in [run]
        ("[solver]\nkind = anneal\nseed = -1\n", ["sweep"]),
        ("[solver]\ninitial_temp = 0\n", ["sweep"]),
        ("[solver]\ninitial_temp = -5\n", ["sweep"]),
        ("[solver]\ninitial_temp = nan\n", ["sweep"]),
        ("[solver]\nkind = brute\n", ["sweep"]),
        ("[solver]\nkind = brute\n", ["optimize", "--elevation", "45", "--n", "10"]),
        # files the INI parser itself rejects; bytes are the whole file
        ("[run]\nseed = 1\n", ["calibrate"]),
        ("seed = 1\nseed = 2\n", ["calibrate"]),
        (b"seed = 1\n", ["calibrate"]),
        ("seed 1\n", ["calibrate"]),
        (b"\xff\xfe[run]\nseed = 1\n", ["calibrate"]),
        ("[sweep]\ntrials = 5%\n", ["calibrate"]),
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

    def test_qubo_export_roundtrip(self, tmp_path):
        cfg = tmp_path / "q.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n")
        assert run_cli(["--config", str(cfg), "qubo-export", "--n", "2",
                        "--out", "m.qubo"]) == EXIT_OK
        model = load_qubo(str(tmp_path / "m.qubo"))
        assert model.dim == 8

    def test_qubo_export_bytes(self, tmp_path, capsys):
        # the default seed-1 export; the file format and build are byte-stable
        cfg = tmp_path / "q.ini"
        cfg.write_text(f"[run]\noutput_dir = {tmp_path}\n")
        assert run_cli(["--config", str(cfg), "qubo-export", "--n", "20",
                        "--out", "m.qubo"]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "m.qubo").read_bytes()).hexdigest()
        assert digest == "a541cb490e996a93dcb2b3a5ce00346de5408c80a158caf95fd2d19633c25685"

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
