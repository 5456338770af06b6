import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.metrics import BOLTZMANN, Calibration, CostWeights
from dualris.qubo import (
    ExactObjective,
    QuadraticObjective,
    QuboModel,
    build_qubo,
    eval_exact,
    eval_quadratic,
    expansion_error,
    export_qubo,
    load_qubo,
)
from dualris.ris import ChannelState, RisConfig, bits_to_levels, decode_phases
from dualris.solvers import brute_force

OPT = OpticalParams()
RF = RfParams()


def snr_offset_db(target_snr=100.0):
    noise = BOLTZMANN * RF.sys_temp_k * RF.bandwidth_hz
    return 10 * math.log10(target_snr * noise / RF.tx_power_w)


def make_instance(seed=0, n=3, bq=2, bc=2, amp=0.25, psi_spread=2 * math.pi):
    """Synthetic channel state with O(1) direct gains and O(amp) cascades."""
    rng = np.random.default_rng(seed)
    cfg = RisConfig(n_elements=n, bits_quantum=bq, bits_classical=bc)
    direct_q = ComplexGain(1.0, rng.uniform(0, 2 * math.pi))
    direct_c = ComplexGain(1.0, rng.uniform(0, 2 * math.pi))
    psi_q = direct_q.phase_rad + rng.uniform(-psi_spread / 2, psi_spread / 2, n)
    psi_c = direct_c.phase_rad + rng.uniform(-psi_spread / 2, psi_spread / 2, n)
    state = ChannelState(direct_q, direct_c,
                         amp * rng.uniform(0.5, 1.0, n) * np.exp(1j * psi_q),
                         amp * rng.uniform(0.5, 1.0, n) * np.exp(1j * psi_c))
    cal = Calibration(raw_rate_scale=1000.0, effective_visibility=0.98,
                      h_ref_sq=1.0 / rng.uniform(30, 60),
                      rf_gain_offset_db=snr_offset_db(12.6))
    return state, cal, cfg


class TestEvalQuadratic:
    def test_empty_vector_gives_offset(self):
        model = QuboModel(dim=2, linear=np.zeros(2), pair_i=np.zeros(0, np.int32),
                          pair_j=np.zeros(0, np.int32), pair_w=np.zeros(0), offset=3.5)
        assert eval_quadratic(model, np.zeros(2, np.uint8)) == 3.5

    def test_pair_and_linear(self):
        # full pair coefficient -2 with unit linear terms: F(1,1) = 1 + 1 - 2
        model = QuboModel(dim=2, linear=np.array([1.0, 1.0]),
                          pair_i=np.array([0], np.int32), pair_j=np.array([1], np.int32),
                          pair_w=np.array([-2.0]), offset=0.0)
        assert eval_quadratic(model, np.array([1, 1], np.uint8)) == 0.0
        assert eval_quadratic(model, np.array([1, 0], np.uint8)) == 1.0

    def test_single_variable(self):
        model = QuboModel(dim=1, linear=np.array([3.0]), pair_i=np.zeros(0, np.int32),
                          pair_j=np.zeros(0, np.int32), pair_w=np.zeros(0), offset=0.25)
        assert eval_quadratic(model, np.array([1], np.uint8)) == 3.25

    def test_length_check(self):
        model = QuboModel(dim=2, linear=np.zeros(2), pair_i=np.zeros(0, np.int32),
                          pair_j=np.zeros(0, np.int32), pair_w=np.zeros(0), offset=0.0)
        with pytest.raises(ValueError):
            eval_quadratic(model, np.zeros(3, np.uint8))


class TestBuildQubo:
    def test_no_elements_is_pure_offset(self):
        state, cal, _ = make_instance(n=1)
        cfg0 = RisConfig(n_elements=0)
        state0 = ChannelState(state.direct_quantum, state.direct_classical)
        model = build_qubo(state0, CostWeights(), cal, OPT, RF, cfg0)
        assert model.dim == 0
        assert model.pair_w.size == 0
        baseline = eval_exact(state0, CostWeights(), cal, OPT, RF, cfg0,
                              np.zeros(0, np.uint8))
        assert model.offset == pytest.approx(baseline, rel=1e-12)

    def test_zero_cascades_have_no_phase_influence(self):
        state, cal, cfg = make_instance(n=2)
        silent = ChannelState(state.direct_quantum, state.direct_classical,
                              np.zeros(2, complex), np.zeros(2, complex))
        model = build_qubo(silent, CostWeights(), cal, OPT, RF, cfg)
        assert not model.pair_w.size
        assert not model.linear.any()
        baseline = eval_exact(silent, CostWeights(), cal, OPT, RF, cfg,
                              np.zeros(cfg.bits_total, np.uint8))
        assert model.offset == pytest.approx(baseline, rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 10**6))
    @example(3, 3, 3, 0)
    def test_matches_independent_taylor_expansion(self, n, bq, bc, seed):
        # recompute the surrogate from the raw pairwise cosine Taylor formulas
        # about a random expansion point and compare on every bit vector
        state, cal, cfg = make_instance(seed=seed, n=n, bq=bq, bc=bc)
        w = CostWeights()
        obj = ExactObjective(state, w, cal, OPT, RF, cfg)
        x0 = np.random.default_rng(seed).integers(0, 2, cfg.bits_total, dtype=np.uint8)
        point = decode_phases(x0, cfg)
        model = build_qubo(state, w, cal, OPT, RF, cfg, expansion_point=point)

        def taylor_band_power(h0, u, phases0, phases):
            # sum over (a, b) of A_a A_b cos(psi_a - psi_b + d_a - d_b), each
            # cosine to second order in d_a - d_b; one row per phase vector
            z = np.concatenate([[h0], u])
            psi = np.angle(z) + np.concatenate([[0.0], phases0])
            d = np.pad(phases - phases0, ((0, 0), (1, 0)))
            dpsi = psi[:, None] - psi[None, :]
            dd = d[:, :, None] - d[:, None, :]
            terms = np.cos(dpsi) - np.sin(dpsi) * dd - 0.5 * np.cos(dpsi) * dd * dd
            return (np.outer(np.abs(z), np.abs(z)) * terms).sum(axis=(1, 2))

        h0q, h0c = state.direct_quantum.as_complex, state.direct_classical.as_complex
        tq0 = h0q + (state.cascade_quantum * np.exp(1j * point.phases_quantum)).sum()
        tc0 = h0c + (state.cascade_classical * np.exp(1j * point.phases_classical)).sum()
        pq0, pc0 = abs(tq0) ** 2, abs(tc0) ** 2
        deps = -0.5 * (obj.eps_base - obj.p_dark) * obj.direct_amp * pq0 ** -1.5
        gamma0 = obj.snr_coeff * pc0
        dlog = obj.snr_coeff / ((1 + gamma0) * math.log(2))
        f0 = obj.alpha * obj.qber_from_total(math.sqrt(pq0)) - obj.beta * math.log2(1 + gamma0)

        for start in range(0, 1 << cfg.bits_total, 4096):
            codes = np.arange(start, min(start + 4096, 1 << cfg.bits_total))
            xs = ((codes[:, None] >> np.arange(cfg.bits_total)) & 1).astype(np.uint8)
            lq, lc = bits_to_levels(xs, cfg)
            pq = taylor_band_power(h0q, state.cascade_quantum, point.phases_quantum,
                                   (2 * math.pi / (1 << bq)) * lq)
            pcl = taylor_band_power(h0c, state.cascade_classical, point.phases_classical,
                                    (2 * math.pi / (1 << bc)) * lc)
            expected = f0 + obj.alpha * deps * (pq - pq0) - obj.beta * dlog * (pcl - pc0)
            got = QuadraticObjective(model).batch(xs)
            assert np.abs(got - expected).max() <= 1e-15

    def test_pairs_are_the_within_band_upper_triangles(self):
        state, cal, cfg = make_instance(seed=11, n=4, bq=2, bc=3)
        model = build_qubo(state, CostWeights(), cal, OPT, RF, cfg)
        split = cfg.n_elements * cfg.bits_quantum
        iq, jq = np.triu_indices(split, 1)
        ic, jc = np.triu_indices(cfg.bits_total - split, 1)
        assert model.pair_i.dtype == model.pair_j.dtype == np.int32
        assert np.array_equal(model.pair_i, np.concatenate([iq, ic + split]))
        assert np.array_equal(model.pair_j, np.concatenate([jq, jc + split]))
        assert not ((model.pair_i < split) & (model.pair_j >= split)).any()
        assert model.n_elements == cfg.n_elements      # read by perfbench's tracer

    def test_argmin_matches_brute_force(self):
        state, cal, cfg = make_instance(seed=3, n=2, bq=1, bc=1)
        obj = ExactObjective(state, CostWeights(), cal, OPT, RF, cfg)
        oracle = brute_force(obj, cfg.bits_total)
        codes = [np.array([(c >> (3 - i)) & 1 for i in range(4)], np.uint8)
                 for c in range(16)]
        vals = [obj.value(x) for x in codes]
        assert oracle.best_value == pytest.approx(min(vals), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_equals_quadratic_at_expansion_point(self, seed):
        state, cal, cfg = make_instance(seed=seed, n=4)
        w = CostWeights()
        rng = np.random.default_rng(seed)
        x0 = rng.integers(0, 2, cfg.bits_total, dtype=np.uint8)
        point = decode_phases(x0, cfg)
        model = build_qubo(state, w, cal, OPT, RF, cfg, expansion_point=point)
        exact = eval_exact(state, w, cal, OPT, RF, cfg, x0)
        assert eval_quadratic(model, x0) == pytest.approx(exact, rel=1e-9)

    def test_quad_matrix_symmetric_zero_diagonal(self):
        state, cal, cfg = make_instance(seed=5, n=3)
        model = build_qubo(state, CostWeights(), cal, OPT, RF, cfg)
        q = model.quad_matrix()
        assert np.array_equal(q, q.T)
        assert not q.diagonal().any()

    def test_relabeling_invariance(self):
        # permuting elements and inverse-permuting the bits leaves both
        # evaluators unchanged
        state, cal, cfg = make_instance(seed=8, n=4)
        w = CostWeights()
        perm = np.array([2, 0, 3, 1])
        state_p = ChannelState(state.direct_quantum, state.direct_classical,
                               state.cascade_quantum[perm],
                               state.cascade_classical[perm])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 2, cfg.bits_total, dtype=np.uint8)
            xq = x[:cfg.n_elements * cfg.bits_quantum].reshape(cfg.n_elements, -1)
            xc = x[cfg.n_elements * cfg.bits_quantum:].reshape(cfg.n_elements, -1)
            x_p = np.concatenate([xq[perm].ravel(), xc[perm].ravel()])
            assert eval_exact(state_p, w, cal, OPT, RF, cfg, x_p) == pytest.approx(
                eval_exact(state, w, cal, OPT, RF, cfg, x), rel=1e-12)
            model = build_qubo(state, w, cal, OPT, RF, cfg)
            model_p = build_qubo(state_p, w, cal, OPT, RF, cfg)
            assert eval_quadratic(model_p, x_p) == pytest.approx(
                eval_quadratic(model, x), rel=1e-9)


class TestExpansionError:
    def test_zero_for_silent_cascades(self):
        state, cal, cfg = make_instance(n=2)
        silent = ChannelState(state.direct_quantum, state.direct_classical,
                              np.zeros(2, complex), np.zeros(2, complex))
        report = expansion_error(silent, CostWeights(), cal, OPT, RF, cfg,
                                 samples=64, rng_seed=1)
        assert report.max_abs_deviation == pytest.approx(0.0, abs=1e-12)
        assert report.samples == 64

    def test_deterministic_per_seed(self):
        state, cal, cfg = make_instance(seed=2, n=3)
        r1 = expansion_error(state, CostWeights(), cal, OPT, RF, cfg, 128, 9)
        r2 = expansion_error(state, CostWeights(), cal, OPT, RF, cfg, 128, 9)
        assert r1 == r2

    def test_sampled_deviation_bounds_eval_gap(self):
        state, cal, cfg = make_instance(seed=4, n=3)
        w = CostWeights()
        report = expansion_error(state, w, cal, OPT, RF, cfg, 1000, 11)
        model = build_qubo(state, w, cal, OPT, RF, cfg)
        obj = ExactObjective(state, w, cal, OPT, RF, cfg)
        rng = np.random.default_rng(11)
        xs = rng.integers(0, 2, size=(1000, cfg.bits_total), dtype=np.uint8)
        dev = np.abs(QuadraticObjective(model).batch(xs) - obj.batch(xs)) / (
            np.abs(obj.batch(xs)) + 1e-300)
        assert dev.max() == pytest.approx(report.max_abs_deviation, rel=1e-12)


class TestFileRoundTrip:
    def test_export_import_bit_exact(self, tmp_path):
        state, cal, cfg = make_instance(seed=6, n=2)
        model = build_qubo(state, CostWeights(), cal, OPT, RF, cfg)
        path = tmp_path / "model.qubo"
        export_qubo(model, str(path), comments=["roundtrip check"])
        loaded = load_qubo(str(path))
        assert loaded.dim == model.dim
        assert loaded.offset == model.offset
        assert np.array_equal(loaded.linear, model.linear)
        assert np.array_equal(loaded.pair_i, model.pair_i)
        assert np.array_equal(loaded.pair_j, model.pair_j)
        assert np.array_equal(loaded.pair_w, model.pair_w)

    def test_header_format(self, tmp_path):
        state, cal, cfg = make_instance(seed=6, n=2)
        model = build_qubo(state, CostWeights(), cal, OPT, RF, cfg)
        path = tmp_path / "model.qubo"
        export_qubo(model, str(path))
        lines = path.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        parts = header.split()
        assert parts[0] == "qubo"
        assert int(parts[1]) == model.dim
        assert int(parts[2]) == int(np.count_nonzero(model.linear))
        assert int(parts[3]) == len(model.pair_w)

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.qubo"
        bad.write_text("1 1 0.5\n")
        with pytest.raises(ValueError):
            load_qubo(str(bad))

    @pytest.mark.parametrize("body", ["0 0 1.5\n0 0 2.5\n1 2 0.5\n",
                                      "0 0 1.5\n1 2 0.5\n1 2 0.75\n",
                                      "0 0 7.0\n0 1 2.0\nqubo 2 1 1 5.0\n1 1 1.0\n"])
    def test_repeated_lines_rejected(self, tmp_path, body):
        # a repeat keeps the header counts right, so only the repeat check sees it
        path = tmp_path / "repeat.qubo"
        n_quad = body.count("1 2 ")
        path.write_text(f"qubo 3 1 {n_quad} 0.0\n" + body)
        with pytest.raises(ValueError, match="repeated"):
            load_qubo(str(path))


class TestWalkConsistency:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_incremental_flips_match_fresh_evaluation(self, seed):
        state, cal, cfg = make_instance(seed=seed % 17, n=3)
        obj = ExactObjective(state, CostWeights(), cal, OPT, RF, cfg)
        rng = np.random.default_rng(seed)
        walk = obj.walk(rng.integers(0, 2, cfg.bits_total, dtype=np.uint8))
        for _ in range(40):
            i = int(rng.integers(cfg.bits_total))
            peek = walk.peek_flip(i)
            walk.apply_flip(i)
            assert walk.value == pytest.approx(peek, rel=1e-12)
            assert walk.value == pytest.approx(obj.value(walk.x), rel=1e-10)

    def test_quadratic_walk_matches_fresh_evaluation(self):
        state, cal, cfg = make_instance(seed=9, n=3)
        model = build_qubo(state, CostWeights(), cal, OPT, RF, cfg)
        obj = QuadraticObjective(model)
        rng = np.random.default_rng(2)
        walk = obj.walk(rng.integers(0, 2, cfg.bits_total, dtype=np.uint8))
        for _ in range(200):
            i = int(rng.integers(cfg.bits_total))
            peek = walk.peek_flip(i)
            walk.apply_flip(i)
            assert walk.value == pytest.approx(peek, rel=1e-12)
            assert walk.value == pytest.approx(obj.value(walk.x), abs=1e-9)
