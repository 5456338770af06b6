import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualris import qubo, solvers
from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.experiments import RunConfig, build_channel_state
from dualris.metrics import BOLTZMANN, Calibration, CostWeights
from dualris.qubo import (
    ExactObjective,
    QuadraticObjective,
    QuboModel,
    build_qubo,
    eval_quadratic,
    expansion_error,
    export_qubo,
    format_qubo,
    load_qubo,
)
from dualris.ris import ChannelState, RisConfig, bits_to_levels
from dualris.solvers import (SolverConfig, block_coordinate_descent, brute_force,
                             simulated_annealing, tabu_search)
from perfbench import workloads
from perfbench.oracle import campaign_instance

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


def random_model(rng, dim, n_pairs, values=None):
    """A QuboModel with n_pairs distinct (i < j) pairs in random order."""
    draw = values if values is not None else (lambda k: rng.normal(size=k))
    i_all, j_all = np.triu_indices(dim, 1)
    pick = rng.permutation(len(i_all))[:n_pairs]
    return QuboModel(dim=dim, linear=draw(dim), pair_i=i_all[pick].astype(np.int32),
                     pair_j=j_all[pick].astype(np.int32), pair_w=draw(len(pick)),
                     offset=float(draw(1)[0]))


def assert_same_model(a, b):
    assert a.dim == b.dim and a.offset == b.offset
    for name in ("linear", "pair_i", "pair_j", "pair_w"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


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
        baseline = ExactObjective(state0, CostWeights(), cal, OPT, RF, cfg0).value(
            np.zeros(0, np.uint8))
        assert model.offset == pytest.approx(baseline, rel=1e-12)

    def test_zero_cascades_have_no_phase_influence(self):
        state, cal, cfg = make_instance(n=2)
        silent = ChannelState(state.direct_quantum, state.direct_classical,
                              np.zeros(2, complex), np.zeros(2, complex))
        model = build_qubo(silent, CostWeights(), cal, OPT, RF, cfg)
        assert not model.pair_w.size
        assert not model.linear.any()
        baseline = ExactObjective(silent, CostWeights(), cal, OPT, RF, cfg).value(
            np.zeros(cfg.bits_total, np.uint8))
        assert model.offset == pytest.approx(baseline, rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 10**6))
    @example(3, 3, 3, 0)
    @example(3, 3, 2, 128043)        # gaps above the old absolute bound of 1e-15
    @example(3, 3, 1, 30900)
    def test_matches_independent_taylor_expansion(self, n, bq, bc, seed):
        # recompute the surrogate from the raw pairwise cosine Taylor formulas
        # about a random expansion point and compare on every bit vector
        state, cal, cfg = make_instance(seed=seed, n=n, bq=bq, bc=bc)
        w = CostWeights()
        obj = ExactObjective(state, w, cal, OPT, RF, cfg)
        x0 = np.random.default_rng(seed).integers(0, 2, cfg.bits_total, dtype=np.uint8)
        model = build_qubo(state, w, cal, OPT, RF, cfg, expansion_point=x0)
        lq0, lc0 = bits_to_levels(x0, cfg)
        phases0_q, phases0_c = (2 * math.pi / (1 << bq)) * lq0, (2 * math.pi / (1 << bc)) * lc0

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
        tq0 = h0q + (state.cascade_quantum * np.exp(1j * phases0_q)).sum()
        tc0 = h0c + (state.cascade_classical * np.exp(1j * phases0_c)).sum()
        pq0, pc0 = abs(tq0) ** 2, abs(tc0) ** 2
        deps = -0.5 * (obj.eps_base - obj.p_dark) * obj.direct_amp * pq0 ** -1.5
        gamma0 = obj.snr_coeff * pc0
        dlog = obj.snr_coeff / ((1 + gamma0) * math.log(2))
        f0 = obj.alpha * obj.qber_from_total(math.sqrt(pq0)) - obj.beta * math.log2(1 + gamma0)
        # both sides round relative to the model's terms, which cancel to the
        # value: bound the gap by a few ulp of the largest sum of |terms|
        magnitude = QuadraticObjective(QuboModel(
            model.dim, np.abs(model.linear), model.pair_i, model.pair_j,
            np.abs(model.pair_w), abs(model.offset)))

        for start in range(0, 1 << cfg.bits_total, 4096):
            codes = np.arange(start, min(start + 4096, 1 << cfg.bits_total))
            xs = ((codes[:, None] >> np.arange(cfg.bits_total)) & 1).astype(np.uint8)
            lq, lc = bits_to_levels(xs, cfg)
            pq = taylor_band_power(h0q, state.cascade_quantum, phases0_q,
                                   (2 * math.pi / (1 << bq)) * lq)
            pcl = taylor_band_power(h0c, state.cascade_classical, phases0_c,
                                    (2 * math.pi / (1 << bc)) * lc)
            expected = f0 + obj.alpha * deps * (pq - pq0) - obj.beta * dlog * (pcl - pc0)
            got = QuadraticObjective(model).batch(xs)
            assert np.abs(got - expected).max() <= 32 * np.spacing(magnitude.batch(xs).max())

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
        model = build_qubo(state, w, cal, OPT, RF, cfg, expansion_point=x0)
        exact = ExactObjective(state, w, cal, OPT, RF, cfg).value(x0)
        assert eval_quadratic(model, x0) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("point", [np.zeros(15, np.uint8), np.full(16, 2),
                                       np.full(16, -1)])
    def test_expansion_point_must_be_a_bit_vector(self, point):
        state, cal, cfg = make_instance(n=4)
        with pytest.raises(ValueError):
            build_qubo(state, CostWeights(), cal, OPT, RF, cfg, expansion_point=point)
        with pytest.raises(ValueError):
            expansion_error(state, CostWeights(), cal, OPT, RF, cfg, 8, 1,
                            expansion_point=point, max_step=1)

    def test_pair_cap_refuses_before_allocating(self):
        # the state is never read: the cap is checked from the RIS config alone
        big = RisConfig(n_elements=2048, bits_quantum=2, bits_classical=2)
        assert qubo.qubo_pairs(2048, 2, 2) == 2 * (4096 * 4095 // 2) > qubo.QUBO_MAX_PAIRS
        with pytest.raises(ValueError, match="pairs exceed the cap"):
            build_qubo(None, CostWeights(), None, OPT, RF, big)
        assert qubo.qubo_pairs(1024, 2, 2) == 4192256 <= qubo.QUBO_MAX_PAIRS

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
            assert ExactObjective(state_p, w, cal, OPT, RF, cfg).value(x_p) == pytest.approx(
                ExactObjective(state, w, cal, OPT, RF, cfg).value(x), rel=1e-12)
            model = build_qubo(state, w, cal, OPT, RF, cfg)
            model_p = build_qubo(state_p, w, cal, OPT, RF, cfg)
            assert eval_quadratic(model_p, x_p) == pytest.approx(
                eval_quadratic(model, x), rel=1e-9)


class TestExpansionError:
    def test_zero_for_silent_cascades(self):
        state, cal, cfg = make_instance(n=2)
        silent = ChannelState(state.direct_quantum, state.direct_classical,
                              np.zeros(2, complex), np.zeros(2, complex))
        deviation = expansion_error(silent, CostWeights(), cal, OPT, RF, cfg,
                                    samples=64, rng_seed=1)
        assert deviation == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        state, cal, cfg = make_instance(seed=2, n=3)
        r1 = expansion_error(state, CostWeights(), cal, OPT, RF, cfg, 128, 9)
        r2 = expansion_error(state, CostWeights(), cal, OPT, RF, cfg, 128, 9)
        assert r1 == r2

    def test_sampled_deviation_bounds_eval_gap(self):
        state, cal, cfg = make_instance(seed=4, n=3)
        w = CostWeights()
        deviation = expansion_error(state, w, cal, OPT, RF, cfg, 1000, 11)
        model = build_qubo(state, w, cal, OPT, RF, cfg)
        obj = ExactObjective(state, w, cal, OPT, RF, cfg)
        rng = np.random.default_rng(11)
        xs = rng.integers(0, 2, size=(1000, cfg.bits_total), dtype=np.uint8)
        dev = np.abs(QuadraticObjective(model).batch(xs) - obj.batch(xs)) / (
            np.abs(obj.batch(xs)) + 1e-300)
        assert dev.max() == pytest.approx(deviation, rel=1e-12)


def triplets(*rows):
    """(i, j, value) rows as export_qubo's lines."""
    return "".join("%d %d %.16e\n" % row for row in rows)


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

    @pytest.mark.parametrize("body", [triplets((0, 0, 1.5), (0, 0, 2.5), (1, 2, 0.5)),
                                      triplets((0, 0, 1.5), (1, 2, 0.5), (1, 2, 0.75))])
    def test_repeated_lines_rejected(self, tmp_path, body):
        # a repeat keeps the header counts right, so only the repeat check sees it
        path = tmp_path / "repeat.qubo"
        n_quad = body.count("1 2 ")
        path.write_text(f"qubo 3 1 {n_quad} 0.0\n" + body)
        with pytest.raises(ValueError, match="repeated"):
            load_qubo(str(path))

    def test_unsorted_pairs_are_checked_for_repeats(self, tmp_path):
        # pairs out of (i, j) order take the sorted repeat check
        path = tmp_path / "unsorted.qubo"
        path.write_text("qubo 3 0 3 0.0\n" + triplets((1, 2, 0.5), (0, 1, 0.25), (0, 2, 1.0)))
        model = load_qubo(str(path))
        assert (model.pair_i.tolist(), model.pair_j.tolist()) == ([1, 0, 0], [2, 1, 2])
        path.write_text("qubo 3 0 3 0.0\n" + triplets((1, 2, 0.5), (0, 1, 0.25), (1, 2, 1.0)))
        with pytest.raises(ValueError, match="repeated pair line"):
            load_qubo(str(path))

    def test_export_bytes_pinned(self, model_n64):
        built, path, loaded = model_n64
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "cf69814673b781610deefd83a72494bafc86ac915dc5f9e89ebd8b37e1405321"
        assert_same_model(loaded, built)

    def test_chunks_join_to_the_file(self, model_n64):
        built, path, _ = model_n64
        chunks = list(format_qubo(built, ["dualris surrogate", "elevation_deg 45",
                                          "n_elements 64"]))
        assert "".join(chunks).encode() == path.read_bytes()
        body_lines = [c.count("\n") for c in chunks[1:]]
        assert max(body_lines) <= qubo._CHUNK_ROWS
        assert sum(body_lines) == np.count_nonzero(built.linear) + built.pair_w.size

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 9), st.data())
    @example(0, None)
    def test_random_models_round_trip(self, tmp_path_factory, dim, data):
        # bit-exact over the whole float64 range
        if data is None:                               # header-only file
            model = QuboModel(dim=0, linear=np.zeros(0), pair_i=np.zeros(0, np.int32),
                              pair_j=np.zeros(0, np.int32), pair_w=np.zeros(0),
                              offset=-1e300)
        else:
            finite = st.floats(allow_nan=False, allow_infinity=False)
            n_pairs = data.draw(st.integers(0, dim * (dim - 1) // 2))
            zero_linear = data.draw(st.booleans())
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            model = random_model(rng, dim, n_pairs, values=lambda k: np.array(
                data.draw(st.lists(finite, min_size=k, max_size=k)), dtype=float))
            if zero_linear:
                model.linear[:] = 0.0
            model.linear[model.linear == 0.0] = 0.0      # -0.0 is not written
        path = tmp_path_factory.mktemp("rt") / "m.qubo"
        export_qubo(model, str(path), ["random model"])
        assert_same_model(load_qubo(str(path)), model)

    # one file per rejection; test_repeated_lines_rejected covers the repeats
    @pytest.mark.parametrize("text,word", [
        ("0 0 1.0\nqubo 2 1 0 0.0\n", "before the qubo header"),
        ("# comments only\n\n", "missing"),
        ("qubo 2 1 0 0.0\nqubo 2 1 0 0.0\n" + triplets((0, 0, 1.0)), "malformed triplet line"),
        ("qubo 2 1 0 0.0\n" + triplets((2, 2, 1.0)), "out of range"),
        ("qubo 2 0 1 0.0\n" + triplets((0, 2, 1.0)), "out of range"),
        # an index has no sign in export's layout
        ("qubo 2 0 1 0.0\n" + triplets((-1, 1, 1.0)), "malformed triplet line"),
        ("qubo 3 0 1 0.0\n" + triplets((2, 1, 1.0)), "i < j"),
        ("qubo 3 2 0 0.0\n" + triplets((0, 0, 1.0)), "disagree"),
        ("qubo 3 0 2 0.0\n" + triplets((0, 1, 1.0)), "disagree"),
        ("qubo 3 1 0 0.0\n0 0\n", "malformed"),
        ("qubo 3 1 0 0.0\n0 0 1.0 4\n", "malformed"),
        ("qubo 3 1 0 0.0\n0 0 x\n", "malformed"),
        ("qubo 3 1 0 0.0\n0 0.5 1.0\n", "malformed"),
        ("qubo 3 1\n", "malformed"),
    ])
    def test_malformed_files_rejected(self, tmp_path, text, word):
        path = tmp_path / "bad.qubo"
        path.write_text(text)
        with pytest.raises(ValueError, match=word):
            load_qubo(str(path))


def plain_format_qubo(model, comments=None):
    """format_qubo as one '%' formatting per line: the byte reference."""
    lin_idx = np.nonzero(model.linear)[0]
    head = [f"# {c}\n" for c in comments or []]
    head.append(f"qubo {model.dim} {len(lin_idx)} {len(model.pair_w)} "
                f"{model.offset:.16e}\n")
    yield "".join(head)
    for i, j, w in ((lin_idx, lin_idx, model.linear[lin_idx]),
                    (model.pair_i, model.pair_j, model.pair_w)):
        for lo in range(0, len(w), qubo._CHUNK_ROWS):
            rows = slice(lo, lo + qubo._CHUNK_ROWS)
            yield "".join(map("%d %d %.16e\n".__mod__, zip(
                i[rows].tolist(), j[rows].tolist(), w[rows].tolist())))


def assert_formats_like_plain(model, comments=None):
    # the same chunks: the joined text and every chunk boundary
    assert list(format_qubo(model, comments)) == list(plain_format_qubo(model, comments))


def named_values():
    """The formatter's edge cases, each with its negative."""
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    values = [0.0, 5e-324, 2.0 ** -1022, math.inf, math.nan,
              1234567890123456.75, 1234567890123457.25]         # exact decimal ties
    values += [x for p in powers for x in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))]
    values += [x for limit in (qubo._FAST_MIN, qubo._FAST_MAX)
               for x in (np.nextafter(limit, 0.0), limit, np.nextafter(limit, math.inf))]
    return np.array(values + [-x for x in values])


def pair_model(weights, seed=0):
    """Sorted distinct pairs of a dim just large enough, one per weight."""
    weights = np.asarray(weights, dtype=float)
    dim = 2
    while dim * (dim - 1) // 2 < len(weights):
        dim *= 2
    model = random_model(np.random.default_rng(seed), dim, len(weights),
                         values=lambda k: np.ones(k))
    order = np.lexsort((model.pair_j, model.pair_i))
    return QuboModel(dim=dim, linear=np.zeros(dim), pair_i=model.pair_i[order],
                     pair_j=model.pair_j[order], pair_w=weights, offset=1.0)


# writes format_qubo's text of the model saved at argv[1] to argv[2] and
# prints whether numpy dispatches to AVX2 (x86-64-v3) kernels
_DISPATCH_CHILD = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from dualris.qubo import QuboModel, export_qubo
saved = np.load(sys.argv[1])
export_qubo(QuboModel(dim=int(saved["dim"]), linear=saved["linear"], pair_i=saved["pair_i"],
                      pair_j=saved["pair_j"], pair_w=saved["pair_w"],
                      offset=float(saved["offset"])), sys.argv[2])
print(__cpu_features__["X86_V3"])
"""


def run_child(script, level, *args):
    """Run script in a fresh interpreter with this src/ on PYTHONPATH, under the
    numpy dispatch level (None: the default), and return its last output word."""
    src = str(Path(qubo.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    if level:
        env["NPY_ENABLE_CPU_FEATURES"] = level
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.split()[-1]


class TestTripletFormat:
    @pytest.mark.parametrize("n", workloads.QUBO_SIZES)
    def test_qubo_workload_models(self, n):
        cfg, cal = RunConfig(seed=workloads.STATE_SEED), workloads.pinned_calibration()
        state, ris_cfg, _ = build_channel_state(cfg, cal, workloads.QUBO_ELEVATION, n)
        model = build_qubo(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        assert_formats_like_plain(model, ["dualris surrogate", f"n_elements {n}"])

    def test_named_values(self):
        values = named_values()
        model = pair_model(values)
        model.linear[:] = values[:model.dim]
        assert_formats_like_plain(model)
        text = "".join(format_qubo(model))
        # CPython rounds both ties half-even
        assert " 1.2345678901234568e+15\n" in text and " 1.2345678901234572e+15\n" in text

    def test_ties_take_the_numpy_path(self):
        # the tie rows are decided in numpy, not left to Python's formatting
        digits, exp, settled = qubo._decimal(np.array([1234567890123456.75,
                                                       -1234567890123457.25]))
        assert settled.all() and exp.tolist() == [15, 15]
        assert digits.tolist() == [12345678901234568, 12345678901234572]

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 7), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
           st.integers(0, 2**32 - 1))
    def test_bit_patterns(self, digits, bits, seed):
        # arbitrary float64 bit patterns, with the largest index of `digits` digits
        rng = np.random.default_rng(seed)
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        dim = 10 ** (digits - 1) + int(rng.integers(1, min(1000, 9 * 10 ** (digits - 1)) + 1))
        index = np.minimum(10 ** rng.integers(1, digits + 1, (len(values), 2)), dim)
        index = np.sort(rng.integers(0, index), axis=1)
        index[0, 1] = dim - 1
        linear = np.zeros(dim)
        linear[rng.integers(0, dim, len(values) // 3)] = values[:len(values) // 3]
        model = QuboModel(dim=dim, linear=linear, pair_i=index[:, 0].astype(np.int32),
                          pair_j=index[:, 1].astype(np.int32), pair_w=values,
                          offset=float(values[0]))
        assert_formats_like_plain(model)

    def test_same_bytes_under_pre_avx2_dispatch(self, tmp_path):
        # numpy's SIMD kernels differ per dispatch level (np.log10 by an ulp);
        # the digits must not
        from numpy._core._multiarray_umath import __cpu_features__
        if "X86_V3" not in __cpu_features__:
            pytest.skip("x86-64 dispatch levels only")
        rng = np.random.default_rng(20)
        values = np.concatenate([named_values(), rng.integers(
            0, 2**64, 1 << 15, dtype=np.uint64).view(np.float64)])
        model = pair_model(values)
        np.savez(tmp_path / "model.npz", dim=model.dim, linear=model.linear,
                 pair_i=model.pair_i, pair_j=model.pair_j, pair_w=model.pair_w,
                 offset=model.offset)
        text = {}
        for level in ("X86_V2", None):
            out = tmp_path / f"{level}.qubo"
            has_avx2 = run_child(_DISPATCH_CHILD, level, tmp_path / "model.npz", out)
            if level:              # the variable took effect: no AVX2 kernels in this child
                assert has_avx2 == "False"
            text[level] = out.read_bytes()
        assert text["X86_V2"] == text[None]
        assert text[None].decode() == "".join(plain_format_qubo(model))

    def test_negative_index_refused(self):
        model = pair_model([1.0])
        model.pair_i[0] = -1
        with pytest.raises(ValueError, match="must be >= 0"):
            list(format_qubo(model))



def plain_load_qubo(path):
    """load_qubo with its body parsed by np.loadtxt: the array reference."""
    def loadtxt_body(fh, size):
        with warnings.catch_warnings():      # a file may hold no triplet at all
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(fh, dtype=qubo._TRIPLET, ndmin=1)
    with mock.patch.object(qubo, "_read_triplets", loadtxt_body):
        return load_qubo(str(path))


def load_outcome(load, path):
    """What a loader gives for the file: the model's arrays as bytes, or its message."""
    try:
        model = load(str(path))
    except ValueError as exc:
        return str(exc)
    return (model.dim, float(model.offset).hex(),
            *[(a.dtype.str, a.tobytes()) for a in (model.linear, model.pair_i, model.pair_j,
                                                   model.pair_w)])


# exports the default 45 deg models with N = 20 and 64 through the CLI into
# argv[1], loads each file back and saves its arrays, and prints whether
# numpy dispatches to AVX2 (x86-64-v3) kernels
_EXPORT_CHILD = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from dualris.cli import run_cli
from dualris.qubo import load_qubo
out = sys.argv[1]
with open(out + "/run.ini", "w") as fh:
    fh.write("[run]\\noutput_dir = " + out + "\\n")
for n in (20, 64):
    assert run_cli(["--config", out + "/run.ini", "qubo-export", "--n", str(n),
                    "--out", f"n{n}.qubo"]) == 0
    m = load_qubo(f"{out}/n{n}.qubo")
    np.savez(f"{out}/n{n}.npz", linear=m.linear, pair_i=m.pair_i, pair_j=m.pair_j,
             pair_w=m.pair_w, offset=m.offset)
print(__cpu_features__["X86_V3"])
"""

_HEADER = b"qubo 3 2 1 0.5\n"
_LINES = [b"0 0 1.5000000000000000e+00\n", b"2 2 -2.5000000000000000e-01\n",
          b"0 1 7.0000000000000000e+00\n"]


def _body(middle, *extra):
    """_HEADER and _LINES with the middle line replaced, and extra lines after it."""
    return _HEADER + b"".join([_LINES[0], middle, *extra, _LINES[2]])


_LAYOUT = re.compile(rb"(0|[1-9][0-9]{0,7}) (0|[1-9][0-9]{0,7}) "
                     rb"-?[0-9]\.[0-9]{16}e[+-][0-9]{2,3}\n")


def first_off_layout(text):
    """Number, from 1, of the first line after the header off export's layout (reference)."""
    lines = re.findall(rb"[^\n]*\n|[^\n]+$", text)
    head = next(k for k, line in enumerate(lines) if line.startswith(b"qubo"))
    return next(k + 1 for k in range(head + 1, len(lines)) if not _LAYOUT.fullmatch(lines[k]))


class TestTripletLoad:
    @pytest.mark.parametrize("n", workloads.QUBO_SIZES)
    def test_workload_models_load_like_loadtxt(self, tmp_path, n):
        cfg, cal = RunConfig(seed=workloads.STATE_SEED), workloads.pinned_calibration()
        state, ris_cfg, _ = build_channel_state(cfg, cal, workloads.QUBO_ELEVATION, n)
        model = build_qubo(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        path = tmp_path / "m.qubo"
        export_qubo(model, str(path), ["dualris surrogate", f"n_elements {n}"])
        assert_same_model(load_qubo(str(path)), model)
        assert load_outcome(load_qubo, path) == load_outcome(plain_load_qubo, path)

    @settings(deadline=None, max_examples=80)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300),
           st.integers(0, 2**32 - 1))
    @example(named_values()[np.isfinite(named_values())].view(np.uint64).tolist(), 0)
    def test_bit_patterns_load_like_loadtxt(self, tmp_path_factory, bits, seed):
        # every finite float64, -0.0 pair weights and subnormals included,
        # gives np.loadtxt's arrays bit for bit
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]          # 'inf' and 'nan' are off the layout
        model = pair_model(values, seed)
        model.linear[:len(values)] = values[:model.dim]
        model.offset = float(values[0]) if values.size else 1.0
        path = tmp_path_factory.mktemp("bits") / "m.qubo"
        export_qubo(model, str(path))
        got = load_outcome(load_qubo, path)
        assert got == load_outcome(plain_load_qubo, path)
        linear = model.linear.copy()
        linear[linear == 0.0] = 0.0                      # -0.0 is not written
        assert got[2:] == tuple((a.dtype.str, a.tobytes())
                                for a in (linear, model.pair_i, model.pair_j, model.pair_w))

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.booleans(), st.integers(10**16, 10**17 - 1),
                              st.integers(-330, 310)), min_size=1, max_size=200))
    @example([(False, 90071992547409930, 15), (True, 90071992547409950, 15),   # 2^53 + 1, + 3
              (False, 18014398509481986, 16), (False, 44501477170144023, -324),
              (False, 17976931348623158, 308), (True, 24703282292062328, -340 + 16)])
    # below 1e-275 the fast path's 10^k has a subnormal low part: read 1 ulp low
    # while the fast path took it
    @example([(False, 10907057819386624, -290)])
    def test_any_digits_load_like_loadtxt(self, tmp_path_factory, rows):
        # 17 digits that no double formats to: values anywhere between two
        # doubles, exact half-ulp ties, subnormals, overflow and underflow
        lines = [f"{k} {k + 1} {'-' if neg else ''}{str(d)[0]}.{str(d)[1:]}e{e:+03d}\n"
                 for k, (neg, d, e) in enumerate(rows)]
        path = tmp_path_factory.mktemp("digits") / "m.qubo"
        path.write_text(f"qubo {len(rows) + 1} 0 {len(rows)} 0.0\n" + "".join(lines))
        assert load_outcome(load_qubo, path) == load_outcome(plain_load_qubo, path)

    # files with a line off the '%d %d %.16e\n' layout are refused with one
    # message; the rest give the reference's arrays or message
    @pytest.mark.parametrize("text,on_layout", [
        (_body(b"# note\n" + _LINES[1]), False),
        (_body(_LINES[1].replace(b"\n", b" # note\n")), False),
        (_body(_LINES[1], b"\n"), False),
        (_body(_LINES[1]).replace(b"\n", b"\r\n"), False),
        (_body(b"2\t2 -2.5000000000000000e-01\n"), False),
        (_body(b"+2 2 -2.5000000000000000e-01\n"), False),
        (_body(b"2 2 +2.5000000000000000e-01\n"), False),
        (_body(b"02 2 -2.5000000000000000e-01\n"), False),
        (_body(b"1 02 -2.5000000000000000e-01\n"), False),
        (_body(b"000000002 2 -2.5000000000000000e-01\n"), False),
        (_body(b"123456789 2 -2.5000000000000000e-01\n"), False),
        (_body(b"2 2 inf\n"), False),
        (_body(b"2 2 -inf\n"), False),
        (_body(b"2 2 nan\n"), False),
        (_body("2 2 -2.5000000000000000e-0١\n".encode()), False),
        (_body("2 ٢ -2.5000000000000000e-01\n".encode()), False),
        # a byte that is not ASCII, past the first 8 KiB
        (_body(_LINES[1], *[b"1 2 1.0000000000000000e+00\n"] * 400,
               b"2 2 -2.5000000000000000e-01\xff\n"), False),
        (_body(_LINES[1])[:-1], False),                   # no final newline
        (_body(b"2 2 1.5\n"), False),
        (_body(b"2 2 -2.5000000000000000E-01\n"), False),
        (_body(b"2 2 -2.5000000000000000e-1\n"), False),
        (_body(b"2  2 -2.5000000000000000e-01\n"), False),
        (_body(b"2 2 -2.5000000000000000e-01 \n"), False),
        (_body(b"2 2 -2.5000000000000000e-01 4\n"), False),
        (_body(_LINES[1], _HEADER), False),
        # the first of two lines off the layout is named, whichever check
        # refuses the second
        (_body(b"2 2 -2.5000000000000000e-0x\n", b"123456789 2 -2.5000000000000000e-01\n"),
         False),
        (_body(b"2 2 -2.5000000000000000e-0x\n", b"2\t2 -2.5000000000000000e-01\n"), False),
        (_body(b"2 2 -2.5000000000000000e-1\n", b"2 2 1.5\n"), False),
        (_body(_LINES[1]), True),
        (_body(b"2 2 -0.0000000000000000e+00\n"), True),
        (_body(b"2 2 0.0000000000000000e+99\n"), True),
        (_body(b"2 2 0.2500000000000000e+00\n"), True),       # leading zero digit
        (_body(b"2 2 -2.5000000000000000e-001\n"), True),
        (_body(b"2 2 9.9999999999999999e+308\n"), True),      # overflows to inf
        (_body(b"2 2 1.0000000000000000e-330\n"), True),      # underflows to 0
        (_body(b"2 2 4.9406564584124654e-324\n"), True),
        (_body(b"12345678 2 -2.5000000000000000e-01\n"), True),
        (_body(b"2 2 -2.5000000000000000e-01\n", b"1 2 1.0000000000000000e+00\n"), True),
        (_HEADER, True),
    ])
    def test_lines_off_the_layout_are_refused(self, tmp_path, text, on_layout):
        path = tmp_path / "m.qubo"
        path.write_bytes(text)
        got = load_outcome(load_qubo, path)
        if on_layout:
            assert got == load_outcome(plain_load_qubo, path)
        else:
            assert got.startswith("malformed triplet line") and "'%d %d %.16e\\n'" in got
            assert "\n" not in got
            assert got.startswith(f"malformed triplet line {first_off_layout(text)}: ")

    def test_refusal_names_the_line(self, tmp_path, model_n64):
        # a tab in the first or the last triplet line of the 16 256-pair
        # export: the last one lies several load blocks in
        built, path, _ = model_n64
        assert built.pair_w.size == 16256
        lines = path.read_bytes().splitlines(keepends=True)
        first = next(k for k, line in enumerate(lines) if line.startswith(b"qubo")) + 1
        for k in (first, len(lines) - 1):
            bad = tmp_path / f"tab{k}.qubo"
            bad.write_bytes(b"".join([*lines[:k], lines[k].replace(b" ", b"\t", 1),
                                      *lines[k + 1:]]))
            assert load_outcome(load_qubo, bad).startswith(f"malformed triplet line {k + 1}: ")

    def test_block_boundaries(self, tmp_path):
        # lines cut across blocks of every size carry over whole
        model = random_model(np.random.default_rng(4), 40, 700)
        path = tmp_path / "m.qubo"
        export_qubo(model, str(path))
        expected = load_outcome(plain_load_qubo, path)
        for block in (64, 100, 1000, 4096):
            with mock.patch.object(qubo, "_LOAD_BLOCK", block):
                assert load_outcome(load_qubo, path) == expected

    def test_same_exports_and_loads_under_pre_avx2_dispatch(self, tmp_path):
        # the surrogate's complex products are real ufuncs, so the bytes of
        # qubo-export and the arrays load_qubo reads back do not depend on
        # numpy's SIMD kernels
        from numpy._core._multiarray_umath import __cpu_features__
        if "X86_V3" not in __cpu_features__:
            pytest.skip("x86-64 dispatch levels only")
        for level in ("X86_V2", None):
            (tmp_path / str(level)).mkdir()
            has_avx2 = run_child(_EXPORT_CHILD, level, tmp_path / str(level))
            if level:
                assert has_avx2 == "False"
        for n in (20, 64):
            files = [tmp_path / str(level) / f"n{n}.qubo" for level in ("X86_V2", None)]
            assert files[0].read_bytes() == files[1].read_bytes()
            arrays = [np.load(f.with_suffix(".npz")) for f in files]
            for name in ("linear", "pair_i", "pair_j", "pair_w", "offset"):
                assert arrays[0][name].tobytes() == arrays[1][name].tobytes(), (n, name)


def _loop_adjacency(model):
    """The neighbour lists as a per-pair loop builds them (reference)."""
    adj = [[] for _ in range(model.dim)]
    for i, j, w in zip(model.pair_i.tolist(), model.pair_j.tolist(), model.pair_w.tolist()):
        adj[i].append((j, w))
        adj[j].append((i, w))
    return adj


def _digest(result):
    parts = [result.best_bits.tobytes(), float(result.best_value).hex(),
             str(result.evaluations), repr([(e, float(v).hex()) for e, v in result.trace])]
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()


class TestQuadraticObjective:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 24), st.integers(1, 40), st.sampled_from([1, 7, 64, 1 << 20]),
           st.integers(0, 2**32 - 1))
    @example(7, 2, 1, 0)
    @example(7, 3, 1, 0)
    @example(24, 1, 1, 0)            # a lone row: one pairwise sum, whatever the cap
    @example(24, 40, 7, 0)           # a cap below the row count: chunks of one pair
    def test_batch_equals_inline_reference(self, dim, rows, cap, seed):
        # small caps force one to many pair chunks
        rng = np.random.default_rng(seed)
        model = random_model(rng, dim, int(rng.integers(0, dim * (dim - 1) // 2 + 1)))
        xs = rng.integers(0, 2, size=(rows, dim), dtype=np.uint8)
        with mock.patch.object(qubo, "_BATCH_ELEMENTS", cap):
            got = QuadraticObjective(model).batch(xs)
        xf = xs.astype(float)
        expected = xf @ model.linear + model.offset
        if model.pair_w.size:
            expected = expected + (xf[:, model.pair_i] * xf[:, model.pair_j]
                                   * model.pair_w).sum(axis=1)
        assert np.array_equal(got, expected)

    def test_batch_blocks_at_the_default_cap(self):
        # 32 640 pairs: 100 rows take four pair chunks of at most 10 485 pairs
        rng = np.random.default_rng(5)
        model = random_model(rng, 256, 256 * 255 // 2)
        xs = rng.integers(0, 2, size=(100, 256), dtype=np.uint8).astype(float)
        expected = xs @ model.linear + model.offset + (
            xs[:, model.pair_i] * xs[:, model.pair_j] * model.pair_w).sum(axis=1)
        assert np.array_equal(QuadraticObjective(model).batch(xs), expected)

    def test_batch_peak_memory_is_two_chunks(self):
        # a chunk's products and its second gather, each at most
        # _BATCH_ELEMENTS floats, plus about the size of the inputs (the bits
        # as floats and the model's arrays); three such temporaries did not fit
        rng = np.random.default_rng(5)
        model = random_model(rng, 256, 256 * 255 // 2)
        xs = rng.integers(0, 2, size=(100, 256), dtype=np.uint8)
        obj = QuadraticObjective(model)
        inputs = 8 * xs.size + sum(a.nbytes for a in (model.linear, model.pair_i,
                                                       model.pair_j, model.pair_w))
        tracemalloc.start()
        try:
            obj.batch(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * qubo._BATCH_ELEMENTS + inputs

    def test_adjacency_matches_loop_reference(self, model_n64):
        model = model_n64[2]
        views = QuadraticObjective(model).neighbours()
        assert len(views) == model.dim
        for (neighbour, weight), ref in zip(views, _loop_adjacency(model)):
            assert list(zip(neighbour.tolist(), weight.tolist())) == ref

    def test_flips_match_loop_reference_exactly(self):
        # a hand-built model may list a pair twice; both terms reach the sums
        rng = np.random.default_rng(3)
        model = random_model(rng, 12, 40)
        model.pair_i = np.concatenate([model.pair_i, model.pair_i[:5]])
        model.pair_j = np.concatenate([model.pair_j, model.pair_j[:5]])
        model.pair_w = np.concatenate([model.pair_w, rng.normal(size=5)])
        adj = _loop_adjacency(model)
        walk = QuadraticObjective(model).walk(rng.integers(0, 2, 12, dtype=np.uint8))
        sums = walk._sums.copy()
        for i in rng.integers(0, 12, size=300).tolist():
            step = 1.0 - 2.0 * walk.x[i]
            for j, w in adj[i]:
                sums[j] += w * step
            walk.apply_flip(i)
            assert np.array_equal(walk._sums, sums)

    def test_walk_matches_loop_reference_on_the_loaded_surrogate(self, model_n64):
        # peeks, applies of the peeked bit and applies of another bit, each
        # step against the per-pair loop in numpy scalars, bit for bit
        model = model_n64[2]
        adj = _loop_adjacency(model)
        rng = np.random.default_rng(8)
        walk = QuadraticObjective(model).walk(rng.integers(0, 2, model.dim, dtype=np.uint8))
        x, sums, value = walk.x.copy(), walk._sums.copy(), walk.value
        kinds = rng.integers(0, 3, size=2000).tolist()
        for kind, i in zip(kinds, rng.integers(0, model.dim, size=2000).tolist()):
            step = 1.0 - 2.0 * x[i]
            delta = step * (model.linear[i] + sums[i])
            if kind == 0:
                assert walk.peek_flip(i) == value + delta
            else:
                walk.peek_flip(i if kind == 1 else (i + 1) % model.dim)
                walk.apply_flip(i)
                value += delta
                for j, w in adj[i]:
                    sums[j] += w * step
                x[i] ^= 1
            assert walk.value == value
            assert np.array_equal(walk._sums, sums) and np.array_equal(walk.x, x)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_solver_results_pinned(self, model_n64, seed):
        # anneal and tabu on the loaded N = 64 surrogate: bits, value,
        # evaluation count and trace; tabu as pinned before the CSR walk,
        # anneal as re-pinned for its start at the walk's flip spread
        # (plain_anneal agrees)
        model = model_n64[2]
        obj = QuadraticObjective(model)
        anneal = simulated_annealing(obj, model.dim, SolverConfig(
            kind="anneal", seed=seed, max_iters=20, restarts=1))
        tabu = tabu_search(obj, model.dim, SolverConfig(
            kind="tabu", seed=seed, max_iters=40, restarts=2))
        assert (_digest(anneal), _digest(tabu)) == PINNED_SOLVES[seed]


PINNED_SOLVES = {
    1: ("f740880a1c7ee344e00ade9a9256589aa704402748dfd5bd8edd2c8260129697",
        "7202cdd6de15ab6d6211d1c6a1235203f20a7d799049b2a18b325acac5f235c9"),
    2: ("2264bdfa8b7b58b212ac845f7199d094873903e954de123fa04c6baaf339b285",
        "9bac76120e542c1b4053f6ffe0947991dcf461ef3d37043524b0c1f9a8717ae7"),
}


def plain_anneal(objective, dim, cfg):
    """simulated_annealing as a per-flip loop of peek_flip, apply_flip and
    _Best.offer, from _start_temperature and cooled by the per-flip factor
    (reference)."""
    rng = np.random.default_rng(cfg.seed)
    best = solvers._Best()
    trace = []
    evaluations = 0
    for _ in range(cfg.restarts):
        x0 = rng.integers(0, 2, size=dim, dtype=np.uint8)
        walk = objective.walk(x0)
        temp = solvers._start_temperature(walk)
        evaluations += 1
        if best.offer(walk.value, walk.x):
            trace.append((evaluations, best.value))
        for _ in range(cfg.max_iters):
            factor = solvers.ANNEAL_END_RATIO ** (1.0 / (cfg.max_iters * dim))
            flips = rng.integers(0, dim, size=dim)
            accept_draws = rng.random(dim)
            for i, draw in zip(flips.tolist(), accept_draws.tolist()):
                cand = walk.peek_flip(i)
                evaluations += 1
                delta = cand - walk.value
                if delta <= 0.0 or draw < math.exp(-delta / temp):
                    walk.apply_flip(i)
                    if best.offer(walk.value, walk.x):
                        trace.append((evaluations, best.value))
                temp *= factor
    return solvers._finalize(objective, best.bits, evaluations, trace)


def assert_anneals_like_plain(obj, cfg):
    got = simulated_annealing(obj, obj.dim, cfg)
    assert _digest(got) == _digest(plain_anneal(obj, obj.dim, cfg))
    return got


class TestAnnealSweep:
    """simulated_annealing's one-call sweeps and lazy best copy against plain_anneal."""

    @pytest.mark.parametrize("n", [128, 512])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_plain_loop_at_benchmark_states(self, n, seed):
        cfg = RunConfig(seed=workloads.STATE_SEED)
        cal = workloads.pinned_calibration()
        state, ris_cfg, _ = build_channel_state(cfg, cal, 45.0, n)
        obj = ExactObjective(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        sweeps, restarts = workloads.ANNEAL_BUDGET[n]
        assert_anneals_like_plain(obj, SolverConfig(kind="anneal", seed=seed,
                                                    max_iters=sweeps, restarts=restarts))

    def test_matches_plain_loop_with_the_campaign_budget(self):
        # criterion 6's anneal budget on its first 20 instances (dim 4 to 16)
        for i in range(20):
            obj = campaign_instance(1000 + i, 1 + i % 4)
            assert_anneals_like_plain(obj, SolverConfig(kind="anneal", seed=i,
                                                        max_iters=400, restarts=3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_plain_loop_on_the_loaded_surrogate(self, model_n64, seed):
        obj = QuadraticObjective(model_n64[2])
        assert_anneals_like_plain(obj, SolverConfig(kind="anneal", seed=seed,
                                                    max_iters=20, restarts=2))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_plain_loop_where_values_tie(self, seed):
        # coefficients in {-1, 0, 1}: many states share a value, so the
        # lexicographic rule decides ties, which need the saved best bits
        rng = np.random.default_rng(seed)
        model = random_model(rng, 10, 20, values=lambda k: rng.integers(-1, 2, k).astype(float))
        original, decided = solvers._lex_less, []

        def lex_less(a, b):
            decided.append(original(a, b))
            return decided[-1]

        with mock.patch.object(solvers, "_lex_less", lex_less):
            assert_anneals_like_plain(QuadraticObjective(model), SolverConfig(
                kind="anneal", seed=seed, max_iters=30, restarts=3))
        assert any(decided)

    @pytest.mark.parametrize("objective", ["exact", "quadratic"])
    def test_zero_sweeps_return_the_best_random_start(self, objective):
        state, cal, cfg = make_instance(seed=3, n=4)
        obj = ExactObjective(state, CostWeights(), cal, OPT, RF, cfg)
        if objective == "quadratic":
            obj = QuadraticObjective(build_qubo(state, CostWeights(), cal, OPT, RF, cfg))
        got = assert_anneals_like_plain(obj, SolverConfig(kind="anneal", seed=4, max_iters=0,
                                                          restarts=3))
        assert got.evaluations == 3


class TestExactTerms:
    @pytest.mark.parametrize("weights", [CostWeights(), CostWeights(alpha=2.0, beta=1e300)])
    def test_equal_to_the_scalar_terms_or_nan(self, weights):
        # bit for bit where not NaN, NaN wherever a scalar term raises, and
        # not NaN at moderate totals; the specials pair 0, -0, subnormals,
        # near-overflow parts (abs overflows), inf and NaN
        state, cal, cfg = make_instance(seed=3, n=4)
        obj = ExactObjective(state, weights, cal, OPT, RF, cfg)
        rng = np.random.default_rng(7)
        drawn = rng.standard_normal((2, 4000)) * 10.0 ** rng.uniform(-320, 308, (2, 4000))
        special = [0.0, -0.0, 5e-324, 1e-300, 1.0, 1e308, 1.7e308, math.inf, -math.inf,
                   math.nan]
        totals = np.empty(drawn.shape[1] + len(special) ** 2, complex)
        totals.real = np.concatenate([drawn[0], np.repeat(special, len(special))])
        totals.imag = np.concatenate([drawn[1], np.tile(special, len(special))])
        totals = totals.reshape(2, -1)
        eps_terms, log_terms = obj.exact_terms(totals, totals)
        moderate = 0
        for t, eq, ec in zip(totals.ravel().tolist(), eps_terms.ravel().tolist(),
                             log_terms.ravel().tolist()):
            assert math.isnan(ec) or ec.hex() == obj.classical_term(t).hex()
            try:
                scalar = obj.quantum_term(t)
            except (OverflowError, ZeroDivisionError):
                assert math.isnan(eq)
                continue
            assert math.isnan(eq) or eq.hex() == scalar.hex()
            if 1e-200 < abs(t) < 1e200:
                moderate += 1
                assert not math.isnan(eq) and not math.isnan(ec)
        assert moderate > 2000


class TestMetricsOf:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(0, 8), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([0.05, 0.25, 1.0]), st.sampled_from(["static", "swing"]))
    def test_cost_and_snr_are_the_objective_terms(self, seed, n, bq, bc, amp, mode):
        # the metrics' cost is the value the solvers score, and their SNR is
        # kappa (re^2 + im^2) of the classical total, both bit for bit
        state, cal, cfg = make_instance(seed=seed, n=n, bq=bq, bc=bc, amp=amp)
        obj = ExactObjective(state, CostWeights(mode=mode), cal, OPT, RF, cfg)
        x = np.random.default_rng(seed).integers(0, 2, cfg.bits_total, dtype=np.uint8)
        m = obj.metrics_of(x)
        _, tc = obj.totals_of(x)
        assert m.cost.hex() == obj.value(x).hex()
        assert m.snr_linear.hex() == (obj.snr_coeff * (tc.real * tc.real
                                                       + tc.imag * tc.imag)).hex()


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
            assert walk.value == peek
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
            assert walk.value == peek
            assert walk.value == pytest.approx(obj.value(walk.x), abs=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.booleans(),
           st.lists(st.tuples(st.sampled_from(["peek", "apply peeked", "apply other"]),
                              st.integers(0, 10**6)), max_size=60))
    def test_interleaved_peeks_never_go_stale(self, seed, quadratic, calls):
        # a walk driven through peeks and applies in any order holds what a
        # twin makes of the same applies without peeks, and its levels are
        # those of a walk rebuilt from x
        state, cal, cfg = make_instance(seed=seed % 17, n=4, bq=2, bc=3)
        obj = (QuadraticObjective(build_qubo(state, CostWeights(), cal, OPT, RF, cfg))
               if quadratic else ExactObjective(state, CostWeights(), cal, OPT, RF, cfg))
        x0 = np.random.default_rng(seed).integers(0, 2, obj.dim, dtype=np.uint8)
        walk, twin = obj.walk(x0), obj.walk(x0)
        peeked = 0
        for call, k in calls:
            i = k % obj.dim
            if call == "peek":
                peeked = i
                walk.peek_flip(i)
                continue
            i = peeked if call == "apply peeked" else i
            walk.apply_flip(i)
            twin.apply_flip(i)
            assert walk.value == twin.value
            assert np.array_equal(walk.x, twin.x)
        rebuilt = obj.walk(walk.x)
        assert walk.value == pytest.approx(rebuilt.value, rel=1e-10, abs=1e-12)
        if not quadratic:
            assert (walk._totals, walk._terms) == (twin._totals, twin._terms)
            assert walk._levels == rebuilt._levels
        scores, err = walk.peek_all()
        for i in range(obj.dim):
            assert abs(walk.peek_flip(i) - scores[i]) <= err[i]

    def test_peek_all_bounds_every_peek_at_a_benchmark_state(self):
        cfg = RunConfig(seed=workloads.STATE_SEED)
        state, ris_cfg, _ = build_channel_state(cfg, workloads.pinned_calibration(), 45.0, 512)
        obj = ExactObjective(state, cfg.weights, workloads.pinned_calibration(), cfg.optical,
                             cfg.rf, ris_cfg)
        rng = np.random.default_rng(4)
        walk = obj.walk(rng.integers(0, 2, obj.dim, dtype=np.uint8))
        for i in rng.integers(0, obj.dim, size=50).tolist():
            walk.apply_flip(i)
        scores, err = walk.peek_all()
        peeks = np.array([walk.peek_flip(i) for i in range(obj.dim)])
        assert (np.abs(peeks - scores) <= err).all()
        assert (err < 1e-13 * np.abs(scores)).all()          # a bound tight enough to screen

    def test_quadratic_peek_all_is_exact(self, model_n64):
        model = model_n64[2]
        walk = QuadraticObjective(model).walk(
            np.random.default_rng(6).integers(0, 2, model.dim, dtype=np.uint8))
        for i in range(0, model.dim, 7):
            walk.apply_flip(i)
        scores, err = walk.peek_all()
        assert scores.tolist() == [walk.peek_flip(i) for i in range(model.dim)]
        assert not err.any()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 40), st.integers(1, 3), st.integers(1, 3), st.integers(0, 50),
           st.integers(0, 2**32 - 1))
    def test_exact_batch_equals_inline_reference(self, n, bq, bc, rows, seed):
        # against a per-band inline expression; brute force and expansion_error
        # read these values, and coordinate descent's screen shares their terms
        state, cal, cfg = make_instance(seed=seed % 17, n=n, bq=bq, bc=bc)
        obj = ExactObjective(state, CostWeights(), cal, OPT, RF, cfg)
        xs = np.random.default_rng(seed).integers(0, 2, size=(rows, obj.dim), dtype=np.uint8)
        got = obj.batch(xs)
        lq, lc = bits_to_levels(xs, cfg)
        tq = obj.h0q + (obj.uq * obj.bands[0][2][lq]).sum(axis=1)
        tc = obj.h0c + (obj.uc * obj.bands[1][2][lc]).sum(axis=1)
        eps_terms, log_terms = obj.terms(tq, tc)
        assert got.tobytes() == (eps_terms + log_terms).tobytes()

    @pytest.mark.parametrize("n,bq,bc", [(5, 2, 3), (4, 3, 1)])
    def test_flip_table_entries_are_the_scalar_deltas(self, n, bq, bc):
        state, cal, cfg = make_instance(seed=4, n=n, bq=bq, bc=bc)
        self.check_flip_table(ExactObjective(state, CostWeights(), cal, OPT, RF, cfg))

    def test_flip_table_entries_at_a_benchmark_state(self):
        cfg = RunConfig(seed=workloads.STATE_SEED)
        state, ris_cfg, _ = build_channel_state(cfg, workloads.pinned_calibration(), 45.0, 512)
        self.check_flip_table(ExactObjective(state, cfg.weights, workloads.pinned_calibration(),
                                             cfg.optical, cfg.rf, ris_cfg))

    @staticmethod
    def check_flip_table(obj):
        # each entry equals the numpy scalar product u_n (phasor[new] - phasor[old]),
        # and so do the deltas at given levels, which peek_all reads
        table, base, elem, band, mask = qubo._flip_table(obj)
        bands = [(u, phasor, width) for (_, u, phasor), width in zip(obj.bands, (obj.bq, obj.bc))]
        rng = np.random.default_rng(obj.n)
        levels = [rng.integers(0, len(phasor), obj.n) for _, phasor, _ in bands]
        at_levels = [qubo._flip_deltas(u, phasor, width, lev)
                     for (u, phasor, width), lev in zip(bands, levels)]
        bits = [(b, n, k) for b, (_, _, width) in enumerate(bands)
                for n in range(obj.n) for k in range(width)]
        assert len(base) == len(elem) == len(band) == len(mask) == obj.dim == len(bits)
        # the element list as a nested comprehension builds it, in Python ints
        assert elem == [e for b, (_, _, width) in enumerate(bands)
                        for e in range(b * obj.n, (b + 1) * obj.n) for _ in range(width)]
        assert all(type(e) is int for e in elem)
        for i, (b, n, k) in enumerate(bits):
            u, phasor, _ = bands[b]
            assert (band[i], elem[i], mask[i]) == (b, b * obj.n + n, 1 << k)
            for old in range(len(phasor)):
                expected = u[n] * (phasor[old ^ mask[i]] - phasor[old])
                got = table[base[i] + old]
                assert (got.real, got.imag) == (expected.real, expected.imag)
                assert type(got) is complex
            assert at_levels[b][n, k] == table[base[i] + levels[b][n]]

    @pytest.mark.parametrize("n", [128, 512])
    def test_solver_results_pinned_at_benchmark_states(self, n):
        # bcd, anneal and tabu at 45 deg with the solve workload's budgets:
        # bits, value, evaluation count and trace; bcd and tabu as pinned
        # before the single-band flip kernel and the per-band coordinate step,
        # anneal as re-pinned for its start at the walk's flip spread
        cfg = RunConfig(seed=workloads.STATE_SEED)
        state, ris_cfg, _ = build_channel_state(cfg, workloads.pinned_calibration(), 45.0, n)
        obj = ExactObjective(state, cfg.weights, workloads.pinned_calibration(), cfg.optical,
                             cfg.rf, ris_cfg)
        (sweeps, restarts), (moves, tabu_restarts) = (workloads.ANNEAL_BUDGET[n],
                                                      workloads.TABU_BUDGET[n])
        got = {"bcd": _digest(block_coordinate_descent(obj, SolverConfig(kind="bcd")))}
        for seed in (1, 2):
            got[f"anneal {seed}"] = _digest(simulated_annealing(obj, obj.dim, SolverConfig(
                kind="anneal", seed=seed, max_iters=sweeps, restarts=restarts)))
            got[f"tabu {seed}"] = _digest(tabu_search(obj, obj.dim, SolverConfig(
                kind="tabu", seed=seed, max_iters=moves, restarts=tabu_restarts)))
        assert got == PINNED_BENCHMARK_SOLVES[n]

    @pytest.mark.parametrize("n", workloads.SOLVE_SIZES)
    @pytest.mark.parametrize("elevation", workloads.SOLVE_ELEVATIONS)
    def test_bcd_results_pinned_at_every_benchmark_state(self, elevation, n):
        # bits, value, evaluation count and trace at the solve workload's 9
        # states, as pinned before coordinate descent screened its late sweeps
        cfg = RunConfig(seed=workloads.STATE_SEED)
        cal = workloads.pinned_calibration()
        state, ris_cfg, _ = build_channel_state(cfg, cal, elevation, n)
        obj = ExactObjective(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        result = block_coordinate_descent(obj, SolverConfig(kind="bcd"))
        assert _digest(result) == PINNED_BCD[elevation, n]

    @pytest.mark.parametrize("n", workloads.SOLVE_SIZES)
    @pytest.mark.parametrize("elevation", workloads.SOLVE_ELEVATIONS)
    def test_heuristic_results_pinned_at_every_benchmark_state(self, elevation, n):
        # anneal and tabu with the solve workload's budgets, seeds 1 and 2;
        # tabu as pinned before the screened tabu neighbourhood and the peek
        # reuse, anneal as re-pinned for its start at the walk's flip spread
        cfg = RunConfig(seed=workloads.STATE_SEED)
        cal = workloads.pinned_calibration()
        state, ris_cfg, _ = build_channel_state(cfg, cal, elevation, n)
        obj = ExactObjective(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        (sweeps, restarts), (moves, tabu_restarts) = (workloads.ANNEAL_BUDGET[n],
                                                      workloads.TABU_BUDGET[n])
        got = []
        for seed in (1, 2):
            got.append(_digest(simulated_annealing(obj, obj.dim, SolverConfig(
                kind="anneal", seed=seed, max_iters=sweeps, restarts=restarts))))
            got.append(_digest(tabu_search(obj, obj.dim, SolverConfig(
                kind="tabu", seed=seed, max_iters=moves, restarts=tabu_restarts))))
        assert tuple(got) == PINNED_HEURISTICS[elevation, n]

    def test_tabu_results_pinned_with_the_campaign_budget(self):
        # criterion 6's tabu budget on its first 20 instances (dim 4 to 16):
        # aspiration fires on 14 of them and the all-tabu fallback on 10
        got = []
        for i in range(len(PINNED_CAMPAIGN_TABU)):
            obj = campaign_instance(1000 + i, 1 + i % 4)
            got.append(_digest(tabu_search(obj, obj.dim, SolverConfig(
                kind="tabu", seed=i, max_iters=150, tabu_tenure=8, restarts=5))))
        assert got == PINNED_CAMPAIGN_TABU


PINNED_BCD = {
    (20.0, 128): "226cee9a467c365fe83dc38bff36640c0e4b66ba997d579246f3f4d3e95b6235",
    (20.0, 512): "acd045aa88845f6114aad0b66babfd8e9749484f0cd5bf9df79a51fce61770a7",
    (20.0, 4096): "fe869f7798cac634d63a06a65ab6a00cd191ea5d9177f6e0f40d65ea1abbf9f4",
    (45.0, 128): "1a4c65698b371e24d49af7996f74822df4e13ae67e7abd79916f107a572a7968",
    (45.0, 512): "8d5dbf722dd9c4f38585f2e6802aec5c1878b4cfda430f3da39382058558b5e4",
    (45.0, 4096): "81e1c39869411d4fc2a2370a67f969ae02af8a4cf3b1093e302858893300f483",
    (80.0, 128): "e13e8e6584d1e0f625e08e31127b25c949980265027f6c4b7baa492c2d227915",
    (80.0, 512): "68a10ebc88c6279dc41f97bd62fb0d4c4c43355905447e6e17d352fdd7e2c601",
    (80.0, 4096): "8176fcdce5622355871e839bf2cfe8e16bc7940b84176cfbb9209c4d3a40f129",
}

PINNED_BENCHMARK_SOLVES = {
    128: {"bcd": "1a4c65698b371e24d49af7996f74822df4e13ae67e7abd79916f107a572a7968",
          "anneal 1": "a8403aaabeeb9cb9050103682e48a7ae33a5107348ab4d04caeb870250d886e1",
          "tabu 1": "ea463fbea751dc9fff0720d452af38537d6fcb3ad56b8d3c623aee7f15f51270",
          "anneal 2": "10f89f17f5ee1f67750da4e5d01a019fbb2a3a468cf0036afe93565639944b70",
          "tabu 2": "c8574693ea85ac1e034b72747d0cffdd635c880048852a40f65f2fe5259ebc10"},
    512: {"bcd": "8d5dbf722dd9c4f38585f2e6802aec5c1878b4cfda430f3da39382058558b5e4",
          "anneal 1": "ca972090b24aab34c35e984e8379195f91530103538cdf8650d192d53b92c0ea",
          "tabu 1": "a4c9741b5d3fd55882a350a5409b52d7ae41bc913135c6ffbfc5a5e77be6d94e",
          "anneal 2": "44b9e48afbd42f34b7280bd76f5c91d05d26fa0d332bc1556e49412f76dba405",
          "tabu 2": "7b8fceaaa052fa3580827a4ad5052cb0c32b782c7c74124f5e18958c752e7970"},
}

PINNED_HEURISTICS = {
    (20.0, 128): (
        "6bbaea2044a6683d16ef42185923f1244486711b2fc2485b7c23cff190e803bc",
        "8bc9341fb9ec5fde13960731105319cba3549fc23a9dec40ea47750e84190d9f",
        "6f33436b1afc8c9f557aef5eb4cb4e71c76c311737065eb7f6da561fbaacc34a",
        "3ef33ff56ea04cd3bbc5c78713a818bfbefb1f5b190cc17fda02743c57b50f23"),
    (20.0, 512): (
        "41ffb4462d9e7fa681083975806f845d8a332b1904faf357b8f6228b066533a9",
        "8f6ac362b89e74c5a184ffb1f14b2c2ac700b861c5ce52674af9d330b19a5d2e",
        "6293f4b3361f6be0bd12474e5eaff3aa82be4cf8dd2febab784775ea73505bba",
        "15cc5ca6e91c8437911c066f6ef5adc60662c49dead681148dc138656ef1274d"),
    (20.0, 4096): (
        "e615fa2a07f7d3f742eaaed906c3a29f9e7e2e5d3170d347ad91812cef198534",
        "58cc3f0880c7ee184aedec67c51e8e47c197adbf45818de41c8082502263124e",
        "b8f9189d2619f13180bca9d8c7c1a87dfcd48b5b1183657ba2c7cba0313e6321",
        "e0b6b3b4e2b5d508b78e0f834ad77113134bcef82943fbed740c5e3f6c24901a"),
    (45.0, 128): (
        "a8403aaabeeb9cb9050103682e48a7ae33a5107348ab4d04caeb870250d886e1",
        "ea463fbea751dc9fff0720d452af38537d6fcb3ad56b8d3c623aee7f15f51270",
        "10f89f17f5ee1f67750da4e5d01a019fbb2a3a468cf0036afe93565639944b70",
        "c8574693ea85ac1e034b72747d0cffdd635c880048852a40f65f2fe5259ebc10"),
    (45.0, 512): (
        "ca972090b24aab34c35e984e8379195f91530103538cdf8650d192d53b92c0ea",
        "a4c9741b5d3fd55882a350a5409b52d7ae41bc913135c6ffbfc5a5e77be6d94e",
        "44b9e48afbd42f34b7280bd76f5c91d05d26fa0d332bc1556e49412f76dba405",
        "7b8fceaaa052fa3580827a4ad5052cb0c32b782c7c74124f5e18958c752e7970"),
    (45.0, 4096): (
        "1c0ca0482438aa389e236af83cded9ae069e20058543704a1c7c011ed12dca94",
        "cd278155dbc1aa23d9eb7c4a553b08be9ac095a5308a460d261e1c06b39064cc",
        "2f92fa0636d0dd610087851008d51ec7c6916e14b1d8467b4b4bf8a9c28c4724",
        "5ba04240f53d32cb8494353ba0e0f8b59ba716ce9533e365b19498550698cf82"),
    (80.0, 128): (
        "6bb0d71fb4536e674fbd66c3718bee0666b4bf2a9f5621795335b7ddae1efd9b",
        "f90c1a48438ffa375b0d924eed713dad949c0c204dc7cf6808064c2923b5128b",
        "50c8764fbd132230bfd75f18e6e3e74bf7c628af3ef737f459dc4c0f0c48be99",
        "29b2b3ce778af63c00b0b080bf9fbd1ebfa8fe1186ab1522f1e7bce48cf72de9"),
    (80.0, 512): (
        "a029da5dde4587bc17527926592f021c9fc00172b5c160eaefc42487b1f8f998",
        "b6ea9b41aa38e4229ddea72fc6d1ba9c2399a2a24fe88ae658ddd9134626a331",
        "59cbd6e3f328a804a64f86a43676630f73b11e7e3c394549d93516bbf4f4e9db",
        "13492996e0c7e6ba74118b1bd2aa106594545b20fdf5b1c9aaf4ce0de1367c44"),
    (80.0, 4096): (
        "06b2861c5b69efd011949b4d80ed33311f0cc5bb56646bf055a581ec77b858fb",
        "a4ed8e2424c16c448077fa0c27edbee33af226939ce0dec3dbdf8e9cd657a776",
        "074c0f583e5b22df2203517547703f96e3b5d575b270dbb5c54850ea71a00a27",
        "fab0859157748986f976c27a4ce0697819756d36c790376c6fdc4657a10e89d6"),
}

PINNED_CAMPAIGN_TABU = [
    "07210405a45a032c051bc106589060c8d476df54fff911ef58dc92b4c59ed336",
    "4f851f96f2dce4248236b4637b786a2aad409ae2e94e811a1cc1bcd9ca986739",
    "39409339e5dee948ad2db06b587651c711b0df8ea34b315caef84e6cae39937c",
    "4b492528f9bd5db0f83f5f45ec8b2875a98e20c2840bc0eda156cef336dd8001",
    "d71a9fbaa3e0937a357f754a7066bbad1433546c2920923be1d0c2cf3d6792ec",
    "fe433ad0991a3cf39c7081445824a0c8593afd39f1dbbd5f29e54a1a6129a70a",
    "9573f15e02ba03f0fc0a6ddaf94723ccec4d41eba50bc1bddbf4166a0586ab8a",
    "4bf5b8f400ed5e1f97e0315999ad8c815ffe234de68a37252df010ebf92491cd",
    "f1df2ac1d2ea5041335518ead976510cf72bd503c0153c039220373bf2c76222",
    "48c78320404bd40cc6bf6ea451cf90fbbf841fa5fa572663e98d73ae1fd4e314",
    "340fbf7375c5c063fdf4102c706882e388a2d2e60e0822cd472ff528b3e86531",
    "34fc694935770496f6c64e217df0e3ebcd1b018b5460d9e13e74872e0aba72d9",
    "c63a9424b91e7c08f161b993ba02421fa67174df4cd8eaaccec1254aebb81859",
    "c0a3e76cdfaf3c780fb47a418bbe91d28d10125c39fc19d9f9972b261c9a87f2",
    "f1d7956a9c9fde1fd8dbb4349de6bbdf2dfdea417b616ecfa26db63ade6bb6e7",
    "6b1e44dabdfbcfa6de8d54a6c53d62ba6331e8f98c9d1afc8b2a7d92cb65c6d5",
    "93e31461a2b9f5fd4d5fe586c2d75fc081ec95feeb19cf0f4dd28fc6a7743053",
    "c0b9b67701bec37205de3b8ce8f01af272f8df41cf43e2ae31e0a84772299217",
    "cdf06673aa61617beba3422114fd023afc7951a6833f548b5cfee8d44fb764f9",
    "12a09732916b98366c08a0a5e167eef77e11e54e81880405786610f8f4c5184d",
]
