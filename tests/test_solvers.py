import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.experiments import RunConfig, build_channel_state
from dualris.metrics import BOLTZMANN, Calibration, CostWeights, field_gain_qber_array
from dualris.qubo import ExactObjective, QuadraticObjective, QuboModel
from dualris.ris import ChannelState, RisConfig, bits_to_levels, levels_to_bits
from dualris import qubo, solvers
from dualris.solvers import (
    SCREEN_BLOCK,
    SolverConfig,
    band_sweep,
    block_coordinate_descent,
    brute_force,
    enforce_security,
    min_qber,
    simulated_annealing,
    solve,
    tabu_search,
    trace_csv_lines,
)
from perfbench import oracle, workloads

OPT = OpticalParams()
RF = RfParams()


def linear_model(coeffs, offset=0.0):
    c = np.asarray(coeffs, float)
    return QuboModel(dim=len(c), linear=c, pair_i=np.zeros(0, np.int32),
                     pair_j=np.zeros(0, np.int32), pair_w=np.zeros(0), offset=offset)


def random_instance(seed, n, amp_lo=0.02, amp_hi=0.3, bits=(2, 2)):
    rng = np.random.default_rng(seed)
    cfg = RisConfig(n_elements=n, bits_quantum=bits[0], bits_classical=bits[1])
    state = ChannelState(
        ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
        ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
        rng.uniform(amp_lo, amp_hi, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)),
        rng.uniform(amp_lo, amp_hi, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
    noise = BOLTZMANN * RF.sys_temp_k * RF.bandwidth_hz
    cal = Calibration(raw_rate_scale=1000.0, effective_visibility=0.98,
                      h_ref_sq=1.0 / rng.uniform(50, 200),
                      rf_gain_offset_db=10 * math.log10(100 * noise / RF.tx_power_w))
    return ExactObjective(state, CostWeights(), cal, OPT, RF, cfg), cfg


def exhaustive(obj, cfg):
    """Every bit vector's cost and QBER, the QBER from its own band total."""
    xs = np.array(list(itertools.product((0, 1), repeat=cfg.bits_total)),
                  np.uint8).reshape(2 ** cfg.bits_total, cfg.bits_total)
    lq, _ = bits_to_levels(xs, cfg)
    phasor = np.exp(2j * np.pi * lq / 2 ** cfg.bits_quantum)
    tq = obj.h0q + (obj.uq * phasor).sum(axis=1)
    return obj.batch(xs), field_gain_qber_array(np.abs(tq), obj.direct_amp, obj.eps_base,
                                                obj.p_dark)


class TestBruteForce:
    def test_dim_zero(self):
        model = linear_model([], offset=1.25)
        result = brute_force(QuadraticObjective(model), 0)
        assert result.best_bits.size == 0
        assert result.best_value == 1.25

    def test_tie_breaks_lexicographically(self):
        # minima at (0,0) and (1,1), both 0: the lex-smaller vector wins
        model = QuboModel(dim=2, linear=np.array([1.0, 1.0]),
                          pair_i=np.array([0], np.int32), pair_j=np.array([1], np.int32),
                          pair_w=np.array([-2.0]), offset=0.0)
        result = brute_force(QuadraticObjective(model), 2)
        assert result.best_bits.tolist() == [0, 0]
        assert result.best_value == 0.0

    def test_single_variable(self):
        result = brute_force(QuadraticObjective(linear_model([-1.0], offset=0.5)), 1)
        assert result.best_bits.tolist() == [1]
        assert result.best_value == -0.5

    def test_hard_cap(self):
        with pytest.raises(ValueError):
            brute_force(QuadraticObjective(linear_model([0.0] * 25)), 25)


@pytest.mark.parametrize("kind,dim", [("anneal", 4), ("tabu", 4), ("tabu", 64), ("brute", 4)])
def test_all_nan_objective_is_refused(kind, dim):
    # no value compares below the running best, so there is no state to report;
    # at 64 bits tabu screens its moves
    obj = QuadraticObjective(linear_model([math.nan] * dim))
    cfg = SolverConfig(kind=kind, max_iters=2)
    with pytest.raises(ValueError, match="no finite objective value was found"):
        {"anneal": simulated_annealing, "tabu": tabu_search,
         "brute": lambda o, d, c: brute_force(o, d)}[kind](obj, dim, cfg)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["anneal", "tabu"])
    def test_same_seed_same_result(self, kind):
        obj, cfg = random_instance(12, 3)
        scfg = SolverConfig(kind=kind, seed=77, max_iters=60, restarts=2)
        a = solve(obj, cfg.bits_total, scfg)
        b = solve(obj, cfg.bits_total, scfg)
        assert np.array_equal(a.best_bits, b.best_bits)
        assert a.best_value == b.best_value
        assert a.evaluations == b.evaluations
        assert a.trace == b.trace

    def test_different_seeds_explore_differently(self):
        obj, cfg = random_instance(12, 4)
        a = simulated_annealing(obj, cfg.bits_total,
                                SolverConfig(kind="anneal", seed=1, max_iters=5, restarts=1))
        b = simulated_annealing(obj, cfg.bits_total,
                                SolverConfig(kind="anneal", seed=2, max_iters=5, restarts=1))
        assert a.evaluations == b.evaluations  # same budget, independent paths


class TestTraces:
    @pytest.mark.parametrize("kind", ["exact", "brute", "anneal", "tabu", "bcd"])
    def test_trace_non_increasing(self, kind):
        obj, cfg = random_instance(5, 3)
        result = solve(obj, cfg.bits_total, SolverConfig(kind=kind, seed=3, max_iters=80))
        values = [v for _, v in result.trace]
        assert values, "every solver must record at least one trace point"
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_csv_lines(self):
        obj, cfg = random_instance(5, 2)
        result = solve(obj, cfg.bits_total, SolverConfig(kind="tabu", seed=3, max_iters=20))
        lines = trace_csv_lines(result)
        assert lines[0] == "iteration,best_value"
        assert len(lines) == len(result.trace) + 1

    @pytest.mark.parametrize("kind", ["exact", "brute", "anneal", "tabu", "bcd"])
    def test_best_value_is_rescored(self, kind):
        obj, cfg = random_instance(9, 3)
        result = solve(obj, cfg.bits_total, SolverConfig(kind=kind, seed=4, max_iters=60))
        assert result.best_value == pytest.approx(obj.value(result.best_bits), rel=1e-12)


class TestSimulatedAnnealing:
    def test_zero_temperature_is_greedy_descent(self):
        obj, cfg = random_instance(21, 3)
        with mock.patch.object(solvers, "_auto_temperature", return_value=1e-300):
            result = simulated_annealing(
                obj, cfg.bits_total, SolverConfig(kind="anneal", seed=5, max_iters=50,
                                                  restarts=1))
        values = [v for _, v in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))
        # greedy descent ends in a local minimum: no single flip improves
        walk = obj.walk(result.best_bits)
        assert all(walk.peek_flip(i) >= result.best_value - 1e-15
                   for i in range(cfg.bits_total))


class TestTabu:
    def test_terminates_with_huge_tenure(self):
        # tenure larger than the variable count still stops at max_iters
        obj, cfg = random_instance(2, 1)   # dim = 4
        result = tabu_search(obj, cfg.bits_total,
                             SolverConfig(kind="tabu", seed=0, max_iters=25,
                                          tabu_tenure=50, restarts=1))
        assert result.evaluations > 0

    def test_separable_model_reaches_sign_optimum(self):
        # with no pair terms a steepest-descent pass fixes one coordinate per
        # move, so the optimum is reached within dim iterations
        c = np.array([0.5, -0.25, 1.5, -2.0, 0.75, -0.1])
        model = QuadraticObjective(linear_model(c))
        result = tabu_search(model, 6, SolverConfig(kind="tabu", seed=8,
                                                    max_iters=6, restarts=1))
        assert result.best_bits.tolist() == [0, 1, 0, 1, 0, 1]
        assert result.best_value == pytest.approx(c[c < 0].sum())

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.integers(1, 4), st.integers(5, 600)), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from(["exact", "quadratic"]),
           st.sampled_from([None, math.inf, 2.34e307]), st.integers(0, 2**32 - 1), st.data())
    def test_screened_moves_equal_the_plain_loop(self, n, bq, bc, objective, beta, seed, data):
        # tenure up to dim with more moves than dim runs the all-tabu fallback;
        # beta = inf makes every value -inf or NaN, and 2.34e307 overflows some.
        # Their surrogates can be NaN throughout, where no solver finds a best
        assume(objective == "exact" or beta is None)
        if objective == "quadratic":
            n = min(n, 40)                   # the surrogate's pairs grow as N^2
        obj = tabu_instance(seed, n, (bq, bc), beta, objective == "quadratic")
        tenure = data.draw(st.integers(1, obj.dim), label="tenure")
        moves = data.draw(st.integers(1, 3 * obj.dim if obj.dim <= 16 else 12), label="moves")
        restarts = data.draw(st.integers(1, 2), label="restarts")
        self.check_plain_loop(obj, SolverConfig(kind="tabu", seed=seed, max_iters=moves,
                                                tabu_tenure=tenure, restarts=restarts))

    @pytest.mark.parametrize("n,bits,beta,quadratic,moves,tenure", [
        (2, (1, 1), None, False, 30, 4),      # the all-tabu fallback
        (3, (2, 1), None, True, 30, 9),
        (4, (2, 2), None, False, 60, 8),      # aspiration
        (30, (2, 2), None, False, 60, 8),
        (16, (2, 2), None, False, 150, 64),   # the fallback at the screen's smallest dim
        (16, (2, 2), None, True, 150, 64),
        (300, (2, 2), None, False, 10, 8),
        (300, (2, 2), math.inf, False, 5, 8),
        (300, (2, 2), 2.34e307, False, 10, 3),
        (40, (2, 2), 2.34e307, True, 10, 3),
    ])
    def test_screened_cases_equal_the_plain_loop(self, n, bits, beta, quadratic, moves, tenure):
        obj = tabu_instance(3, n, bits, beta, quadratic)
        self.check_plain_loop(obj, SolverConfig(kind="tabu", seed=5, max_iters=moves,
                                                tabu_tenure=tenure, restarts=2))

    @pytest.mark.parametrize("how", ["walk", "arrays"])
    def test_screen_never_excludes_nan(self, how):
        if how == "walk":
            # infinite weights of both signs: every score is inf - inf
            obj, cfg = random_instance(4, 8)
            obj = ExactObjective(obj.state, CostWeights(alpha=math.inf, beta=math.inf), obj.cal,
                                 OPT, RF, cfg)
            scores, err = obj.walk(np.zeros(obj.dim, np.uint8)).peek_all()
            assert np.isnan(scores).all()
        else:
            scores = np.array([1.0, math.nan, 2.0, math.nan, -1.0, math.nan])
            err = np.array([0.0, 0.0, math.inf, math.nan, 0.0, 1.0])
        for best in (-math.inf, -1.0, 0.0, math.inf):
            for is_tabu in (np.zeros(len(scores), bool), np.ones(len(scores), bool),
                            np.arange(len(scores)) % 2 == 0):
                keep = solvers._tabu_screen(scores, err, is_tabu, best)
                assert keep[np.isnan(scores)].all()

    def test_screen_scores_one_flip_per_move_at_a_benchmark_state(self):
        # 45 deg, N = 512: 4096 flips per move, of which the scalar rule sees one
        cfg = RunConfig(seed=workloads.STATE_SEED)
        state, ris_cfg, _ = build_channel_state(cfg, workloads.pinned_calibration(), 45.0, 512)
        obj = ExactObjective(state, cfg.weights, workloads.pinned_calibration(), cfg.optical,
                             cfg.rf, ris_cfg)
        peeks = []
        walk = obj.walk

        def counting_walk(x):
            w = walk(x)
            peek = w.peek_flip
            w.peek_flip = lambda i: peeks.append(i) or peek(i)
            return w

        with mock.patch.object(obj, "walk", counting_walk):
            result = tabu_search(obj, obj.dim, SolverConfig(kind="tabu", seed=1, max_iters=8,
                                                            restarts=1))
        assert len(peeks) == 8 and result.evaluations == 1 + 8 * obj.dim

    @staticmethod
    def check_plain_loop(obj, scfg):
        # as it runs, and with the screen in front of every move at any dim
        ref = plain_tabu(obj, obj.dim, scfg)
        for min_dim in (solvers.TABU_SCREEN_MIN_DIM, 1):
            with mock.patch.object(solvers, "TABU_SCREEN_MIN_DIM", min_dim):
                got = tabu_search(obj, obj.dim, scfg)
            assert np.array_equal(got.best_bits, ref.best_bits)
            assert float(got.best_value).hex() == float(ref.best_value).hex()
            assert got.evaluations == ref.evaluations
            assert [(e, float(v).hex()) for e, v in got.trace] == \
                [(e, float(v).hex()) for e, v in ref.trace]


def tabu_instance(seed, n, bits, beta, quadratic):
    """random_instance, with beta overriding the weights, or its QUBO surrogate.

    The surrogate is taken unchecked: build_qubo refuses one that overflows.
    """
    obj, cfg = random_instance(seed, n, bits=bits)
    weights = CostWeights() if beta is None else CostWeights(alpha=1.0, beta=beta)
    if quadratic:
        with np.errstate(all="ignore"):
            return QuadraticObjective(qubo._surrogate(obj.state, weights, obj.cal, OPT, RF,
                                                      cfg, None))
    return ExactObjective(obj.state, weights, obj.cal, OPT, RF, cfg)


def plain_tabu(objective, dim, cfg):
    """tabu_search without the screen: every move peeks at every flip in index order."""
    rng = np.random.default_rng(cfg.seed)
    best = solvers._Best()
    trace = []
    evaluations = 0
    for _ in range(cfg.restarts):
        x0 = rng.integers(0, 2, size=dim, dtype=np.uint8)
        walk = objective.walk(x0)
        evaluations += 1
        if best.offer(walk.value, walk.x):
            trace.append((evaluations, best.value))
        last_flip = [-10**9] * dim
        for it in range(cfg.max_iters):
            chosen = -1
            chosen_val = math.inf
            for i in range(dim):
                cand = walk.peek_flip(i)
                evaluations += 1
                tabu = (it - last_flip[i]) <= cfg.tabu_tenure
                if tabu and not cand < best.value:
                    continue
                if cand < chosen_val:
                    chosen_val = cand
                    chosen = i
            if chosen < 0:
                chosen = int(np.argmin(last_flip))
            walk.apply_flip(chosen)
            last_flip[chosen] = it
            if best.offer(walk.value, walk.x):
                trace.append((evaluations, best.value))
    return solvers._finalize(objective, best.bits, evaluations, trace)


class TestBcd:
    def test_single_element_is_exhaustive(self):
        obj, cfg = random_instance(31, 1)
        bcd = block_coordinate_descent(obj, SolverConfig(kind="bcd", max_iters=10))
        oracle = brute_force(obj, cfg.bits_total)
        assert bcd.best_value == pytest.approx(oracle.best_value, rel=1e-12)

    def test_monotone_updates(self):
        obj, cfg = random_instance(32, 4)
        result = block_coordinate_descent(obj, SolverConfig(kind="bcd", max_iters=50))
        values = [v for _, v in result.trace]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_requires_exact_objective(self):
        with pytest.raises(TypeError):
            block_coordinate_descent(QuadraticObjective(linear_model([1.0])),
                                     SolverConfig(kind="bcd"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([0.3, 1.0]), st.integers(0, 2**32 - 1))
    def test_band_split_equals_the_joint_scan(self, n, bq, bc, amp_hi, seed):
        # amp_hi = 1.0 reaches the QBER clamp, where many quantum terms tie
        obj, cfg = random_instance(seed, n, amp_hi=amp_hi, bits=(bq, bc))
        self.check_joint_scan(obj)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(SCREEN_BLOCK + 1, 600), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([0.3, 1.0]), st.integers(0, 2**32 - 1))
    def test_screened_sweeps_equal_the_joint_scan(self, n, bq, bc, amp_hi, seed):
        # more than one screen block, and late sweeps that the screen thins out
        obj, cfg = random_instance(seed, n, amp_hi=amp_hi, bits=(bq, bc))
        self.check_joint_scan(obj)

    @pytest.mark.parametrize("n,amp_hi,seed", [(300, 0.3, 5), (600, 0.3, 6), (600, 1.0, 7)])
    def test_screened_cases_equal_the_joint_scan(self, n, amp_hi, seed):
        obj, _ = random_instance(seed, n, amp_hi=amp_hi)
        result = self.check_joint_scan(obj)
        assert result.evaluations > 2 * 16 * n       # the screen ran in late sweeps

    def test_cancelling_terms_equal_the_joint_scan(self):
        # beta makes the two terms cancel where the descent ends, so |value|
        # falls far below the screen's slack and it clears nothing
        obj, cfg = random_instance(11, 400)
        probe = ExactObjective(obj.state, CostWeights(alpha=1.0, beta=1.0), obj.cal, OPT,
                               RF, cfg)
        tq, tc = probe.totals_of(block_coordinate_descent(
            probe, SolverConfig(kind="bcd", max_iters=50)).best_bits)
        beta = probe.quantum_term(tq) / -probe.classical_term(tc)
        obj = ExactObjective(obj.state, CostWeights(alpha=1.0, beta=beta), obj.cal, OPT, RF, cfg)
        kept_all = []

        def spy(*args):
            keep = unclearable(*args)
            kept_all.append(keep.all())
            return keep

        unclearable = solvers._unclearable
        with mock.patch.object(solvers, "_unclearable", spy):
            result = self.check_joint_scan(obj)
        assert abs(result.best_value) < 1e-9 * obj.quantum_term(tq)
        assert kept_all and all(kept_all)

    def test_infinite_weight_equals_the_joint_scan(self):
        # the value is -inf from the start, so no visit changes anything
        obj, cfg = random_instance(3, 300)
        obj = ExactObjective(obj.state, CostWeights(alpha=1.0, beta=math.inf), obj.cal, OPT,
                             RF, cfg)
        result = self.check_joint_scan(obj)
        assert result.trace == [(1, -math.inf)]

    def test_overflowing_weight_is_never_screened_out(self):
        # beta times the start's log term is just finite, so the first change
        # overflows the value to -inf and the second sweep's screen meets NaN.
        # The band split and the joint scan pick different levels once a term
        # is infinite, so the reference is the descent with every visit made.
        obj, cfg = random_instance(3, 300)
        _, tc = obj.totals_of(np.zeros(cfg.bits_total, np.uint8))
        beta = 1.7e308 / math.log2(1.0 + obj.snr_coeff * abs(tc) ** 2)
        obj = ExactObjective(obj.state, CostWeights(alpha=1.0, beta=beta), obj.cal, OPT, RF, cfg)
        scfg = SolverConfig(kind="bcd", max_iters=50)
        screened = block_coordinate_descent(obj, scfg)
        with mock.patch.object(solvers, "_unclearable",
                               lambda obj, cand_q, *rest: np.ones(cand_q.shape[1], bool)):
            every = block_coordinate_descent(obj, scfg)
        assert screened.trace[-1][1] == -math.inf and len(screened.trace) == 2
        assert screened.evaluations == every.evaluations == 1 + 2 * 16 * 300
        assert np.array_equal(screened.best_bits, every.best_bits)
        assert screened.trace == every.trace

    @pytest.mark.parametrize("nan_in", ["value", "quantum total", "classical total"])
    def test_screen_never_clears_nan(self, nan_in):
        obj, _ = random_instance(4, 8)
        cand_q = (obj.uq[:, None] * obj._phasor_q[None, :]).T.copy()
        cand_c = (obj.uc[:, None] * obj._phasor_c[None, :]).T.copy()
        tq, tc = obj.totals_of(np.zeros(obj.dim, np.uint8))
        value = obj.cost_from_totals(tq, tc)
        tq, tc, value = (complex(math.nan, tq.imag) if nan_in == "quantum total" else tq,
                         complex(tc.real, math.nan) if nan_in == "classical total" else tc,
                         math.nan if nan_in == "value" else value)
        keep = solvers._unclearable(obj, cand_q, cand_c, cand_q[0], cand_c[0], tq, tc, value)
        assert keep.all()

    @staticmethod
    def check_joint_scan(obj):
        result = block_coordinate_descent(obj, SolverConfig(kind="bcd", max_iters=50))
        bits, evaluations, trace = joint_scan_bcd(obj, 50)
        assert np.array_equal(result.best_bits, bits)
        assert (result.evaluations, result.trace) == (evaluations, trace)
        assert result.best_value == obj.value(bits)
        return result


def joint_scan_bcd(obj, max_iters):
    """Coordinate descent that scores all 2^b_Q * 2^b_C level pairs of each element
    and keeps the first strict minimum in lexicographic bit order."""
    def lex(bits):
        return sorted(range(1 << bits), key=lambda l: [(l >> k) & 1 for k in range(bits)])

    order_q, order_c = lex(obj.bq), lex(obj.bc)

    cand_q = qubo._product(obj.uq[:, None], obj._phasor_q).tolist()
    cand_c = qubo._product(obj.uc[:, None], obj._phasor_c).tolist()
    lq, lc = [0] * obj.n, [0] * obj.n
    tq = obj.h0q + sum(row[0] for row in cand_q)
    tc = obj.h0c + sum(row[0] for row in cand_c)
    value = obj.cost_from_totals(tq, tc)
    evaluations, trace = 1, [(1, value)]
    for _ in range(max_iters):
        changed = False
        for n in range(obj.n):
            base_q, base_c = tq - cand_q[n][lq[n]], tc - cand_c[n][lc[n]]
            best = (math.inf, lq[n], lc[n])
            for a in order_q:
                for b in order_c:
                    evaluations += 1
                    val = obj.cost_from_totals(base_q + cand_q[n][a], base_c + cand_c[n][b])
                    if val < best[0]:
                        best = (val, a, b)
            val, a, b = best
            if value - val > 1e-12 * abs(value) and (a, b) != (lq[n], lc[n]):
                tq, tc = base_q + cand_q[n][a], base_c + cand_c[n][b]
                lq[n], lc[n], value, changed = a, b, val, True
                trace.append((evaluations, value))
        if not changed:
            break
    return levels_to_bits(lq, lc, obj.cfg), evaluations, trace


class TestBandSweep:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 16),
           st.integers(0, 10**6))
    def test_equals_brute_force(self, bq, bc, n_raw, seed):
        n = n_raw % (16 // (bq + bc) + 1)            # dim <= 16
        obj, cfg = random_instance(seed, n, bits=(bq, bc))
        exact = band_sweep(obj)
        oracle = brute_force(obj, cfg.bits_total)
        assert abs(exact.best_value - oracle.best_value) <= 1e-12 * abs(oracle.best_value)
        # the sweep also reaches the smallest QBER of all, which the fallback needs
        _, qbers = exhaustive(obj, cfg)
        assert abs(min_qber(obj) - qbers.min()) <= 1e-12 * qbers.min()

    @pytest.mark.parametrize("n,bits", [(1, (2, 2)), (5, (1, 3)), (64, (3, 2))])
    def test_counts_band_totals(self, n, bits):
        obj, _ = random_instance(7, n, bits=bits)
        result = band_sweep(obj)
        assert result.evaluations == 2 + n * (2 ** bits[0] + 2 ** bits[1])
        assert result.trace == [(result.evaluations, result.best_value)]

    def test_zero_elements_is_brute_force(self):
        obj, _ = random_instance(7, 0)
        result, oracle = band_sweep(obj), brute_force(obj, 0)
        assert result.best_bits.size == 0
        assert (result.best_value, result.evaluations, result.trace) == (
            oracle.best_value, oracle.evaluations, oracle.trace)

    def test_repeat_calls_are_identical(self):
        obj, _ = random_instance(11, 300)
        a, b = band_sweep(obj), band_sweep(obj)
        assert np.array_equal(a.best_bits, b.best_bits)
        assert a.best_value == b.best_value

    def test_tie_goes_to_first_maximum_in_breakpoint_order(self):
        # element 1 has a zero cascade, so its level never changes |T|. Both
        # elements share the breakpoints pi/4, 3pi/4, ...; the stable order puts
        # element 0's first, so the first maximum (element 0 on level 1, facing
        # the direct path at pi/2) is met before element 1 leaves level 0.
        cfg = RisConfig(n_elements=2, bits_quantum=2, bits_classical=2)
        state = ChannelState(ComplexGain(1.0, math.pi / 2), ComplexGain(1.0, 0.0),
                             np.array([0.2, 0.0], complex), np.zeros(2, complex))
        cal = Calibration(raw_rate_scale=1000.0, effective_visibility=0.98,
                          h_ref_sq=1e-2, rf_gain_offset_db=0.0)
        obj = ExactObjective(state, CostWeights(), cal, OPT, RF, cfg)
        lq, lc = obj.levels_of(band_sweep(obj).best_bits)
        assert lq.tolist() == [1, 0]
        assert lc.tolist() == [0, 0]

    def test_feasible_result_is_its_own_fallback(self):
        obj, _ = random_instance(40, 3)
        result = band_sweep(obj)
        bits = result.best_bits
        assert min_qber(obj) == obj.qber_of(bits) <= 0.11
        checked = enforce_security(result, obj)
        assert checked.feasible is True
        assert checked.best_bits is bits and checked.best_feasible_bits is None

    def test_no_fallback_proves_infeasibility(self):
        # a reference power far above the channel puts the baseline QBER near
        # 50 %; no assignment of 2 small elements brings it under 11 %
        obj, cfg = random_instance(41, 2)
        obj = ExactObjective(obj.state, CostWeights(), Calibration(
            raw_rate_scale=1.0, effective_visibility=0.98, h_ref_sq=1e6), OPT, RF, cfg)
        result = band_sweep(obj)
        assert min_qber(obj) > 0.11
        assert exhaustive(obj, cfg)[1].min() > 0.11
        assert enforce_security(result, obj).feasible is False
        assert enforce_security(brute_force(obj, cfg.bits_total), obj).feasible is False

    def test_requires_exact_objective(self):
        with pytest.raises(TypeError):
            band_sweep(QuadraticObjective(linear_model([1.0])))


class TestBenchmarkStates:
    """The 9 channel states of the benchmark's solve workload, pinned calibration."""

    @pytest.mark.parametrize("n", workloads.SOLVE_SIZES)
    @pytest.mark.parametrize("elevation", workloads.SOLVE_ELEVATIONS)
    def test_exact_is_the_oracle_optimum_and_unbeaten(self, elevation, n):
        cfg = RunConfig(seed=workloads.STATE_SEED)
        state, ris_cfg, _ = build_channel_state(cfg, workloads.pinned_calibration(),
                                                elevation, n)
        obj = ExactObjective(state, cfg.weights, workloads.pinned_calibration(),
                             cfg.optical, cfg.rf, ris_cfg)
        exact = band_sweep(obj).best_value
        opt = oracle.optimum(obj)
        assert abs(oracle.relative_excess(exact, opt)) <= 1e-12
        (sweeps, restarts), (moves, tabu_restarts) = (workloads.ANNEAL_BUDGET[n],
                                                      workloads.TABU_BUDGET[n])
        for result in (
            block_coordinate_descent(obj, SolverConfig(kind="bcd")),
            simulated_annealing(obj, obj.dim, SolverConfig(
                kind="anneal", seed=1, max_iters=sweeps, restarts=restarts)),
            tabu_search(obj, obj.dim, SolverConfig(
                kind="tabu", seed=1, max_iters=moves, restarts=tabu_restarts)),
        ):
            assert oracle.relative_excess(result.best_value, exact) >= -oracle.DUST


class TestSolverConfig:
    def test_exact_is_the_default(self):
        assert SolverConfig().kind == "exact"

    @pytest.mark.parametrize("kind", ["exact", "bcd"])
    def test_quadratic_objective_needs_a_generic_solver(self, kind):
        with pytest.raises(ValueError):
            SolverConfig(kind=kind, objective="quadratic")


class TestSecurity:
    def test_feasible_result_passes(self):
        obj, cfg = random_instance(40, 2)
        result = solve(obj, cfg.bits_total, SolverConfig(kind="bcd", max_iters=20))
        checked = enforce_security(result, obj)
        assert checked.feasible is True
        assert checked.qber == pytest.approx(obj.qber_of(checked.best_bits))
        assert checked.qber <= 0.11

    def test_boundary_is_inclusive(self):
        obj, _ = random_instance(40, 2)
        result = solve(obj, 8, SolverConfig(kind="bcd", max_iters=20))
        checked = enforce_security(result, obj, threshold=obj.qber_of(result.best_bits))
        assert checked.feasible is True

    def test_infeasible_without_fallback(self):
        obj, _ = random_instance(40, 2)
        result = solve(obj, 8, SolverConfig(kind="bcd", max_iters=20))
        checked = enforce_security(result, obj, threshold=1e-9)
        assert checked.feasible is False

    def test_fallback_is_the_band_sweep_optimum(self):
        # zero sweeps leave BCD on the all-zero start; a threshold between its
        # QBER and the minimum rejects it but admits the optimum
        obj, _ = random_instance(40, 2)
        result = solve(obj, 8, SolverConfig(kind="bcd", max_iters=0))
        evaluations, trace = result.evaluations, list(result.trace)
        optimum = band_sweep(obj)
        eps_start, eps_min = obj.qber_of(result.best_bits), min_qber(obj)
        assert eps_min < eps_start
        checked = enforce_security(result, obj, threshold=0.5 * (eps_min + eps_start))
        assert checked.feasible is True and checked.qber == eps_min
        assert checked.best_bits is checked.best_feasible_bits
        assert np.array_equal(checked.best_bits, optimum.best_bits)
        assert checked.best_value == optimum.best_value
        assert (checked.evaluations, checked.trace) == (evaluations, trace)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 12),
           st.integers(0, 10**6), st.floats(-1.3, 0.3))
    def test_rule_matches_exhaustive_feasibility(self, bq, bc, n_raw, seed, log_href):
        # reference powers around the channel's put the QBER near 11 %, so some
        # instances are infeasible and short budgets often end on infeasible states
        n = n_raw % (12 // (bq + bc) + 1)            # dim <= 12
        obj, cfg = random_instance(seed, n, bits=(bq, bc))
        obj = ExactObjective(obj.state, CostWeights(),
                             dataclasses.replace(obj.cal, h_ref_sq=10.0 ** log_href),
                             OPT, RF, cfg)
        values, qbers = exhaustive(obj, cfg)
        ok = qbers <= 0.11
        dim = cfg.bits_total
        for result in (
            brute_force(obj, dim),
            simulated_annealing(obj, dim, SolverConfig(kind="anneal", seed=seed,
                                                       max_iters=1, restarts=1)),
            tabu_search(obj, dim, SolverConfig(kind="tabu", seed=seed,
                                               max_iters=1, restarts=1)),
            block_coordinate_descent(obj, SolverConfig(kind="bcd", max_iters=0)),
        ):
            checked = enforce_security(result, obj)
            assert checked.feasible == ok.any()
            if checked.feasible:
                assert checked.qber <= 0.11
            if checked.best_bits is checked.best_feasible_bits:
                best = values[ok].min()
                assert abs(checked.best_value - best) <= 1e-12 * abs(best)


class TestOracleMiniCampaign:
    def test_heuristics_never_beat_the_oracle(self):
        # the full 200-instance campaign runs in the acceptance suite
        for i in range(25):
            obj, cfg = random_instance(500 + i, 1 + i % 4)
            dim = cfg.bits_total
            oracle = brute_force(obj, dim)
            tol = 1e-9 * abs(oracle.best_value) + 1e-12
            for result in (
                simulated_annealing(obj, dim, SolverConfig(kind="anneal", seed=i,
                                                           max_iters=120, restarts=2)),
                tabu_search(obj, dim, SolverConfig(kind="tabu", seed=i,
                                                   max_iters=60, restarts=2)),
                block_coordinate_descent(obj, SolverConfig(kind="bcd", max_iters=50)),
            ):
                assert result.best_value >= oracle.best_value - tol
