"""Tests of the benchmark's own logic: oracle, gap rule, span self time, spec."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualris import experiments, qubo, solvers
from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.metrics import CostWeights
from dualris.ris import ChannelState, RisConfig

from perfbench import layers, oracle, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_matches_brute_force_on_campaign_instances():
    # 40 of the criterion-6 instances cover N = 1..4 ten times each
    assert oracle.check_against_brute_force(instances=40) == []


@pytest.mark.parametrize("bits", [(1, 1), (3, 1), (1, 3), (3, 3)])
def test_oracle_matches_brute_force_at_other_bit_widths(bits):
    rng = np.random.default_rng(sum(bits))
    base = oracle.campaign_instance(7, 3)
    for n in (1, 2, 3):
        cfg = RisConfig(n_elements=n, bits_quantum=bits[0], bits_classical=bits[1])
        state = ChannelState(
            ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
            ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
            rng.uniform(0.1, 0.6, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)),
            rng.uniform(0.1, 0.6, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        obj = qubo.ExactObjective(state, CostWeights(), base.cal, OpticalParams(),
                                  RfParams(), cfg)
        exhaustive = solvers.brute_force(obj, obj.dim).best_value
        assert abs(oracle.relative_excess(oracle.optimum(obj), exhaustive)) <= oracle.DUST


def test_score_bits_matches_exact_objective():
    obj = oracle.campaign_instance(1003, 4)
    bits = np.random.default_rng(0).integers(0, 2, size=(20, obj.dim), dtype=np.uint8)
    for x in bits:
        assert oracle.score_bits(obj, x) == pytest.approx(obj.value(x), rel=1e-13)


def _solve_instance(elevation, n):
    cfg = experiments.RunConfig(seed=workloads.STATE_SEED)
    inst, = workloads._fixed_instances(cfg, workloads.pinned_calibration(),
                                       (elevation,), (n,), [])
    result = solvers.block_coordinate_descent(inst.objective, solvers.SolverConfig())
    return oracle.gap(result.best_value, inst.optimum), inst


def test_bcd_is_optimal_at_45_deg_n512():
    gap, _ = _solve_instance(45.0, 512)
    assert gap == 0.0


def test_bcd_shortfall_at_20_deg_n128():
    gap, inst = _solve_instance(20.0, 128)
    assert inst.optimum == pytest.approx(1.882644344e-3, rel=1e-9)
    assert gap == pytest.approx(1.026e-5, rel=1e-3)


def test_gap_rule_zeroes_float_dust():
    opt = -6.028478838e-3
    assert oracle.gap(opt * (1 - 1e-13), opt) == 0.0      # dust above the optimum
    assert oracle.gap(opt * (1 + 1e-13), opt) == 0.0      # dust below it
    assert oracle.gap(opt, opt) == 0.0
    assert oracle.gap(opt * (1 - 1e-6), opt) == pytest.approx(1e-6)
    assert oracle.gap(2.0, 1.0) == pytest.approx(1.0)


def _span(i, name, start, end, parent=None):
    return tracer.Span(i, name, start, 0, parent, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "experiments.calibrate", 0.0, 10.0),
        _span(1, "solvers.bcd", 1.0, 4.0, parent=0),
        _span(2, "qubo.objective_init", 1.5, 2.0, parent=1),
        _span(3, "solvers.bcd", 5.0, 9.0, parent=0),
        _span(4, "geometry.link_geometry", 11.0, 12.5),
    ]
    self_s = tracer.self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert self_s[1] == pytest.approx(3.0 - 0.5)
    assert self_s[2] == pytest.approx(0.5)
    assert self_s[3] == pytest.approx(4.0)
    assert self_s[4] == pytest.approx(1.5)
    by_id = {s.id: s for s in spans}
    assert tracer.nearest(by_id, spans[2], layers.STAGES) is spans[0]
    assert tracer.nearest(by_id, spans[4], layers.STAGES) is None


def test_tracer_restores_every_patched_site():
    from dualris import cli
    before = (experiments.calibrate, experiments.link_geometry, cli.write_sweep_csv,
              qubo.ExactObjective.__init__, solvers.tabu_search)
    tr = tracer.Tracer()
    with tr:
        assert tr.missing == []
        assert experiments.calibrate is not before[0]
        obj = oracle.campaign_instance(1000, 1)
        assert isinstance(obj, qubo.ExactObjective)
    after = (experiments.calibrate, experiments.link_geometry, cli.write_sweep_csv,
             qubo.ExactObjective.__init__, solvers.tabu_search)
    assert after == before
    assert [s.name for s in tr.spans] == ["qubo.objective_init"]


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.spec()
    assert len({e["name"] for e in spec["per_layer"]}) == len(spec["per_layer"])
    assert math.isclose(max(e["bound"] for e in spec["end_to_end"]),
                        next(e["bound"] for e in spec["end_to_end"]
                             if e["name"] == "setup_s"))
