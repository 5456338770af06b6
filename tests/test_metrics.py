import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.metrics import (
    BOLTZMANN,
    Calibration,
    CostWeights,
    ber_qpsk,
    binary_entropy,
    calibrated_baseline_qber,
    field_gain_qber,
    field_gain_qber_array,
    link_metrics,
    normalized_transmittance,
    qber,
    resolve_weights,
    skr,
    snr,
    static_weights,
    swing_weights,
)
from dualris.qubo import ExactObjective
from dualris.ris import ChannelState, RisConfig

CAL = Calibration(raw_rate_scale=100.0, effective_visibility=0.98, h_ref_sq=1e-4)
P_DARK = 1e-5


def direct_objective(weights=CostWeights()):
    """A zero-element objective on a direct path of amplitude 0.05 in each band."""
    state = ChannelState(ComplexGain(0.05, 0.0), ComplexGain(0.05, 0.0))
    return ExactObjective(state, weights, CAL, OpticalParams(dark_count_prob=P_DARK),
                          RfParams(), RisConfig(n_elements=0))


def totals_near(obj, eps, gamma):
    """Real band totals at which obj's QBER is eps and its SNR gamma, to a few ulps."""
    gain = (obj.eps_base - obj.p_dark) / (eps - obj.p_dark)
    return complex(gain * obj.direct_amp), complex(math.sqrt(gamma / obj.snr_coeff))


class TestSnr:
    def test_noise_floor(self):
        rf = RfParams(sys_temp_k=290.0, bandwidth_hz=1e8)
        assert BOLTZMANN * rf.sys_temp_k * rf.bandwidth_hz == pytest.approx(
            4.0038821e-13, rel=1e-9)

    def test_ratio_definition(self):
        rf = RfParams(tx_power_w=1.0)
        noise = BOLTZMANN * rf.sys_temp_k * rf.bandwidth_hz
        amp = math.sqrt(100.0 * noise)   # received power = 100 x noise floor
        assert snr(rf, amp) == pytest.approx(100.0, rel=1e-12)

    def test_offset_db(self):
        rf = RfParams()
        assert snr(rf, 1e-8, 20.0) == pytest.approx(100.0 * snr(rf, 1e-8), rel=1e-12)


class TestBer:
    def test_zero_snr(self):
        assert ber_qpsk(0.0) == 0.5

    def test_one_in_a_million(self):
        # Q(4.7534243) = 1e-6, so BER hits 1e-6 at snr = x^2 / 2
        assert ber_qpsk(11.297521329854225) == pytest.approx(1e-6, rel=1e-6)

    def test_high_snr_negligible(self):
        assert ber_qpsk(100.0) < 1e-40

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ber_qpsk(-0.1)


class TestQber:
    def test_perfect_channel(self):
        assert qber(1.0, 1.0, 0.0) == 0.0

    def test_dark_counts_add(self):
        assert qber(1.0, 1.0, 1e-5) == pytest.approx(1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            qber(0.9, 1.2, 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.1, max_value=1.0))
    def test_affine_decreasing_in_transmittance(self, h1, h2, v):
        lo, hi = sorted((h1, h2))
        assert qber(v, hi, 1e-5) <= qber(v, lo, 1e-5)


class TestEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_near_threshold(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, p):
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) < 1e-12


class TestSkr:
    def test_error_free(self):
        assert skr(1000.0, 0.0, 1.1) == 1000.0

    def test_zero_boundary(self):
        # solve 1 - (2 + f_EC) h2(eps) = 0 by bisection for f_EC = 1.1
        lo, hi = 1e-9, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 - 3.1 * binary_entropy(mid) > 0:
                lo = mid
            else:
                hi = mid
        boundary = 0.5 * (lo + hi)
        assert boundary == pytest.approx(0.05877945730610566, rel=1e-9)
        assert skr(1000.0, boundary + 1e-6, 1.1) == 0.0
        assert skr(1000.0, boundary - 1e-6, 1.1) > 0.0

    @given(st.floats(min_value=0.0, max_value=0.058), st.floats(min_value=0.0, max_value=0.058))
    def test_strictly_decreasing_before_boundary(self, e1, e2):
        lo, hi = sorted((e1, e2))
        if hi - lo < 1e-12:
            return
        assert skr(1000.0, hi, 1.1) < skr(1000.0, lo, 1.1)


class TestWeights:
    def test_static_values(self):
        alpha, beta = static_weights(CostWeights(qber_threshold=0.011, snr_target=100.0))
        assert alpha == 1.0
        assert beta == pytest.approx(1.6520953154605675e-3, rel=1e-12)

    def test_static_unity_snr_target(self):
        _, beta = static_weights(CostWeights(qber_threshold=0.011, snr_target=1.0))
        assert beta == pytest.approx(0.011, rel=1e-12)

    def test_swing_at_target(self):
        alpha, beta = swing_weights(CostWeights(), current_snr=100.0)
        assert beta == pytest.approx(0.01, rel=1e-12)
        assert alpha == pytest.approx(1.0 / 0.011, rel=1e-12)

    def test_swing_low_snr(self):
        _, beta = swing_weights(CostWeights(), current_snr=1.0)
        assert beta == pytest.approx(0.06658211482751794, rel=1e-12)

    def test_swing_requires_positive_snr(self):
        with pytest.raises(ValueError):
            swing_weights(CostWeights(), current_snr=0.0)

    def test_resolve_explicit_beta_passthrough(self):
        alpha, beta = resolve_weights(CostWeights(alpha=2.0, beta=0.5))
        assert (alpha, beta) == (2.0, 0.5)

    @pytest.mark.parametrize("kwargs,field", [
        ({"snr_target": -5.0}, "snr_target"),
        ({"snr_target": 0.0}, "snr_target"),
        ({"mode": "swing", "beta_o": -0.01}, "beta_o"),
        ({"alpha": 7.0}, "alpha"),              # beta = 0: the mode sets alpha
    ])
    def test_invalid_weights_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            CostWeights(**kwargs)


class TestCost:
    """The cost of link_metrics, which is the objective's cost_from_totals."""

    def test_balanced_at_thresholds(self):
        cw = CostWeights(qber_threshold=0.011, snr_target=100.0)
        obj = direct_objective(cw)
        assert (obj.alpha, obj.beta) == static_weights(cw)
        m = link_metrics(obj, *totals_near(obj, 0.011, 100.0))
        assert abs(m.cost) <= 1e-6 * 0.011   # both terms cancel at the design point

    def test_zero_snr(self):
        obj = direct_objective(CostWeights(alpha=1.0, beta=0.5))
        tq, _ = totals_near(obj, 0.02, 1.0)
        m = link_metrics(obj, tq, 0j)
        assert m.snr_linear == 0.0
        assert m.cost == m.qber == pytest.approx(0.02)

    def test_representative_point(self):
        obj = direct_objective()
        m = link_metrics(obj, *totals_near(obj, 0.007, 398.0))
        assert m.cost == pytest.approx(-0.007274508183564826, rel=1e-9)

    # the field gain keeps the QBER above p_dark, so eps starts just above it
    @given(st.floats(min_value=2e-5, max_value=0.2), st.floats(min_value=0.0, max_value=0.19),
           st.floats(min_value=0.1, max_value=1e4))
    def test_partial_signs(self, eps, d_eps, gamma):
        obj = direct_objective()

        def cost(e, g):
            tq, tc = totals_near(obj, e, g)
            value = obj.cost_from_totals(tq, tc)
            assert link_metrics(obj, tq, tc).cost == value
            return value

        assert cost(eps + d_eps + 1e-9, gamma) > cost(eps, gamma) - 1e-15
        assert cost(eps, gamma * 1.01 + 1e-9) < cost(eps, gamma) + 1e-15


class TestCalibratedPipeline:
    def test_saturation_bounds(self):
        assert normalized_transmittance(0.0) == 0.0
        assert 0.0 < normalized_transmittance(100.0) < 1.0
        with pytest.raises(ValueError):
            normalized_transmittance(-1.0)

    def test_unit_gain_reduces_to_baseline(self):
        base = calibrated_baseline_qber(0.05, CAL, P_DARK)
        obj = direct_objective()
        assert link_metrics(obj, obj.h0q, obj.h0c).qber == pytest.approx(base, rel=1e-12)

    def test_field_gain_divides_residual(self):
        base = calibrated_baseline_qber(0.05, CAL, P_DARK)
        eps = link_metrics(direct_objective(), 0.10 + 0j, 0j).qber
        assert eps == pytest.approx((base - P_DARK) / 2.0 + P_DARK, rel=1e-12)

    def test_dead_channel_clamps(self):
        assert link_metrics(direct_objective(), 0j, 0j).qber == 0.5 + P_DARK

    def test_misalignment_raises_qber(self):
        base = calibrated_baseline_qber(0.05, CAL, P_DARK)
        assert link_metrics(direct_objective(), 0.03 + 0j, 0j).qber > base

    def test_scalar_and_array_maps_agree_bit_for_bit(self):
        base = calibrated_baseline_qber(0.05, CAL, 1e-5)
        # dead channel, deep misalignment (upper clamp), ordinary gains
        amps = np.array([0.0, 1e-9, 0.003, 0.03, 0.05, 0.0731, 0.5, 12.0])
        scalar = [field_gain_qber(a, 0.05, base, 1e-5) for a in amps]
        array = field_gain_qber_array(amps, 0.05, base, 1e-5)
        assert scalar[0] == scalar[1] == 0.5 + 1e-5
        assert array.tolist() == scalar

    def test_nan_amplitude_stays_nan_in_both_maps(self):
        base = calibrated_baseline_qber(0.05, CAL, 1e-5)
        assert math.isnan(field_gain_qber(math.nan, 0.05, base, 1e-5))
        assert np.isnan(field_gain_qber_array(np.array([math.nan]), 0.05, base, 1e-5)).all()
