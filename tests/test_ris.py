import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.geometry import GeometryParams, link_geometry
from dualris.ris import (
    CLASSICAL,
    QUANTUM,
    ChannelState,
    RisConfig,
    bits_to_levels,
    cascade_gains,
    decode_phases,
    element_phase_offsets,
    encode_phases,
    levels_to_bits,
)

GEOM = link_geometry(math.radians(45.0), GeometryParams())


class TestDecode:
    def test_all_zero_bits(self):
        cfg = RisConfig(n_elements=1, bits_quantum=2, bits_classical=2)
        pc = decode_phases(np.zeros(4, np.uint8), cfg)
        assert pc.phases_quantum[0] == 0.0
        assert pc.phases_classical[0] == 0.0

    def test_lsb_gives_quarter_turn(self):
        # 2-bit encoding: theta = (2 pi / 4) * sum_k 2^k x_k
        cfg = RisConfig(n_elements=1, bits_quantum=2, bits_classical=2)
        pc = decode_phases(np.array([1, 0, 0, 0], np.uint8), cfg)
        assert pc.phases_quantum[0] == pytest.approx(math.pi / 2)

    def test_both_bits(self):
        cfg = RisConfig(n_elements=1, bits_quantum=2, bits_classical=2)
        pc = decode_phases(np.array([1, 1, 0, 0], np.uint8), cfg)
        assert pc.phases_quantum[0] == pytest.approx(3 * math.pi / 2)

    def test_classical_block_layout(self):
        cfg = RisConfig(n_elements=2, bits_quantum=2, bits_classical=2)
        bits = np.zeros(8, np.uint8)
        bits[4] = 1          # first classical bit of element 0
        pc = decode_phases(bits, cfg)
        assert pc.phases_quantum.tolist() == [0.0, 0.0]
        assert pc.phases_classical[0] == pytest.approx(math.pi / 2)
        assert pc.phases_classical[1] == 0.0

    def test_total_dimension(self):
        cfg = RisConfig(n_elements=100, bits_quantum=2, bits_classical=2)
        assert cfg.bits_total == 400

    def test_length_mismatch(self):
        cfg = RisConfig(n_elements=2, bits_quantum=2, bits_classical=2)
        with pytest.raises(ValueError):
            decode_phases(np.zeros(7, np.uint8), cfg)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**9))
    def test_encode_decode_roundtrip(self, n, bq, bc, seed):
        cfg = RisConfig(n_elements=n, bits_quantum=bq, bits_classical=bc)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, cfg.bits_total, dtype=np.uint8)
        pc = decode_phases(bits, cfg)
        again = encode_phases(pc.phases_quantum, pc.phases_classical, cfg)
        assert np.array_equal(again.bits, bits)
        levels = 2 * math.pi * np.arange(1 << bq) / (1 << bq)
        assert all(any(abs(p - l) < 1e-12 for l in levels) for p in pc.phases_quantum)

    @pytest.mark.parametrize("n,bq,bc", [(0, 1, 2), (1, 2, 2), (5, 3, 1), (7, 2, 3)])
    def test_level_layout_batches_match_decode_and_encode(self, n, bq, bc):
        cfg = RisConfig(n_elements=n, bits_quantum=bq, bits_classical=bc)
        rng = np.random.default_rng(n + 10 * bq + 100 * bc)
        rows = rng.integers(0, 2, size=(6, cfg.bits_total), dtype=np.uint8)
        lq, lc = bits_to_levels(rows, cfg)
        assert lq.shape == lc.shape == (6, n)
        assert np.array_equal(levels_to_bits(lq, lc, cfg), rows)
        for row, q, c in zip(rows, lq, lc):
            pc = decode_phases(row, cfg)
            assert np.array_equal(pc.phases_quantum, 2 * math.pi / (1 << bq) * q)
            assert np.array_equal(pc.phases_classical, 2 * math.pi / (1 << bc) * c)
            assert np.array_equal(encode_phases(pc.phases_quantum, pc.phases_classical,
                                                cfg).bits, levels_to_bits(q, c, cfg))


class TestCascades:
    def test_empty(self):
        cfg = RisConfig(n_elements=0)
        assert cascade_gains(QUANTUM, cfg, GEOM, OpticalParams(), 7).size == 0

    def test_transparent_surface(self):
        cfg = RisConfig(n_elements=4, element_gain=0.0)
        g = cascade_gains(QUANTUM, cfg, GEOM, OpticalParams(), 7)
        assert np.allclose(np.abs(g), 0.0)

    def test_deterministic_per_seed(self):
        cfg = RisConfig(n_elements=16)
        a = cascade_gains(CLASSICAL, cfg, GEOM, RfParams(), 99)
        b = cascade_gains(CLASSICAL, cfg, GEOM, RfParams(), 99)
        assert np.array_equal(a, b)
        c = cascade_gains(CLASSICAL, cfg, GEOM, RfParams(), 100)
        assert not np.array_equal(a, c)

    def test_bands_get_distinct_offsets(self):
        cfg = RisConfig(n_elements=8)
        assert not np.array_equal(element_phase_offsets(cfg, QUANTUM, 5),
                                  element_phase_offsets(cfg, CLASSICAL, 5))

    def test_offsets_cover_the_circle(self):
        # stratified draw: one offset per stratum of width 2 pi / N
        cfg = RisConfig(n_elements=32)
        psi = np.sort(element_phase_offsets(cfg, QUANTUM, 3))
        strata = np.floor(psi / (2 * math.pi / 32)).astype(int)
        assert np.array_equal(strata, np.arange(32))

    def test_amplitudes_equal_across_elements(self):
        cfg = RisConfig(n_elements=8)
        g = cascade_gains(QUANTUM, cfg, GEOM, OpticalParams(), 7)
        assert np.allclose(np.abs(g), np.abs(g)[0])

    def test_unknown_band(self):
        with pytest.raises(ValueError):
            cascade_gains("thz", RisConfig(n_elements=1), GEOM, RfParams(), 7)


class TestIndependence:
    def test_band_phases_do_not_cross_talk(self):
        # flipping any classical bit leaves the quantum composite bitwise
        # unchanged, and vice versa
        from dualris.metrics import Calibration, CostWeights
        from dualris.qubo import ExactObjective

        cfg = RisConfig(n_elements=4)
        state = ChannelState(
            ComplexGain(1.0, 0.3), ComplexGain(1.0, 1.2),
            cascade_gains(QUANTUM, cfg, GEOM, OpticalParams(), 7) * 1e12,
            cascade_gains(CLASSICAL, cfg, GEOM, RfParams(), 7) * 10.0)
        cal = Calibration(raw_rate_scale=1.0, effective_visibility=0.98,
                          h_ref_sq=1.0)
        obj = ExactObjective(state, CostWeights(), cal, OpticalParams(),
                             RfParams(), cfg)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, cfg.bits_total, dtype=np.uint8)
        tq0, tc0 = obj.totals_of(x)
        for i in range(cfg.n_elements * cfg.bits_quantum, cfg.bits_total):
            y = x.copy()
            y[i] ^= 1
            tq1, _ = obj.totals_of(y)
            assert tq1 == tq0
        for i in range(cfg.n_elements * cfg.bits_quantum):
            y = x.copy()
            y[i] ^= 1
            _, tc1 = obj.totals_of(y)
            assert tc1 == tc0

    def test_state_requires_matched_lengths(self):
        with pytest.raises(ValueError):
            ChannelState(ComplexGain(1, 0), ComplexGain(1, 0),
                         np.zeros(3, complex), np.zeros(2, complex))
