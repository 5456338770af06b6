import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualris.channels import (
    ComplexGain,
    OpticalParams,
    RfParams,
    optical_direct_gain,
    rf_direct_gain,
)
from dualris.geometry import GeometryParams, link_geometry
from dualris.ris import (
    CLASSICAL,
    QUANTUM,
    ChannelState,
    RisConfig,
    bits_to_levels,
    cascade_gains,
    element_phase_offsets,
    levels_to_bits,
)

GEOM = link_geometry(math.radians(45.0), GeometryParams())


class TestDecode:
    def test_all_zero_bits(self):
        cfg = RisConfig(n_elements=1, bits_quantum=2, bits_classical=2)
        lq, lc = bits_to_levels(np.zeros(4, np.uint8), cfg)
        assert lq.tolist() == lc.tolist() == [0]

    def test_lsb_gives_quarter_turn(self):
        # 2-bit encoding: level = sum_k 2^k x_k, a quarter turn per level
        cfg = RisConfig(n_elements=1, bits_quantum=2, bits_classical=2)
        lq, _ = bits_to_levels(np.array([1, 0, 0, 0], np.uint8), cfg)
        assert lq.tolist() == [1]

    def test_both_bits(self):
        cfg = RisConfig(n_elements=1, bits_quantum=2, bits_classical=2)
        lq, _ = bits_to_levels(np.array([1, 1, 0, 0], np.uint8), cfg)
        assert lq.tolist() == [3]

    def test_classical_block_layout(self):
        cfg = RisConfig(n_elements=2, bits_quantum=2, bits_classical=2)
        bits = np.zeros(8, np.uint8)
        bits[4] = 1          # first classical bit of element 0
        lq, lc = bits_to_levels(bits, cfg)
        assert lq.tolist() == [0, 0]
        assert lc.tolist() == [1, 0]

    def test_total_dimension(self):
        cfg = RisConfig(n_elements=100, bits_quantum=2, bits_classical=2)
        assert cfg.bits_total == 400

    def test_length_mismatch(self):
        from dualris.metrics import Calibration, CostWeights
        from dualris.qubo import ExactObjective

        cfg = RisConfig(n_elements=2, bits_quantum=2, bits_classical=2)
        state = ChannelState(ComplexGain(1.0, 0.0), ComplexGain(1.0, 0.0),
                             np.ones(2, complex), np.ones(2, complex))
        cal = Calibration(raw_rate_scale=1.0, effective_visibility=0.98, h_ref_sq=1.0)
        obj = ExactObjective(state, CostWeights(), cal, OpticalParams(), RfParams(), cfg)
        with pytest.raises(ValueError):
            obj.levels_of(np.zeros(7, np.uint8))

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**9))
    def test_encode_decode_roundtrip(self, n, bq, bc, seed):
        cfg = RisConfig(n_elements=n, bits_quantum=bq, bits_classical=bc)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, cfg.bits_total, dtype=np.uint8)
        lq, lc = bits_to_levels(bits, cfg)
        assert np.array_equal(levels_to_bits(lq, lc, cfg), bits)
        assert 0 <= lq.min() and lq.max() < 1 << bq
        assert 0 <= lc.min() and lc.max() < 1 << bc

    @pytest.mark.parametrize("n,bq,bc", [(0, 1, 2), (1, 2, 2), (5, 3, 1), (7, 2, 3)])
    def test_level_layout_batches_match_decode_and_encode(self, n, bq, bc):
        cfg = RisConfig(n_elements=n, bits_quantum=bq, bits_classical=bc)
        rng = np.random.default_rng(n + 10 * bq + 100 * bc)
        rows = rng.integers(0, 2, size=(6, cfg.bits_total), dtype=np.uint8)
        lq, lc = bits_to_levels(rows, cfg)
        assert lq.shape == lc.shape == (6, n)
        assert np.array_equal(levels_to_bits(lq, lc, cfg), rows)
        for row, q, c in zip(rows, lq, lc):
            row_q, row_c = bits_to_levels(row, cfg)
            assert np.array_equal(row_q, q) and np.array_equal(row_c, c)
            assert np.array_equal(levels_to_bits(q, c, cfg), row)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=2), st.integers(0, 9), st.integers(1, 8),
           st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_decode_equals_the_matmul_reference(self, lead, n, bq, bc, seed):
        # the shift-or decode against sum_k 2^k x_k as an integer matmul
        cfg = RisConfig(n_elements=n, bits_quantum=bq, bits_classical=bc)
        bits = np.random.default_rng(seed).integers(0, 2, size=(*lead, cfg.bits_total),
                                                    dtype=np.uint8)
        lq, lc = bits_to_levels(bits, cfg)
        ref_q = bits[..., : n * bq].reshape(*lead, n, bq) @ (1 << np.arange(bq))
        ref_c = bits[..., n * bq:].reshape(*lead, n, bc) @ (1 << np.arange(bc))
        for got, ref in ((lq, ref_q), (lc, ref_c)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("field", ["bits_quantum", "bits_classical"])
    @pytest.mark.parametrize("bits,ok", [(0, False), (1, True), (8, True), (9, False),
                                         (30, False), (62, False)])
    def test_bits_per_band_are_capped(self, field, bits, ok):
        if ok:
            assert getattr(RisConfig(**{field: bits}), field) == bits
        else:
            with pytest.raises(ValueError, match="1 to 8 bits"):
                RisConfig(**{field: bits})


class TestCascades:
    def test_empty(self):
        cfg = RisConfig(n_elements=0)
        assert cascade_gains(cfg, GEOM, OpticalParams(), 7).size == 0

    def test_deterministic_per_seed(self):
        cfg = RisConfig(n_elements=16)
        a = cascade_gains(cfg, GEOM, RfParams(), 99)
        b = cascade_gains(cfg, GEOM, RfParams(), 99)
        assert np.array_equal(a, b)
        c = cascade_gains(cfg, GEOM, RfParams(), 100)
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
        g = cascade_gains(cfg, GEOM, OpticalParams(), 7)
        assert np.allclose(np.abs(g), np.abs(g)[0])


class TestIndependence:
    def test_band_phases_do_not_cross_talk(self):
        # flipping any classical bit leaves the quantum composite bitwise
        # unchanged, and vice versa
        from dualris.metrics import Calibration, CostWeights
        from dualris.qubo import ExactObjective

        cfg = RisConfig(n_elements=4)
        state = ChannelState(
            ComplexGain(1.0, 0.3), ComplexGain(1.0, 1.2),
            cascade_gains(cfg, GEOM, OpticalParams(), 7) * 1e12,
            cascade_gains(cfg, GEOM, RfParams(), 7) * 10.0)
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


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


class TestLinkModelBits:
    """The direct gains and both cascades, bit for bit, against the link model
    written out term by term, in the operand order of the products, with the
    fixed factors at the simulation parameter table's values: 10 urad beam
    divergence, 0.3 m telescope, 2 urad jitter, the ionosphere at 2 GHz,
    10 TECU, S4 = 0.3 and a 1 GHz reference, isotropic S-band antennas and
    unit cells, and a 0.5 km RIS-to-ground segment."""

    @settings(max_examples=150, deadline=None)
    @given(st.builds(OpticalParams, wavelength_m=_floats(400e-9, 2e-6),
                     atten_per_km=_floats(0.0, 1.0)),
           st.builds(RfParams, wavelength_m=_floats(0.05, 0.5), atten_per_km=_floats(0.0, 0.05),
                     rain_rate_mm_h=st.one_of(st.just(0.0), _floats(0.1, 100.0)),
                     rain_k=_floats(1e-5, 1e-2), rain_alpha=_floats(0.5, 1.5)),
           st.builds(GeometryParams, earth_radius_km=_floats(6000.0, 7000.0),
                     sat_altitude_km=_floats(300.0, 2000.0), atm_height_km=_floats(0.0, 20.0),
                     rain_height_km=_floats(0.0, 5.0)),
           _floats(5.0, 90.0),
           st.builds(RisConfig, n_elements=st.integers(0, 16)),
           st.integers(0, 2**32 - 1))
    def test_gains_equal_the_formulas(self, opt, rf, geo, elevation_deg, cfg, seed):
        geom = link_geometry(math.radians(elevation_deg), geo)
        d_m = geom.slant_range_km * 1e3
        d2_m = 0.5 * 1e3

        # optical: laser and telescope gains, exp(-kappa d_atm / 2), sqrt(h_pe)
        tx_q = 4.0 * math.pi / (10e-6 * 10e-6)
        rx_q = math.pi * (0.3 * 0.3) / (opt.wavelength_m * opt.wavelength_m)
        path_q = math.exp(-opt.atten_per_km * geom.atm_path_km / 2.0)
        ratio = 2e-6 / 10e-6
        fade = math.sqrt(1.0 / (1.0 + 2.0 * ratio * ratio))
        # RF: unit gains and sqrt(L_atm L_ion L_rain)
        f = 2.0
        i_db = 0.0265 * 10.0 / f**2 + 0.018 * 0.3 * 1.0**1.5 / f**1.5
        l_rain = 1.0 if rf.rain_rate_mm_h == 0.0 else math.exp(
            -(rf.rain_k * rf.rain_rate_mm_h**rf.rain_alpha) * geom.rain_path_km)
        path_c = math.sqrt(math.exp(-rf.atten_per_km * geom.atm_path_km)
                           * 10.0 ** (-i_db / 10.0) * l_rain)

        for band, params, got, tx, rx, path, fade_ in (
                (QUANTUM, opt, optical_direct_gain(opt, geom), tx_q, rx_q, path_q, fade),
                (CLASSICAL, rf, rf_direct_gain(rf, geom), 1.0, 1.0, path_c, 1.0)):
            lam = params.wavelength_m
            amp = lam / (4.0 * math.pi * d_m) * math.sqrt(tx * rx) * path * fade_
            phase = math.fmod(2.0 * math.pi * d_m / lam, 2.0 * math.pi)
            assert (got.amplitude.hex(), got.phase_rad.hex()) == (amp.hex(), phase.hex())

            seg1 = lam / (4.0 * math.pi * d_m) * math.sqrt(tx) * path
            seg2 = lam / (4.0 * math.pi * d2_m) * math.sqrt(rx)
            want = seg1 * seg2 * np.exp(
                1j * element_phase_offsets(cfg, band, seed))
            g = cascade_gains(cfg, geom, params, seed)
            assert [(z.real.hex(), z.imag.hex()) for z in g.tolist()] == \
                [(z.real.hex(), z.imag.hex()) for z in want.tolist()]
