import math

import pytest
from hypothesis import given, strategies as st

from dualris.channels import (
    ComplexGain,
    OpticalParams,
    RfParams,
    ionospheric_loss,
    mean_pointing_gain,
    optical_direct_gain,
    optical_rx_gain,
    optical_tx_gain,
    rain_loss,
    rf_atmospheric_loss,
    rf_direct_gain,
    wrap_phase,
)
from dualris.geometry import GeometryParams, link_geometry

GEO = GeometryParams()


def geom_at(theta_deg, geo=GEO):
    return link_geometry(math.radians(theta_deg), geo)


class TestComplexGain:
    def test_phase_wrapped(self):
        g = ComplexGain(1.0, -0.5)
        assert 0.0 <= g.phase_rad < 2 * math.pi
        assert g.phase_rad == pytest.approx(2 * math.pi - 0.5)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ComplexGain(-1.0, 0.0)


class TestAntennaGains:
    def test_tx_gain_10urad(self):
        p = OpticalParams(beam_divergence_rad=10e-6)
        assert optical_tx_gain(p) == pytest.approx(1.25663706143e11, rel=1e-9)

    def test_tx_gain_2rad_is_pi(self):
        p = OpticalParams(beam_divergence_rad=2.0)
        assert optical_tx_gain(p) == pytest.approx(math.pi, rel=1e-12)

    def test_tx_gain_scaling(self):
        p1 = OpticalParams(beam_divergence_rad=10e-6)
        p2 = OpticalParams(beam_divergence_rad=20e-6)
        assert optical_tx_gain(p1) == pytest.approx(4 * optical_tx_gain(p2), rel=1e-12)

    def test_rx_gain_03m(self):
        p = OpticalParams(rx_aperture_m=0.3)
        assert optical_rx_gain(p) == pytest.approx(3.9134026134682544e11, rel=1e-9)

    def test_rx_gain_unity_aperture(self):
        p = OpticalParams(rx_aperture_m=850e-9 / math.sqrt(math.pi))
        assert optical_rx_gain(p) == pytest.approx(1.0, rel=1e-12)

    def test_zero_divergence_rejected(self):
        with pytest.raises(ValueError, match="beam_divergence_rad"):
            OpticalParams(beam_divergence_rad=0.0)


class TestOpticalDirect:
    def test_friis_amplitude_500km(self):
        # lossless 500 km zenith link, 10 urad divergence, 0.3 m telescope,
        # no pointing jitter
        p = OpticalParams(atten_per_km=0.0, jitter_rad=0.0)
        geo = GeometryParams(sat_altitude_km=500.0)
        g = optical_direct_gain(p, geom_at(90.0, geo))
        assert g.amplitude == pytest.approx(0.03, rel=1e-3)
        assert 20 * math.log10(g.amplitude) == pytest.approx(-30.46, abs=0.01)

    def test_attenuation_factor(self):
        p0 = OpticalParams(atten_per_km=0.0)
        p1 = OpticalParams(atten_per_km=0.046)
        geom = geom_at(90.0)
        ratio = (optical_direct_gain(p1, geom).amplitude
                 / optical_direct_gain(p0, geom).amplitude)
        assert ratio == pytest.approx(math.exp(-0.046 * geom.atm_path_km / 2), rel=1e-12)

    def test_propagation_phase(self):
        p = OpticalParams()
        geom = geom_at(60.0)
        g = optical_direct_gain(p, geom)
        expected = wrap_phase(2 * math.pi * geom.slant_range_km * 1e3 / p.wavelength_m)
        assert g.phase_rad == pytest.approx(expected)

    @given(st.floats(min_value=math.radians(5), max_value=math.pi / 2),
           st.floats(min_value=math.radians(5), max_value=math.pi / 2))
    def test_amplitude_monotone_in_elevation(self, t1, t2):
        lo, hi = sorted((t1, t2))
        p = OpticalParams()
        a_lo = optical_direct_gain(p, link_geometry(lo, GEO)).amplitude
        a_hi = optical_direct_gain(p, link_geometry(hi, GEO)).amplitude
        assert a_hi >= a_lo


class TestIonosphere:
    def test_no_ionosphere(self):
        p = RfParams(tec_units=0.0, scint_index=0.0)
        assert ionospheric_loss(p) == 1.0

    def test_moderate(self):
        p = RfParams(tec_units=10.0, scint_index=0.3, carrier_ghz=2.3)
        assert ionospheric_loss(p) == pytest.approx(0.9881792656911575, rel=1e-12)

    def test_strong(self):
        p = RfParams(tec_units=50.0, scint_index=0.5, carrier_ghz=2.0)
        assert ionospheric_loss(p) == pytest.approx(0.9258844748543499, rel=1e-12)


class TestRain:
    def test_no_rain(self):
        assert rain_loss(RfParams(rain_rate_mm_h=0.0), geom_at(10.0)) == 1.0

    def test_heavy_rain_low_elevation(self):
        p = RfParams(rain_rate_mm_h=25.0, rain_k=5e-4, rain_alpha=1.2)
        geom = geom_at(10.0)
        gamma_r = 5e-4 * 25.0**1.2
        assert gamma_r == pytest.approx(0.023795674233948478, rel=1e-12)
        assert rain_loss(p, geom) == pytest.approx(
            math.exp(-gamma_r * geom.rain_path_km), rel=1e-12)

    def test_light_rain_zenith(self):
        p = RfParams(rain_rate_mm_h=10.0, rain_k=1e-4, rain_alpha=1.0)
        geom = geom_at(90.0)
        assert rain_loss(p, geom) == pytest.approx(
            math.exp(-1e-3 * geom.rain_path_km), rel=1e-12)


class TestRfDirect:
    def test_friis_identity_distance(self):
        # at d = lambda / 4 pi with unit gains and no losses the amplitude is 1
        lam = 0.15
        geom_identity = link_geometry(math.pi / 2, GeometryParams(
            sat_altitude_km=lam / (4 * math.pi) / 1e3, atm_height_km=1e-12))
        p = RfParams(atten_per_km=0.0, tec_units=0.0, scint_index=0.0)
        g = rf_direct_gain(p, geom_identity)
        # slant-range cancellation limits precision for a metre-scale orbit
        assert g.amplitude == pytest.approx(1.0, rel=1e-6)

    def test_amplitude_500km(self):
        p = RfParams(atten_per_km=0.0, tec_units=0.0, scint_index=0.0)
        geo = GeometryParams(sat_altitude_km=500.0)
        g = rf_direct_gain(p, geom_at(90.0, geo))
        assert g.amplitude == pytest.approx(2.38732414637843e-8, rel=1e-9)
        assert 20 * math.log10(g.amplitude) == pytest.approx(-152.44, abs=0.01)

    def test_atmospheric_factor(self):
        geom = geom_at(90.0)
        p = RfParams()
        assert rf_atmospheric_loss(p, geom) == pytest.approx(
            math.exp(-0.0046 * geom.atm_path_km), rel=1e-12)

    def test_inverse_square_power_scaling(self):
        # with all atmospheric effects off, |H|^2 scales exactly as 1/d^2
        p = RfParams(atten_per_km=0.0, tec_units=0.0, scint_index=0.0)
        g1 = rf_direct_gain(p, geom_at(90.0, GeometryParams(sat_altitude_km=400.0)))
        g2 = rf_direct_gain(p, geom_at(90.0, GeometryParams(sat_altitude_km=800.0)))
        assert g1.amplitude**2 / g2.amplitude**2 == pytest.approx(4.0, rel=1e-12)

    def test_all_loss_factors_within_unit_interval(self):
        p = RfParams(rain_rate_mm_h=20.0)
        for theta in (5.0, 25.0, 60.0, 90.0):
            geom = geom_at(theta)
            for loss in (rf_atmospheric_loss(p, geom), ionospheric_loss(p),
                         rain_loss(p, geom)):
                assert 0.0 < loss <= 1.0


class TestPointing:
    def test_perfect(self):
        assert mean_pointing_gain(OpticalParams(jitter_rad=0.0)) == 1.0

    def test_nominal(self):
        p = OpticalParams(jitter_rad=2e-6, beam_divergence_rad=10e-6)
        assert mean_pointing_gain(p) == pytest.approx(0.9259259259259258, rel=1e-12)

    def test_jitter_equal_divergence(self):
        p = OpticalParams(jitter_rad=10e-6, beam_divergence_rad=10e-6)
        assert mean_pointing_gain(p) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        OpticalParams(dark_count_prob=0.01)
    with pytest.raises(ValueError):
        OpticalParams(ec_inefficiency=0.9)
    with pytest.raises(ValueError, match="rx_aperture_m"):
        OpticalParams(rx_aperture_m=-1.0)
    with pytest.raises(ValueError, match="jitter_rad"):
        OpticalParams(jitter_rad=-1e-6)
    with pytest.raises(ValueError):
        RfParams(carrier_ghz=5.0)


def test_divisors_that_underflow_are_refused():
    # the antenna gains divide by the square, and snr by k_B T B; values whose
    # gains and their product stay finite and > 0 still build (at 1e-150 the
    # product overflows)
    for name in ("wavelength_m", "beam_divergence_rad"):
        with pytest.raises(ValueError, match=name):
            OpticalParams(**{name: 1e-300})
        params = OpticalParams(**{name: 1e-140})
        assert optical_tx_gain(params) > 0 and optical_rx_gain(params) > 0
    for name in ("sys_temp_k", "bandwidth_hz"):
        with pytest.raises(ValueError, match=name):
            RfParams(**{name: 5e-324})
    RfParams(sys_temp_k=1e-300)
