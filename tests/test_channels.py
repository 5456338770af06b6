import math

import pytest
from hypothesis import given, strategies as st

from dualris.channels import (
    IONOSPHERIC_LOSS,
    MEAN_POINTING_GAIN,
    OPTICAL_TX_GAIN,
    ComplexGain,
    OpticalParams,
    RfParams,
    optical_direct_gain,
    optical_rx_gain,
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
        # 4 pi / theta_div^2 at the tabulated 10 urad divergence
        assert OPTICAL_TX_GAIN == pytest.approx(1.25663706143e11, rel=1e-9)

    def test_rx_gain_03m(self):
        assert optical_rx_gain(OpticalParams()) == pytest.approx(3.9134026134682544e11,
                                                                  rel=1e-9)

    def test_rx_gain_unity_wavelength(self):
        # pi D_r^2 / lambda^2 with the 0.3 m telescope is 1 at lambda = 0.3 sqrt(pi)
        p = OpticalParams(wavelength_m=0.3 * math.sqrt(math.pi))
        assert optical_rx_gain(p) == pytest.approx(1.0, rel=1e-12)

    def test_zero_wavelength_rejected(self):
        with pytest.raises(ValueError, match="wavelength_m"):
            OpticalParams(wavelength_m=0.0)


class TestOpticalDirect:
    def test_friis_amplitude_500km(self):
        # lossless 500 km zenith link, 10 urad divergence, 0.3 m telescope,
        # without the pointing fade
        p = OpticalParams(atten_per_km=0.0)
        geo = GeometryParams(sat_altitude_km=500.0)
        amplitude = optical_direct_gain(p, geom_at(90.0, geo)).amplitude
        amplitude /= math.sqrt(MEAN_POINTING_GAIN)
        assert amplitude == pytest.approx(0.03, rel=1e-3)
        assert 20 * math.log10(amplitude) == pytest.approx(-30.46, abs=0.01)

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


def test_ionosphere_at_the_tabulated_values():
    # 0.0265 TEC / f^2 + 0.018 S4 f_ref^1.5 / f^1.5 dB at 2 GHz, 10 TECU,
    # S4 = 0.3 and a 1 GHz reference
    assert IONOSPHERIC_LOSS == pytest.approx(0.9844282796293258, rel=1e-12)


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
        p = RfParams(atten_per_km=0.0)
        g = rf_direct_gain(p, geom_identity)
        # slant-range cancellation limits precision for a metre-scale orbit
        assert g.amplitude / math.sqrt(IONOSPHERIC_LOSS) == pytest.approx(1.0, rel=1e-6)

    def test_amplitude_500km(self):
        p = RfParams(atten_per_km=0.0)
        geo = GeometryParams(sat_altitude_km=500.0)
        amplitude = rf_direct_gain(p, geom_at(90.0, geo)).amplitude
        amplitude /= math.sqrt(IONOSPHERIC_LOSS)
        assert amplitude == pytest.approx(2.38732414637843e-8, rel=1e-9)
        assert 20 * math.log10(amplitude) == pytest.approx(-152.44, abs=0.01)

    def test_atmospheric_factor(self):
        geom = geom_at(90.0)
        p = RfParams()
        assert rf_atmospheric_loss(p, geom) == pytest.approx(
            math.exp(-0.0046 * geom.atm_path_km), rel=1e-12)

    def test_inverse_square_power_scaling(self):
        # with no clear-air loss, |H|^2 scales exactly as 1/d^2
        p = RfParams(atten_per_km=0.0)
        g1 = rf_direct_gain(p, geom_at(90.0, GeometryParams(sat_altitude_km=400.0)))
        g2 = rf_direct_gain(p, geom_at(90.0, GeometryParams(sat_altitude_km=800.0)))
        assert g1.amplitude**2 / g2.amplitude**2 == pytest.approx(4.0, rel=1e-12)

    def test_all_loss_factors_within_unit_interval(self):
        p = RfParams(rain_rate_mm_h=20.0)
        for theta in (5.0, 25.0, 60.0, 90.0):
            geom = geom_at(theta)
            for loss in (rf_atmospheric_loss(p, geom), IONOSPHERIC_LOSS,
                         rain_loss(p, geom)):
                assert 0.0 < loss <= 1.0


def test_mean_pointing_gain_at_the_tabulated_jitter():
    # 1 / (1 + 2 sigma_j^2 / theta_div^2) at 2 urad jitter and 10 urad divergence
    assert MEAN_POINTING_GAIN == pytest.approx(0.9259259259259258, rel=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        OpticalParams(dark_count_prob=0.01)
    with pytest.raises(ValueError):
        OpticalParams(ec_inefficiency=0.9)
    with pytest.raises(ValueError, match="rain_rate_mm_h"):
        RfParams(rain_rate_mm_h=-1.0)


def test_divisors_that_underflow_are_refused():
    # the rx gain divides by the square of the wavelength, and snr by k_B T B;
    # a wavelength whose gain times OPTICAL_TX_GAIN stays finite and > 0 still
    # builds (at 1e-150 the product overflows)
    with pytest.raises(ValueError, match="wavelength_m"):
        OpticalParams(wavelength_m=1e-300)
    assert 0 < OPTICAL_TX_GAIN * optical_rx_gain(OpticalParams(wavelength_m=1e-140)) < math.inf
    for name in ("sys_temp_k", "bandwidth_hz"):
        with pytest.raises(ValueError, match=name):
            RfParams(**{name: 5e-324})
    RfParams(sys_temp_k=1e-300)
