"""Receiver performance metrics and the weights of the joint scalar cost.

The textbook forms (`qber` affine in a caller-supplied normalized
transmittance, `skr` from the binary entropy) are driven by a `Calibration`
whose constants pin the model to published Micius benchmark values: a fitted
effective visibility stands in for the turbulence-degraded one, the normalized
transmittance saturates as r / (1 + r) so that both elevation anchors are
reachable, and the RIS field-amplitude gain divides the residual error rate.
link_metrics reads every metric at an ExactObjective's band totals, so the
reported cost is the objective's own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channels import BOLTZMANN, RfParams

if TYPE_CHECKING:
    from .qubo import ExactObjective

QBER_SECURITY_THRESHOLD = 0.11


@dataclass(frozen=True)
class Metrics:
    """Joint link figures of merit for one configuration."""

    snr_linear: float
    ber: float
    qber: float
    skr_bits_s: float
    cost: float

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.snr_linear) if self.snr_linear > 0 else -math.inf


@dataclass(frozen=True)
class CostWeights:
    """Weights for the scalar cost F = alpha*qber - beta*log2(1 + snr).

    With beta = 0 the mode derives both weights (resolve_weights), so alpha
    may differ from 1 only beside an explicit beta > 0.
    """

    alpha: float = 1.0
    beta: float = 0.0             # 0 means "derive from mode"
    qber_threshold: float = 0.011
    snr_target: float = 100.0
    beta_o: float = 0.01
    mode: str = "static"          # static | swing

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("weights must be non-negative")
        if self.beta == 0 and self.alpha != 1:
            raise ValueError(f"alpha = {self.alpha:g} needs an explicit beta > 0; "
                             "with beta = 0 the mode sets both weights")
        if not 0.0 < self.qber_threshold <= 0.11:
            raise ValueError("qber_threshold must lie in (0, 0.11]")
        if self.snr_target <= 0:
            raise ValueError("snr_target must be positive")
        if not 1.0 + self.snr_target > 1.0:       # the weights divide by log2(1 + snr*)
            raise ValueError(f"snr_target = {self.snr_target:g} is too small: "
                             "log2(1 + snr_target) rounds to 0")
        if self.beta_o < 0:
            raise ValueError("beta_o must be non-negative")
        if self.mode not in ("static", "swing"):
            raise ValueError(f"unknown weight mode {self.mode!r}")


@dataclass(frozen=True)
class Calibration:
    """Scale constants pinning the model to the Micius anchors.

    raw_rate_scale        bits/s per unit normalized field amplitude
    effective_visibility  interferometric visibility V in the QBER
    h_ref_sq              reference power |H_ref|^2 normalizing transmittance
    rf_gain_offset_db     lumped RF antenna/system gain offset
    element_amp_scale     optical cascade amplitude multiplier
    rf_element_scale      RF cascade amplitude multiplier
    """

    raw_rate_scale: float
    effective_visibility: float
    h_ref_sq: float
    rf_gain_offset_db: float = 0.0
    element_amp_scale: float = 1.0
    rf_element_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("raw_rate_scale", "effective_visibility", "h_ref_sq",
                     "element_amp_scale", "rf_element_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def snr(rf: RfParams, h_tot_amplitude: float, gain_offset_db: float = 0.0) -> float:
    """Linear SNR  P_t |H_tot|^2 10^(offset/10) / (k_B T_sys B).

    Antenna gains are already folded into H exactly once, so no further G_t G_r
    factor is applied here; the calibrated offset absorbs the absolute scale.
    """
    noise_w = BOLTZMANN * rf.sys_temp_k * rf.bandwidth_hz
    return rf.tx_power_w * h_tot_amplitude**2 * 10.0 ** (gain_offset_db / 10.0) / noise_w


def ber_qpsk(snr_linear: float) -> float:
    """QPSK bit error rate Q(sqrt(2 * snr))."""
    if snr_linear < 0:
        raise ValueError("snr must be non-negative")
    # Q(x) = erfc(x / sqrt(2)) / 2, so Q(sqrt(2 G)) = erfc(sqrt(G)) / 2
    return 0.5 * math.erfc(math.sqrt(snr_linear))


def qber(v: float, h_norm_sq: float, p_dark: float) -> float:
    """Quantum bit error rate 0.5 * (1 - V * h) + p_dark, clamped.

    h_norm_sq is a normalized transmittance in [0, 1].
    """
    if not 0.0 <= h_norm_sq <= 1.0:
        raise ValueError("h_norm_sq must be in [0, 1]")
    eps = 0.5 * (1.0 - v * h_norm_sq) + p_dark
    return min(max(eps, 0.0), 0.5 + p_dark)


def binary_entropy(p: float) -> float:
    """h2(p) = -p log2 p - (1-p) log2 (1-p), with h2(0) = h2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def skr(raw_rate: float, eps: float, f_ec: float) -> float:
    """Secure key rate R_raw [1 - 2 h2(eps)] - f_EC R_raw h2(eps), clamped at 0."""
    if raw_rate < 0:
        raise ValueError("raw_rate must be non-negative")
    h = binary_entropy(min(max(eps, 0.0), 1.0))
    return max(0.0, raw_rate * (1.0 - 2.0 * h) - f_ec * raw_rate * h)


def static_weights(cw: CostWeights) -> tuple[float, float]:
    """Range-normalized weights: alpha = 1, beta = eps*/log2(1 + snr*)."""
    return (1.0, cw.qber_threshold / math.log2(1.0 + cw.snr_target))


def swing_weights(cw: CostWeights, current_snr: float) -> tuple[float, float]:
    """Dynamic swing weights re-balanced at the current operating SNR."""
    if current_snr <= 0:
        raise ValueError("current_snr must be positive for swing weights")
    alpha = 1.0 / cw.qber_threshold
    beta = cw.beta_o * math.log2(1.0 + cw.snr_target) / math.log2(1.0 + current_snr)
    return (alpha, beta)


def resolve_weights(cw: CostWeights, current_snr: float | None = None) -> tuple[float, float]:
    """Materialize (alpha, beta) for the configured mode."""
    if cw.beta > 0:
        return (cw.alpha, cw.beta)
    if cw.mode == "swing":
        if current_snr is None:
            raise ValueError("swing mode needs the current operating SNR")
        return swing_weights(cw, current_snr)
    return static_weights(cw)


# --- calibrated pipeline -----------------------------------------------------

def normalized_transmittance(power_ratio: float) -> float:
    """Saturating normalized transmittance r / (1 + r) in [0, 1)."""
    if power_ratio < 0:
        raise ValueError("power_ratio must be non-negative")
    return power_ratio / (1.0 + power_ratio)


def calibrated_baseline_qber(direct_amp: float, cal: Calibration, p_dark: float) -> float:
    """Baseline (no-RIS) QBER at a given direct-channel amplitude."""
    h = normalized_transmittance(direct_amp**2 / cal.h_ref_sq)
    return qber(cal.effective_visibility, h, p_dark)


def field_gain_qber(total_amp: float, direct_amp: float, eps_base: float,
                    p_dark: float) -> float:
    """QBER with the RIS field gain |H_tot| / |H_direct| dividing the residual error.

    eps = (eps_base - p_dark) / gain + p_dark, clamped to [0, 0.5 + p_dark]; a
    dead channel gives 0.5 + p_dark. A misaligned RIS (gain < 1) therefore
    raises the QBER. The clamp is a conditional expression because coordinate
    descent calls this once per candidate level.
    """
    eps_hi = 0.5 + p_dark
    if total_amp <= 0.0:
        return eps_hi
    eps = (eps_base - p_dark) / (total_amp / direct_amp) + p_dark
    return eps_hi if eps > eps_hi else (0.0 if eps < 0.0 else eps)


def field_gain_qber_array(total_amp: np.ndarray, direct_amp: float, eps_base: float,
                          p_dark: float) -> np.ndarray:
    """Elementwise field_gain_qber over an array of total amplitudes."""
    eps_hi = 0.5 + p_dark
    # the floor only keeps the discarded dead-channel branch finite; NaN takes
    # the formula branch and stays NaN, as in field_gain_qber
    eps = np.where(total_amp <= 0.0, eps_hi,
                   (eps_base - p_dark) / np.maximum(total_amp / direct_amp, 1e-300) + p_dark)
    return np.clip(eps, 0.0, eps_hi)


def calibrated_raw_rate(total_amp: float, cal: Calibration) -> float:
    """Raw key rate: raw_rate_scale per unit normalized field amplitude."""
    return cal.raw_rate_scale * total_amp / math.sqrt(cal.h_ref_sq)


def link_metrics(objective: ExactObjective, tq: complex, tc: complex) -> Metrics:
    """All receiver metrics at the band totals tq, tc of objective.

    QBER, gamma and cost are the objective's own terms at those totals, so
    the cost is the value the solvers minimize, bit for bit.
    """
    amp_q = abs(tq)
    eps = objective.qber_from_total(amp_q)
    gamma = objective.snr_coeff * (tc.real * tc.real + tc.imag * tc.imag)
    raw = calibrated_raw_rate(amp_q, objective.cal)
    return Metrics(
        snr_linear=gamma,
        ber=ber_qpsk(gamma),
        qber=eps,
        skr_bits_s=skr(raw, eps, objective.optical.ec_inefficiency),
        cost=objective.cost_from_totals(tq, tc),
    )
