"""Dual-band RIS model: phase decoding and per-element cascade gains.

The two bands are controlled independently: each element carries b_Q bits for
the optical phase and b_C bits for the RF phase, and changing one band's bits
never perturbs the other band's composite gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    ComplexGain,
    OpticalParams,
    RfParams,
    TWO_PI,
    ionospheric_loss,
    optical_tx_gain,
    optical_rx_gain,
    rain_loss,
    rf_atmospheric_loss,
)
from .geometry import LinkGeometry

QUANTUM = "quantum"
CLASSICAL = "classical"
_BAND_CODE = {QUANTUM: 0, CLASSICAL: 1}


@dataclass(frozen=True)
class RisConfig:
    """RIS hardware description."""

    n_elements: int = 512
    bits_quantum: int = 2
    bits_classical: int = 2
    element_gain: float = 1.0            # linear gain per unit cell
    ris_to_ground_km: float = 0.5

    def __post_init__(self) -> None:
        if self.n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        if self.bits_quantum < 1 or self.bits_classical < 1:
            raise ValueError("phase resolutions need at least 1 bit")
        # zero gain means a transparent surface, useful for baselines
        if self.element_gain < 0:
            raise ValueError("element_gain must be non-negative")

    @property
    def bits_total(self) -> int:
        return self.n_elements * (self.bits_quantum + self.bits_classical)


@dataclass(frozen=True)
class PhaseConfig:
    """Binary phase assignment plus the decoded quantized phases per band."""

    bits: np.ndarray                     # uint8 vector, length N*(b_Q+b_C)
    phases_quantum: np.ndarray           # radians, length N
    phases_classical: np.ndarray         # radians, length N


@dataclass(frozen=True)
class ChannelState:
    """Direct gains plus per-element RIS cascade gains for both bands."""

    direct_quantum: ComplexGain
    direct_classical: ComplexGain
    cascade_quantum: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))
    cascade_classical: np.ndarray = field(default_factory=lambda: np.zeros(0, complex))

    def __post_init__(self) -> None:
        if len(self.cascade_quantum) != len(self.cascade_classical):
            raise ValueError("cascade arrays must have equal length")

    @property
    def n_elements(self) -> int:
        return len(self.cascade_quantum)


def bits_to_levels(bits: np.ndarray, cfg: RisConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-element (quantum, classical) phase levels of a bit vector or of each row.

    The one bit layout of the package: all quantum bits first (element-major,
    bit k minor), then all classical bits; level_n = sum_k 2^k x_{n,k}.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    lead, n = bits.shape[:-1], cfg.n_elements
    bq, bc = cfg.bits_quantum, cfg.bits_classical
    q_block = bits[..., : n * bq].reshape(*lead, n, bq)
    c_block = bits[..., n * bq:].reshape(*lead, n, bc)
    return q_block @ (1 << np.arange(bq)), c_block @ (1 << np.arange(bc))


def levels_to_bits(levels_q: np.ndarray, levels_c: np.ndarray, cfg: RisConfig) -> np.ndarray:
    """Inverse of bits_to_levels, for one level pair or a batch of them."""
    q_bits = (np.asarray(levels_q, np.int64)[..., None] >> np.arange(cfg.bits_quantum)) & 1
    c_bits = (np.asarray(levels_c, np.int64)[..., None] >> np.arange(cfg.bits_classical)) & 1
    lead, n = q_bits.shape[:-2], cfg.n_elements
    return np.concatenate([q_bits.reshape(*lead, n * cfg.bits_quantum),
                           c_bits.reshape(*lead, n * cfg.bits_classical)],
                          axis=-1).astype(np.uint8)


def decode_phases(bits: np.ndarray, cfg: RisConfig) -> PhaseConfig:
    """Decode the flat bit vector into per-element quantized phases.

    theta_n = (2 pi / 2^b) * level_n, with levels from bits_to_levels.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size != cfg.bits_total:
        raise ValueError(f"expected {cfg.bits_total} bits, got shape {bits.shape}")
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0/1")
    lq, lc = bits_to_levels(bits, cfg)
    return PhaseConfig(bits=bits,
                       phases_quantum=(TWO_PI / (1 << cfg.bits_quantum)) * lq,
                       phases_classical=(TWO_PI / (1 << cfg.bits_classical)) * lc)


def encode_phases(phases_quantum: np.ndarray, phases_classical: np.ndarray,
                  cfg: RisConfig) -> PhaseConfig:
    """Inverse of decode_phases for phases already on the quantized grid."""
    bq, bc = cfg.bits_quantum, cfg.bits_classical
    lev_q = np.rint(np.asarray(phases_quantum) * (1 << bq) / TWO_PI).astype(int) % (1 << bq)
    lev_c = np.rint(np.asarray(phases_classical) * (1 << bc) / TWO_PI).astype(int) % (1 << bc)
    return decode_phases(levels_to_bits(lev_q, lev_c, cfg), cfg)


def element_phase_offsets(cfg: RisConfig, band: str, seed: int) -> np.ndarray:
    """Deterministic per-element incident phase offsets psi_n in [0, 2*pi).

    Stratified-jittered uniform draw: the N offsets are spread one per stratum
    of width 2*pi/N and shuffled, so the set is low-discrepancy while each
    element's value stays seed-dependent. Identical seeds give identical
    sequences bit for bit.
    """
    n = cfg.n_elements
    if n == 0:
        return np.zeros(0)
    seq = np.random.SeedSequence([int(seed), _BAND_CODE[band]])
    rng = np.random.default_rng(seq)
    jitter = rng.random(n)
    perm = rng.permutation(n)
    return TWO_PI * (perm + jitter) / n


def cascade_gains(band: str, cfg: RisConfig, geom: LinkGeometry,
                  band_params: OpticalParams | RfParams, seed: int) -> np.ndarray:
    """Per-element cascade gains g_n (complex array of length N).

    Each element contributes a two-segment Friis amplitude: satellite->RIS over
    the slant range (carrying the band's atmospheric factor) and RIS->ground
    over the short ground segment (lossless), times the unit-cell gain. The
    phase is the element's offset psi_n drawn from seed. Absolute scale is
    pinned later by calibration.
    """
    if band not in _BAND_CODE:
        raise ValueError(f"unknown band {band!r}")
    n = cfg.n_elements
    if n == 0:
        return np.zeros(0, dtype=complex)
    d1_m = geom.slant_range_km * 1e3
    d2_m = cfg.ris_to_ground_km * 1e3
    lam = band_params.wavelength_m
    if band == QUANTUM:
        seg1 = (lam / (4.0 * math.pi * d1_m)) * math.sqrt(optical_tx_gain(band_params))
        seg1 *= math.exp(-band_params.atten_per_km * geom.atm_path_km / 2.0)
        seg2 = (lam / (4.0 * math.pi * d2_m)) * math.sqrt(optical_rx_gain(band_params))
    else:
        seg1 = (lam / (4.0 * math.pi * d1_m)) * math.sqrt(band_params.tx_gain)
        seg1 *= math.sqrt(rf_atmospheric_loss(band_params, geom)
                          * ionospheric_loss(band_params)
                          * rain_loss(band_params, geom))
        seg2 = (lam / (4.0 * math.pi * d2_m)) * math.sqrt(band_params.rx_gain)
    amp = seg1 * seg2 * cfg.element_gain
    psi = element_phase_offsets(cfg, band, seed)
    return amp * np.exp(1j * psi)

