"""Exact optimum of the dual-band phase problem, and the optimality-gap rule.

The cost alpha * qber(|T_Q|) - beta * log2(1 + kappa |T_C|^2) splits into one
term per band, and each term is non-increasing in the magnitude of that band's
total channel T = h0 + sum_n u_n exp(j 2 pi l_n / K). So the joint optimum
maximizes |T_Q| and |T_C| separately.

For one band, |T| = max_phi Re(T exp(-j phi)). For a fixed phi each element's
best level is the one closest to phi - arg u_n, and that choice only changes at
the N*K breakpoints arg u_n + 2 pi (l + 1/2) / K. Visiting the breakpoints in
sorted order, each one steps a single element up one level, and the largest
|T| met on the way is the exact optimum, in O(NK log NK) (Zhang, Shen, Ren, Li,
Chen, Luo, "Configuring Intelligent Reflecting Surface with Performance
Guarantees: Optimal Beamforming", IEEE JSTSP 2022).

Scoring here repeats the arithmetic of ExactObjective.cost_from_totals from the
objective's inputs, so a solver's claimed value is checked by separate code.
"""
from __future__ import annotations

import math

import numpy as np

from dualris.channels import ComplexGain, OpticalParams, RfParams
from dualris.metrics import BOLTZMANN, Calibration, CostWeights
from dualris.qubo import ExactObjective
from dualris.ris import ChannelState, RisConfig
from dualris import solvers

# relative differences at or below this are float dust, not a gap
DUST = 1e-12
# criterion-6 oracle campaign: instance seeds 1000.., N = 1..4, 2+2 bits
CAMPAIGN_INSTANCES = 200


def band_levels(h0: complex, u: np.ndarray, levels: int) -> np.ndarray:
    """Per-element levels that maximize |h0 + sum_n u_n exp(j 2 pi l_n / K)|."""
    u = np.asarray(u, dtype=complex)
    if u.size == 0:
        return np.zeros(0, dtype=np.int64)
    step = 2.0 * math.pi / levels
    phasor = np.exp(1j * step * np.arange(levels))
    arg = np.angle(u)
    # assignment just after phi = 0: the level closest to -arg u_n
    start = np.mod(np.round(-arg / step).astype(np.int64), levels)
    breaks = np.mod(arg[:, None] + step * (np.arange(levels)[None, :] + 0.5),
                    2.0 * math.pi)
    order = np.argsort(breaks, axis=None, kind="stable")
    elem, lev = np.unravel_index(order, breaks.shape)
    # breakpoint (n, l) moves element n from level l to l + 1 (mod K)
    steps = u[elem] * (phasor[(lev + 1) % levels] - phasor[lev])
    t0 = h0 + (u * phasor[start]).sum()
    totals = t0 + np.concatenate(([0.0], np.cumsum(steps)))
    k = int(np.argmax(np.abs(totals)))
    best = start.copy()
    np.add.at(best, elem[:k], 1)
    return best % levels


def band_total(h0: complex, u: np.ndarray, lev: np.ndarray, levels: int) -> complex:
    phasor = np.exp(1j * 2.0 * math.pi * np.arange(levels) / levels)
    return complex(h0 + (u * phasor[lev]).sum())


def cost_of_totals(obj: ExactObjective, tq: complex, tc: complex) -> float:
    """alpha * calibrated QBER(|tq|) - beta * log2(1 + kappa |tc|^2)."""
    eps_max = 0.5 + obj.p_dark
    a = abs(tq)
    if a <= 0.0:
        eps = eps_max
    else:
        eps = (obj.eps_base - obj.p_dark) / (a / obj.direct_amp) + obj.p_dark
        eps = min(max(eps, 0.0), eps_max)
    gamma = obj.snr_coeff * (tc.real * tc.real + tc.imag * tc.imag)
    return obj.alpha * eps - obj.beta * math.log2(1.0 + gamma)


def score_levels(obj: ExactObjective, lq: np.ndarray, lc: np.ndarray) -> float:
    kq, kc = 1 << obj.bq, 1 << obj.bc
    return cost_of_totals(obj, band_total(obj.h0q, obj.uq, lq, kq),
                          band_total(obj.h0c, obj.uc, lc, kc))


def score_bits(obj: ExactObjective, bits: np.ndarray) -> float:
    """Cost of a bit vector, decoded as element-major, least significant bit first."""
    bits = np.asarray(bits, dtype=np.int64)
    n, bq, bc = obj.n, obj.bq, obj.bc
    if bits.shape != (n * (bq + bc),):
        raise ValueError(f"expected {n * (bq + bc)} bits, got shape {bits.shape}")
    lq = (bits[: n * bq].reshape(n, bq) << np.arange(bq)).sum(axis=1)
    lc = (bits[n * bq:].reshape(n, bc) << np.arange(bc)).sum(axis=1)
    return score_levels(obj, lq, lc)


def optimum(obj: ExactObjective) -> float:
    """Exact minimum of the objective's cost over all phase assignments."""
    if obj.alpha < 0.0 or obj.beta < 0.0:
        raise ValueError("the per-band optimum needs non-negative cost weights")
    lq = band_levels(obj.h0q, obj.uq, 1 << obj.bq)
    lc = band_levels(obj.h0c, obj.uc, 1 << obj.bc)
    return score_levels(obj, lq, lc)


def relative_excess(value: float, opt: float) -> float:
    """(value - opt) / |opt|; negative when value beats the optimum."""
    return (value - opt) / max(abs(opt), 1e-300)


def gap(value: float, opt: float) -> float:
    """Optimality gap: the relative excess, with float dust counted as 0."""
    rel = relative_excess(value, opt)
    return rel if rel > DUST else 0.0


def campaign_instance(seed: int, n: int) -> ExactObjective:
    """Random small instance of the criterion-6 solver campaign."""
    rng = np.random.default_rng(seed)
    cfg = RisConfig(n_elements=n, bits_quantum=2, bits_classical=2)
    state = ChannelState(
        ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
        ComplexGain(1.0, rng.uniform(0, 2 * np.pi)),
        rng.uniform(0.02, 0.3, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)),
        rng.uniform(0.02, 0.3, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
    rf = RfParams()
    noise = BOLTZMANN * rf.sys_temp_k * rf.bandwidth_hz
    cal = Calibration(raw_rate_scale=1000.0, effective_visibility=0.98,
                      h_ref_sq=1.0 / rng.uniform(50, 200),
                      rf_gain_offset_db=10 * math.log10(100 * noise / rf.tx_power_w))
    return ExactObjective(state, CostWeights(), cal, OpticalParams(), rf, cfg)


def check_against_brute_force(instances: int = CAMPAIGN_INSTANCES) -> list[str]:
    """Compare optimum() with solvers.brute_force; returns one line per mismatch."""
    mismatches = []
    for i in range(instances):
        obj = campaign_instance(1000 + i, 1 + i % 4)
        exhaustive = solvers.brute_force(obj, obj.dim).best_value
        mine = optimum(obj)
        if abs(relative_excess(mine, exhaustive)) > DUST:
            mismatches.append(f"instance {i}: oracle {mine:.17g} "
                              f"brute force {exhaustive:.17g}")
    return mismatches
