"""Binary quadratic encoding of the joint dual-band phase selection problem.

The exact objective (no approximation) is the solver objective of record:
decode bits -> composite gains -> calibrated metrics -> scalar cost. The QUBO
surrogate expands each band's |H_tot|^2 to second order in the phase steps
about an expansion point and replaces the QBER and log-SNR maps by affine
surrogates there: F(x) = x^T Q x + c^T x + offset, exact at that point. The
cost splits by band, so Q has no pair across the quantum and classical blocks,
and each band's block is a rank-2 term plus a per-element diagonal, spread onto
the bits by their weights (_band_terms). The bit layout is ris.bits_to_levels.
"""
from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .channels import TWO_PI, OpticalParams, RfParams
from .metrics import (
    Calibration,
    CostWeights,
    Metrics,
    calibrated_baseline_qber,
    field_gain_qber,
    field_gain_qber_array,
    link_metrics,
    resolve_weights,
    snr,
)
from .ris import ChannelState, RisConfig, bits_to_levels, levels_to_bits

_BATCH_ELEMENTS = 1 << 20     # cap on one (rows, pairs) temporary of QuadraticObjective.batch
QUBO_MAX_PAIRS = 1 << 23      # build_qubo's cap; N = 1024 at 2 + 2 bits has 4.2M pairs
# 32 units of roundoff (2^-53): the error bound of an array term against its
# scalar term, relative to the terms and the weights (ExactObjective.screen_bound)
SCREEN_TOL = 2.0 ** -48


def qubo_pairs(n: int, bits_q: int, bits_c: int) -> int:
    """Pair count of the surrogate before exact zeros drop: C(N b_Q, 2) + C(N b_C, 2)."""
    return math.comb(n * bits_q, 2) + math.comb(n * bits_c, 2)


class ObjectiveError(ValueError):
    """The cost is not finite everywhere: at these weights, or on this channel."""


class SurrogateError(ObjectiveError):
    """build_qubo's model has a coefficient that is not finite."""


@dataclass
class QuboModel:
    """Sparse symmetric binary quadratic model F(x) = x^T Q x + c^T x + offset.

    Pair weights are stored upper-triangular (i < j) as the full coefficient of
    x_i x_j, i.e. w_ij = 2 Q_ij of the symmetric matrix. The diagonal is empty:
    x^2 = x terms are folded into the linear vector.
    """

    dim: int
    linear: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_w: np.ndarray
    offset: float
    n_elements: int = 0          # of a built model (perfbench's tracer reads it); 0 when loaded


class ExactObjective:
    """Ground-truth cost evaluator with O(1) incremental bit flips.

    Wraps a ChannelState (cascades already calibration-scaled) and precomputes
    everything needed to score a bit vector: per-band complex totals are the
    only state that changes between configurations. The cost is the sum of
    alpha * QBER(|T_Q|), which depends on the optical band only, and
    -beta * log2(1 + kappa |T_C|^2), which depends on the RF band only.
    """

    def __init__(self, state: ChannelState, weights: CostWeights, cal: Calibration,
                 optical: OpticalParams, rf: RfParams, cfg: RisConfig):
        if state.n_elements != cfg.n_elements:
            raise ValueError("state and RIS config disagree on element count")
        self.state = state
        self.cal = cal
        self.optical = optical
        self.cfg = cfg
        self.n = cfg.n_elements
        self.bq = cfg.bits_quantum
        self.bc = cfg.bits_classical
        self.dim = cfg.bits_total
        self.h0q = state.direct_quantum.as_complex
        self.h0c = state.direct_classical.as_complex
        self.uq = np.asarray(state.cascade_quantum, dtype=complex)
        self.uc = np.asarray(state.cascade_classical, dtype=complex)
        self.direct_amp = abs(self.h0q)
        self.p_dark = optical.dark_count_prob
        self.eps_base = calibrated_baseline_qber(self.direct_amp, cal, self.p_dark)
        self.snr_coeff = snr(rf, 1.0, cal.rf_gain_offset_db)     # SNR per unit |T_C|^2
        baseline_snr = self.snr_coeff * (self.h0c.real * self.h0c.real
                                         + self.h0c.imag * self.h0c.imag)
        self.alpha, self.beta = resolve_weights(
            weights, current_snr=baseline_snr if baseline_snr > 0 else None)
        # per band, quantum first: (direct gain, cascades, unit phasor per level)
        phasor_q = np.exp(1j * TWO_PI * np.arange(1 << self.bq) / (1 << self.bq))
        phasor_c = np.exp(1j * TWO_PI * np.arange(1 << self.bc) / (1 << self.bc))
        self.bands = ((self.h0q, self.uq, phasor_q), (self.h0c, self.uc, phasor_c))

    # -- scalar pieces ---------------------------------------------------

    def qber_from_total(self, tq_abs: float) -> float:
        return field_gain_qber(tq_abs, self.direct_amp, self.eps_base, self.p_dark)

    def quantum_term(self, tq: complex) -> float:
        """alpha * QBER(|T_Q|): the optical band's share of the cost."""
        return self.alpha * field_gain_qber(abs(tq), self.direct_amp, self.eps_base, self.p_dark)

    def classical_term(self, tc: complex) -> float:
        """-beta * log2(1 + kappa |T_C|^2): the RF band's share of the cost."""
        gamma = self.snr_coeff * (tc.real * tc.real + tc.imag * tc.imag)
        return -self.beta * math.log2(1.0 + gamma)

    def cost_from_totals(self, tq: complex, tc: complex) -> float:
        # a + (-b) is bitwise a - b, so the sum is the one cost formula
        return self.quantum_term(tq) + self.classical_term(tc)

    # -- bit-vector evaluation --------------------------------------------

    def levels_of(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.uint8)
        if x.shape != (self.dim,):
            raise ValueError(f"expected bit vector of length {self.dim}")
        return bits_to_levels(x, self.cfg)

    def totals_at(self, levels_q: np.ndarray, levels_c: np.ndarray) -> tuple[complex, complex]:
        """The band totals with each element at its level, quantum and classical."""
        (h0q, uq, phasor_q), (h0c, uc, phasor_c) = self.bands
        tq = h0q + (uq * phasor_q[levels_q]).sum()
        tc = h0c + (uc * phasor_c[levels_c]).sum()
        return complex(tq), complex(tc)

    def totals_of(self, x: np.ndarray) -> tuple[complex, complex]:
        return self.totals_at(*self.levels_of(x))

    def value(self, x: np.ndarray) -> float:
        tq, tc = self.totals_of(x)
        return self.cost_from_totals(tq, tc)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized value() over rows of a (m, dim) bit matrix.

        Each band total is one (m, N) product summed along its contiguous
        element axis, so the caller's row count bounds the temporaries.
        """
        tq, tc = (h0 + (u * phasor[lev]).sum(axis=1)
                  for (h0, u, phasor), lev in zip(self.bands, bits_to_levels(xs, self.cfg)))
        eps_terms, log_terms = self.terms(tq, tc)
        return eps_terms + log_terms          # a + (-b) is bitwise a - b

    def terms(self, tq: np.ndarray, tc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """quantum_term and classical_term over arrays of band totals.

        numpy's abs and log2 may round differently from the scalar terms' hypot
        and math.log2, by a few ulps.
        """
        eps = field_gain_qber_array(np.abs(tq), self.direct_amp, self.eps_base, self.p_dark)
        gamma = self.snr_coeff * (tc.real * tc.real + tc.imag * tc.imag)
        return self.alpha * eps, -self.beta * np.log2(1.0 + gamma)

    def exact_terms(self, tq: np.ndarray, tc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """quantum_term and classical_term over arrays of band totals, bit for bit.

        np.hypot is libm's hypot, as abs(complex) is, on every numpy dispatch
        level (numpy's abs is not), gamma is spelled as in classical_term, and
        the log is math.log2 per value (np.log2 may use other kernels). A term
        is NaN where its scalar term may raise or round otherwise: |T_Q| not
        finite (abs overflows), a gain |T_Q| / |h_Q| of 0, inf or NaN, or
        below the 1e-300 floor of field_gain_qber_array, or 1 + gamma not > 0.
        """
        with np.errstate(all="ignore"):
            amp = np.hypot(tq.real, tq.imag)
            gain = amp / self.direct_amp
            eps = field_gain_qber_array(amp, self.direct_amp, self.eps_base, self.p_dark)
            eps[~((amp <= 0.0) | ((gain >= 1e-300) & (gain < math.inf)))] = math.nan
            arg = 1.0 + self.snr_coeff * (tc.real * tc.real + tc.imag * tc.imag)
            arg[~(arg > 0.0)] = math.nan          # math.log2 raises there; NaN passes
            logs = np.fromiter(map(math.log2, arg.ravel().tolist()), float, arg.size)
            return self.alpha * eps, -self.beta * logs.reshape(arg.shape)

    def screen_bound(self, *parts: np.ndarray | float) -> np.ndarray:
        """SCREEN_TOL (sum of |part| + alpha p_dark + beta): how far a sum of
        parts, or a difference of such sums, may lie from its scalar value.

        Each part is an array term (terms) or a scalar term or cost. An array
        term differs from its scalar term only in numpy's abs and log2 against
        hypot and math.log2, each within a few ulps. A quantum term moves by a
        few ulps of alpha (QBER + p_dark): its parts are non-negative, or
        cancel against p_dark at most. A classical term moves by a few ulps of
        itself plus, as 1 + gamma rounds, up to about 15 units of roundoff of
        beta. SCREEN_TOL = 2^-48 is 32 units of roundoff (2^-53); it covers
        both terms' errors, the sums and one final subtraction. Near overflow
        the bound is 32 ulps of the largest float, so a score minus or plus it
        overflows wherever the scalar score does; an infinite or NaN part
        makes the bound infinite or NaN.
        """
        total = self.alpha * self.p_dark + self.beta
        for part in parts:
            total = total + np.abs(part)
        return SCREEN_TOL * total

    def qber_of(self, x: np.ndarray) -> float:
        tq, _ = self.totals_of(x)
        return self.qber_from_total(abs(tq))

    def metrics_of(self, x: np.ndarray) -> Metrics:
        return link_metrics(self, *self.totals_of(x))

    def walk(self, x: np.ndarray) -> "ObjectiveWalk":
        return ObjectiveWalk(self, x)


def _flip_deltas(u: np.ndarray, phasor: np.ndarray, bits: int,
                 levels: np.ndarray | None = None) -> np.ndarray:
    """u_n (phasor[l ^ 2^j] - phasor[l]): what flipping bit j of element n adds.

    For every level l as an (n, bit, level) array, or at levels[n] as (n, bit).
    The product is taken with real ufuncs (_product). Each entry is one
    elementwise computation, so both shapes give the same values.
    """
    k = len(phasor)
    d = phasor[np.arange(k) ^ (1 << np.arange(bits))[:, None]] - phasor   # (bit, level)
    if levels is None:
        return _product(u[:, None, None], d)
    return _product(u[:, None], d[:, levels].T)


def _product(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u * w elementwise, broadcast, in real ufuncs: they round like the scalar
    complex product on every numpy dispatch level, and numpy's vectorized
    complex product may not."""
    out = np.empty(np.broadcast_shapes(u.shape, w.shape), complex)
    out.real, out.imag = u.real * w.real - u.imag * w.imag, u.real * w.imag + u.imag * w.real
    return out


def _flip_table(obj: ExactObjective) -> tuple[list[complex], list[int], list[int],
                                               list[int], list[int]]:
    """Flip deltas of the band totals, and per bit i its base, element, band and mask.

    table[base[i] + l] = u_n (phasor[l ^ mask[i]] - phasor[l]) (_flip_deltas) is
    what flipping bit i adds to its band's total (band[i] 0 quantum, 1
    classical) when its element sits at level l; elem[i] indexes the element
    in a walk's level list, quantum first.
    """
    table, base, elem, band, mask = [], [], [], [], []
    for b, ((_, u, phasor), bits) in enumerate(zip(obj.bands, (obj.bq, obj.bc))):
        delta = _flip_deltas(u, phasor, bits)
        base += range(len(table), len(table) + delta.size, len(phasor))
        table += delta.ravel().tolist()
        elem += np.repeat(np.arange(b * obj.n, (b + 1) * obj.n), bits).tolist()
        band += [b] * (obj.n * bits)
        mask += [1 << j for j in range(bits)] * obj.n
    return table, base, elem, band, mask


class ObjectiveWalk:
    """Mutable evaluation state with O(1) single-bit flips.

    A flip changes one band's total, so it rescores only that band's term
    (quantum_term or classical_term) and adds the other band's cached term.
    Levels, totals, terms and the per-walk _flip_table are Python objects;
    peek_all computes its flip deltas from the levels in numpy instead.
    """

    def __init__(self, obj: ExactObjective, x: np.ndarray):
        self.obj = obj
        self.x = np.array(x, dtype=np.uint8, copy=True)
        self._x = memoryview(self.x)          # flips x without numpy scalar overhead
        levels_q, levels_c = obj.levels_of(self.x)
        self._levels = levels_q.tolist() + levels_c.tolist()
        self._totals = list(obj.totals_of(self.x))
        self._score = (obj.quantum_term, obj.classical_term)
        self._terms = [score(t) for score, t in zip(self._score, self._totals)]
        self.value = self._terms[0] + self._terms[1]
        self._table, self._base, self._elem, self._band, self._mask = _flip_table(obj)

    def peek_flip(self, i: int) -> float:
        """Objective value if bit i were flipped; x is unchanged."""
        b = self._band[i]
        t = self._totals[b] + self._table[self._base[i] + self._levels[self._elem[i]]]
        return self._score[b](t) + self._terms[1 - b]

    def peek_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Every peek_flip(i) as an array score, and a bound on each score's error.

        The flip deltas at the current levels (_flip_deltas) equal the table's
        entries, and complex add acts per component, so the candidate totals
        equal peek_flip's bit for bit. The score adds the array term of the
        flipped band (ExactObjective.terms) to the other band's scalar term,
        so ExactObjective.screen_bound of the two bounds its error.
        """
        obj, levels = self.obj, np.array(self._levels)
        (_, uq, phasor_q), (_, uc, phasor_c) = obj.bands
        tq = self._totals[0] + _flip_deltas(uq, phasor_q, obj.bq, levels[:obj.n]).ravel()
        tc = self._totals[1] + _flip_deltas(uc, phasor_c, obj.bc, levels[obj.n:]).ravel()
        nq = len(tq)
        with np.errstate(all="ignore"):
            new = np.concatenate(obj.terms(tq, tc))
            other = np.repeat((self._terms[1], self._terms[0]), (nq, obj.dim - nq))
            return new + other, obj.screen_bound(new, other)

    def apply_flip(self, i: int) -> None:
        b, e = self._band[i], self._elem[i]
        self._totals[b] += self._table[self._base[i] + self._levels[e]]
        self._terms[b] = self._score[b](self._totals[b])
        self._levels[e] ^= self._mask[i]
        self._x[i] ^= 1
        self.value = self._terms[0] + self._terms[1]

    def anneal_sweep(self, flips: list[int], draws: list[float], temp: float, factor: float,
                     best, trace: list[tuple[int, float]],
                     evaluations: int) -> tuple[float, int]:
        """One Metropolis sweep of simulated_annealing, in local variables.

        For each flip i and its draw in turn: peek_flip(i), accept when the
        change delta <= 0 or draw < exp(-delta / temp), then apply_flip(i), and
        multiply temp by factor. Each accepted state is offered to best
        (solvers._Best): a new best sets best.value and adds (evaluations,
        value) to trace at once, but x is copied into best.bits only before an
        accepted flip to a state that is not better, a tie included, so that
        offer compares a tie with saved bits, and at the end of the sweep.
        Returns the temperature and the evaluation count.
        """
        totals, terms, levels = self._totals, self._terms, self._levels
        table, base, elem, band, mask = (self._table, self._base, self._elem, self._band,
                                         self._mask)
        qterm, cterm = self._score
        x, xv, exp = self.x, self._x, math.exp
        value, best_value, unsaved = self.value, best.value, False
        for i, draw in zip(flips, draws):
            b, e = band[i], elem[i]
            # the flipped band's new total and term, plus the other band's term
            if b:
                t = totals[1] + table[base[i] + levels[e]]
                term = cterm(t)
                cand = term + terms[0]
            else:
                t = totals[0] + table[base[i] + levels[e]]
                term = qterm(t)
                cand = term + terms[1]
            evaluations += 1
            delta = cand - value
            if delta <= 0.0 or draw < exp(-delta / temp):
                if unsaved and not cand < best_value:     # else cand replaces that best
                    best.bits, unsaved = x.copy(), False
                totals[b], terms[b] = t, term
                levels[e] ^= mask[i]
                xv[i] ^= 1
                value = cand            # terms[0] + terms[1]: float addition commutes
                if value < best_value:
                    best.value = best_value = value
                    trace.append((evaluations, value))
                    unsaved = True
                elif value == best_value and best.offer(value, x):
                    trace.append((evaluations, value))
            temp *= factor
        if unsaved:
            best.bits = x.copy()
        self.value = value
        return temp, evaluations


def _band_terms(mult: float, t0: complex, u: np.ndarray, levels0: np.ndarray,
                bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """mult * (P(y) - P0) of one band as (linear, pair_i, pair_j, pair_w, offset).

    u holds the cascades rotated to the expansion point and t0 the band's total
    there. With e^{jd} ~ 1 + jd - d^2/2, P - P0 ~ -2 Im(conj(t0) u).d
    - Re(conj(t0) u).d^2 + |u.d|^2, so mult (P - P0) = d^T M d + g.d with
    M = mult (Re u Re u^T + Im u Im u^T - diag Re(conj(t0) u)) and
    g = -2 mult Im(conj(t0) u). d_n = s (y_n - level0_n), s = 2 pi / 2^bits, is
    affine in the bits with weights v_k = s 2^k, so the bits see M (x) v v^T.
    Indices are local to the band; pairs are sorted, exact zeros dropped.
    """
    beat = _product(np.conj(t0), u)
    m = mult * (np.outer(u.real, u.real) + np.outer(u.imag, u.imag)
                - np.diag(beat.real))
    g = -2.0 * mult * beat.imag
    v = (TWO_PI / (1 << bits)) * (1 << np.arange(bits))
    c = (TWO_PI / (1 << bits)) * levels0
    q = np.kron(m, np.outer(v, v))                     # coefficient of x_i x_j
    linear = q.diagonal() + np.kron(g - 2.0 * (m @ c), v)
    pair_i, pair_j = np.triu_indices(len(q), 1)
    pair_w = 2.0 * q[pair_i, pair_j]
    keep = pair_w != 0.0
    return (linear, pair_i[keep].astype(np.int32), pair_j[keep].astype(np.int32),
            pair_w[keep], float(c @ m @ c - g @ c))


def build_qubo(state: ChannelState, weights: CostWeights, cal: Calibration,
               optical: OpticalParams, rf: RfParams, cfg: RisConfig,
               expansion_point: np.ndarray | None = None) -> QuboModel:
    """Assemble the quadratic surrogate of the exact cost about an expansion point.

    The expansion point is a bit vector (None: all zero). The QBER map (a
    function of |H_Q_tot|^2) and the log-SNR map are replaced by first-order
    affine surrogates there, so the model reproduces the exact objective at
    that point and stays quadratic everywhere. Raises ValueError on an
    expansion point of the wrong length or with a value other than 0/1,
    refuses a model of more than QUBO_MAX_PAIRS pairs before allocating it,
    and raises SurrogateError when the offset, a linear term or a pair weight
    is not finite (weights so large that the surrogate overflows).
    """
    model = _surrogate(state, weights, cal, optical, rf, cfg, expansion_point)
    for name, values in (("offset", model.offset), ("linear term", model.linear),
                         ("pair weight", model.pair_w)):
        if not np.isfinite(values).all():
            raise SurrogateError(f"the QUBO surrogate has a non-finite {name} "
                                 "at these cost weights")
    return model


def _surrogate(state: ChannelState, weights: CostWeights, cal: Calibration,
               optical: OpticalParams, rf: RfParams, cfg: RisConfig,
               expansion_point: np.ndarray | None) -> QuboModel:
    """build_qubo's model, whose coefficients may overflow to inf or NaN."""
    pairs = qubo_pairs(cfg.n_elements, cfg.bits_quantum, cfg.bits_classical)
    if pairs > QUBO_MAX_PAIRS:
        raise ValueError(f"QUBO build refused: {pairs} pairs exceed the cap of {QUBO_MAX_PAIRS}")
    obj = ExactObjective(state, weights, cal, optical, rf, cfg)
    bits0 = np.zeros(cfg.bits_total, np.uint8) if expansion_point is None \
        else np.asarray(expansion_point, dtype=np.uint8)
    if bits0.size and bits0.max() > 1:
        raise ValueError("expansion point bits must be 0/1")
    levels0_q, levels0_c = obj.levels_of(bits0)         # raises on a wrong length

    # cascades rotated to the expansion phases, and the band totals there
    (_, uq, phasor_q), (_, uc, phasor_c) = obj.bands
    uq0 = _product(uq, phasor_q[levels0_q])
    uc0 = _product(uc, phasor_c[levels0_c])
    tq0, tc0 = obj.h0q + uq0.sum(), obj.h0c + uc0.sum()
    pq0, pc0 = abs(tq0) ** 2, abs(tc0) ** 2

    # affine surrogates: d eps / d P_Q and -beta * d log2(1 + kappa P_C) / d P_C
    deps_dp = (-0.5 * (obj.eps_base - obj.p_dark) * obj.direct_amp * pq0 ** -1.5
               if pq0 > 0 else 0.0)
    gamma0 = obj.snr_coeff * pc0
    dlog_dp = obj.snr_coeff / ((1.0 + gamma0) * math.log(2.0))

    with np.errstate(over="ignore", invalid="ignore"):     # build_qubo refuses the result
        lin_q, iq, jq, wq, off_q = _band_terms(obj.alpha * deps_dp, tq0, uq0, levels0_q,
                                              cfg.bits_quantum)
        lin_c, ic, jc, wc, off_c = _band_terms(-obj.beta * dlog_dp, tc0, uc0, levels0_c,
                                              cfg.bits_classical)
        offset = obj.cost_from_totals(tq0, tc0) + off_q + off_c
    split = np.int32(cfg.n_elements * cfg.bits_quantum)
    return QuboModel(
        dim=cfg.bits_total,
        linear=np.concatenate([lin_q, lin_c]),
        pair_i=np.concatenate([iq, ic + split]),
        pair_j=np.concatenate([jq, jc + split]),
        pair_w=np.concatenate([wq, wc]),
        offset=offset,
        n_elements=cfg.n_elements,
    )


def eval_quadratic(model: QuboModel, x: np.ndarray) -> float:
    """x^T Q x + c^T x + offset for a 0/1 vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected bit vector of length {model.dim}")
    quad = float((model.pair_w * x[model.pair_i] * x[model.pair_j]).sum()) \
        if model.pair_w.size else 0.0
    return model.offset + float(model.linear @ x) + quad


class QuadraticObjective:
    """Solver-facing wrapper for a built QuboModel with O(degree) flips."""

    def __init__(self, model: QuboModel):
        self.model = model
        self.dim = model.dim
        self._neighbours: list[tuple[np.ndarray, np.ndarray]] | None = None

    def value(self, x: np.ndarray) -> float:
        return eval_quadratic(self.model, x)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """value() over the rows of a (m, dim) bit matrix.

        Each row's pair term is the sum of its pair products left to right,
        as numpy sums the rows of a column-major (rows, pairs) block, and a
        lone row's pairwise, as numpy sums a contiguous vector. Two or more
        rows take the pairs in chunks whose (pairs, rows) products hold about
        _BATCH_ELEMENTS entries: numpy sums a C-order chunk one pair row after
        another, and the sum so far is added to the chunk's first row, so each
        value continues the same left-to-right sum.
        """
        xs = np.asarray(xs, dtype=float)
        m = self.model
        out = xs @ m.linear + m.offset
        if not m.pair_w.size:
            return out
        if len(xs) == 1:
            x = xs[0]
            return out + (x[m.pair_i] * x[m.pair_j] * m.pair_w).sum()
        bits = np.ascontiguousarray(xs.T)              # (dim, rows)
        step = max(1, _BATCH_ELEMENTS // max(len(xs), 1))
        quad = None
        for lo in range(0, m.pair_w.size, step):
            pairs = slice(lo, lo + step)
            t = bits[m.pair_i[pairs]]
            t *= bits[m.pair_j[pairs]]
            t *= m.pair_w[pairs, None]
            if quad is not None:
                t[0] += quad
            quad = t.sum(axis=0)
        return out + quad

    def neighbours(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per bit i, views of its (neighbour, weight) entries, in the order of
        the pairs that name i, into one CSR build of the neighbour lists."""
        if self._neighbours is None:
            m = self.model
            ends = np.column_stack([m.pair_i, m.pair_j]).ravel()
            others = np.column_stack([m.pair_j, m.pair_i]).ravel()
            order = np.argsort(ends, kind="stable")
            neighbour, weight = others[order], np.repeat(m.pair_w, 2)[order]
            bounds = [0, *np.cumsum(np.bincount(ends, minlength=self.dim)).tolist()]
            self._neighbours = [(neighbour[lo:hi], weight[lo:hi])
                                for lo, hi in zip(bounds, bounds[1:])]
        return self._neighbours

    def walk(self, x: np.ndarray) -> "QuadraticWalk":
        return QuadraticWalk(self, x)


class QuadraticWalk:
    """Incremental single-flip evaluation of a quadratic model.

    Maintains the neighbour sums s_i = sum_j w_ij x_j, so a flip of bit i
    changes the value by (1 - 2 x_i)(c_i + s_i). x, s and c are read as Python
    floats and ints (memoryviews and a list), without numpy scalars. A flip
    adds or subtracts bit i's weights at its neighbours in one unbuffered
    ufunc.at call, in list order, so a pair listed twice adds both terms and,
    as a + (-w) is a - w, every sum takes the steps of adding w (1 - 2 x_i).
    """

    def __init__(self, obj: QuadraticObjective, x: np.ndarray):
        self.obj = obj
        self.x = np.array(x, dtype=np.uint8, copy=True)
        self._x = memoryview(self.x)
        self.value = obj.value(self.x)
        model = obj.model
        self._sums = np.zeros(obj.dim)
        self._s = memoryview(self._sums)
        xf = self.x.astype(float)
        if model.pair_w.size:
            np.add.at(self._sums, model.pair_i, model.pair_w * xf[model.pair_j])
            np.add.at(self._sums, model.pair_j, model.pair_w * xf[model.pair_i])
        self._linear = model.linear.tolist()
        self._neighbours = obj.neighbours()

    def _delta(self, i: int) -> float:
        return (1.0 - 2.0 * self._x[i]) * (self._linear[i] + self._s[i])

    def peek_flip(self, i: int) -> float:
        return self.value + self._delta(i)

    def peek_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Every peek_flip(i) as an array, in _delta's arithmetic, so each is exact."""
        scores = self.value + (1.0 - 2.0 * self.x) * (self.obj.model.linear + self._sums)
        return scores, np.zeros(self.obj.dim)

    def apply_flip(self, i: int) -> None:
        self.value += self._delta(i)
        neighbour, weight = self._neighbours[i]
        (np.subtract if self._x[i] else np.add).at(self._sums, neighbour, weight)
        self._x[i] ^= 1

    def anneal_sweep(self, flips: list[int], draws: list[float], temp: float, factor: float,
                     best, trace: list[tuple[int, float]],
                     evaluations: int) -> tuple[float, int]:
        """One Metropolis sweep of simulated_annealing, in local variables; the
        same steps and best-bits rule as ObjectiveWalk.anneal_sweep."""
        delta_of, neighbours, sums = self._delta, self._neighbours, self._sums
        add_at, subtract_at = np.add.at, np.subtract.at
        x, xv, exp = self.x, self._x, math.exp
        value, best_value, unsaved = self.value, best.value, False
        for i, draw in zip(flips, draws):
            cand = value + delta_of(i)
            evaluations += 1
            delta = cand - value
            if delta <= 0.0 or draw < exp(-delta / temp):
                if unsaved and not cand < best_value:     # else cand replaces that best
                    best.bits, unsaved = x.copy(), False
                neighbour, weight = neighbours[i]
                (subtract_at if xv[i] else add_at)(sums, neighbour, weight)
                xv[i] ^= 1
                value = cand
                if value < best_value:
                    best.value = best_value = value
                    trace.append((evaluations, value))
                    unsaved = True
                elif value == best_value and best.offer(value, x):
                    trace.append((evaluations, value))
            temp *= factor
        if unsaved:
            best.bits = x.copy()
        self.value = value
        return temp, evaluations


def expansion_error(state: ChannelState, weights: CostWeights, cal: Calibration,
                    optical: OpticalParams, rf: RfParams, cfg: RisConfig,
                    samples: int, rng_seed: int,
                    expansion_point: np.ndarray | None = None,
                    max_step: int | None = None) -> float:
    """Max relative |quadratic - exact| of the surrogate over sampled bit vectors.

    With max_step=None the samples cover the full bit hypercube, which at
    coarse quantization exercises phase deviations up to almost a full turn.
    A small max_step restricts every element to within that many quantization
    levels of the expansion point, i.e. the small-angle neighbourhood where
    the second-order cosine model is meaningful.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    obj = ExactObjective(state, weights, cal, optical, rf, cfg)
    model = build_qubo(state, weights, cal, optical, rf, cfg, expansion_point)
    rng = np.random.default_rng(rng_seed)
    if max_step is None:
        xs = rng.integers(0, 2, size=(samples, cfg.bits_total), dtype=np.uint8)
    else:
        lev_q0, lev_c0 = ((0, 0) if expansion_point is None
                          else obj.levels_of(expansion_point))
        n = cfg.n_elements
        dq = rng.integers(-max_step, max_step + 1, size=(samples, n))
        dc = rng.integers(-max_step, max_step + 1, size=(samples, n))
        lq = np.clip(lev_q0 + dq, 0, (1 << cfg.bits_quantum) - 1)
        lc = np.clip(lev_c0 + dc, 0, (1 << cfg.bits_classical) - 1)
        xs = levels_to_bits(lq, lc, cfg)
    exact = obj.batch(xs)
    quad = QuadraticObjective(model).batch(xs)
    dev = np.abs(quad - exact) / (np.abs(exact) + 1e-300)
    return float(dev.max())


# --- plain-text sparse triplet export -----------------------------------------

_CHUNK_ROWS = 1 << 15                  # triplet lines per text chunk of format_qubo
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
# |x| range of _decimal: x (2^27 + 1) cannot overflow, and every part and
# product of the two-product with 10^k is a normal double
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_TIE_MARGIN = 2.0 ** -32       # far above the 5e-15 error of an inexact remainder
_SPLIT = 134217729.0           # 2^27 + 1: Veltkamp's split into halves of 26 bits
# a line's bytes after its second index: ' ', sign, first digit, '.', 16 digits,
# 'e', exponent sign, two NUL and the exponent word. NUL bytes are dropped
_VALUE_ROW = b" \x000.0000000000000000e+\x00\x00000\n"


@functools.cache
def _ascii_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ASCII words (4 bytes), built on first use: the four digits of 0..9999,
    the same with NUL for leading zeros (0 keeps one '0'), and NUL or the
    hundreds digit of 0..999, its tens and units digits and '\n'."""
    number = np.arange(10000, dtype=np.uint16)[:, None]
    digits = (number // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")).astype(np.uint8)
    leading = np.where(number >= np.array([1000, 100, 10, 0], np.uint16), digits, 0
                       ).astype(np.uint8)
    exponent = np.column_stack([leading[:1000, 1], digits[:1000, 2:],
                                np.full(1000, ord("\n"), np.uint8)])
    return tuple(table.view(np.uint32).ravel() for table in (digits, leading, exponent))


@functools.cache
def _power_of_ten(k: int) -> tuple[float, float, float, float]:
    """10^k as (hi, lo, hi's upper half, hi's lower half).

    hi is the double nearest 10^k and lo the double nearest 10^k - hi: Python
    divides integers with correct rounding, so hi + lo is within 2^-106 of
    10^k for k >= -291. Below that lo (or hi) is subnormal, and its rounding
    error, up to 2^-1075, exceeds 2^-106 hi. lo is 0 for 0 <= k <= 22. The
    Veltkamp halves of hi are split at hi's binary exponent and scaled back,
    so the split cannot overflow.
    """
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    n, d = hi.as_integer_ratio()
    m, ex = math.frexp(hi)
    c = m * _SPLIT
    head = c - (c - m)
    return (hi, (num * d - n * den) / (den * d),
            math.ldexp(head, ex), math.ldexp(m - head, ex))


def _scaled(a: np.ndarray, k: np.ndarray, b: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a + b) 10^k as ph + t, and where 10^k is not a double.

    ph = a * hi rounded, and Dekker's two-product gives its rounding error
    exactly; t adds a * lo (and b * hi) to that error. For a in [_FAST_MIN,
    _FAST_MAX] and a 10^k in [10^16, 10^17], |t| < 20 and ph + t is within
    5e-15 of a 10^k (2^-106 of hi left out of lo, and two roundings of t), or
    equal to it where lo is 0. For a 10^k in [1e-275, _FAST_MAX], a in
    [10^16, 10^17] and |b| <= 8, ph + t is within 2^-100 of (a + b) 10^k,
    relative (_triplet_columns). Both need k >= -291 (_power_of_ten).
    """
    base = int(k.min())
    table = np.array([_power_of_ten(e) for e in range(base, int(k.max()) + 1)]).T
    hi, lo, hi_head, hi_tail = (column[k - base] for column in table)
    ph = a * hi
    c = a * _SPLIT
    head = c - (c - a)
    tail = a - head
    err = ((head * hi_head - ph) + head * hi_tail + tail * hi_head) + tail * hi_tail
    t = err + a * lo
    if b is not None:
        t += b * hi
    return ph, t, lo != 0.0


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits and the decimal exponent of each value.

    Returns (digits, exp, settled) with |x| = digits 10^(exp - 16) rounded
    half-even, digits in [10^16, 10^17): the digits '%.16e' writes, wherever
    settled holds. Not settled are 0, non-finite values, |x| outside
    [_FAST_MIN, _FAST_MAX] and the rows whose inexact remainder lies within
    _TIE_MARGIN of a half-unit tie.
    """
    a = np.abs(x)
    settled = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~settled] = 1.0                                   # harmless digits, replaced later
    exp = np.floor(np.log10(a)).astype(np.int64)       # may be one off either way
    ph, t, inexact = _scaled(a, 16 - exp)
    # move exp once so that ph + t lies in [10^16, 10^17). Where a rounding
    # error could pick the wrong side of a bound, a 10^(16 - exp) is within
    # 1e-13 of it, and both sides write the same text after the carry below
    step = ((ph - 1e17) + t >= 0.0).astype(np.int64) - ((ph - 1e16) + t < 0.0)
    moved = np.flatnonzero(step)
    if moved.size:
        exp[moved] += step[moved]
        ph[moved], t[moved], inexact[moved] = _scaled(a[moved], 16 - exp[moved])
    # ph >= 2^53 is an even integer, so t rounded half-even rounds ph + t so
    r = np.rint(t)
    digits = ph.astype(np.int64) + r.astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    exp[carry] += 1
    settled &= ~inexact | (0.5 - np.abs(t - r) > _TIE_MARGIN)
    settled &= (digits >= 10 ** 16) & (digits < 10 ** 17)
    return digits, exp, settled


def _digit_words(value: np.ndarray, groups: int) -> list[np.ndarray]:
    """value < 10^(4 groups) as that many ASCII digit words, most significant first."""
    digit_words = _ascii_words()[0]
    words = []
    for _ in range(groups - 1):
        high = value // 10000
        words.append(digit_words[value - 10000 * high])
        value = high
    words.append(digit_words[value])
    return words[::-1]


def _index_words(index: np.ndarray, groups: int) -> list[np.ndarray]:
    """index < 10^(4 groups) as _digit_words, with NUL for its leading zeros."""
    digit_words, index_words, _ = _ascii_words()
    words = []
    for g in range(groups - 1, -1, -1):
        head = index // 10 ** (4 * g)                # this group's digits and those above
        if g == groups - 1:
            word = index_words[head]
        else:
            part = head % 10000
            word = np.where(head < 10000, index_words[part], digit_words[part])
        words.append(np.where(head > 0, word, 0) if g else word)
    return words


def _triplet_lines(i: np.ndarray, j: np.ndarray, w: np.ndarray) -> str:
    """'%d %d %.16e\n' % row for every row of (i, j, w), as one string.

    Each line is laid out in one uint8 row: both indices right-aligned in
    fields of whole 4-byte words with a space and three NUL between them,
    then _VALUE_ROW filled in, so that every 4-digit group is one word of the
    row's uint32 view. NUL bytes stand for what the line does not hold (an
    index's leading zeros, the sign of a positive value, a third exponent
    digit below 100), and the text is the row bytes without them. The rows
    _decimal leaves unsettled take Python's own '%.16e' text, NUL-padded, in
    the value's columns. Indices must be >= 0.
    """
    i, j, w = i.astype(np.int64), j.astype(np.int64), w.astype(np.float64, copy=False)
    if min(i.min(), j.min()) < 0:
        raise ValueError("triplet indices must be >= 0")
    groups = (len(str(max(i.max(), j.max()))) + 3) // 4
    v = 8 * groups + 4                               # _VALUE_ROW's first column
    text = np.empty((len(w), v + len(_VALUE_ROW)), np.uint8)
    text[:, :v] = 0
    text[:, 4 * groups] = ord(" ")
    text[:, v:] = np.frombuffer(_VALUE_ROW, np.uint8)
    words = text.view(np.uint32)
    for start, index in ((0, i), (groups + 1, j)):
        for g, word in enumerate(_index_words(index, groups)):
            words[:, start + g] = word
    digits, exp, settled = _decimal(w)
    first = digits // 10 ** 16
    text[:, v + 1] = np.where(w < 0, ord("-"), 0)
    text[:, v + 2] = first + ord("0")
    for g, word in enumerate(_digit_words(digits - first * 10 ** 16, 4)):
        words[:, v // 4 + 1 + g] = word
    text[:, v + 21] = np.where(exp < 0, ord("-"), ord("+"))
    words[:, v // 4 + 6] = _ascii_words()[2][np.abs(exp)]
    python = np.flatnonzero(~settled)
    if python.size:                      # from the sign up to the '\n'
        field = np.array(["%.16e" % x for x in w[python].tolist()], dtype="S26")
        text[python, v + 1:v + 27] = field.view(np.uint8).reshape(-1, 26)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def format_qubo(model: QuboModel, comments: list[str] | None = None) -> Iterator[str]:
    """The model as plain-text sparse triplets, yielded in text chunks.

    Format: '#' comment lines, a header 'qubo <dim> <n_linear> <n_quadratic>
    <offset>', then 'i i value' lines for nonzero linear terms and 'i j value'
    (i < j) for pair terms, zero-based, 17 significant digits. The first chunk
    holds the comments and the header; each later one at most _CHUNK_ROWS
    triplet lines. Every line is the text of '%d %d %.16e\n', byte for byte:
    _decimal computes the digits exactly in numpy, and Python's '%.16e'
    writes the values it leaves unsettled.
    """
    lin_idx = np.nonzero(model.linear)[0]
    head = [f"# {c}\n" for c in comments or []]
    head.append(f"qubo {model.dim} {len(lin_idx)} {len(model.pair_w)} "
                f"{model.offset:.16e}\n")
    yield "".join(head)
    for i, j, w in ((lin_idx, lin_idx, model.linear[lin_idx]),
                    (model.pair_i, model.pair_j, model.pair_w)):
        for lo in range(0, len(w), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            yield _triplet_lines(i[rows], j[rows], w[rows])


def export_qubo(model: QuboModel, path: str, comments: list[str] | None = None) -> None:
    """Write format_qubo(model, comments) to path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(format_qubo(model, comments))


def _read_header(fh: BinaryIO) -> tuple[int, int, int, float, int]:
    """Skip comment and blank lines and parse the header: (dim, n_lin, n_quad,
    offset, lines read)."""
    for count, raw in enumerate(fh, 1):
        line = raw.decode("utf-8").strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("qubo"):
            raise ValueError("triplet data before the qubo header")
        try:
            _, d, nl, nq, off = line.split()
            return int(d), int(nl), int(nq), float(off), count
        except ValueError as exc:
            raise ValueError(f"malformed qubo header {line!r}: {exc}") from None
    raise ValueError("missing qubo header line")


_LOAD_BLOCK = 1 << 18          # body bytes per block of _read_triplets
_SHORTEST_LINE = 27            # '0 0 0.0000000000000000e+00\n'
# decimal exponents e of digits 10^(e - 16), digits in [10^16, 10^17), that
# lie in [1e-275, _FAST_MAX]: _scaled needs k = e - 16 >= -291 (_power_of_ten)
_FAST_EXP = (-275, 289)
# per field length L = 0..8: the top L bytes of a word, and ASCII '0' below them
_KEEP = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], np.uint64)
_FILL = ~_KEEP & np.uint64(0x3030303030303030)


def _digit_fields(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eight ASCII digits per little-endian uint64 word as their value, and
    whether all eight are digits.

    Lemire's SWAR steps: one mask test checks every byte, and three
    multiplies combine digits, pairs and quads (uint64 arithmetic wraps, as
    it does in C).
    """
    digits = (((words + 0x4646464646464646) | (words - 0x3030303030303030))
              & 0x8080808080808080) == 0
    v = words - 0x3030303030303030
    v = v * 10 + (v >> 8)
    v = ((v & 0x000000FF000000FF) * 0x000F424000000064
         + ((v >> 16) & 0x000000FF000000FF) * 0x0000271000000001) >> 32
    return v, digits


def _triplet_columns(buf: np.ndarray, words: np.ndarray, s1: np.ndarray, s2: np.ndarray,
                     nl: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | int:
    """The (i, j, value) columns of the lines of buf whose spaces are s1 and s2
    and whose newlines are nl, or the index of a line that is not
    '%d %d %.16e\n' (_first_off_layout finds the first).

    words is buf's stride-1 view of unaligned uint64 words. A line holds
    indices of 1 to 8 digits without a leading zero and a value of an
    optional '-', a digit, '.', 16 digits, 'e', a sign and 2 or 3 digits;
    every byte is checked. Each 8-digit group, and each index or exponent as
    the word that ends with it, the bytes before it made '0', is one
    _digit_fields word. The value is digits D < 10^17 times 10^(e - 16);
    D = a + b with a = float(D) and |b| <= 8 is scaled as _scaled does, within
    2^-100 of the value, and s = ph + t is rounded once. r = (ph - s) + t is
    exactly what that sum left out. Rounding is monotone, so s is the double
    nearest the value wherever s + (r - m) and s + (r + m) both round to s,
    with m = _TIE_MARGIN s / 2^53 (at least 2^-33 ulp(s)); only values within
    m of a half-ulp tie fail that. Those rows, and the values outside
    [1e-275, _FAST_MAX] (_FAST_EXP) other than 0, take Python's float of
    their own bytes.
    """
    start = np.concatenate([[8], nl[:-1] + 1])
    neg = buf[s2 + 1] == 45                            # '-'
    vs = s2 + 1 + neg                                  # first digit of the value
    length = np.concatenate([s1 - start, s2 - s1 - 1, nl - vs - 20])   # i, j, exponent
    rows = len(nl)
    li, lj, le = length[:rows], length[rows:2 * rows], length[2 * rows:]
    fits = (li >= 1) & (li <= 8) & (lj >= 1) & (lj <= 8) & (le >= 2) & (le <= 3)
    if not fits.all():
        return int(np.argmin(fits))
    lead = buf[vs].astype(np.int64) - 48
    exp_neg = buf[vs + 19] == 45
    layout = ((buf[vs + 1] == 46) & (buf[vs + 18] == 101) & (exp_neg | (buf[vs + 19] == 43))
              & (lead >= 0) & (lead <= 9) & ((li == 1) | (buf[start] != 48))
              & ((lj == 1) | (buf[s1 + 1] != 48)))
    group = words[np.concatenate([s1, s2, nl, vs + 10, vs + 18]) - 8]
    fields = group[:3 * rows]
    fields &= _KEEP[length]
    fields |= _FILL[length]
    group, digits = _digit_fields(group)
    if not (layout.all() and digits.all()):
        return int(np.argmin(layout & digits.reshape(5, rows).all(axis=0)))
    i, j, e, high, low = group.astype(np.int64).reshape(5, rows)
    e = np.where(exp_neg, -e, e)
    d = lead * 10 ** 16 + high * 10 ** 8 + low
    fast = (lead > 0) & (e >= _FAST_EXP[0]) & (e <= _FAST_EXP[1])
    d = np.where(fast, d, 10 ** 16)                    # harmless digits, replaced below
    a = d.astype(np.float64)
    ph, t, _ = _scaled(a, np.where(fast, e - 16, 0), (d - a.astype(np.int64)).astype(np.float64))
    s = ph + t
    r = (ph - s) + t
    m = s * (_TIE_MARGIN * 2.0 ** -53)
    fast &= (s + (r + m) == s) & (s + (r - m) == s)
    zero = (lead == 0) & (high == 0) & (low == 0)
    s[zero] = 0.0
    v = np.where(neg, -s, s)
    for row in np.flatnonzero(~(fast | zero)).tolist():
        v[row] = float(buf[s2[row] + 1:nl[row]].tobytes())
    return i, j, v


def _first_off_layout(buf: np.ndarray, words: np.ndarray, sep: np.ndarray) -> int:
    """Index of the first line of a refused block of _read_triplets that is
    not '%d %d %.16e\n', given the positions sep of the block's bytes <= ' '.

    It starts from the first line whose such bytes are not ' ', ' ', '\n' or,
    when all are, the line still open at the block's end (longer than a
    block), and moves to a line that _triplet_columns refuses among the
    lines before it until it refuses none.
    """
    pattern = np.resize(np.frombuffer(b"  \n", np.uint8), len(sep))
    off = np.flatnonzero(buf[sep] != pattern)
    first = int(off[0]) // 3 if off.size else len(sep) // 3
    while first:
        s1, s2, nl = sep[:3 * first].reshape(-1, 3).T
        refused = _triplet_columns(buf, words, s1, s2, nl)
        if not isinstance(refused, int):
            break
        first = refused
    return first


def _read_triplets(raw: BinaryIO, size: int) -> np.ndarray | int:
    """The _TRIPLET rows of the size bytes left in raw, or the index of the
    first line that is not '%d %d %.16e\n' (a last line without its newline
    is not).

    The bytes are read in blocks of about _LOAD_BLOCK into one buffer behind
    8 bytes of '0' (a word that ends in the first line starts there). One
    scan finds the bytes <= ' ': up to the block's last newline they must be
    ' ', ' ', '\n' in turn, one triple per line, and _triplet_columns parses
    those lines. The bytes after the last newline move to the front for the
    next block; a refused block is searched for its first line off the
    layout (_first_off_layout). The rows go into one array sized for the
    shortest line. For a file of some MB, glibc's malloc maps that block on
    its own, so pages never written are never resident, and freeing it raises
    malloc's dynamic mmap and trim thresholds to its size: the multi-MB
    temporaries of later QUBO builds and exports are then reused from the
    heap instead of being returned to the system and faulted in again.
    """
    cap = size // _SHORTEST_LINE
    body = np.empty(cap, _TRIPLET)
    buf = np.full(8 + _LOAD_BLOCK, 48, np.uint8)
    words = np.ndarray((len(buf) - 7,), "<u8", buffer=buf, strides=(1,))
    rows = held = 0                        # lines parsed, bytes of a line carried over
    while got := raw.readinto(buf[8 + held:]):
        end = 8 + held + got
        sep = np.flatnonzero(buf[:end] <= 32)
        last = max(len(sep) - 3, 0)        # at most two spaces follow the last newline
        last += np.flatnonzero(buf[sep[last:]] == 10)
        if not last.size or last[-1] % 3 != 2 or rows + (last[-1] + 1) // 3 > cap:
            return rows + _first_off_layout(buf, words, sep)
        s1, s2, nl = sep[:last[-1] + 1].reshape(-1, 3).T
        if not ((buf[s1] == 32) & (buf[s2] == 32) & (buf[nl] == 10)).all():
            return rows + _first_off_layout(buf, words, sep)
        columns = _triplet_columns(buf, words, s1, s2, nl)
        if isinstance(columns, int):
            return rows + _first_off_layout(buf, words, sep)
        for name, part in zip("ijv", columns):
            body[name][rows:rows + len(nl)] = part
        rows += len(nl)
        held = end - (nl[-1] + 1)
        buf[8:8 + held] = buf[nl[-1] + 1:end]
    return rows if held else body[:rows]


def _first(mask: np.ndarray, body: np.ndarray) -> str:
    """The first triplet of body where mask holds, as text."""
    i, j, v = body[int(np.argmax(mask))].tolist()
    return f"{i} {j} {v!r}"


def load_qubo(path: str) -> QuboModel:
    """Read a model written by export_qubo.

    The header is read line by line. Every line after it must be laid out as
    export_qubo writes it, '%d %d %.16e\\n', and the triplets are parsed in
    numpy (_read_triplets); the refusal names the first line off that layout,
    counted from 1 at the file's first line. Every rule is then checked on the
    parsed arrays.
    """
    with open(path, "rb") as fh:
        dim, n_lin, n_quad, offset, head_lines = _read_header(fh)
        body = _read_triplets(fh, os.fstat(fh.fileno()).st_size - fh.tell())
    if isinstance(body, int):
        raise ValueError(f"malformed triplet line {head_lines + body + 1}: each line "
                         "after the qubo header must read '%d %d %.16e\\n'")
    i, j, v = body["i"], body["j"], body["v"]
    bad = (i >= dim) | (j >= dim)
    if bad.any():
        raise ValueError(f"index out of range in triplet {_first(bad, body)}")
    if (i > j).any():
        raise ValueError(f"pair entries must satisfy i < j, got {_first(i > j, body)}")
    on_diag, off_diag = i == j, i != j
    lin_sorted = np.sort(i[on_diag])
    repeat = lin_sorted[1:][np.diff(lin_sorted) == 0]
    if repeat.size:
        raise ValueError(f"repeated linear line for index {repeat[0]}")
    linear = np.zeros(dim)
    linear[i[on_diag]] = v[on_diag]
    pair_i, pair_j = i[off_diag], j[off_diag]
    if len(pair_i) != n_quad or int(np.count_nonzero(linear)) != n_lin:
        raise ValueError("header counts disagree with triplet data")
    keys = pair_i * dim + pair_j
    steps = np.diff(keys)
    if not (steps > 0).all():             # export_qubo writes the pairs sorted
        steps = np.diff(np.sort(keys))
    if (steps == 0).any():
        raise ValueError("repeated pair line")
    return QuboModel(dim=dim, linear=linear, pair_i=pair_i.astype(np.int32),
                     pair_j=pair_j.astype(np.int32), pair_w=v[off_diag], offset=offset)
