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

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .channels import OpticalParams, RfParams
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
from .ris import (QUANTUM, CLASSICAL, ChannelState, PhaseConfig, RisConfig, bits_to_levels,
                  levels_to_bits)

_TWO_PI = 2.0 * math.pi
_BATCH_ELEMENTS = 1 << 20     # cap on one (rows, pairs) temporary of QuadraticObjective.batch


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

    def quad_matrix(self) -> np.ndarray:
        """Dense symmetric Q (zero diagonal)."""
        q = np.zeros((self.dim, self.dim))
        q[self.pair_i, self.pair_j] = self.pair_w / 2.0
        q[self.pair_j, self.pair_i] = self.pair_w / 2.0
        return q


@dataclass(frozen=True)
class ExpansionReport:
    """Measured deviation of the quadratic surrogate from the exact objective."""

    max_abs_deviation: float     # max relative |quadratic - exact| over samples
    samples: int


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
        self.rf = rf
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
        baseline_snr = self.snr_coeff * abs(self.h0c) ** 2
        self.alpha, self.beta = resolve_weights(
            weights, current_snr=baseline_snr if baseline_snr > 0 else None)
        # unit phasors per quantized level, shared by all evaluation paths
        self._phasor_q = np.exp(1j * _TWO_PI * np.arange(1 << self.bq) / (1 << self.bq))
        self._phasor_c = np.exp(1j * _TWO_PI * np.arange(1 << self.bc) / (1 << self.bc))

    # -- scalar pieces ---------------------------------------------------

    def qber_from_total(self, tq_abs: float) -> float:
        return field_gain_qber(tq_abs, self.direct_amp, self.eps_base, self.p_dark)

    def cost_from_totals(self, tq: complex, tc: complex) -> float:
        eps = self.qber_from_total(abs(tq))
        gamma = self.snr_coeff * (tc.real * tc.real + tc.imag * tc.imag)
        return self.alpha * eps - self.beta * math.log2(1.0 + gamma)

    # -- bit-vector evaluation --------------------------------------------

    def levels_of(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.uint8)
        if x.shape != (self.dim,):
            raise ValueError(f"expected bit vector of length {self.dim}")
        return bits_to_levels(x, self.cfg)

    def totals_of(self, x: np.ndarray) -> tuple[complex, complex]:
        lq, lc = self.levels_of(x)
        tq = self.h0q + (self.uq * self._phasor_q[lq]).sum()
        tc = self.h0c + (self.uc * self._phasor_c[lc]).sum()
        return complex(tq), complex(tc)

    def value(self, x: np.ndarray) -> float:
        tq, tc = self.totals_of(x)
        return self.cost_from_totals(tq, tc)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized value() over rows of a (m, dim) bit matrix."""
        lq, lc = bits_to_levels(xs, self.cfg)
        tq = self.h0q + (self.uq * self._phasor_q[lq]).sum(axis=1)
        tc = self.h0c + (self.uc * self._phasor_c[lc]).sum(axis=1)
        eps = field_gain_qber_array(np.abs(tq), self.direct_amp, self.eps_base, self.p_dark)
        gamma = self.snr_coeff * np.abs(tc) ** 2
        return self.alpha * eps - self.beta * np.log2(1.0 + gamma)

    def qber_of(self, x: np.ndarray) -> float:
        tq, _ = self.totals_of(x)
        return self.qber_from_total(abs(tq))

    def metrics_of(self, x: np.ndarray) -> Metrics:
        tq, tc = self.totals_of(x)
        return link_metrics(self.direct_amp, abs(tq), abs(tc), self.optical, self.rf,
                            CostWeights(alpha=self.alpha, beta=self.beta), self.cal)

    def walk(self, x: np.ndarray) -> "ObjectiveWalk":
        return ObjectiveWalk(self, x)


class ObjectiveWalk:
    """Mutable evaluation state supporting O(1) single-bit flips."""

    def __init__(self, obj: ExactObjective, x: np.ndarray):
        self.obj = obj
        self.x = np.array(x, dtype=np.uint8, copy=True)
        self.levels_q, self.levels_c = obj.levels_of(self.x)
        self.tq, self.tc = obj.totals_of(self.x)
        self.value = obj.cost_from_totals(self.tq, self.tc)

    def _flip_parts(self, i: int) -> tuple[str, int, int, complex]:
        obj = self.obj
        split = obj.n * obj.bq
        if i < split:
            n, k = divmod(i, obj.bq)
            new_level = self.levels_q[n] ^ (1 << k)
            delta = obj.uq[n] * (obj._phasor_q[new_level] - obj._phasor_q[self.levels_q[n]])
            return (QUANTUM, n, new_level, delta)
        n, k = divmod(i - split, obj.bc)
        new_level = self.levels_c[n] ^ (1 << k)
        delta = obj.uc[n] * (obj._phasor_c[new_level] - obj._phasor_c[self.levels_c[n]])
        return (CLASSICAL, n, new_level, delta)

    def peek_flip(self, i: int) -> float:
        """Objective value if bit i were flipped; no state change."""
        band, _, _, delta = self._flip_parts(i)
        if band == QUANTUM:
            return self.obj.cost_from_totals(self.tq + delta, self.tc)
        return self.obj.cost_from_totals(self.tq, self.tc + delta)

    def apply_flip(self, i: int) -> None:
        band, n, new_level, delta = self._flip_parts(i)
        if band == QUANTUM:
            self.tq += delta
            self.levels_q[n] = new_level
        else:
            self.tc += delta
            self.levels_c[n] = new_level
        self.x[i] ^= 1
        self.value = self.obj.cost_from_totals(self.tq, self.tc)


def eval_exact(state: ChannelState, weights: CostWeights, cal: Calibration,
               optical: OpticalParams, rf: RfParams, cfg: RisConfig,
               x: np.ndarray) -> float:
    """Ground-truth cost of a bit vector (no Taylor or log linearization)."""
    return ExactObjective(state, weights, cal, optical, rf, cfg).value(x)


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
    beat = np.conj(t0) * u
    m = mult * (np.outer(u.real, u.real) + np.outer(u.imag, u.imag)
                - np.diag(beat.real))
    g = -2.0 * mult * beat.imag
    v = (_TWO_PI / (1 << bits)) * (1 << np.arange(bits))
    c = (_TWO_PI / (1 << bits)) * levels0
    q = np.kron(m, np.outer(v, v))                     # coefficient of x_i x_j
    linear = q.diagonal() + np.kron(g - 2.0 * (m @ c), v)
    pair_i, pair_j = np.triu_indices(len(q), 1)
    pair_w = 2.0 * q[pair_i, pair_j]
    keep = pair_w != 0.0
    return (linear, pair_i[keep].astype(np.int32), pair_j[keep].astype(np.int32),
            pair_w[keep], float(c @ m @ c - g @ c))


def build_qubo(state: ChannelState, weights: CostWeights, cal: Calibration,
               optical: OpticalParams, rf: RfParams, cfg: RisConfig,
               expansion_point: PhaseConfig | None = None) -> QuboModel:
    """Assemble the quadratic surrogate of the exact cost about an expansion point.

    The QBER map (a function of |H_Q_tot|^2) and the log-SNR map are replaced
    by first-order affine surrogates at the expansion point, so the model
    reproduces the exact objective there and stays quadratic everywhere.
    """
    obj = ExactObjective(state, weights, cal, optical, rf, cfg)
    bits0 = np.zeros(cfg.bits_total, np.uint8) if expansion_point is None else expansion_point.bits
    levels0_q, levels0_c = obj.levels_of(bits0)

    # cascades rotated to the expansion phases, and the band totals there
    uq0 = obj.uq * obj._phasor_q[levels0_q]
    uc0 = obj.uc * obj._phasor_c[levels0_c]
    tq0, tc0 = obj.h0q + uq0.sum(), obj.h0c + uc0.sum()
    pq0, pc0 = abs(tq0) ** 2, abs(tc0) ** 2

    # affine surrogates: d eps / d P_Q and -beta * d log2(1 + kappa P_C) / d P_C
    deps_dp = (-0.5 * (obj.eps_base - obj.p_dark) * obj.direct_amp * pq0 ** -1.5
               if pq0 > 0 else 0.0)
    gamma0 = obj.snr_coeff * pc0
    dlog_dp = obj.snr_coeff / ((1.0 + gamma0) * math.log(2.0))

    lin_q, iq, jq, wq, off_q = _band_terms(obj.alpha * deps_dp, tq0, uq0, levels0_q,
                                          cfg.bits_quantum)
    lin_c, ic, jc, wc, off_c = _band_terms(-obj.beta * dlog_dp, tc0, uc0, levels0_c,
                                          cfg.bits_classical)
    split = np.int32(cfg.n_elements * cfg.bits_quantum)
    return QuboModel(
        dim=cfg.bits_total,
        linear=np.concatenate([lin_q, lin_c]),
        pair_i=np.concatenate([iq, ic + split]),
        pair_j=np.concatenate([jq, jc + split]),
        pair_w=np.concatenate([wq, wc]),
        offset=obj.cost_from_totals(tq0, tc0) + off_q + off_c,
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
        self._adjacency: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def value(self, x: np.ndarray) -> float:
        return eval_quadratic(self.model, x)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """value() over the rows of a (m, dim) bit matrix.

        The pair term is reduced in row blocks whose (rows, pairs)
        temporaries hold about _BATCH_ELEMENTS entries. The column-indexed
        temporaries are column-major, so numpy sums each row of a block of two
        or more rows left to right but a lone row pairwise; no block of a
        taller batch has one row, and the sums do not depend on the block size.
        """
        xs = np.asarray(xs, dtype=float)
        m = self.model
        out = xs @ m.linear + m.offset
        if m.pair_w.size:
            quad = np.empty(len(xs))
            rows = max(2, _BATCH_ELEMENTS // m.pair_w.size)
            bounds = [0, *range(rows, len(xs) - 1, rows), len(xs)]
            for lo, hi in zip(bounds, bounds[1:]):
                block = xs[lo:hi]
                quad[lo:hi] = (block[:, m.pair_i] * block[:, m.pair_j]
                               * m.pair_w).sum(axis=1)
            out = out + quad
        return out

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbour lists in CSR form: (indptr, neighbour, weight).

        Bit i's neighbours and pair weights are neighbour[indptr[i]:indptr[i + 1]]
        and weight[...], in the order of the pairs that name i.
        """
        if self._adjacency is None:
            m = self.model
            ends = np.column_stack([m.pair_i, m.pair_j]).ravel()
            others = np.column_stack([m.pair_j, m.pair_i]).ravel()
            order = np.argsort(ends, kind="stable")
            indptr = np.zeros(self.dim + 1, np.int64)
            np.cumsum(np.bincount(ends, minlength=self.dim), out=indptr[1:])
            self._adjacency = (indptr, others[order], np.repeat(m.pair_w, 2)[order])
        return self._adjacency

    def walk(self, x: np.ndarray) -> "QuadraticWalk":
        return QuadraticWalk(self, x)


class QuadraticWalk:
    """Incremental single-flip evaluation of a quadratic model.

    Maintains the neighbour sums s_i = sum_j w_ij x_j, so a flip of bit i
    changes the value by (1 - 2 x_i)(c_i + s_i).
    """

    def __init__(self, obj: QuadraticObjective, x: np.ndarray):
        self.obj = obj
        self.x = np.array(x, dtype=np.uint8, copy=True)
        self.value = obj.value(self.x)
        model = obj.model
        self._sums = np.zeros(obj.dim)
        xf = self.x.astype(float)
        if model.pair_w.size:
            np.add.at(self._sums, model.pair_i, model.pair_w * xf[model.pair_j])
            np.add.at(self._sums, model.pair_j, model.pair_w * xf[model.pair_i])

    def _delta(self, i: int) -> float:
        return (1.0 - 2.0 * self.x[i]) * (self.obj.model.linear[i] + self._sums[i])

    def peek_flip(self, i: int) -> float:
        return self.value + self._delta(i)

    def apply_flip(self, i: int) -> None:
        step = 1.0 - 2.0 * self.x[i]     # +1 for 0 -> 1, -1 for 1 -> 0
        self.value += self._delta(i)
        indptr, neighbour, weight = self.obj.adjacency()
        lo, hi = indptr[i], indptr[i + 1]
        # unbuffered, in list order: a pair listed twice adds both terms
        np.add.at(self._sums, neighbour[lo:hi], weight[lo:hi] * step)
        self.x[i] ^= 1


def expansion_error(state: ChannelState, weights: CostWeights, cal: Calibration,
                    optical: OpticalParams, rf: RfParams, cfg: RisConfig,
                    samples: int, rng_seed: int,
                    expansion_point: PhaseConfig | None = None,
                    max_step: int | None = None) -> ExpansionReport:
    """Max relative deviation of the quadratic surrogate over sampled bit vectors.

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
                          else obj.levels_of(expansion_point.bits))
        n = cfg.n_elements
        dq = rng.integers(-max_step, max_step + 1, size=(samples, n))
        dc = rng.integers(-max_step, max_step + 1, size=(samples, n))
        lq = np.clip(lev_q0 + dq, 0, (1 << cfg.bits_quantum) - 1)
        lc = np.clip(lev_c0 + dc, 0, (1 << cfg.bits_classical) - 1)
        xs = levels_to_bits(lq, lc, cfg)
    exact = obj.batch(xs)
    quad = QuadraticObjective(model).batch(xs)
    dev = np.abs(quad - exact) / (np.abs(exact) + 1e-300)
    return ExpansionReport(max_abs_deviation=float(dev.max()), samples=samples)


# --- plain-text sparse triplet export -----------------------------------------

_CHUNK_ROWS = 1 << 15                  # triplet lines per text chunk of format_qubo
_TRIPLET_LINE = "%d %d %.16e\n"
_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def format_qubo(model: QuboModel, comments: list[str] | None = None) -> Iterator[str]:
    """The model as plain-text sparse triplets, yielded in text chunks.

    Format: '#' comment lines, a header 'qubo <dim> <n_linear> <n_quadratic>
    <offset>', then 'i i value' lines for nonzero linear terms and 'i j value'
    (i < j) for pair terms, zero-based, 17 significant digits. The first chunk
    holds the comments and the header; each later one at most _CHUNK_ROWS
    triplet lines.
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
            yield "".join(map(_TRIPLET_LINE.__mod__, zip(
                i[rows].tolist(), j[rows].tolist(), w[rows].tolist())))


def export_qubo(model: QuboModel, path: str, comments: list[str] | None = None) -> None:
    """Write format_qubo(model, comments) to path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(format_qubo(model, comments))


def _read_header(fh: TextIO) -> tuple[int, int, int, float]:
    """Skip comment and blank lines and parse the header: (dim, n_lin, n_quad, offset)."""
    for raw in iter(fh.readline, ""):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("qubo"):
            raise ValueError("triplet data before the qubo header")
        try:
            _, d, nl, nq, off = line.split()
            return int(d), int(nl), int(nq), float(off)
        except ValueError as exc:
            raise ValueError(f"malformed qubo header {line!r}: {exc}") from None
    raise ValueError("missing qubo header line")


def _first(mask: np.ndarray, body: np.ndarray) -> str:
    """The first triplet of body where mask holds, as text."""
    i, j, v = body[int(np.argmax(mask))].tolist()
    return f"{i} {j} {v!r}"


def load_qubo(path: str) -> QuboModel:
    """Read a model written by export_qubo.

    The header is read line by line; the triplets after it are parsed in one
    np.loadtxt call, in which '#' starts a comment anywhere on a line. Every
    rule is then checked on the parsed arrays.
    """
    with open(path, "r", encoding="utf-8") as fh:
        dim, n_lin, n_quad, offset = _read_header(fh)
        start = fh.tell()
        try:
            with warnings.catch_warnings():      # a file may hold no triplet at all
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, dtype=_TRIPLET, comments="#", ndmin=1)
        except ValueError as exc:
            fh.seek(start)
            if any(line.lstrip().startswith("qubo") for line in fh):
                raise ValueError("repeated qubo header") from None
            raise ValueError(f"malformed triplet line: {exc}") from None
    i, j, v = body["i"], body["j"], body["v"]
    bad = (i < 0) | (i >= dim) | (j < 0) | (j >= dim)
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
    if (np.diff(np.sort(pair_i * dim + pair_j)) == 0).any():
        raise ValueError("repeated pair line")
    return QuboModel(dim=dim, linear=linear, pair_i=pair_i.astype(np.int32),
                     pair_j=pair_j.astype(np.int32), pair_w=v[off_diag], offset=offset)
