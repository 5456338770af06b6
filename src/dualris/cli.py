"""Command line front end: config ingestion, CSV emission, subcommands.

Exit codes: 0 success, 2 configuration error or unwritable output path,
3 calibration failure, 4 infeasible optimization. Output files are written via
a temporary file and an atomic rename, so partial files are never left behind.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys
import tempfile
import typing
from collections.abc import Iterable
from datetime import datetime, timezone

from . import __version__
from .channels import OpticalParams, RfParams
from .experiments import (
    CalibrationAnchors,
    CalibrationError,
    RunConfig,
    SweepSpec,
    build_channel_state,
    calibrate,
    chi_square_uniform,
    delta_metrics,
    evaluate_point,
    histogram_problem,
    phase_histogram,
    solve_point,
    sweep_elevation,
    sweep_problem,
)
from .geometry import GeometryParams
from .metrics import QBER_SECURITY_THRESHOLD, Calibration, CostWeights
from .qubo import QUBO_MAX_PAIRS, ObjectiveError, build_qubo, format_qubo, qubo_pairs
from .ris import RisConfig
from .solvers import (BRUTE_FORCE_MAX_BITS, RNG_ALGORITHM, SolverConfig, min_qber,
                      trace_csv_lines)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_INFEASIBLE = 4

SWEEP_COLUMNS = ("elevation_deg", "n_elements", "snr_db", "ber", "qber",
                 "skr_bits_s", "cost", "feasible", "solver_evals",
                 "dsnr_db", "dqber_pp")
HISTOGRAM_COLUMNS = ("att", "quantum_bin", "classical_bin", "count")


class ConfigError(ValueError):
    pass


class OutputError(Exception):
    """An output file could not be written; the message names its path."""


_SECTION_TYPES = {
    "geometry": GeometryParams,
    "optical": OpticalParams,
    "rf": RfParams,
    "ris": RisConfig,
    "weights": CostWeights,
    "solver": SolverConfig,
    "sweep": SweepSpec,
}
_RUN_KEYS = ("seed", "output_dir")
_CALIBRATION_FIELDS = tuple(f.name for f in dataclasses.fields(Calibration))
_MAX_RANGE_ITEMS = 100_000           # a range spec is checked before its list is built


def _parse_scalar(raw: str, typ) -> object:
    raw = raw.strip()
    if typ is float:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{raw!r} is not a finite number")
        return value
    if typ is int:
        return int(raw)
    return raw


def _sequence_item(value: float, item_type):
    if item_type is int and not value.is_integer():
        raise ConfigError(f"{value:g} is not an integer")
    return item_type(value)


def _parse_sequence(raw: str, item_type) -> tuple:
    raw = raw.strip()
    if ":" in raw and "," not in raw:   # start:stop:step inclusive grid
        parts = [float(p) for p in raw.split(":")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)) or parts[2] <= 0:
            raise ConfigError(f"bad range spec {raw!r}")
        start, stop, step = parts
        span = (stop - start) / step       # inf when the quotient overflows
        if not span <= _MAX_RANGE_ITEMS - 1:
            raise ConfigError(f"range spec {raw!r} has more than {_MAX_RANGE_ITEMS} items")
        values = [start + i * step for i in range(int(round(span)) + 1)
                  if start + i * step <= stop + 1e-9]
    else:
        values = [_parse_scalar(p, float) for p in raw.split(",") if p.strip()]
    return tuple(_sequence_item(v, item_type) for v in values)


def _coerce_field(typ, raw: str):
    """Parse raw as a value of the resolved annotation typ."""
    if typing.get_origin(typ) is tuple:
        return _parse_sequence(raw, typing.get_args(typ)[0])
    return _parse_scalar(raw, typ)


def load_config(path: str) -> RunConfig:
    """Read a RunConfig from an INI-style key=value file.

    Unknown sections or keys are rejected so typos cannot silently fall back
    to defaults.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())      # configparser's messages span lines
        raise ConfigError(f"cannot parse config file {path!r}: {detail}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    kwargs = {}
    for section, items in sections.items():
        if section != "run" and section not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section [{section}]")
        cls = _SECTION_TYPES.get(section, RunConfig)
        types = typing.get_type_hints(cls)
        values = {}
        for key, raw in items:
            if key not in (_RUN_KEYS if cls is RunConfig else types):
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            try:
                values[key] = _coerce_field(types[key], raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
        if cls is RunConfig:
            kwargs.update(values)
            continue
        try:
            kwargs[section] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"invalid [{section}] settings: {exc}") from exc
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to path through a temporary file and a rename.

    The temporary file is removed on any failure; an OSError is raised again
    as an OutputError that names the path.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _metadata_lines(cfg: RunConfig, cal: Calibration, with_timestamp: bool) -> list[str]:
    lines = [
        f"# dualris {__version__}",
        f"# seed: {cfg.seed}",
        f"# rng: {RNG_ALGORITHM}",
        "# calibration: " + " ".join(
            f"{name}={getattr(cal, name):.17g}" for name in _CALIBRATION_FIELDS),
    ]
    if with_timestamp:
        lines.append(f"# timestamp: {datetime.now(timezone.utc).isoformat()}")
    return lines


def write_sweep_csv(path: str, cfg: RunConfig, cal: Calibration,
                    rows, with_timestamp: bool = True) -> None:
    lines = _metadata_lines(cfg, cal, with_timestamp)
    lines.append(",".join(SWEEP_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in SWEEP_COLUMNS))
    _atomic_write(path, ["\n".join(lines) + "\n"])


def write_histogram_csv(path: str, cfg: RunConfig, cal: Calibration,
                        grids, with_timestamp: bool = True) -> None:
    lines = _metadata_lines(cfg, cal, with_timestamp)
    lines.append(",".join(HISTOGRAM_COLUMNS))
    for att, grid in grids.items():
        for q in range(grid.shape[0]):
            for c in range(grid.shape[1]):
                lines.append(f"{_fmt(att)},{q},{c},{grid[q, c]}")
    _atomic_write(path, ["\n".join(lines) + "\n"])


def _calibration_lines(cal: Calibration) -> list[str]:
    return [f"{name} = {getattr(cal, name):.17g}" for name in _CALIBRATION_FIELDS]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualris",
        description="Dual-band RIS satellite link simulator and phase optimizer")
    parser.add_argument("--config", help="INI run configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link-budget", help="metrics for a single configuration")
    p.add_argument("--elevation", type=float, required=True)
    p.add_argument("--n", type=int, default=0, help="RIS element count")
    p.add_argument("--att", type=float, default=1.0)

    p = sub.add_parser("calibrate", help="fit and print the calibration constants")
    p.add_argument("--out", help="also write constants to this file")

    p = sub.add_parser("sweep", help="elevation sweep CSV")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("histogram", help="joint phase histogram CSV")
    p.add_argument("--out", default="histogram.csv")
    p.add_argument("--elevation", type=float, default=45.0)
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("optimize", help="optimize a single scenario")
    p.add_argument("--elevation", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--att", type=float, default=1.0)
    p.add_argument("--trace", help="write the solver trace CSV here")

    p = sub.add_parser("qubo-export", help="export the quadratic model")
    p.add_argument("--elevation", type=float, default=45.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="model.qubo")
    return parser


def _bad_number(opts: dict) -> str | None:
    """Why a numeric argument is out of range, or None when all are usable."""
    elevation, att, n = opts.get("elevation"), opts.get("att"), opts.get("n")
    if elevation is not None and not 0.0 < elevation <= 90.0:
        return f"--elevation must lie in (0, 90] deg, got {elevation:g}"
    if att is not None and not (math.isfinite(att) and att > 0.0):
        return f"--att must be finite and > 0, got {att:g}"
    if n is not None and n < 0:
        return f"--n must be >= 0, got {n}"
    return None


def _size_problem(cfg: RunConfig, command: str, n: int | None) -> str | None:
    """Why the command would exceed the brute-force bit cap or the QUBO pair cap, or None."""
    n = {"sweep": max(cfg.sweep.ris_sizes), "histogram": cfg.ris.n_elements,
         "optimize": n, "link-budget": n, "qubo-export": n}.get(command, 0)
    bq, bc = cfg.ris.bits_quantum, cfg.ris.bits_classical
    bits, pairs = n * (bq + bc), qubo_pairs(n, bq, bc)
    if command != "qubo-export" and cfg.solver.kind == "brute" and bits > BRUTE_FORCE_MAX_BITS:
        return (f"solver kind 'brute' refuses N = {n}: {bits} bits exceed its cap of "
                f"{BRUTE_FORCE_MAX_BITS}")
    if (command == "qubo-export" or cfg.solver.objective == "quadratic") \
            and pairs > QUBO_MAX_PAIRS:
        return (f"the QUBO surrogate refuses N = {n}: {pairs} pairs exceed its cap of "
                f"{QUBO_MAX_PAIRS}")
    return None


def _qber_margin(eps_min: float) -> str:
    """The smallest reachable QBER and its margin below the security threshold."""
    return (f"{eps_min:.6f} (margin {QBER_SECURITY_THRESHOLD - eps_min:+.6f} "
            f"below {QBER_SECURITY_THRESHOLD:g})")


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    problem = _bad_number(vars(args))
    if problem:
        print(f"argument error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "histogram":
        problem = histogram_problem(cfg.ris)
    elif args.command == "sweep":
        problem = sweep_problem(cfg.sweep)
    problem = problem or _size_problem(cfg, args.command, getattr(args, "n", None))
    if problem:
        print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        try:
            cal = calibrate(cfg, CalibrationAnchors())
        except CalibrationError as exc:
            print(f"calibration failed: {exc}", file=sys.stderr)
            return EXIT_CALIBRATION
        return _run_command(args, cfg, cal)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ObjectiveError as exc:        # weights whose cost or QUBO surrogate overflows
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run_command(args: argparse.Namespace, cfg: RunConfig, cal: Calibration) -> int:
    """Run the chosen subcommand on a loaded config and its calibration."""
    out_dir = cfg.output_dir

    if args.command == "calibrate":
        for line in _calibration_lines(cal):
            print(line)
        if args.out:
            _atomic_write(os.path.join(out_dir, args.out),
                          ["\n".join(_calibration_lines(cal)) + "\n"])
        return EXIT_OK

    if args.command == "link-budget":
        row, _, objective = evaluate_point(cfg, cal, args.elevation, args.n, args.att)
        # with no elements the direct path is the one assignment
        eps_min = row.qber if objective is None else min_qber(objective)
        print(f"elevation_deg: {row.elevation_deg:g}")
        print(f"n_elements:    {row.n_elements}")
        print(f"snr_db:        {row.snr_db:.3f}")
        print(f"ber:           {row.ber:.6e}")
        print(f"qber:          {row.qber:.6f}")
        print(f"skr_bits_s:    {row.skr_bits_s:.2f}")
        print(f"cost:          {row.cost:.6e}")
        print(f"feasible:      {row.feasible}")
        print(f"min_qber:      {_qber_margin(eps_min)}")
        return EXIT_OK

    if args.command == "sweep":
        rows = delta_metrics(sweep_elevation(cfg, cal))
        path = os.path.join(out_dir, args.out)
        write_sweep_csv(path, cfg, cal, rows, with_timestamp=not args.no_timestamp)
        print(f"wrote {path} ({len(rows)} rows)")
        return EXIT_OK

    if args.command == "histogram":
        try:
            grids = phase_histogram(cfg, cal, elevation_deg=args.elevation)
        except CalibrationError as exc:
            print(f"{exc} (QBER above security threshold)", file=sys.stderr)
            return EXIT_INFEASIBLE
        path = os.path.join(out_dir, args.out)
        write_histogram_csv(path, cfg, cal, grids, with_timestamp=not args.no_timestamp)
        for att, grid in grids.items():
            print(f"att={att:g}: counts sum {grid.sum()}, "
                  f"chi2-to-uniform {chi_square_uniform(grid):.2f}")
        print(f"wrote {path}")
        return EXIT_OK

    if args.command == "optimize":
        result, objective = solve_point(cfg, cal, args.elevation, args.n,
                                        att=args.att)
        eps_min = min_qber(objective)
        if not result.feasible:
            print("no feasible phase assignment (QBER above security threshold); "
                  f"minimum achievable QBER {_qber_margin(eps_min)}", file=sys.stderr)
            return EXIT_INFEASIBLE
        m = objective.metrics_of(result.best_bits)
        print("x*:", "".join(str(int(b)) for b in result.best_bits))
        print(f"cost: {result.best_value:.6e}   evaluations: {result.evaluations}")
        print(f"snr_db: {m.snr_db:.3f}  qber: {m.qber:.6f}  "
              f"skr_bits_s: {m.skr_bits_s:.2f}")
        print(f"min_qber: {_qber_margin(eps_min)}")
        if args.trace:
            _atomic_write(os.path.join(out_dir, args.trace),
                          ["\n".join(trace_csv_lines(result)) + "\n"])
        return EXIT_OK

    if args.command == "qubo-export":
        state, ris_cfg, _ = build_channel_state(cfg, cal, args.elevation, args.n)
        model = build_qubo(state, cfg.weights, cal, cfg.optical, cfg.rf, ris_cfg)
        path = os.path.join(out_dir, args.out)
        comments = [f"dualris {__version__}", f"seed {cfg.seed}",
                    f"elevation_deg {args.elevation:g}", f"n_elements {args.n}"]
        _atomic_write(path, format_qubo(model, comments))
        print(f"wrote {path} (dim {model.dim}, {len(model.pair_w)} pair terms)")
        return EXIT_OK

    return EXIT_CONFIG


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
