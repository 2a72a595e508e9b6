"""Command-line entry points: run, sweep, validate, presets.

Outputs are byte-stable: floats are printed in canonical scientific
notation with 17 significant digits, keys and rows are emitted in a fixed
order, and nothing depends on randomness or worker count, so identical
configurations produce identical files.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy
import scipy

from . import __version__, units
# apply_axis_value is unused here but stays a name of this module:
# perfbench/tracing.py wraps cli.apply_axis_value by name
from .config import (FLOAT_FORMAT, SWEEP_AXES, ConfigError, RunConfig,
                     apply_axis_value, canonical_text, execute, format_float,
                     load_config, plan, preset_config, sweep_points, PRESETS)
from .observables import ObservableTrace
from .propagator import ConvergenceError, openblas_threads
from .units import au_to_ev, au_to_fs

WORKERS_ENV = "ZENOAUGER_WORKERS"

EXIT_OK = 0
EXIT_FIT_FLAGGED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON with canonical float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{key}": {_json_text(obj[key], indent + 1)}'
                 for key in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, float) and not math.isinf(v) for v in obj):
            # one format over the whole list, as format_float would give
            body = ",\n".join([inner + FLOAT_FORMAT] * len(obj)) % tuple(obj)
        else:
            body = ",\n".join(f"{inner}{_json_text(v, indent + 1)}"
                               for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"'
        return format_float(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _table(rows: numpy.ndarray, row_format: str) -> str:
    """Rows of a 2-D array, each formatted with ``row_format``."""
    return row_format * len(rows) % tuple(rows.ravel().tolist())


def _trace_csv(trace: ObservableTrace) -> str:
    # n_v1, n_v2 and n_v3 are P_bound, P1 and P2: each value is formatted
    # once and its text written twice
    n = len(trace.times)
    t, n_c, p_bound, p1, p2 = (
        ("\n".join([FLOAT_FORMAT] * n) % tuple(column.tolist())).split("\n")
        for column in (au_to_fs(trace.times), trace.n_c, trace.P_bound,
                       trace.P1, trace.P2))
    rows = zip(t, n_c, p_bound, p1, p2, p1, p2, p_bound,
               trace.cycle_flags.astype(int).tolist())
    return ("t_fs,n_c,n_v1,n_v2,n_v3,P1,P2,P_bound,cycle_boundary\n"
            + ",".join(["%s"] * 8 + ["%d\n"]) * n
            % tuple(itertools.chain.from_iterable(rows)))


def _spectrum_csv(trace: ObservableTrace) -> str:
    parts = ["t_fs,region,eps_eV,A,A_per_eV\n"]
    for spectrum in trace.spectra:
        t_fs = format_float(au_to_fs(float(spectrum.time)))
        for region in ("S", "P"):
            energies, a, d_eps = spectrum.region(region)
            rows = numpy.column_stack((au_to_ev(energies), a,
                                    a / au_to_ev(d_eps)))
            parts.append(_table(rows, f"{t_fs},{region},{FLOAT_FORMAT},"
                                      f"{FLOAT_FORMAT},{FLOAT_FORMAT}\n"))
    return "".join(parts)


def _summary(result) -> dict:
    fit = result.fit
    return {
        "fit": {
            "tau_eff_fs": au_to_fs(fit.tau_eff),
            "tau_one_over_e_fs": au_to_fs(fit.tau_one_over_e),
            "r_squared": fit.r_squared,
            "accepted": fit.accepted,
            "method": fit.method,
            "fit_window_fs": [au_to_fs(fit.fit_window[0]),
                              au_to_fs(fit.fit_window[1])],
        },
        "peaks": [
            {
                "region": p.region,
                "position_eV": au_to_ev(p.position),
                "height_per_eV": p.height / units.HARTREE_EV,
                "width_eV": au_to_ev(p.width) if math.isfinite(p.width)
                            else math.inf,
            }
            for p in result.peaks
        ],
        "splittings_eV": {
            region: [au_to_ev(s) for s in values]
            for region, values in result.splittings.items()
        },
        "norm_error": result.trace.norm_error(),
        "warnings": list(result.warnings),
    }


def emit(result, out_dir: str | Path) -> Path:
    """Write trace, spectrum, summary, expanded config and provenance."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    expanded = canonical_text(result.config)
    (out / "trace.csv").write_text(_trace_csv(result.trace),
                                   encoding="utf-8")
    (out / "spectrum.csv").write_text(_spectrum_csv(result.trace),
                                      encoding="utf-8")
    (out / "summary.json").write_text(_json_text(_summary(result)) + "\n",
                                      encoding="utf-8")
    (out / "config.expanded").write_text(expanded, encoding="utf-8")
    provenance = {
        "package": "zenoauger",
        "version": __version__,
        "config_sha256": hashlib.sha256(expanded.encode()).hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "deterministic": True,
        "statement": ("no random number generators are used; an identical "
                      "expanded configuration reproduces these files byte "
                      "for byte"),
    }
    if openblas_threads() is None:
        provenance["blas_threads"] = (
            "not pinned: numpy's OpenBLAS thread setter was not found, so "
            "the last bits of runs with Lanczos spaces may depend on the "
            "BLAS thread count")
    (out / "provenance.json").write_text(_json_text(provenance) + "\n",
                                         encoding="utf-8")
    return out


def _config_from_args(args) -> RunConfig:
    if args.config is None and args.preset is None:
        raise ConfigError("provide --config and/or --preset")
    if args.config is not None:
        return load_config(args.config, overrides=args.override,
                           preset=args.preset)
    return preset_config(args.preset, overrides=args.override)


def _run_sweep_point(payload):
    point, value_label, point_dir = payload
    try:
        result = execute(point)
        emit(result, point_dir)
        fit = _summary(result)["fit"]
        return {"value": value_label, "tau_eff_fs": fit["tau_eff_fs"],
                "tau_one_over_e_fs": fit["tau_one_over_e_fs"],
                "r_squared": fit["r_squared"], "status": "ok"}
    except Exception as exc:  # a solver or I/O error must not kill the sweep
        return {"value": value_label, "tau_eff_fs": math.nan,
                "tau_one_over_e_fs": math.nan, "r_squared": math.nan,
                "status": f"error: {exc}"}


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    plan(cfg)  # refuse a bad configuration before any output exists
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = execute(cfg)
    out = emit(result, args.out)
    print(f"run complete: {out}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    return EXIT_OK if result.fit.accepted else EXIT_FIT_FLAGGED


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"needs comma-separated finite numbers, got "
                          f"{args.values!r}", "--values")
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    out = Path(args.out)
    points = sweep_points(cfg, args.axis, values)  # before any output
    payloads = [(point, v, str(out / "points" / f"{i:03d}"))
                for i, (point, v) in enumerate(zip(points, values))]
    out.mkdir(parents=True, exist_ok=True)
    # the pool forks all of its workers at once: never more than points
    workers = min(args.workers, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_point, payloads))
    else:
        rows = [_run_sweep_point(p) for p in payloads]

    lines = [f"{args.axis},tau_eff_envelope_fs,tau_eff_1e_fs,r_squared,status"]
    for row in rows:
        lines.append(",".join((
            format_float(row["value"]),
            format_float(row["tau_eff_fs"]),
            format_float(row["tau_one_over_e_fs"]),
            format_float(row["r_squared"]),
            row["status"].replace(",", ";"),
        )))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"sweep complete: {out / 'sweep.csv'}")
    failed = [r for r in rows if r["status"] != "ok"]
    for row in failed:
        print(f"point {row['value']}: {row['status']}")
    return EXIT_FIT_FLAGGED if failed else EXIT_OK


def cmd_validate(args) -> int:
    for region, report in zip("SP", plan(_config_from_args(args)).reports):
        print(f"region {region}: ok  "
              f"T_rec = {au_to_fs(report.recurrence_time):.2f} fs, "
              f"points/linewidth = {report.points_per_linewidth:.2f}")
        for diag in report.diagnostics:
            print(f"  {diag}")
    return EXIT_OK


def cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        keys = PRESETS[name]
        print(f"{name}: tau1 = {keys['model.tau1']}, "
              f"omega = {keys['drive.omega']}, mode = {keys['drive.mode']}")
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--config", help="path to a flat key-value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named scenario to expand")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenoauger",
        description="Simulate measurement-slowed Auger-type decay")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one simulation, files to --out")
    _add_common(p_run)
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="one run per axis value")
    _add_common(p_sweep)
    p_sweep.add_argument("--out", default="out", help="output directory")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES,
                         help="swept parameter (Omega2 in eV^2, intensity in "
                              "TW/cm^2, times in fs, omega in eV)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--workers", type=int,
                         default=os.environ.get(WORKERS_ENV, "1"),
                         help=f"concurrent points (default ${WORKERS_ENV} or 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config without running")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_presets = sub.add_parser("presets", help="list named scenarios")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
