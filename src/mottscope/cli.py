"""Command-line front end.

Axis flags accept either a comma list ("1,2,5.5") or a range expression
"start:stop:count" (linear) / "start:stop:count:log" (geometric).  Every
setting resolves in one merge, a flag over the --config file over the
built-in defaults (MOTTSCOPE_CACHE is the default cache_dir), so a value
passes the same checks however it was given.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from .config import DEFAULT_J_ER, DEFAULT_V0_ER, read_config_file
from .errors import ValidationError
from .harness import (CRITICAL_COLUMNS, CSV_COLUMNS, ScanPlan, check_fillings,
                      critical_points_report, rows_to_csv, rows_to_json,
                      run_compare, run_scan, validate_plan)
from .meanfield import LAMBDA_SOURCES

def parse_axis(text: str) -> list[float]:
    """Comma list or start:stop:count[:log] range expression."""
    text = text.strip()
    parts = text.split(":")
    if len(parts) not in (1, 3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ValidationError(
            f"bad range {text!r}; expected start:stop:count[:log]")
    try:
        if len(parts) == 1:
            return [float(tok) for tok in text.split(",") if tok.strip()]
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad axis value in {text!r}: {exc}") from exc
    if count < 1:
        raise ValidationError(f"range count must be >= 1 in {text!r}")
    if not math.isfinite(stop - start):
        raise ValidationError(f"range ends and their span must be finite in {text!r}")
    if len(parts) == 4:
        if start <= 0 or stop <= 0:
            raise ValidationError("log range needs positive endpoints")
        return [float(x) for x in np.geomspace(start, stop, count)]
    return [float(x) for x in np.linspace(start, stop, count)]


def _exact_int(value) -> int:
    """A token or a float, read exactly as a decimal: an integer in float range."""
    try:
        v = Decimal(value)
    except InvalidOperation as exc:
        raise ValidationError(f"bad axis value {value!r}") from exc
    if not v.is_finite() or not math.isfinite(float(v)) or v != v.to_integral_value():
        raise ValidationError(f"expected integers, got {v}")
    return int(v)


def parse_int_axis(text: str) -> list[int]:
    """Integer axis; list tokens and linear range ends are read as decimals.

    A linear range steps in integers, so its points stay in [start, stop]; a
    geometric one takes parse_axis's points between its two ends.  A value
    must be integral and within float range, as in every other axis.
    """
    if ":" not in text:
        return [_exact_int(tok) for tok in text.split(",") if tok.strip()]
    points = parse_axis(text)  # checks the range form and its count
    parts = text.strip().split(":")
    start, stop = _exact_int(parts[0]), _exact_int(parts[1])
    if len(parts) == 4:
        inner = [_exact_int(x) for x in points[1:-1]]
        return [start, *inner, stop][:len(points)]   # one point: start alone
    step, rest = divmod(stop - start, max(len(points) - 1, 1))
    if rest:
        raise ValidationError(
            f"expected integers, got step {(stop - start) / (len(points) - 1)}")
    return [start + i * step for i in range(len(points))]


COMMANDS = {
    "exact": "exact-diagonalization inelastic cross section",
    "sce": "strong-coupling inelastic cross section",
    "mf": "mean-field inelastic cross section",
    "scan": "multi-method parameter scan",
    "compare": "exact vs strong-coupling relative difference",
    "critical": "critical couplings per filling",
}

# Every flag by the key it stores under, with its help and built-in default;
# a config file takes the same keys.
FLAGS = {
    "sites": ("lattice sizes, list or range", "8"),
    "filling": ("integer fillings, list or range", "1"),
    "u_over_j": ("interaction axis, list or start:stop:count[:log]", "10"),
    "theta": ("scattering angles in radians", "0.99"),
    "ein": ("incoming energies in recoil units", "2.0"),
    "mass_ratio": ("probe mass over boson mass", "1.0"),
    "v0": ("lattice depth in recoil units", str(DEFAULT_V0_ER)),
    "j_er": ("tunneling energy in recoil units", str(DEFAULT_J_ER)),
    "gap_order": ("sce channel gaps to order 1 or 2", "1"),
    "lambda_source": ("mf coupling: " + " or ".join(LAMBDA_SOURCES), "perturbative"),
    "cache_dir": ("spectrum cache directory (default $MOTTSCOPE_CACHE)", None),
    "jobs": ("spectrum workers", "1"),
    "methods": ("comma list from exact,sce,sce_largeL,mf", "exact,sce,mf"),
    "format": ("csv or json", "csv"),
    "out": ("output path (stdout when omitted)", None),
    "config": ("key = value file with flag defaults", None),
}

FORMATS = ("csv", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mottscope",
        description="Matter-wave scattering cross sections of a 1-D lattice "
                    "Bose gas: exact, strong-coupling, and mean-field methods.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in COMMANDS.items():
        sub = subs.add_parser(name, help=helptext)
        keys = (["filling", "format", "out", "config"] if name == "critical"
                else [key for key in FLAGS if key != "methods" or name == "scan"])
        for key in keys:
            # no default, so that a flag given is told apart from one left out
            sub.add_argument("--" + key.replace("_", "-"), help=FLAGS[key][0])
    return parser


def _read_config(path: str) -> dict:
    """The config file's values; every key must name some subcommand's flag."""
    config = read_config_file(path)
    unknown = sorted(set(config) - set(FLAGS))
    if unknown:
        raise ValidationError(f"config file: unknown key {unknown[0]!r}")
    return config


def _settings(args: argparse.Namespace) -> dict:
    """Flags over the config file over the defaults, each value a string."""
    defaults = {key: default for key, (_, default) in FLAGS.items()}
    defaults["cache_dir"] = os.environ.get("MOTTSCOPE_CACHE")
    if args.command == "critical":
        defaults["filling"] = "1,2"
    config = _read_config(args.config) if args.config else {}
    # argparse drops a lone "--" argument, so it reads --v0=-- as []; a flag
    # value is stripped of blanks like a config value
    given = {key: "--" if value == [] else value.strip()
             for key, value in vars(args).items() if value is not None}
    settings = {**defaults, **config, **given}
    if settings["format"] not in FORMATS:
        raise ValidationError(
            f"format must be one of {FORMATS}, got {settings['format']!r}")
    return settings


def _plan(settings: dict, methods: list[str]) -> ScanPlan:
    def number(key, cast=float):
        try:
            return cast(settings[key])
        except ValueError as exc:
            raise ValidationError(f"bad {key} value {settings[key]!r}") from exc

    return ScanPlan(
        sites=parse_int_axis(settings["sites"]),
        fillings=parse_int_axis(settings["filling"]),
        u_over_j=parse_axis(settings["u_over_j"]),
        thetas=parse_axis(settings["theta"]),
        eins=parse_axis(settings["ein"]),
        methods=methods,
        gap_order=number("gap_order", int),
        lambda_source=settings["lambda_source"],
        mass_ratio=number("mass_ratio"),
        v0_er=number("v0"),
        j_er=number("j_er"),
        cache_dir=settings["cache_dir"] or None,
        jobs=number("jobs", int),
    )


def _job(args: argparse.Namespace, settings: dict):
    """The call's checked work, not yet run, and its columns.

    Every check, the exact cache directory's making included, runs before
    _emit opens --out, so a refused call leaves an existing file as it was.
    """
    if args.command == "critical":
        fillings = parse_int_axis(settings["filling"])
        check_fillings(fillings)
        return functools.partial(critical_points_report, fillings), CRITICAL_COLUMNS
    if args.command == "scan":
        methods = [m.strip() for m in settings["methods"].split(",") if m.strip()]
    else:
        methods = ["exact", "sce"] if args.command == "compare" else [args.command]
    plan = _plan(settings, methods)
    validate_plan(plan)
    if plan.cache_dir and "exact" in methods:
        try:
            os.makedirs(plan.cache_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot use cache_dir {plan.cache_dir!r}: "
                                  f"{exc.strerror or exc}") from exc
    run = run_compare if args.command == "compare" else run_scan
    return functools.partial(run, plan), CSV_COLUMNS


def _emit(compute_rows, settings: dict, columns) -> None:
    """Open --out, refused (exit 2) if unusable, then compute and write the rows."""
    render = rows_to_json if settings["format"] == "json" else rows_to_csv
    out = settings["out"]
    if not out:
        sys.stdout.write(render(compute_rows(), columns))
        return
    try:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(render(compute_rows(), columns))
    except OSError as exc:
        raise ValidationError(
            f"cannot write {out!r}: {exc.strerror or exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _settings(args)
        compute_rows, columns = _job(args, settings)
        _emit(compute_rows, settings, columns)
    except ValidationError as exc:
        print(f"mottscope: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
