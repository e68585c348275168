"""Command-line front end.

Axis flags accept either a comma list ("1,2,5.5") or a range expression
"start:stop:count" (linear) / "start:stop:count:log" (geometric).  Values
from --config files fill in wherever the flag was not given explicitly;
built-in defaults apply last.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import DEFAULT_J_ER, DEFAULT_V0_ER, read_config_file
from .errors import RangeError, ValidationError
from .harness import (CRITICAL_COLUMNS, CSV_COLUMNS, ScanPlan,
                      critical_points_report, rows_to_csv, rows_to_json,
                      run_compare, run_scan)
from .meanfield import LAMBDA_SOURCES

_DEFAULTS = {
    "sites": "8",
    "filling": "1",
    "u_over_j": "10",
    "theta": "0.99",
    "ein": "2.0",
    "mass_ratio": "1.0",
    "v0": str(DEFAULT_V0_ER),
    "j_er": str(DEFAULT_J_ER),
    "gap_order": "1",
    "lambda_source": "perturbative",
    "format": "csv",
    "jobs": "1",
    "methods": "exact,sce,mf",
}


def parse_axis(text: str) -> list[float]:
    """Comma list or start:stop:count[:log] range expression."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ValidationError(
                f"bad range {text!r}; expected start:stop:count[:log]")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValidationError(f"range count must be >= 1 in {text!r}")
        if len(parts) == 4:
            if start <= 0 or stop <= 0:
                raise ValidationError("log range needs positive endpoints")
            return [float(x) for x in np.geomspace(start, stop, count)]
        return [float(x) for x in np.linspace(start, stop, count)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad axis value in {text!r}: {exc}") from exc


def parse_int_axis(text: str) -> list[int]:
    values = parse_axis(text)
    out = []
    for v in values:
        if v != int(v):
            raise ValidationError(f"expected integers, got {v}")
        out.append(int(v))
    return out


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    # Defaults stay None so config-file values can be told apart from flags.
    sub.add_argument("--sites", help="lattice sizes, list or range")
    sub.add_argument("--filling", help="integer fillings, list or range")
    sub.add_argument("--u-over-j", dest="u_over_j",
                     help="interaction axis, list or start:stop:count:log")
    sub.add_argument("--theta", help="scattering angles in radians")
    sub.add_argument("--ein", help="incoming energies in recoil units")
    sub.add_argument("--mass-ratio", dest="mass_ratio")
    sub.add_argument("--v0", help="lattice depth in recoil units")
    sub.add_argument("--j-er", dest="j_er", help="tunneling energy in recoil units")
    sub.add_argument("--gap-order", dest="gap_order", choices=["1", "2"])
    sub.add_argument("--lambda-source", dest="lambda_source",
                     choices=LAMBDA_SOURCES)
    sub.add_argument("--format", choices=["csv", "json"])
    sub.add_argument("--out", help="output path (stdout when omitted)")
    sub.add_argument("--cache-dir", dest="cache_dir")
    sub.add_argument("--jobs", help="spectrum workers")
    sub.add_argument("--config", help="key = value file with flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mottscope",
        description="Matter-wave scattering cross sections of a 1-D lattice "
                    "Bose gas: exact, strong-coupling, and mean-field methods.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("exact", "exact-diagonalization inelastic cross section"),
            ("sce", "strong-coupling inelastic cross section"),
            ("mf", "mean-field inelastic cross section"),
            ("scan", "multi-method parameter scan"),
            ("compare", "exact vs strong-coupling relative difference"),
            ("critical", "critical couplings per filling")):
        sub = subs.add_parser(name, help=helptext)
        if name == "critical":
            sub.add_argument("--filling", help="integer fillings, list")
            sub.add_argument("--format", choices=["csv", "json"])
            sub.add_argument("--out")
            sub.add_argument("--config")
        else:
            _add_common_flags(sub)
            if name == "scan":
                sub.add_argument("--methods",
                                 help="comma list from exact,sce,sce_largeL,mf")
    return parser


def _resolve(args: argparse.Namespace, key: str, config: dict) -> str:
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return _DEFAULTS.get(key)


def _plan_from_args(args: argparse.Namespace, methods: list[str],
                    config: dict) -> ScanPlan:
    def get(key):
        return _resolve(args, key, config)

    def number(key, cast=float):
        text = get(key)
        try:
            return cast(text)
        except ValueError as exc:
            raise ValidationError(f"bad {key} value {text!r}") from exc

    cache_dir = get("cache_dir") or os.environ.get("MOTTSCOPE_CACHE") or None
    return ScanPlan(
        sites=parse_int_axis(get("sites")),
        fillings=parse_int_axis(get("filling")),
        u_over_j=parse_axis(get("u_over_j")),
        thetas=parse_axis(get("theta")),
        eins=parse_axis(get("ein")),
        methods=methods,
        gap_order=number("gap_order", int),
        lambda_source=get("lambda_source"),
        mass_ratio=number("mass_ratio"),
        v0_er=number("v0"),
        j_er=number("j_er"),
        cache_dir=cache_dir,
        jobs=number("jobs", int),
    )


def _emit(rows: list[dict], args: argparse.Namespace, config: dict,
          columns) -> None:
    fmt = _resolve(args, "format", config)
    text = (rows_to_json(rows, columns) if fmt == "json"
            else rows_to_csv(rows, columns))
    out = getattr(args, "out", None) or config.get("out")
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = read_config_file(args.config) if args.config else {}
    except (OSError, RangeError) as exc:
        print(f"mottscope: config file: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "critical":
            filling = getattr(args, "filling", None) or config.get("filling") or "1,2"
            rows = critical_points_report(parse_int_axis(filling))
            _emit(rows, args, config, CRITICAL_COLUMNS)
            return 0
        if args.command in ("exact", "sce", "mf"):
            plan = _plan_from_args(args, [args.command], config)
            rows = run_scan(plan)
        elif args.command == "scan":
            methods_text = _resolve(args, "methods", config)
            methods = [m.strip() for m in methods_text.split(",") if m.strip()]
            plan = _plan_from_args(args, methods, config)
            rows = run_scan(plan)
        else:  # compare
            plan = _plan_from_args(args, ["exact", "sce"], config)
            rows = run_compare(plan)
    except ValidationError as exc:
        print(f"mottscope: {exc}", file=sys.stderr)
        return 2
    _emit(rows, args, config, CSV_COLUMNS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
