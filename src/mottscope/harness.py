"""Parameter scans, method comparison, and table serialization.

A scan walks the grid sites x fillings x u_over_j x thetas x eins x methods
in that nesting order and emits one row per point.  The momentum-block
diagonalization is the only expensive step, so the worker pool
parallelizes over (L, N, U/J) spectrum units while rows are assembled
serially in grid order; output is byte-identical for any worker count.
A unit keeps only its channel table, O(dim) numbers, for the rest of the
scan, and the disk cache stores exactly that.

Rows are computed unit by unit: for each (L, nu, U/J) unit, each method
makes one call per E_in over the whole theta axis, and the mean-field
lambda is resolved once per (nu, U/J).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_J_ER, DEFAULT_V0_ER, LatticeSpec, ProbeSpec
from .errors import ValidationError
from .fock import DEFAULT_DIM_CAP, dimension, enumerate_basis
from .meanfield import (LAMBDA_SOURCES, condensate_lambda, critical_j_mf,
                        inelastic_cs_mf)
from .scatter import elastic_kappa, inelastic_cs_exact
from .sce import critical_j, inelastic_cs_sce, large_l_cs
from .spectrum import (build_hamiltonian, cache_key, diagonalize,
                       ground_matrix_elements, load_spectrum, save_spectrum,
                       spectrum_cache_path)

CSV_COLUMNS = ("L", "nu", "N", "u_over_j", "theta", "ein_er", "method",
               "gap_order", "value", "channel_count", "warning", "error")

CRITICAL_COLUMNS = ("nu", "sce_jc", "sce_uc_over_j", "mf_jc",
                    "mf_uc_over_j", "dmrg_jc")

KNOWN_METHODS = ("exact", "sce", "sce_largeL", "mf")

# Published DMRG critical couplings, kept as static reference annotations.
DMRG_JC = {1: 0.305, 2: 0.180}


def fmt_float(x: float) -> str:
    """Fixed 12-significant-digit rendering used for every float column."""
    return f"{float(x):.11e}"


@dataclass
class ScanPlan:
    """Grid axes plus method and environment settings for one scan."""

    sites: list[int]
    fillings: list[int]
    u_over_j: list[float]
    thetas: list[float]
    eins: list[float]
    methods: list[str] = field(default_factory=lambda: ["exact", "sce", "mf"])
    gap_order: int = 1
    lambda_source: str = "perturbative"
    mass_ratio: float = 1.0
    v0_er: float = DEFAULT_V0_ER
    j_er: float = DEFAULT_J_ER
    cache_dir: str | None = None
    jobs: int = 1


# The SCE gap cubic holds nu^3 as a float; at nu = 1e100 the cube of its
# root, about 3e-302, is still a normal float.
MAX_FILLING = 1e100


def check_fillings(fillings) -> None:
    """The filling rule of scans and of the critical-point table."""
    if not fillings:
        raise ValidationError("fillings axis must not be empty")
    for nu in fillings:
        if not isinstance(nu, int) or nu < 1:
            raise ValidationError(f"fillings must be integers >= 1, got {nu!r}")
        if nu > MAX_FILLING:
            raise ValidationError(
                f"fillings must be at most {MAX_FILLING:g}, got {nu!r}")


def validate_plan(plan: ScanPlan) -> None:
    """Reject structurally bad plans before any work starts."""
    for name in ("sites", "u_over_j", "thetas", "eins", "methods"):
        if not getattr(plan, name):
            raise ValidationError(f"{name} axis must not be empty")
    for method in plan.methods:
        if method not in KNOWN_METHODS:
            raise ValidationError(
                f"unknown method {method!r}; expected one of {KNOWN_METHODS}")
    if len(set(plan.methods)) != len(plan.methods):
        raise ValidationError("methods must not repeat")
    for L in plan.sites:
        if not isinstance(L, int) or L < 2:
            raise ValidationError(f"sites must be integers >= 2, got {L!r}")
    check_fillings(plan.fillings)
    for name in ("u_over_j", "thetas", "eins"):
        for x in getattr(plan, name):
            if not math.isfinite(x):
                raise ValidationError(f"{name} must be finite, got {x}")
    for theta in plan.thetas:
        if not -math.pi < theta <= math.pi:
            raise ValidationError(f"thetas must lie in (-pi, pi], got {theta}")
    for u in plan.u_over_j:
        if u < 0:
            raise ValidationError(f"u_over_j must be >= 0, got {u}")
    for ein in plan.eins:
        if ein <= 0:
            raise ValidationError(f"ein must be > 0, got {ein}")
    if plan.gap_order not in (1, 2):
        raise ValidationError(f"gap_order must be 1 or 2, got {plan.gap_order}")
    if plan.lambda_source not in LAMBDA_SOURCES:
        raise ValidationError(
            f"lambda_source must be one of {LAMBDA_SOURCES}, got {plan.lambda_source!r}")
    for name in ("mass_ratio", "v0_er", "j_er"):
        if not math.isfinite(getattr(plan, name)):
            raise ValidationError(f"{name} must be finite, got {getattr(plan, name)}")
    if plan.mass_ratio <= 0 or plan.v0_er <= 0 or plan.j_er <= 0:
        raise ValidationError("mass_ratio, v0_er and j_er must be positive")
    for ein in plan.eins:
        # elastic_kappa takes sqrt(mass_ratio * ein); inf there prints nan
        if not math.isfinite(plan.mass_ratio * ein):
            raise ValidationError(
                f"mass_ratio * ein must be finite, got {plan.mass_ratio} * {ein}")
    if plan.jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {plan.jobs}")
    if "exact" in plan.methods:
        for L in plan.sites:
            for nu in plan.fillings:
                dim = dimension(L, nu * L)
                if dim > DEFAULT_DIM_CAP:
                    raise ValidationError(
                        f"exact method refused: dimension {dim} for "
                        f"(L={L}, nu={nu}) exceeds cap {DEFAULT_DIM_CAP}")


def _spectrum_unit(plan: ScanPlan, L: int, nu: int, u: float):
    """Channel table of one (L, N, U/J) sector, honoring the cache.

    load_spectrum accepts an entry only when its checksum holds and its
    header names this sector; anything else is recomputed and overwritten.
    A hit needs no basis and no eigenvectors.
    """
    N = nu * L
    key = cache_key(u)
    path = None
    if plan.cache_dir:
        path = spectrum_cache_path(plan.cache_dir, L, N, key)
        try:
            return load_spectrum(path, L, N, key)
        except (ValueError, OSError):
            pass  # missing, unreadable or mislabelled entry: recompute and overwrite
    basis = enumerate_basis(L, N)
    h = build_hamiltonian(basis, u)
    spec = ground_matrix_elements(diagonalize(h), h.orbits, basis)
    if path:
        os.makedirs(plan.cache_dir, exist_ok=True)
        save_spectrum(path, L, N, key, spec)
    return spec


def _memo(table: dict, key, compute):
    """table[key], computed once; a failure is kept as its error-column text."""
    if key not in table:
        try:
            table[key] = compute()
        except Exception as exc:
            table[key] = _error_text(exc)
    return table[key]


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _evaluate(plan: ScanPlan, spectra: dict, lambdas: dict, lattice: LatticeSpec,
              u: float, probe: ProbeSpec, method: str):
    """One method at one E_in over the probe's theta array.

    Returns the record, or the error-column text of the failure.
    """
    try:
        if method == "exact":
            entry = spectra[(lattice.L, lattice.nu, cache_key(u))]
            if isinstance(entry, str):
                return entry
            return inelastic_cs_exact(entry, lattice, probe)
        if method == "sce":
            return inelastic_cs_sce(lattice, probe, u, gap_order=plan.gap_order)
        if method == "sce_largeL":
            return large_l_cs(lattice.nu, probe, plan.v0_er, u, J_Er=plan.j_er)
        if method == "mf":
            lam = _memo(lambdas, (lattice.nu, u), lambda: condensate_lambda(
                lattice.nu, u, plan.lambda_source))
            if isinstance(lam, str):
                return lam
            return inelastic_cs_mf(lattice, probe, u, lam)
        raise ValidationError(f"unknown method {method!r}")  # pragma: no cover
    except Exception as exc:
        return _error_text(exc)


def _cells(result, method: str, gap_order: int):
    """The cells one call shares across its angles, and its value cells."""
    if isinstance(result, str):
        return {"gap_order": "", "value": "", "channel_count": "",
                "warning": "", "error": result}, None
    shared = {"gap_order": str(gap_order) if method == "sce" else "", "value": "",
              "channel_count": str(result.channel_count),
              "warning": result.warning, "error": ""}
    return shared, [fmt_float(v) for v in result.value.tolist()]


def run_scan(plan: ScanPlan) -> list[dict]:
    """Evaluate the full grid; per-point failures land in the error column."""
    validate_plan(plan)
    spectra: dict = {}
    if "exact" in plan.methods:
        units = [(L, nu, u) for L in plan.sites for nu in plan.fillings
                 for u in plan.u_over_j]
        # dict preserves insertion order, so duplicate (L,nu,u) collapse here
        units = list(dict.fromkeys(units))
        with ThreadPoolExecutor(max_workers=plan.jobs) as pool:
            futures = {unit: pool.submit(_spectrum_unit, plan, *unit)
                       for unit in units}
            for (L, nu, u), fut in futures.items():
                # a failure surfaces on each dependent row, not the scan
                _memo(spectra, (L, nu, cache_key(u)), fut.result)
    lambdas: dict = {}
    thetas = np.array(plan.thetas, dtype=float)
    theta_cells = [fmt_float(theta) for theta in plan.thetas]
    probes = [(fmt_float(ein), ProbeSpec(Ein_Er=ein, theta=thetas,
                                         mass_ratio=plan.mass_ratio))
              for ein in plan.eins]
    rows = []
    for L, nu, u in itertools.product(plan.sites, plan.fillings, plan.u_over_j):
        lattice = LatticeSpec(L=L, nu=nu, V0_Er=plan.v0_er, J_Er=plan.j_er)
        calls = [(ein_cell, method, *_cells(
                     _evaluate(plan, spectra, lambdas, lattice, u, probe, method),
                     method, plan.gap_order))
                 for ein_cell, probe in probes for method in plan.methods]
        head = {"L": L, "nu": nu, "N": nu * L, "u_over_j": fmt_float(u)}
        for i, theta_cell in enumerate(theta_cells):
            for ein_cell, method, shared, values in calls:
                row = {**head, "theta": theta_cell, "ein_er": ein_cell,
                       "method": method, **shared}
                if values is not None:
                    row["value"] = values[i]
                rows.append(row)
    return rows


def relative_delta(exact_value: float, sce_value: float,
                   kappa_el: float) -> float | None:
    """|exact - sce| / |exact|, or None when the exact value is no reference.

    With no elastic momentum transfer (kappa_el = 0, forward scattering)
    the exact inelastic sum vanishes identically and what it returns is
    rounding noise, so the rule is kinematic rather than a threshold.
    """
    if exact_value == 0.0 or kappa_el == 0.0:
        return None
    return abs(exact_value - sce_value) / abs(exact_value)


def run_compare(plan: ScanPlan) -> list[dict]:
    """Exact and strong-coupling rows plus a compare row per grid point.

    The compare value is computed from the printed cells, so it follows
    the CSV to the last digit; the kinematic rule reads kappa_el from the
    plan's angles, since a printed theta of pi rounds to just above it.
    """
    base = ScanPlan(**{**plan.__dict__, "methods": ["exact", "sce"]})
    rows = run_scan(base)
    thetas = np.array(plan.thetas, dtype=float)
    kappas = np.array([elastic_kappa(ProbeSpec(ein, thetas, plan.mass_ratio))
                       for ein in plan.eins]).T.ravel().tolist()
    out = []
    # a unit's rows run theta outer and E_in inner, as kappas does
    for ex_row, sc_row, kappa_el in zip(rows[::2], rows[1::2], itertools.cycle(kappas)):
        out.extend([ex_row, sc_row])
        cmp_row = dict(ex_row)
        cmp_row["method"] = "compare"
        cmp_row["gap_order"] = sc_row["gap_order"]
        cmp_row["channel_count"] = ""
        cmp_row["warning"] = ""
        cmp_row["error"] = ""
        if ex_row["error"] or sc_row["error"]:
            cmp_row["value"] = ""
            cmp_row["error"] = "ComparisonError: input row failed"
        else:
            delta = relative_delta(float(ex_row["value"]), float(sc_row["value"]),
                                   kappa_el)
            if delta is None:
                cmp_row["value"] = ""
                cmp_row["warning"] = "undefined_delta"
            else:
                cmp_row["value"] = fmt_float(delta)
        out.append(cmp_row)
    return out


def critical_points_report(nus: list[int]) -> list[dict]:
    """Critical couplings per filling from both approximation schemes."""
    check_fillings(nus)
    rows = []
    for nu in nus:
        sce_jc = critical_j(nu)
        mf_jc = critical_j_mf(nu)
        rows.append({
            "nu": nu,
            "sce_jc": fmt_float(sce_jc),
            "sce_uc_over_j": fmt_float(1.0 / sce_jc),
            "mf_jc": fmt_float(mf_jc),
            "mf_uc_over_j": fmt_float(1.0 / mf_jc),
            "dmrg_jc": fmt_float(DMRG_JC[nu]) if nu in DMRG_JC else "",
        })
    return rows


def _quote(cell: str) -> str:
    """RFC 4180: a cell holding a comma, a quote or a line break is quoted."""
    if any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def rows_to_csv(rows: list[dict], columns=CSV_COLUMNS) -> str:
    """One line per row; only the free-text error cell can need quoting."""
    lines = [",".join(columns)]
    for row in rows:
        if row.get("error"):
            row = {**row, "error": _quote(row["error"])}
        lines.append(",".join(str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict], columns=CSV_COLUMNS) -> str:
    """Same cells as the CSV, as a flat array of objects."""
    def convert(row):
        out = {}
        for c in columns:
            cell = row[c]
            if c in ("method", "warning", "error"):
                out[c] = cell
            elif cell == "":
                out[c] = None
            elif c in ("L", "nu", "N", "gap_order", "channel_count"):
                out[c] = int(cell)
            else:
                out[c] = float(cell)
        return out

    return json.dumps([convert(r) for r in rows], indent=2) + "\n"
