"""Parameter scans, method comparison, and table serialization.

A scan walks the grid sites x fillings x u_over_j x thetas x eins x methods
in that nesting order and emits one row per point.  The momentum-block
diagonalization is the only expensive step, so the worker pool
parallelizes over (L, N, U/J) spectrum units while rows are assembled
serially in grid order; output is byte-identical for any worker count.
A unit keeps only its channel table and weights, O(dim) numbers, for the
rest of the scan, and the disk cache stores exactly that.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .config import (DEFAULT_J_ER, DEFAULT_V0_ER, InteractionSpec,
                     LatticeSpec, ProbeSpec)
from .errors import ValidationError
from .fock import DEFAULT_DIM_CAP, dimension, enumerate_basis
from .meanfield import LAMBDA_SOURCES, critical_j_mf, inelastic_cs_mf
from .scatter import CrossSectionRecord, elastic_kappa, inelastic_cs_exact
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
    dim_cap: int = DEFAULT_DIM_CAP


def validate_plan(plan: ScanPlan) -> None:
    """Reject structurally bad plans before any work starts."""
    for name in ("sites", "fillings", "u_over_j", "thetas", "eins", "methods"):
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
    for nu in plan.fillings:
        if not isinstance(nu, int) or nu < 1:
            raise ValidationError(f"fillings must be integers >= 1, got {nu!r}")
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
    if plan.jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {plan.jobs}")
    if "exact" in plan.methods:
        for L in plan.sites:
            for nu in plan.fillings:
                dim = dimension(L, nu * L)
                if dim > plan.dim_cap:
                    raise ValidationError(
                        f"exact method refused: dimension {dim} for "
                        f"(L={L}, nu={nu}) exceeds cap {plan.dim_cap}")


def _spectrum_unit(plan: ScanPlan, L: int, nu: int, u: float):
    """Channel table and weights of one (L, N, U/J) sector, honoring the cache.

    A cache entry is used only when its checksum holds and its header names
    this sector; anything else is recomputed and overwritten.  A hit needs
    no basis and no eigenvectors.
    """
    N = nu * L
    key = cache_key(u)
    path = None
    if plan.cache_dir:
        path = spectrum_cache_path(plan.cache_dir, L, N, key)
        if os.path.exists(path):
            try:
                cached_L, cached_N, cached_key, spec, weights = load_spectrum(
                    path, plan.j_er)
            except (ValueError, OSError):
                pass  # unreadable or unverified entry: recompute and overwrite
            else:
                if (cached_L, cached_N, cached_key) == (L, N, key):
                    return spec, weights
    basis = enumerate_basis(L, N, cap=plan.dim_cap)
    lattice = LatticeSpec(L=L, nu=nu, V0_Er=plan.v0_er, J_Er=plan.j_er)
    spec = diagonalize(build_hamiltonian(basis, InteractionSpec(U_over_J=u), lattice))
    weights = ground_matrix_elements(spec, basis)
    spec = spec.channel_table()
    if path:
        os.makedirs(plan.cache_dir, exist_ok=True)
        save_spectrum(path, L, N, key, spec, weights)
    return spec, weights


def _blank_row(L: int, nu: int, u: float, theta: float, ein: float,
               method: str) -> dict:
    return {"L": L, "nu": nu, "N": nu * L, "u_over_j": fmt_float(u),
            "theta": fmt_float(theta), "ein_er": fmt_float(ein),
            "method": method, "gap_order": "", "value": "",
            "channel_count": "", "warning": "", "error": ""}


def _fill_row(row: dict, rec: CrossSectionRecord) -> dict:
    row["value"] = fmt_float(rec.value)
    row["channel_count"] = str(rec.channel_count)
    row["warning"] = rec.warning
    return row


def _evaluate(plan: ScanPlan, spectra: dict, L: int, nu: int, u: float,
              theta: float, ein: float, method: str) -> dict:
    row = _blank_row(L, nu, u, theta, ein, method)
    lattice = LatticeSpec(L=L, nu=nu, V0_Er=plan.v0_er, J_Er=plan.j_er)
    probe = ProbeSpec(Ein_Er=ein, theta=theta, mass_ratio=plan.mass_ratio)
    inter = InteractionSpec(U_over_J=u)
    try:
        if method == "exact":
            entry = spectra[(L, nu, cache_key(u))]
            if isinstance(entry, Exception):
                raise entry
            spec, weights = entry
            rec = inelastic_cs_exact(spec, weights, lattice, probe, u_over_j=u)
        elif method == "sce":
            rec = inelastic_cs_sce(lattice, probe, inter, gap_order=plan.gap_order)
            row["gap_order"] = str(plan.gap_order)
        elif method == "sce_largeL":
            rec = large_l_cs(nu, probe, plan.v0_er, inter, J_Er=plan.j_er)
        elif method == "mf":
            rec = inelastic_cs_mf(lattice, probe, inter,
                                  lambda_source=plan.lambda_source)
        else:  # pragma: no cover - validate_plan blocks this
            raise ValidationError(f"unknown method {method!r}")
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    return _fill_row(row, rec)


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
                try:
                    spectra[(L, nu, cache_key(u))] = fut.result()
                except Exception as exc:
                    # surface the failure on each dependent row, not the scan
                    spectra[(L, nu, cache_key(u))] = exc
    rows = []
    for L in plan.sites:
        for nu in plan.fillings:
            for u in plan.u_over_j:
                for theta in plan.thetas:
                    for ein in plan.eins:
                        for method in plan.methods:
                            rows.append(_evaluate(plan, spectra, L, nu, u,
                                                  theta, ein, method))
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
    the CSV to the last digit.
    """
    base = ScanPlan(**{**plan.__dict__, "methods": ["exact", "sce"]})
    rows = run_scan(base)
    out = []
    for i in range(0, len(rows), 2):
        ex_row, sc_row = rows[i], rows[i + 1]
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
            probe = ProbeSpec(Ein_Er=float(ex_row["ein_er"]),
                              theta=float(ex_row["theta"]),
                              mass_ratio=plan.mass_ratio)
            delta = relative_delta(float(ex_row["value"]), float(sc_row["value"]),
                                   elastic_kappa(probe))
            if delta is None:
                cmp_row["value"] = ""
                cmp_row["warning"] = "undefined_delta"
            else:
                cmp_row["value"] = fmt_float(delta)
        out.append(cmp_row)
    return out


def critical_points_report(nus: list[int]) -> list[dict]:
    """Critical couplings per filling from both approximation schemes."""
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


def rows_to_csv(rows: list[dict], columns=CSV_COLUMNS) -> str:
    lines = [",".join(columns)]
    for row in rows:
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
