"""Row checks, which rows of each workload they apply to, and their self-tests.

A check takes CSV rows as the CLI wrote them (dicts of strings) and returns
None when the row holds, or a message saying what is wrong.  Every check
compares with a reference from bench/reference.py or tests a property the
method must have; none compares with stored output.
"""

from __future__ import annotations

import csv
import io
import math

import reference as ref
from workloads import Critical

# Bounds, each a few times the worst deviation measured on correct code.
ED_REL = 1e-9            # dense ED vs exact rows; measured 3e-12
SCE_EXACT_REL = 0.03     # exact vs SCE order 1 at U/J >= 30; measured 1.3%
SCE_EXACT_MIN_U = 30.0
SCE_LIMIT_REL = 0.03     # SCE order 1 at L >= 96 vs the limit; measured 1.7%
MF_LAMBDA_REL = 1e-5     # iterative MF lambda vs the root; measured 5.3e-7
CUBIC_BRACKET = 1e-8     # relative half-width around sce_jc
CLOSED_FORM_REL = 1e-10  # printed with 12 significant digits


def fmt(x: float) -> str:
    """The CLI's rendering of a float column."""
    return f"{float(x):.11e}"


def _f(row: dict, column: str) -> float:
    return float(row[column])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_grid(row: dict, key: tuple) -> str | None:
    """Row sits at the expected grid point, parses, and has no error."""
    L, nu, u, theta, ein, method, gap_order = key
    want = {"L": str(L), "nu": str(nu), "N": str(L * nu), "u_over_j": fmt(u),
            "theta": fmt(theta), "ein_er": fmt(ein), "method": method,
            "gap_order": gap_order, "error": ""}
    for column, value in want.items():
        if row.get(column) != value:
            return f"{column}={row.get(column)!r}, expected {value!r}"
    try:
        value = _f(row, "value")
        count = int(row["channel_count"])
    except ValueError:
        return f"unparsable value {row['value']!r} or count {row['channel_count']!r}"
    if not math.isfinite(value) or value < 0.0 or count < 0:
        return f"value {value} or channel_count {count} out of range"
    return None


def check_exact_vs_ed(row: dict) -> str | None:
    want, count = ref.exact_row(int(row["L"]), int(row["nu"]),
                                _f(row, "u_over_j"), _f(row, "theta"),
                                _f(row, "ein_er"))
    got = _f(row, "value")
    if int(row["channel_count"]) != count:
        return f"channel_count {row['channel_count']}, dense ED has {count}"
    if _rel(got, want) > ED_REL:
        return f"value {got!r}, dense ED gives {want!r}"
    return None


def check_sce_vs_exact(sce_row: dict, exact_row: dict) -> str | None:
    """Order-1 SCE within SCE_EXACT_REL of exact, for U/J >= SCE_EXACT_MIN_U."""
    exact = _f(exact_row, "value")
    gap = _rel(_f(sce_row, "value"), exact)
    if gap > SCE_EXACT_REL:
        return f"SCE {sce_row['value']} is {gap:.2%} from exact {exact!r}"
    return None


def check_mf_phase(row: dict) -> str | None:
    """Exactly zero with no channels in the MF Mott phase, positive outside."""
    nu, u = int(row["nu"]), _f(row, "u_over_j")
    value, count = _f(row, "value"), int(row["channel_count"])
    if 1.0 / u <= ref.mf_critical_j(nu):
        if value != 0.0 or count != 0:
            return f"U/J={u} is in the MF Mott phase but value={value}, count={count}"
    elif not value > 0.0:
        return f"U/J={u} is superfluid in MF but value={value}"
    return None


def check_sce_limit(row: dict) -> str | None:
    want = ref.sce_limit(int(row["nu"]), _f(row, "u_over_j"),
                         _f(row, "theta"), _f(row, "ein_er"))
    gap = _rel(_f(row, "value"), want)
    if gap > SCE_LIMIT_REL:
        return (f"order-{row['gap_order']} SCE {row['value']} at L={row['L']} is "
                f"{gap:.2%} from the limit {want!r}")
    return None


def check_mf_root(row: dict) -> str | None:
    """Iterative MF row agrees with lam^2/nu times the channel weight."""
    nu, u = int(row["nu"]), _f(row, "u_over_j")
    lam = ref.mf_lambda(nu, u)
    weight, count = ref.mf_channel_weight(nu, u, _f(row, "theta"), _f(row, "ein_er"))
    if lam == 0.0:
        count = 0
    if int(row["channel_count"]) != count:
        return f"channel_count {row['channel_count']}, expected {count}"
    if count == 0:
        return None if _f(row, "value") == 0.0 else f"value {row['value']}, expected 0"
    lam_row = math.sqrt(_f(row, "value") * nu / weight)
    if _rel(lam_row, lam) > MF_LAMBDA_REL:
        return f"lambda {lam_row!r} from the row, root gives {lam!r}"
    return None


def check_critical(row: dict) -> str | None:
    nu = int(row["nu"])
    jc = _f(row, "sce_jc")
    lo, hi = jc * (1.0 - CUBIC_BRACKET), jc * (1.0 + CUBIC_BRACKET)
    if (ref.gap_cubic(nu, lo) > 0.0) == (ref.gap_cubic(nu, hi) > 0.0):
        return f"sce_jc={jc!r} does not bracket a sign change of the gap cubic"
    if not lo <= ref.smallest_cubic_root(nu) <= hi:
        return f"sce_jc={jc!r} is not the smallest positive root"
    mf = ref.mf_critical_j(nu)
    for column, want in (("mf_jc", mf), ("mf_uc_over_j", 1.0 / mf),
                         ("sce_uc_over_j", 1.0 / jc)):
        if _rel(_f(row, column), want) > CLOSED_FORM_REL:
            return f"{column}={row[column]}, closed form gives {want!r}"
    return None


def _scaled(row: dict, column: str, factor: float) -> dict:
    out = dict(row)
    out[column] = fmt(_f(row, column) * factor)
    return out


def _bumped(row: dict) -> dict:
    """The row with a value that is off: scaled by 1e-4, or 1e-3 if it was 0."""
    if _f(row, "value") == 0.0:
        return {**row, "value": fmt(1e-3)}
    return _scaled(row, "value", 1.0 + 1e-4)


# For each check, perturbations of a row it accepted that it must reject.
PERTURBATIONS = {
    "grid": (lambda r, key: check_grid(_scaled(r, "theta", 1.0 + 1e-9), key),
             lambda r, key: check_grid({**r, "error": "X: y"}, key)),
    "exact_vs_ed": (
        lambda r, _: check_exact_vs_ed(_scaled(r, "value", 1.0 + 1e-7)),
        lambda r, _: check_exact_vs_ed(
            {**r, "channel_count": str(int(r["channel_count"]) + 1)})),
    "sce_vs_exact": (lambda r, ex: check_sce_vs_exact(
        _scaled(r, "value", 1.0 + 2.0 * SCE_EXACT_REL), ex),),
    "mf_phase": (lambda r, _: check_mf_phase(
        {**r, "value": fmt(0.0 if _f(r, "value") else 1e-3)}),),
    "sce_limit": (lambda r, _: check_sce_limit(
        _scaled(r, "value", 1.0 + 2.0 * SCE_LIMIT_REL)),),
    "mf_root": (lambda r, _: check_mf_root(_bumped(r)),),
    "critical": (lambda r, _: check_critical(_scaled(r, "sce_jc", 1.0 + 1e-6)),
                 lambda r, _: check_critical(_scaled(r, "mf_jc", 1.0 + 1e-8))),
}


def self_test(samples: dict) -> list[str]:
    """Feed each check deliberately perturbed copies of a row it accepted.

    samples maps a check name to (row, extra) for a row the workload saw;
    returns the checks that let a perturbation through.
    """
    return [f"{name}[{i}]" for name, (row, extra) in samples.items()
            for i, perturbed in enumerate(PERTURBATIONS[name])
            if perturbed(row, extra) is None]


class Tally:
    """Counts checked rows; keeps one accepted row per check for self-tests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.faults: list[str] = []
        self.samples: dict = {}

    def op(self, label: str, row: dict, tests: list) -> None:
        """One row; tests are (check name, message, extra, known fault)."""
        self.attempted += 1
        bad = False
        for name, message, extra, known in tests:
            if message is None:
                self.samples.setdefault(name, (row, extra))
                continue
            bad = True
            (self.faults if known else self.wrong).append(
                f"{label}: {name}: {message}")
        if bad:
            self.failed += 1


def check_round(w, outputs: dict, tally: Tally) -> None:
    """Check every row that one round of calls wrote."""
    for label, spec in w.calls.items():
        rows = list(csv.DictReader(io.StringIO(outputs[label])))
        if isinstance(spec, Critical):
            if [r["nu"] for r in rows] != [str(nu) for nu in spec.fillings]:
                tally.wrong.append(f"{label}: rows {[r['nu'] for r in rows]}")
            for row in rows:
                tally.op(label, row, [("critical", check_critical(row), None, False)])
            continue
        keys = spec.keys()
        if len(rows) != len(keys):
            tally.wrong.append(f"{label}: {len(rows)} rows for a grid of {len(keys)}")
            continue
        by_key = {k: r for k, r in zip(keys, rows)}
        for key, row in zip(keys, rows):
            tally.op(label, row, _row_tests(w, spec, key, row, by_key))


def _row_tests(w, spec, key: tuple, row: dict, by_key: dict) -> list:
    tests = [("grid", check_grid(row, key), key, False)]
    if tests[0][1] is not None:
        return tests
    L, nu, u, theta, ein, method, _ = key
    if w.name == "exact_cold":
        if method == "exact" and L <= 7:
            tests.append(("exact_vs_ed", check_exact_vs_ed(row), None, False))
        elif method == "sce" and u >= SCE_EXACT_MIN_U:
            exact = by_key[(L, nu, u, theta, ein, "exact", "")]
            tests.append(("sce_vs_exact", check_sce_vs_exact(row, exact),
                          exact, False))
        elif method == "mf":
            tests.append(("mf_phase", check_mf_phase(row), None, False))
    elif w.name == "cache_rescan":
        if method == "exact" and (L, u) in w.ed_units:
            tests.append(("exact_vs_ed", check_exact_vs_ed(row), None, False))
        elif method == "mf":
            tests.append(("mf_phase", check_mf_phase(row), None, False))
    elif method == "sce":
        # order 2 misses the limit because of a known fault in its gap
        tests.append(("sce_limit", check_sce_limit(row), None,
                      spec.gap_order == 2))
    elif method == "mf":
        tests.append(("mf_root", check_mf_root(row), None, False))
    return tests
