"""Scan harness, method comparison, serialization, and the CLI."""

import csv
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mottscope
import mottscope.cli as cli
from mottscope import harness, meanfield
from mottscope.cli import main, parse_axis, parse_int_axis
from mottscope.config import LatticeSpec, ProbeSpec
from mottscope.errors import ValidationError
from mottscope.harness import (CSV_COLUMNS, KNOWN_METHODS, ScanPlan,
                               critical_points_report, fmt_float,
                               relative_delta, rows_to_csv, rows_to_json,
                               run_compare, run_scan, validate_plan)
from mottscope.meanfield import condensate_lambda, inelastic_cs_mf
from mottscope.scatter import inelastic_cs_exact
from mottscope.sce import inelastic_cs_sce, large_l_cs

from oracles import cell_12_digits, mp_critical_j


def small_plan(**overrides) -> ScanPlan:
    base = dict(sites=[3], fillings=[1], u_over_j=[5.0], thetas=[0.99],
                eins=[2.0])
    base.update(overrides)
    return ScanPlan(**base)


def test_fmt_float_golden():
    assert fmt_float(0.314721626084697) == "3.14721626085e-01"
    assert fmt_float(5) == "5.00000000000e+00"
    assert fmt_float(0.0) == "0.00000000000e+00"


@pytest.mark.parametrize("overrides,fragment", [
    (dict(sites=[]), "sites axis"),
    (dict(eins=[]), "eins axis"),
    (dict(methods=["exact", "fft"]), "unknown method"),
    (dict(methods=["sce", "sce"]), "must not repeat"),
    (dict(sites=[1]), "sites must be integers >= 2"),
    (dict(sites=[3.0]), "sites must be integers"),
    (dict(fillings=[0]), "fillings must be integers >= 1"),
    (dict(u_over_j=[-1.0]), "u_over_j must be >= 0"),
    (dict(eins=[0.0]), "ein must be > 0"),
    (dict(gap_order=3), "gap_order must be 1 or 2"),
    (dict(lambda_source="exact"), "lambda_source"),
    (dict(j_er=0.0), "must be positive"),
    (dict(jobs=0), "jobs must be >= 1"),
    (dict(u_over_j=[float("nan")]), "u_over_j must be finite"),
    (dict(thetas=[float("inf")]), "thetas must be finite"),
    (dict(eins=[float("inf")]), "eins must be finite"),
    (dict(mass_ratio=float("nan")), "mass_ratio must be finite"),
    (dict(v0_er=float("inf")), "v0_er must be finite"),
    (dict(j_er=float("nan")), "j_er must be finite"),
    (dict(v0_er=0.0), "must be positive"),
    (dict(mass_ratio=0.0), "must be positive"),
    (dict(thetas=[4.0]), "thetas must lie in"),
    (dict(thetas=[-math.pi]), "thetas must lie in"),
    # sqrt(mass_ratio * ein) would be inf and the rows nan
    (dict(mass_ratio=1e300, eins=[1e300]), "mass_ratio \\* ein must be finite"),
])
def test_validate_plan_rejections(overrides, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_plan(small_plan(**overrides))


def test_validate_plan_accepts_huge_finite_probe():
    # a huge but finite mass_ratio * ein is the form-factor limit, not an error
    validate_plan(small_plan(mass_ratio=1e150, eins=[1e150]))


def test_validate_plan_dimension_cap():
    # 1352078 Fock states at (12, 12) exceed the default cap
    plan = small_plan(sites=[12], methods=["exact"])
    with pytest.raises(ValidationError, match="exceeds cap"):
        validate_plan(plan)
    # approximate methods never touch the basis
    validate_plan(small_plan(sites=[12], methods=["sce", "mf"]))


def test_run_scan_frozen_point():
    rows = run_scan(small_plan(methods=["exact", "sce", "mf"]))
    assert [r["method"] for r in rows] == ["exact", "sce", "mf"]
    exact, sce, mf = rows
    assert exact["value"] == "3.14721626085e-01"
    assert exact["channel_count"] == "9"
    assert exact["gap_order"] == ""
    assert sce["value"] == "3.77326534456e-01"
    assert sce["gap_order"] == "1"
    assert sce["channel_count"] == "4"
    assert mf["value"] == "1.24651571471e+00"
    assert mf["warning"] == "lambda_validity"
    for row in rows:
        assert row["L"] == 3 and row["nu"] == 1 and row["N"] == 3
        assert row["u_over_j"] == "5.00000000000e+00"
        assert row["error"] == ""


def test_run_scan_nesting_order():
    rows = run_scan(ScanPlan(sites=[3, 4], fillings=[1], u_over_j=[5.0, 10.0],
                             thetas=[0.5], eins=[1.0, 2.0], methods=["sce"]))
    seen = [(r["L"], float(r["u_over_j"]), float(r["ein_er"])) for r in rows]
    want = [(L, u, e) for L in (3, 4) for u in (5.0, 10.0) for e in (1.0, 2.0)]
    assert seen == want


def test_run_scan_jobs_deterministic():
    def csv_for(jobs):
        plan = ScanPlan(sites=[3, 4], fillings=[1], u_over_j=[5.0, 10.0],
                        thetas=[0.99], eins=[2.0], methods=["exact", "sce"],
                        jobs=jobs)
        return rows_to_csv(run_scan(plan))

    one = csv_for(1)
    assert csv_for(2) == one
    assert csv_for(3) == one


def test_run_scan_cache_roundtrip_and_recovery(tmp_path):
    cache = str(tmp_path / "cache")
    plan = small_plan(methods=["exact"], cache_dir=cache)
    cold = rows_to_csv(run_scan(plan))
    spec_file = tmp_path / "cache" / "L3_N3_U5.00000000000e+00.spec"
    assert spec_file.exists()
    good_bytes = spec_file.read_bytes()

    warm = rows_to_csv(run_scan(plan))
    assert warm == cold
    assert spec_file.read_bytes() == good_bytes

    # a damaged entry is recomputed and rewritten, not fatal
    spec_file.write_bytes(good_bytes[:10])
    recovered = rows_to_csv(run_scan(plan))
    assert recovered == cold
    assert spec_file.read_bytes() == good_bytes


def test_run_scan_recomputes_a_mislabelled_cache_entry(tmp_path):
    # an entry renamed to another coupling's file is caught by its header
    cache = tmp_path / "cache"
    cold = rows_to_csv(run_scan(small_plan(methods=["exact"],
                                           cache_dir=str(cache))))
    run_scan(small_plan(methods=["exact"], u_over_j=[10.0],
                        cache_dir=str(cache)))
    here = cache / "L3_N3_U5.00000000000e+00.spec"
    other = cache / "L3_N3_U1.00000000000e+01.spec"
    good_bytes = here.read_bytes()
    here.write_bytes(other.read_bytes())
    warm = rows_to_csv(run_scan(small_plan(methods=["exact"],
                                           cache_dir=str(cache))))
    assert warm == cold
    assert here.read_bytes() == good_bytes


def test_run_scan_recomputes_a_flipped_bit(tmp_path):
    # one flipped bit in a stored energy fails the checksum
    cache = tmp_path / "cache"
    plan = small_plan(methods=["exact"], cache_dir=str(cache))
    cold = rows_to_csv(run_scan(plan))
    spec_file = cache / "L3_N3_U5.00000000000e+00.spec"
    good_bytes = spec_file.read_bytes()
    damaged = bytearray(good_bytes)
    damaged[8 + 20 + len("5.00000000000e+00") + 8 * 3] ^= 0x01
    spec_file.write_bytes(damaged)
    assert rows_to_csv(run_scan(plan)) == cold
    assert spec_file.read_bytes() == good_bytes


def test_run_scan_per_row_errors():
    # u = 0 is fine exactly but out of scope for both approximations
    rows = run_scan(small_plan(u_over_j=[0.0], methods=["exact", "sce", "mf"]))
    exact, sce, mf = rows
    assert exact["error"] == "" and exact["value"] != ""
    assert sce["error"].startswith("DomainError:") and sce["value"] == ""
    assert mf["error"].startswith("DomainError:") and mf["value"] == ""


def test_run_scan_spectrum_failure_hits_dependent_rows_only(tmp_path):
    # cache root nested under a regular file: the spectrum unit cannot
    # write, so every exact row reports it while sce rows still compute
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    plan = small_plan(eins=[1.0, 2.0], methods=["exact", "sce"],
                      cache_dir=str(blocker / "sub"))
    rows = run_scan(plan)
    assert len(rows) == 4
    for row in rows:
        if row["method"] == "exact":
            assert "NotADirectoryError" in row["error"]
            assert row["value"] == ""
        else:
            assert row["error"] == ""
            assert row["value"] != ""


def test_cli_eigensolver_failure_fills_exact_error_cells(monkeypatch, capsys,
                                                        no_cache_env):
    # a failed block solve is a row error of every exact row of its unit;
    # the sce rows of the same scan print as they do without the failure
    argv = ["scan", "--sites", "3", "--u-over-j", "5,40", "--ein", "1,2",
            "--methods", "exact,sce"]
    assert main(argv) == 0
    healthy = capsys.readouterr().out.splitlines()

    def eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == healthy[0] and len(lines) == len(healthy) == 9
    for line, before in zip(lines[1:], healthy[1:]):
        cells = dict(zip(CSV_COLUMNS, line.split(",")))
        if cells["method"] == "exact":
            assert cells["error"] == ("ConvergenceError: block eigensolver "
                                      "failed at k=0: Eigenvalues did not converge")
            assert cells["value"] == cells["channel_count"] == cells["warning"] == ""
        else:
            assert line == before


def test_compare_basic_and_undefined():
    assert relative_delta(1.0, 1.02, -3.7) == pytest.approx(0.02, abs=1e-12)
    assert relative_delta(-2.0, -1.0, 3.7) == 0.5
    assert relative_delta(0.0, 1.02, -3.7) is None


def test_undefined_delta_is_kinematic():
    # a vanishing reference is exact zero or zero momentum transfer, never
    # a small number: rounding noise at theta = 0 is flagged, a genuinely
    # tiny value elsewhere is not
    assert relative_delta(2.9e-31, 1.0, 0.0) is None
    assert relative_delta(1.1e-30, 1.0, 0.0) is None
    assert relative_delta(1e-31, 1.0, -3.7) == pytest.approx(1e31)


def test_run_compare_triplets():
    rows = run_compare(small_plan())
    assert [r["method"] for r in rows] == ["exact", "sce", "compare"]
    ex, sc, cmp_row = rows
    delta = abs(float(ex["value"]) - float(sc["value"])) / float(ex["value"])
    assert float(cmp_row["value"]) == pytest.approx(delta, rel=1e-11)
    assert cmp_row["gap_order"] == sc["gap_order"] == "1"
    assert cmp_row["channel_count"] == ""


def test_run_compare_input_failure():
    rows = run_compare(small_plan(sites=[2]))
    ex, sc, cmp_row = rows
    assert ex["error"] == ""
    assert sc["error"].startswith("DomainError:")
    assert cmp_row["error"] == "ComparisonError: input row failed"
    assert cmp_row["value"] == ""


def test_run_compare_undefined_delta():
    # forward scattering: both inelastic signals vanish identically
    rows = run_compare(small_plan(thetas=[0.0]))
    cmp_row = rows[2]
    assert cmp_row["value"] == ""
    assert cmp_row["warning"] == "undefined_delta"
    assert cmp_row["error"] == ""


def test_run_compare_undefined_delta_backscattering():
    # theta = pi transfers no momentum either.  Its printed cell reads
    # 3.14159265359, just above pi, so the rule must take the plan's angle
    rows = run_compare(small_plan(thetas=[math.pi]))
    assert rows[0]["theta"] == "3.14159265359e+00"
    cmp_row = rows[2]
    assert cmp_row["value"] == ""
    assert cmp_row["warning"] == "undefined_delta"
    assert cmp_row["error"] == ""


def test_critical_points_report_frozen():
    rows = critical_points_report([1, 2, 3])
    assert rows[0] == {"nu": 1, "sce_jc": "2.15250437022e-01",
                       "sce_uc_over_j": "4.64575131106e+00",
                       "mf_jc": "8.57864376269e-02",
                       "mf_uc_over_j": "1.16568542495e+01",
                       "dmrg_jc": "3.05000000000e-01"}
    assert rows[1]["sce_jc"] == "1.25000000000e-01"
    assert rows[1]["dmrg_jc"] == "1.80000000000e-01"
    # no published reference value for nu = 3
    assert rows[2]["dmrg_jc"] == ""


def test_rows_to_csv_layout():
    rows = run_scan(small_plan(methods=["sce"]))
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "L,nu,N,u_over_j,theta,ein_er,method,gap_order,value,channel_count,warning,error"
    assert len(lines) == 2
    assert text.endswith("\n")
    assert lines[1].split(",")[6] == "sce"


def test_rows_to_json_conversions():
    rows = run_scan(small_plan(methods=["exact", "sce"]))
    data = json.loads(rows_to_json(rows))
    assert [r["method"] for r in data] == ["exact", "sce"]
    ex, sc = data
    assert ex["L"] == 3 and isinstance(ex["L"], int)
    assert ex["u_over_j"] == 5.0 and isinstance(ex["u_over_j"], float)
    assert ex["gap_order"] is None
    assert sc["gap_order"] == 1
    assert isinstance(ex["value"], float)
    assert ex["channel_count"] == 9
    assert ex["warning"] == "" and ex["error"] == ""
    assert set(ex) == set(CSV_COLUMNS)


def test_parse_axis_forms():
    assert parse_axis("1,2,5.5") == [1.0, 2.0, 5.5]
    assert parse_axis(" 3 ") == [3.0]
    assert parse_axis("1:4:7") == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    assert parse_axis("1:100:3:log") == pytest.approx([1.0, 10.0, 100.0])
    assert parse_int_axis("4,8") == [4, 8]
    assert parse_int_axis("8:2:4") == [8, 6, 4, 2]
    for bad in ("1:2", "1:2:3:geom", "a,b", "1:4:0", "-3:3:2x", "-3:3:23,0",
                "a:3:2"):
        with pytest.raises(ValidationError):
            parse_axis(bad)
    with pytest.raises(ValidationError, match="positive endpoints"):
        parse_axis("0:4:3:log")
    with pytest.raises(ValidationError, match="expected integers"):
        parse_int_axis("2.5")


@pytest.fixture()
def no_cache_env(monkeypatch):
    monkeypatch.delenv("MOTTSCOPE_CACHE", raising=False)


def test_cli_critical_default(capsys, no_cache_env):
    assert main(["critical"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "nu,sce_jc,sce_uc_over_j,mf_jc,mf_uc_over_j,dmrg_jc"
    assert len(lines) == 3  # fillings 1 and 2 by default
    assert lines[1].startswith("1,2.15250437022e-01,")


def test_cli_critical_json(capsys, no_cache_env):
    assert main(["critical", "--filling", "1,2,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["nu"] for r in data] == [1, 2, 3]
    assert data[0]["dmrg_jc"] == pytest.approx(0.305)
    assert data[2]["dmrg_jc"] is None


def test_cli_exact_golden_to_file(tmp_path, capsys, no_cache_env):
    out = tmp_path / "run.csv"
    code = main(["exact", "--sites", "3", "--u-over-j", "5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert cells["value"] == "3.14721626085e-01"
    assert cells["theta"] == "9.90000000000e-01"  # built-in default angle
    assert cells["ein_er"] == "2.00000000000e+00"


def test_cli_flag_beats_config_beats_default(tmp_path, capsys, no_cache_env):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("u_over_j = 7\ntheta = 0.5\nformat = json\n")
    code = main(["sce", "--sites", "3", "--u-over-j", "5", "--config", str(cfg)])
    assert code == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["u_over_j"] == 5.0   # flag wins over config
    assert row["theta"] == 0.5      # config wins over default
    assert row["ein_er"] == 2.0     # built-in default


def test_cli_cache_env(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("MOTTSCOPE_CACHE", str(cache))
    assert main(["exact", "--sites", "3", "--u-over-j", "5"]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(cache)) == ["L3_N3_U5.00000000000e+00.spec"]


def test_cli_rejects_bad_input(capsys, no_cache_env):
    assert main(["scan", "--sites", "3", "--methods", "exact,fft"]) == 2
    assert "unknown method" in capsys.readouterr().err
    assert main(["sce", "--sites", "2.5"]) == 2
    assert "mottscope: expected integers" in capsys.readouterr().err
    assert main(["sce", "--sites", "3", "--u-over-j", "5:1"]) == 2
    assert "bad range" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,fragment", [
    ("--u-over-j", "nan", "u_over_j must be finite"),
    ("--theta", "nan", "thetas must be finite"),
    ("--ein", "inf", "eins must be finite"),
    ("--mass-ratio", "nan", "mass_ratio must be finite"),
    ("--v0", "inf", "v0_er must be finite"),
    ("--j-er", "nan", "j_er must be finite"),
    ("--mass-ratio", "heavy", "bad mass_ratio value"),
    ("--jobs", "two", "bad jobs value"),
    ("--theta", "7", "thetas must lie in (-pi, pi]"),
    ("--theta", "-3.141592653589793", "thetas must lie in (-pi, pi]"),
])
def test_cli_rejects_non_finite_and_unparsable_numbers(flag, value, fragment,
                                                      capsys, no_cache_env):
    assert main(["sce", "--sites", "3", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert fragment in captured.err and captured.out == ""


@pytest.mark.parametrize("theta", ["-3:3:2x", "-3:3:23,0", "a:3:2"])
def test_cli_rejects_malformed_range(theta, capsys, no_cache_env):
    assert main(["sce", "--sites", "3", f"--theta={theta}"]) == 2
    captured = capsys.readouterr()
    assert f"bad axis value in {theta!r}" in captured.err and captured.out == ""


def subprocess_env() -> dict:
    """Environment for a child python that imports this mottscope, uncached."""
    env = dict(os.environ, PYTHONPATH=str(Path(mottscope.__file__).parents[1]))
    env.pop("MOTTSCOPE_CACHE", None)
    return env


@pytest.mark.parametrize("argv,text", [
    (["sce", "--sites", "3", "--theta=1e999:1:2"], "1e999:1:2"),
    (["critical", "--filling=1e999:1:2"], "1e999:1:2"),
    (["sce", "--sites", "3", "--theta=-1e308:1e308:3"], "-1e308:1e308:3"),
])
def test_cli_rejects_non_finite_range_quietly(argv, text):
    # run outside pytest's warning filter: numpy must not be handed the
    # range, so stderr holds the one message and no RuntimeWarning
    result = subprocess.run([sys.executable, "-m", "mottscope.cli", *argv],
                            env=subprocess_env(), capture_output=True, text=True)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (
        f"mottscope: range ends and their span must be finite in {text!r}\n")


def test_cli_rejects_overflowing_probe(capsys, no_cache_env):
    # finite mass ratio and energy whose product is not: kappa_el = -inf
    assert main(["scan", "--sites", "4", "--mass-ratio", "1e300",
                 "--ein", "1e300"]) == 2
    captured = capsys.readouterr()
    assert "mass_ratio * ein must be finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("filling", ["0", "-1"])
def test_cli_critical_rejects_fillings_below_one(filling, capsys, no_cache_env):
    assert main(["critical", f"--filling={filling}"]) == 2
    captured = capsys.readouterr()
    assert "fillings must be integers >= 1" in captured.err and captured.out == ""


def test_cli_config_file_errors_exit_2(tmp_path, capsys, no_cache_env):
    missing = tmp_path / "missing.cfg"
    for command in ("sce", "critical"):
        assert main([command, "--config", str(missing)]) == 2
        assert "missing.cfg" in capsys.readouterr().err
    bare = tmp_path / "bare.cfg"
    bare.write_text("sites 3\n")
    assert main(["exact", "--config", str(bare)]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err
    # a key that no subcommand's flag stores is refused, not ignored
    for key in ("u-over-j", "u_over_jj"):
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text(f"{key} = 40\n")
        assert main(["sce", "--sites", "3", "--config", str(unknown)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"mottscope: config file: unknown key {key!r}\n"
        assert captured.out == ""


def test_cli_reads_config_once(tmp_path, monkeypatch, capsys, no_cache_env):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("sites = 3\nu_over_j = 5\n")
    reads = []
    original = cli.read_config_file

    def counting(path):
        reads.append(path)
        return original(path)

    monkeypatch.setattr(cli, "read_config_file", counting)
    assert main(["sce", "--config", str(cfg)]) == 0
    assert reads == [str(cfg)]
    assert capsys.readouterr().out.splitlines()[1].startswith("3,1,3,")


def test_cli_emits_error_rows(capsys, no_cache_env):
    # per-point failures are data, not a crash
    code = main(["sce", "--sites", "2", "--u-over-j", "5", "--format", "json"])
    assert code == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["error"].startswith("DomainError:")
    assert row["value"] is None


def test_csv_quotes_error_cells(capsys, no_cache_env):
    argv = ["scan", "--sites", "2,3", "--methods", "exact,sce,mf,sce_largeL"]
    assert main(argv) == 0
    lines = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert main([*argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(len(line) == len(CSV_COLUMNS) for line in lines)
    assert [line[-1] for line in lines[1:]] == [row["error"] for row in data]
    assert any("," in row["error"] for row in data)
    # a quote is doubled and a line break stays inside the cell
    row = dict.fromkeys(CSV_COLUMNS, "") | {"error": 'E: "a",\nb'}
    text = rows_to_csv([row])
    assert text.endswith(',"E: ""a"",\nb"\n')
    assert list(csv.reader(io.StringIO(text)))[1][-1] == row["error"]


@pytest.mark.parametrize("argv,err", [
    (["sce", "--gap-order", "3"], "gap_order must be 1 or 2, got 3"),
    (["sce", "--format", "xml"], "format must be one of ('csv', 'json'), got 'xml'"),
    (["critical", "--filling", ""], "fillings axis must not be empty"),
    (["critical", "--filling", " , "], "fillings axis must not be empty"),
    (["sce", "--sites", "3", "--out", "{missing}"],
     "cannot write '{missing}': No such file or directory"),
    (["critical", "--out", "{missing}"],
     "cannot write '{missing}': No such file or directory"),
])
def test_cli_exit_2_with_one_message(argv, err, tmp_path, capsys, no_cache_env):
    missing = str(tmp_path / "absent" / "x.csv")
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mottscope: {err.format(missing=missing)}\n"


def test_cli_refuses_unusable_paths_before_any_work(tmp_path, monkeypatch,
                                                    capsys, no_cache_env):
    # an --out that cannot be opened, or an exact cache directory that cannot
    # be made, exits 2 before any spectrum unit runs; a refused call leaves
    # an existing --out file byte for byte as it was
    def unit(*args):
        pytest.fail(f"spectrum unit {args[1:]} ran")

    monkeypatch.setattr(harness, "_spectrum_unit", unit)
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"earlier,rows\r\n")
    missing = tmp_path / "absent" / "x.csv"
    exact = ["exact", "--sites", "4", "--u-over-j", "10"]
    for argv, err in [
            (exact + ["--out", str(missing)],
             f"cannot write {str(missing)!r}: No such file or directory"),
            (["compare", "--sites", "4", "--out", str(blocker / "x.csv")],
             f"cannot write {str(blocker / 'x.csv')!r}: Not a directory"),
            (exact + ["--cache-dir", str(blocker), "--out", str(kept)],
             f"cannot use cache_dir {str(blocker)!r}: File exists"),
            (exact + ["--cache-dir", str(blocker / "sub")],
             f"cannot use cache_dir {str(blocker / 'sub')!r}: Not a directory"),
            (exact + ["--gap-order", "3", "--out", str(kept)],
             "gap_order must be 1 or 2, got 3"),
            (["critical", "--filling", "0", "--out", str(kept)],
             "fillings must be integers >= 1, got 0")]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"mottscope: {err}\n")
        assert kept.read_bytes() == b"earlier,rows\r\n"
    assert not missing.parent.exists()


def flag_and_config_outcomes(command, key, value, tmp_path, capsys):
    """(exit status, stdout, stderr) with key=value as a flag, then in a config file."""
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {value}\n")
    outcomes = []
    for argv in ([command, f"--{key.replace('_', '-')}={value}"],
                 [command, "--config", str(cfg)]):
        code = main(argv)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


# (command, key, a good value, a bad value) for every key a flag can set
GATE_CASES = [
    ("sce", "sites", "4", "2.5"),
    ("sce", "filling", "2", "0"),
    ("sce", "u_over_j", "5", "-1"),
    ("sce", "theta", "0.5", "7"),
    ("sce", "ein", "1.5", "0"),
    ("sce", "mass_ratio", "2", "heavy"),
    ("sce", "v0", "10", "inf"),
    ("sce", "j_er", "0.01", "0"),
    ("sce", "gap_order", "2", "3"),
    ("sce", "lambda_source", "iterative", "exact"),
    ("sce", "format", "json", "xml"),
    ("sce", "jobs", "2", "0"),
    ("scan", "methods", "sce,mf", "exact,fft"),
    ("critical", "filling", "3", ""),
    ("critical", "filling", "1:3:3", " , "),
    ("critical", "format", "json", "xml"),
]


@pytest.mark.parametrize("command,key,good,bad", GATE_CASES)
def test_cli_flag_and_config_pass_one_gate(command, key, good, bad, tmp_path,
                                           capsys, no_cache_env):
    (code, out, err), config_form = flag_and_config_outcomes(
        command, key, good, tmp_path, capsys)
    assert config_form == (code, out, err) and code == 0 and out and not err
    (code, out, err), config_form = flag_and_config_outcomes(
        command, key, bad, tmp_path, capsys)
    assert config_form == (code, out, err) and code == 2 and not out
    assert err.startswith("mottscope: ") and err.count("\n") == 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(["mass_ratio", "v0", "j_er", "gap_order",
                            "lambda_source", "format", "jobs"]),
       value=st.text(alphabet="0123456789.-+eEinfatjsoxr ", max_size=6))
@example(key="mass_ratio", value="--")  # argparse reads --mass-ratio=-- as []
@example(key="lambda_source", value=" iterative")  # a config value is stripped
def test_cli_scalar_settings_property(key, value, tmp_path, capsys, no_cache_env):
    # sce makes no worker pool, so any jobs value is safe to run
    flag_form, config_form = flag_and_config_outcomes(
        "sce", key, value, tmp_path, capsys)
    assert flag_form == config_form
    code, out, err = flag_form
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, no_cache_env):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()  # join continued lines
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("mottscope ")]
    monkeypatch.chdir(tmp_path)
    assert [argv[0] for argv in commands] == list(cli.COMMANDS)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "scan.json").read_text())


# Captured from the CLI before the three methods shared one open-channel
# kernel; every row must stay byte for byte the same.
GOLDEN = [
    (["scan", "--sites", "4", "--u-over-j", "5,40", "--theta", "0.99",
      "--ein", "0.2,2.0", "--methods", "exact,sce,sce_largeL,mf"], """\
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e-01,exact,,2.53850829436e-01,30,,
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e-01,sce,1,2.56642939736e-01,9,,
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e-01,sce_largeL,,1.92989440495e-01,0,,
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e-01,mf,,1.41121254121e+00,2,lambda_validity,
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e+00,exact,,3.31535716356e-01,34,,
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e+00,sce,1,4.32732310277e-01,9,,
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e+00,sce_largeL,,4.91685510369e-01,0,,
4,1,4,5.00000000000e+00,9.90000000000e-01,2.00000000000e+00,mf,,1.24651571471e+00,2,lambda_validity,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e-01,exact,,0.00000000000e+00,0,no_open_channels,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e-01,sce,1,0.00000000000e+00,0,no_open_channels,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e-01,sce_largeL,,3.01546000774e-03,0,high_ein_condition,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e-01,mf,,0.00000000000e+00,0,,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,exact,,7.47092213385e-03,34,,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,sce,1,7.38594218967e-03,9,,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,sce_largeL,,7.68258609951e-03,0,,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,mf,,0.00000000000e+00,0,,
"""),
    # at E_in = 0.025 E_r only the hole channel of the mean-field site is open
    (["scan", "--sites", "5", "--u-over-j", "8,40", "--gap-order", "2",
      "--lambda-source", "iterative", "--ein", "0.025,2.0",
      "--methods", "sce,mf"], """\
5,1,5,8.00000000000e+00,9.90000000000e-01,2.50000000000e-02,sce,2,5.81612898558e-04,2,,
5,1,5,8.00000000000e+00,9.90000000000e-01,2.50000000000e-02,mf,,6.35414258417e-02,1,lambda_validity,
5,1,5,8.00000000000e+00,9.90000000000e-01,2.00000000000e+00,sce,2,1.86012436098e-01,16,,
5,1,5,8.00000000000e+00,9.90000000000e-01,2.00000000000e+00,mf,,2.84053585326e-01,2,lambda_validity,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.50000000000e-02,sce,2,0.00000000000e+00,0,no_open_channels,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.50000000000e-02,mf,,0.00000000000e+00,0,,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,sce,2,6.79599852968e-03,16,,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,mf,,0.00000000000e+00,0,,
"""),
    # only the compare rows are pinned here; the theta = 0 exact and sce
    # rows are test_zero_momentum_transfer_prints_zero's
    (["compare", "--sites", "4", "--u-over-j", "40", "--theta", "0,0.99"], """\
4,1,4,4.00000000000e+01,0.00000000000e+00,2.00000000000e+00,compare,1,,,undefined_delta,
4,1,4,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,compare,1,1.13747597228e-02,,,
"""),
]


def test_cli_rows_match_golden(capsys, no_cache_env):
    for argv, expected in GOLDEN:
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        if argv[0] == "compare":
            lines = [line for line in lines if ",compare," in line]
        else:
            lines = lines[1:]
        assert lines == expected.splitlines(), argv


def point_rows(plan: ScanPlan) -> list[dict]:
    """plan's rows, each from its own call at one angle."""
    rows = []
    for L, nu, u, theta, ein, method in itertools.product(
            plan.sites, plan.fillings, plan.u_over_j, plan.thetas, plan.eins,
            plan.methods):
        lattice = LatticeSpec(L=L, nu=nu, V0_Er=plan.v0_er, J_Er=plan.j_er)
        probe = ProbeSpec(Ein_Er=ein, theta=theta, mass_ratio=plan.mass_ratio)
        row = {"L": L, "nu": nu, "N": nu * L, "u_over_j": fmt_float(u),
               "theta": fmt_float(theta), "ein_er": fmt_float(ein),
               "method": method, "gap_order": "", "value": "",
               "channel_count": "", "warning": "", "error": ""}
        try:
            if method == "exact":
                rec = inelastic_cs_exact(harness._spectrum_unit(plan, L, nu, u),
                                         lattice, probe)
            elif method == "sce":
                rec = inelastic_cs_sce(lattice, probe, u, gap_order=plan.gap_order)
                row["gap_order"] = str(plan.gap_order)
            elif method == "sce_largeL":
                rec = large_l_cs(nu, probe, plan.v0_er, u, J_Er=plan.j_er)
            else:
                rec = inelastic_cs_mf(lattice, probe, u,
                                      condensate_lambda(nu, u, plan.lambda_source))
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            (value,) = rec.value
            row.update(value=fmt_float(value),
                       channel_count=str(rec.channel_count), warning=rec.warning)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One spectrum cache for every example, so each sector is solved once."""
    return str(tmp_path_factory.mktemp("spectra"))


ANGLES = st.one_of(st.sampled_from([0.0, math.pi, 0.99, -3.0]),
                   st.floats(-3.14, math.pi, allow_nan=False))
# 1e-3 E_r is below every gap of these sectors; 20 E_r opens them all
ENERGIES = st.one_of(st.sampled_from([1e-3, 20.0]), st.floats(1e-3, 20.0))


@settings(max_examples=30, deadline=None)
@given(sites=st.lists(st.integers(2, 6), min_size=1, max_size=2, unique=True),
       fillings=st.permutations([1, 2]).flatmap(
           lambda p: st.integers(1, 2).map(lambda n: p[:n])),
       u_over_j=st.lists(st.sampled_from([0.0, 4.5, 8.0, 25.0]), min_size=1,
                         max_size=2),
       thetas=st.lists(ANGLES, min_size=1, max_size=5).flatmap(
           lambda ts: st.just(ts + ts[:1])),
       eins=st.lists(ENERGIES, min_size=1, max_size=3),
       methods=st.permutations(KNOWN_METHODS).flatmap(
           lambda p: st.integers(1, 4).map(lambda n: list(p[:n]))),
       gap_order=st.sampled_from([1, 2]),
       lambda_source=st.sampled_from(["perturbative", "iterative"]))
def test_scan_rows_match_per_point_calls(shared_cache, sites, fillings, u_over_j,
                                         thetas, eins, methods, gap_order,
                                         lambda_source):
    # a unit's rows come from one call per (E_in, method) over the whole
    # theta axis; every cell must be what a call at that one angle gives
    plan = ScanPlan(sites=sites, fillings=list(fillings), u_over_j=u_over_j,
                    thetas=thetas, eins=eins, methods=methods,
                    gap_order=gap_order, lambda_source=lambda_source,
                    cache_dir=shared_cache)
    rows = run_scan(plan)
    assert rows == point_rows(plan)
    # exact and sce warn exactly on the rows that open no channel; mf's
    # Mott-phase rows have count 0 and no warning by design
    for row in rows:
        if row["method"] in ("exact", "sce") and not row["error"]:
            closed = row["channel_count"] == "0"
            assert (row["warning"] == "no_open_channels") == closed


def test_mf_sweep_solves_lambda_once(tmp_path, monkeypatch, no_cache_env):
    calls = []
    solve = meanfield.selfconsistent_lambda

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(meanfield, "selfconsistent_lambda", counted)
    out = tmp_path / "mf.csv"
    assert main(["mf", "--sites", "4", "--filling", "1", "--u-over-j", "11.6",
                 "--lambda-source", "iterative", "--ein", "0.5:5:40",
                 "--out", str(out)]) == 0
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 41


def test_zero_momentum_transfer_prints_zero(capsys, no_cache_env):
    # theta = 0 and pi transfer no momentum; both sums vanish there exactly
    assert main(["scan", "--sites", "4", "--u-over-j", "40", "--methods",
                 "exact,sce", "--theta", "0,3.141592653589793"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == [
        f"4,1,4,4.00000000000e+01,{theta},2.00000000000e+00,{cells}"
        for theta in ("0.00000000000e+00", "3.14159265359e+00")
        for cells in ("exact,,0.00000000000e+00,34,,",
                      "sce,1,0.00000000000e+00,9,,")]


def test_cli_critical_at_huge_filling(capsys, no_cache_env):
    assert main(["critical", "--filling", "100000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("100000,3.15446789884e-06,3.17010675673e+05,"
                               "1.24999375004e-06,")


def test_cli_critical_at_extreme_fillings(capsys, no_cache_env):
    # 1/2 + nu - sqrt(nu (nu+1)) cancels to 0 at nu = 1e20; the rewritten
    # form keeps mf_jc at 1/(8 nu)
    assert main(["critical", "--filling", "1e20"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == str(10**20)
    assert row[3:5] == ["1.25000000000e-21", "8.00000000000e+20"]
    # nu^3 of the gap cubic is no float there; inf is no integer
    for filling in ("1e200", "1e400", "nan"):
        assert main(["critical", f"--filling={filling}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("mottscope: ") and captured.out == ""


def test_cli_reads_integer_fillings_exactly(capsys, no_cache_env):
    # 2^53 + 1 and 1e50 have no float of their own; the integer axis reads
    # its tokens and range ends as decimals and steps a range in integers,
    # so each row names a filling that was asked for, inside the range
    for filling, nus in (("9007199254740993", [2**53 + 1]), ("1e50", [10**50]),
                         ("9007199254740993:9007199254740995:3",
                          [2**53 + 1, 2**53 + 2, 2**53 + 3]),
                         ("1:9007199254740993:2:log", [1, 2**53 + 1]),
                         ("9007199254740993:9007199254740993:1:log", [2**53 + 1])):
        assert main(["critical", "--filling", filling]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(nu) for nu in nus]
    assert parse_int_axis("9007199254740993,1e50,2E3") == [2**53 + 1, 10**50, 2000]
    for bad in ("1.0000000000000000001", "1e999999999", "sNaN", "4,x"):
        with pytest.raises(ValidationError):
            parse_int_axis(bad)


@pytest.mark.parametrize("filling", ["1:2:3", "9007199254740993:9007199254740996:3"])
def test_cli_rejects_integer_range_with_fractional_step(filling, capsys,
                                                        no_cache_env):
    assert main(["critical", "--filling", filling]) == 2
    captured = capsys.readouterr()
    assert "expected integers" in captured.err and captured.out == ""


def test_cli_critical_matches_50_digit_root(capsys, no_cache_env):
    # every sce_jc and sce_uc_over_j cell is the 12-digit rounding of the
    # gap cubic's smallest root, bisected in 50-digit mpmath
    fillings = list(range(1, 61)) + [10**k for k in range(2, 101)]
    assert main(["critical", "--filling", ",".join(map(str, fillings))]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == fillings
    for nu, row in zip(fillings, rows):
        root = mp_critical_j(nu)
        assert row[1:3] == [cell_12_digits(root), cell_12_digits(1 / root)], nu
    assert rows[1][2] == "8.00000000000e+00"  # nu = 2: U_c/J is 8 exactly


def test_closed_probe_warns_for_exact_and_sce(capsys, no_cache_env):
    assert main(["scan", "--sites", "3", "--u-over-j", "4", "--theta=-3",
                 "--ein", "0.01", "--methods", "exact,sce"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines == [
        f"3,1,3,4.00000000000e+00,-3.00000000000e+00,1.00000000000e-02,{cells}"
        for cells in ("exact,,0.00000000000e+00,0,no_open_channels,",
                      "sce,1,0.00000000000e+00,0,no_open_channels,")]


def test_scipy_never_loads(tmp_path):
    # the package solves with numpy alone: importing the CLI, a scan whose
    # spectra all come from the cache, a cold exact scan, a comparison, a
    # superfluid mean-field scan with the self-consistent lambda, an sce
    # scan and the critical table never load scipy
    env = subprocess_env()
    scan = ["scan", "--sites", "3,4", "--u-over-j", "5,40",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "rows.csv")]
    subprocess.run([sys.executable, "-m", "mottscope.cli", *scan], env=env,
                   check=True)
    code = (
        "import sys, mottscope.cli as cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "assert 'scipy' not in sys.modules, 'warm scan'\n"
        "assert cli.main(['scan', '--sites', '3,4', '--u-over-j', '7',\n"
        "                 '--methods', 'exact,sce']) == 0\n"
        "assert 'scipy' not in sys.modules, 'cold exact scan'\n"
        "assert cli.main(['compare', '--sites', '4', '--u-over-j', '8']) == 0\n"
        "assert 'scipy' not in sys.modules, 'compare'\n"
        "assert cli.main(['mf', '--sites', '4', '--u-over-j', '8',\n"
        "                 '--lambda-source', 'iterative']) == 0\n"
        "assert 'scipy' not in sys.modules, 'iterative mf'\n"
        "assert cli.main(['sce', '--sites', '4', '--u-over-j', '8']) == 0\n"
        "assert 'scipy' not in sys.modules, 'sce'\n"
        "assert cli.main(['critical', '--filling', '1,2,3']) == 0\n"
        "assert 'scipy' not in sys.modules, 'critical'\n")
    result = subprocess.run([sys.executable, "-c", code, *scan], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
