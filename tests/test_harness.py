"""Scan harness, method comparison, serialization, and the CLI."""

import json
import math
import os

import pytest

import mottscope.cli as cli
from mottscope.cli import main, parse_axis, parse_int_axis
from mottscope.errors import ValidationError
from mottscope.harness import (CSV_COLUMNS, ScanPlan, critical_points_report,
                               fmt_float, relative_delta, rows_to_csv,
                               rows_to_json, run_compare, run_scan,
                               validate_plan)


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
])
def test_validate_plan_rejections(overrides, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_plan(small_plan(**overrides))


def test_validate_plan_dimension_cap():
    # 1352078 Fock states at (12, 12) exceed the default cap
    plan = small_plan(sites=[12], methods=["exact"])
    with pytest.raises(ValidationError, match="exceeds cap"):
        validate_plan(plan)
    # approximate methods never touch the basis
    validate_plan(small_plan(sites=[12], methods=["sce", "mf"]))
    validate_plan(small_plan(sites=[12], methods=["exact"], dim_cap=1_400_000))


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
    for bad in ("1:2", "1:2:3:geom", "a,b", "1:4:0"):
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


def test_cli_config_file_errors_exit_2(tmp_path, capsys, no_cache_env):
    missing = tmp_path / "missing.cfg"
    for command in ("sce", "critical"):
        assert main([command, "--config", str(missing)]) == 2
        assert "missing.cfg" in capsys.readouterr().err
    bare = tmp_path / "bare.cfg"
    bare.write_text("sites 3\n")
    assert main(["exact", "--config", str(bare)]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


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
5,1,5,8.00000000000e+00,9.90000000000e-01,2.50000000000e-02,mf,,6.35414258395e-02,1,lambda_validity,
5,1,5,8.00000000000e+00,9.90000000000e-01,2.00000000000e+00,sce,2,1.86012436098e-01,16,,
5,1,5,8.00000000000e+00,9.90000000000e-01,2.00000000000e+00,mf,,2.84053585316e-01,2,lambda_validity,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.50000000000e-02,sce,2,0.00000000000e+00,0,no_open_channels,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.50000000000e-02,mf,,0.00000000000e+00,0,,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,sce,2,6.79599852968e-03,16,,
5,1,5,4.00000000000e+01,9.90000000000e-01,2.00000000000e+00,mf,,0.00000000000e+00,0,,
"""),
    # the theta = 0 exact and sce values are rounding noise, so only the
    # compare rows are pinned here
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
