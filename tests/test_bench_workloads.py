"""Every CLI call of the benchmark's workloads still passes the CLI's gate.

bench/workloads.py spells its calls as argv lists, so a renamed or removed
flag would only surface as a failed benchmark run.  Each call is parsed
and checked as main does it, and none is run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import mottscope.cli as cli
from mottscope import harness

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds the classes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workload_calls_pass_the_gate(tmp_path, monkeypatch):
    monkeypatch.delenv("MOTTSCOPE_CACHE", raising=False)
    monkeypatch.setattr(harness, "_spectrum_unit",
                        lambda *args: pytest.fail("a spectrum unit ran"))
    workloads = load_workloads(monkeypatch)
    checked = 0
    for name in workloads.NAMES:
        workload = workloads.build(name, seed=1001)
        cache_dir = str(tmp_path / name / "cache") if workload.cache_fill else None
        for label, call in workload.calls.items():
            args = cli.build_parser().parse_args(
                call.argv(str(tmp_path / name / f"{label}.csv"), cache_dir))
            # main's own checks: the merge, then _plan and validate_plan
            cli._job(args, cli._settings(args))
            checked += 1
    assert checked == 8
