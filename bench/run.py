"""Benchmark of the mottscope CLI: timed end to end, or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  With
--trace 0 the workload's CLI calls run as child processes, in whole rounds
until S seconds have passed, and the end-to-end metrics are printed.  With
--trace 1 the calls run twice in this process through mottscope.cli.main,
untraced and then with every layer wrapped, and the per-layer metrics are
printed.  Either way every output row is checked, and the last line of
stdout is one JSON object.  See bench/README.md for the workloads and the metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MB = 2.0 ** 20


class BenchError(Exception):
    """The program could not be measured; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MOTTSCOPE_CACHE", None)  # only --cache-dir may enable the cache
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], log: Path) -> tuple[float, float, float]:
    """Run python with args; return (wall s, user+sys CPU s, max RSS MB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"exit {proc.returncode}: python {' '.join(args)}\n{tail}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB


def run_round(w, out_dir: Path, cache_dir, log: Path):
    """All of a workload's calls once, as child processes.

    Returns {label: (wall s, CPU s, max RSS MB)} and {label: output text}.
    """
    out_dir.mkdir(parents=True)
    stats, outputs = {}, {}
    for label, spec in w.calls.items():
        out = out_dir / f"{label}.csv"
        stats[label] = run_child(["-m", "mottscope.cli", *spec.argv(str(out), cache_dir)], log)
        outputs[label] = out.read_text(encoding="ascii")
    return stats, outputs


def run_round_inprocess(main, w, out_dir: Path, cache_dir):
    """All of a workload's calls once, through mottscope.cli.main."""
    out_dir.mkdir(parents=True)
    outputs = {}
    start = time.perf_counter()
    for label, spec in w.calls.items():
        out = out_dir / f"{label}.csv"
        if main(spec.argv(str(out), cache_dir)) != 0:
            raise BenchError(f"in-process call {label} returned non-zero")
        outputs[label] = out.read_text(encoding="ascii")
    return time.perf_counter() - start, outputs


def traced_rounds(w, work: Path):
    """One untraced and one traced round in this process, same calls.

    A cache workload runs its cold fill in each, so the spectrum layer's
    compute and save show beside the warm reads; the walls cover the
    warm calls alone.  Returns the tracer, both walls, the untraced cold
    output (or None) and every other output.
    """
    import tracing

    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("MOTTSCOPE_CACHE", None)
    import mottscope.cli

    tracer = tracing.Tracer()
    walls, outputs, cold = [], [], None
    for traced in (False, True):
        cache_dir = str(work / f"cache{int(traced)}") if w.cache_fill else None
        with tracing.traced_layers(tracer) if traced else contextlib.nullcontext():
            if w.cache_fill:
                _, out = run_round_inprocess(mottscope.cli.main, w,
                                             work / f"cold{int(traced)}", cache_dir)
                if cold is None:
                    cold = out
                else:
                    outputs.append(out)
            wall, out = run_round_inprocess(mottscope.cli.main, w,
                                            work / f"round{int(traced)}", cache_dir)
        walls.append(wall)
        outputs.append(out)
    return tracer, walls, cold, outputs


def measure(args, w, work: Path) -> dict:
    log = work / "stderr.log"
    import_s = run_child(["-c", "import mottscope.cli"], log)[0]
    if args.trace:
        import tracing

        tracer, (untraced, traced), cold, outputs = traced_rounds(w, work)
        metrics = tracing.layer_metrics(tracer)
        metrics.update({
            "cli.import_s": {"value": import_s, "unit": "s"},
            "trace.wall_s": {"value": traced, "unit": "s"},
            "trace.untraced_wall_s": {"value": untraced, "unit": "s"},
            "trace.overhead_pct": {"value": 100.0 * (traced - untraced) / untraced,
                                   "unit": "%"},
        })
        spans = ROOT / ".bench_work" / f"trace-{w.name}-seed{args.seed}.json"
        tracer.dump(str(spans))
        print(f"bench: {len(tracer.spans)} spans written to {spans}", file=sys.stderr)
    else:
        cache_dir = str(work / "cache") if w.cache_fill else None
        cold = None
        if w.cache_fill:
            _, cold = run_round(w, work / "cold", cache_dir, log)
        setup_s = time.perf_counter() - _T0
        rounds, outputs = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            stats, out = run_round(w, work / f"round{len(rounds)}", cache_dir, log)
            rounds.append(stats)
            outputs.append(out)
        # Each call's fastest round, summed.  Other tenants of the machine
        # only ever add time, in spells of seconds to minutes; the fastest
        # round is the steadiest estimate of what the calls themselves cost.
        def fastest(i):
            return sum(min(r[label][i] for r in rounds) for label in w.calls)

        metrics = {
            "wall_s": {"value": fastest(0), "unit": "s"},
            "cpu_s": {"value": fastest(1), "unit": "s"},
            "peak_rss_mb": {"value": max(c[2] for r in rounds for c in r.values()),
                            "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        print(f"bench: {w.name} {len(rounds)} rounds, walls " + " ".join(
            f"{sum(c[0] for c in r.values()):.3f}" for r in rounds), file=sys.stderr)

    import checks  # numpy and scipy load here, after the timed part

    tally = checks.Tally()
    for out in outputs:
        checks.check_round(w, out, tally)
        if cold is not None and out != cold:
            tally.wrong.append("warm output differs from the cold output of the same scan")
    if any(out != outputs[0] for out in outputs):
        tally.wrong.append("identical calls wrote different outputs")
    missed = checks.self_test(tally.samples)
    print(f"bench: self-tested checks {sorted(tally.samples)}", file=sys.stderr)
    if missed:
        tally.wrong.append(f"self-test: checks {missed} accepted a perturbed row")
    for line in tally.wrong[:20] + tally.faults[:4]:
        print(f"bench: {line}", file=sys.stderr)
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "mottscope" / "cli.py").is_file():
        print(f"bench: no mottscope package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = workloads.build(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, w, work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
