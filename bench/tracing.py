"""Per-layer tracing: run `mottscope.cli.main` in-process with its layers wrapped.

The wrappers live here, not in the package: for the duration of a traced
run they replace the public functions that `mottscope.harness` and
`mottscope.cli` call, record one span per call (name, start, end, parent)
and restore the originals afterwards.  A span's self time is its duration
minus the time covered by the spans it caused.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MB = 2.0 ** 20


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[list] = []     # [span id, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name, on_return=None):
        """fn with a span around each call; name may depend on the arguments."""
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append({"id": sid, "name": span, "parent": parent})
            self._stack.append([sid, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, covered = self._stack.pop()
                self.self_s[span] += (end - start) - covered
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[sid].update(start=start, end=end)
            if on_return:
                on_return(self, args, kwargs, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def _sce_name(args, kwargs):
    return f"sce.inelastic_cs_sce_order{kwargs.get('gap_order', 1)}"


def _on_sce(tr, args, kwargs, rec):
    L = args[0].L
    tr.counts["sce.pair_channels"] += L * (L - 1)


def _on_exact(tr, args, kwargs, rec):
    tr.counts["scatter.inelastic_cs_exact_calls"] += 1
    tr.counts["scatter.open_channels"] += rec.channel_count


def _on_diagonalize(tr, args, kwargs, spec):
    tr.counts["spectrum.dense_mb"] = max(tr.counts["spectrum.dense_mb"],
                                         args[0].dim ** 2 * 8 / MB)


def _on_load(tr, args, kwargs, result):
    tr.counts["spectrum.load_mb"] += os.path.getsize(args[0]) / MB


def _on_save(tr, args, kwargs, result):
    tr.counts["spectrum.save_mb"] += os.path.getsize(args[0]) / MB


def _on_lambda(tr, args, kwargs, result):
    tr.counts["meanfield.selfconsistent_lambda_calls"] += 1


def _on_run_scan(tr, args, kwargs, rows):
    tr.counts["harness.rows"] += len(rows)


@contextmanager
def traced_layers(tracer: Tracer):
    """Install the wrappers on the imported package; restore them on exit."""
    import mottscope.cli as cli
    import mottscope.harness as harness
    import mottscope.meanfield as meanfield
    import mottscope.spectrum as spectrum

    patches = [
        (harness, "enumerate_basis", "fock.enumerate_basis", None),
        (harness, "build_hamiltonian", "spectrum.build_hamiltonian", None),
        (harness, "diagonalize", "spectrum.eigh", _on_diagonalize),
        (spectrum.HamiltonianMatrix, "to_dense", "spectrum.to_dense", None),
        (harness, "ground_matrix_elements", "spectrum.ground_matrix_elements", None),
        (harness, "load_spectrum", "spectrum.load_spectrum", _on_load),
        (harness, "save_spectrum", "spectrum.save_spectrum", _on_save),
        (harness, "inelastic_cs_exact", "scatter.inelastic_cs_exact", _on_exact),
        (harness, "inelastic_cs_sce", _sce_name, _on_sce),
        (harness, "critical_j", "sce.critical_j", None),
        (harness, "inelastic_cs_mf", "meanfield.inelastic_cs_mf", None),
        (meanfield, "selfconsistent_lambda", "meanfield.selfconsistent_lambda",
         _on_lambda),
        (cli, "run_scan", "harness.run_scan_self", _on_run_scan),
        (cli, "rows_to_csv", "harness.rows_to_csv", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, hook in patches:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, hook))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# Per-layer metrics reported by a traced run, named as in BENCHMARK.json.
LAYER_TIMES = ("fock.enumerate_basis", "spectrum.build_hamiltonian",
               "spectrum.to_dense", "spectrum.eigh",
               "spectrum.ground_matrix_elements", "spectrum.load_spectrum",
               "spectrum.save_spectrum", "scatter.inelastic_cs_exact",
               "sce.inelastic_cs_sce_order1", "sce.inelastic_cs_sce_order2",
               "sce.critical_j", "meanfield.selfconsistent_lambda",
               "meanfield.inelastic_cs_mf", "harness.run_scan_self",
               "harness.rows_to_csv")
LAYER_COUNTS = {"spectrum.dense_mb": "MB", "spectrum.load_mb": "MB",
                "spectrum.save_mb": "MB",
                "scatter.inelastic_cs_exact_calls": "count",
                "scatter.open_channels": "count", "sce.pair_channels": "count",
                "meanfield.selfconsistent_lambda_calls": "count",
                "harness.rows": "count"}


def layer_metrics(tracer: Tracer) -> dict:
    out = {f"{name}_s": {"value": tracer.self_s.get(name, 0.0), "unit": "s"}
           for name in LAYER_TIMES}
    for name, unit in LAYER_COUNTS.items():
        out[name] = {"value": tracer.counts.get(name, 0.0), "unit": unit}
    return out
