"""The benchmark's per-layer tracer still finds every layer it wraps.

bench/tracing.py looks the wrapped functions up by name on the package
modules, so a rename there would only surface as a failed traced run.
"""

import importlib.util
from pathlib import Path

import mottscope.cli as cli
import mottscope.harness as harness
import mottscope.spectrum as spectrum

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_and_record(tmp_path, monkeypatch):
    monkeypatch.delenv("MOTTSCOPE_CACHE", raising=False)
    tracing = load_tracing()
    originals = (harness.diagonalize, harness.load_spectrum, cli.run_scan,
                 spectrum.HamiltonianMatrix.to_dense)
    tracer = tracing.Tracer()
    argv = ["scan", "--sites", "3", "--u-over-j", "5",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "rows.csv")]
    with tracing.traced_layers(tracer):
        assert cli.main(argv) == 0   # cold: solve and save
        assert cli.main(argv) == 0   # warm: load only
    assert (harness.diagonalize, harness.load_spectrum, cli.run_scan,
            spectrum.HamiltonianMatrix.to_dense) == originals

    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) >= {f"{name}_s" for name in tracing.LAYER_TIMES}
    spans = {span["name"] for span in tracer.spans}
    assert {"fock.enumerate_basis", "spectrum.build_hamiltonian",
            "spectrum.eigh", "spectrum.ground_matrix_elements",
            "spectrum.save_spectrum", "spectrum.load_spectrum",
            "scatter.inelastic_cs_exact"} <= spans
    assert metrics["scatter.inelastic_cs_exact_calls"]["value"] == 2
    assert metrics["harness.rows"]["value"] == 6
    assert metrics["spectrum.dense_mb"]["value"] > 0
    assert metrics["spectrum.load_mb"]["value"] > 0
    assert metrics["spectrum.save_mb"]["value"] > 0
    # the weighing runs after the eigensolve, not inside it: a span of one
    # under the other would split their self times arbitrarily
    names = [span["name"] for span in tracer.spans]
    assert not [span for span in tracer.spans
                if span["name"] == "spectrum.ground_matrix_elements"
                and span["parent"] is not None
                and names[span["parent"]] == "spectrum.eigh"]
