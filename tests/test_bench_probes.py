"""The entry points the benchmark's traced runs reach into fewcast.

``benchmarks/layers.py`` times each layer by calling it on a generated
bundle, and ``benchmarks/spans.py`` wraps fewcast functions by name. A layer
that moved or changed its signature makes the benchmark report its metrics
as absent; these tests fail instead.
"""

import sys
from pathlib import Path

import pytest

from fewcast import data, learners, meta, rng
from fewcast.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import layers
        import spans
    finally:
        sys.path.remove(str(BENCHMARKS))
    return layers, spans


def test_every_layer_metric_measured(bench_modules, tmp_path, monkeypatch):
    layers, _ = bench_modules
    out = tmp_path / "data"
    assert main(["generate", "--kind", "synthetic", "--seed", "11", "--out", str(out)]) == 0

    def one_call(fn):
        fn()
        return 1e-6

    monkeypatch.setattr(layers, "per_call_s", one_call)
    metrics, absent = layers.measure(out, seed=11)
    assert absent == {}
    assert "data.pairs_to_arrays_us.b10" in metrics and "meta.outer_step_us.recurrent" in metrics


def test_tracer_wraps_the_counted_spans(bench_modules):
    _, spans = bench_modules
    bindings = ((data, "pairs_to_arrays"), (learners, "forward"), (meta, "gradient"), (rng, "spawn"))
    originals = {(m, name): getattr(m, name) for m, name in bindings}
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = set(tracer.calls)
    finally:
        tracer.uninstall()
    for span in (
        "data.pairs_to_arrays",
        "learners.gradient",
        "learners.forward",
        "learners.optimizer_step",
        "rng.spawn",
        "rng.derive_seed",
        "meta.evaluate_pipeline",
        "meta.train_pipeline",
    ):
        assert span in wrapped
    assert all(getattr(m, name) is fn for (m, name), fn in originals.items())  # uninstalled
