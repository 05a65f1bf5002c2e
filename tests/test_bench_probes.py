"""The entry points the benchmark's traced runs reach into fewcast.

``benchmarks/layers.py`` times each layer by calling it on a generated
bundle, and ``benchmarks/spans.py`` wraps fewcast functions by name. A layer
that moved or changed its signature makes the benchmark report its metrics
as absent; these tests fail instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

from fewcast import data, learners, meta, rng
from fewcast.cli import main
from fewcast.search import build_search_space

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


def test_host_clock_hooks_see_every_step_and_evaluation(monkeypatch):
    # workload.HostClock samples the host speed by rebinding the module globals
    # meta.optimizer_step and search.evaluate_pipeline; a loop that bound either
    # name elsewhere would run unsampled
    search_module = importlib.import_module("fewcast.search")  # the package re-exports a function of that name
    calls = {"optimizer_step": 0, "evaluate_pipeline": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(meta, "optimizer_step")
    counted(search_module, "evaluate_pipeline")
    series = data.generate_synthetic_tasks("synthetic", 5, 168, seed=2)
    bundle = data.build_bundle(series[:4], series[4], window=24, seed=2)
    spec = learners.LearnerSpec("linear", input_dim=24)
    for shots, iterations in ((10, 51), (500, 7)):  # stacked across a block boundary; whole pools
        calls["optimizer_step"] = 0
        cfg = meta.MetaConfig(inner_lr=0.001, outer_lr=0.001, shots=shots, meta_iterations=iterations)
        meta.meta_train(spec, cfg, bundle.train_tasks, seed=1)
        assert calls["optimizer_step"] == iterations
    search_module.search(build_search_space("linear"), bundle, budget=3, seed=0,
                         settings=meta.MetaConfig(meta_iterations=2))
    assert calls["evaluate_pipeline"] == 3
