"""Self-test of the benchmark: tracing coverage, bypasses, unwrapping, checks.

    python3 -m pytest -q mcbench/selftest.py

Each workload runs a short traced run on one code.  The layers its
workloads.json entry lists under `layers_hit` must record spans, the ones
under `bypass_layers` must record none while trials run, and no wrapper
may survive the run.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = bench.load_workloads()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    name = request.param
    work = bench.make_workload(dict(WORKLOADS[name], codes=1))
    metrics, summary, tracer = bench.run_traced(work, seed=7, seconds=0.2)
    return name, metrics, summary, tracer


def _trial_spans(tracer):
    return [s for s in tracer.spans if s.parent is not None and s.root.name == "trial"]


def test_named_layers_record_spans(traced):
    name, _, summary, tracer = traced
    assert summary.correct, summary.violations
    hit = {s.layer for s in tracer.spans if s.parent is not None}
    missing = set(WORKLOADS[name]["layers_hit"]) - hit
    assert not missing, f"{name}: no spans from {missing}"


def test_bypassed_layers_record_no_trial_spans(traced):
    name, metrics, _, tracer = traced
    spans = _trial_spans(tracer)
    for layer in WORKLOADS[name]["bypass_layers"]:
        assert not [s.name for s in spans if s.layer == layer], f"{name}: {layer} ran"
        assert metrics[f"{layer}.calls_per_trial"][0] == 0
    fast = [s for s in tracer.spans if s.layer == "fastbp"]
    if name == "lossy-exact":
        assert not fast, "fastbp ran on lossy-exact"
    if name == "bsc-bp":
        assert not [s for s in fast if layers._side(s) == "enc"], "sampler BP ran on bsc-bp"


def test_flat_metrics_read_zero(traced):
    """Layer metrics predicted flat because the layer is bypassed read exactly 0."""
    name, metrics, _, _ = traced
    bypass = WORKLOADS[name]["bypass_layers"]
    for metric in WORKLOADS[name]["flat"]:
        if metric.split(".")[0] in bypass:
            assert metrics[metric][0] == 0, metric


def test_every_wrapper_removed(traced):
    _, _, _, tracer = traced
    assert tracer.left_behind() == []


def test_tracing_covers_imported_names():
    tracer = Tracer(bench.LAYER_MODULES)
    tracer.install()
    try:
        assert tracer.missed() == []
        from cosetcode import channel, sampler
        assert getattr(sampler.suffix_ranks, "__mcbench_traced__", False)
        assert getattr(channel.row_reduce, "__mcbench_traced__", False)
    finally:
        tracer.remove()
    assert tracer.left_behind() == []


def test_layer_accounting_adds_up(traced):
    _, metrics, _, _ = traced
    self_ms = sum(metrics[f"{layer}.self_ms"][0] for layer in layers.LAYERS)
    total = metrics["trace.trial_ms"][0]
    assert self_ms + metrics["bench.unattributed_ms"][0] == pytest.approx(total, rel=1e-6)


def test_checks_catch_a_wrong_encoder(monkeypatch):
    name = "lossy-exact"
    work = bench.make_workload(dict(WORKLOADS[name], codes=1))
    codes, checkers, _ = bench.build_codes(work)
    real = bench.lossy.encode_reproduction

    def off_by_one(spec, y, cfg, rng):
        x = real(spec, y, cfg, rng)
        return (x + 1) % spec.q

    monkeypatch.setattr(bench.lossy, "encode_reproduction", off_by_one)
    trials = bench.run_trials(work, codes, checkers, seed=3, count=2)
    assert not bench.Summary.of(trials).correct


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.E2E_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    for w in WORKLOADS.values():
        named = set(w["flat"]) | {m for group in ("moves", "flat_e2e")
                                  for ms in w[group].values() for m in ms}
        assert named <= set(layers.PER_LAYER)


def test_spmv_matches_dense():
    work = bench.make_workload(dict(WORKLOADS["qsc3-sp"], codes=1))
    codes, _, _ = bench.build_codes(work)
    spec, _ = codes[0]
    x = np.random.default_rng(0).integers(0, 3, size=spec.n)
    assert np.array_equal(bench.spmv(spec.A, x), bench._dense(spec.A) @ x % 3)


def test_host_scale_uses_the_nearest_window():
    host = hostspeed.HostSpeed()
    w = hostspeed.WINDOW
    host.refs = [1.0] * w + [2.0] * w
    nominal = hostspeed.REF_NOMINAL_S
    assert host.scale(0) == pytest.approx(nominal / 1.0)
    assert host.scale(w) == pytest.approx(nominal / 1.5)
    assert host.scale(2 * w) == pytest.approx(nominal / 2.0)
    assert host.after(0.0) == 2 * w and len(host.refs) == 2 * w + 1
