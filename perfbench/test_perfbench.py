"""Tests of the benchmark's own logic (not of the program it drives)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import report, trace
from perfbench.cell import CellResult, output_digest
from perfbench.run import _check_cells
from perfbench.workloads import UNSTEADY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _span(id, name, start, end, parent=-1, round=-1):
    return trace.Span(id, name, float(start), float(end), parent, round)


def test_self_time_subtracts_child_cover_on_hand_built_tree():
    spans = [
        _span(0, "root", 0, 10),
        _span(1, "a", 1, 4, parent=0),
        _span(2, "b", 5, 9, parent=0),
        _span(3, "c", 6, 7, parent=2),
        # overlapping siblings and a child overhanging its parent:
        # only the covered part of the parent's interval is removed
        _span(4, "d", 20, 30),
        _span(5, "e", 21, 25, parent=4),
        _span(6, "e", 23, 27, parent=4),
        _span(7, "f", 28, 35, parent=4),
    ]
    own = trace.self_times(spans)
    assert own["root"] == pytest.approx(10 - 3 - 4)
    assert own["a"] == pytest.approx(3)
    assert own["b"] == pytest.approx(4 - 1)
    assert own["c"] == pytest.approx(1)
    assert own["d"] == pytest.approx(10 - 6 - 2)
    assert own["e"] == pytest.approx(4 + 4)
    assert trace.total_times(spans)["e"] == pytest.approx(8)
    assert trace.span_counts(spans) == {
        "root": 1, "a": 1, "b": 1, "c": 1, "d": 1, "e": 2, "f": 1}
    # top-level: root [0, 10] and d [20, 30] over a 30 s wall
    assert trace.coverage(spans) == pytest.approx(20 / 30)


def test_tracer_links_parents_and_skips_same_name_reentry():
    tracer = trace.Tracer()
    calls = []

    def inner():
        calls.append("inner")

    wrapped_inner = trace._wrapped(tracer, inner, lambda _: "step")

    def outer():
        wrapped_inner()  # same name as the enclosing span: no new span

    wrapped_outer = trace._wrapped(tracer, outer, lambda _: "step")
    with tracer.span("round"):
        wrapped_outer()
    names = {s.name: s for s in tracer.spans}
    assert calls == ["inner"]
    assert len(tracer.spans) == 2
    assert names["step"].parent == names["round"].id
    assert names["round"].parent == -1


def test_instrumentation_names_model_layers_and_removes_cleanly(
        tmp_path):
    from repro.nn import Dense, Model, SoftmaxCrossEntropy, Tanh
    from repro.nn.layers import Layer
    from repro.nn.model import Model as ModelClass

    originals = [vars(ModelClass)["forward"], vars(Dense)["forward"],
                 vars(Dense)["backward"], vars(Layer)["backward"]]
    rng = np.random.default_rng(0)
    model = Model([Dense(6, 5, rng), Tanh(), Dense(5, 3, rng)], rng=rng)
    x = rng.normal(size=(8, 6))
    y = rng.integers(0, 3, size=8)
    expected = model.loss_and_grad(x, y, SoftmaxCrossEntropy())

    tracer = trace.Tracer()
    inst = trace.instrument_classes(tracer)
    try:
        value = model.loss_and_grad(x, y, SoftmaxCrossEntropy())
    finally:
        inst.remove()
    assert value == expected
    names = trace.span_counts(tracer.spans)
    for name in ("nn.forward", "nn.backward", "nn.layer0.Dense.forward",
                 "nn.layer1.Tanh.backward", "nn.layer2.Dense.backward"):
        assert names[name] == 1, name
    by_id = {s.id: s for s in tracer.spans}
    layer = next(s for s in tracer.spans
                 if s.name == "nn.layer0.Dense.forward")
    assert by_id[layer.parent].name == "nn.forward"
    assert [vars(ModelClass)["forward"], vars(Dense)["forward"],
            vars(Dense)["backward"], vars(Layer)["backward"]] == originals

    path = tmp_path / "t.jsonl"
    tracer.write_jsonl(str(path), {"workload": "test"})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"workload": "test"}
    assert len(lines) == 1 + len(tracer.spans)


def test_summarize_reports_median_and_sample_count():
    assert report.summarize([3.0, 1.0, 2.0]) == {"value": 2.0, "n": 3}
    assert report.summarize([4.0, 1.0]) == {"value": 2.5, "n": 2}
    empty = report.summarize([])
    assert empty["n"] == 0 and math.isnan(empty["value"])


def test_end_to_end_pools_round_samples_across_cells():
    cells = [
        CellResult(round_s=[1.0, 3.0, 2.0], loop_s=6.0, train_samples=60,
                   attack_s=[0.5, 0.6], client_accuracy=0.6,
                   global_auc=0.55, local_auc=0.52),
        CellResult(round_s=[4.0, 5.0, 6.0], loop_s=15.0,
                   train_samples=60, attack_s=[0.7], client_accuracy=0.7,
                   global_auc=0.55, local_auc=0.52),
    ]
    metrics = report.end_to_end(cells, [0.2, 0.1, 0.3], 100.0)
    assert set(metrics) == set(report.END_TO_END)
    assert metrics["round_s_p50"] == {"value": 3.5, "n": 6}
    assert metrics["train_samples_per_s"] == {"value": 7.0, "n": 2}
    assert metrics["setup_s"] == {"value": 0.2, "n": 3}
    assert metrics["attack_s"] == {"value": 0.6, "n": 3}
    assert metrics["client_accuracy"] == {"value": pytest.approx(0.65),
                                          "n": 2}


def _registry():
    from repro.fl.virtual import PersonalWeightsRegistry
    from repro.nn import Dense, Model

    rng = np.random.default_rng(1)
    model = Model([Dense(4, 3, rng)], rng=rng)
    registry = PersonalWeightsRegistry(model.weight_layout())
    for client_id in (2, 0):
        registry.put(client_id, rng.normal(size=model.num_parameters()))
    return model.weights.buffer.copy(), registry


def test_digest_detects_one_ulp_change_in_global_buffer():
    buffer, registry = _registry()
    digest = output_digest(buffer, registry)
    assert output_digest(buffer.copy(), registry) == digest
    bumped = buffer.copy()
    bumped[3] = np.nextafter(bumped[3], np.inf)
    assert output_digest(bumped, registry) != digest


def test_digest_detects_one_ulp_change_in_registry_row():
    buffer, registry = _registry()
    digest = output_digest(buffer, registry)
    row = registry.get(2).buffer
    row[0] = np.nextafter(row[0], -np.inf)
    assert output_digest(buffer, registry) != digest


def test_digest_mismatch_fails_the_run_check_without_raising():
    good = dict(round_s=[1.0], loop_s=1.0, attack_s=[0.1],
                client_accuracy=0.5, global_auc=0.6, local_auc=0.6)
    same = [CellResult(digest="aa", **good), CellResult(digest="aa", **good),
            CellResult(seed=7, digest="bb", **good)]
    assert _check_cells(same) == []
    differ = [CellResult(digest="aa", **good),
              CellResult(digest="ab", **good)]
    assert any("digests differ" in p for p in _check_cells(differ))
    broken = [CellResult(digest="aa", **{**good, "global_auc": math.nan})]
    assert _check_cells(broken)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] \
        == [name for name in WORKLOADS if name not in UNSTEADY]
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == report.PER_LAYER
    for workload in WORKLOADS.values():
        for layer_metric, e2e_metric in workload.moves:
            assert layer_metric in report.PER_LAYER
            assert e2e_metric in report.END_TO_END
