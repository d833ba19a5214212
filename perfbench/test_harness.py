"""Tests of the benchmark's metric math and tracer.

    python -m pytest perfbench -q
"""

import json
import os
import types

import pytest

import harness
import layers
import run


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    p90 = harness.percentile(xs, 0.9)
    assert p90 == pytest.approx(90.1)  # linear interpolation, numpy's default
    assert sum(x > p90 for x in xs) == 10
    with pytest.raises(ValueError):
        harness.percentile(xs[:99], 0.9)
    assert harness.percentile(range(20), 0.5) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        harness.percentile(range(19), 0.5)


def test_percentile_ignores_input_order():
    xs = [5.0, 1.0, 3.0] * 40
    assert harness.percentile(xs, 0.5) == harness.percentile(sorted(xs), 0.5) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["tuner.run_strategy", 0.0, 10.0, -1, None],
        ["gbt.train", 1.0, 4.0, 0, None],
        ["intexec.evaluate_quantized", 5.0, 9.0, 0, None],
        ["intexec.run_quantized", 6.0, 7.0, 2, None],
    ]
    assert harness.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    summ = harness.summarize(spans)
    assert summ["tuner"]["self_s"] == 3.0
    assert summ["intexec"]["self_s"] == 4.0  # nested same-layer spans add up
    assert summ["intexec.evaluate_quantized"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert list(harness.ancestors(spans, 3)) == [2, 0]


def test_failed_ratio_counts_error_rows_and_skips_baseline():
    rows = [{"config": None, "top1": 1.0, "trial": 0},
            {"config": {"cache": "S1"}, "top1": 0.9, "trial": 1},
            {"config": {"cache": "S2"}, "top1": 0.0, "trial": 2, "error": True},
            {"config": {"cache": "S3"}, "top1": 0.8, "trial": 3, "error": False},
            {"config": {"cache": "S3"}, "top1": 0.0, "trial": 4, "error": True}]
    attempted, failed = harness.count_failed_trials(rows)
    assert (attempted, failed) == (4, 2)
    assert harness.failed_ratio(failed, attempted) == 0.5
    with pytest.raises(ValueError):
        harness.failed_ratio(0, 0)


def _fake_layer():
    mod = types.ModuleType("fake.layer")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def _private(x):\n    return x\n", mod.__dict__)
    return mod


def test_tracer_patches_aliases_records_parents_and_restores():
    mod = _fake_layer()
    caller = types.ModuleType("fake.caller")
    caller.outer = mod.outer  # as bound by "from .layer import outer"
    original = mod.outer
    ticks = iter(range(100))
    tracer = harness.Tracer(clock=lambda: float(next(ticks)))
    names = tracer.install({"fake": mod}, [mod, caller],
                           hooks={"fake.inner": lambda a, k, out: {"arg": a[0]}})
    assert names == ["fake.inner", "fake.outer"]
    assert caller.outer(3) == 8
    assert [s[0] for s in tracer.spans] == ["fake.outer", "fake.inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.spans[1][4] == {"arg": 3}
    tracer.uninstall()
    assert mod.outer is original and caller.outer is original


def test_tracer_closes_span_when_call_raises():
    tracer = harness.Tracer()
    boom = tracer.wrap("x.boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    (span,) = tracer.spans
    assert span[2] >= span[1] and not tracer._stack


def test_node_timer_charges_time_to_producing_node_kind():
    nodes = [types.SimpleNamespace(output="t1", kind="conv2d"),
             types.SimpleNamespace(output="t2", kind="relu"),
             types.SimpleNamespace(output="t3", kind="conv2d")]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0])
    timer = harness.NodeTimer(nodes, clock=lambda: next(ticks)).start()
    for tid in ("input", "t1", "t2", "t3"):
        timer(tid, None)
    assert dict(timer.totals) == {"conv2d": 6.0, "relu": 1.0}


def test_benchmark_json_lists_exactly_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    empty = layers.per_layer_metrics([], {"fp32": {}, "intexec": {}}, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in empty.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
