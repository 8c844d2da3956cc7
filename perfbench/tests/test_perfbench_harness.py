"""The benchmark harness's own arithmetic: percentiles, tails, self time, ratios, the timer check."""

import json
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402


def test_percentile_matches_hand_values_and_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 100) == 5.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)   # rank 3.6 between 4 and 5
    rng = np.random.default_rng(0)
    ys = rng.exponential(size=137).tolist()
    for q in (10, 50, 90, 99):
        assert stats.percentile(ys, q) == pytest.approx(float(np.percentile(ys, q)))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_tail_rule_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(99) == 1000
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0


def test_failure_ratio():
    assert stats.failure_ratio(0, 7) == 0.0
    assert stats.failure_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failure_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failure_ratio(5, 4)


def test_quartile_spread_uses_statistics_quantiles():
    vs = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    q1, med, q3 = statistics.quantiles(vs, n=4)
    assert stats.quartile_spread(vs) == pytest.approx((q3 - q1) / med)
    assert stats.quartile_spread([2.0] * 5) == 0.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)   # self times of a tree add up to its root
    np.testing.assert_array_equal(tracing.root_of(parent), [0, 0, 0, 0])
    np.testing.assert_array_equal(tracing.root_of(np.array([-1, 0, 1, -1, 3])), [0, 0, 0, 3, 3])


def _table(spans):
    """A span table from (name, start s, end s, parent index, operation id) rows."""
    tr = tracing.Tracer()
    for name, start, end, parent, op in spans:
        tr.op_id = op
        tr._stack = [parent] if parent >= 0 else []
        i = tr._open(tr.name_id(name))
        tr.start[i], tr.end[i] = start, end
    tr._stack = []
    return tracing.SpanTable(tr)


def test_layer_self_time_and_the_timer_check():
    import run
    table = _table([
        ("bench.train_step", 0.0, 10.0, -1, 0),
        ("tensor.matmul", 1.0, 4.0, 0, 0),
        ("trainer.train", 4.0, 9.0, 0, 0),
        ("tensor.add", 5.0, 6.0, 2, 0),
        ("bench.checkpoint", 10.0, 12.0, -1, 0),
        ("checkpoint.save", 10.0, 11.5, 4, 0),
        ("data.make_dataset", 20.0, 21.0, -1, tracing.SETUP_OP),   # set-up: not measured
    ])
    every = tracing.layer_self_ms(table)
    assert every["tensor"] == pytest.approx(4e3)
    assert every["trainer"] == pytest.approx(4e3)
    assert every["checkpoint"] == pytest.approx(1.5e3)
    assert every["bench"] == pytest.approx(2.5e3)
    assert every["data"] == 0.0
    step = tracing.layer_self_ms(table, root="bench.train_step")
    assert step["checkpoint"] == 0.0 and step["bench"] == pytest.approx(2e3)
    assert sum(step.values()) == pytest.approx(10e3)

    wl = SimpleNamespace(name="toy", sample="train step", timed_span="bench.train_step")
    assert run.check_against_timer(wl, table, [10.05e3]) == []      # 0.5% outside the span
    assert len(run.check_against_timer(wl, table, [10.2e3])) == 1   # 2% lost


def test_tracer_accounts_for_a_toy_forward_and_restores_the_package():
    from dualdit import blocks, model as M, tensor

    original = (tensor.matmul, blocks.linear, M.DualLevelModel.forward, tensor.Tape.backward)
    model = M.DualLevelModel(M.toy_config(), seed=0)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.tag_linears(model)
        tracer.op_id = 0
        with tracer.span("bench.op"):
            x = np.zeros((2, 3, 8, 8), dtype=np.float32)
            model.forward(x, np.array([0.3, 0.7]), np.array([0, 1]))
    finally:
        tracer.uninstall()
    assert (tensor.matmul, blocks.linear, M.DualLevelModel.forward, tensor.Tape.backward) == original

    table = tracing.SpanTable(tracer)
    layers = tracing.layer_self_ms(table)
    root = table.parent < 0
    assert sum(layers.values()) == pytest.approx(1e3 * table.dur[root].sum(), rel=1e-9)
    metrics = tracing.per_layer_metrics(table, {}, 0.0, 0)
    assert metrics["model.forward.calls"][0] == 1.0
    assert metrics["tensor.calls.matmul"][0] > 0
    assert metrics["model.patch_embed.fwd_ms"][0] > 0   # tagged linear found by its parameters


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    produced = tracing.per_layer_metrics(tracing.SpanTable(tracing.Tracer()), {}, 0.0, 0)
    produced["trace.overhead_pct"] = (0.0, "%")   # added by the traced run itself
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in produced.items()}


def test_expected_nfe_of_the_sample_workload():
    import workloads
    assert workloads.expected_nfe(32, 2.0, (0.1, 1.0)) == 61
    assert workloads.expected_nfe(32, 1.0, (0.1, 1.0)) == 32
