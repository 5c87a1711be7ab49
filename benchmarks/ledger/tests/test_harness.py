"""Unit tests of the ledger's arithmetic: spans, quartiles, verdicts, digests."""

import json
import statistics
import sys
import types

import numpy as np
import pytest

import run
import tracing
import workloads
from repro.sim.engine import SimulationResult


def span(name, start, end, parent):
    return [name, start, end, parent]


class TestSelfTimes:
    def test_nested_spans_sum_to_the_root(self):
        spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, 0),
            span("b", 2.0, 3.0, 1),
            span("c", 5.0, 9.0, 0),
            span("d", 5.5, 6.0, 3),
            span("d", 7.0, 8.5, 3),
        ]
        assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
        assert sum(tracing.self_times(spans)) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span("root", 0.0, 4.0, None),
            span("x", 1.0, 3.0, 0),
            span("y", 2.0, 5.0, 0),  # overlaps x and outlives the parent
        ]
        # The children cover [1, 4] of the root's [0, 4].
        assert tracing.self_times(spans)[0] == pytest.approx(1.0)

    def test_layer_totals_aggregate_by_name(self):
        spans = [
            span("root", 0.0, 10.0, None),
            span("d", 1.0, 2.0, 0),
            span("d", 3.0, 5.0, 0),
        ]
        totals = tracing.layer_totals(spans)
        assert totals["d"] == {"self_s": pytest.approx(3.0), "calls": 2}
        assert totals["root"]["self_s"] == pytest.approx(7.0)


@pytest.fixture
def toy_module(monkeypatch):
    """A stand-in layer: a base class, an override calling super()."""
    module = types.ModuleType("ledger_toy")

    class Base:
        def work(self, value):
            return value + 1

    class Child(Base):
        def work(self, value):
            return super().work(value) * 2

    module.Base, module.Child = Base, Child
    monkeypatch.setitem(sys.modules, "ledger_toy", module)
    return module


class TestTracer:
    def test_wraps_subclasses_and_restores(self, toy_module):
        original = vars(toy_module.Child)["work"]
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        tracer.install([tracing.Target("toy.work", "ledger_toy", "Base.work", True)])
        with tracer.span(tracing.ROOT):
            assert toy_module.Child().work(1) == 4
            assert toy_module.Base().work(1) == 2
        tracer.uninstall()
        assert vars(toy_module.Child)["work"] is original
        # Child.work's super() call belongs to Child.work's span.
        assert [s[0] for s in tracer.spans] == ["root", "toy.work", "toy.work"]
        assert tracing.layer_totals(tracer.spans)["toy.work"]["calls"] == 2

    def test_absent_targets_are_reported_not_raised(self, toy_module):
        tracer = tracing.Tracer()
        tracer.install(
            [
                tracing.Target("gone.module", "repro.no_such_module", "f"),
                tracing.Target("gone.class", "repro.net.kernels", "NoSuchClass.locate"),
                tracing.Target("gone.method", "repro.net.kernels", "MergedPartition.gone"),
                tracing.Target("toy.work", "ledger_toy", "Base.work"),
            ]
        )
        tracer.uninstall()
        assert [entry.split(":")[0] for entry in tracer.absent] == [
            "gone.module",
            "gone.class",
            "gone.method",
        ]

    def test_every_real_target_resolves(self):
        # The targets are the layers' public entry points at this commit;
        # a refactor that deletes one turns it into an `absent` line.
        for target in tracing.TARGETS:
            assert tracing.resolve(target.module, target.attr) is not None, target


class TestStatistics:
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert run.quartiles(values) == (q1, median, q3)
        assert run.summary_stats(values) == {"median": median, "q1": q1, "q3": q3, "n": 6}

    def test_single_value(self):
        assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)

    def test_no_values(self):
        with pytest.raises(ValueError):
            run.quartiles([])


def stats(median, q1=None, q3=None):
    return {
        "median": median,
        "q1": median if q1 is None else q1,
        "q3": median if q3 is None else q3,
    }


class TestJudge:
    def test_regression_beyond_bound(self):
        assert run.judge(stats(10.0), stats(11.5), [], [], 0.1, "lower")[0] == "REGRESSION"
        assert run.judge(stats(10.0), stats(8.5), [], [], 0.1, "higher")[0] == "REGRESSION"

    def test_within_bound(self):
        verdict, worse = run.judge(stats(10.0), stats(10.5), [], [], 0.1, "lower")
        assert verdict == "ok" and worse == pytest.approx(0.05)

    def test_wide_parent_spread_is_unresolved(self):
        parent = stats(10.0, 8.0, 12.0)
        assert run.judge(parent, stats(10.5), [8, 10, 12], [10.5], 0.1, "lower")[0] == "unresolved"
        # ... unless every change sample beats every parent sample.
        assert run.judge(parent, stats(7.0), [8, 10, 12], [7.0], 0.1, "lower")[0] == "ok"

    def test_any_new_failure_regresses_error_rate(self):
        assert run.judge(stats(0.0), stats(0.2), [], [], 0.0, "lower")[0] == "REGRESSION"
        assert run.judge(stats(0.0), stats(0.0), [], [], 0.0, "lower")[0] == "ok"


def result(**changes):
    fields = dict(
        times=np.arange(1.0, 4.0),
        infected_counts=np.array([2, 3, 5], dtype=np.int64),
        infection_times=np.array([0.0, 0.0, 1.0, 3.0, 3.0]),
        population_size=10,
        total_probes=30,
        delivered_probes=25,
    )
    fields.update(changes)
    return SimulationResult(**fields)


class TestDigest:
    def test_equal_results_share_a_digest(self):
        assert workloads.digest(result()) == workloads.digest(result())

    @pytest.mark.parametrize(
        "changes",
        [
            {"infected_counts": np.array([2, 3, 6], dtype=np.int64)},
            {"infected_counts": np.array([2, 3, 5], dtype=np.int32)},
            {"infection_times": np.array([0.0, 0.0, 1.0, 3.0, np.nextafter(3.0, 4.0)])},
            {"total_probes": 31},
        ],
    )
    def test_any_difference_changes_the_digest(self, changes):
        assert workloads.digest(result(**changes)) != workloads.digest(result())

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError):
            workloads.digest({"sensor": object()})


def test_benchmark_json_names_computable_metrics():
    definition = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert definition["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOADS)
    for metric in definition["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == metric["unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in definition["per_layer"]:
        assert run.PER_LAYER[metric["name"]] == metric["unit"]
