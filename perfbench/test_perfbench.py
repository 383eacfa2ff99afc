"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import re
import time

import pytest

from common import (END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, WORKLOADS,
                    Outcome)
from loadgen import OpenLoopGenerator, Phase, build_schedule
from spans import Span, Tracer, layer_rows, self_times

DESIGNS = [f"d{i}" for i in range(10)]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _phases(seconds: float = 60.0, reload_every: float = 0.0):
    return [Phase("r50", 50, seconds, reload_every=reload_every)]


def _key(ops):
    return [(op.due, op.kind, op.design, op.uncertainty) for op in ops]


class TestSchedule:
    def test_deterministic_per_seed(self):
        assert _key(build_schedule(7, DESIGNS, _phases())) \
            == _key(build_schedule(7, DESIGNS, _phases()))

    def test_differs_across_seeds(self):
        a = build_schedule(7, DESIGNS, _phases())
        b = build_schedule(8, DESIGNS, _phases())
        assert _key(a) != _key(b)
        assert [op.design for op in a[:50]] != [op.design for op in b[:50]]

    @pytest.mark.parametrize("rate", [50, 150])
    def test_realised_rate_near_target(self, rate):
        seconds = 200.0
        ops = build_schedule(3, DESIGNS, [Phase("r", rate, seconds)])
        assert abs(len(ops) / seconds - rate) / rate < 0.03

    def test_mix_half_uncertainty_and_zipf_skew(self):
        ops = build_schedule(5, DESIGNS, _phases(200.0))
        share = sum(op.uncertainty for op in ops) / len(ops)
        assert 0.47 < share < 0.53
        counts = sorted((sum(op.design == d for op in ops) for d in DESIGNS),
                        reverse=True)
        # Zipf(1.1) over 10 designs: the top design draws ~35%, the
        # last ~2%.
        assert counts[0] > 10 * counts[-1]
        assert 0.30 < counts[0] / len(ops) < 0.40

    def test_due_order_and_reloads_once_per_second(self):
        ops = build_schedule(1, DESIGNS, _phases(10.0, reload_every=1.0))
        dues = [op.due for op in ops]
        assert dues == sorted(dues)
        assert [op.index for op in ops] == list(range(len(ops)))
        reloads = [op.due for op in ops if op.kind == "reload"]
        assert reloads == pytest.approx([float(k) for k in range(1, 10)])

    def test_phases_follow_each_other(self):
        ops = build_schedule(2, DESIGNS, [Phase("a", 50, 2.0, measured=False),
                                          Phase("b", 150, 2.0)])
        assert all(op.due < 2.0 for op in ops if op.phase == "a")
        assert all(2.0 <= op.due < 4.0 for op in ops if op.phase == "b")
        assert not any(op.measured for op in ops if op.phase == "a")


class _FakeClient:
    """Answers instantly."""

    def predict(self, payload):
        return b"{}"

    def reload(self):
        return b"{}"

    def close(self):
        pass


class TestGenerator:
    def test_sends_every_op_on_time(self):
        ops = build_schedule(4, DESIGNS, [Phase("r", 100, 2.0)])
        generator = OpenLoopGenerator(ops, _FakeClient, request_seed=0)
        start = time.perf_counter()
        results = generator.run()
        elapsed = time.perf_counter() - start
        assert len(results) == len(ops)
        assert all(r.status == "ok" for r in results)
        assert elapsed < 3.0
        lates = sorted(r.late for r in results)
        assert lates[len(lates) // 2] < 0.005
        # Realised send rate within a few percent of the schedule's.
        span = results[-1].send - results[0].send
        scheduled = ops[-1].due - ops[0].due
        assert abs(span - scheduled) / scheduled < 0.05

    def test_errors_are_classified_not_raised(self):
        class Broken(_FakeClient):
            def predict(self, payload):
                raise TimeoutError("slow")

        ops = build_schedule(4, DESIGNS, [Phase("r", 200, 0.2)])
        generator = OpenLoopGenerator(
            ops, Broken, request_seed=0,
            classify=lambda exc: "timeout"
            if isinstance(exc, TimeoutError) else "failed")
        results = generator.run()
        assert len(results) == len(ops)
        assert {r.status for r in results} == {"timeout"}


def _span(sid, name, start, end, parent=None):
    span = Span(sid, name, start, parent, 1)
    span.end = end
    return span


class TestSelfTime:
    def test_nested_tree(self):
        # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping,
        # union 5) and c [8, 12] (clipped to 2); a has child a1 [2, 3].
        spans = [_span(0, "root", 0.0, 10.0),
                 _span(1, "a", 1.0, 4.0, 0),
                 _span(2, "b", 3.0, 6.0, 0),
                 _span(3, "c", 8.0, 12.0, 0),
                 _span(4, "a1", 2.0, 3.0, 1)]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
        assert selfs[1] == pytest.approx(3.0 - 1.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[3] == pytest.approx(4.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_rows_sum_to_root_duration(self):
        spans = [_span(0, "step", 0.0, 10.0),
                 _span(1, "grads", 1.0, 8.0, 0),
                 _span(2, "optim", 8.5, 9.5, 0)]
        rows = {r["layer"]: r for r in layer_rows(spans)}
        assert sum(r["self_s"] for r in rows.values()) == pytest.approx(10.0)
        assert rows["step"]["self_s"] == pytest.approx(2.0)

    def test_tracer_parents_follow_the_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.001)
        outer, = tracer.named("outer")
        inner, = tracer.named("inner")
        assert inner.parent == outer.sid and outer.parent is None
        assert self_times(tracer.spans)[outer.sid] < outer.duration


class TestMetricNames:
    def test_names_are_well_formed(self):
        for name in list(END_TO_END_UNITS) + list(PER_LAYER_UNITS):
            assert NAME.fullmatch(name) and len(name) <= 64, name
        assert not set(END_TO_END_UNITS) & set(PER_LAYER_UNITS)

    def test_missing_metric_fails_the_run(self):
        outcome = Outcome("train", trace=False)
        outcome.metrics = {name: 1.0 for name in END_TO_END_UNITS
                           if name != "p90_ms"}
        result = outcome.result()
        assert result["correct"] is False
        assert set(result["metrics"]) == set(END_TO_END_UNITS)

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        assert {w["name"] for w in spec["workloads"]} \
            <= set(WORKLOADS)
        assert "setup_s" in END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
            == END_TO_END_UNITS
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
            == PER_LAYER_UNITS
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert NAME.fullmatch(metric["name"])
