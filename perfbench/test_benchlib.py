"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

import os
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from benchlib import (  # noqa: E402
    Span,
    SpanRecorder,
    containing,
    covered_ns,
    kernel_family,
    layer_table,
    poisson_schedule,
    self_times,
    tail_percentile,
    union,
)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(200, min_beyond=20) == 90.0


def test_self_time_subtracts_nested_children():
    root = Span(1, "root", 0, 100, None, 0)
    child = Span(2, "child", 10, 40, root.sid, 0)
    grandchild = Span(3, "grandchild", 20, 30, child.sid, 0)
    sibling = Span(4, "child", 50, 60, root.sid, 0)
    spans = [root, child, grandchild, sibling]
    own = self_times(spans)
    assert own[root.sid] == 100 - 30 - 10
    assert own[child.sid] == 30 - 10
    assert own[grandchild.sid] == 10
    assert own[sibling.sid] == 10
    table = layer_table(spans)
    assert table["child"] == {"count": 2, "total_ns": 40, "self_ns": 30}


class _Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def call(self):
        if self.inner is not None:
            self.inner.call()
        return "done"


def test_wrapped_calls_nest_per_thread_and_unwrap():
    rec = SpanRecorder()
    inner = _Layer()
    outer = _Layer(inner)
    rec.wrap(inner, "call", "inner")
    rec.wrap(outer, "call", "outer")
    assert outer.call() == "done"
    spans = {span.name: span for span in rec.spans}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["outer"].parent is None
    own = self_times(rec.spans)
    assert own[spans["outer"].sid] == spans["outer"].dur - spans["inner"].dur
    rec.unwrap_all()
    assert "call" not in vars(outer) and "call" not in vars(inner)


def test_wrap_restores_an_instance_attribute():
    rec = SpanRecorder()
    holder = _Layer()
    hook = _Layer()
    holder.hook = hook.call
    rec.wrap(holder, "hook", "hook")
    assert holder.hook is not hook.call
    holder.hook()
    rec.unwrap_all()
    assert holder.hook == hook.call


class _Worker:
    """Answers requests inside its batch call, as the policy server does."""

    def __init__(self):
        self.done = {}

    def run_batch(self, requests):
        time.sleep(0.001)
        for request in requests:
            self.done[request] = time.perf_counter_ns()


def test_cross_thread_requests_match_their_worker_batch_by_time():
    """A request answered on the worker belongs to the worker span it was answered in."""
    rec = SpanRecorder()
    worker = _Worker()
    rec.wrap(worker, "run_batch", "batch")
    token = rec.begin()
    thread = threading.Thread(target=lambda: [worker.run_batch(b) for b in ((0, 1), (2,))])
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    worker.done[3] = time.perf_counter_ns()  # answered outside any batch
    caller = rec.end("request", token)
    batches = sorted((s for s in rec.spans if s.name == "batch"), key=lambda s: s.start)
    # Worker spans are roots of their own thread, never children of the caller.
    assert all(s.parent is None and s.tid != caller.tid for s in batches)
    stamps = [worker.done[r] for r in range(4)]
    starts = [s.start for s in batches]
    ends = [s.end for s in batches]
    assert containing(starts, ends, stamps).tolist() == [0, 0, 1, -1]
    assert containing([], [], stamps).tolist() == [-1, -1, -1, -1]


def test_covered_ns_counts_only_explained_time():
    """Waiting covered by worker spans counts; a gap between them does not."""
    starts, ends = [10, 30, 30, 60], [20, 30, 50, 70]
    lo = np.array([0, 15, 25, 0, 55])
    hi = np.array([100, 35, 28, 5, 58])
    assert covered_ns(starts, ends, lo, hi).tolist() == [40, 10, 0, 0, 0]
    assert covered_ns([], [], lo, hi).tolist() == [0, 0, 0, 0, 0]


def test_union_merges_overlapping_intervals():
    starts, ends = union([5, 0, 1, 10, 12, 12], [6, 3, 2, 11, 20, 14])
    assert starts.tolist() == [0, 5, 10, 12]
    assert ends.tolist() == [3, 6, 11, 20]
    assert covered_ns(starts, ends, [0], [100]).tolist() == [13]


def test_same_seed_same_poisson_schedule():
    first = poisson_schedule([3, 200], 200, 5.0)
    again = poisson_schedule([3, 200], 200, 5.0)
    other = poisson_schedule([4, 200], 200, 5.0)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert len(first) == 1000
    assert np.all(np.diff(first) > 0)
    assert abs(first[-1] - 5.0) < 1.0


def test_same_seed_same_env_inputs():
    from workloads import make_env, serve_observations

    assert np.array_equal(serve_observations(5), serve_observations(5))
    assert not np.array_equal(serve_observations(5), serve_observations(6))
    first, again = make_env(7), make_env(7)
    try:
        assert np.array_equal(first.reset(seed=7), again.reset(seed=7))
        actions = np.arange(first.num_envs) % 6
        assert np.array_equal(first.step(actions)[0], again.step(actions)[0])
    finally:
        first.close()
        again.close()


def test_open_loop_phase_that_fell_behind_runs_again():
    from workloads import GEN_ATTEMPTS, MAX_GEN_LATE_MS, Serve

    def fake_open_loop(lateness_ms):
        runs = iter(lateness_ms)

        def open_loop(phase, rate, seconds):
            late = next(runs)
            for k in range(200):
                i = phase.request(k * 1_000_000)
                phase.sent[i] = phase.due[i] + int(late * 1e6)
        return open_loop

    serve = Serve.__new__(Serve)
    serve._open_loop = fake_open_loop([MAX_GEN_LATE_MS + 5, 1.0])
    discarded = []
    kept = serve._open_loop_on_schedule(100, 1.0, discarded)
    assert abs(kept.late_p99_ms() - 1.0) < 1e-9
    assert [phase.late_p99_ms() for phase in discarded] == [MAX_GEN_LATE_MS + 5]

    # Behind on every run: the last one is kept, so the run refuses to report.
    serve._open_loop = fake_open_loop([MAX_GEN_LATE_MS + 5] * GEN_ATTEMPTS)
    discarded = []
    kept = serve._open_loop_on_schedule(100, 1.0, discarded)
    assert kept.late_p99_ms() > MAX_GEN_LATE_MS
    assert len(discarded) == GEN_ATTEMPTS - 1


def test_kernel_family_from_step_labels():
    assert kernel_family(
        "conv:depthwise_einsum:depthwise:n16c96->96@8x8/k5s1p2g96/float32/infer/nhwc"
    ) == "depthwise"
    assert kernel_family(
        "conv:pointwise_nhwc:pointwise:n16c16->48@16x16/k1s1p0g1/float32/infer/nhwc"
    ) == "pointwise"
    assert kernel_family(
        "conv:im2col_block:dense:n16c2->16@32x32/k3s2p1g1/float32/infer/nhwc"
    ) == "dense"
    assert kernel_family("BatchNormStep") == "other"
