"""Turn a workload's raw measurements into named metrics.

Every figure is kept in a report ``{name: (value, unit)}`` under the names
``perfbench/README.md`` lists; :func:`contract_metrics` then picks the ones
``BENCHMARK.json`` declares for the final result line.
"""

from __future__ import annotations

import json
import os

import numpy as np

from benchlib import SpanRecorder, percentile, tail_percentile

from repro.runtime.kernels import selection_table

import workloads

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")

#: The report entry behind each workload-independent end-to-end metric.
CONTRACT_SOURCES = {
    "rollout": {"throughput_per_s": "env_steps_per_s", "p50_ms": "iter_p50_ms"},
    "cosearch": {"throughput_per_s": "env_steps_per_s", "p50_ms": "iter_p50_ms"},
    # The 200 req/s p50 is printed but not carried: it amplifies the host's
    # speed changes into a spread above the bound (see perfbench/README.md).
    "serve": {"throughput_per_s": "serve_max_rps", "p50_ms": "serve_p50_ms.r100"},
}


#: Layer self-times must account for this share of traced wall time.
MIN_COVERAGE = 0.9

#: Exit codes of a run whose figures are invalid (no result line then).
EXIT_GENERATOR_LATE = 3
EXIT_LOW_COVERAGE = 4


def format_value(value):
    return "{:.6g}".format(value) if isinstance(value, float) else str(value)


def _iteration_figures(raw, report, notes):
    durations = np.asarray(raw["durations"], dtype=np.float64) / 1e6
    count = len(durations)
    report["iterations"] = (count, "count")
    report["env_steps_per_s"] = (count * raw["units_per_op"] / (durations.sum() / 1e3), "1/s")
    report["iter_p50_ms"] = (percentile(durations, 50.0), "ms")
    report["iter_p90_ms"] = (percentile(durations, 90.0), "ms")
    tail = tail_percentile(count)
    if tail is None or tail < 90.0:
        notes.append("only {} iterations: p90 has fewer than 10 samples beyond it".format(count))


def _late_rates(raw):
    """The open-loop rates whose generator fell behind its schedule."""
    return [rate for rate in workloads.SERVE_RATES
            if raw["gen_late_ms"]["r{}".format(rate)] > workloads.MAX_GEN_LATE_MS]


def _serve_figures(raw, report, notes):
    late_rates = _late_rates(raw)
    for rate in workloads.SERVE_RATES:
        phase = "r{}".format(rate)
        latency = raw["latency_ms"][phase]
        late = raw["gen_late_ms"][phase]
        report["gen.late_p99_ms.{}".format(phase)] = (late, "ms")
        report["gen.discarded.{}".format(phase)] = (raw["gen_discarded"][phase], "count")
        report["serve_requests.{}".format(phase)] = (len(latency), "count")
        if rate in late_rates:
            notes.append("the {} req/s generator ran {:.1f} ms late at p99: its latencies "
                         "are invalid and not reported".format(rate, late))
            continue
        for q in (50, 90, 99):
            report["serve_p{}_ms.{}".format(q, phase)] = (percentile(latency, q), "ms")
        if tail_percentile(len(latency)) < 99.0:
            notes.append("{} req/s: p99 has fewer than 10 samples beyond it".format(rate))
    report["serve_max_rps"] = (raw["max_rps"], "1/s")
    report["serve_closed_p50_ms"] = (percentile(raw["latency_ms"]["closed"], 50.0), "ms")
    if late_rates:
        return EXIT_GENERATOR_LATE, "the open-loop generator fell behind its schedule"
    return None


def _throughput(raw):
    if "max_rps" in raw:
        return raw["max_rps"]
    return len(raw["durations"]) * raw["units_per_op"] / (sum(raw["durations"]) / 1e9)


def untraced_run(workload, seconds):
    """The end-to-end figures of one untraced timed phase."""
    signatures = len(selection_table())
    raw = workload.measure(seconds)
    report, notes = {}, []
    refuse = None
    if "durations" in raw:
        _iteration_figures(raw, report, notes)
    else:
        refuse = _serve_figures(raw, report, notes)
    report["kernels.new_signatures"] = (len(selection_table()) - signatures, "count")
    return {"report": report, "attempted": raw["ops"], "failed": raw["failed"],
            "notes": notes, "refuse": refuse}


def traced_run(workload, seconds):
    """Per-layer figures: a traced half of ``seconds`` between two untraced quarters.

    The untraced throughput is the mean of the quarters before and after the
    traced half, so a host that drifts steadily through the run does not
    show up as tracing overhead.
    """
    signatures = len(selection_table())
    before = workload.measure(seconds / 4.0)
    traced = workload.measure(seconds / 2.0, SpanRecorder())
    after = workload.measure(seconds / 4.0)
    untraced = (_throughput(before) + _throughput(after)) / 2.0
    layers = {name: 0.0 for name, _ in declared("per_layer")}
    layers.update(traced["layers"])
    layers["kernels.new_signatures"] = len(selection_table()) - signatures
    layers["trace.overhead"] = 1.0 - _throughput(traced) / untraced
    units = dict(declared("per_layer"))
    report = {name: (value, units.get(name, "")) for name, value in layers.items()}
    report["throughput_per_s.untraced"] = (untraced, "1/s")
    report["throughput_per_s.traced"] = (_throughput(traced), "1/s")
    notes = []
    refuse = None
    if traced.get("trace_dropped"):
        notes.append("the package tracer dropped {} events; shares cover the rest".format(
            traced["trace_dropped"]))
    for phase, count in traced.get("gen_discarded", {}).items():
        if count:
            notes.append("{}: discarded {} run(s) whose generator fell behind".format(phase, count))
    if "gen_late_ms" in traced and _late_rates(traced):
        refuse = EXIT_GENERATOR_LATE, "the open-loop generator fell behind its schedule"
    elif layers["trace.coverage"] < MIN_COVERAGE:
        refuse = EXIT_LOW_COVERAGE, "layer spans cover only {:.1%} of traced time".format(
            layers["trace.coverage"])
    runs = (before, traced, after)
    return {"report": report, "attempted": sum(run["ops"] for run in runs),
            "failed": sum(run["failed"] for run in runs), "notes": notes, "refuse": refuse}


def declared(kind):
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def contract_metrics(report, workload, trace):
    """The result line's metrics: every declared metric of this run's kind."""
    sources = CONTRACT_SOURCES[workload]
    out = {}
    for name, unit in declared("per_layer" if trace else "end_to_end"):
        value, _ = report[sources.get(name, name)]
        out[name] = {"value": float(value), "unit": unit}
    return out
