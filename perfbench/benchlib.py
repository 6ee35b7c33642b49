"""Helpers the workloads share: percentiles, span recording, input schedules.

Nothing here imports the ``repro`` package, so the helpers can be tested on
their own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import functools
import re
import threading
import time

import numpy as np

#: Input channels, kernel size and groups of a conv step's signature.
_CONV_SIGNATURE = re.compile(r"n\d+c(\d+)->\d+@\d+x\d+/k(\d+)s\d+p\d+g(\d+)")

#: Percentiles a timing may be summarised at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def tail_percentile(count, min_beyond=10):
    """The highest ladder percentile with at least ``min_beyond`` samples above it.

    ``None`` when even the median has fewer than ``min_beyond`` samples
    beyond it (fewer than ``2 * min_beyond`` samples in all).
    """
    best = None
    for q in PERCENTILE_LADDER:
        # Share beyond q in tenths of a percent, so the test is exact.
        if count * round((100.0 - q) * 10) >= min_beyond * 1000:
            best = q
    return best


def percentile(values, q):
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def poisson_schedule(seed, rate, duration):
    """Due times (seconds from phase start) of an open-loop Poisson arrival process.

    Generated up front from ``seed`` alone, so one seed always gives the
    same schedule and the generator only has to keep to it.
    """
    rng = np.random.default_rng(seed)
    count = int(round(rate * duration))
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


class Span:
    """One recorded interval: name, start/end (``perf_counter_ns``), parent, thread."""

    __slots__ = ("sid", "name", "start", "end", "parent", "tid")

    def __init__(self, sid, name, start, end, parent, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tid = tid

    @property
    def dur(self):
        return self.end - self.start


class SpanRecorder:
    """Records spans around instance methods, nesting them per thread.

    :meth:`wrap` replaces a bound method on one instance with a recording
    wrapper; a span's parent is the innermost span still open on the same
    thread, so spans on different threads never nest.  Intervals whose ends
    live on different threads (a served request) are matched to spans by
    time with :func:`containing`.
    """

    def __init__(self):
        self.spans = []
        # Re-entrant: a span may be recorded from a garbage-collector
        # callback that interrupts the recorder itself.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._next_id = 0
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def current(self):
        """Id of the innermost open span on this thread (``None`` if none)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self):
        """Open a span on this thread; returns the token :meth:`end` takes."""
        sid = self._new_id()
        parent = self.current()
        self._stack().append(sid)
        return sid, parent, time.perf_counter_ns()

    def end(self, name, token):
        """Close the span opened by :meth:`begin` and record it under ``name``."""
        end = time.perf_counter_ns()
        sid, parent, start = token
        self._stack().pop()
        span = Span(sid, name, start, end, parent, threading.get_ident())
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, obj, attr, name):
        """Record a span named ``name`` around every call of ``obj.attr``."""
        original = getattr(obj, attr)

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            token = self.begin()
            try:
                return original(*args, **kwargs)
            finally:
                self.end(name, token)

        self._restore.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, recorded)
        return original

    def unwrap_all(self):
        """Undo every :meth:`wrap`: restore instance attributes, drop the rest."""
        for obj, attr, own in reversed(self._restore):
            if own is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)
        self._restore.clear()


def self_times(spans):
    """``{span id: self ns}``: a span's duration minus its child spans' durations.

    Children are the spans naming it as parent, on any thread.
    """
    child_ns = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + span.dur
    return {span.sid: span.dur - child_ns.get(span.sid, 0) for span in spans}


def layer_table(spans):
    """Per span name: call count, total (inclusive) ns and self ns."""
    own = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span.name, {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += span.dur
        row["self_ns"] += own[span.sid]
    return table


def containing(starts, ends, stamps):
    """Index of the interval holding each stamp; -1 where none does.

    ``starts``/``ends`` bound sorted, disjoint intervals, such as one
    thread's spans (the serving worker's batches); the stamps may be taken
    on any thread (the instant a request's answer arrived).
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    stamps = np.asarray(stamps, dtype=np.float64)
    if not len(starts):
        return np.full(stamps.shape, -1, dtype=np.int64)
    index = np.searchsorted(starts, stamps, side="right") - 1
    held = (index >= 0) & (stamps <= ends[np.maximum(index, 0)])
    return np.where(held, index, -1)


def union(starts, ends):
    """The union of intervals as sorted, disjoint ``(starts, ends)`` arrays."""
    order = np.argsort(np.asarray(starts, dtype=np.float64), kind="stable")
    starts = np.asarray(starts, dtype=np.float64)[order]
    ends = np.asarray(ends, dtype=np.float64)[order]
    if not len(starts):
        return starts, ends
    reach = np.maximum.accumulate(ends)
    # A new run starts where an interval begins after everything before it ended.
    first = np.concatenate(([True], starts[1:] > reach[:-1]))
    last = np.concatenate((first[1:], [True]))
    return starts[first], reach[last]


def covered_ns(starts, ends, lo, hi):
    """Per row, the length of ``[lo, hi]`` inside the sorted, disjoint intervals."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if not len(starts):
        return np.zeros(np.shape(lo))
    lengths = ends - starts
    before = np.concatenate(([0.0], np.cumsum(lengths)))

    def upto(t):
        count = np.searchsorted(starts, t, side="right")
        last = np.maximum(count - 1, 0)
        partial = np.clip(t - starts[last], 0.0, lengths[last])
        return np.where(count > 0, before[last] + partial, 0.0)

    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return np.maximum(upto(hi) - upto(lo), 0.0)


def kernel_family(label):
    """Family of a traced plan step: ``depthwise``, ``pointwise``, ``dense`` or ``other``.

    Conv steps are labelled ``conv:<kernel>:<op>:n<N>c<C>->..@..x../k<K>s..p..g<G>/..``;
    a conv whose groups equal its input channels is depthwise, a 1x1 conv
    with one group is pointwise, every other conv is dense.
    """
    match = _CONV_SIGNATURE.search(label) if label.startswith("conv:") else None
    if match is None:
        return "other"
    channels, kernel, groups = (int(v) for v in match.groups())
    if groups > 1 and groups == channels:
        return "depthwise"
    if kernel == 1 and groups == 1:
        return "pointwise"
    return "dense"
