"""Spans for the traced run, recorded from the benchmark's own files.

The traced run wraps the public functions and methods at each layer
boundary of the program (nothing under ``src/`` is edited): every wrapped
call records a span — name, start, end, parent span and request id —
kept in memory and written out when the run ends.  A layer's *self
time* is its span's duration minus the part of that interval its child
spans cover.

Spans of one request share its request id.  Within a thread the parent
is the innermost open span; a span opened on another thread (a shard
server's connection or core thread) names its request through the job
label, and its parent is that request's most recently opened span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("id", "parent", "rid", "name", "start", "end", "info")

    def __init__(self, span_id: int, parent: Optional[int],
                 rid: Optional[str], name: str, start: float):
        self.id = span_id
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = start
        self.end = start
        self.info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; records only while :attr:`recording`."""

    def __init__(self):
        self.recording = False
        self.spans: List[Span] = []
        #: Maintained counters seen through ``MaintainerPool.counter_for``
        #: (their ``repair_stats()`` feed the consistency metrics).
        self.counters: Dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: Dict[str, List[Span]] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        if rid is None and stack:
            rid = stack[-1].rid
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None and rid is not None and self._open.get(rid):
                parent = self._open[rid][-1]
            span = Span(next(self._ids), parent.id if parent else None,
                        rid, name, time.perf_counter())
            if rid is not None:
                self._open.setdefault(rid, []).append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if rid is not None:
                    opened = self._open[rid]
                    opened.remove(span)
                    if not opened:
                        del self._open[rid]
            self.spans.append(span)

    def dump(self, path: str) -> None:
        """Write every span as ``[id, parent, rid, name, start, end]``."""
        rows = [[s.id, s.parent, s.rid, s.name, s.start, s.end]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "rid", "name", "start",
                                  "end"], "spans": rows}, handle)


def _traced(tracer: Tracer, name: str, fn: Callable,
            rid_of: Optional[Callable] = None,
            info_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        rid = rid_of(args) if rid_of is not None else None
        with tracer.span(name, rid) as span:
            result = fn(*args, **kwargs)
            if info_of is not None:
                span.info = info_of(result)
            return result
    return wrapper


class _TracedExecutable:
    """What the traced ``link`` returns: times the executable's count."""

    __slots__ = ("_executable", "_tracer")

    def __init__(self, executable, tracer: Tracer):
        self._executable = executable
        self._tracer = tracer

    def count(self, database):
        if not self._tracer.recording:
            return self._executable.count(database)
        with self._tracer.span("counting.exec"):
            return self._executable.count(database)


class Patches:
    """Reversible attribute replacements."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind *original* to *replacement* in every loaded ``repro``
        module that holds it (``from x import f`` copies included)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            names = [attr for attr, value in list(vars(module).items())
                     if value is original]
            for attr in names:
                self.attr(module, attr, replacement)

    def attr(self, owner: object, name: str, replacement: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _job_label(position: int) -> Callable:
    def rid_of(args):
        return getattr(args[position], "label", None)
    return rid_of


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics need."""
    import importlib

    from repro.dynamic.maintainer import MaintainerPool, SharedMaintainer
    from repro.service.net.client import ShardClient
    from repro.service.net.frames import FrameDecoder
    from repro.service.shard import SessionShard

    patches = Patches()
    functions = (
        ("repro.counting.engine", "count_answers", "counting.count"),
        ("repro.query.canonical", "canonical_form", "query.canon"),
        ("repro.decomposition.sharp", "find_sharp_hypertree_decomposition",
         "decomposition.search"),
        ("repro.decomposition.hybrid", "find_hybrid_decomposition",
         "decomposition.search"),
        ("repro.decomposition.ghd", "find_ghd_join_tree",
         "decomposition.search"),
        ("repro.counting.compile", "lower_acyclic", "counting.lower"),
        ("repro.counting.compile", "lower_structural", "counting.lower"),
        # The interpreted strategies execute too: their runs count as
        # execution, like the compiled executable's count.
        ("repro.counting.acyclic", "count_acyclic", "counting.exec"),
        ("repro.counting.structural", "count_with_decomposition",
         "counting.exec"),
        ("repro.counting.hybrid", "count_with_hybrid_decomposition",
         "counting.exec"),
        ("repro.counting.sharp_relations", "count_via_hypertree",
         "counting.exec"),
        ("repro.counting.brute_force", "count_brute_force", "counting.exec"),
        ("repro.approx.montecarlo", "monte_carlo_count", "approx.sample"),
        ("repro.dynamic.updates", "apply_update", "db.apply_update"),
    )
    for module_name, attr, span_name in functions:
        original = getattr(importlib.import_module(module_name), attr)
        patches.everywhere(original, _traced(tracer, span_name, original))
    patches.everywhere(*_link_wrapper(tracer))
    patches.everywhere(*_encode_wrapper(tracer))

    patches.attr(MaintainerPool, "apply", _traced(
        tracer, "dynamic.repair", MaintainerPool.apply))
    patches.attr(SharedMaintainer, "count", property(_traced(
        tracer, "dynamic.repair", SharedMaintainer.count.fget)))
    lookup = _traced(tracer, "dynamic.lookup", MaintainerPool.counter_for)

    def counter_for(*args, **kwargs):
        entry = lookup(*args, **kwargs)
        if hasattr(entry.counter, "repair_stats"):
            tracer.counters[id(entry.counter)] = entry.counter
        return entry
    patches.attr(MaintainerPool, "counter_for", counter_for)
    patches.attr(SessionShard, "execute", _traced(
        tracer, "service.shard_exec", SessionShard.execute, _job_label(1)))
    patches.attr(ShardClient, "submit_job", _traced(
        tracer, "net.rtt", ShardClient.submit_job, _job_label(2)))
    patches.attr(FrameDecoder, "next_frame", _traced(
        tracer, "net.decode", FrameDecoder.next_frame,
        info_of=lambda frame: frame is not None))
    return patches


def _link_wrapper(tracer: Tracer):
    from repro.counting import compile as compile_module

    original = compile_module.link
    timed = _traced(tracer, "counting.link", original)

    @functools.wraps(original)
    def link(program):
        return _TracedExecutable(timed(program), tracer)
    return original, link


def _encode_wrapper(tracer: Tracer):
    from repro.service.net import frames

    original = frames.encode_frame
    return original, _traced(tracer, "net.encode", original, info_of=len)


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def _covered(start: float, end: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def analyse(spans: List[Span]) -> dict:
    """Per-name totals of self time and calls, plus request coverage.

    Returns ``{"self_s": {name: s}, "calls": {name: n},
    "inclusive_s": {name: s}, "outermost": {name: n},
    "unattributed_frac": f, "per_rid": {rid: {name: inclusive s}}}``.
    """
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    self_s: Dict[str, float] = {}
    inclusive_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    outermost: Dict[str, int] = {}
    per_rid: Dict[str, Dict[str, float]] = {}
    request_time = uncovered = 0.0
    for span in spans:
        kids = [(kid.start, kid.end) for kid in children.get(span.id, ())]
        covered = _covered(span.start, span.end, kids)
        self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - covered
        inclusive_s[span.name] = inclusive_s.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        parent = by_id.get(span.parent)
        if parent is None or parent.name != span.name:
            outermost[span.name] = outermost.get(span.name, 0) + 1
        if span.rid is not None:
            bucket = per_rid.setdefault(span.rid, {})
            bucket[span.name] = bucket.get(span.name, 0.0) + span.duration
        if span.name.startswith("request."):
            request_time += span.duration
            uncovered += span.duration - covered
    return {
        "self_s": self_s,
        "inclusive_s": inclusive_s,
        "calls": calls,
        "outermost": outermost,
        "per_rid": per_rid,
        "unattributed_frac": uncovered / request_time if request_time else 0.0,
    }
