"""Spans and counters recorded around the calls into each layer.

The program has no timing spine of its own yet, so the benchmark installs
thin wrappers around the public functions and methods it drives, records
one span per call (name, start, end, parent, thread, trace id) in memory,
and restores every original on uninstall.  Spans of one run spec share a
trace id, also across the broker's hand-off from an HTTP handler thread to a
worker thread.

The wrappers never touch arguments or results, so traced runs produce
byte-identical records.  ``orchestration.execute_run`` is deliberately never
replaced: the broker compares its run function against that name by
identity, and replacing it would silently change which branch runs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Column order of a recorded span tuple.
SPAN_FIELDS = ("span_id", "parent_id", "trace_id", "name", "start_ns", "end_ns", "thread")


class _Frame:
    """One open span on a thread's stack."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "start_ns", "scoped", "scheme")

    def __init__(self, span_id, parent_id, trace_id, name, start_ns, scoped, scheme):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.start_ns = start_ns
        self.scoped = scoped
        self.scheme = scheme


class Tracer:
    """In-memory span and counter store shared by every thread of a process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, int, int, int]] = []
        self._thread_counters: List[Dict[str, int]] = []
        self._counter_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # id(spec) -> [trace_id, parent_span_id, submit_ns, wait_open, spec]
        self._links: Dict[int, list] = {}
        self._links_lock = threading.Lock()

    # ------------------------------------------------------------ counters
    def count(self, name: str) -> None:
        """Add one to counter ``name`` (lock-free: counts are per thread)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._counter_lock:
                self._thread_counters.append(counts)
        counts[name] += 1

    @property
    def counters(self) -> Dict[str, int]:
        """Every counter, summed over threads."""
        total: Dict[str, int] = defaultdict(int)
        with self._counter_lock:
            for counts in self._thread_counters:
                for name, value in list(counts.items()):
                    total[name] += value
        return dict(total)

    # --------------------------------------------------------------- spans
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.pending = 0
        return stack

    def current_scheme(self) -> Optional[str]:
        """Scheme of the innermost open spec-scoped span on this thread."""
        for frame in reversed(self._stack()):
            if frame.scheme is not None:
                return frame.scheme
        return None

    def open(
        self,
        name: str,
        spec: object = None,
        scoped: bool = False,
        opener: bool = False,
    ) -> _Frame:
        """Start a span; ``scoped`` spans belong to one run spec.

        A scoped span inherits the trace id of an enclosing scoped span, else
        of the broker link registered for ``spec``, else it starts a new
        trace.  An ``opener`` (the initial-state build) leaves its new trace
        id pending so that the next unlinked ``simulate_from`` on the thread
        joins the same spec.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        parent_id = parent.span_id if parent is not None else 0
        now = time.perf_counter_ns()
        scheme = getattr(spec, "scheme", None) if spec is not None else None
        if not scoped:
            trace_id = parent.trace_id if parent is not None else 0
            return self._push(stack, name, parent_id, trace_id, now, False, None)
        enclosing = next((f for f in reversed(stack) if f.scoped), None)
        if enclosing is not None:
            return self._push(stack, name, parent_id, enclosing.trace_id, now, True, scheme)
        link = self._links.get(id(spec)) if spec is not None else None
        if link is not None and link[4] is spec:
            trace_id = link[0]
            if link[3]:
                link[3] = False
                self.spans.append(
                    (next(self._ids), link[1], trace_id, "experiments.broker.queue_wait",
                     link[2], now, threading.get_ident())
                )
            parent_id = parent_id or link[1]
        elif opener or not self._local.pending:
            trace_id = next(self._ids)
            self._local.pending = trace_id if opener else 0
        else:
            trace_id = self._local.pending
            self._local.pending = 0
        return self._push(stack, name, parent_id, trace_id, now, True, scheme)

    def _push(self, stack, name, parent_id, trace_id, now, scoped, scheme) -> _Frame:
        frame = _Frame(next(self._ids), parent_id, trace_id, name, now, scoped, scheme)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        """End ``frame`` (the innermost open span of this thread)."""
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        self.spans.append(
            (frame.span_id, frame.parent_id, frame.trace_id,
             frame.name, frame.start_ns, end, threading.get_ident())
        )

    def current_span(self) -> Tuple[int, int]:
        """(span id, trace id) of the innermost open span, or zeros."""
        stack = self._stack()
        return (stack[-1].span_id, stack[-1].trace_id) if stack else (0, 0)

    def link(self, spec: object, trace_id: int, parent_id: int) -> None:
        """Tie the worker-side spans of ``spec`` to a request's trace."""
        with self._links_lock:
            self._links[id(spec)] = [trace_id, parent_id, time.perf_counter_ns(), True, spec]

    def unlink(self, spec: object) -> None:
        """Drop the link of ``spec`` (its run never reaches a worker)."""
        with self._links_lock:
            link = self._links.get(id(spec))
            if link is not None and link[4] is spec:
                del self._links[id(spec)]

    # ------------------------------------------------------------- export
    def dump(self, path) -> None:
        """Write every span (one JSON list per line) and the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS, "counters": dict(self.counters)}))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def load_dump(path) -> Tuple[List[tuple], Dict[str, int]]:
    """Read a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)) for line in handle if line.strip()]
    return spans, header["counters"]


# ------------------------------------------------------------ installation
class Installation:
    """The wrappers installed by :func:`install`; ``uninstall`` restores them."""

    def __init__(self) -> None:
        self._restore: List[Callable[[], None]] = []

    def add(self, restore: Callable[[], None]) -> None:
        """Remember how to undo one replacement."""
        self._restore.append(restore)

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def _replace_function(installation: Installation, module_name: str, attr: str, make) -> None:
    """Replace a module-level function in every loaded module that binds it."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if not name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)
                installation.add(functools.partial(setattr, loaded, key, original))


def _replace_method(installation: Installation, cls: type, attr: str, make) -> None:
    """Replace a method on ``cls`` (restoring or deleting it on uninstall)."""
    own = attr in vars(cls)
    original_raw = vars(cls).get(attr)
    setattr(cls, attr, make(getattr(cls, attr)))
    if own:
        installation.add(functools.partial(setattr, cls, attr, original_raw))
    else:
        installation.add(functools.partial(delattr, cls, attr))


def _spanned(tracer: Tracer, name: str, spec_of: Optional[Callable] = None,
             scoped: bool = False, opener: bool = False):
    """Wrapper factory: one span per call; ``spec_of(args)`` finds the spec."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spec = spec_of(args) if spec_of is not None else None
            frame = tracer.open(name, spec=spec, scoped=scoped, opener=opener)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)

        return wrapper

    return make


def _arg(index: int) -> Callable:
    """``spec_of`` for a spec passed positionally at ``index``."""
    return lambda args: args[index] if len(args) > index else None


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary the benchmark measures.

    Layers the program may delete (the initial-state cache, the sharded
    engine) are wrapped only when they exist, so their rows read zero rather
    than failing.
    """
    from repro.experiments import broker, persistence
    from repro.network import channel, energy, failures, state
    from repro.serve import server
    from repro.sim import engine

    inst = Installation()
    fn = functools.partial(_replace_function, inst)
    fn("repro.sim.scenario", "build_scenario_state", _spanned(tracer, "sim.scenario.build"))
    fn("repro.network.deployment", "deploy_uniform", _spanned(tracer, "network.deployment.deploy"))
    fn("repro.network.deployment", "deploy_per_cell", _spanned(tracer, "network.deployment.deploy"))
    fn("repro.sim.metrics", "collect_metrics", _spanned(tracer, "sim.metrics.collect"))
    fn("repro.experiments.orchestration", "build_initial_state",
       _spanned(tracer, "experiments.orchestration.build_initial_state", _arg(0), True, True))
    fn("repro.experiments.orchestration", "simulate_from",
       _spanned(tracer, "experiments.orchestration.simulate_from", _arg(1), True))
    fn("repro.serve.server", "execute_run_streaming",
       _spanned(tracer, "serve.server.execute_run_streaming", _arg(0), True))

    try:
        from repro.experiments.state_cache import StateCache
    except ImportError:  # the layer was deleted: its rows read zero
        StateCache = None
    if StateCache is not None:
        _replace_method(inst, StateCache, "state_for",
                        _spanned(tracer, "experiments.state_cache.state_for", None, True, True))

    meth = functools.partial(_replace_method, inst)
    meth(failures.ThinningToEnabledCount, "apply", _spanned(tracer, "network.failures.thinning"))
    meth(engine.RoundBasedEngine, "run", _spanned(tracer, "sim.engine.run"))
    meth(engine.RoundBasedEngine, "_inject_failures", _spanned(tracer, "network.failures.inject"))
    meth(energy.EnergyModel, "apply_round", _spanned(tracer, "network.energy.apply_round"))
    meth(channel.ChannelState, "deliver", _spanned(tracer, "network.channel.deliver"))
    # The broker's worker writes the record after the run returned, so the
    # write joins the spec's trace through the record's spec.
    meth(persistence.RunCache, "put", _spanned(
        tracer, "experiments.persistence.put",
        lambda args: args[1].spec if len(args) > 1 else None, True))

    def counted_disable(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count("network.state.disable_node_calls")
            return original(*args, **kwargs)

        return wrapper

    meth(state.WsnState, "disable_node", counted_disable)

    def controller_round(original):
        @functools.wraps(original)
        def wrapper(self, round_index):
            tracer.count("sim.engine.rounds")
            frame = tracer.open(f"controller.{tracer.current_scheme() or 'unknown'}.round")
            try:
                return original(self, round_index)
            finally:
                tracer.close(frame)

        return wrapper

    meth(engine.RoundBasedEngine, "_controller_round", controller_round)

    def cache_get(original):
        @functools.wraps(original)
        def wrapper(self, spec):
            frame = tracer.open("experiments.persistence.get")
            try:
                record = original(self, spec)
            finally:
                tracer.close(frame)
            tracer.count("experiments.persistence.hits" if record is not None
                         else "experiments.persistence.misses")
            return record

        return wrapper

    meth(persistence.RunCache, "get", cache_get)

    def broker_submit(original):
        @functools.wraps(original)
        def wrapper(self, spec, *args, **kwargs):
            # Linked before the call: once ``submit`` enqueues, a worker may
            # open the spec's first span before ``submit`` returns.
            span_id, trace_id = tracer.current_span()
            tracer.link(spec, trace_id, span_id)
            frame = tracer.open("experiments.broker.submit")
            handle = None
            try:
                handle = original(self, spec, *args, **kwargs)
            finally:
                tracer.close(frame)
                # A cached submit never runs; a deduplicated one returns the
                # in-flight handle of another spec object.  (``deduplicated``
                # itself is no test: a later submit may set it on our handle.)
                if handle is None or handle.cached or handle.spec is not spec:
                    tracer.unlink(spec)
            return handle

        return wrapper

    meth(broker.ExperimentBroker, "submit", broker_submit)

    def handle_run(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            frame = tracer.open("serve.server.handle_run", scoped=True)
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.close(frame)

        return wrapper

    meth(server._RequestHandler, "_handle_run", handle_run)

    def send_response(original):
        @functools.wraps(original)
        def wrapper(self, code, *args, **kwargs):
            tracer.count(f"serve.server.status_{int(code) // 100}xx")
            return original(self, code, *args, **kwargs)

        return wrapper

    meth(server._RequestHandler, "send_response", send_response)
    return inst


# ------------------------------------------------------------- aggregation
def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive and self time in ns.

    Self time is a span's duration minus the durations of its children on
    the same thread (which nest inside it without overlapping).
    """
    child_ns: Dict[int, int] = defaultdict(int)
    thread_of = {span[0]: span[6] for span in spans}
    for span_id, parent_id, _, _, start, end, thread in spans:
        if parent_id and thread_of.get(parent_id) == thread:
            child_ns[parent_id] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
    for span_id, _, _, name, start, end, _ in spans:
        row = table[name]
        row["count"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns.get(span_id, 0)
    return dict(table)


def coverage(spans: Sequence[tuple], root_names: Sequence[str],
             require: Optional[str] = None) -> List[Tuple[float, float]]:
    """(duration ms, covered share) of each root span.

    The covered share is the part of the root's interval covered by the
    other spans of its trace (any thread) or by its own descendants; what is
    left is time no layer accounts for.  ``require`` keeps only roots whose
    trace holds a span of that name (e.g. cold requests that simulated).
    """
    by_trace: Dict[int, List[tuple]] = defaultdict(list)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[2]:
            by_trace[span[2]].append(span)
        children[span[1]].append(span)
    results = []
    for root in spans:
        if root[3] not in root_names:
            continue
        start, end = root[4], root[5]
        if end <= start:
            continue
        related = [s for s in by_trace.get(root[2], []) if s[0] != root[0]] if root[2] else []
        if require is not None and not any(s[3] == require for s in related):
            continue
        related += children.get(root[0], [])
        clipped = [(max(s[4], start), min(s[5], end)) for s in related if s[5] > start and s[4] < end]
        covered = _union_ns(clipped)
        results.append(((end - start) / 1e6, covered / (end - start)))
    return results


def median(values: Sequence[float]) -> float:
    """Median, or 0 for an empty sample."""
    return statistics.median(values) if values else 0.0
