"""The experiment broker: the one way a batch of run specs executes.

The RunSpec/``execute_run``/:class:`~repro.experiments.persistence.RunCache`
pipeline is content-addressed and deterministic.  :class:`ExperimentBroker`
drives it, for the HTTP service and for every one-shot CLI or sweep batch
alike (:func:`~repro.experiments.orchestration.execute_many` runs a one-shot
broker when the caller has none):

* **Cache-first admission** — ``submit_many`` answers from the cache (one
  bulk lookup per batch) before touching the queue, so repeated traffic
  costs one backend read.
* **In-flight deduplication** — two submissions of an identical spec (same
  ``run_key``) share one simulation; the second submitter gets the same
  :class:`RunHandle` and therefore the same record.  This is what converts
  the heavy-overlap workload shape of the paper's sweeps (every figure and
  scenario re-asks for the same cells) into near-free lookups.
* **Priority admission** — interactive submissions (a human waiting on an
  HTTP response) overtake batch backfill in the queue.
* **Bounded queue depth** — past the bound, ``submit`` raises
  :class:`BrokerQueueFull` instead of buffering unboundedly; the serve layer
  maps that to HTTP 429.
* **Scenario groups** — ``submit_many`` queues each run of consecutive fresh
  specs with an equal scenario (the sweep's schemes x trials shape) as one
  item, and a dispatcher runs it as
  :func:`~repro.experiments.orchestration._run_group`: one build, every spec
  simulated on a private clone.
* **Process pool** — with ``workers > 1`` each dispatcher thread hands its
  group to one persistent, lazily forked ``ProcessPoolExecutor`` and waits
  for the outcomes, so ``workers`` groups simulate on as many cores.  With
  ``workers == 1`` the group runs in the dispatcher thread.  Records come
  back to this process, which is the only cache writer: each finished group
  is persisted with one ``put_many`` before its handles leave the in-flight
  table.  A worker that dies fails the groups it took down and the broken
  pool is dropped, so the next dispatch forks a fresh one.

Determinism makes all of this sound: ``execute_run`` is a pure function of
its spec, so a deduplicated, cached or pool-computed record is byte-identical
to what a private re-simulation would have produced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import multiprocessing
import queue
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.orchestration import (
    Outcome,
    RunRecord,
    RunSpec,
    _run_group,
    execute_run,
)
from repro.experiments.persistence import RunCache, run_key
from repro.experiments.registry import SCHEME_REGISTRY

__all__ = [
    "Priority",
    "BrokerQueueFull",
    "BrokerStats",
    "RunHandle",
    "ExperimentBroker",
]


class Priority(enum.IntEnum):
    """Admission classes: lower values are dequeued first."""

    #: A caller is blocked waiting on the answer (HTTP request, CLI query).
    INTERACTIVE = 0
    #: Backfill work (sweep cells, prefetching); yields to interactive.
    BATCH = 1


class BrokerQueueFull(RuntimeError):
    """Raised by ``submit`` when the pending queue is at its depth bound."""


@dataclasses.dataclass(frozen=True)
class BrokerStats:
    """Point-in-time view of a broker's admission and execution counters.

    Attributes
    ----------
    submitted:
        Total ``submit`` calls accepted (including cache hits and dedups).
    cache_hits:
        Submissions answered directly from the cache.
    dedup_hits:
        Submissions that attached to an already in-flight identical spec.
    executed:
        Simulations actually performed by the workers.
    failed:
        Specs whose simulation raised, or whose pool worker died (their
        handles carry the exception).
    rejected:
        Submissions refused with :class:`BrokerQueueFull`.
    pending:
        Specs queued but not yet picked up by a worker (a worker picks up a
        whole scenario group at once).
    in_flight:
        Distinct specs admitted but not yet resolved (queued or running).
    """

    submitted: int
    cache_hits: int
    dedup_hits: int
    executed: int
    failed: int
    rejected: int
    pending: int
    in_flight: int

    def as_dict(self) -> Dict[str, int]:
        """JSON-compatible form (used by ``repro serve`` ``/stats``)."""
        return dataclasses.asdict(self)


class RunHandle:
    """Future-style handle on one admitted spec.

    Multiple submissions of the same spec share one handle (in-flight
    dedup), so ``result()`` may be awaited by several callers at once.
    """

    def __init__(self, spec: RunSpec, key: str, *, cached: bool = False) -> None:
        self.spec = spec
        self.key = key
        #: Whether the handle was resolved straight from the cache.
        self.cached = cached
        #: Whether this submit attached to an already in-flight identical spec.
        self.deduplicated = False
        self._event = threading.Event()
        self._record: Optional[RunRecord] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether a record (or an error) is available without blocking."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> RunRecord:
        """Block until the record is available and return it (re-raising errors)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"run {self.key[:12]} not finished within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._record is not None
        return self._record

    def _resolve(self, record: RunRecord) -> None:
        """Publish the record and wake every waiter."""
        self._record = record
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        """Publish a failure and wake every waiter."""
        self._error = error
        self._event.set()


class ExperimentBroker:
    """Long-running execution service over a cache and a worker pool.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.experiments.persistence.RunCache` consulted
        on admission and written through on completion (best-effort: a
        failing write still resolves the handles).  Any backend works; the
        sqlite backend is the natural choice when several broker processes
        share one store.
    workers:
        How many scenario groups run at once.  ``1`` runs every group in
        the one dispatcher thread, in this process.  Above 1, each of the
        ``workers`` dispatcher threads sends its group to a pool of as many
        forked worker processes (created on first use, kept across batches,
        and re-forked when the scheme registry changes or a worker dies).
        Records are byte-identical either way.
    queue_limit:
        Maximum pending (queued, not yet running) specs before ``submit``
        raises :class:`BrokerQueueFull`; ``None`` means unbounded.
    run_fn:
        Execution function ``RunSpec -> RunRecord``, called once per spec in
        the dispatcher thread; injectable for tests (e.g. a gated stub
        proving dedup performs exactly one simulation).  Only the default
        shares builds and uses the pool: a custom function may not pickle.
    """

    def __init__(
        self,
        cache: Optional[RunCache] = None,
        workers: int = 1,
        queue_limit: Optional[int] = None,
        run_fn: Callable[[RunSpec], RunRecord] = execute_run,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1 or None, got {queue_limit}")
        self.cache = cache
        self.workers = workers
        self.queue_limit = queue_limit
        self._run_fn = run_fn
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._lock = threading.Lock()
        self._inflight: Dict[str, RunHandle] = {}
        self._sequence = 0
        self._pending = 0
        self._submitted = 0
        self._cache_hits = 0
        self._dedup_hits = 0
        self._executed = 0
        self._failed = 0
        self._rejected = 0
        self._closed = False
        self._pool_lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_registry: Dict[str, object] = {}
        #: Dispatcher threads, started when the first group is queued.
        self._dispatchers: List[threading.Thread] = []
        #: Set by :meth:`_run_in_caller`: the calling thread dispatches.
        self._caller_dispatches = False

    # ------------------------------------------------------------- admission
    def submit(
        self, spec: RunSpec, priority: Priority = Priority.BATCH
    ) -> RunHandle:
        """Admit one spec cache-first and return a handle on its record.

        Resolution order: cache hit (immediately-done handle, record flagged
        ``cached``) > in-flight dedup (the existing handle, flagged
        ``deduplicated``) > fresh enqueue.  Raises :class:`BrokerQueueFull`
        when the pending queue is at its bound.
        """
        return self.submit_many([spec], priority)[0]

    def submit_many(
        self, specs: Sequence[RunSpec], priority: Priority = Priority.BATCH
    ) -> List[RunHandle]:
        """Admit a batch of specs in order and return their handles.

        Each spec is admitted as by :meth:`submit`, after one bulk cache
        lookup of the batch's distinct specs; consecutive fresh specs with
        an equal scenario are queued as one group, so their initial state is
        built once.  If admission stops part-way (:class:`BrokerQueueFull`),
        the specs admitted before it are still queued before the error
        propagates.
        """
        keys = [run_key(spec) for spec in specs]
        hits: Dict[str, Optional[RunRecord]] = {}
        if self.cache is not None:
            distinct = dict(zip(keys, specs))
            hits = dict(zip(distinct, self.cache.get_many(list(distinct.values()))))
        handles: List[RunHandle] = []
        group: List[RunHandle] = []
        with self._lock:
            try:
                for spec, key in zip(specs, keys):
                    handle = self._admit(spec, key, hits.get(key))
                    handles.append(handle)
                    if handle.cached or handle.deduplicated:
                        continue
                    if group and group[0].spec.scenario != spec.scenario:
                        self._enqueue(group, priority)
                        group = []
                    group.append(handle)
            finally:
                if group:
                    self._enqueue(group, priority)
        return handles

    def _admit(
        self, spec: RunSpec, key: str, hit: Optional[RunRecord]
    ) -> RunHandle:
        """Resolve one spec against a cache hit, the in-flight table, or a new handle.

        Called with the lock held.  A new handle is registered in flight and
        counted pending; the caller queues it.
        """
        if hit is not None:
            self._submitted += 1
            self._cache_hits += 1
            handle = RunHandle(spec, key, cached=True)
            handle._resolve(dataclasses.replace(hit, cached=True))
            return handle
        if self._closed:
            raise RuntimeError("broker is shut down")
        existing = self._inflight.get(key)
        if existing is not None:
            self._submitted += 1
            self._dedup_hits += 1
            existing.deduplicated = True
            return existing
        if self.queue_limit is not None and self._pending >= self.queue_limit:
            self._rejected += 1
            raise BrokerQueueFull(
                f"broker queue is full ({self._pending} pending, "
                f"limit {self.queue_limit})"
            )
        self._submitted += 1
        self._pending += 1
        handle = RunHandle(spec, key)
        self._inflight[key] = handle
        return handle

    def _enqueue(self, group: List[RunHandle], priority: Priority) -> None:
        """Queue one scenario group, starting the dispatchers on first use.

        Called with the lock held, so :meth:`shutdown` sees every dispatcher
        that will ever drain a queued group.
        """
        self._sequence += 1
        self._queue.put((int(priority), self._sequence, group))
        if not self._dispatchers and not self._caller_dispatches:
            self._dispatchers = [
                threading.Thread(
                    target=self._dispatch_loop, daemon=True, name=f"broker-{i}"
                )
                for i in range(self.workers)
            ]
            for dispatcher in self._dispatchers:
                dispatcher.start()

    def run(
        self, specs: Sequence[RunSpec], priority: Priority = Priority.BATCH
    ) -> List[RunRecord]:
        """Admit a batch and block for the records, in spec order."""
        return [handle.result() for handle in self.submit_many(specs, priority)]

    def _run_in_caller(self, specs: Sequence[RunSpec]) -> List[RunRecord]:
        """Run one batch on a fresh broker with the calling thread as dispatcher.

        The one-shot path of
        :func:`~repro.experiments.orchestration.execute_many`: admission,
        dedup, scenario groups and caching as usual, then the caller drains
        the queue itself and the broker is shut.  Simulating in the calling
        thread keeps the batch's allocations in that thread's malloc arena;
        a dispatcher thread would add a second arena (about 7 MB more peak
        RSS on the paper sweep).
        """
        self._caller_dispatches = True
        handles = self.submit_many(specs)
        self.shutdown(wait=False)
        self._queue.put((max(Priority) + 1, float("inf"), None))
        self._dispatch_loop()
        return [handle.result() for handle in handles]

    # ------------------------------------------------------------- lifecycle
    def stats(self) -> BrokerStats:
        """A consistent snapshot of the broker's counters."""
        with self._lock:
            return BrokerStats(
                submitted=self._submitted,
                cache_hits=self._cache_hits,
                dedup_hits=self._dedup_hits,
                executed=self._executed,
                failed=self._failed,
                rejected=self._rejected,
                pending=self._pending,
                in_flight=len(self._inflight),
            )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; with ``wait``, drain, join and reap the pool.

        Queued specs are still drained — their submitters hold handles and
        deserve answers — but new ``submit`` calls are refused.  Without
        ``wait`` the dispatchers finish the queue in the background and the
        pool's processes are reaped at interpreter exit.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dispatchers = list(self._dispatchers)
        for _ in dispatchers:
            self._queue.put((max(Priority) + 1, float("inf"), None))
        if wait:
            for dispatcher in dispatchers:
                dispatcher.join()
            with self._pool_lock:
                pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True)

    def __enter__(self) -> "ExperimentBroker":
        """Context-manager entry: the broker itself."""
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        """Context-manager exit: shut down, waiting unless an exception is unwinding."""
        self.shutdown(wait=exc_type is None)

    # ----------------------------------------------------------- dispatching
    def _dispatch_loop(self) -> None:
        """Drain the priority queue until the shutdown sentinel arrives."""
        while True:
            _, _, group = self._queue.get()
            if group is None:
                return
            with self._lock:
                self._pending -= len(group)
            self._run_group(group)

    def _run_group(self, group: List[RunHandle]) -> None:
        """Execute one queued group and publish every spec's outcome.

        Successful records are persisted with one ``put_many`` BEFORE their
        handles leave the in-flight table: a concurrent submit always sees a
        spec either in flight or in the cache, never in the gap between the
        two.  Persistence is best-effort: a failing store must not strand
        the waiters.
        """
        specs = [handle.spec for handle in group]
        interrupt: Optional[BaseException] = None
        try:
            outcomes = self._outcomes(specs)
        except BaseException as error:  # noqa: BLE001 - re-raised in every waiter
            # The group's waiters must hear of any failure, or they hang; an
            # interrupt is re-raised here too once they have.
            outcomes = [error] * len(specs)
            if not isinstance(error, Exception):
                interrupt = error
        records = [outcome for outcome in outcomes if isinstance(outcome, RunRecord)]
        if records and self.cache is not None:
            with contextlib.suppress(Exception):
                self.cache.put_many(records)
        with self._lock:
            self._executed += len(records)
            self._failed += len(outcomes) - len(records)
            for handle in group:
                self._inflight.pop(handle.key, None)
        for handle, outcome in zip(group, outcomes):
            if isinstance(outcome, RunRecord):
                handle._resolve(outcome)
            else:
                handle._fail(outcome)
        if interrupt is not None:
            raise interrupt

    def _outcomes(self, specs: List[RunSpec]) -> List[Outcome]:
        """One outcome per spec: in-process, or from a pool worker."""
        if self._run_fn is not execute_run:
            return [_call(self._run_fn, spec) for spec in specs]
        if self.workers == 1:
            return _run_group(specs)
        pool, future = self._submit(specs)
        try:
            return future.result()
        except BrokenProcessPool as error:
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=True)
            raise RuntimeError(
                f"a broker worker process died while running a group of "
                f"{len(specs)} spec(s) (scenario seed {specs[0].scenario.seed}); "
                "the next group runs on a freshly forked pool"
            ) from error

    def _submit(self, specs: List[RunSpec]) -> tuple:
        """Submit one group to the persistent pool; returns ``(pool, future)``.

        Workers are forked, so they inherit the scheme registry as it stood
        at fork time, including registrations made after import.  A scheme
        registered, replaced or removed since then must reach fresh workers,
        so a changed registry retires the pool (after its running groups
        finish) and forks a new one.  A pool that broke while idle (a worker
        killed from outside) is replaced the same way.  Submitting under the
        lock keeps another dispatcher from retiring the pool in between.
        """
        registry = dict(SCHEME_REGISTRY)
        with self._pool_lock:
            pool = self._pool
            if pool is not None and registry != self._pool_registry:
                pool.shutdown(wait=True)
                pool = None
            if pool is None:
                pool = self._fork_pool(registry)
            try:
                return pool, pool.submit(_run_group, specs)
            except BrokenProcessPool:
                pool.shutdown(wait=True)
                pool = self._fork_pool(registry)
                return pool, pool.submit(_run_group, specs)

    def _fork_pool(self, registry: Dict[str, object]) -> ProcessPoolExecutor:
        """A new worker pool for ``registry`` (called with the pool lock held)."""
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=multiprocessing.get_context("fork")
        )
        self._pool_registry = registry
        return self._pool


def _call(run_fn: Callable[[RunSpec], RunRecord], spec: RunSpec) -> Outcome:
    """``run_fn(spec)``, or the exception it raised."""
    try:
        return run_fn(spec)
    except Exception as error:  # noqa: BLE001 - re-raised in the spec's waiters
        return error
