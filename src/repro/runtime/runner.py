"""The fault-tolerant parallel trial runner.

A :class:`Trial` is one picklable unit of work: a module-level
callable, its keyword arguments, and the seed material that makes it
deterministic.  :class:`TrialRunner` executes a batch of trials —
over a ``ProcessPoolExecutor`` when ``workers > 1``, in-process
otherwise — consulting an optional :class:`~repro.runtime.cache.ResultCache`
first and storing fresh results back.

Execution is *per-trial*: every trial rides its own ``submit()``
future, so one raising, hanging, or worker-killing trial never
discards its siblings' finished results.  A :class:`RetryPolicy`
bounds deterministic re-execution (the retry re-runs the *identical*
seeded trial — no clocks, no jitter), a per-trial ``timeout``
replaces the pool under hung workers, and a
:class:`~repro.runtime.journal.TrialJournal` checkpoints completions
so an interrupted campaign resumes where it died.  Every recovery is
recorded in the returned :class:`~repro.runtime.report.RunReport`.

Because every trial carries its own ``SeedSequence``-derived RNG,
execution order, process placement, retries, and pool replacement
cannot change results: the serial and parallel paths — and every
recovery path between them — are bitwise identical, and a broken
pool (missing ``fork`` support, unpicklable payloads, resource
limits) degrades to the serial path with the completed trials kept.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.runtime.cache import MISS, ResultCache
from repro.runtime.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    apply_fault,
    plan_from_env,
)
from repro.runtime.journal import TrialJournal
from repro.runtime.report import RunReport, TrialOutcome
from repro.runtime.seeding import spawn_trial_sequences

#: How often (seconds) the parallel loop wakes to check timeouts and
#: observe which futures have started running.
_TICK_SECONDS = 0.05

#: How long :func:`terminate_executor` may wait for a torn-down
#: executor's workers and manager thread.
_TEARDOWN_SECONDS = 10.0

#: Exception types that mean "this work could not cross the process
#: boundary" (unpicklable payload or result) rather than "the trial
#: failed"; such trials re-execute serially in the parent.
_TRANSPORT_ERRORS = (pickle.PicklingError, TypeError, AttributeError, ImportError)


@dataclass(frozen=True)
class Trial:
    """One deterministic unit of work.

    Attributes
    ----------
    func:
        A picklable (module-level) callable run as ``func(**kwargs)``.
    kwargs:
        Keyword arguments; must be picklable for parallel execution.
    seed:
        Seed material injected as ``kwargs[seed_param]`` (skipped when
        ``None`` — the callable is assumed self-seeding).
    cache_key:
        Stable identity for the result cache and the trial journal;
        ``None`` disables caching/checkpointing for this trial.
    label:
        Human-readable tag for logs and error messages.
    """

    func: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: Any = None
    seed_param: str = "seed"
    cache_key: Optional[str] = None
    label: str = ""

    def execute(self) -> Any:
        """Run the trial in the current process."""
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs[self.seed_param] = self.seed
        return self.func(**kwargs)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic re-execution of failed trials.

    A retry re-runs the *identical* seeded :class:`Trial` — same
    callable, same kwargs, same ``SeedSequence`` — so a trial that
    eventually succeeds yields a result bitwise-equal to one that
    succeeded first try.  No backoff exists because none is needed:
    the failures retried here (injected faults, killed workers,
    transient resource exhaustion) are not rate-limited services.

    Attributes
    ----------
    max_attempts:
        Total executions allowed per trial (1 = never retry).
    retry_timeouts:
        Whether a timed-out attempt may be retried; when ``False``
        the first timeout is final.
    """

    max_attempts: int = 1
    retry_timeouts: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @classmethod
    def from_retries(cls, retries: int) -> "RetryPolicy":
        """``retries`` extra attempts after the first (CLI spelling)."""
        if retries < 0:
            raise ValueError("retries must be >= 0")
        return cls(max_attempts=retries + 1)


class TrialTimeoutError(RuntimeError):
    """A trial's attempt exceeded the per-trial timeout."""


@dataclass(frozen=True)
class _TaskItem:
    """One attempt of one trial, as shipped to a worker."""

    position: int
    trial: Trial
    attempt: int
    fault: Optional[FaultSpec] = None


@dataclass(frozen=True)
class _Envelope:
    """One attempt's outcome, as shipped back from a worker."""

    position: int
    ok: bool
    value: Any = None
    error: Optional[BaseException] = None


def _run_attempt(item: _TaskItem, *, in_worker: bool) -> Any:
    """Execute one attempt, applying any injected fault."""
    substitute = apply_fault(
        item.fault,
        index=item.position,
        attempt=item.attempt,
        in_worker=in_worker,
    )
    if substitute is not None:
        return substitute
    # ``$REPRO_FAULT_PLAN`` targets the *outermost* runner's trials.
    # A trial body may construct its own nested ``TrialRunner`` (the
    # figure experiments do); scrub the plan while the body runs so
    # inner trials are not independently re-faulted by position.
    saved = os.environ.pop(FAULT_PLAN_ENV, None)
    try:
        return item.trial.execute()
    finally:
        if saved is not None:
            os.environ[FAULT_PLAN_ENV] = saved


def _execute_task(items: tuple[_TaskItem, ...]) -> tuple[_Envelope, ...]:
    """Worker trampoline: run each trial, envelope success or failure.

    Per-trial try/except keeps a raising trial from poisoning the
    siblings that share its dispatch (``chunk_size > 1``).
    """
    envelopes = []
    for item in items:
        try:
            value = _run_attempt(item, in_worker=True)
        except Exception as error:
            envelopes.append(
                _Envelope(position=item.position, ok=False, error=error)
            )
        else:
            envelopes.append(
                _Envelope(position=item.position, ok=True, value=value)
            )
    return tuple(envelopes)


def _execute_trial(trial: Trial) -> Any:
    """Module-level single-trial trampoline (kept for compatibility)."""
    return trial.execute()


def _still_running(process: Any) -> bool:
    try:
        return bool(process.is_alive())
    except (OSError, ValueError, AssertionError):  # noqa: RP007 — closed or reaped elsewhere
        return False


def terminate_executor(pool: ProcessPoolExecutor) -> bool:
    """Tear an executor down even when a worker is hung or dead.

    Terminate every worker, shut down without waiting, then wait for
    the executor's manager thread, which reaps the workers itself.  A
    worker still running after a second is killed; one that is dead
    but not yet reaped is polled again.  Everything shares one 10 s
    deadline, so a wedged teardown cannot hang the caller.

    The manager is joined before any worker is judged.  It reaps the
    workers, and while it does, ``is_alive()`` on a dead worker can
    still read True (its own ``waitpid`` lost the race), so a single
    early check misreports a dead worker as live.

    Returns ``True`` when every worker is reaped and the manager thread
    has exited.  Forking a replacement while the old pool's threads
    still run (holding allocator or queue locks) can deadlock the
    children, so a caller seeing ``False`` must not fork again.
    """
    # ``_processes`` and ``_executor_manager_thread`` are CPython
    # implementation details, but they are the only handles on a worker
    # stuck in an uninterruptible task.  ``shutdown`` clears both, so
    # they are read first.
    workers = getattr(pool, "_processes", None)
    processes = list(workers.values()) if isinstance(workers, dict) else []
    manager = getattr(pool, "_executor_manager_thread", None)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # noqa: RP007 — already-dead worker
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    deadline = time.monotonic() + _TEARDOWN_SECONDS
    if manager is not None:
        manager.join(timeout=1.0)
    for process in processes:
        if _still_running(process):  # SIGTERM masked or worker wedged
            try:
                process.kill()
            except (OSError, ValueError):  # noqa: RP007 — exited meanwhile
                pass
    if manager is not None:
        manager.join(timeout=max(0.0, deadline - time.monotonic()))
    while (
        any(_still_running(process) for process in processes)
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    if manager is not None and manager.is_alive():
        return False
    return not any(_still_running(process) for process in processes)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request (``None``/``0`` → all cores)."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be a positive integer (or 0 for all cores)")
    return workers


@dataclass
class _TrialState:
    """Mutable bookkeeping for one trial across attempts."""

    trial: Trial
    position: int
    attempts: int = 0
    timed_out_attempts: int = 0
    error: Optional[BaseException] = None
    status: str = ""
    value: Any = None
    done: bool = False

    @property
    def succeeded(self) -> bool:
        return self.done and self.status not in ("failed", "timed-out")


class TrialRunner:
    """Runs batches of independent trials, parallel or serial.

    Parameters
    ----------
    workers:
        Process count; ``1`` runs in-process, ``None``/``0`` uses all
        cores.
    cache:
        Optional :class:`ResultCache` consulted per trial (only for
        trials carrying a ``cache_key``).
    chunk_size:
        Trials grouped per dispatched task on first submission (bounds
        IPC overhead for very large batches of tiny trials).  Default
        ``None`` dispatches per-trial — the fault-isolation unit — and
        retries are always dispatched per-trial.  Timeouts apply per
        dispatched task.
    retry:
        A :class:`RetryPolicy`, a plain retry count (extra attempts),
        or ``None`` for the default single-attempt policy.
    timeout:
        Seconds a dispatched task may *run* (queue time excluded)
        before its worker pool is replaced and the attempt counts as
        timed out.  Only enforceable under parallel execution; the
        serial path records an event and runs untimed.
    journal:
        Optional :class:`TrialJournal`; completed trials are recorded
        by cache key, and trials the journal already marks complete
        are served from the cache as ``resumed`` instead of re-run.
    fault_plan:
        Deterministic fault injection for chaos testing; ``None``
        consults ``$REPRO_FAULT_PLAN`` (see
        :mod:`repro.runtime.faults`), which is unset in normal use.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        *,
        retry: Union[RetryPolicy, int, None] = None,
        timeout: Optional[float] = None,
        journal: Optional[TrialJournal] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (seconds)")
        self.workers = resolve_workers(workers)
        self.cache = cache
        self.chunk_size = chunk_size
        if retry is None:
            retry = RetryPolicy()
        elif isinstance(retry, int):
            retry = RetryPolicy.from_retries(retry)
        self.retry = retry
        self.timeout = timeout
        self.journal = journal
        self.fault_plan = fault_plan if fault_plan is not None else plan_from_env()

    # -- execution ---------------------------------------------------

    def run(self, trials: Sequence[Trial]) -> list[Any]:
        """Execute trials, preserving order; cache-aware.

        Raises the first failing trial's final exception when any
        trial exhausts its attempts (historical semantics); use
        :meth:`run_report` to keep the surviving siblings instead.
        """
        report = self.run_report(trials)
        for outcome in report.outcomes:
            if not outcome.succeeded:
                if outcome.error is not None:
                    raise outcome.error
                report.raise_on_failure()
        return list(report.results)

    def run_report(self, trials: Sequence[Trial]) -> RunReport:
        """Execute trials and return the full :class:`RunReport`.

        Never raises for trial failures: failed slots hold ``None``
        in ``report.results`` and their outcomes carry the final
        exception, so one bad trial cannot discard its siblings.
        """
        states = [
            _TrialState(trial=trial, position=index)
            for index, trial in enumerate(trials)
        ]
        events: list[str] = []
        pending: list[_TrialState] = []
        for state in states:
            key = state.trial.cache_key
            cached: Any = MISS
            if self.cache is not None and key is not None:
                cached = self.cache.get(key)
            if cached is not MISS:
                state.value = cached
                state.done = True
                journaled = self.journal is not None and self.journal.completed(
                    key if key is not None else ""
                )
                state.status = "resumed" if journaled else "cached"
            else:
                if (
                    self.journal is not None
                    and key is not None
                    and self.journal.completed(key)
                ):
                    events.append(
                        f"journal marks {state.trial.label or key} complete "
                        "but its cached result is gone; re-running"
                    )
                pending.append(state)

        if pending:
            self._execute_pending(pending, events)
            self._persist(pending, events)

        outcomes = tuple(
            TrialOutcome(
                index=state.position,
                label=state.trial.label,
                status=state.status,
                attempts=state.attempts,
                timed_out_attempts=state.timed_out_attempts,
                error=None if state.succeeded else state.error,
            )
            for state in states
        )
        results = tuple(
            state.value if state.succeeded else None for state in states
        )
        return RunReport(
            outcomes=outcomes, results=results, fallback_events=tuple(events)
        )

    def run_repeated(
        self,
        func: Callable[..., Any],
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        trials: int,
        base_seed: int,
        seed_param: str = "seed",
        cache_namespace: Optional[str] = None,
        key_for: Optional[Callable[[Any], Optional[str]]] = None,
        report: bool = False,
    ) -> Any:
        """``trials`` independent repetitions of one callable.

        Trial *i* receives the *i*-th child of
        ``SeedSequence(base_seed)`` as its ``seed_param`` argument.
        ``key_for`` (given each child sequence) or ``cache_namespace``
        (hashed with the kwargs) opt the repetitions into the cache
        and journal.  ``report=True`` returns the full
        :class:`RunReport` instead of the bare result list (and keeps
        surviving siblings when some trials fail).
        """
        from repro.runtime.cache import stable_key

        kwargs = dict(kwargs or {})
        sequences = spawn_trial_sequences(base_seed, trials)
        batch = []
        for index, sequence in enumerate(sequences):
            cache_key = None
            if key_for is not None:
                cache_key = key_for(sequence)
            elif cache_namespace is not None:
                cache_key = stable_key(cache_namespace, kwargs, sequence)
            batch.append(
                Trial(
                    func=func,
                    kwargs=kwargs,
                    seed=sequence,
                    seed_param=seed_param,
                    cache_key=cache_key,
                    label=f"{cache_namespace or func.__name__}[{index}]",
                )
            )
        if report:
            return self.run_report(batch)
        return self.run(batch)

    # -- persistence -------------------------------------------------

    def _persist(
        self, finished: Sequence[_TrialState], events: list[str]
    ) -> None:
        """Write fresh results to the cache and outcomes to the journal."""
        for state in finished:
            key = state.trial.cache_key
            if key is None:
                continue
            if state.succeeded:
                if self.cache is not None:
                    try:
                        self.cache.put(key, state.value)
                    except (OSError, pickle.PicklingError) as error:
                        message = (
                            f"result cache write failed for "
                            f"{state.trial.label or key}: {error}"
                        )
                        events.append(message)
                        warnings.warn(message, RuntimeWarning, stacklevel=4)
                if self.journal is not None and not self.journal.completed(key):
                    self._journal_record(state, key, "ok", events)
            elif self.journal is not None:
                self._journal_record(state, key, state.status, events)

    def _journal_record(
        self, state: _TrialState, key: str, status: str, events: list[str]
    ) -> None:
        assert self.journal is not None
        try:
            self.journal.record(key, status=status, attempts=state.attempts)
        except OSError as error:
            message = (
                f"journal write failed for {state.trial.label or key}: {error}"
            )
            events.append(message)
            warnings.warn(message, RuntimeWarning, stacklevel=5)

    # -- attempt bookkeeping -----------------------------------------

    def _settle_attempt(
        self,
        state: _TrialState,
        *,
        ok: bool,
        value: Any = None,
        error: Optional[BaseException] = None,
        timed_out: bool = False,
    ) -> bool:
        """Charge one attempt; returns True when the trial should retry."""
        state.attempts += 1
        if timed_out:
            state.timed_out_attempts += 1
        if ok:
            state.value = value
            state.error = None
            state.done = True
            state.status = "ok" if state.attempts == 1 else "retried"
            return False
        state.error = error
        exhausted = state.attempts >= self.retry.max_attempts
        blocked = timed_out and not self.retry.retry_timeouts
        if exhausted or blocked:
            state.done = True
            state.status = "timed-out" if timed_out else "failed"
            return False
        return True

    # -- execution backends ------------------------------------------

    def _execute_pending(
        self, pending: list[_TrialState], events: list[str]
    ) -> None:
        if self.workers <= 1 or len(pending) <= 1:
            if self.timeout is not None and pending:
                events.append(
                    "timeouts are not enforced under serial execution"
                )
            for state in pending:
                self._run_serially(state)
            return
        self._execute_parallel(pending, events)

    def _run_serially(self, state: _TrialState) -> None:
        """In-process execution of one trial, retry policy honored."""
        while not state.done:
            attempt = state.attempts + 1
            item = _TaskItem(
                position=state.position,
                trial=state.trial,
                attempt=attempt,
                fault=self._fault_for(state.position, attempt),
            )
            try:
                value = _run_attempt(item, in_worker=False)
            except Exception as error:
                self._settle_attempt(state, ok=False, error=error)
            else:
                self._settle_attempt(state, ok=True, value=value)

    def _fault_for(self, position: int, attempt: int) -> Optional[FaultSpec]:
        if self.fault_plan is None:
            return None
        return self.fault_plan.spec_for(position, attempt)

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        chunk: Sequence[_TrialState],
    ) -> "Future[tuple[_Envelope, ...]]":
        items = tuple(
            _TaskItem(
                position=state.position,
                trial=state.trial,
                attempt=state.attempts + 1,
                fault=self._fault_for(state.position, state.attempts + 1),
            )
            for state in chunk
        )
        return pool.submit(_execute_task, items)

    def _execute_parallel(
        self, pending: list[_TrialState], events: list[str]
    ) -> None:
        """Per-trial futures with retry, timeout, and pool replacement."""
        max_workers = min(self.workers, len(pending))
        queue: deque[_TrialState] = deque(pending)
        pool: Optional[ProcessPoolExecutor] = None
        futures: dict[
            "Future[tuple[_Envelope, ...]]", tuple[_TrialState, ...]
        ] = {}
        started: dict["Future[tuple[_Envelope, ...]]", float] = {}
        serial_states: list[_TrialState] = []
        warned_serial = False

        def fall_back_serially(
            states: Sequence[_TrialState], reason: str
        ) -> None:
            nonlocal warned_serial
            serial_states.extend(states)
            events.append(reason)
            if not warned_serial:
                warnings.warn(
                    f"{reason}; falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=5,
                )
                warned_serial = True

        while queue or futures:
            if pool is None:
                try:
                    pool = ProcessPoolExecutor(max_workers=max_workers)
                except (OSError, ValueError, BrokenProcessPool) as error:
                    fall_back_serially(
                        list(queue),
                        f"process pool unavailable "
                        f"({type(error).__name__}: {error})",
                    )
                    queue.clear()
                    break

            # Keep at most one dispatched chunk per worker in flight,
            # so "in flight" is knowable without sampling worker state:
            # if the pool breaks, exactly those trials are charged an
            # attempt, and trials still in our own queue resubmit free
            # of charge.  Fresh trials may group per ``chunk_size``;
            # retries dispatch one-by-one so a faulty trial never
            # re-drags its chunk siblings along.
            while queue and len(futures) < max_workers:
                chunk = [queue.popleft()]
                if chunk[0].attempts == 0:
                    limit = self.chunk_size or 1
                    while (
                        queue
                        and len(chunk) < limit
                        and queue[0].attempts == 0
                    ):
                        chunk.append(queue.popleft())
                future = self._submit(pool, chunk)
                futures[future] = tuple(chunk)
                started[future] = time.monotonic()

            done, _ = wait(
                set(futures), timeout=_TICK_SECONDS, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()

            pool_broken = False
            for future in done:
                chunk_states = futures.pop(future)
                started.pop(future, None)
                try:
                    envelopes = future.result()
                except BrokenProcessPool as error:
                    pool_broken = True
                    self._handle_break(chunk_states, error, queue)
                except _TRANSPORT_ERRORS as error:
                    # Payload or result could not cross the process
                    # boundary; run these trials in-process instead.
                    fall_back_serially(
                        chunk_states,
                        f"trial transport failed "
                        f"({type(error).__name__}: {error})",
                    )
                except Exception as error:  # unexpected infrastructure
                    fall_back_serially(
                        chunk_states,
                        f"unexpected executor failure "
                        f"({type(error).__name__}: {error})",
                    )
                else:
                    by_position = {
                        envelope.position: envelope for envelope in envelopes
                    }
                    for state in chunk_states:
                        envelope = by_position[state.position]
                        retry = self._settle_attempt(
                            state,
                            ok=envelope.ok,
                            value=envelope.value,
                            error=envelope.error,
                        )
                        if retry:
                            queue.append(state)

            if pool_broken:
                # Everything still in flight is doomed with the pool.
                for chunk_states in futures.values():
                    self._handle_break(
                        chunk_states,
                        BrokenProcessPool(
                            "worker pool broke while this trial was in flight"
                        ),
                        queue,
                    )
                futures.clear()
                started.clear()
                torn_down = terminate_executor(pool)
                pool = None
                events.append(
                    "worker pool broke; completed trials kept, pool "
                    "replaced, unfinished trials resubmitted"
                )
                if not torn_down and queue:
                    # Forking a replacement from a process whose dead
                    # pool still has live teardown threads can deadlock
                    # the children; finish in-process instead.
                    fall_back_serially(
                        list(queue),
                        "broken pool teardown did not complete",
                    )
                    queue.clear()
                continue

            if self.timeout is not None:
                expired = [
                    future
                    for future in futures
                    if future in started
                    and now - started[future] >= self.timeout
                ]
                if expired:
                    for future in expired:
                        chunk_states = futures.pop(future)
                        started.pop(future, None)
                        for state in chunk_states:
                            retry = self._settle_attempt(
                                state,
                                ok=False,
                                error=TrialTimeoutError(
                                    f"trial {state.trial.label or state.position} "
                                    f"exceeded {self.timeout}s "
                                    f"(attempt {state.attempts + 1})"
                                ),
                                timed_out=True,
                            )
                            if retry:
                                queue.append(state)
                    # The hung worker cannot be reclaimed politely;
                    # innocents still in flight requeue uncharged.
                    for chunk_states in futures.values():
                        queue.extend(chunk_states)
                    futures.clear()
                    started.clear()
                    torn_down = terminate_executor(pool)
                    pool = None
                    events.append(
                        f"per-trial timeout ({self.timeout:g}s) expired; "
                        "hung worker pool replaced"
                    )
                    if not torn_down and queue:
                        fall_back_serially(
                            list(queue),
                            "hung pool teardown did not complete",
                        )
                        queue.clear()
                    continue

        if pool is not None:
            pool.shutdown(wait=True)
        for state in serial_states:
            self._run_serially(state)

    def _handle_break(
        self,
        chunk_states: Sequence[_TrialState],
        error: BaseException,
        queue: "deque[_TrialState]",
    ) -> None:
        """Account for trials that were in flight when the pool died.

        The culprit is unknowable, so every in-flight trial is charged
        an attempt.  At most one chunk per worker is ever in flight,
        so a poisonous trial breaks the pool at most ``max_attempts``
        times and its co-flight neighbours lose at most that many
        attempts; trials still held in the runner's own queue are
        resubmitted free of charge, keeping a deterministic fault
        plan pointed at the same attempt number.
        """
        for state in chunk_states:
            if self._settle_attempt(state, ok=False, error=error):
                queue.append(state)
