"""Process-pool execution of shard engines.

The sharded simulator's pool mode keeps each shard's engine resident
in a dedicated worker process across the whole run: shard state
(population slice, sensor clones, verdict tables) is built once from
the pickled :class:`~repro.sim.spec.SimulationSpec` and then receives
one routed probe batch per tick.  ``ProcessPoolExecutor`` does not pin
tasks to workers, so pinning is by construction — every pool here has
exactly one worker, and a shard always submits to the same pool
(shards may share a pool when there are more shards than ``workers``;
a single-worker pool executes its queue FIFO, so per-shard ordering
is preserved).

**Transport.**  Each shard owns a request and a reply shared-memory
arena (:class:`~repro.runtime.shmem.ShmArena`).  The driver writes
the shard's routed arrays into its request arena, and one executor
``submit`` per shard-tick carries only a ~100 B control tuple
(:data:`ShmControl`).  The worker reads the frames zero-copy, runs
the resident engine and writes its fresh infections into the
driver-pre-sized reply arena, so no array crosses the pickle pipe.
:meth:`ShardPool.stats` reports the bytes and round trips.

**Pipelined dispatch.**  The pool's tick API is streamed:
:meth:`ShardPool.begin_tick`, then one :meth:`ShardPool.dispatch_shard`
per shard *as soon as its routed slice is ready*, then
:meth:`ShardPool.collect`.  A dispatched worker computes while the
driver routes and stages the remaining shards, and
``stats()['dispatch_overlap_s']`` accumulates that overlap window.
Dispatch order may interleave with worker completion order, but
:meth:`collect` settles replies in shard order, so the driver's merge
stays deterministic.  Driver code must not consume RNG inside the
overlap window (between the first ``dispatch_shard`` and ``collect``
of a tick) — the ``hotspots lint`` RP105 flow rule enforces this.

Failure philosophy: the pool is an optimization, never a semantic.
Without supervision, any pool-layer error — a dead or hung worker, a
truncated or stale shared-memory message
(:class:`~repro.runtime.shmem.ShmProtocolError`), a segment that
vanished mid-tick — surfaces to the driver, which discards the pools
and re-runs the outbreak in-process from the original seed material —
bitwise the same result, just slower.  :meth:`ShardPool.close`
terminates a worker that missed the heartbeat instead of waiting it
out.

**Supervision.**  With ``supervise=True`` (the driver enables it when
the run is being checkpointed) the pool recovers *per slot* instead:
it retains the per-shard seed sets, the per-shard engine snapshots
from the most recent :meth:`ShardPool.snapshot` (taken at the
checkpoint cadence), and a replay buffer of every tick payload issued
since.  When a tick outcome fails — the worker died
(``BrokenProcessPool``), garbled its reply, or missed the bounded
``heartbeat`` — the pool terminates only the failed slot's executor,
respawns it, rebuilds each of its shards (seed → snapshot restore →
payload replay), and re-issues the current tick.  Replays run under
*fresh* epochs and are RNG-free by construction: payloads carry only
pre-drawn arrays (the exchange determinism contract), so replaying
them consumes no driver randomness and the recovered run is
bitwise-identical.  The respawn budget (``MAX_RESPAWNS``) bounds
pathological loops; exhausting it surfaces the failure, and the
driver falls back to the serial re-run.

For fault-path tests, ``REPRO_SHARD_FAULT`` may hold a JSON object
``{"kind": ..., "shard": int, "epoch": int}`` with kind ``"kill"``
(worker hard-exits mid-tick), ``"garble-header"`` (the request
header's magic is clobbered after writing) or ``"stale-epoch"`` (the
control message carries the previous epoch, simulating a reader racing
a segment resize); any other value is a :class:`FaultPlanError`.  The
hook follows the :mod:`repro.runtime.faults` environment-variable
idiom so it works under any process start method.  The mid-run faults
of :mod:`repro.runtime.faults` (``REPRO_MIDRUN_FAULT``) additionally
let a worker kill or hang itself when it receives the epoch belonging
to a given tick — in an undisturbed run tick ``N`` (0-based) is
carried by epoch ``N + 1``, and recovery replays use fresh epochs, so
such a fault fires exactly once per run.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import TYPE_CHECKING, Any, Callable, Optional, TypeVar, Union

import numpy as np

from repro.runtime.checkpoint import record_recovery
from repro.runtime.faults import FaultPlanError, midrun_fault_from_env
from repro.runtime.runner import terminate_executor
from repro.runtime.shmem import (
    ShmArena,
    attach,
    capacity_for,
    read_frames,
    write_frames,
)

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

    from repro.runtime.perf import StageTimer
    from repro.sim.shard import ShardEngine
    from repro.sim.spec import SimulationSpec

_T = TypeVar("_T")

#: One tick's routed work for one shard: ``(now, sources, targets,
#: source_policy_indices, loss_ok, immunize)`` — the last three are
#: ``None`` when the run has no policy kernel / active loss / pending
#: patches.
TickPayload = tuple[
    float,
    np.ndarray,
    np.ndarray,
    Optional[np.ndarray],
    Optional[np.ndarray],
    Optional[np.ndarray],
]

#: A shard's tick reply: fresh infections (sorted-unique within the
#: shard interval) and the delivered-probe count.
TickReply = tuple[np.ndarray, int]

#: The per-tick control message pickled through the executor pipe:
#: ``(shard_id, now, epoch, request_name, reply_name)``.
ShmControl = tuple[int, float, int, str, str]

#: End-of-run sensor state: the worker's sensor and grid clones.
SensorState = tuple[list[object], list[object]]

#: Environment variable carrying an injected transport fault.
FAULT_ENV = "REPRO_SHARD_FAULT"

#: The fault kinds ``REPRO_SHARD_FAULT`` may name.
SHARD_FAULT_KINDS = ("kill", "garble-header", "stale-epoch")

#: How many slot respawns one supervised pool will attempt before the
#: failure surfaces to the driver (which then degrades to serial).
MAX_RESPAWNS = 3

#: Worker-side segment-attachment cache ceiling; arena growth renames
#: segments, which would otherwise grow the cache without bound.
_SEGMENT_CACHE_MAX = 64

#: Engines resident in *this worker process*, keyed by shard id.
_ENGINES: dict[int, "ShardEngine"] = {}

#: Worker-side attachment cache, keyed by segment name.
_SEGMENTS: dict[str, "SharedMemory"] = {}


def _shard_fault() -> Optional[dict[str, object]]:
    """The injected transport fault, if any (test hook).

    A value naming a fault the pool cannot inject raises
    :class:`FaultPlanError` rather than letting the run pass without it.
    """
    raw = os.environ.get(FAULT_ENV)
    if not raw:
        return None
    try:
        fault = json.loads(raw)
    except ValueError:
        fault = None
    kind = fault.get("kind") if isinstance(fault, dict) else None
    if kind not in SHARD_FAULT_KINDS:
        raise FaultPlanError(
            f"{FAULT_ENV} must be a JSON object whose kind is one of "
            f"{SHARD_FAULT_KINDS}; got {raw!r}"
        )
    return fault


def _fault_matches(
    fault: Optional[dict[str, object]],
    kind: str,
    shard_id: int,
    epoch: int,
) -> bool:
    return (
        fault is not None
        and fault.get("kind") == kind
        and int(fault.get("shard", -1)) == shard_id
        and int(fault.get("epoch", -1)) == epoch
    )


def _apply_midrun_fault(shard_id: int, epoch: int) -> None:
    """Worker-side chaos hook: die or hang at a specific tick's epoch.

    An undisturbed run carries tick ``N`` (0-based) on epoch ``N + 1``;
    recovery replays re-issue work under *fresh* epochs, so a fault
    keyed to a tick fires exactly once per run and never re-fires
    during its own recovery.
    """
    fault = midrun_fault_from_env()
    if fault is None or fault.tick is None:
        return
    if fault.kind not in ("kill-worker", "hang-worker"):
        return
    if not fault.matches_shard(shard_id) or epoch != fault.tick + 1:
        return
    if fault.kind == "kill-worker":
        os._exit(86)
    time.sleep(fault.seconds)


def _build_engine(
    spec: "SimulationSpec", shard_id: int, seed_addrs: np.ndarray
) -> int:
    """Worker-side: construct and seed one shard engine."""
    from repro.sim.shard import ShardEngine

    engine = ShardEngine(spec, shard_id)
    engine.seed(seed_addrs)
    _ENGINES[shard_id] = engine
    return shard_id


def _snapshot_shard(shard_id: int) -> dict[str, Any]:
    """Worker-side: copy a resident engine's state (sensors included)."""
    return _ENGINES[shard_id].state_snapshot(include_sensors=True)


def _restore_shard(shard_id: int, snapshot: dict[str, Any]) -> int:
    """Worker-side: overwrite a resident engine's state."""
    _ENGINES[shard_id].state_restore(snapshot)
    return shard_id


def _attached(name: str) -> "SharedMemory":
    """Worker-side: the mapped segment for a name, cache-fresh.

    Name-keyed: the driver's growth renames simply land as new
    entries.  Above :data:`_SEGMENT_CACHE_MAX` entries the cache is
    flushed — stale mappings close (tolerating live loaned views,
    whose mapping simply outlives the cache entry) and the requested
    segment re-attaches.
    """
    cached = _SEGMENTS.get(name)
    if cached is not None:
        return cached
    if len(_SEGMENTS) >= _SEGMENT_CACHE_MAX:
        for stale in _SEGMENTS.values():
            try:
                stale.close()
            except BufferError:  # noqa: RP007 — a live loaned view pins the old mapping; it outlives the cache entry harmlessly
                pass
        _SEGMENTS.clear()
    segment = attach(name)
    _SEGMENTS[name] = segment
    return segment


def _run_tick(
    shard_id: int,
    now: float,
    epoch: int,
    request_name: str,
    reply_name: str,
) -> int:
    """Worker-side: one tick of one resident shard engine.

    Reads the routed batch zero-copy from the request segment, runs
    the engine, writes the fresh-infection frame into the
    (driver-pre-sized) reply segment, and returns only the delivered
    count — the reply arrays never touch the pickle pipe.
    """
    if _fault_matches(_shard_fault(), "kill", shard_id, epoch):
        os._exit(86)
    _apply_midrun_fault(shard_id, epoch)
    request = _attached(request_name)
    sources, targets, source_indices, loss_ok, immunize = read_frames(
        request.buf, epoch
    )
    assert sources is not None and targets is not None
    engine = _ENGINES[shard_id]
    if immunize is not None:
        engine.immunize(immunize)
    fresh, delivered = engine.process(
        now, sources, targets, source_indices, loss_ok
    )
    reply = _attached(reply_name)
    write_frames(reply.buf, epoch, [fresh])
    return delivered


def _collect_sensors(shard_id: int) -> SensorState:
    """Worker-side: hand the shard's sensor clones back for merging."""
    engine = _ENGINES[shard_id]
    return list(engine.sensors), list(engine.grids)


def _payload_nbytes(payload: TickPayload) -> int:
    """Array bytes one payload stages into shared memory."""
    return sum(
        frame.nbytes
        for frame in payload[1:]
        if isinstance(frame, np.ndarray)
    )


def _copy_payload(payload: TickPayload) -> TickPayload:
    """A payload with owned arrays (the originals are arena loans)."""
    now = payload[0]
    frames = tuple(
        None if frame is None else np.array(frame, copy=True)
        for frame in payload[1:]
    )
    return (now,) + frames  # type: ignore[return-value]


class ShardPool:
    """Dedicated single-worker pools hosting resident shard engines.

    Parameters
    ----------
    spec, num_shards, workers:
        As built by :class:`~repro.sim.shard.ShardedSimulator`.
    heartbeat:
        Optional per-shard reply deadline in seconds; a worker that
        misses it counts as failed (hung).  ``None`` waits forever.
    supervise:
        Retain seed sets, cadence snapshots, and replay buffers so a
        failed slot can be respawned in place (see the module
        docstring).  Off by default: without checkpointing there is
        no cadence to bound the replay buffer.
    """

    def __init__(
        self,
        spec: "SimulationSpec",
        num_shards: int,
        workers: int,
        heartbeat: Optional[float] = None,
        supervise: bool = False,
    ):
        if heartbeat is not None and heartbeat <= 0:
            raise ValueError(
                f"ShardPool.heartbeat must be positive, got {heartbeat}"
            )
        self._spec = spec
        self._num_shards = num_shards
        self._heartbeat = heartbeat
        self._supervise = supervise
        self._epoch = 0
        self._ticks = 0
        self._payload_bytes = 0
        self._pipe_bytes = 0
        self._submit_round_trips = 0
        self._dispatch_overlap_s = 0.0
        self._arenas: dict[int, tuple[ShmArena, ShmArena]] = {}
        #: This tick's dispatched shards: the submitted future, or the
        #: exception that failed the dispatch itself.
        self._pending: dict[int, Union["Future[int]", BaseException]] = {}
        self._tick_payloads: dict[int, TickPayload] = {}
        self._tick_fault: Optional[dict[str, object]] = None
        self._first_dispatch: Optional[float] = None
        self._closed = False
        self._seeds: Optional[list[np.ndarray]] = None
        self._snapshots: Optional[list[dict[str, Any]]] = None
        self._replay: list[list[TickPayload]] = [
            [] for _ in range(num_shards)
        ]
        self._respawns = 0
        #: Slots whose worker missed the heartbeat; :meth:`close`
        #: terminates these rather than waiting for them.
        self._hung: set[int] = set()
        self._pools = [
            ProcessPoolExecutor(max_workers=1)
            for _ in range(max(1, min(workers, num_shards)))
        ]

    def _slot_of(self, shard_id: int) -> int:
        return shard_id % len(self._pools)

    def _pool_for(self, shard_id: int) -> ProcessPoolExecutor:
        return self._pools[self._slot_of(shard_id)]

    def _submit(
        self,
        pool: ProcessPoolExecutor,
        fn: Callable[..., _T],
        /,
        *args: Any,
    ) -> "Future[_T]":
        """An executor submit, counted as one round trip."""
        self._submit_round_trips += 1
        return pool.submit(fn, *args)

    def _shard_arenas(self, shard_id: int) -> tuple[ShmArena, ShmArena]:
        pair = self._arenas.get(shard_id)
        if pair is None:
            pair = (
                ShmArena(f"q{shard_id}"),
                ShmArena(f"r{shard_id}"),
            )
            self._arenas[shard_id] = pair
        return pair

    def seed(self, per_shard_seeds: list[np.ndarray]) -> None:
        """Build every shard engine remotely and apply its seed set."""
        futures: list[Future[int]] = [
            self._submit(
                self._pool_for(shard_id),
                _build_engine,
                self._spec,
                shard_id,
                seed_addrs,
            )
            for shard_id, seed_addrs in enumerate(per_shard_seeds)
        ]
        for future in futures:
            future.result()
        if self._supervise:
            self._seeds = [
                np.array(seed_addrs, dtype=np.uint32, copy=True)
                for seed_addrs in per_shard_seeds
            ]

    # -- the pipelined tick --------------------------------------------

    def begin_tick(self) -> None:
        """Open one tick: advance the epoch, reset dispatch state.

        The epoch advances once per tick (tick ``N`` rides epoch
        ``N + 1``), so mid-run faults and replay accounting share one
        clock.
        """
        self._ticks += 1
        self._epoch += 1
        self._tick_fault = _shard_fault()
        self._pending = {}
        self._tick_payloads = {}
        self._first_dispatch = None

    def dispatch_shard(self, shard_id: int, payload: TickPayload) -> None:
        """Issue one shard's routed batch the moment it is staged.

        Never raises for a worker-side problem: a dispatch failure is
        recorded as that shard's outcome and settled by
        :meth:`collect`, so one dead worker cannot mask the health of
        the others.  Payload arrays may be arena loans the driver
        reuses for the *next* shard; staging copies them into shared
        memory synchronously.
        """
        if self._supervise:
            self._tick_payloads[shard_id] = _copy_payload(payload)
        if self._first_dispatch is None:
            self._first_dispatch = time.monotonic()
        try:
            self._pending[shard_id] = self._submit_tick(
                self._pool_for(shard_id),
                shard_id,
                payload,
                self._epoch,
                self._tick_fault,
            )
        except Exception as error:
            self._pending[shard_id] = error

    def collect(self, timer: Optional["StageTimer"] = None) -> list[TickReply]:
        """Settle every dispatched shard, in shard order.

        Replies are collected in shard order regardless of worker
        completion order, so the driver's merge is deterministic.
        ``timer`` (the driver's ``--perf`` stage timer) splits the
        settle into ``wait`` (reply latency) and ``collect`` (reply
        arena reads) laps per shard.  Under supervision a failed shard
        is recovered in place (see :meth:`_recover`); otherwise the
        first failure raises and the driver degrades to serial.
        """
        if self._first_dispatch is not None:
            self._dispatch_overlap_s += (
                time.monotonic() - self._first_dispatch
            )
            self._first_dispatch = None
        outcomes: list[Union[TickReply, BaseException]] = []
        for shard_id in range(self._num_shards):
            pending = self._pending.pop(shard_id, None)
            if pending is None:
                outcomes.append(
                    RuntimeError(f"shard {shard_id} was never dispatched")
                )
                continue
            settled = (
                pending
                if isinstance(pending, BaseException)
                else self._settle(shard_id, pending)
            )
            if timer is not None:
                timer.lap("wait")
            outcomes.append(self._read_reply(shard_id, self._epoch, settled))
            if timer is not None:
                timer.lap("collect")
        failures = [
            index
            for index, outcome in enumerate(outcomes)
            if isinstance(outcome, BaseException)
        ]
        if failures:
            first = outcomes[failures[0]]
            assert isinstance(first, BaseException)
            if not self._supervise or self._seeds is None:
                raise first
            payloads = [
                self._tick_payloads[shard_id]
                for shard_id in range(self._num_shards)
            ]
            self._recover(payloads, outcomes, failures)
        if self._supervise:
            for shard_id in range(self._num_shards):
                self._replay[shard_id].append(
                    self._tick_payloads[shard_id]
                )
        self._tick_payloads = {}
        replies: list[TickReply] = []
        for outcome in outcomes:
            assert not isinstance(outcome, BaseException)
            replies.append(outcome)
        return replies

    def _submit_tick(
        self,
        pool: ProcessPoolExecutor,
        shard_id: int,
        payload: TickPayload,
        epoch: int,
        fault: Optional[dict[str, object]],
    ) -> "Future[int]":
        """Stage one shard's batch and submit its control tuple."""
        control = self._stage_request(shard_id, payload, epoch, fault)
        self._pipe_bytes += len(pickle.dumps(control))
        return self._submit(pool, _run_tick, *control)

    def _read_reply(
        self,
        shard_id: int,
        epoch: int,
        settled: Union[int, BaseException],
    ) -> Union[TickReply, BaseException]:
        """Turn a settled delivered count into a ``TickReply`` outcome."""
        if isinstance(settled, BaseException):
            return settled
        try:
            (fresh,) = self._arenas[shard_id][1].read(epoch)
        except Exception as error:
            return error
        assert fresh is not None
        self._payload_bytes += fresh.nbytes
        return (fresh, settled)

    def _stage_request(
        self,
        shard_id: int,
        payload: TickPayload,
        epoch: int,
        fault: Optional[dict[str, object]],
    ) -> ShmControl:
        """Write one shard's batch into its request arena."""
        now, sources, targets, source_indices, loss_ok, immunize = payload
        request, reply = self._shard_arenas(shard_id)
        frames = [sources, targets, source_indices, loss_ok, immunize]
        # The reply's single frame can never exceed the tick's
        # target count, so the driver pre-sizes it here — workers
        # never own (and so never grow) a segment.
        reply.ensure(capacity_for([(len(targets), np.uint32)]))
        request.write(epoch, frames)
        self._payload_bytes += _payload_nbytes(payload)
        send_epoch = epoch
        if _fault_matches(fault, "garble-header", shard_id, epoch):
            self._garble_request_header(request)
        elif _fault_matches(fault, "stale-epoch", shard_id, epoch):
            send_epoch = epoch - 1
        return (shard_id, now, send_epoch, request.name, reply.name)

    def _settle(
        self, shard_id: int, future: "Future[int]"
    ) -> Union[int, BaseException]:
        """A future's result, or the exception that failed it.

        With a heartbeat, a worker that gives no reply in time counts
        as hung: the timeout becomes the failure outcome, and its slot
        is marked so recovery or :meth:`close` terminates the (still
        wedged) worker rather than waiting on it.
        """
        try:
            if self._heartbeat is not None:
                return future.result(timeout=self._heartbeat)
            return future.result()
        except _FutureTimeout:
            self._hung.add(self._slot_of(shard_id))
            return TimeoutError(
                f"shard worker gave no reply within the "
                f"{self._heartbeat:g}s heartbeat"
            )
        except Exception as error:
            return error

    # -- supervision ---------------------------------------------------

    def _recover(
        self,
        payloads: list[TickPayload],
        outcomes: list[Union[TickReply, BaseException]],
        failures: list[int],
    ) -> None:
        """Respawn every failed slot and re-run the current tick on it.

        A dead worker takes down *all* engines resident in its slot,
        so recovery is per slot: terminate the executor, fork a fresh
        one, rebuild each of its shards (seed → latest snapshot →
        replay of the buffered payloads under fresh epochs), then
        re-issue the failed tick.  Anything that goes wrong here —
        budget exhausted, teardown incomplete, replay failure —
        raises, and the driver falls back to the serial re-run.
        """
        assert self._seeds is not None
        slots = sorted({self._slot_of(shard_id) for shard_id in failures})
        first_error = outcomes[failures[0]]
        for slot in slots:
            self._respawns += 1
            if self._respawns > MAX_RESPAWNS:
                raise RuntimeError(
                    f"shard pool respawn budget ({MAX_RESPAWNS}) "
                    f"exhausted; last failure: {first_error}"
                )
            reason = next(
                str(outcomes[index]) or type(outcomes[index]).__name__
                for index in failures
                if self._slot_of(index) == slot
            )
            self._respawn_slot(slot, payloads, outcomes, reason)

    def _respawn_slot(
        self,
        slot: int,
        payloads: list[TickPayload],
        outcomes: list[Union[TickReply, BaseException]],
        reason: str,
    ) -> None:
        assert self._seeds is not None
        if not terminate_executor(self._pools[slot]):
            raise RuntimeError(
                f"slot {slot} teardown did not complete; forking a "
                "replacement worker would risk a deadlock"
            )
        self._hung.discard(slot)
        pool = self._pools[slot] = ProcessPoolExecutor(max_workers=1)
        for shard_id in range(self._num_shards):
            if self._slot_of(shard_id) != slot:
                continue
            self._submit(
                pool, _build_engine, self._spec, shard_id,
                self._seeds[shard_id],
            ).result()
            if self._snapshots is not None:
                self._submit(
                    pool, _restore_shard, shard_id,
                    self._snapshots[shard_id],
                ).result()
            replayed = 0
            for payload in self._replay[shard_id]:
                self._replay_payload(pool, shard_id, payload)
                replayed += 1
            outcomes[shard_id] = self._replay_payload(
                pool, shard_id, payloads[shard_id]
            )
            record_recovery(
                "worker-respawn",
                shard=shard_id,
                slot=slot,
                reason=reason,
                replayed_ticks=replayed,
                tick=self._ticks - 1,
            )

    def _replay_payload(
        self,
        pool: ProcessPoolExecutor,
        shard_id: int,
        payload: TickPayload,
    ) -> TickReply:
        """Re-run one buffered payload on a freshly respawned shard.

        Replays consume no driver RNG (payloads carry only pre-drawn
        arrays) and use fresh epochs, so a tick-keyed fault cannot
        re-fire during its own recovery.
        """
        self._epoch += 1
        epoch = self._epoch
        settled = self._settle(
            shard_id, self._submit_tick(pool, shard_id, payload, epoch, None)
        )
        outcome = self._read_reply(shard_id, epoch, settled)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def snapshot(self) -> list[dict[str, Any]]:
        """Every shard's state (sensor clones included), in shard order.

        Under supervision the states become the new recovery baseline
        and the replay buffer resets — the checkpoint cadence is what
        bounds replay memory.
        """
        futures = [
            self._submit(
                self._pool_for(shard_id), _snapshot_shard, shard_id
            )
            for shard_id in range(self._num_shards)
        ]
        states = [future.result() for future in futures]
        if self._supervise:
            self._snapshots = states
            self._replay = [[] for _ in range(self._num_shards)]
        return states

    def restore(self, states: list[dict[str, Any]]) -> None:
        """Overwrite every shard's state (a checkpoint-resume start)."""
        futures = [
            self._submit(
                self._pool_for(shard_id), _restore_shard, shard_id, state
            )
            for shard_id, state in enumerate(states)
        ]
        for future in futures:
            future.result()
        if self._supervise:
            self._snapshots = list(states)
            self._replay = [[] for _ in range(self._num_shards)]

    @staticmethod
    def _garble_request_header(request: ShmArena) -> None:
        """Test hook: clobber the just-written message's magic."""
        segment = attach(request.name)
        try:
            segment.buf[0] = 0xFF
        finally:
            segment.close()

    def collect_sensors(self) -> list[SensorState]:
        """Every shard's sensor clones, in shard order."""
        futures: list[Future[SensorState]] = [
            self._submit(
                self._pool_for(shard_id), _collect_sensors, shard_id
            )
            for shard_id in range(self._num_shards)
        ]
        return [future.result() for future in futures]

    def stats(self) -> dict[str, int | float | str]:
        """Transport counters for benchmarks and tests.

        ``payload_bytes`` is the array volume staged through shared
        memory; ``pipe_bytes`` is what the tick path pushed through
        the executor's pickle pipe (the per-tick control tuples);
        ``submit_round_trips`` counts every executor submit — one per
        shard-tick plus engine builds, snapshots, sensor collection
        and replays.  ``dispatch_overlap_s`` accumulates the per-tick
        window between the first shard dispatch and collect — driver
        staging time that worker compute overlapped.
        """
        return {
            "transport": "shmem",
            "ticks": self._ticks,
            "payload_bytes": self._payload_bytes,
            "pipe_bytes": self._pipe_bytes,
            "submit_round_trips": self._submit_round_trips,
            "dispatch_overlap_s": self._dispatch_overlap_s,
        }

    def close(self) -> None:
        """Tear down workers and shared-memory segments.

        Idempotent; runs from the driver's ``finally``, the
        pool-failure path, context-manager exit, and ``__del__`` —
        whichever comes first.  A slot whose worker missed the
        heartbeat is terminated (waiting would take as long as the
        hang); every other executor shuts down with ``wait=True``, so
        its management thread has fully exited before the interpreter
        can reach the concurrent.futures atexit hook.  Segments are
        unlinked *after* the workers exit so no worker can attach a
        name mid-unlink.
        """
        if self._closed:
            return
        self._closed = True
        for slot in sorted(self._hung):
            terminate_executor(self._pools[slot])
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)
        for request, reply in self._arenas.values():
            request.close()
            reply.close()
        self._arenas.clear()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:  # noqa: RP007 — interpreter-teardown close; nothing left to tell
            pass
