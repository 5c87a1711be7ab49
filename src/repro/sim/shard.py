"""Sharded address-space execution of one outbreak.

``ShardedSimulator`` partitions the address space ``[0, 2^32)`` into
``K`` contiguous intervals (:class:`ShardPlan`) and gives each shard
its own engine state: a :class:`~repro.population.model.HostPopulation`
slice, a shard-clipped :class:`~repro.sensors.index.SensorIndex`, a
per-shard merged verdict partition, and a private
:class:`~repro.sim.arena.TickArena`.

**Determinism policy (the exchange contract).**  A sharded run must be
bitwise-identical to the unsharded serial reference, so the split
between driver and shards follows one rule: *every RNG-consuming
stage runs in the driver, in exactly the serial order; every
deterministic per-target stage runs in the owning shard.*

* the driver generates probes for the global infected-host table
  (``worm.generate`` under the single run RNG), draws the loss mask
  over the full flat batch in batch order, applies containment and
  patching draws, and feeds merged infection batches back to
  ``worm.add_hosts`` — the exact RNG call sequence of the serial
  engine;
* the *exchange step* routes each probe to the shard owning its
  target (``searchsorted`` over the shard boundaries, stable
  ordering), so per-shard batches preserve original batch order;
* each shard resolves the deterministic verdict layers (routability,
  NAT, policy) through its own merged partition, dispatches delivered
  probes to its clipped sensors, and matches them against its
  population slice;
* per-shard ``vulnerable_hits`` results are sorted-unique within the
  shard's interval, and shards are ordered by interval, so
  concatenating them in stable shard order *is* the global
  sorted-unique infection batch the serial engine computes.

Shards run serially in-process by default; ``workers > 1`` fans the
per-tick shard work out over a pool of dedicated worker processes
(:mod:`repro.runtime.shardpool`).  Pool execution never changes
results; if the pool breaks mid-run, the driver resets and re-runs
the whole outbreak serially from the original seed material —
the same degrade-to-serial philosophy as
:class:`~repro.runtime.runner.TrialRunner`.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.population.model import HostPopulation
from repro.runtime.checkpoint import CheckpointError, record_recovery
from repro.runtime.perf import stage_timer
from repro.sensors.darknet import DarknetSensor
from repro.sensors.deployment import SensorGrid
from repro.sensors.index import SensorIndex
from repro.sim.arena import TickArena
from repro.sim.engine import SimulationResult, _FusedVerdict

if TYPE_CHECKING:
    from repro.runtime.checkpoint import Checkpointer
    from repro.runtime.shardpool import ShardPool
    from repro.sim.spec import SimulationSpec
    from repro.worms.base import WormState

#: End of the IPv4 address space (exclusive upper bound of any shard).
ADDRESS_SPACE_END = 1 << 32

#: Shard boundaries must be /24-aligned so no grid sensor (/24) and no
#: darknet /24 bin ever straddles two shards — the invariant that lets
#: per-shard sensor state merge exactly.
BOUNDARY_ALIGN = 256


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the address space into contiguous shards.

    ``boundaries`` holds each shard's first address; shard ``i`` owns
    ``[boundaries[i], boundaries[i+1])`` (the last shard runs to the
    end of the space).  The first boundary must be 0 and every
    boundary must be /24-aligned (multiple of 256) and strictly
    increasing.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.boundaries:
            raise ValueError("ShardPlan.boundaries: need at least one shard")
        if self.boundaries[0] != 0:
            raise ValueError(
                "ShardPlan.boundaries: the first shard must start at 0, "
                f"got {self.boundaries[0]:#x}"
            )
        for index, boundary in enumerate(self.boundaries):
            if not 0 <= boundary < ADDRESS_SPACE_END:
                raise ValueError(
                    f"ShardPlan.boundaries[{index}]: {boundary:#x} is "
                    "outside the address space"
                )
            if boundary % BOUNDARY_ALIGN:
                raise ValueError(
                    f"ShardPlan.boundaries[{index}]: {boundary:#x} is not "
                    "/24-aligned (multiple of 256) — required so no /24 "
                    "sensor straddles two shards"
                )
        if any(
            later <= earlier
            for earlier, later in zip(self.boundaries, self.boundaries[1:])
        ):
            raise ValueError(
                "ShardPlan.boundaries: must be strictly increasing"
            )

    @classmethod
    def even(cls, num_shards: int) -> "ShardPlan":
        """``num_shards`` near-equal intervals (aligned down to /24s)."""
        if num_shards < 1:
            raise ValueError(
                f"ShardPlan: num_shards must be at least 1, got {num_shards}"
            )
        if num_shards > ADDRESS_SPACE_END // BOUNDARY_ALIGN:
            raise ValueError(
                f"ShardPlan: num_shards {num_shards} exceeds the /24 count"
            )
        boundaries = tuple(
            (index * ADDRESS_SPACE_END // num_shards) & ~(BOUNDARY_ALIGN - 1)
            for index in range(num_shards)
        )
        return cls(boundaries=boundaries)

    @property
    def num_shards(self) -> int:
        """How many shards the plan defines."""
        return len(self.boundaries)

    def interval(self, shard_id: int) -> tuple[int, int]:
        """Shard's ``[lo, hi)`` address interval (``hi`` may be 2^32)."""
        lo = self.boundaries[shard_id]
        hi = (
            self.boundaries[shard_id + 1]
            if shard_id + 1 < len(self.boundaries)
            else ADDRESS_SPACE_END
        )
        return lo, hi

    def owner_of(self, addrs: np.ndarray) -> np.ndarray:
        """Owning shard id per address (the exchange lookup).

        ``searchsorted(side="right") - 1`` over the boundary table: an
        address exactly on a boundary belongs to the shard *starting*
        there.
        """
        starts = np.asarray(self.boundaries, dtype=np.uint32)
        return (
            np.searchsorted(
                starts, np.asarray(addrs, dtype=np.uint32), side="right"
            )
            - 1
        )


class ShardEngine:
    """One shard's state: population slice, sensors, verdict tables.

    Constructed *from the spec* so the same code path serves both
    execution modes: built in-process, the sensor objects are the
    caller's own (shards ingest disjoint probe streams into them);
    built inside a pool worker, the objects arrive pickled — private
    clones whose state the driver absorbs back at end of run.

    Construction is memory-slim on purpose — the 10^6-host regime is
    the whole point of sharding.  The population slice is found with
    two ``searchsorted`` calls on the (sorted) global address table
    and shared as a *view* — no uint64 widening, no ownership mask,
    no copy; and the sensor index / fused-verdict tables are built
    lazily on the shard's first batch, so K engines never hold more
    than their population views until probes actually arrive.
    """

    def __init__(self, spec: "SimulationSpec", shard_id: int):
        plan = spec.shard_plan
        if plan is None:
            raise ValueError("spec has no shard plan")
        self.shard_id = shard_id
        self.lo, self.hi = plan.interval(shard_id)
        addrs = spec.population.addresses()
        lo_index = int(np.searchsorted(addrs, np.uint32(self.lo)))
        hi_index = (
            len(addrs)
            if self.hi >= ADDRESS_SPACE_END
            else int(np.searchsorted(addrs, np.uint32(self.hi)))
        )
        # The slice of a sorted-unique table is sorted-unique, and the
        # table is never mutated, so the population can alias it.
        self.population = HostPopulation(
            addrs[lo_index:hi_index], presorted_unique=True
        )
        self.sensors = list(spec.sensors)
        self.grids = list(spec.sensor_grids)
        self._environment = spec.environment
        self._worm_name = spec.worm.name
        self._sensor_index: Optional[SensorIndex] = None
        self._sensor_index_built = False
        self._verdict: Optional[_FusedVerdict] = None
        self.arena = TickArena()
        self.delivered_probes = 0

    @property
    def sensor_index(self) -> Optional[SensorIndex]:
        """The shard-clipped sensor index, built on first use."""
        if not self._sensor_index_built:
            self._sensor_index_built = True
            if self.sensors or self.grids:
                index = SensorIndex(
                    self.sensors, self.grids, within=(self.lo, self.hi)
                )
                if index.num_intervals:
                    self._sensor_index = index
        return self._sensor_index

    @property
    def verdict(self) -> _FusedVerdict:
        """The shard's fused verdict tables, built on first use."""
        if self._verdict is None:
            self._verdict = _FusedVerdict(
                self._environment, self._worm_name, self.sensor_index
            )
        return self._verdict

    def seed(self, seed_addrs: np.ndarray) -> None:
        """Infect this shard's share of the seed set."""
        if len(seed_addrs):
            self.population.infect(seed_addrs)

    def immunize(self, addrs: np.ndarray) -> None:
        """Apply a patch batch routed to this shard."""
        if len(addrs):
            self.population.immunize(addrs)

    def deterministic(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        source_indices: Optional[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pre-loss verdict + merged slots for this shard's batch."""
        self.verdict.refresh()
        return self.verdict.deterministic(sources, targets, source_indices)

    def finish(
        self,
        now: float,
        sources: np.ndarray,
        targets: np.ndarray,
        slots: np.ndarray,
        deliverable: np.ndarray,
    ) -> np.ndarray:
        """Dispatch + infect the delivered survivors; returns fresh.

        ``deliverable`` is the final per-probe mask (deterministic
        layers ∧ loss ∧ containment, composed by the driver).  The
        returned fresh-infection array is sorted-unique within this
        shard's interval.
        """
        arena = self.arena
        delivered_index = np.flatnonzero(deliverable)
        delivered_targets = np.take(
            targets,
            delivered_index,
            out=arena.request(
                "delivered_targets", len(delivered_index), targets.dtype
            ),
        )
        delivered_sources = np.take(
            sources,
            delivered_index,
            out=arena.request(
                "delivered_sources", len(delivered_index), sources.dtype
            ),
        )
        self.delivered_probes += len(delivered_index)
        if self.sensor_index is not None:
            delivered_slots = np.take(
                slots,
                delivered_index,
                out=arena.request(
                    "delivered_slots", len(delivered_index), slots.dtype
                ),
            )
            self.verdict.dispatch(
                delivered_sources, delivered_targets, now, delivered_slots
            )
        fresh = self.population.vulnerable_hits(delivered_targets)
        if len(fresh):
            self.population.infect(fresh)
        return fresh

    def process(
        self,
        now: float,
        sources: np.ndarray,
        targets: np.ndarray,
        source_indices: Optional[np.ndarray],
        loss_ok: Optional[np.ndarray],
    ) -> tuple[np.ndarray, int]:
        """One shard-tick without driver feedback (no containment).

        Deterministic verdict ∧ routed loss mask, then dispatch and
        infection in one step; returns ``(fresh, delivered_count)``.
        This is the pool-worker entry point — one round trip per tick.
        """
        before = self.delivered_probes
        det, slots = self.deterministic(sources, targets, source_indices)
        if loss_ok is not None:
            np.logical_and(det, loss_ok, out=det)
        fresh = self.finish(now, sources, targets, slots, det)
        return fresh, self.delivered_probes - before

    # -- checkpoint support -------------------------------------------

    def state_snapshot(self, include_sensors: bool = True) -> dict:
        """Copy of this shard's mutable state.

        ``include_sensors`` is True in pool workers, whose sensor and
        grid objects are private clones; in-process engines share the
        caller's sensor objects, so the driver snapshots those once
        globally and passes False here.
        """
        snapshot: dict = {
            "population": self.population.state_snapshot(),
            "delivered_probes": int(self.delivered_probes),
            "sensors": None,
            "grids": None,
        }
        if include_sensors:
            snapshot["sensors"] = [
                sensor.state_snapshot() for sensor in self.sensors
            ]
            snapshot["grids"] = [
                grid.state_snapshot() for grid in self.grids
            ]
        return snapshot

    def state_restore(
        self, snapshot: dict, *, restore_sensors: bool = True
    ) -> None:
        """Overwrite this shard's mutable state from a snapshot.

        ``restore_sensors`` is False when the driver restores shared
        in-process sensor objects globally (merged across shards)
        instead of per engine.
        """
        self.population.state_restore(snapshot["population"])
        self.delivered_probes = int(snapshot["delivered_probes"])
        if restore_sensors and snapshot.get("sensors") is not None:
            for sensor, state in zip(self.sensors, snapshot["sensors"]):
                sensor.state_restore(state)
            for grid, state in zip(self.grids, snapshot["grids"]):
                grid.state_restore(state)


#: Above this shard count the O(K·n) counting partition loses to the
#: O(n log n) stable argsort it replaces, so ``route`` falls back.
_COUNTING_PARTITION_MAX_SHARDS = 64


class _Exchange:
    """The per-tick probe router: stable owner partition of a batch.

    Routing is a counting-sort partition, not a full-batch stable
    ``argsort``: shards own contiguous address intervals, so one
    wraparound-subtract range test per shard plus a ``flatnonzero``
    (whose ascending indices are exactly the bucket's probes in
    original batch order) yields the *identical* stable permutation in
    O(K·n) with trivial constants — this was the 1.89× driver-side
    overhead at K=4.  Scratch buffers and permuted outputs live in a
    private :class:`TickArena`, so steady-state routing allocates only
    the per-bucket index arrays.
    """

    __slots__ = ("plan", "arena", "order", "offsets")

    def __init__(self, plan: ShardPlan):
        self.plan = plan
        self.arena = TickArena()
        self.order: Optional[np.ndarray] = None
        self.offsets: Optional[np.ndarray] = None

    def route(self, targets: np.ndarray) -> None:
        """Compute the stable owner ordering for one flat batch."""
        num_shards = self.plan.num_shards
        count = len(targets)
        order = self.arena.request("order", count, np.intp)
        offsets = np.empty(num_shards + 1, dtype=np.int64)
        offsets[0] = 0
        if num_shards == 1:
            order[:] = np.arange(count)
            offsets[1] = count
        elif num_shards > _COUNTING_PARTITION_MAX_SHARDS:
            owner = self.plan.owner_of(targets)
            # Stable sort keeps each shard's probes in original batch
            # order — the same guarantee the counting partition gives.
            order[:] = np.argsort(owner, kind="stable")
            counts = np.bincount(owner, minlength=num_shards)
            np.cumsum(counts, out=offsets[1:])
        else:
            mask = self.arena.request("mask", count, np.bool_)
            shifted = self.arena.request("shifted", count, np.uint32)
            position = 0
            for shard_id in range(num_shards):
                lo, hi = self.plan.interval(shard_id)
                # uint32 wraparound makes (t - lo) < (hi - lo) exactly
                # "lo <= t < hi" without widening; works for the last
                # shard too since hi - lo < 2^32 whenever lo > 0.
                if lo == 0:
                    np.less(targets, np.uint32(hi), out=mask)
                else:
                    np.subtract(targets, np.uint32(lo), out=shifted)
                    np.less(shifted, np.uint32(hi - lo), out=mask)
                bucket = np.flatnonzero(mask)
                end = position + len(bucket)
                order[position:end] = bucket
                offsets[shard_id + 1] = end
                position = end
        self.order = order
        self.offsets = offsets

    def permute(self, values: np.ndarray, name: str) -> np.ndarray:
        """A batch array reordered into shard-contiguous layout.

        The result is an arena loan: valid until the next tick routes
        and permutes the same ``name`` (consumers either finish within
        the tick or copy/serialize before the next one).
        """
        assert self.order is not None
        out = self.arena.request(name, len(values), values.dtype)
        np.take(values, self.order, out=out)
        return out

    def slices(self, permuted: np.ndarray) -> list[np.ndarray]:
        """Per-shard views of a permuted array, in shard order."""
        assert self.offsets is not None
        return [
            permuted[self.offsets[k] : self.offsets[k + 1]]
            for k in range(self.plan.num_shards)
        ]

    def scatter(
        self, permuted: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Restore a permuted array to original batch order."""
        assert self.order is not None
        out[self.order] = permuted
        return out

    def stream(
        self, targets: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(shard_id, bucket)`` in shard order, incrementally.

        The streamed counterpart of :meth:`route` for pipelined
        dispatch: each counting-sort bucket (the stable ascending
        index array of one shard's probes) is yielded the moment it is
        computed, *before* later shards have been partitioned — so a
        consumer can gather and dispatch shard ``k`` while shards
        ``k+1..K-1`` are still unrouted.  Gathering each bucket with
        :meth:`gather` produces exactly the per-shard slices that
        :meth:`route` + :meth:`permute` + :meth:`slices` would — same
        stable order, same disjoint coverage — which is why streamed
        dispatch preserves bitwise equivalence.  Buckets are fresh
        arrays; the scratch mask is an arena loan reused per shard.
        """
        num_shards = self.plan.num_shards
        count = len(targets)
        if num_shards == 1:
            yield 0, np.arange(count)
            return
        if num_shards > _COUNTING_PARTITION_MAX_SHARDS:
            # The argsort fallback is inherently whole-batch; stream
            # the slices of the one permutation it produces.
            self.route(targets)
            assert self.order is not None and self.offsets is not None
            for shard_id in range(num_shards):
                yield shard_id, self.order[
                    self.offsets[shard_id] : self.offsets[shard_id + 1]
                ]
            return
        mask = self.arena.request("mask", count, np.bool_)
        shifted = self.arena.request("shifted", count, np.uint32)
        for shard_id in range(num_shards):
            lo, hi = self.plan.interval(shard_id)
            if lo == 0:
                np.less(targets, np.uint32(hi), out=mask)
            else:
                np.subtract(targets, np.uint32(lo), out=shifted)
                np.less(shifted, np.uint32(hi - lo), out=mask)
            yield shard_id, np.flatnonzero(mask)

    def gather(
        self, values: np.ndarray, bucket: np.ndarray, name: str
    ) -> np.ndarray:
        """One shard's slice of a batch array, in stable batch order.

        The streamed analogue of :meth:`permute` + :meth:`slices` for
        a single shard.  The result is an arena loan reused for the
        *next* shard's gather under the same ``name`` — the consumer
        must serialize or copy it before then (the pool does: its
        shared-memory staging is synchronous).
        """
        out = self.arena.request(name, len(bucket), values.dtype)
        np.take(values, bucket, out=out)
        return out


class ShardedSimulator:
    """Drives one outbreak across K address-space shards.

    Parameters
    ----------
    spec:
        The :class:`~repro.sim.spec.SimulationSpec`; must carry a
        shard plan and a pristine population.
    workers:
        ``1`` (default) runs every shard in-process; ``> 1`` fans
        shards out over dedicated worker processes, one per shard,
        capped at ``workers`` concurrent pools.
    heartbeat:
        Optional per-shard reply deadline (seconds) for pooled ticks;
        a worker that misses it counts as failed and is respawned
        (under supervision) or triggers the serial re-run.
    checkpointer:
        Optional :class:`~repro.runtime.checkpoint.Checkpointer`; the
        driver snapshots the full run state at its cadence, and pool
        mode enables per-slot supervision (snapshot + replay recovery
        instead of the full serial re-run).
    resume:
        Optional validated payload from
        :func:`~repro.runtime.checkpoint.load_checkpoint`; the run
        restores it and continues from the next tick, bitwise-
        identical to a run that was never interrupted.
    """

    def __init__(
        self,
        spec: "SimulationSpec",
        workers: int = 1,
        heartbeat: Optional[float] = None,
        checkpointer: Optional["Checkpointer"] = None,
        resume: Optional[dict] = None,
    ):
        plan = spec.shard_plan
        if plan is None:
            raise ValueError(
                "SimulationSpec.shards: ShardedSimulator needs a shard plan"
            )
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if spec.population.num_infected or spec.population.num_immune:
            raise ValueError(
                "SimulationSpec.population: sharded runs need a pristine "
                "population (no prior infections or immunizations) so a "
                "pool failure can deterministically restart the run"
            )
        if workers > 1:
            if spec.containment is not None:
                raise ValueError(
                    "SimulationSpec.containment: quorum containment is "
                    "global per-tick feedback and only runs with "
                    "in-process shards (workers=1)"
                )
            if spec.trace_recorder is not None:
                raise ValueError(
                    "SimulationSpec.trace_recorder: trace recording "
                    "preserves batch order and only runs with in-process "
                    "shards (workers=1)"
                )
            for index, sensor in enumerate(spec.sensors):
                if sensor.total_probes:
                    raise ValueError(
                        f"SimulationSpec.sensors[{index}] "
                        f"({sensor.name!r}): process-pool shard mode "
                        "needs sensors without prior observations"
                    )
            for index, grid in enumerate(spec.sensor_grids):
                if grid.payload_counts().any():
                    raise ValueError(
                        f"SimulationSpec.sensor_grids[{index}]: "
                        "process-pool shard mode needs grids without "
                        "prior observations"
                    )
        if heartbeat is not None and heartbeat <= 0:
            raise ValueError(
                "ShardedSimulator.heartbeat must be positive, "
                f"got {heartbeat}"
            )
        if resume is not None and resume.get("mode") not in (None, "shard"):
            raise CheckpointError(
                f"checkpoint.mode: snapshot was written by a "
                f"{resume.get('mode')!r} run but this run executes "
                "as 'shard'"
            )
        self.spec = spec
        self.plan = plan
        self.workers = workers
        self.heartbeat = heartbeat
        self.checkpointer = checkpointer
        self.resume = resume
        #: Filled after a pooled run: byte/round-trip counters and
        #: overlap timings from
        #: :meth:`repro.runtime.shardpool.ShardPool.stats`.
        self.transport_stats: Optional[dict[str, int | float | str]] = None

    # -- public entry -------------------------------------------------

    def run(self, rng: np.random.Generator) -> SimulationResult:
        """Run the sharded outbreak (bitwise ≡ the serial reference)."""
        self.transport_stats = None
        if self.workers > 1:
            # A pool failure loses worker-resident shard state, so the
            # recovery is a deterministic restart: pristine population
            # (validated above), untouched driver-side sensors, and a
            # pre-consumption copy of the generator.
            backup = copy.deepcopy(rng)
            try:
                return self._run(rng, pooled=True)
            except _ShardPoolFailure as failure:
                self.spec.population.reset()
                record_recovery("serial-rerun", reason=str(failure))
                warnings.warn(
                    f"shard worker pool failed ({failure}); re-running "
                    "all shards in-process (results are identical)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return self._run(backup, pooled=False)  # noqa: RP102 -- pre-consumption rng copy; the serial re-run is bitwise-identical to what the pooled run would have produced
        return self._run(rng, pooled=False)

    # -- the driver loop ---------------------------------------------

    def _run(
        self, rng: np.random.Generator, pooled: bool
    ) -> SimulationResult:
        spec = self.spec
        config = spec.config
        population = spec.population  # global source of truth

        if self.resume is not None:
            # The restored bit-generator state already accounts for
            # the seed draw; the restored populations already carry
            # the seed infections.
            seed_addrs = np.empty(0, dtype=np.uint32)
        elif spec.seed_addrs is None:
            if config.seed_count > population.size:
                raise ValueError("more seeds than hosts")
            seed_addrs = rng.choice(
                population.addresses(),
                size=config.seed_count,
                replace=False,
            )
        else:
            seed_addrs = spec.seed_addrs
        seed_addrs = np.asarray(seed_addrs, dtype=np.uint32)

        pool = None
        engines: list[ShardEngine] = []
        exchange = _Exchange(self.plan)
        num_shards = self.plan.num_shards
        try:
            if pooled:
                from repro.runtime.shardpool import ShardPool

                try:
                    pool = ShardPool(
                        spec,
                        num_shards,
                        self.workers,
                        heartbeat=self.heartbeat,
                        # Supervision needs the checkpoint cadence to
                        # bound the replay buffer; without one, a pool
                        # failure degrades to the serial re-run.
                        supervise=self.checkpointer is not None,
                    )
                except Exception as error:
                    raise _ShardPoolFailure(str(error)) from error

            else:
                engines = [
                    ShardEngine(spec, shard_id)
                    for shard_id in range(num_shards)
                ]

            result = self._drive(
                rng, seed_addrs, engines, pool, exchange
            )
            if pool is not None:
                self.transport_stats = pool.stats()
            return result
        finally:
            if pool is not None:
                pool.close()

    def _drive(
        self,
        rng: np.random.Generator,
        seed_addrs: np.ndarray,
        engines: list[ShardEngine],
        pool: Optional["ShardPool"],
        exchange: _Exchange,
    ) -> SimulationResult:
        spec = self.spec
        config = spec.config
        worm = spec.worm
        population = spec.population
        environment = spec.environment
        containment = spec.containment
        num_shards = self.plan.num_shards

        resume = self.resume
        if resume is None:
            state = worm.new_state()
            infected_now = population.infect(seed_addrs)
            worm.add_hosts(state, infected_now, rng)
            seed_owner = self.plan.owner_of(infected_now)
            if pool is not None:
                pool.seed(
                    [
                        infected_now[seed_owner == shard_id]
                        for shard_id in range(num_shards)
                    ]
                )
            else:
                for shard_id, engine in enumerate(engines):
                    engine.seed(infected_now[seed_owner == shard_id])
        else:
            # Deep-copied so the pool-failure re-run restoring from
            # the same payload starts from unconsumed worm state.
            state = copy.deepcopy(resume["worm_state"])
            infected_now = np.empty(0, dtype=np.uint32)
            self._restore_engines(resume, engines, pool)
        pending_immunize: list[list[np.ndarray]] = [
            [] for _ in range(num_shards)
        ]
        if resume is not None:
            pending_immunize = [
                [np.array(batch, dtype=np.uint32) for batch in queued]
                for queued in resume["pending_immunize"]
            ]

        # Per-host policy membership cache for the det verdict tables
        # (mirrors the engine's host_policy_indices cache; consumes no
        # RNG).  A driver-side verdict with no sensor component serves
        # purely as that cache plus the kernel-identity tracker.
        host_verdict = _FusedVerdict(environment, worm.name, None)
        arena = TickArena()
        loss = environment.loss
        loss_active = loss.is_active

        per_tick_budget = config.scan_rate * config.tick_seconds
        uniform_fast = spec.topology is None and float(
            per_tick_budget
        ).is_integer()
        uniform_scans = int(per_tick_budget) if uniform_fast else 0
        needs_global_mask = (
            containment is not None or spec.trace_recorder is not None
        )

        times: list[float] = []
        infected_counts: list[int] = []
        infection_times: list[float] = [0.0] * len(infected_now)
        total_probes = 0
        delivered_probes = 0
        start_tick = 0
        if resume is not None:
            rng.bit_generator.state = resume["rng_state"]
            population.state_restore(resume["population"])
            if containment is not None and resume["containment"] is not None:
                containment.state_restore(resume["containment"])
            if (
                spec.trace_recorder is not None
                and resume["trace"] is not None
            ):
                spec.trace_recorder.state_restore(resume["trace"])
            # A None carry means the writing run proved the
            # accumulator stays 0.0 (uniform fast path), so the
            # arena's zero-filled growth is already exact.
            carry = resume["accumulator"]
            if carry is not None:
                carry = np.asarray(carry, dtype=float)
                arena.accumulator(len(carry))[:] = carry
            times = list(resume["times"])
            infected_counts = list(resume["infected_counts"])
            infection_times = list(resume["infection_times"])
            total_probes = int(resume["total_probes"])
            delivered_probes = int(resume["delivered_probes"])
            start_tick = int(resume["tick"]) + 1

        checkpointer = self.checkpointer
        timer = stage_timer()
        num_ticks = int(np.ceil(config.max_time / config.tick_seconds))
        for tick in range(start_tick, num_ticks):
            now = (tick + 1) * config.tick_seconds
            timer.start()

            if uniform_fast:
                max_scans = uniform_scans if state.num_hosts else 0
            else:
                if spec.topology is not None:
                    rates = spec.topology.scan_rates(state.addresses())
                    budget = rates * config.tick_seconds
                else:
                    budget = per_tick_budget
                scan_accumulator = arena.accumulator(state.num_hosts)
                scan_accumulator += budget
                scans_per_host = np.floor(scan_accumulator).astype(np.int64)
                scan_accumulator -= scans_per_host
                max_scans = (
                    int(scans_per_host.max()) if state.num_hosts else 0
                )

            if max_scans > 0:
                targets = worm.generate(state, max_scans, rng)
                if uniform_fast:
                    flat_targets = targets.ravel()
                    flat_sources = arena.repeated(
                        "uniform_sources", state.addresses(), max_scans
                    )
                    source_rows = None
                else:
                    active = arena.request(
                        "active", state.num_hosts * max_scans, np.bool_
                    ).reshape(state.num_hosts, max_scans)
                    np.less(
                        np.arange(max_scans)[None, :],
                        scans_per_host[:, None],
                        out=active,
                    )
                    probe_index = np.flatnonzero(active.ravel())
                    flat_targets = np.take(
                        targets,
                        probe_index,
                        out=arena.request(
                            "flat_targets", len(probe_index), targets.dtype
                        ),
                    )
                    source_rows = np.floor_divide(
                        probe_index,
                        max_scans,
                        out=arena.request(
                            "source_rows",
                            len(probe_index),
                            probe_index.dtype,
                        ),
                    )
                    flat_sources = np.take(
                        state.addresses(),
                        source_rows,
                        out=arena.request(
                            "flat_sources", len(probe_index), np.uint32
                        ),
                    )
                total_probes += len(flat_targets)
                timer.lap("generate")

                # RNG-consuming stage: the loss draw over the full
                # flat batch, in batch order — exactly the serial
                # engine's consumption.
                loss_ok = loss.deliverable(flat_targets, rng)

                host_verdict.refresh()
                host_policy = host_verdict.host_policy_indices(
                    state.addresses()
                )
                source_indices = None
                if host_policy is not None:
                    if uniform_fast:
                        source_indices = arena.repeated(
                            "uniform_source_policy",
                            host_policy,
                            max_scans,
                            token=host_verdict.kernel,
                        )
                    else:
                        source_indices = np.take(
                            host_policy,
                            source_rows,
                            out=arena.request(
                                "flat_source_policy",
                                len(source_rows),
                                np.int64,
                            ),
                        )

                timer.lap("filter")

                fresh_per_shard: list[np.ndarray] = []
                if pool is not None:
                    # Streamed pipelined dispatch: each shard's routed
                    # bucket is gathered and handed to the pool the
                    # moment the counting partition produces it, so the
                    # first workers compute while the driver is still
                    # partitioning and staging the rest.  Every RNG
                    # draw already happened above, in serial batch
                    # order — the overlap window consumes none (the
                    # RP105 flow rule polices this).
                    try:
                        pool.begin_tick()
                        for shard_id, bucket in exchange.stream(
                            flat_targets
                        ):
                            payload = (
                                now,
                                exchange.gather(
                                    flat_sources, bucket, "sources"
                                ),
                                exchange.gather(
                                    flat_targets, bucket, "targets"
                                ),
                                exchange.gather(
                                    source_indices, bucket, "policy"
                                )
                                if source_indices is not None
                                else None,
                                exchange.gather(loss_ok, bucket, "loss")
                                if loss_active
                                else None,
                                _drain_pending(pending_immunize, shard_id),
                            )
                            timer.lap("stage")
                            pool.dispatch_shard(shard_id, payload)
                            timer.lap("dispatch")
                        replies = pool.collect(timer)
                    except Exception as error:
                        raise _ShardPoolFailure(str(error)) from error
                    for fresh, delivered in replies:
                        fresh_per_shard.append(fresh)
                        delivered_probes += delivered
                else:
                    # The exchange: route every probe to the shard
                    # owning its target, preserving batch order per
                    # shard.
                    exchange.route(flat_targets)
                    timer.lap("route")
                    shard_targets = exchange.slices(
                        exchange.permute(flat_targets, "targets")
                    )
                    shard_sources = exchange.slices(
                        exchange.permute(flat_sources, "sources")
                    )
                    shard_policy: list[Optional[np.ndarray]]
                    if source_indices is not None:
                        shard_policy = list(
                            exchange.slices(
                                exchange.permute(source_indices, "policy")
                            )
                        )
                    else:
                        shard_policy = [None] * num_shards
                    shard_loss: list[Optional[np.ndarray]]
                    if loss_active:
                        shard_loss = list(
                            exchange.slices(
                                exchange.permute(loss_ok, "loss")
                            )
                        )
                    else:
                        shard_loss = [None] * num_shards
                    timer.lap("exchange")

                    if needs_global_mask:
                        # Containment / tracing need the whole batch's
                        # mask in original order: collect per-shard
                        # deterministic verdicts, compose globally,
                        # then hand each shard its final delivered
                        # mask.
                        det_perm = np.empty(len(flat_targets), dtype=bool)
                        det_slices = exchange.slices(det_perm)
                        slot_list = []
                        for shard_id, engine in enumerate(engines):
                            det, slots = engine.deterministic(
                                shard_sources[shard_id],
                                shard_targets[shard_id],
                                shard_policy[shard_id],
                            )
                            det_slices[shard_id][:] = det
                            slot_list.append(slots)
                        ok = exchange.scatter(
                            det_perm,
                            np.empty(len(flat_targets), dtype=bool),
                        )
                        np.logical_and(ok, loss_ok, out=ok)
                        if containment is not None:
                            ok = containment.filter_probes(ok, now, rng)
                        delivered_probes += int(ok.sum())
                        mask_slices = exchange.slices(
                            exchange.permute(ok, "delivered")
                        )
                        if spec.trace_recorder is not None:
                            spec.trace_recorder.record(
                                now,
                                flat_sources[ok],
                                flat_targets[ok],
                                worm=worm.name,
                            )
                        for shard_id, engine in enumerate(engines):
                            fresh_per_shard.append(
                                engine.finish(
                                    now,
                                    shard_sources[shard_id],
                                    shard_targets[shard_id],
                                    slot_list[shard_id],
                                    mask_slices[shard_id],
                                )
                            )
                        timer.lap("shards")
                    else:
                        for shard_id, engine in enumerate(engines):
                            fresh, delivered = engine.process(
                                now,
                                shard_sources[shard_id],
                                shard_targets[shard_id],
                                shard_policy[shard_id],
                                shard_loss[shard_id],
                            )
                            fresh_per_shard.append(fresh)
                            delivered_probes += delivered
                        timer.lap("shards")

                # Merge the infection streams: per-shard arrays are
                # sorted-unique within disjoint ascending intervals,
                # so shard-order concatenation is the global
                # sorted-unique batch of the serial engine.
                fresh_all = (
                    np.concatenate(fresh_per_shard)
                    if fresh_per_shard
                    else np.empty(0, dtype=np.uint32)
                )
                if len(fresh_all):
                    population.infect(fresh_all)
                    worm.add_hosts(state, fresh_all, rng)
                    infection_times.extend([now] * len(fresh_all))
                timer.lap("merge")

            if config.patch_rate > 0:
                vulnerable = population.vulnerable_addresses()
                patch_mask = (
                    rng.random(len(vulnerable))
                    < config.patch_rate * config.tick_seconds
                )
                patched = vulnerable[patch_mask]
                population.immunize(patched)
                if len(patched):
                    patch_owner = self.plan.owner_of(patched)
                    for shard_id in range(num_shards):
                        owned = patched[patch_owner == shard_id]
                        if not len(owned):
                            continue
                        if pool is not None:
                            # Applied at the start of the shard's next
                            # tick — before any further population
                            # reads, so timing is equivalent.
                            pending_immunize[shard_id].append(owned)
                        else:
                            engines[shard_id].immunize(owned)

            if containment is not None:
                containment.update(now)

            times.append(now)
            infected_counts.append(population.num_infected)
            timer.tick()
            if population.fraction_infected >= config.stop_at_fraction:
                break
            if checkpointer is not None and checkpointer.due(tick):
                self._capture(
                    checkpointer,
                    tick,
                    rng,
                    state,
                    engines,
                    pool,
                    arena,
                    uniform_fast,
                    pending_immunize,
                    times,
                    infected_counts,
                    infection_times,
                    total_probes,
                    delivered_probes,
                )

        if pool is not None:
            try:
                collected = pool.collect_sensors()
            except Exception as error:
                raise _ShardPoolFailure(str(error)) from error
            for sensors, grids in collected:
                for sensor, clone in zip(spec.sensors, sensors):
                    sensor.absorb(clone)
                for grid, clone in zip(spec.sensor_grids, grids):
                    grid.absorb(clone)

        return SimulationResult(
            times=np.array(times),
            infected_counts=np.array(infected_counts, dtype=np.int64),
            infection_times=np.array(infection_times),
            population_size=population.size,
            total_probes=total_probes,
            delivered_probes=delivered_probes,
        )

    # -- checkpoint plumbing -------------------------------------------

    def _restore_engines(
        self,
        resume: dict,
        engines: list[ShardEngine],
        pool: Optional["ShardPool"],
    ) -> None:
        """Load per-shard state from a resume payload into the shards.

        Pool-mode checkpoints store per-shard sensor clones inside
        each engine snapshot (``layout == "pool"``); in-process
        checkpoints store engine snapshots without sensors plus one
        global snapshot per shared sensor object
        (``layout == "inproc"``).  A pool checkpoint restores into an
        in-process run by merging the per-shard sensor states (exact:
        shard boundaries are /24-aligned); the reverse split is not
        defined, so restoring an in-process checkpoint into pool
        workers refuses by name.
        """
        spec = self.spec
        layout = resume.get("layout")
        if pool is not None:
            if layout != "pool":
                raise CheckpointError(
                    f"checkpoint.layout: snapshot stores {layout!r} "
                    "shard state (shared in-process sensors), which "
                    "cannot be split back into per-shard pool clones — "
                    "resume with shard_workers=1, or restore a "
                    "pool-mode checkpoint"
                )
            try:
                pool.seed(
                    [np.empty(0, dtype=np.uint32)]
                    * self.plan.num_shards
                )
                pool.restore(resume["engines"])
            except Exception as error:
                raise _ShardPoolFailure(str(error)) from error
            return
        for engine, snapshot in zip(engines, resume["engines"]):
            engine.state_restore(snapshot, restore_sensors=False)
        if layout == "pool":
            for index, sensor in enumerate(spec.sensors):
                sensor.state_restore(
                    DarknetSensor.merge_snapshots(
                        [
                            snapshot["sensors"][index]
                            for snapshot in resume["engines"]
                        ]
                    )
                )
            for index, grid in enumerate(spec.sensor_grids):
                grid.state_restore(
                    SensorGrid.merge_snapshots(
                        [
                            snapshot["grids"][index]
                            for snapshot in resume["engines"]
                        ]
                    )
                )
        else:
            for sensor, snapshot in zip(spec.sensors, resume["sensors"]):
                sensor.state_restore(snapshot)
            for grid, snapshot in zip(spec.sensor_grids, resume["grids"]):
                grid.state_restore(snapshot)

    def _capture(
        self,
        checkpointer: "Checkpointer",
        tick: int,
        rng: np.random.Generator,
        state: "WormState",
        engines: list[ShardEngine],
        pool: Optional["ShardPool"],
        arena: TickArena,
        uniform_fast: bool,
        pending_immunize: list[list[np.ndarray]],
        times: list[float],
        infected_counts: list[int],
        infection_times: list[float],
        total_probes: int,
        delivered_probes: int,
    ) -> None:
        """Write one shard-mode checkpoint of the full run state."""
        spec = self.spec
        if pool is not None:
            try:
                engines_state = pool.snapshot()
            except Exception as error:
                raise _ShardPoolFailure(str(error)) from error
            layout = "pool"
            sensor_state = None
            grid_state = None
        else:
            engines_state = [
                engine.state_snapshot(include_sensors=False)
                for engine in engines
            ]
            layout = "inproc"
            sensor_state = [
                sensor.state_snapshot() for sensor in spec.sensors
            ]
            grid_state = [
                grid.state_snapshot() for grid in spec.sensor_grids
            ]
        carry = None
        if not uniform_fast:
            carry = arena.accumulator(state.num_hosts).copy()
        checkpointer.write(
            tick,
            {
                "layout": layout,
                "rng_state": rng.bit_generator.state,
                "worm_state": state,
                "population": spec.population.state_snapshot(),
                "engines": engines_state,
                "sensors": sensor_state,
                "grids": grid_state,
                "containment": (
                    spec.containment.state_snapshot()
                    if spec.containment is not None
                    else None
                ),
                "trace": (
                    spec.trace_recorder.state_snapshot()
                    if spec.trace_recorder is not None
                    else None
                ),
                "accumulator": carry,
                "pending_immunize": [
                    list(queued) for queued in pending_immunize
                ],
                "times": list(times),
                "infected_counts": list(infected_counts),
                "infection_times": list(infection_times),
                "total_probes": total_probes,
                "delivered_probes": delivered_probes,
            },
        )


class _ShardPoolFailure(RuntimeError):
    """The shard worker pool became unusable mid-run."""


def _drain_pending(
    pending: list[list[np.ndarray]], shard_id: int
) -> Optional[np.ndarray]:
    """Pop a shard's queued immunizations as one array (or ``None``)."""
    if not pending[shard_id]:
        return None
    batch = np.concatenate(pending[shard_id])
    pending[shard_id] = []
    return batch


def as_shard_plan(
    value: "ShardPlan | int | None",
) -> Optional[ShardPlan]:
    """Coerce a shard knob to a plan: int → even split, None → None."""
    if value is None:
        return None
    if isinstance(value, ShardPlan):
        return value
    if isinstance(value, (int, np.integer)):
        return ShardPlan.even(int(value))
    raise TypeError(
        "SimulationSpec.shards: expected a ShardPlan, an int shard "
        f"count, or None; got {type(value).__name__}"
    )


