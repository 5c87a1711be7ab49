"""Deterministic mid-run checkpoint/restore for simulation runs.

A campaign-scale run that dies at tick 3,999 of 4,000 should not
start over.  This module gives every execution mode — the serial
engine, in-process shards, and the shard worker pool — a versioned,
content-hashed snapshot format written at a configurable tick cadence
(``SimulationSpec.checkpoint_every``), and a loader that validates a
snapshot *belongs* to the spec before any state is touched.

File format
-----------
One checkpoint is one file, ``tick-<N>.ckpt``::

    {"format": "repro-checkpoint", "version": 1, "spec_hash": ...,
     "mode": "serial" | "shard", "tick": N,
     "payload_bytes": ..., "payload_sha256": ...}\\n
    <payload_bytes bytes of pickled payload>

The header line is JSON so a truncated or corrupted file is
diagnosable without unpickling anything; the payload is validated by
length and SHA-256 digest before ``pickle.loads`` ever runs.  Writes
go through the journal idiom: temp file, flush, fsync, atomic rename
— a crash mid-write can leave a stale temp file but never a torn
checkpoint.  An append-only ``checkpoints.jsonl``
(:class:`~repro.runtime.journal.TrialJournal`) indexes every write.

Validation (:func:`load_checkpoint`) fails with a
:class:`CheckpointError` *naming the offending field* — wrong
``checkpoint.spec_hash``, truncated ``checkpoint.payload_bytes``,
future ``checkpoint.version`` — never with silently-divergent
results: every code path either restores exactly or raises.

``spec_hash`` fingerprints the identity-bearing structure of a
:class:`~repro.sim.spec.SimulationSpec`: worm (by pickle digest —
worm objects are value-like), population address table, seed
material, tick budget, shard boundaries, sensor/grid layout,
containment and environment parameters.  ``checkpoint_every`` itself
is deliberately excluded — cadence never changes results, so a run
may be restored under a different cadence.

Recovery events
---------------
Mirroring :mod:`repro.runtime.perf`, an ambient collector
(:func:`recovery_collection`) gathers checkpoint / restore /
worker-respawn / serial-rerun events from anywhere in the engine
stack; the experiment registry attaches them to the
:class:`~repro.runtime.report.RunReport` so the CLI can print what
recovered and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.runtime.faults import midrun_fault_from_env
from repro.runtime.journal import TrialJournal

if TYPE_CHECKING:
    from repro.sim.spec import SimulationSpec

#: The header's ``format`` marker.
FORMAT_NAME = "repro-checkpoint"

#: The snapshot format version this build reads and writes.
FORMAT_VERSION = 1

#: Checkpoint files are ``tick-<N>.ckpt`` (zero-padded so the
#: lexicographically greatest name is the latest tick).
CHECKPOINT_SUFFIX = ".ckpt"

#: The per-directory append-only index of written checkpoints.
JOURNAL_NAME = "checkpoints.jsonl"


class CheckpointError(RuntimeError):
    """A checkpoint failed validation; the message names the field."""


# -- spec fingerprint --------------------------------------------------


def _pickle_digest(value: object) -> str:
    return hashlib.sha256(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def _array_digest(array: Any) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def spec_fingerprint(spec: "SimulationSpec") -> dict[str, Any]:
    """The identity-bearing structure of a spec, as canonical JSON data.

    Everything that changes *results* belongs here; knobs that only
    change execution (cadence, workers) do not.  The worm
    is fingerprinted by pickle digest (worm objects are immutable
    value objects; all per-run state lives in ``WormState``); the
    environment is fingerprinted structurally because its policy
    caches compiled kernels mid-run.
    """
    plan = spec.shard_plan
    environment = spec.environment
    loss = environment.loss
    nat = environment.nat
    return {
        "format": FORMAT_NAME,
        "worm": _pickle_digest(spec.worm),
        "population": _array_digest(spec.population.addresses()),
        "seed_addrs": (
            None
            if spec.seed_addrs is None
            else _array_digest(spec.seed_addrs)
        ),
        "seed_count": int(spec.seed_count),
        "scan_rate": float(spec.scan_rate),
        "tick_seconds": float(spec.tick_seconds),
        "max_time": float(spec.max_time),
        "stop_at_fraction": float(spec.stop_at_fraction),
        "patch_rate": float(spec.patch_rate),
        "shards": list(plan.boundaries) if plan is not None else None,
        "topology": (
            None
            if spec.topology is None
            else type(spec.topology).__name__
        ),
        "sensors": [
            [sensor.name, int(sensor.block.first), int(sensor.block.last)]
            for sensor in spec.sensors
        ],
        "sensor_grids": [
            [_array_digest(grid.prefixes), int(grid.alert_threshold)]
            for grid in spec.sensor_grids
        ],
        "containment": (
            None
            if spec.containment is None
            else [
                float(spec.containment.quorum_fraction),
                float(spec.containment.reaction_delay),
                float(spec.containment.block_probability),
            ]
        ),
        "trace": spec.trace_recorder is not None,
        "loss": [
            float(loss.base_rate),
            [
                [str(regional.region), float(regional.loss_rate)]
                for regional in loss.region_losses
            ],
        ],
        "nat": [
            int(nat.num_hosts),
            str(nat.intra_private_model),
            _array_digest(nat._addrs),
        ],
        "policy": [
            [
                rule.direction,
                str(rule.region),
                rule.worm,
                rule.action.name,
            ]
            for rule in environment.policy.rules
        ],
    }


def spec_hash(spec: "SimulationSpec") -> str:
    """SHA-256 over the canonical-JSON spec fingerprint."""
    canonical = json.dumps(spec_fingerprint(spec), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- writing -----------------------------------------------------------


def checkpoint_filename(tick: int) -> str:
    """The file name for one tick's checkpoint."""
    return f"tick-{tick:08d}{CHECKPOINT_SUFFIX}"


class Checkpointer:
    """Writes one run's checkpoints at a fixed tick cadence.

    Parameters
    ----------
    directory:
        Where checkpoint files and the ``checkpoints.jsonl`` index
        live (created on first write).
    every:
        Tick cadence: a checkpoint lands after ticks ``every - 1``,
        ``2*every - 1``, ... (0-based), i.e. every ``every`` ticks.
    spec_hash:
        The owning spec's :func:`spec_hash`, stamped into every
        header.
    mode:
        ``"serial"`` or ``"shard"`` — which engine layout the payload
        encodes; restore refuses a mode mismatch.
    """

    def __init__(
        self,
        directory: Union[str, "os.PathLike[str]"],
        *,
        every: int,
        spec_hash: str,
        mode: str,
    ) -> None:
        if every < 1:
            raise ValueError(
                f"Checkpointer.every must be at least 1, got {every}"
            )
        if mode not in ("serial", "shard"):
            raise ValueError(
                f"Checkpointer.mode: expected 'serial' or 'shard', "
                f"got {mode!r}"
            )
        self.directory = Path(directory)
        self.every = every
        self.spec_hash = spec_hash
        self.mode = mode
        self._journal: Optional[TrialJournal] = None

    def due(self, tick: int) -> bool:
        """True when a checkpoint should land after this 0-based tick."""
        return (tick + 1) % self.every == 0

    def _index(self) -> TrialJournal:
        if self._journal is None:
            self._journal = TrialJournal(
                self.directory / JOURNAL_NAME, resume=True
            )
        return self._journal

    def write(self, tick: int, payload: dict[str, Any]) -> Path:
        """Persist one tick's state snapshot durably and atomically.

        The payload is pickled immediately (so live engine objects
        may keep mutating afterwards), hashed, and written through
        temp-file + flush + fsync + atomic rename.  The
        ``corrupt-checkpoint`` / ``stale-checkpoint-version`` mid-run
        faults hook in here so restore-time validation can be chaos-
        tested end-to-end.
        """
        fault = midrun_fault_from_env()
        version = FORMAT_VERSION
        if (
            fault is not None
            and fault.kind == "stale-checkpoint-version"
            and fault.matches_tick(tick)
        ):
            version = FORMAT_VERSION + 1
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "format": FORMAT_NAME,
            "version": version,
            "spec_hash": self.spec_hash,
            "mode": self.mode,
            "tick": int(tick),
            "payload_bytes": len(data),
            "payload_sha256": hashlib.sha256(data).hexdigest(),
        }
        header_line = json.dumps(header, sort_keys=True) + "\n"
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self.directory / checkpoint_filename(tick)
        temp = final.with_name(final.name + ".tmp")
        with open(temp, "wb") as handle:
            handle.write(header_line.encode("utf-8"))
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
        if (
            fault is not None
            and fault.kind == "corrupt-checkpoint"
            and fault.matches_tick(tick)
        ):
            _flip_payload_byte(final, len(header_line), len(data))
        self._index().record(
            f"tick:{tick}",
            status="ok",
            attempts=1,
            tick=int(tick),
            file=final.name,
            spec_hash=self.spec_hash,
            mode=self.mode,
        )
        record_recovery("checkpoint", tick=int(tick), file=str(final))
        return final


def _flip_payload_byte(
    path: Path, header_bytes: int, payload_bytes: int
) -> None:
    """Chaos hook: corrupt one mid-payload byte in a written file."""
    offset = header_bytes + payload_bytes // 2
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


# -- reading -----------------------------------------------------------


def latest_checkpoint(
    directory: Union[str, "os.PathLike[str]"]
) -> Path:
    """The highest-tick checkpoint file in a directory."""
    base = Path(directory)
    candidates = sorted(base.glob(f"tick-*{CHECKPOINT_SUFFIX}"))
    if not candidates:
        raise CheckpointError(
            f"checkpoint.path: no checkpoint files in {base}"
        )
    return candidates[-1]


def load_checkpoint(
    path: Union[str, "os.PathLike[str]"],
    *,
    expected_spec_hash: Optional[str] = None,
    expected_mode: Optional[str] = None,
) -> dict[str, Any]:
    """Read and validate one checkpoint; returns the payload dict.

    ``path`` may be a checkpoint file or a directory (the latest
    checkpoint inside is used).  Every validation failure raises
    :class:`CheckpointError` naming the offending field; the pickled
    payload is only deserialized after the length and SHA-256 checks
    pass.  The returned payload carries ``tick`` and ``mode`` from
    the header.
    """
    target = Path(path)
    if target.is_dir():
        target = latest_checkpoint(target)
    try:
        raw = target.read_bytes()
    except OSError as error:
        raise CheckpointError(
            f"checkpoint.path: cannot read {target}: {error}"
        ) from error
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(
            f"checkpoint.header: {target} has no header line "
            "(not a checkpoint file, or truncated before the payload)"
        )
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointError(
            f"checkpoint.header: {target} does not start with a JSON "
            "header line"
        ) from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CheckpointError(
            f"checkpoint.format: expected {FORMAT_NAME!r}, "
            f"got {header.get('format') if isinstance(header, dict) else header!r}"
        )
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint.version: file has version {version!r}, this "
            f"build reads version {FORMAT_VERSION} — refusing to guess "
            "at an unknown layout"
        )
    if (
        expected_spec_hash is not None
        and header.get("spec_hash") != expected_spec_hash
    ):
        raise CheckpointError(
            "checkpoint.spec_hash: snapshot belongs to a different "
            f"simulation spec (file: {header.get('spec_hash')!r}, "
            f"expected: {expected_spec_hash!r}) — restoring it would "
            "silently diverge"
        )
    mode = header.get("mode")
    if expected_mode is not None and mode != expected_mode:
        raise CheckpointError(
            f"checkpoint.mode: snapshot was written by a {mode!r} run "
            f"but this run executes as {expected_mode!r}"
        )
    data = raw[newline + 1 :]
    declared = header.get("payload_bytes")
    if not isinstance(declared, int) or len(data) != declared:
        raise CheckpointError(
            f"checkpoint.payload_bytes: header declares {declared!r} "
            f"bytes, file holds {len(data)} (truncated snapshot?)"
        )
    digest = hashlib.sha256(data).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(
            "checkpoint.payload_sha256: content digest mismatch "
            f"(header {header.get('payload_sha256')!r}, payload "
            f"{digest!r}) — the snapshot is corrupted"
        )
    try:
        payload = pickle.loads(data)
    except Exception as error:
        raise CheckpointError(
            f"checkpoint.payload: cannot unpickle snapshot: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise CheckpointError(
            "checkpoint.payload: expected a state dict, got "
            f"{type(payload).__name__}"
        )
    payload["tick"] = int(header["tick"])
    payload["mode"] = mode
    return payload


# -- recovery-event collection ----------------------------------------


@dataclass
class RecoveryLog:
    """Recovery events gathered while a collection context is active.

    Each event is a plain dict with at least a ``kind`` key —
    ``"checkpoint"``, ``"restore"``, ``"worker-respawn"``, or
    ``"serial-rerun"`` — plus kind-specific detail (tick, shard id,
    reason, replayed tick count).
    """

    events: list[dict[str, Any]] = field(default_factory=list)


#: Active collection contexts (a stack: events go to every level, so
#: an outer campaign-wide collector still sees what an inner test
#: context captured).
_ACTIVE_LOGS: list[RecoveryLog] = []


@contextmanager
def recovery_collection() -> Iterator[RecoveryLog]:
    """Collect recovery events from everything run inside the block."""
    log = RecoveryLog()
    _ACTIVE_LOGS.append(log)
    try:
        yield log
    finally:
        _ACTIVE_LOGS.remove(log)


def record_recovery(kind: str, **info: Any) -> None:
    """Report one recovery event to every active collection."""
    if not _ACTIVE_LOGS:
        return
    event: dict[str, Any] = {"kind": kind, **info}
    for log in _ACTIVE_LOGS:
        log.events.append(event)


__all__ = [
    "CHECKPOINT_SUFFIX",
    "CheckpointError",
    "Checkpointer",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "JOURNAL_NAME",
    "RecoveryLog",
    "checkpoint_filename",
    "latest_checkpoint",
    "load_checkpoint",
    "record_recovery",
    "recovery_collection",
    "spec_fingerprint",
    "spec_hash",
]
