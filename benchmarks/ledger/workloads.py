"""The ledger's four workloads: inputs, the timed call, and its checks.

Every workload goes through the public API only —
:func:`repro.sim.spec.simulate` or ``registry.get(id).run`` — and is
built from the benchmark seed alone, so the same seed always yields
the same inputs and therefore the same result digest.

Importing this module imports numpy and :mod:`repro`; the harness
times that import as part of ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.env.environment import NetworkEnvironment
from repro.env.failures import LossModel, RegionLoss
from repro.env.filtering import FilteringPolicy, FilterRule
from repro.experiments import registry
from repro.net.cidr import CIDRBlock
from repro.population.model import HostPopulation
from repro.sensors.darknet import ims_standard_deployment
from repro.sim.spec import SimulationSpec, simulate
from repro.worms.uniform import UniformScanWorm


def _population(total_hosts: int, num_slash16: int) -> dict[str, Any]:
    """The benchmarks' reduced population with the paper's clustering."""
    return {
        "total_hosts": total_hosts,
        "num_slash8": 20,
        "num_slash16": num_slash16,
        "anchors": ((0, 0.0), (10, 0.106), (100, 0.5049), (num_slash16, 1.0)),
        "major_slash8s": 10,
        "major_share": 0.94,
    }


#: Workload sizes.  ``full`` is what BENCHMARK.json measures; ``smoke``
#: runs every code path in seconds, for the tests.  Figure 5(c) seeds
#: 250 hosts over a 600 s horizon rather than the paper's 25 over
#: 1200 s: with 25 seeds the random take-off alone moves the probe
#: volume ±6% from seed to seed, more than the regression bound.
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "outbreak_hosts": 1_000_000,
        "outbreak_ticks": 30,
        "pool_shards": 4,
        "pool_workers": 2,
        "fig5b": {
            "population_spec": _population(30_000, 1_000),
            "hitlist_sizes": (10, 100),
            "max_time": 2_000.0,
            "checkpoint_every": 100,
        },
        "fig5c": {
            "population_spec": _population(20_000, 700),
            "num_random_sensors": 5_000,
            "seed_count": 250,
            "max_time": 600.0,
        },
    },
    # Small enough for seconds, large enough that the shapes still
    # hold: a dense 40-/16 population for the hit-lists, and the full
    # 5(c) population stopped at 20% infected (the 192/8 grid needs
    # that many probes to alert everywhere).
    "smoke": {
        "outbreak_hosts": 20_000,
        "outbreak_ticks": 4,
        "pool_shards": 4,
        "pool_workers": 2,
        "fig5b": {
            "population_spec": {
                "total_hosts": 3_000,
                "num_slash8": 5,
                "num_slash16": 40,
                "anchors": ((0, 0.0), (4, 0.3), (40, 1.0)),
                "major_slash8s": 3,
                "major_share": 0.9,
            },
            "hitlist_sizes": (4, 20),
            "max_time": 1_000.0,
            "checkpoint_every": 100,
        },
        "fig5c": {
            "population_spec": _population(20_000, 700),
            "num_random_sensors": 1_000,
            "seed_count": 250,
            "max_time": 600.0,
            "stop_at_fraction": 0.2,
        },
    },
}


@dataclass
class Prepared:
    """One workload's inputs, built and ready for the timed call."""

    hosts: int
    call: Callable[[], Any]
    #: Per-run scratch directory (checkpoints), removed by ``cleanup``.
    scratch: Optional[str] = None

    def cleanup(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch)


def _outbreak_spec(
    num_hosts: int, num_ticks: int, shards: Optional[int], seed: int
) -> SimulationSpec:
    """The shard benchmark's outbreak: uniform worm, policy, loss, IMS.

    Same construction as ``benchmarks/bench_shard.py`` — egress and
    ingress filtering, 5% loss plus 50% in one /8, the IMS darknets,
    a quarter of the hosts seeded — restated here so the ledger does
    not depend on the legacy benchmark scripts.
    """
    rng = np.random.default_rng(seed)
    addrs = np.unique(
        rng.integers(
            1 << 24, 224 << 24, size=num_hosts, dtype=np.uint64
        ).astype(np.uint32)
    )
    policy = FilteringPolicy(
        [
            FilterRule("egress", CIDRBlock.parse("20.0.0.0/8")),
            FilterRule("ingress", CIDRBlock.parse("60.0.0.0/8")),
        ]
    )
    loss = LossModel(
        base_rate=0.05,
        region_losses=[RegionLoss(CIDRBlock.parse("100.0.0.0/8"), 0.5)],
    )
    return SimulationSpec(
        worm=UniformScanWorm(),
        population=HostPopulation(addrs),
        environment=NetworkEnvironment(policy=policy, loss=loss),
        sensors=tuple(ims_standard_deployment()),
        scan_rate=10.0,
        max_time=float(num_ticks),
        seed_count=max(1, num_hosts // 4),
        shards=shards,
    )


@dataclass(frozen=True)
class OutbreakOutcome:
    """What one outbreak run leaves behind: the result and its sensors."""

    result: Any
    sensors: tuple[tuple[str, np.ndarray, np.ndarray], ...]


def prepare(name: str, seed: int, size: str, scratch_root: str) -> Prepared:
    """Build a workload's inputs; the returned ``call`` is what is timed."""
    sizes = SIZES[size]
    if name in ("outbreak-fused", "outbreak-pool"):
        pooled = name == "outbreak-pool"
        spec = _outbreak_spec(
            sizes["outbreak_hosts"],
            sizes["outbreak_ticks"],
            sizes["pool_shards"] if pooled else None,
            seed,
        )
        workers = sizes["pool_workers"] if pooled else 1

        def run_outbreak() -> OutbreakOutcome:
            result = simulate(spec, seed, shard_workers=workers)
            return OutbreakOutcome(
                result=result,
                sensors=tuple(
                    (
                        sensor.name,
                        sensor.probes_by_slash24(),
                        sensor.unique_sources_by_slash24(),
                    )
                    for sensor in spec.sensors
                ),
            )

        return Prepared(spec.population.size, run_outbreak)
    if name == "fig5b-hitlist":
        experiment = registry.get("figure5b")
        experiment.resolve()
        params = dict(sizes["fig5b"])
        scratch = tempfile.mkdtemp(prefix="fig5b-", dir=scratch_root)
        return Prepared(
            params["population_spec"]["total_hosts"],
            lambda: experiment.run(
                workers=1, seed=seed, checkpoint_dir=scratch, **params
            ),
            scratch=scratch,
        )
    if name == "fig5c-nat":
        experiment = registry.get("figure5c")
        experiment.resolve()
        params = dict(sizes["fig5c"])
        return Prepared(
            params["population_spec"]["total_hosts"],
            lambda: experiment.run(
                seed=seed, stratify_nat_seeds=True, **params
            ),
        )
    raise KeyError(f"unknown workload {name!r}")


# -- digests and checks ------------------------------------------------


def digest(value: Any) -> str:
    """A SHA-256 over a result's structure, dtypes and exact bytes.

    Walks dataclasses, sequences, mappings, arrays and scalars; floats
    hash by their exact bits.  Anything else raises ``TypeError`` so a
    new result field can never be silently left out.
    """
    hasher = hashlib.sha256()
    _feed(hasher, value)
    return hasher.hexdigest()


def _feed(hasher: Any, value: Any) -> None:
    def put(text: str) -> None:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x00")

    if isinstance(value, np.ndarray):
        put(f"array:{value.dtype.str}:{value.shape}")
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif value is None:
        put("none")
    elif isinstance(value, (bool, np.bool_)):
        put(f"bool:{bool(value)}")
    elif isinstance(value, (int, np.integer)):
        put(f"int:{int(value)}")
    elif isinstance(value, (float, np.floating)):
        put(f"float:{float(value).hex()}")
    elif isinstance(value, str):
        put(f"str:{value}")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        put(f"dataclass:{type(value).__name__}")
        for field in dataclasses.fields(value):
            put(field.name)
            _feed(hasher, getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        put(f"seq:{len(value)}")
        for item in value:
            _feed(hasher, item)
    elif isinstance(value, dict):
        put(f"map:{len(value)}")
        for key in sorted(value):
            put(str(key))
            _feed(hasher, value[key])
    else:
        raise TypeError(f"digest: unsupported type {type(value).__name__}")


#: The paper-level shape properties each campaign result must keep.
SHAPES = {
    "fig5b-hitlist": (
        "small_list_fastest",
        "large_list_reaches_more",
        "detection_starved",
    ),
    "fig5c-nat": ("targeted_placement_wins",),
}


def summarize(name: str, outcome: Any) -> dict[str, Any]:
    """Digest, counts and failed shape properties of one timed call.

    The digest covers every result array, the probe counts, and the
    sensor state: darknet counters for the outbreaks, grid alert
    timelines for the campaigns.
    """
    if name.startswith("outbreak"):
        payload, results = outcome, [outcome.result]
    else:
        payload = outcome.result
        if name == "fig5b-hitlist":
            results = [run.result for run in payload.runs]
        else:
            results = [payload.result]
    return {
        "digest": digest(payload),
        "ticks": sum(len(result.times) for result in results),
        "probes": sum(int(result.total_probes) for result in results),
        "delivered": sum(int(result.delivered_probes) for result in results),
        # Seeds carry infection time 0; every later infection is > 0.
        "infections": sum(
            int(np.count_nonzero(result.infection_times > 0))
            for result in results
        ),
        "shape_failures": [
            prop for prop in SHAPES.get(name, ()) if not getattr(payload, prop)
        ],
    }


def checkpoint_totals(events: list[dict[str, Any]]) -> tuple[int, int]:
    """(writes, bytes) of the checkpoint files a run's events name."""
    files = [event["file"] for event in events if event["kind"] == "checkpoint"]
    return len(files), sum(os.path.getsize(path) for path in files)
