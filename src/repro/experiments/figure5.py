"""Figure 5 — outbreak simulations and the blindness of distributed
detection.

* (a) **Hit-list infection rate**: the CodeRedII-based hit-list worm
  released over the synthetic vulnerable population (134,586 hosts in
  47 /8s, 25 seeds, 10 scans/s) with hit-lists of 10/100/1000/4481
  /16s.  The smallest list infects its (small) reachable population
  fastest; the largest reaches everyone but more slowly.
* (b) **Hit-list detection rate**: one /24 sensor in each of the 4481
  vulnerable /16s, alerting after 5 payloads.  Hotspots starve most
  sensors: even at >90% infected only a small fraction have alerted,
  so any quorum rule above that fraction never fires.
* (c) **NATs and sensor placement**: the CodeRedII-type worm with 15%
  of vulnerable hosts NATed at 192.168/16, against three placements —
  10,000 random /24s, 10,000 random /24s inside the top-20 /8s, and
  one /24 per /16 of 192/8 (avoiding 192.168/16).  Random placement
  is slow; population-aware placement helps; the 192/8 placement
  alerts everywhere before the worm reaches 20% of the population.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.env.environment import NetworkEnvironment
from repro.net.cidr import BlockSet, CIDRBlock
from repro.population.model import HostPopulation
from repro.population.synthesis import (
    PopulationSpec,
    as_population_spec,
    nat_population,
    synthesize_clustered_population,
)
from repro.sensors.deployment import (
    SensorGrid,
    place_one_per_block,
    place_random,
    place_within_blocks,
)
from repro.sensors.detection import AlertTimeline
from repro.runtime import Trial, TrialRunner, as_seed_sequence
from repro.sim.engine import SimulationResult
from repro.sim.spec import SimulationSpec, simulate
from repro.worms.codered2 import CodeRedIIWorm
from repro.worms.hitlist import HitListCodeRedIIWorm, build_greedy_hitlist

HITLIST_SIZES = (10, 100, 1000, 4481)
ALERT_THRESHOLD = 5


@dataclass(frozen=True)
class HitlistRun:
    """One hit-list size's outbreak and detection outcome."""

    num_prefixes: int
    coverage: float
    result: SimulationResult
    alert_timeline: AlertTimeline
    sensors_alerted_at_90pct: Optional[float]


@dataclass(frozen=True)
class Figure5ABResult:
    """Figure 5(a) infection curves and 5(b) detection curves."""

    runs: tuple[HitlistRun, ...]
    total_slash16s: int

    @property
    def small_list_fastest(self) -> bool:
        """Smaller hit-lists saturate their reachable hosts sooner."""
        times = []
        for run in self.runs:
            target = 0.9 * run.coverage
            times.append(run.result.time_to_fraction(target))
        return all(
            earlier is not None and (later is None or earlier <= later)
            for earlier, later in zip(times, times[1:])
        )

    @property
    def large_list_reaches_more(self) -> bool:
        """Bigger hit-lists infect a larger final fraction."""
        finals = [run.result.final_fraction_infected for run in self.runs]
        return all(a <= b + 0.02 for a, b in zip(finals, finals[1:]))

    @property
    def detection_starved(self) -> bool:
        """Sensors outside the hit-list never alert.

        For every partial hit-list, the final alert fraction stays at
        (or below) the list's share of monitored /16s — so a quorum
        rule demanding more than that share can never fire, no matter
        how far the infection progresses.  At paper scale the 1000-
        prefix list infects >90% of the population while only
        1000/4481 ≈ 22% of sensors alert — the paper's "only slightly
        more than 20% of the detectors have alerted".
        """
        checks = []
        for run in self.runs:
            share = min(run.num_prefixes / self.total_slash16s, 1.0)
            if share >= 0.99:
                continue
            checks.append(
                run.alert_timeline.final_fraction() <= share * 1.3 + 0.02
            )
        return bool(checks) and all(checks)


def _hitlist_trial(
    base_population: np.ndarray,
    num_prefixes: int,
    scan_rate: float,
    seed_count: int,
    max_time: float,
    seed: "np.random.SeedSequence | int",
    shards: Optional[int] = None,
    shard_workers: int = 1,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    restore_from: Optional[str] = None,
) -> HitlistRun:
    """One hit-list size's outbreak and detection outcome.

    Module-level so the trial runner can ship it to pool workers; the
    RNG builds from the seed material here, on whichever process runs
    the trial, so serial and parallel campaigns match bitwise.
    ``shards`` selects the sharded engine (identical results — the
    exchange contract), so internet-scale populations can split their
    per-tick work, and ``shard_workers`` fans those shards out over a
    process pool (supervised — respawn from the latest checkpoint —
    when checkpointing is on).
    ``checkpoint_every``/``checkpoint_dir``
    snapshot
    mid-run state (per hit-list size, in a ``hitlist-<N>`` subdir),
    and ``restore_from`` resumes from the latest snapshot there —
    again bitwise-identical to an uninterrupted run.
    """
    rng = np.random.default_rng(seed)
    hitlist, coverage = build_greedy_hitlist(base_population, num_prefixes)
    worm = HitListCodeRedIIWorm(hitlist)
    # One /24 sensor in every vulnerable /16 (the 5(b) deployment).
    vulnerable_16s = [
        CIDRBlock(int(prefix) << 16, 16)
        for prefix in np.unique(base_population >> 16)
    ]
    grid = SensorGrid(
        place_one_per_block(vulnerable_16s, rng),
        alert_threshold=ALERT_THRESHOLD,
    )
    # Seed inside the hit-list so the outbreak can actually start.
    seeds = rng.choice(
        base_population[hitlist.contains_array(base_population)],
        size=seed_count,
        replace=False,
    )
    spec = SimulationSpec(
        worm=worm,
        population=HostPopulation(base_population),
        sensor_grids=(grid,),
        scan_rate=scan_rate,
        max_time=max_time,
        seed_count=seed_count,
        stop_at_fraction=min(0.97 * coverage, 1.0),
        shards=shards,
        seed_addrs=seeds,
        checkpoint_every=checkpoint_every,
    )
    # Each hit-list size is an independent simulation, so each gets
    # its own checkpoint subdirectory.
    subdir = f"hitlist-{num_prefixes}"
    result = simulate(
        spec,
        rng,
        shard_workers=shard_workers,
        checkpoint_dir=(
            os.path.join(checkpoint_dir, subdir)
            if checkpoint_dir is not None
            else None
        ),
        restore_from=(
            os.path.join(restore_from, subdir)
            if restore_from is not None
            else None
        ),
    )

    timeline = AlertTimeline.from_alert_times(
        grid.alert_times(), horizon=result.times[-1]
    )
    t90 = result.time_to_fraction(0.9 * coverage)
    alerted_at_90 = timeline.fraction_at(t90) if t90 is not None else None
    return HitlistRun(
        num_prefixes=num_prefixes,
        coverage=coverage,
        result=result,
        alert_timeline=timeline,
        sensors_alerted_at_90pct=alerted_at_90,
    )


def run_infection(
    population_spec: Union[PopulationSpec, Mapping[str, object], None] = None,
    hitlist_sizes: Sequence[int] = HITLIST_SIZES,
    scan_rate: float = 10.0,
    seed_count: int = 25,
    max_time: float = 2_000.0,
    seed: "int | np.random.SeedSequence" = 2005,
    workers: int = 1,
    shards: Optional[int] = None,
    shard_workers: int = 1,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    restore_from: Optional[str] = None,
) -> Figure5ABResult:
    """Figure 5(a) and (b) in one pass: infect and observe.

    Each hit-list size is an independent simulation under its own
    ``SeedSequence`` child, so the per-size runs fan out over
    ``workers`` processes with results identical to the serial loop.
    ``shards`` additionally splits each simulation's address space
    across that many shard engines — numerically a no-op (the sharded
    engine is bitwise-equal to the serial reference).
    ``checkpoint_every``/``checkpoint_dir``/``restore_from`` snapshot
    and resume each per-size simulation mid-run (also a no-op on
    results — see :mod:`repro.runtime.checkpoint`).
    """
    spec = as_population_spec(population_spec)
    population_seq, *size_seqs = as_seed_sequence(seed).spawn(
        len(tuple(hitlist_sizes)) + 1
    )
    rng = np.random.default_rng(population_seq)
    base_population = synthesize_clustered_population(spec, rng)

    trials = [
        Trial(
            func=_hitlist_trial,
            kwargs=dict(
                base_population=base_population,
                num_prefixes=num_prefixes,
                scan_rate=scan_rate,
                seed_count=seed_count,
                max_time=max_time,
                shards=shards,
                shard_workers=shard_workers,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
                restore_from=restore_from,
            ),
            seed=size_seq,
            label=f"hitlist[{num_prefixes}]",
        )
        for num_prefixes, size_seq in zip(hitlist_sizes, size_seqs)
    ]
    runs = TrialRunner(workers=workers).run(trials)
    total_slash16s = len(np.unique(base_population >> 16))
    return Figure5ABResult(runs=tuple(runs), total_slash16s=total_slash16s)


def format_infection(result: Figure5ABResult) -> str:
    """Figure 5(a) as a table of infection milestones."""
    lines = [
        "Hit-list infection rate (CodeRedII-based, 25 seeds, 10 scans/s):"
    ]
    for run in result.runs:
        half = run.result.time_to_fraction(0.5 * run.coverage)
        lines.append(
            f"  {run.num_prefixes:>5} prefixes  coverage={run.coverage:5.1%}  "
            f"t(50% of reachable)={half if half is not None else '>horizon'}s  "
            f"final={run.result.final_fraction_infected:5.1%}"
        )
    lines.append(
        f"  small list fastest? {result.small_list_fastest}; "
        f"large list reaches more? {result.large_list_reaches_more}"
    )
    return "\n".join(lines)


#: Figure 5(b) shares the run with 5(a); its formatter reports the
#: sensor side.  The signature is spelled out (rather than ``**kwargs``)
#: so the registry can introspect defaults for ``--list`` and cache
#: keys.
def run_detection(
    population_spec: Union[PopulationSpec, Mapping[str, object], None] = None,
    hitlist_sizes: Sequence[int] = HITLIST_SIZES,
    scan_rate: float = 10.0,
    seed_count: int = 25,
    max_time: float = 2_000.0,
    seed: "int | np.random.SeedSequence" = 2005,
    workers: int = 1,
    shards: Optional[int] = None,
    shard_workers: int = 1,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    restore_from: Optional[str] = None,
) -> Figure5ABResult:
    """Figure 5(b) — same simulation, detection view."""
    return run_infection(
        population_spec=population_spec,
        hitlist_sizes=hitlist_sizes,
        scan_rate=scan_rate,
        seed_count=seed_count,
        max_time=max_time,
        seed=seed,
        workers=workers,
        shards=shards,
        shard_workers=shard_workers,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        restore_from=restore_from,
    )


def format_detection(result: Figure5ABResult) -> str:
    """Figure 5(b) as alert fractions at the 90%-infected milestone."""
    lines = [
        f"Sensor detection rate ({result.total_slash16s} /24 sensors, "
        "alert at 5 payloads):"
    ]
    for run in result.runs:
        alerted = run.sensors_alerted_at_90pct
        share = min(run.num_prefixes / result.total_slash16s, 1.0)
        lines.append(
            f"  {run.num_prefixes:>5} prefixes (share {share:5.1%}): "
            f"alerted at 90%-of-reachable infected = "
            f"{f'{alerted:.1%}' if alerted is not None else 'n/a'}"
            f", final = {run.alert_timeline.final_fraction():.1%}"
        )
    lines.append(f"  detection starved? {result.detection_starved}")
    return "\n".join(lines)


@dataclass(frozen=True)
class PlacementRun:
    """One sensor-placement strategy's alert curve."""

    name: str
    num_sensors: int
    timeline: AlertTimeline
    alerted_at_20pct_infected: float


@dataclass(frozen=True)
class Figure5CResult:
    """Figure 5(c): placement strategies against the NATed worm."""

    placements: tuple[PlacementRun, ...]
    result: SimulationResult

    def placement(self, name: str) -> PlacementRun:
        """Look one strategy up by name."""
        for run in self.placements:
            if run.name == name:
                return run
        raise KeyError(name)

    @property
    def targeted_placement_wins(self) -> bool:
        """The 192/8 placement alerts fully before 20% infected,
        while random placement lags far behind."""
        targeted = self.placement("192/8 per-/16")
        random_wide = self.placement("random")
        return (
            targeted.alerted_at_20pct_infected > 0.95
            and random_wide.alerted_at_20pct_infected
            < targeted.alerted_at_20pct_infected
        )


def run_nat_detection(
    population_spec: Union[PopulationSpec, Mapping[str, object], None] = None,
    nat_fraction: float = 0.15,
    num_random_sensors: int = 10_000,
    scan_rate: float = 10.0,
    seed_count: int = 25,
    max_time: float = 1_200.0,
    stop_at_fraction: float = 0.5,
    seed: int = 2006,
    stratify_nat_seeds: bool = False,
    shards: Optional[int] = None,
) -> Figure5CResult:
    """Figure 5(c): one outbreak, three sensor deployments.

    ``stratify_nat_seeds`` forces the seed set to include NATed hosts
    in proportion to ``nat_fraction`` (at least one).  The paper
    seeds uniformly; stratification matters for small populations or
    fractions, where an unlucky draw can leave the NATed
    subpopulation unreachable (private hosts are only infectable from
    private space) and the experiment degenerates.
    """
    spec = as_population_spec(population_spec)
    rng = np.random.default_rng(seed)
    base_population = synthesize_clustered_population(spec, rng)
    addrs, nat = nat_population(base_population, nat_fraction, rng)
    population = HostPopulation(addrs)
    environment = NetworkEnvironment(nat=nat)

    # Placement 1: random /24s across the whole IPv4 space.
    grid_random = SensorGrid(
        place_random(num_random_sensors, rng), alert_threshold=ALERT_THRESHOLD
    )
    # Placement 2: random /24s inside the top-20 /8s by (pre-NAT)
    # vulnerable population — "organizations ... collaboratively
    # determine where potentially vulnerable hosts were located".
    per8 = np.bincount(base_population >> 24, minlength=256)
    top_octets = np.argsort(per8)[::-1][:20]
    top_blocks = BlockSet(
        CIDRBlock(int(octet) << 24, 8) for octet in top_octets if per8[octet]
    )
    grid_top20 = SensorGrid(
        place_random(num_random_sensors, rng, within=top_blocks),
        alert_threshold=ALERT_THRESHOLD,
    )
    # Placement 3: one /24 per /16 of 192/8, avoiding 192.168/16.
    slash16s = CIDRBlock.parse("192.0.0.0/8").subblocks(16)
    grid_192 = SensorGrid(
        place_within_blocks(
            slash16s, rng, exclude=BlockSet.parse(["192.168.0.0/16"])
        ),
        alert_threshold=ALERT_THRESHOLD,
    )

    worm = CodeRedIIWorm()
    seed_addrs = None
    if stratify_nat_seeds and nat.num_hosts:
        from repro.net.special import is_private

        private_mask = is_private(addrs)
        num_nat_seeds = min(
            max(1, round(seed_count * nat_fraction)), int(private_mask.sum())
        )
        seed_addrs = np.concatenate(
            [
                rng.choice(addrs[private_mask], num_nat_seeds, replace=False),
                rng.choice(
                    addrs[~private_mask],
                    seed_count - num_nat_seeds,
                    replace=False,
                ),
            ]
        )
    sim_spec = SimulationSpec(
        worm=worm,
        population=population,
        environment=environment,
        sensor_grids=(grid_random, grid_top20, grid_192),
        scan_rate=scan_rate,
        max_time=max_time,
        seed_count=seed_count,
        stop_at_fraction=stop_at_fraction,
        shards=shards,
        seed_addrs=seed_addrs,
    )
    result = simulate(sim_spec, rng)

    t20 = result.time_to_fraction(0.20)
    horizon = float(result.times[-1])
    placements = []
    for name, grid in (
        ("random", grid_random),
        ("top-20 /8s", grid_top20),
        ("192/8 per-/16", grid_192),
    ):
        timeline = AlertTimeline.from_alert_times(grid.alert_times(), horizon)
        at_20 = timeline.fraction_at(t20) if t20 is not None else 0.0
        placements.append(
            PlacementRun(
                name=name,
                num_sensors=grid.num_sensors,
                timeline=timeline,
                alerted_at_20pct_infected=at_20,
            )
        )
    return Figure5CResult(placements=tuple(placements), result=result)


def format_nat_detection(result: Figure5CResult) -> str:
    """Figure 5(c) as alert fractions at the 20%-infected milestone."""
    lines = [
        "Sensor placement vs NATed CodeRedII-type worm "
        f"(final infected {result.result.final_fraction_infected:.1%}):"
    ]
    for run in result.placements:
        lines.append(
            f"  {run.name:<14} ({run.num_sensors:>5} sensors): "
            f"alerted at 20% infected = {run.alerted_at_20pct_infected:.1%}, "
            f"final = {run.timeline.final_fraction():.1%}"
        )
    lines.append(f"  targeted placement wins? {result.targeted_placement_wins}")
    return "\n".join(lines)
