"""Layer spans recorded from outside the program.

The ledger does not instrument ``src/``.  Instead :class:`Tracer`
replaces each layer's public entry points (:data:`TARGETS`) with a
wrapper that records a span — name, start, end, and the enclosing
span — and restores the originals on :meth:`Tracer.uninstall`.  A
layer's *self time* is its span time minus the part of that interval
covered by child spans, so the self times of every span, the root
included, add up to the root span exactly; the root's own self time is
what no layer claims (``trace.unattributed_s``).

A target that no longer exists (a later refactor deleted or renamed
it) is listed in :attr:`Tracer.absent` instead of failing the run.
Pool workers forked while the tracer is installed inherit the
wrappers, but their spans stay in the worker: worker compute shows up
only as the driver's ``runtime.shardpool.collect`` wait.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Target:
    """One public callable whose calls count toward a layer.

    ``attr`` is ``"function"`` or ``"Class.method"``.  With
    ``subclasses``, every subclass that overrides the method is
    wrapped too (each worm class defines its own ``generate``).
    """

    layer: str
    module: str
    attr: str
    subclasses: bool = False


#: Every layer boundary the traced run times, grouped by module.
TARGETS: tuple[Target, ...] = (
    Target("worms.generate", "repro.worms.base", "WormModel.generate", True),
    Target("worms.add_hosts", "repro.worms.base", "WormModel.add_hosts", True),
    Target("worms.build_hitlist", "repro.worms.hitlist", "build_greedy_hitlist"),
    Target("net.locate", "repro.net.kernels", "MergedPartition.locate"),
    Target("env.loss", "repro.env.failures", "LossModel.deliverable"),
    Target("env.nat", "repro.env.nat", "NATDeployment.deliverable"),
    Target(
        "env.deterministic",
        "repro.env.environment",
        "NetworkEnvironment.deterministic_deliverable",
    ),
    Target("sensors.dispatch", "repro.sensors.index", "SensorIndex.dispatch"),
    Target(
        "sensors.dispatch",
        "repro.sensors.index",
        "SensorIndex.dispatch_from_owner_slots",
    ),
    Target("sensors.place", "repro.sensors.deployment", "place_random"),
    Target("sensors.place", "repro.sensors.deployment", "place_one_per_block"),
    Target("sensors.place", "repro.sensors.deployment", "place_within_blocks"),
    Target(
        "population.vulnerable_hits",
        "repro.population.model",
        "HostPopulation.vulnerable_hits",
    ),
    Target("population.infect", "repro.population.model", "HostPopulation.infect"),
    Target(
        "population.synthesize",
        "repro.population.synthesis",
        "synthesize_clustered_population",
    ),
    Target("sim.run", "repro.sim.engine", "EpidemicSimulator.run"),
    Target("sim.run", "repro.sim.shard", "ShardedSimulator.run"),
    Target("runtime.shardpool.spawn", "repro.runtime.shardpool", "ShardPool.__init__"),
    Target("runtime.shardpool.spawn", "repro.runtime.shardpool", "ShardPool.seed"),
    Target(
        "runtime.shardpool.dispatch", "repro.runtime.shardpool", "ShardPool.begin_tick"
    ),
    Target(
        "runtime.shardpool.dispatch",
        "repro.runtime.shardpool",
        "ShardPool.dispatch_shard",
    ),
    Target("runtime.shardpool.collect", "repro.runtime.shardpool", "ShardPool.collect"),
    Target(
        "runtime.shardpool.collect",
        "repro.runtime.shardpool",
        "ShardPool.collect_sensors",
    ),
    Target("runtime.shardpool.close", "repro.runtime.shardpool", "ShardPool.close"),
    Target("runtime.checkpoint.write", "repro.runtime.checkpoint", "Checkpointer.write"),
    Target("runtime.trials", "repro.runtime.runner", "TrialRunner.run_report"),
)

#: Layer names in report order (each reported as ``.self_s``/``.calls``).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))

ROOT = "root"


def resolve(module: str, attr: str) -> Optional[tuple[Any, str, Any]]:
    """``(owner, name, callable)`` for a target, or ``None`` if gone."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(name)
    if not callable(original):
        return None
    return owner, name, original


def _overriding_subclasses(cls: type, name: str) -> Iterator[type]:
    for sub in cls.__subclasses__():
        if name in vars(sub):
            yield sub
        yield from _overriding_subclasses(sub, name)


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        """Set ``owner.name``; ``name`` must be defined on ``owner`` itself."""
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def replace_function(self, name: str, original: Any, value: Any) -> None:
        """Replace a module function and every ``repro`` alias of it.

        Modules that did ``from x import f`` hold their own reference,
        so each one is patched wherever it still points at
        ``original``.
        """
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "repro":
                continue
            if vars(mod).get(name) is original:
                self.replace(mod, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class Tracer:
    """In-memory spans around the calls listed in :data:`TARGETS`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list[Any]] = []
        self.absent: list[str] = []
        self._clock = clock
        self._local = threading.local()
        self._patches = Patches()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, self._clock(), None, stack[-1] if stack else None])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = self._clock()

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` recording a span per call.

        A call made while a span of the same name is open (an
        overriding method calling ``super()``) belongs to that span.
        """

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack and self.spans[stack[-1]][0] == name:
                return func(*args, **kwargs)
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for target in targets:
            found = resolve(target.module, target.attr)
            if found is None:
                self.absent.append(f"{target.layer}: {target.module}.{target.attr}")
                continue
            owner, name, original = found
            if isinstance(owner, type):
                classes = [owner]
                if target.subclasses:
                    classes.extend(_overriding_subclasses(owner, name))
                for cls in dict.fromkeys(classes):
                    self._patches.replace(
                        cls, name, self.wrap(target.layer, vars(cls)[name])
                    )
            else:
                self._patches.replace_function(
                    name, original, self.wrap(target.layer, original)
                )

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        self._patches.undo()


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        cursor = start
        for kid_start, kid_end in sorted(kids):
            low = max(kid_start, cursor)
            high = min(kid_end, end)
            if high > low:
                covered += high - low
            cursor = max(cursor, min(kid_end, end))
        result.append((end - start) - covered)
    return result


def layer_totals(spans: Sequence[Sequence[Any]]) -> dict[str, dict[str, float]]:
    """Self seconds and call count per span name."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return totals
