"""The outbreak ledger: end-to-end and per-layer cost of figure-5-class runs.

Four workloads (see README.md) run through the public API only.  Each
timed repeat runs in a fresh subprocess with ``OMP_NUM_THREADS=1``;
repeats go round-robin across workloads, so drift on a shared host
hits every workload alike.  Once per invocation, outside the timed
repeats, each workload's result digest under ``kernel_override(False)``
is computed (or read from a cache keyed by the sources) and every
repeat must match it.

Usage, from the repository root::

    python benchmarks/ledger/run.py --seed 2006            # all workloads
    python benchmarks/ledger/run.py --seed 2006 --trace    # + per-layer
    python benchmarks/ledger/run.py --workload fig5c-nat --seconds 5 --trace 0
    python benchmarks/ledger/run.py --smoke                # tiny sizes
    python benchmarks/ledger/run.py --compare parent.json change.json

With exactly one ``--workload`` the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the
BENCHMARK.json metrics (end-to-end ones, or per-layer ones with
``--trace 1``).  The exit code is non-zero when any repeat fails its
checks, and 2 when the harness itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Workload -> reference group.  Workloads in one group simulate the
#: same outbreak and share one ``kernel_override(False)`` reference.
#: Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS: dict[str, str] = {
    "outbreak-fused": "outbreak",
    "outbreak-pool": "outbreak",
    "fig5b-hitlist": "fig5b-hitlist",
    "fig5c-nat": "fig5c-nat",
}

#: Every end-to-end metric and its unit.  ``error_rate`` is 0 on a
#: healthy run, so BENCHMARK.json tracks it through ``failed`` instead.
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "ticks_per_s": "ticks/s",
    "probes_per_s": "probes/s",
    "peak_rss_mib": "MiB",
    "error_rate": "fraction",
}

#: Every per-layer metric of the traced run and its unit.
PER_LAYER: dict[str, str] = {
    "worms.generate.self_s": "s",
    "worms.generate.calls": "count",
    "worms.add_hosts.self_s": "s",
    "worms.build_hitlist.self_s": "s",
    "net.locate.self_s": "s",
    "net.locate.calls": "count",
    "env.loss.self_s": "s",
    "env.nat.self_s": "s",
    "env.deterministic.self_s": "s",
    "sensors.dispatch.self_s": "s",
    "sensors.dispatch.calls": "count",
    "sensors.place.self_s": "s",
    "population.vulnerable_hits.self_s": "s",
    "population.infect.self_s": "s",
    "population.synthesize.self_s": "s",
    "sim.run.self_s": "s",
    "sim.ticks": "count",
    "sim.probes": "count",
    "sim.delivered": "count",
    "sim.infections": "count",
    "sim.delivered_ratio": "ratio",
    "sim.infect_ratio": "ratio",
    "runtime.shardpool.spawn.self_s": "s",
    "runtime.shardpool.dispatch.self_s": "s",
    "runtime.shardpool.collect.self_s": "s",
    "runtime.shardpool.close.self_s": "s",
    "runtime.shardpool.ring_round_trips": "count",
    "runtime.shardpool.submit_round_trips": "count",
    "runtime.shardpool.submits_per_shard_tick": "ratio",
    "runtime.shardpool.pipe_bytes": "B",
    "runtime.shardpool.backpressure_waits": "count",
    "runtime.shardpool.worker_rss_mib": "MiB",
    "runtime.checkpoint.write.self_s": "s",
    "runtime.checkpoint.write.calls": "count",
    "runtime.checkpoint.bytes": "B",
    "runtime.trials.self_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_s": "s",
}

#: Set-up samples each workload gets per invocation, at least.
MIN_SETUP_SAMPLES = 3
#: Wall-clock budget of one invocation; no repeat starts past it.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


# -- statistics --------------------------------------------------------


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary_stats(values: Sequence[float]) -> dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# -- child side: one process per measurement ---------------------------


def child_main(job: dict[str, Any]) -> dict[str, Any]:
    """Build one workload and run it as ``job['role']`` says.

    Roles: ``setup`` (build only), ``reference`` (run under
    ``kernel_override(False)``), ``repeat`` (the timed call, optionally
    traced).  Set-up is ``import`` of numpy and :mod:`repro` plus
    input construction, timed from a fresh interpreter.
    """
    start = time.perf_counter()
    import workloads

    prepared = workloads.prepare(
        job["workload"], job["seed"], job["size"], job["scratch"]
    )
    setup_s = time.perf_counter() - start
    import numpy

    out: dict[str, Any] = {
        "setup_s": setup_s,
        "hosts": prepared.hosts,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }
    try:
        if job["role"] == "reference":
            from repro.net.kernels import kernel_override

            with kernel_override(False):
                outcome = prepared.call()
            out["summary"] = workloads.summarize(job["workload"], outcome)
        elif job["role"] == "repeat":
            out.update(_timed_repeat(job, prepared, workloads))
    finally:
        prepared.cleanup()
    return out


def _timed_repeat(job: dict[str, Any], prepared: Any, workloads: Any) -> dict[str, Any]:
    import resource
    import traceback

    from repro.runtime.checkpoint import recovery_collection

    out: dict[str, Any] = {
        "error": None,
        "transport_stats": None,
        "pool_shards": workloads.SIZES[job["size"]]["pool_shards"],
    }
    # The pool's transport counters are read where the driver reads
    # them, by observing ShardPool.stats (called once per pooled run).
    observed: list[dict[str, Any]] = []
    patches = tracing.Patches()
    found = tracing.resolve("repro.runtime.shardpool", "ShardPool.stats")
    if found is not None:
        owner, name, original = found

        def stats(self: Any) -> Any:
            result = original(self)
            observed.append(dict(result))
            return result

        patches.replace(owner, name, stats)
    tracer = tracing.Tracer() if job["trace"] else None
    outcome = None
    try:
        if tracer is not None:
            tracer.install()
        with recovery_collection() as recovery:
            began = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(tracing.ROOT):
                        outcome = prepared.call()
                else:
                    outcome = prepared.call()
            except Exception:  # a failed repeat is counted, not fatal
                out["error"] = traceback.format_exc()
            out["wall_s"] = time.perf_counter() - began
    finally:
        if tracer is not None:
            tracer.uninstall()
        patches.undo()
    events = [dict(event) for event in recovery.events]
    out["recovery_kinds"] = sorted({event["kind"] for event in events})
    out["checkpoints"] = workloads.checkpoint_totals(events)
    if observed:
        out["transport_stats"] = observed[-1]
    if outcome is not None:
        out["summary"] = workloads.summarize(job["workload"], outcome)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["worker_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    )
    if tracer is not None:
        out["spans"] = tracer.spans
        out["absent"] = tracer.absent
    return out


# -- parent side: orchestration ----------------------------------------


def _child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    # Temporary files of the program (and of multiprocessing) stay
    # inside the work directory.
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(job: dict[str, Any], work: Path) -> dict[str, Any]:
    """Run one measurement in a fresh interpreter; its own session, so a
    timeout takes down any pool workers with it."""
    job = dict(job, scratch=str(work / "tmp"))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(job)],
        cwd=ROOT,
        env=_child_env(work),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise HarnessError(
            f"{job['workload']} {job['role']}: no answer in {CHILD_TIMEOUT_S:.0f}s"
        ) from None
    if stderr.strip():
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise HarnessError(
            f"{job['workload']} {job['role']}: child exited "
            f"{process.returncode} without a result"
        )
    return json.loads(lines[-1])


def source_fingerprint() -> str:
    """SHA-256 over the program's sources and the workload definitions."""
    hasher = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + [HERE / "workloads.py"]
    for path in files:
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def reference(
    name: str, seed: int, size: str, work: Path, fingerprint: str
) -> tuple[dict[str, Any], Optional[dict[str, Any]]]:
    """``(reference summary, child answer or None when cached)``.

    The reference is a pure function of the sources, the workload and
    the seed, so it is cached under a key made of exactly those.
    """
    group = WORKLOADS[name]
    key = hashlib.sha256(f"{fingerprint}:{group}:{size}:{seed}".encode()).hexdigest()
    path = work / "refs" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text()), None
    answer = run_child(
        {"role": "reference", "workload": name, "seed": seed, "size": size}, work
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(answer["summary"]))
    return answer["summary"], answer


def check_repeat(answer: dict[str, Any], ref: dict[str, Any]) -> list[str]:
    """Why a repeat failed (empty when it passed every check)."""
    if answer.get("error"):
        return ["raised: " + answer["error"].strip().splitlines()[-1]]
    problems = []
    summary = answer["summary"]
    if summary["digest"] != ref["digest"]:
        problems.append("digest differs from the kernel_override(False) reference")
    for count in ("ticks", "probes", "delivered", "infections"):
        if summary[count] != ref[count]:
            problems.append(f"{count} {summary[count]} != reference {ref[count]}")
    problems.extend(f"shape property {prop} is false" for prop in summary["shape_failures"])
    if "serial-rerun" in answer["recovery_kinds"]:
        problems.append("pool degraded to the serial re-run")
    stats = answer["transport_stats"]
    if stats is not None and stats["transport"] == "pickle":
        problems.append("pool transport fell back to pickle")
    return problems


class WorkloadLedger:
    """Everything one invocation measured for one workload.

    Answers are kept raw and judged against the reference only in
    :meth:`record`, so repeats may run before the reference does.
    """

    def __init__(self, name: str):
        self.name = name
        self.ref: Optional[dict[str, Any]] = None
        self.repeats: list[dict[str, Any]] = []
        self.traced: Optional[dict[str, Any]] = None
        self.setups: list[float] = []
        self.hosts: Optional[int] = None
        self.versions: dict[str, str] = {}

    def add_setup(self, answer: dict[str, Any]) -> None:
        self.setups.append(answer["setup_s"])
        self.hosts = answer["hosts"]
        self.versions = {"numpy": answer["numpy"], "python": answer["python"]}

    def add_repeat(self, answer: dict[str, Any]) -> None:
        self.add_setup(answer)
        if answer.get("spans") is None:
            self.repeats.append(answer)
        else:
            self.traced = answer

    @property
    def timed_s(self) -> float:
        return sum(answer["wall_s"] for answer in self.repeats)

    def record(self) -> dict[str, Any]:
        """Samples, failures and metrics; only passing repeats are timed."""
        samples: dict[str, list[float]] = {
            metric: [] for metric in END_TO_END if metric != "error_rate"
        }
        samples["setup_s"] = list(self.setups)
        failures: list[str] = []
        transport = None
        answers = self.repeats + ([self.traced] if self.traced is not None else [])
        for index, answer in enumerate(answers, 1):
            if answer["transport_stats"] is not None:
                transport = answer["transport_stats"]["transport"]
            problems = check_repeat(answer, self.ref)
            if problems:
                failures.append(f"repeat {index}: " + "; ".join(problems))
            elif answer is not self.traced:
                wall = answer["wall_s"]
                samples["wall_s"].append(wall)
                samples["ticks_per_s"].append(self.ref["ticks"] / wall)
                samples["probes_per_s"].append(self.ref["probes"] / wall)
                samples["peak_rss_mib"].append(answer["peak_rss_mib"])
        metrics = {
            metric: dict(summary_stats(values), unit=END_TO_END[metric])
            for metric, values in samples.items()
            if values
        }
        error_rate = len(failures) / len(answers) if answers else 0.0
        metrics["error_rate"] = dict(
            median=error_rate, q1=error_rate, q3=error_rate, n=len(answers), unit="fraction"
        )
        layers = None
        if self.traced is not None and not check_repeat(self.traced, self.ref):
            walls = samples["wall_s"]
            layers = layer_metrics(self.traced, self.ref, quartiles(walls)[1] if walls else 0.0)
        return {
            "hosts": self.hosts,
            "ticks": self.ref["ticks"],
            "probes": self.ref["probes"],
            "transport": transport,
            "attempted": len(answers),
            "failed": len(failures),
            "failures": failures,
            "samples": samples,
            "metrics": metrics,
            "layers": layers,
            "absent": self.traced["absent"] if self.traced is not None else [],
        }


def layer_metrics(
    answer: dict[str, Any], ref: dict[str, Any], untraced_wall: float
) -> dict[str, float]:
    """Every per-layer metric from one traced repeat."""
    spans = answer["spans"]
    selfs = tracing.self_times(spans)
    root = [index for index, span in enumerate(spans) if span[0] == tracing.ROOT]
    if len(root) != 1:
        raise HarnessError(f"traced run recorded {len(root)} root spans")
    root_span = spans[root[0]]
    root_s = root_span[2] - root_span[1]
    if abs(sum(selfs) - root_s) > 1e-6 * max(1.0, root_s):
        raise HarnessError(
            f"layer self times sum to {sum(selfs):.6f}s, root span is {root_s:.6f}s"
        )
    totals = tracing.layer_totals(spans)
    values: dict[str, float] = {}
    for layer in tracing.LAYERS:
        entry = totals.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.calls"] = entry["calls"]
    probes, delivered = ref["probes"], ref["delivered"]
    values.update(
        {
            "sim.ticks": ref["ticks"],
            "sim.probes": probes,
            "sim.delivered": delivered,
            "sim.infections": ref["infections"],
            "sim.delivered_ratio": delivered / probes if probes else 0.0,
            "sim.infect_ratio": ref["infections"] / delivered if delivered else 0.0,
        }
    )
    stats = answer["transport_stats"] or {}
    shard_ticks = stats.get("ticks", 0) * answer["pool_shards"]
    values.update(
        {
            "runtime.shardpool.ring_round_trips": stats.get("ring_round_trips", 0),
            "runtime.shardpool.submit_round_trips": stats.get("submit_round_trips", 0),
            "runtime.shardpool.submits_per_shard_tick": (
                stats["submit_round_trips"] / shard_ticks if shard_ticks else 0.0
            ),
            "runtime.shardpool.pipe_bytes": stats.get("pipe_bytes", 0),
            "runtime.shardpool.backpressure_waits": stats.get("ring_backpressure_waits", 0),
            "runtime.shardpool.worker_rss_mib": answer["worker_rss_mib"],
        }
    )
    values["runtime.checkpoint.bytes"] = answer["checkpoints"][1]
    values["trace.overhead_frac"] = (
        answer["wall_s"] / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    values["trace.unattributed_s"] = selfs[root[0]]
    return {metric: values[metric] for metric in PER_LAYER}


# -- one invocation ----------------------------------------------------


def measure(
    names: Sequence[str],
    seed: int,
    size: str,
    work: Path,
    repeats: int,
    seconds: Optional[float],
    trace: bool,
) -> dict[str, WorkloadLedger]:
    """Round-robin timed repeats, the references, then traced runs."""
    started = time.monotonic()
    if not (ROOT / "src" / "repro").is_dir():
        # Measure this checkout's program, never an installed copy.
        raise HarnessError(f"no program sources at {ROOT / 'src' / 'repro'}")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    ledgers = {name: WorkloadLedger(name) for name in names}

    def job(name: str, role: str, traced: bool = False) -> dict[str, Any]:
        return {"role": role, "workload": name, "seed": seed, "size": size, "trace": traced}

    def wants_repeat(ledger: WorkloadLedger) -> bool:
        if seconds is None:
            return len(ledger.repeats) < repeats
        if not ledger.repeats:
            return True
        # Stop at the measuring time, or when the next repeat could
        # overrun the invocation's budget.
        last = max(answer["wall_s"] for answer in ledger.repeats)
        elapsed = time.monotonic() - started
        return ledger.timed_s < seconds and elapsed + 2 * last < BUDGET_S

    def repeat_round() -> None:
        for ledger in ledgers.values():
            if wants_repeat(ledger):
                ledger.add_repeat(run_child(job(ledger.name, "repeat"), work))

    # One round before the references and the rest after: an uncached
    # reference then spaces a workload's samples apart in time, so one
    # slow spell of a shared host is less likely to cover all of them.
    repeat_round()
    fingerprint = source_fingerprint()
    for ledger in ledgers.values():
        ledger.ref, answer = reference(ledger.name, seed, size, work, fingerprint)
        if answer is not None:
            ledger.add_setup(answer)
    while any(wants_repeat(ledger) for ledger in ledgers.values()):
        repeat_round()
    if trace:
        for ledger in ledgers.values():
            ledger.add_repeat(run_child(job(ledger.name, "repeat", traced=True), work))
    for ledger in ledgers.values():
        while len(ledger.setups) < MIN_SETUP_SAMPLES:
            ledger.add_setup(run_child(job(ledger.name, "setup"), work))
    return ledgers


def _git_head() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def result_record(
    ledgers: dict[str, WorkloadLedger], args: argparse.Namespace, size: str
) -> dict[str, Any]:
    versions = next(iter(ledgers.values())).versions
    return {
        "benchmark": "outbreak-ledger",
        "meta": {
            "seed": args.seed,
            "size": size,
            "trace": bool(args.trace),
            "repeats": args.repeats,
            "seconds": args.seconds,
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": versions.get("python"),
            "numpy": versions.get("numpy"),
            "git_head": _git_head(),
            "command": [Path(sys.executable).name, *sys.argv],
        },
        "workloads": {name: ledger.record() for name, ledger in ledgers.items()},
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:,.0f}"


def print_ledger(record: dict[str, Any]) -> None:
    meta = record["meta"]
    print(
        f"outbreak ledger: seed {meta['seed']}, {meta['size']} sizes, "
        f"{meta['cpu_count']} cpus ({meta['affinity']} usable), "
        f"python {meta['python']}, numpy {meta['numpy']}, "
        f"commit {meta['git_head'] or 'unknown'}"
    )
    for name, entry in record["workloads"].items():
        print(
            f"\n{name}: {entry['hosts']:,} hosts, {entry['ticks']:,} ticks, "
            f"{entry['probes']:,} probes, transport {entry['transport'] or '-'}, "
            f"{entry['attempted']} repeats, {entry['failed']} failed"
        )
        for metric, stats in entry["metrics"].items():
            print(
                f"  {metric:<14} {_fmt(stats['median']):>12} {stats['unit']:<9}"
                f" q1 {_fmt(stats['q1'])}  q3 {_fmt(stats['q3'])}  n={stats['n']}"
            )
        for failure in entry["failures"]:
            print(f"  FAILED {failure}")
        if entry["layers"] is not None:
            print("  per layer (one traced repeat):")
            for metric, value in entry["layers"].items():
                print(f"    {metric:<42} {_fmt(value):>12} {PER_LAYER[metric]}")
        for target in entry["absent"]:
            print(f"    absent wrap target: {target}")


def benchmark_definition() -> dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise HarnessError(f"cannot read {path}: {error}") from None


def driver_line(entry: dict[str, Any], traced: bool) -> dict[str, Any]:
    """The one-line result BENCHMARK.json's runner parses."""
    definition = benchmark_definition()
    metrics: dict[str, Any] = {}
    if traced:
        layers = entry["layers"] or {}
        for metric in definition["per_layer"]:
            if metric["name"] in layers:
                metrics[metric["name"]] = {
                    "value": layers[metric["name"]],
                    "unit": metric["unit"],
                }
    else:
        for metric in definition["end_to_end"]:
            stats = entry["metrics"].get(metric["name"])
            if stats is not None:
                metrics[metric["name"]] = {
                    "value": stats["median"],
                    "unit": metric["unit"],
                }
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


# -- --compare -----------------------------------------------------------


def compare(parent_path: str, change_path: str) -> int:
    """Per (workload, end-to-end metric): medians, quartiles, verdict.

    ``REGRESSION`` when the change's median is worse than the parent's
    by more than the metric's bound; ``unresolved`` when the parent's
    own quartile spread is wider than the bound (unless every change
    sample beats every parent sample); ``ok`` otherwise.
    """
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    definition = benchmark_definition()
    bounds = {
        metric["name"]: (metric["bound"], metric["better"])
        for metric in definition["end_to_end"]
    }
    bounds["error_rate"] = (0.0, "lower")
    print(
        f"{'workload':<15} {'metric':<13} {'parent median [q1, q3]':<31} "
        f"{'change median [q1, q3]':<31} {'worse by':>9} {'bound':>6}  verdict"
    )
    verdicts: list[str] = []
    for name in parent["workloads"]:
        if name not in change["workloads"]:
            raise HarnessError(f"{name} is missing from {change_path}")
        a = parent["workloads"][name]
        b = change["workloads"][name]
        for metric, (bound, better) in bounds.items():
            if metric not in a["metrics"] or metric not in b["metrics"]:
                continue
            verdict, worse = judge(
                a["metrics"][metric],
                b["metrics"][metric],
                a["samples"].get(metric, []),
                b["samples"].get(metric, []),
                bound,
                better,
            )
            verdicts.append(verdict)
            side_a, side_b = (
                f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}]"
                for s in (a["metrics"][metric], b["metrics"][metric])
            )
            print(
                f"{name:<15} {metric:<13} {side_a:<31} {side_b:<31} "
                f"{worse:>+9.1%} {bound:>6.2f}  {verdict}"
            )
    regressions, unresolved = verdicts.count("REGRESSION"), verdicts.count("unresolved")
    print(f"{regressions} regressions, {unresolved} unresolved, {len(verdicts)} compared")
    return 1 if regressions or unresolved else 0


def judge(
    a: dict[str, float],
    b: dict[str, float],
    a_samples: Sequence[float],
    b_samples: Sequence[float],
    bound: float,
    better: str,
) -> tuple[str, float]:
    """``(verdict, worse_by)`` for one metric; ``worse_by`` is relative
    to the parent's median (absolute when that median is 0)."""
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(a["median"]) or 1.0
    worse = sign * (b["median"] - a["median"]) / scale
    if worse > bound:
        return "REGRESSION", worse
    spread = (a["q3"] - a["q1"]) / scale
    if spread > bound:
        if a_samples and b_samples and all(
            sign * (y - x) < 0 for x in a_samples for y in b_samples
        ):
            return "ok", worse
        return "unresolved", worse
    return "ok", worse


# -- command line ----------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per workload (default 5, or 1 with --smoke)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="instead of --repeats: repeat until this much time is measured",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced repeat per workload and report per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds per workload")
    parser.add_argument("--output", help="result file (default: in the work directory)")
    parser.add_argument(
        "--work-dir", default=str(ROOT / ".bench_ledger"),
        help="reference cache, scratch files and default result files",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("PARENT", "CHANGE"),
        help="compare two result files instead of measuring",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 5
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    try:
        if args.compare:
            return compare(*args.compare)
        names = args.workload or list(WORKLOADS)
        size = "smoke" if args.smoke else "full"
        work = Path(args.work_dir)
        ledgers = measure(
            list(dict.fromkeys(names)), args.seed, size, work,
            args.repeats, args.seconds, bool(args.trace),
        )
        record = result_record(ledgers, args, size)
        output = Path(args.output) if args.output else work / (
            f"ledger-{'-'.join(ledgers)}-seed{args.seed}{'-trace' if args.trace else ''}.json"
        )
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(record, indent=2) + "\n")
        print_ledger(record)
        print(f"\nwrote {output}")
        failed = sum(entry["failed"] for entry in record["workloads"].values())
        if len(ledgers) == 1:
            entry = next(iter(record["workloads"].values()))
            print(json.dumps(driver_line(entry, bool(args.trace))))
        return 1 if failed else 0
    except HarnessError as error:
        print(f"ledger: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
