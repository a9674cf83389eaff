"""The repository benchmark: one workload per run, every answer checked.

Usage (from the root of a checkout)::

    python3 cqbench/run.py --workload exec-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with layer spans recorded and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's context (seed, knobs, revision, sample counts).
See ``README.md`` next to this file for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SOURCE = CHECKOUT / "src"

#: Set-ups per run: ``setup_s`` is their median.
SETUPS = 5

#: Reference-task probes (``cq_speed``) just before and after a set-up.
SETUP_PROBES = 8

#: Percentiles a ``*_tail`` metric may use, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def add_program_path() -> None:
    """Make the checkout's own ``repro`` importable, and only that one."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        _refuse(f"no program source under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        _refuse(f"imported repro from {repro.__file__}, not from {SOURCE}")


def _refuse(reason: str) -> None:
    print(f"cqbench: {reason}", file=sys.stderr)
    raise SystemExit(2)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = pct / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int, preferred: float) -> float:
    """*preferred*, or the highest lower ladder step with at least 10 of
    *n* samples beyond it."""
    for pct in TAIL_LADDER:
        if pct <= preferred and n * (1 - pct / 100.0) >= 10:
            return pct
    return 50.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def child_pids() -> List[int]:
    """Pids of this process's live children (Linux ``/proc``)."""
    pids: List[int] = []
    for task in Path("/proc/self/task").glob("*"):
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        pids.extend(int(pid) for pid in text.split())
    return pids


def leftovers() -> List[str]:
    found = [f"process pool child {child.pid}"
             for child in multiprocessing.active_children()]
    found.extend(f"child process {pid}" for pid in child_pids())
    return found


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
def git_revision() -> str:
    """The checkout's revision read from ``.git`` (no subprocess), or
    ``"unknown"`` outside a git repository."""
    head = CHECKOUT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref:"):
            return text
        ref = text.split(None, 1)[1]
        loose = CHECKOUT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (CHECKOUT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def knob_snapshot() -> dict:
    """The ``REPRO_*`` environment plus the defaults it resolves to."""
    from repro.counting.compile import compiled_enabled
    from repro.counting.engine import cost_units_per_ms
    from repro.db.columnar import default_backend
    from repro.dynamic.maintainer import maintainer_budget_from_env
    from repro.service import default_shard_mode, default_shards
    from repro.service.service import default_workers

    return {
        "env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "compiled": compiled_enabled(),
        "backend": default_backend(),
        "cost_units_per_ms": cost_units_per_ms(),
        "shard_mode": default_shard_mode(),
        "session_shards": default_shards(),
        "service_workers": default_workers(),
        "maintainer_budget_bytes": maintainer_budget_from_env(),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def request_metrics(workload, samples) -> dict:
    """Latency, rate and answer metrics over *samples*.  Times are at the
    reference host speed; ``raw_*`` are as measured."""
    counts = [s for s in samples if s.kind == "count"]
    updates = [s for s in samples if s.kind == "update"]
    count_tail = tail_percentile(len(counts), workload.tail_pct)
    update_tail = tail_percentile(len(updates), workload.tail_pct)
    exact = sum(1 for s in counts
                if s.ok and getattr(s.result, "strategy", None) != "approx")
    met = sum(1 for s in counts
              if s.ok and (s.deadline_ms is None or s.ms <= s.deadline_ms))
    metrics = {
        "ops_per_s": workload.rate,
        "raw_ops_per_s": len(samples) / sum(s.ms / 1e3 for s in samples),
        "exact_frac": exact / len(counts) if counts else 1.0,
        "deadline_met_frac": met / len(counts) if counts else 1.0,
        "failed_frac": (sum(not s.ok for s in samples) / len(samples)
                        if samples else 0.0),
        "_samples": {"count": len(counts), "update": len(updates),
                     "count_tail_pct": count_tail,
                     "update_tail_pct": update_tail},
    }
    for kind, group, tail in (("count", counts, count_tail),
                              ("update", updates, update_tail)):
        for prefix, times in (("", [workload.scaled_ms(s) for s in group]),
                              ("raw_", [s.ms for s in group])):
            metrics[f"{prefix}{kind}_ms_p50"] = percentile(times, 50.0)
            metrics[f"{prefix}{kind}_ms_tail"] = percentile(times, tail)
    return metrics


def layer_metrics(workload, tracer, traced, before: dict, after: dict,
                  untraced_rate: float, traced_rate: float) -> dict:
    """The per-layer metrics of the traced phase."""
    from cq_trace import analyse
    from repro.counting.engine import cost_units_per_ms

    spans = analyse(tracer.spans)
    self_s, calls = spans["self_s"], spans["calls"]
    inclusive = spans["inclusive_s"]
    counts = [s for s in traced if s.kind == "count"]
    n_counts = max(len(counts), 1)
    n_updates = sum(s.kind == "update" for s in traced)

    def per_count_ms(name: str) -> float:
        return self_s.get(name, 0.0) * 1e3 / n_counts

    def mean_ms(name: str) -> float:
        return (inclusive.get(name, 0.0) * 1e3 / calls[name]
                if calls.get(name) else 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    ratios, approx_samples, approx_hits, approx_answers = [], 0, 0, 0
    for sample in counts:
        details = getattr(sample.result, "details", None) or {}
        if details.get("actual_seconds") and "estimated_cost" in details:
            predicted_ms = details["estimated_cost"] / cost_units_per_ms()
            ratios.append(predicted_ms / (details["actual_seconds"] * 1e3))
        if getattr(sample.result, "strategy", None) == "approx":
            approx_answers += 1
            approx_samples += details.get("samples", 0)
            approx_hits += details.get("hits", 0)

    overheads = [
        (names.get("net.rtt", 0.0) - names.get("service.shard_exec", 0.0))
        * 1e3 for names in spans["per_rid"].values() if "net.rtt" in names
    ]
    decoded = sum(1 for s in tracer.spans
                  if s.name == "net.decode" and s.info)
    encoded_bytes = sum(s.info for s in tracer.spans
                        if s.name == "net.encode" and s.info)
    rtt_calls = calls.get("net.rtt", 0)
    delta = {key: after[key] - before[key] for key in before}
    lookups = delta["plan_hits"] + delta["plan_misses"]
    canon = delta["canonical_hits"] + delta["canonical_misses"]
    stats = workload.layer_stats()
    return {
        "query.canon_ms": per_count_ms("query.canon"),
        "counting.canon_hit_ratio": ratio(delta["canonical_hits"], canon),
        "counting.plan_hit_ratio": ratio(delta["plan_hits"], lookups),
        "decomposition.search_ms": per_count_ms("decomposition.search"),
        "decomposition.searches": spans["outermost"].get(
            "decomposition.search", 0),
        "counting.lower_ms": per_count_ms("counting.lower"),
        "counting.link_ms": per_count_ms("counting.link"),
        "counting.exec_ms": per_count_ms("counting.exec"),
        "counting.select_ms": per_count_ms("counting.count"),
        "counting.cost_ratio_p50": percentile(ratios, 50.0),
        "counting.cost_ratio_max": max(ratios, default=0.0),
        "approx.ms": per_count_ms("approx.sample"),
        "approx.samples": ratio(approx_samples, approx_answers),
        "approx.hit_ratio": ratio(approx_hits, approx_samples),
        "db.apply_update_ms": ratio(self_s.get("db.apply_update", 0.0) * 1e3,
                                    n_updates),
        "dynamic.repair_ms": per_count_ms("dynamic.repair"),
        "dynamic.lookup_ms": per_count_ms("dynamic.lookup"),
        "consistency.rows_touched_per_read": ratio(delta["rows_touched"],
                                                   len(counts)),
        "consistency.key_flips_per_update": ratio(delta["key_flips"],
                                                  n_updates),
        "dynamic.builds": stats.get("builds", 0),
        "dynamic.builds_per_pair": ratio(stats.get("builds", 0),
                                         stats.get("pairs", 0)),
        "dynamic.resident_mb": stats.get("resident_bytes", 0) / 1e6,
        "service.shard_exec_ms": mean_ms("service.shard_exec"),
        "net.rtt_ms": mean_ms("net.rtt"),
        "net.overhead_ms": _mean(overheads),
        "net.encode_us": ratio(inclusive.get("net.encode", 0.0) * 1e6,
                               calls.get("net.encode", 0)),
        "net.decode_us": ratio(inclusive.get("net.decode", 0.0) * 1e6,
                               decoded),
        "net.bytes_per_req": ratio(encoded_bytes, rtt_calls),
        "net.deduped": delta["deduped"],
        "service.rejected": delta["rejected"],
        "trace_overhead_frac": (1.0 - traced_rate / untraced_rate
                                if untraced_rate else 0.0),
        "unattributed_frac": spans["unattributed_frac"],
    }


def counter_snapshot(workload, tracer) -> dict:
    """Cumulative counters the per-layer deltas are taken from."""
    snapshot = {"plan_hits": 0, "plan_misses": 0, "canonical_hits": 0,
                "canonical_misses": 0, "rows_touched": 0, "key_flips": 0,
                "deduped": 0, "rejected": 0}
    for cache in workload.plan_caches():
        stats = cache.stats()
        snapshot["plan_hits"] += stats["hits"]
        snapshot["plan_misses"] += stats["misses"]
        snapshot["canonical_hits"] += stats["canonical_hits"]
        snapshot["canonical_misses"] += stats["canonical_misses"]
    for counter in tracer.counters.values():
        repair = counter.repair_stats()
        snapshot["rows_touched"] += repair.get("rows_touched", 0)
        snapshot["key_flips"] += repair.get("key_flips", 0)
    server = getattr(workload, "server", None)
    if server is not None:
        snapshot["deduped"] = server.requests_deduped
        snapshot["rejected"] = workload.session.stats()["rejected_submissions"]
    return snapshot


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", trace_out: Optional[str] = None,
                 inject=None) -> dict:
    """Set up *name* :data:`SETUPS` times, run it, check it, close it.

    *inject* (tests only) is called with the workload after the timed
    phase and before the check, e.g. to corrupt an answer.
    """
    from cq_speed import SpeedProbe
    from cq_trace import Tracer, install
    from cq_workloads import WORKLOADS, cold_start

    cls = WORKLOADS[name]
    probe = SpeedProbe()
    tracer = Tracer() if trace else None
    patches = install(tracer) if trace else None
    workload = None
    try:
        setup_s, raw_setup_s = [], []
        for _ in range(SETUPS):
            if workload is not None:
                workload.close()
            cold_start()
            if tracer is not None:
                tracer.counters.clear()
            workload = cls(seed, scale, tracer, probe)
            for _ in range(SETUP_PROBES):
                probe.tick(force=True)
            started = time.perf_counter()
            workload.setup()
            ended = time.perf_counter()
            for _ in range(SETUP_PROBES):
                probe.tick(force=True)
            raw_setup_s.append(ended - started)
            setup_s.append((ended - started)
                           * probe.scale((started + ended) / 2))
        if trace:
            workload.run_phase(seconds / 2, phase=0)
            untraced_rate = workload.rate
            workload.rewind()
            before = counter_snapshot(workload, tracer)
            tracer.recording = True
            try:
                workload.run_phase(seconds / 2, phase=1)
            finally:
                tracer.recording = False
            traced_rate = workload.rate
            after = counter_snapshot(workload, tracer)
        else:
            workload.run_phase(seconds, phase=0)
        if inject is not None:
            inject(workload)
        problems = workload.check()
        samples = workload.samples
        untraced = [s for s in samples if s.phase == 0]
        e2e = request_metrics(workload, untraced)
        if trace:
            # Latencies come from the untraced half (e2e); the layers from
            # the traced half.
            metrics = layer_metrics(workload, tracer,
                                    [s for s in samples if s.phase == 1],
                                    before, after, untraced_rate, traced_rate)
            metrics.update({
                "update_ms_p50": e2e["update_ms_p50"],
                "update_ms_tail": e2e["update_ms_tail"],
                "answer_rel_err": _mean(workload.rel_errors),
                "failed_frac": sum(not s.ok for s in samples) / len(samples),
            })
            if trace_out is not None:
                tracer.dump(trace_out)
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "count_ms_p50": e2e["count_ms_p50"],
                "count_ms_tail": e2e["count_ms_tail"],
                "ops_per_s": e2e["ops_per_s"],
                "exact_frac": e2e["exact_frac"],
                "deadline_met_frac": e2e["deadline_met_frac"],
                "peak_rss_mb": peak_rss_mb(),
            }
        failures = [s.result for s in samples if not s.ok]
        return {
            "problems": problems,
            "attempted": len(samples),
            "failed": len(failures),
            "failures": [repr(error) for error in failures[:5]],
            "metrics": metrics,
            "context": {
                "setup_s": setup_s,
                "raw_setup_s": raw_setup_s,
                "reference_ms": probe.median_ms(),
                "samples": e2e["_samples"],
                **{key: e2e[key] for key in (
                    "update_ms_p50", "update_ms_tail", "raw_count_ms_p50",
                    "raw_count_ms_tail", "raw_ops_per_s", "raw_update_ms_p50",
                    "raw_update_ms_tail")},
                "answer_rel_err": _mean(workload.rel_errors),
                "failed_frac": e2e["failed_frac"],
            },
        }
    finally:
        if workload is not None:
            workload.close()
        if patches is not None:
            patches.restore()


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def load_declared() -> Dict[str, Dict[str, str]]:
    """``{metric: unit}`` per section of ``BENCHMARK.json``."""
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in declared[section]}
            for section in ("end_to_end", "per_layer")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for the tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    add_program_path()
    from cq_workloads import WORKLOADS
    from repro.envknobs import isolated_repro_env

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    declared = load_declared()["per_layer" if args.trace else "end_to_end"]
    trace_out = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_out = str(out_dir / f"trace-{args.workload}-{args.seed}.json")

    # Every REPRO_* knob unset: the run measures the defaults users get.
    unset = {k: None for k in os.environ if k.startswith("REPRO_")}
    with isolated_repro_env(**unset):
        knobs = knob_snapshot()
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.scale, trace_out)

    left = leftovers()
    if left:
        print(f"cqbench: processes left running: {left}", file=sys.stderr)
        return 1
    for problem in outcome["problems"][:20]:
        print(f"cqbench: WRONG ANSWER: {problem}", file=sys.stderr)
    for failure in outcome["failures"]:
        print(f"cqbench: failed request: {failure}", file=sys.stderr)
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in declared.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "revision": git_revision(), "nproc": os.cpu_count(),
        "knobs": knobs, **outcome["context"],
        "trace_file": trace_out,
    }))
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if not outcome["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
