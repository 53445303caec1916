"""End-to-end benchmark of the revtr 2.0 reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coldstart-large --seed 1 \\
        --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload,
                                                       # untraced + traced
    python3 perfbench/run.py --workload all --smoke    # tiny topologies

``BENCHMARK.json`` at the repository root declares the workloads and
every metric with its unit; a run emits exactly the declared metrics.
One workload runs in one single-threaded process.  ``--trace 0`` repeats
(cold set-up, fixed request stream) at least :data:`MIN_REPS` times and
until the streams have run ``--seconds``, with tracing off; it reports
the median set-up time and throughput, the pooled call latencies, and
the virtual-time, probe, completion and accuracy figures of the stream,
whose result digest must repeat in every repetition.  Wall times are in
reference seconds (:mod:`calib`).  ``--trace 1`` runs the stream
untraced (on service-zipf :data:`OBS_REPS` times with the full and with
the null observability facade each, alternating), then once more with
every layer's public methods wrapped by :mod:`spans`; it prints the
per-layer metrics and the per-stage cost ledger, and requires identical
result digests.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
#: fewest (set-up, stream) repetitions in one untraced run
MIN_REPS = 3
#: untraced streams per facade behind ``obs.share`` (service-zipf)
OBS_REPS = 4


def load_manifest() -> dict:
    with open(MANIFEST) as fh:
        return json.load(fh)


def declared_units(manifest: dict, section: str) -> dict:
    """name -> unit of the metrics in one section of the manifest."""
    return {metric["name"]: metric["unit"] for metric in manifest[section]}


def suffixes(units: dict, prefix: str) -> list:
    """The declared metric names under *prefix*, prefix removed."""
    return [name[len(prefix):] for name in units if name.startswith(prefix)]


def collect(values: dict, units: dict) -> dict:
    """*values* with their declared units; the names must be exactly
    the declared ones."""
    missing = sorted(set(units) - set(values))
    undeclared = sorted(set(values) - set(units))
    if missing or undeclared:
        raise RuntimeError(
            f"metrics differ from {MANIFEST}: missing {missing}, "
            f"undeclared {undeclared}"
        )
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against any other copy of the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: program source not found under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def worst_mean(values, share: float = 0.01) -> float:
    """Mean of the largest *share* of *values* (at least one)."""
    ordered = sorted(values, reverse=True)
    tail = ordered[: max(1, round(share * len(ordered)))]
    return sum(tail) / len(tail)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------


def run_timed(workload, seed: int, seconds: float, units: dict):
    """Repeat (cold set-up, fixed stream) until the streams have run for
    *seconds* and there are at least :data:`MIN_REPS` repetitions."""
    from calib import timed_setup
    from checks import as_accuracy, digest
    from workloads import Phases

    setups, setups_wall, rates, calls = [], [], [], []
    streamed = 0.0
    attempted = failed = 0
    first_digest = None
    problems = []
    dep = stream = None
    while len(setups) < MIN_REPS or streamed < seconds:
        dep = stream = None
        gc.collect()
        dep, wall, ref = timed_setup(lambda: workload.build(Phases()))
        setups.append(ref)
        setups_wall.append(wall)
        stream = workload.stream(dep, seed)
        streamed += stream.wall_s
        rates.append(len(stream.results) / stream.ref_s)
        calls.extend(stream.call_s)
        attempted += stream.attempted
        failed += stream.errors
        result_digest = digest(stream.results)
        if first_digest is None:
            first_digest = result_digest
            problems.extend(stream.problems)
        elif result_digest != first_digest:
            problems.append(
                f"repetition {len(setups)} digest {result_digest} "
                f"!= {first_digest}"
            )
    rss = peak_rss_mb()

    results = stream.results
    accuracy, scored = as_accuracy(
        workload.config,
        dep.scenario.internet.topology_fingerprint(),
        dep.scenario.ip2as,
        results,
        epochs=stream.epochs,
        flips=stream.flips,
    )
    complete = sum(1 for r in results if r.status.value == "complete")
    metrics = collect(
        {
            "setup_s": statistics.median(setups),
            "revtr_per_s": statistics.median(rates),
            "call_ms_p50": 1000 * percentile(calls, 0.50),
            "call_ms_p99": 1000 * percentile(calls, 0.99),
            "revtr_virtual_s_mean": statistics.mean(stream.virtual_s),
            "revtr_virtual_s_worst1pct": worst_mean(stream.virtual_s),
            "probes_per_revtr": stream.probes / max(1, len(results)),
            "complete_frac": complete / max(1, len(results)),
            "ok_frac": (attempted - failed) / max(1, attempted),
            "as_accuracy": accuracy,
            "peak_rss_mb": rss,
        },
        units,
    )
    notes = [
        f"{len(setups)} repetitions of {workload.requests} requests; "
        f"streams ran {streamed:.2f} s",
        "wall times below are in reference seconds (calib.py); raw:",
        f"  setup wall s: {', '.join(f'{s:.3f}' for s in setups_wall)}",
        f"  stream wall s: {streamed:.3f}",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
        f"revtr_per_s samples: {', '.join(f'{r:.1f}' for r in rates)}",
        f"blocking calls timed: n={len(calls)}",
        f"result digest {first_digest}; as_accuracy over {scored} "
        f"complete results",
        "workload properties: "
        + ", ".join(
            f"{name.split('.', 1)[1]}={value:.4g}"
            for name, value in workload.properties(dep, stream).items()
        ),
    ]
    return metrics, attempted, failed, problems, notes


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------


def _counters(dep) -> dict:
    """Cumulative program counters read through public attributes."""
    scenario = dep.scenario
    internet = scenario.internet
    fib = internet.forwarding_cache_stats()["caches"]["fib"]
    engines = list(dep.engines.values())
    steps = {}
    retries = 0
    cache_hits = cache_lookups = 0
    seg_hits = seg_lookups = seg_splices = seg_invalidations = 0
    segcaches = {id(e.segcache): e.segcache for e in engines if e.segcache}
    for engine in engines:
        for kind, n in engine.step_counts.items():
            steps[kind] = steps.get(kind, 0) + n
        retries += sum(engine.retry_counts.values())
        cache_hits += engine.cache.stats.hits
        cache_lookups += engine.cache.stats.lookups
    for segcache in segcaches.values():
        stats = segcache.stats
        seg_hits += stats.hits + stats.negative_hits
        seg_lookups += stats.lookups
        seg_splices += stats.splices
        seg_invalidations += stats.invalidations
    events = getattr(dep.obs, "events", None)
    return {
        "sim_probes": sum(internet.probe_outcome_counts.values()),
        "fib_hits": fib["hits"],
        "fib_lookups": fib["hits"] + fib["misses"],
        "online": scenario.online_counter.snapshot(),
        "steps": steps,
        "retries": retries,
        "cache_hits": cache_hits,
        "cache_lookups": cache_lookups,
        "seg_hits": seg_hits,
        "seg_lookups": seg_lookups,
        "seg_splices": seg_splices,
        "seg_invalidations": seg_invalidations,
        "events": events.total if events is not None else 0,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _ledger(phases, stream, tracer, stream_snap, stream_probes):
    """The per-stage cost ledger of one traced run: topology, each set-up
    phase, BGP route computation and the stream, each with wall and
    virtual seconds, probes by kind and share of the total wall time."""
    from workloads import POLICY_SPANS

    rows = []
    policy_total = tracer.self_seconds(POLICY_SPANS)
    for phase in phases.rows:
        rows.append(
            {
                "row": phase.name,
                "wall_s": phase.wall_s - phase.policy_s,
                "virtual_s": phase.virtual_s,
                "probes": phase.probes,
            }
        )
    stream_policy = tracer.self_seconds(POLICY_SPANS, since=stream_snap)
    rows.append(
        {
            "row": "bgp_policy",
            "wall_s": policy_total,
            "virtual_s": 0.0,
            "probes": {},
        }
    )
    rows.append(
        {
            "row": "stream",
            "wall_s": stream.wall_s - stream_policy,
            "virtual_s": stream.virtual_total_s,
            "probes": stream_probes,
        }
    )
    total = sum(row["wall_s"] for row in rows)
    for row in rows:
        row["share"] = _ratio(row["wall_s"], total)
    return rows


def run_traced(workload, seed: int, units: dict):
    from checks import digest
    from spans import SpanTracer, installed
    from workloads import POLICY_SPANS, Phases, probe_delta, probe_kinds

    problems = []
    #: (facade, result digest) of every untraced stream, in run order
    digests = []

    def untraced(null_obs=False) -> float:
        """One untraced stream; its reference seconds."""
        dep = workload.build(Phases(), null_obs=null_obs)
        stream = workload.stream(dep, seed)
        problems.extend(stream.problems)
        facade = "null" if null_obs else "full"
        digests.append((facade, digest(stream.results)))
        gc.collect()
        return stream.ref_s

    # The obs facade's share of the drain: full and null facades
    # alternate (full, null, null, full, ...), so drift in host speed
    # that calibration misses falls on both sides alike.
    full_s, null_s = [], []
    if workload.name == "service-zipf":
        for rep in range(OBS_REPS):
            order = (False, True) if rep % 2 == 0 else (True, False)
            for null_obs in order:
                (null_s if null_obs else full_s).append(untraced(null_obs))
    else:
        full_s.append(untraced())
    base_s = statistics.median(full_s)
    obs_share = 1.0 - statistics.median(null_s) / base_s if null_s else 0.0
    base_digest = digests[0][1]
    for facade, other in digests[1:]:
        if other != base_digest:
            problems.append(f"{facade}-facade digest {other} != {base_digest}")

    tracer = SpanTracer()
    with installed(tracer):
        phases = Phases(tracer)
        dep = workload.build(phases)
        before = _counters(dep)
        probes_before = probe_kinds(dep.scenario)
        snap = tracer.snapshot()
        with tracer.span("stream"):
            stream = workload.stream(dep, seed, tracer=tracer)
    after = _counters(dep)
    stream_probes = probe_delta(probes_before, probe_kinds(dep.scenario))
    problems.extend(stream.problems)
    traced_digest = digest(stream.results)
    if traced_digest != base_digest:
        problems.append(f"traced digest {traced_digest} != {base_digest}")

    requests = max(1, len(stream.results))
    own = tracer.self_seconds

    def delta(key):
        return after[key] - before[key]

    def online(kind):
        return (after["online"][kind] - before["online"][kind]) / requests

    hops = {}
    for result in stream.results:
        for hop in result.hops:
            hops[hop.technique.value] = hops.get(hop.technique.value, 0) + 1
    total_hops = sum(hops.values())
    internet = dep.scenario.internet
    survey = next(p for p in phases.rows if p.name == "ingress_survey")
    replaced = 0
    if getattr(dep, "pipeline", None) is not None:
        replaced = sum(
            report.dispositions.get("replaced", 0)
            for report in dep.pipeline.reports
        )
    obs_series = 0
    registry = getattr(dep.obs, "registry", None)
    if registry is not None:
        obs_series = sum(
            len(family["series"]) for family in registry.snapshot().values()
        )
    values = {
        "topology.build_s": own(("topology.build",)),
        "topology.policy_s": own(POLICY_SPANS),
        "topology.policy_computes": tracer.calls("topology.policy_compute"),
        "ingress.survey_s": own(
            ("ingress.survey_all", "ingress.survey_prefix")
        ),
        "ingress.rr_pings": survey.probes.get("rr", 0),
        "ingress.survey_virtual_s": survey.virtual_s,
        "ingress.select_s": own(("ingress.select",), snap),
        "atlas.build_s": own(("atlas.build",)),
        "atlas.lookup_s": own(("atlas.lookup",), snap),
        "rr_atlas.build_s": own(("rr_atlas.build",)),
        "rr_atlas.probes": sum(rr.probes_sent for rr in dep.rr_atlases()),
        "atlas.refresh_s": own(
            ("atlas.refresh", "atlas.pipeline_refresh"), snap
        ),
        "atlas.refresh_replaced": replaced,
        "sim.send_s": own(("sim.send_probe", "sim.send_batch"), snap),
        "sim.probes": delta("sim_probes"),
        "sim.fib_hit_ratio": _ratio(delta("fib_hits"), delta("fib_lookups")),
        "sim.fib_entries": internet.forwarding_cache_stats()["caches"]["fib"][
            "entries"
        ],
        "sim.invalidations": tracer.calls("sim.invalidate_routing", since=snap),
        "prober.self_s": own("prober.", snap),
        "prober.rr": online("rr"),
        "prober.spoofed_rr": online("spoof-rr"),
        "prober.spoofed_batches": tracer.calls(
            "prober.spoofed_rr_batch", since=snap
        ) / requests,
        "prober.ping": online("ping"),
        "prober.ts": online("ts") + online("spoof-ts"),
        "revtr.self_s": own("revtr.", snap),
        "revtr.retries": delta("retries") / requests,
        "cache.self_s": own("cache.", snap),
        "cache.hit_ratio": _ratio(delta("cache_hits"), delta("cache_lookups")),
        "cache.entries": sum(len(e.cache) for e in dep.engines.values()),
        "segcache.self_s": own("segcache.", snap),
        "segcache.hit_ratio": _ratio(delta("seg_hits"), delta("seg_lookups")),
        "segcache.splices": delta("seg_splices"),
        "segcache.invalidations": delta("seg_invalidations"),
        "scheduler.step_self_s": own(("scheduler.step",), snap),
        "scheduler.queue_wait_virtual_s_p50": percentile(
            stream.queue_wait_s, 0.50
        ),
        "scheduler.queue_wait_virtual_s_p99": percentile(
            stream.queue_wait_s, 0.99
        ),
        "scheduler.group_size_mean": (
            statistics.mean(stream.group_sizes) if stream.group_sizes else 0.0
        ),
        "scheduler.rejections": stream.rejections,
        "service.bootstrap_s": tracer.totals.get(
            "service.bootstrap", (0, 0.0, 0.0)
        )[1],
        "obs.self_s": own("obs.", snap),
        "obs.events_per_revtr": delta("events") / requests,
        "obs.series": obs_series,
        "obs.share": obs_share,
        "trace.overhead": stream.ref_s / base_s - 1.0,
    }
    for kind in suffixes(units, "revtr.steps."):
        values[f"revtr.steps.{kind}"] = (
            after["steps"].get(kind, 0) - before["steps"].get(kind, 0)
        ) / requests
    for technique in suffixes(units, "revtr.hop_share."):
        values[f"revtr.hop_share.{technique}"] = _ratio(
            hops.get(technique, 0), total_hops
        )
    values.update(workload.properties(dep, stream))
    metrics = collect(values, units)

    ledger = _ledger(phases, stream, tracer, snap, stream_probes)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}")
    tracer.write(stem + "-spans.jsonl")
    with open(stem + "-ledger.json", "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "requests": len(stream.results),
                "rows": ledger,
                "self_seconds": {
                    name: round(v[2], 6) for name, v in tracer.totals.items()
                },
            },
            fh,
            indent=2,
        )
    notes = [
        f"digest untraced {base_digest}",
        f"digest traced   {traced_digest}",
        "untraced stream reference s: full facade "
        + ", ".join(f"{s:.3f}" for s in full_s)
        + (
            "; null facade " + ", ".join(f"{s:.3f}" for s in null_s)
            if null_s
            else ""
        )
        + f"; traced {stream.ref_s:.3f}",
        f"spans kept {len(tracer.records)}, dropped {tracer.dropped}; "
        f"written to {stem}-spans.jsonl",
        "per-layer ledger (wall s excludes BGP policy, counted in its row):",
    ]
    for row in ledger:
        probes = ", ".join(f"{k}={v}" for k, v in sorted(row["probes"].items()))
        notes.append(
            f"  {row['row']:<17s} wall {row['wall_s']:8.3f} s  "
            f"virtual {row['virtual_s']:10.1f} s  share "
            f"{100 * row['share']:5.1f}%  probes {probes or '-'}"
        )
    return metrics, stream.attempted, stream.errors, problems, notes


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_one(args, manifest: dict) -> int:
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    if args.trace:
        metrics, attempted, failed, problems, notes = run_traced(
            workload, args.seed, declared_units(manifest, "per_layer")
        )
    else:
        metrics, attempted, failed, problems, notes = run_timed(
            workload, args.seed, args.seconds,
            declared_units(manifest, "end_to_end"),
        )
    print(f"workload {workload.name}  seed {args.seed}  "
          f"trace {args.trace}{'  (smoke)' if args.smoke else ''}")
    for note in notes:
        print(note)
    for name, metric in metrics.items():
        print(f"  {name:<38s} {metric['value']:>14.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args, manifest: dict) -> int:
    """Every workload, untraced then traced, each in its own process."""
    failures = 0
    for name in (workload["name"] for workload in manifest["workloads"]):
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                failures += 1
    print(f"{failures} failing run(s)" if failures else "all runs correct")
    return 1 if failures else 0


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    manifest = load_manifest()
    names = [workload["name"] for workload in manifest["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=manifest["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny topologies and short streams (seconds, for tests)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, manifest)
    return run_one(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
