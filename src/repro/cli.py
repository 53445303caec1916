"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``measure`` — build a simulated Internet and run reverse traceroutes
  toward an M-Lab-like source, printing hop-by-hop results
  (``--json`` for machine-readable output with per-measurement trace
  trees, ``--metrics-out FILE`` to save the metrics snapshot);
* ``asymmetry`` — run a miniature §6.2 bidirectional study;
* ``te`` — run the §6.1 traffic-engineering loop;
* ``survey`` — the Appendix F record-route responsiveness survey
  (``--json`` for machine-readable output);
* ``stats`` — render a Prometheus-style metrics exposition, either
  from a saved snapshot (``--from``) or by running a fresh workload
  (``--slo`` for the event/histogram-derived SLO rollup instead);
* ``explain`` — reconstruct one measurement's decision path from the
  flight recorder: which techniques ran, which VPs were probed, where
  the probe budget went (from a ``--events`` JSONL export or a fresh
  instrumented run);
* ``events`` — dump or tail the structured event log (``--from`` for
  a JSONL export incl. rotated ``.gz`` segments, ``--follow`` to
  poll a live file, ``--json`` for raw records);
* ``atlas`` — the offline atlas pipeline: ``build`` both atlases for
  a source over shard lanes with probe dedup, ``save`` a versioned
  snapshot, ``load`` to warm-start (optionally running measurements
  off the loaded atlases);
* ``serve`` — demo the request scheduler: several users with
  different parallel limits submit a burst of requests which are
  multiplexed over ``--parallel`` lanes with admission control
  (``--json`` for the machine-readable report);
* ``chaos`` — run a measurement workload under deterministic fault
  injection (packet loss, ICMP rate limiting, VP outages, spoofed
  black-holes) and report how gracefully the system degraded
  (``--preset`` scenarios seeded by ``--seed``; ``--plan`` replays a
  saved JSON plan bit-for-bit);
* ``health`` — one-command diagnosis: run a (faulted) workload with
  the telemetry sampler on, evaluate windowed health rules, and
  report typed findings each citing the flight-recorder events and
  metric windows behind it (``--json`` for machines);
* ``top`` — live refreshing terminal dashboard (rates with
  sparklines, SLO rollup, health findings) over a background
  measurement workload;
* ``benchdiff`` — compare two or more ``BENCH_*.json`` artifacts,
  gating regressions beyond ``--threshold`` percent (non-zero exit);
  wall-clock keys are reported but never gated.

``stats --watch SECONDS`` re-renders the stats/SLO view in place
while a workload runs, and ``serve --http PORT`` exposes
``/metrics``, ``/metrics.json``, ``/health`` and ``/timeseries``
over HTTP while the scheduler demo executes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.topology import TopologyConfig


def _scenario(
    args: argparse.Namespace, instrumentation=None
) -> Scenario:
    config = {
        "tiny": TopologyConfig.tiny,
        "small": TopologyConfig.small,
        "evaluation": TopologyConfig.evaluation,
        "large": TopologyConfig.large,
    }[args.scale](seed=args.seed)
    scenario = Scenario(
        config=config,
        seed=args.seed,
        atlas_size=args.atlas_size,
        instrumentation=instrumentation,
    )
    if getattr(args, "no_fastpath", False):
        scenario.internet.enable_fastpath(False)
    return scenario


def _write_metrics(instr: Instrumentation, path: Optional[str]) -> None:
    if not path:
        return
    with open(path, "w") as fh:
        json.dump(instr.registry.snapshot(), fh, indent=2)


def _write_events(
    instr: Instrumentation,
    path: Optional[str],
    rotate_bytes: Optional[int] = None,
) -> None:
    """Drain the flight recorder to a JSONL file (optional rotation)."""
    if not path or instr.events is None:
        return
    from repro.obs.eventio import JsonlEventWriter

    with JsonlEventWriter(path, rotate_bytes=rotate_bytes) as writer:
        writer.drain(instr.events)


def _format_event_doc(doc: dict) -> str:
    """One human-readable line per event record."""
    clock = (
        f"sim={doc['sim']:10.3f}" if "sim" in doc
        else f"wall={doc.get('wall', 0.0):.3f}"
    )
    mid = doc.get("mid") or "-"
    fields = doc.get("fields") or {}
    payload = " ".join(f"{k}={fields[k]}" for k in sorted(fields))
    return (
        f"{doc.get('seq', 0):6d}  {clock}  {mid:<9s} "
        f"{doc.get('kind', '?'):<18s} {payload}"
    )


def _amortization_config(scenario, args):
    """Engine config honouring --segment-cache/--coalesce, or None
    when neither flag is set (so the cached default engine and its
    byte-identical behaviour are untouched)."""
    segment_cache = getattr(args, "segment_cache", False)
    coalesce = getattr(args, "coalesce", False)
    if not segment_cache and not coalesce:
        return None
    config = scenario.engine_config(args.variant)
    config.segment_cache = segment_cache
    config.coalesce_batches = coalesce
    return config


def _cmd_measure(args: argparse.Namespace) -> int:
    instr = Instrumentation()
    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[args.source_index]
    engine = scenario.engine(
        source,
        args.variant,
        config=_amortization_config(scenario, args),
    )
    destinations = (
        [args.dst]
        if args.dst
        else scenario.responsive_destinations(
            args.count, options_only=True
        )
    )
    measurements = []
    # With --coalesce the whole stream runs as one measure_many group;
    # per-measurement trace trees are only attributable in the
    # sequential path.
    coalesced = (
        engine.measure_many(destinations) if args.coalesce else None
    )
    for index, dst in enumerate(destinations):
        result = (
            coalesced[index]
            if coalesced is not None
            else engine.measure(dst)
        )
        if args.json:
            doc = result.to_dict()
            if coalesced is None:
                trace = instr.tracer.last_trace
                if trace is not None:
                    doc["trace"] = trace.to_dict()
            measurements.append(doc)
            continue
        print(result.render())
        print(
            f"  AS path: "
            f"{scenario.ip2as.collapsed_as_path(result.addresses())}"
        )
        print(f"  probes: {result.probe_counts}")
        print()
    if args.json:
        print(
            json.dumps(
                {
                    "measurements": measurements,
                    "metrics": instr.registry.snapshot(),
                },
                indent=2,
            )
        )
    _write_metrics(instr, args.metrics_out)
    _write_events(instr, args.events_out)
    return 0


def _cmd_asymmetry(args: argparse.Namespace) -> int:
    from repro.experiments import exp_asymmetry

    scenario = _scenario(args)
    campaign = exp_asymmetry.run(
        scenario, n_destinations=args.count, n_sources=3
    )
    print(exp_asymmetry.format_fig8a(campaign))
    print()
    print(exp_asymmetry.format_fig8b_table7(campaign))
    return 0


def _cmd_te(args: argparse.Namespace) -> int:
    from repro.experiments import exp_traffic_eng

    scenario = _scenario(args)
    result = exp_traffic_eng.run(scenario, n_monitors=args.count)
    print(exp_traffic_eng.format_report(result))
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.experiments import exp_rr_responsiveness

    result = exp_rr_responsiveness.run(seed=args.seed)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(exp_rr_responsiveness.format_table6(result))
    print()
    print(exp_rr_responsiveness.format_fig11(result))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.exposition import render_text

    if args.watch is not None and args.from_file:
        print(
            "error: --watch re-renders a live workload; it cannot be "
            "combined with --from FILE",
            file=sys.stderr,
        )
        return 2
    if args.watch is not None:
        return _stats_watch(args)
    if args.from_file:
        try:
            with open(args.from_file) as fh:
                snapshot = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read {args.from_file}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {args.from_file} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
        # Accept both a bare registry snapshot (--metrics-out) and a
        # full ``measure --json`` document.
        if "metrics" in snapshot and "series" not in next(
            iter(snapshot.values()), {}
        ):
            snapshot = snapshot["metrics"]
        if args.slo:
            from repro.obs.slo import format_slo, slo_summary

            print(format_slo(slo_summary(snapshot)))
        else:
            print(render_text(snapshot), end="")
        return 0

    # No snapshot given: run a fresh instrumented workload and report.
    instr = Instrumentation()
    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[args.source_index]
    engine = scenario.engine(
        source,
        args.variant,
        config=_amortization_config(scenario, args),
    )
    dsts = scenario.responsive_destinations(
        args.count, options_only=True
    )
    if args.coalesce:
        engine.measure_many(dsts)
    else:
        for dst in dsts:
            engine.measure(dst)
    if args.slo:
        from repro.obs.slo import format_slo, slo_summary

        print(format_slo(slo_summary(instr.registry.snapshot())))
    else:
        print(instr.registry.render_prometheus(), end="")
    return 0


def _stats_watch(args: argparse.Namespace) -> int:
    """``stats --watch``: re-render the stats/SLO view in place while
    a workload runs, sharing the ``repro top`` renderer machinery."""
    import threading

    from repro.obs.dashboard import live_view, render_top
    from repro.obs.exposition import render_text
    from repro.obs.timeseries import install_sampler

    instr = Instrumentation()
    sampler = install_sampler(instr, sim_interval=args.sample_interval)
    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[args.source_index]
    engine = scenario.engine(
        source,
        args.variant,
        config=_amortization_config(scenario, args),
    )
    dsts = scenario.responsive_destinations(
        args.count, options_only=True
    )
    stop = threading.Event()

    def workload() -> None:
        for dst in dsts:
            if stop.is_set():
                return
            engine.measure(dst)

    worker = threading.Thread(
        target=workload, name="repro-stats-workload", daemon=True
    )
    worker.start()

    def frame():
        sampler.sample()
        snapshot = instr.registry.snapshot()
        if args.slo:
            latest = sampler.latest
            text = render_top(
                snapshot,
                sampler=sampler,
                title="repro stats --slo",
                now_sim=latest.sim if latest is not None else None,
            )
        else:
            text = render_text(snapshot).rstrip("\n")
        return text, not worker.is_alive()

    try:
        live_view(frame, args.watch, max_frames=args.frames)
    finally:
        stop.set()
        worker.join(timeout=10)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.provenance import ProvenanceLedger

    if args.events_file:
        from repro.obs.eventio import read_events

        try:
            events = read_events(args.events_file)
        except FileNotFoundError:
            print(
                f"error: no event log at {args.events_file}",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        # No export given: run a fresh instrumented measurement (or
        # --count of them) and explain from the live flight recorder.
        instr = Instrumentation()
        scenario = _scenario(args, instrumentation=instr)
        source = scenario.sources()[args.source_index]
        engine = scenario.engine(source, args.variant)
        destinations = (
            [args.dst]
            if args.dst
            else scenario.responsive_destinations(
                args.count, options_only=True
            )
        )
        for dst in destinations:
            engine.measure(dst)
        events = instr.events.events()

    ordered_mids: List[str] = []
    for event in events:
        if event.mid is not None and event.mid not in ordered_mids:
            ordered_mids.append(event.mid)
    if not ordered_mids:
        print("error: event log holds no measurements", file=sys.stderr)
        return 2
    if args.mid == "all":
        selected = ordered_mids
    elif args.mid == "last":
        selected = [ordered_mids[-1]]
    elif args.mid in ordered_mids:
        selected = [args.mid]
    else:
        known = ", ".join(ordered_mids[-8:])
        print(
            f"error: no events for measurement {args.mid!r} "
            f"(recent: {known})",
            file=sys.stderr,
        )
        return 2

    documents = []
    for index, mid in enumerate(selected):
        ledger = ProvenanceLedger.from_events(events, mid)
        if args.json:
            documents.append(ledger.summary())
            continue
        if index:
            print()
        print(ledger.explain())
    if args.json:
        print(
            json.dumps(
                documents[0] if len(documents) == 1 else documents,
                indent=2,
                sort_keys=True,
            )
        )
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    if args.follow:
        if not args.from_file:
            print(
                "error: --follow needs --from FILE (a live JSONL log)",
                file=sys.stderr,
            )
            return 2
        from repro.obs.eventio import follow_jsonl

        try:
            for doc in follow_jsonl(
                args.from_file, max_seconds=args.max_seconds
            ):
                if args.kind and doc.get("kind") != args.kind:
                    continue
                if args.mid and doc.get("mid") != args.mid:
                    continue
                print(
                    json.dumps(doc, sort_keys=True)
                    if args.json
                    else _format_event_doc(doc)
                )
        except KeyboardInterrupt:
            pass
        return 0

    if args.from_file:
        from repro.obs.eventio import read_events

        try:
            events = read_events(args.from_file)
        except FileNotFoundError:
            print(
                f"error: no event log at {args.from_file}",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        # No file: run a fresh instrumented workload and dump its log.
        instr = Instrumentation()
        scenario = _scenario(args, instrumentation=instr)
        source = scenario.sources()[args.source_index]
        engine = scenario.engine(source, args.variant)
        for dst in scenario.responsive_destinations(
            args.count, options_only=True
        ):
            engine.measure(dst)
        events = instr.events.events()

    if args.kind:
        events = [e for e in events if e.kind == args.kind]
    if args.mid:
        events = [e for e in events if e.mid == args.mid]
    if args.tail:
        events = events[-args.tail:]
    for event in events:
        doc = event.to_dict()
        print(
            json.dumps(doc, sort_keys=True)
            if args.json
            else _format_event_doc(doc)
        )
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    from repro.core.atlas_pipeline import SnapshotError

    instr = Instrumentation()
    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[args.source_index]

    if args.atlas_command == "load":
        try:
            bundle = scenario.load_atlases(source, args.path)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        doc = {
            "source": source,
            "path": args.path,
            "traceroutes": len(bundle.atlas),
            "rr_aliases": (
                len(bundle.rr_atlas)
                if bundle.rr_atlas is not None
                else 0
            ),
            "measurements": [],
        }
        if args.measure:
            engine = scenario.engine(source, "revtr2.0")
            for dst in scenario.responsive_destinations(
                args.measure, options_only=True
            ):
                result = engine.measure(dst)
                doc["measurements"].append(result.to_dict())
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(
                f"loaded atlases for {source} from {args.path}: "
                f"{doc['traceroutes']} traceroutes, "
                f"{doc['rr_aliases']} RR aliases"
            )
            for measured in doc["measurements"]:
                print(
                    f"  revtr {measured['dst']} -> {source}: "
                    f"{measured['status']}, "
                    f"{len(measured['hops'])} hops"
                )
        _write_metrics(instr, args.metrics_out)
        return 0

    # build / save: cold-build through the pipeline, optionally
    # snapshotting the result for later warm starts.
    pipeline = scenario.atlas_pipeline(
        shards=args.shards,
        dedup=not args.no_dedup,
    )
    atlas, rr_atlas = pipeline.bootstrap(
        source,
        scenario.bundle_rng(source),
        size=args.atlas_size,
        max_size=args.atlas_size,
    )
    scenario.adopt_atlases(source, atlas, rr_atlas)
    out = getattr(args, "out", None)
    if out:
        scenario.save_atlases(source, out)
    doc = {
        "source": source,
        "shards": args.shards,
        "dedup": not args.no_dedup,
        "traceroutes": len(atlas),
        "rr_aliases": len(rr_atlas),
        "stages": [report.as_dict() for report in pipeline.reports],
        "snapshot": out,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"atlas pipeline for {source}: {len(atlas)} traceroutes, "
            f"{len(rr_atlas)} RR aliases "
            f"({args.shards} shards, dedup "
            f"{'off' if args.no_dedup else 'on'})"
        )
        for report in pipeline.reports:
            print(
                f"  {report.stage:<10s} {report.tasks:4d} tasks, "
                f"serial {report.serial_seconds:8.2f} vs -> "
                f"makespan {report.makespan_seconds:8.2f} vs "
                f"({report.speedup:.2f}x), "
                f"probes {report.probes_sent}"
                + (
                    f" (+{report.probes_deduped} deduped)"
                    if report.probes_deduped
                    else ""
                )
            )
        if out:
            print(f"  snapshot saved to {out}")
    _write_metrics(instr, args.metrics_out)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.revtr import EngineConfig
    from repro.service import (
        RevtrService,
        SchedulerConfig,
        SourceRegistry,
    )

    instr = Instrumentation()
    if args.http is not None or args.timeseries_out:
        from repro.obs.timeseries import install_sampler

        install_sampler(instr, sim_interval=args.sample_interval)
    scenario = _scenario(args, instrumentation=instr)
    registry = SourceRegistry(
        scenario.internet,
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.spoofer_addrs,
        atlas_size=args.atlas_size,
        seed=args.seed,
    )
    service = RevtrService(
        prober=scenario.online_prober,
        registry=registry,
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        resolver=scenario.resolver,
        engine_config=EngineConfig(
            segment_cache=args.segment_cache,
            coalesce_batches=args.coalesce,
        ),
        instrumentation=instr,
    )
    # A demo population: per-user parallel caps cycle 1, 2, 4, ...
    users = [
        service.add_user(
            f"user{i}",
            max_parallel=min(2**i, 8),
            max_per_day=args.requests * 4,
        )
        for i in range(args.users)
    ]
    source = scenario.sources()[args.source_index]
    service.add_source(users[0].api_key, source)
    destinations = scenario.responsive_destinations(
        args.requests, options_only=True
    )
    scheduler = service.scheduler(
        SchedulerConfig(
            parallelism=args.parallel,
            max_queue_per_user=args.queue,
            deadline=args.deadline,
            max_retries=args.retries,
            coalesce=args.coalesce,
        )
    )
    http_server = None
    if args.http is not None:
        from repro.obs.httpd import ObsHTTPServer

        http_server = ObsHTTPServer(
            instr, sampler=instr.sampler, port=args.http
        ).start()
        print(
            f"obs endpoint: {http_server.url} "
            f"(/metrics, /metrics.json, /health, /timeseries)",
            file=sys.stderr,
        )
    for user in users:
        for dst in destinations:
            scheduler.submit(user.api_key, dst, source)
    report = scheduler.run()
    doc = report.as_dict()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"served {doc['completed']}/{doc['submitted']} requests "
            f"over {args.parallel} lanes (virtual clock)"
        )
        print(
            f"  makespan:   {doc['makespan_virtual_seconds']:.1f} "
            f"virtual seconds"
        )
        print(
            f"  throughput: {doc['throughput_per_virtual_second']:.3f} "
            f"requests / virtual second"
        )
        print(f"  rejected:   {doc['rejected'] or 'none'}")
        print(f"  retries:    {doc['retries']}")
        for name, peak in doc["peak_inflight"].items():
            cap = service.users.get(name).max_parallel
            print(f"  {name}: peak {peak} in flight (cap {cap})")
    if instr.sampler is not None:
        instr.sampler.sample()
        if args.timeseries_out:
            with open(args.timeseries_out, "w") as fh:
                fh.write(instr.sampler.export_json())
                fh.write("\n")
    if http_server is not None:
        if args.http_hold > 0:
            import time as _time

            print(
                f"holding the obs endpoint open for "
                f"{args.http_hold:.0f}s (ctrl-C to stop) ...",
                file=sys.stderr,
            )
            try:
                _time.sleep(args.http_hold)
            except KeyboardInterrupt:
                pass
        http_server.stop()
    _write_metrics(instr, args.metrics_out)
    _write_events(instr, args.events_out, rotate_bytes=args.events_rotate)
    return 0


def _fault_workload(args: argparse.Namespace, instr: Instrumentation):
    """Build and run the faulted scheduler workload shared by
    ``repro chaos`` and ``repro health``.

    Construction order matches the original ``repro chaos`` wiring
    exactly — the chaos plan-replay byte-identity tests depend on it.
    Returns ``(scenario, source, plan, service, tracker, injector,
    report, engine)``.
    """
    from repro.core.revtr import EngineConfig
    from repro.service import (
        RevtrService,
        SchedulerConfig,
        SourceRegistry,
    )
    from repro.sim.faults import FaultPlan, preset_plan

    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[args.source_index]
    if args.plan:
        with open(args.plan) as fh:
            plan = FaultPlan.from_json(fh.read())
    else:
        # The source is itself a spoof-capable host; an outage preset
        # that downed it would kill every direct probe at injection and
        # measure source death, not VP churn — keep it out of the
        # fleet the presets draw from.
        plan = preset_plan(
            args.preset,
            seed=args.seed,
            vps=[vp for vp in scenario.spoofer_addrs if vp != source],
        )

    registry = SourceRegistry(
        scenario.internet,
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.spoofer_addrs,
        atlas_size=args.atlas_size,
        seed=args.seed,
    )
    service = RevtrService(
        prober=scenario.online_prober,
        registry=registry,
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        resolver=scenario.resolver,
        engine_config=EngineConfig(
            retry_budget=args.retry_budget,
            recheck_unresponsive=True,
            segment_cache=args.segment_cache,
            coalesce_batches=args.coalesce,
        ),
        instrumentation=instr,
    )
    user = service.add_user(
        "chaos", max_parallel=4, max_per_day=args.requests * 8
    )
    # Bootstrap (atlas builds) runs fault-free; the injector and the
    # quarantine tracker arm just before the measurement workload.
    service.add_source(user.api_key, source)
    tracker = scenario.install_vp_health(
        quarantine_seconds=args.quarantine
    )
    injector = scenario.install_faults(plan)

    destinations = scenario.responsive_destinations(
        args.requests, options_only=True
    )
    scheduler = service.scheduler(
        SchedulerConfig(
            parallelism=args.parallel,
            deadline=args.deadline,
            max_retries=args.retries,
            coalesce=args.coalesce,
        )
    )
    for dst in destinations:
        scheduler.submit(user.api_key, dst, source)
    report = scheduler.run()
    engine = service._engine_for(source)
    return (
        scenario, source, plan, service, tracker, injector, report,
        engine,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    instr = Instrumentation()
    (
        scenario, source, plan, service, tracker, injector, report,
        engine,
    ) = _fault_workload(args, instr)

    if args.plan_out:
        with open(args.plan_out, "w") as fh:
            fh.write(plan.to_json())
            fh.write("\n")
    doc = {
        "preset": None if args.plan else args.preset,
        "seed": args.seed,
        "plan": plan.to_dict(),
        "faults": injector.snapshot(),
        "vp_health": tracker.snapshot(),
        "engine_retries": dict(sorted(engine.retry_counts.items())),
        "scheduler": report.as_dict(),
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        label = args.plan if args.plan else f"preset '{args.preset}'"
        sched = doc["scheduler"]
        print(
            f"chaos {label}: {doc['faults']['total']} faults injected "
            f"{dict(doc['faults']['by_kind'])}"
        )
        print(
            f"  requests:    {sched['completed']}/{sched['submitted']} "
            f"completed, statuses {sched['statuses']}"
        )
        print(
            f"  degradation: {sched.get('partial_results', 0)} partial "
            f"results, retries {doc['engine_retries'] or 'none'}"
        )
        print(
            f"  vp health:   {doc['vp_health']['quarantines']} "
            f"quarantined, {doc['vp_health']['replacements']} replaced, "
            f"{doc['vp_health']['recoveries']} requalified"
        )
    _write_metrics(instr, args.metrics_out)
    _write_events(instr, args.events_out)
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.health import (
        HealthConfig,
        HealthEngine,
        format_findings,
    )
    from repro.obs.timeseries import install_sampler

    instr = Instrumentation()
    sampler = install_sampler(instr, sim_interval=args.sample_interval)
    (
        scenario, source, plan, service, tracker, injector, report,
        engine,
    ) = _fault_workload(args, instr)
    # Close the last window so the final state is always in the ring.
    sampler.sample()

    config = HealthConfig()
    if args.window is not None:
        for attr in (
            "slo_window", "cache_window", "retry_window",
            "quarantine_window", "queue_window", "drops_window",
            "atlas_window", "rejection_window",
        ):
            setattr(config, attr, args.window)
    health = HealthEngine(config)
    findings = health.evaluate(sampler, instr.events)
    status = HealthEngine.status(findings)

    if args.timeseries_out:
        with open(args.timeseries_out, "w") as fh:
            fh.write(sampler.export_json())
            fh.write("\n")
    doc = {
        "preset": None if args.plan else args.preset,
        "seed": args.seed,
        "status": status,
        "findings": [finding.to_dict() for finding in findings],
        "timeseries": sampler.summary(),
        "faults": injector.snapshot(),
        "vp_health": tracker.snapshot(),
        "engine_retries": dict(sorted(engine.retry_counts.items())),
        "scheduler": report.as_dict(),
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        label = args.plan if args.plan else f"preset '{args.preset}'"
        sched = doc["scheduler"]
        print(
            f"health check under {label}: "
            f"{sched['completed']}/{sched['submitted']} requests "
            f"completed, {doc['faults']['total']} faults injected, "
            f"{doc['timeseries']['samples']} telemetry samples"
        )
        print(format_findings(findings, status))
        if findings:
            print(
                "(inspect cited events with `repro events`; "
                "`repro explain <mid>` narrates one measurement)"
            )
    _write_metrics(instr, args.metrics_out)
    _write_events(instr, args.events_out)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import threading

    from repro.obs.dashboard import live_view, render_top
    from repro.obs.health import HealthEngine
    from repro.obs.timeseries import install_sampler

    instr = Instrumentation()
    sampler = install_sampler(instr, sim_interval=args.sample_interval)
    scenario = _scenario(args, instrumentation=instr)
    source = scenario.sources()[args.source_index]
    engine = scenario.engine(
        source,
        args.variant,
        config=_amortization_config(scenario, args),
    )
    pool = scenario.responsive_destinations(
        args.count, options_only=True
    )
    health = HealthEngine()
    stop = threading.Event()

    def workload() -> None:
        issued = 0
        while issued < args.requests and not stop.is_set():
            engine.measure(pool[issued % len(pool)])
            issued += 1

    worker = threading.Thread(
        target=workload, name="repro-top-workload", daemon=True
    )
    worker.start()

    def frame():
        sampler.sample()
        snapshot = instr.registry.snapshot()
        findings = health.evaluate(sampler, instr.events)
        latest = sampler.latest
        text = render_top(
            snapshot,
            sampler=sampler,
            findings=findings,
            title=f"repro top — {args.requests} requests to {source}",
            now_sim=latest.sim if latest is not None else None,
        )
        return text, not worker.is_alive()

    try:
        live_view(frame, args.interval, max_frames=args.frames)
    finally:
        stop.set()
        worker.join(timeout=10)
    return 0


def _cmd_benchdiff(args: argparse.Namespace) -> int:
    from repro.obs.benchdiff import diff_files, format_diff

    try:
        report = diff_files(
            args.base, args.candidates, threshold_pct=args.threshold
        )
    except OSError as exc:
        print(
            f"error: cannot read benchmark file: {exc}", file=sys.stderr
        )
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid benchmark JSON: {exc}", file=sys.stderr)
        return 2
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_diff(report, verbose=args.verbose))
    if not report["ok"] and not args.report_only:
        return 1
    return 0


def _add_amortization_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--segment-cache",
        action="store_true",
        help="reuse reverse segments across measurements toward the "
        "same source (off by default; invalidated on routing change)",
    )
    p.add_argument(
        "--coalesce",
        action="store_true",
        help="coalesce concurrent measurements: duplicate spoofed-RR "
        "batches and ping checks collapse (off by default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Internet Scale Reverse Traceroute — reproduction",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--scale",
        choices=("tiny", "small", "evaluation", "large"),
        default="small",
    )
    parser.add_argument("--atlas-size", type=int, default=20)
    parser.add_argument(
        "--no-fastpath",
        action="store_true",
        help="disable the forwarding fast-path caches (FIB, resolve, "
        "LPM); useful for timing comparisons and debugging",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser(
        "measure", help="run reverse traceroutes"
    )
    measure.add_argument("--dst", help="specific destination address")
    measure.add_argument("--count", type=int, default=3)
    measure.add_argument("--source-index", type=int, default=0)
    measure.add_argument(
        "--variant",
        default="revtr2.0",
        help="system variant (e.g. revtr2.0, revtr1.0)",
    )
    _add_amortization_flags(measure)
    measure.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: results, traces, metrics",
    )
    measure.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics JSON snapshot to FILE",
    )
    measure.add_argument(
        "--events-out",
        metavar="FILE",
        help="export the flight-recorder event log to FILE (JSONL)",
    )
    measure.set_defaults(func=_cmd_measure)

    asymmetry = sub.add_parser(
        "asymmetry", help="bidirectional asymmetry study"
    )
    asymmetry.add_argument("--count", type=int, default=100)
    asymmetry.set_defaults(func=_cmd_asymmetry)

    te = sub.add_parser(
        "te", help="traffic-engineering case study"
    )
    te.add_argument("--count", type=int, default=60)
    te.set_defaults(func=_cmd_te)

    survey = sub.add_parser(
        "survey", help="record-route responsiveness survey"
    )
    survey.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (counts, fractions, CDFs)",
    )
    survey.set_defaults(func=_cmd_survey)

    stats = sub.add_parser(
        "stats",
        help="Prometheus-style metrics exposition",
    )
    stats.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        help="render a saved snapshot (measure --metrics-out/--json) "
        "instead of running a workload",
    )
    stats.add_argument("--count", type=int, default=3)
    stats.add_argument("--source-index", type=int, default=0)
    stats.add_argument("--variant", default="revtr2.0")
    _add_amortization_flags(stats)
    stats.add_argument(
        "--slo",
        action="store_true",
        help="print the SLO rollup (per-technique success rates, "
        "latency quantiles) instead of the raw exposition",
    )
    stats.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render the view in place every SECONDS while a "
        "fresh workload runs (shares the `repro top` renderer)",
    )
    stats.add_argument(
        "--frames",
        type=int,
        default=0,
        metavar="N",
        help="with --watch: stop after N frames (default: until the "
        "workload finishes)",
    )
    stats.add_argument(
        "--sample-interval",
        type=float,
        default=15.0,
        metavar="SIM_SECONDS",
        help="with --watch: telemetry sampling interval on the "
        "virtual clock",
    )
    stats.set_defaults(func=_cmd_stats)

    explain = sub.add_parser(
        "explain",
        help="reconstruct one measurement's decision path from the "
        "flight recorder",
    )
    explain.add_argument(
        "mid",
        nargs="?",
        default="last",
        help="measurement id (m-000001, ...), 'last', or 'all' "
        "(default: last)",
    )
    explain.add_argument(
        "--events",
        dest="events_file",
        metavar="FILE",
        help="read a JSONL event export (measure/serve --events-out) "
        "instead of running a fresh measurement",
    )
    explain.add_argument("--dst", help="specific destination address")
    explain.add_argument("--count", type=int, default=1)
    explain.add_argument("--source-index", type=int, default=0)
    explain.add_argument("--variant", default="revtr2.0")
    explain.add_argument(
        "--json",
        action="store_true",
        help="machine-readable provenance summary instead of the "
        "narrative",
    )
    explain.set_defaults(func=_cmd_explain)

    events = sub.add_parser(
        "events",
        help="dump or tail the structured event log",
    )
    events.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        help="read a JSONL export (incl. rotated .gz segments) "
        "instead of running a fresh workload",
    )
    events.add_argument(
        "--follow",
        action="store_true",
        help="poll FILE for appended events (tail -f); needs --from",
    )
    events.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop following after this many seconds (default: never)",
    )
    events.add_argument(
        "--kind", help="only events of this kind (e.g. rr.step)"
    )
    events.add_argument(
        "--mid", help="only events for this measurement id"
    )
    events.add_argument(
        "--tail",
        type=int,
        default=0,
        metavar="N",
        help="only the last N events",
    )
    events.add_argument(
        "--json",
        action="store_true",
        help="raw JSONL records instead of formatted lines",
    )
    events.add_argument("--count", type=int, default=3)
    events.add_argument("--source-index", type=int, default=0)
    events.add_argument("--variant", default="revtr2.0")
    events.set_defaults(func=_cmd_events)

    atlas = sub.add_parser(
        "atlas",
        help="offline atlas pipeline: sharded build, snapshots",
    )
    atlas_sub = atlas.add_subparsers(dest="atlas_command", required=True)

    def _atlas_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--source-index", type=int, default=0)
        p.add_argument("--json", action="store_true")
        p.add_argument(
            "--metrics-out", metavar="FILE",
            help="write the metrics JSON snapshot to FILE",
        )

    def _atlas_build_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--shards", type=int, default=4,
            help="shard lanes for the parallel build",
        )
        p.add_argument(
            "--no-dedup", action="store_true",
            help="probe every hop occurrence instead of once per "
            "distinct address",
        )
        _atlas_common(p)

    atlas_build = atlas_sub.add_parser(
        "build", help="cold-build both atlases through the pipeline"
    )
    atlas_build.add_argument(
        "--out", metavar="FILE",
        help="also save a snapshot for later warm starts",
    )
    _atlas_build_args(atlas_build)
    atlas_build.set_defaults(func=_cmd_atlas)

    atlas_save = atlas_sub.add_parser(
        "save", help="cold-build and snapshot to --out"
    )
    atlas_save.add_argument("--out", metavar="FILE", required=True)
    _atlas_build_args(atlas_save)
    atlas_save.set_defaults(func=_cmd_atlas)

    atlas_load = atlas_sub.add_parser(
        "load", help="warm-start from a snapshot"
    )
    atlas_load.add_argument("--path", metavar="FILE", required=True)
    atlas_load.add_argument(
        "--measure", type=int, default=0,
        help="run this many reverse traceroutes off the loaded atlases",
    )
    _atlas_common(atlas_load)
    atlas_load.set_defaults(func=_cmd_atlas)

    serve = sub.add_parser(
        "serve",
        help="request-scheduler demo: admission control under load",
    )
    serve.add_argument(
        "--parallel", type=int, default=4,
        help="execution lanes on the virtual clock",
    )
    serve.add_argument("--users", type=int, default=3)
    serve.add_argument(
        "--requests", type=int, default=6,
        help="requests submitted per user",
    )
    serve.add_argument(
        "--queue", type=int, default=16,
        help="bounded per-user queue length",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-request queue-wait deadline (virtual seconds)",
    )
    serve.add_argument(
        "--retries", type=int, default=0,
        help="retry budget for unresponsive destinations",
    )
    serve.add_argument("--source-index", type=int, default=0)
    serve.add_argument("--json", action="store_true")
    serve.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the metrics JSON snapshot to FILE",
    )
    serve.add_argument(
        "--events-out",
        metavar="FILE",
        help="export the flight-recorder event log to FILE (JSONL)",
    )
    serve.add_argument(
        "--events-rotate",
        type=int,
        default=None,
        metavar="BYTES",
        help="gzip-rotate the event log once it exceeds BYTES "
        "(FILE.1.gz, FILE.2.gz, ...)",
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the obs endpoint on PORT while the workload runs "
        "(0 = ephemeral): /metrics (Prometheus text), /metrics.json, "
        "/health, /timeseries",
    )
    serve.add_argument(
        "--http-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the obs endpoint up for SECONDS after the workload "
        "finishes (for scraping the final state)",
    )
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=15.0,
        metavar="SIM_SECONDS",
        help="telemetry sampling interval on the virtual clock "
        "(used with --http/--timeseries-out)",
    )
    serve.add_argument(
        "--timeseries-out",
        metavar="FILE",
        help="write the sampled telemetry time-series to FILE (JSON)",
    )
    _add_amortization_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection scenario with graceful degradation",
    )
    chaos.add_argument(
        "--preset",
        choices=(
            "none", "loss", "rate-limit", "vp-flap", "blackhole",
            "mixed",
        ),
        default="mixed",
        help="named fault scenario (seeded by the global --seed)",
    )
    chaos.add_argument(
        "--plan", metavar="FILE",
        help="replay a fault plan saved as JSON instead of a preset",
    )
    chaos.add_argument(
        "--plan-out", metavar="FILE",
        help="save the effective fault plan as JSON (for replay)",
    )
    chaos.add_argument(
        "--requests", type=int, default=6,
        help="measurement requests submitted under faults",
    )
    chaos.add_argument(
        "--parallel", type=int, default=2,
        help="scheduler execution lanes",
    )
    chaos.add_argument(
        "--deadline", type=float, default=None,
        help="per-request queue-wait deadline (virtual seconds)",
    )
    chaos.add_argument(
        "--retries", type=int, default=1,
        help="scheduler retry budget for unresponsive destinations",
    )
    chaos.add_argument(
        "--retry-budget", type=int, default=8,
        help="engine-level technique retries per measurement",
    )
    chaos.add_argument(
        "--quarantine", type=float, default=900.0,
        help="VP quarantine window (virtual seconds)",
    )
    chaos.add_argument("--source-index", type=int, default=0)
    chaos.add_argument("--json", action="store_true")
    chaos.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the metrics JSON snapshot to FILE",
    )
    chaos.add_argument(
        "--events-out",
        metavar="FILE",
        help="export the flight-recorder event log to FILE (JSONL)",
    )
    _add_amortization_flags(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    health = sub.add_parser(
        "health",
        help="one-command diagnosis: run a (faulted) workload, sample "
        "the telemetry time-series, report typed health findings",
    )
    health.add_argument(
        "--preset",
        choices=(
            "none", "loss", "rate-limit", "vp-flap", "blackhole",
            "mixed",
        ),
        default="mixed",
        help="named fault scenario (seeded by the global --seed); "
        "'none' checks a healthy run",
    )
    health.add_argument(
        "--plan", metavar="FILE",
        help="replay a fault plan saved as JSON instead of a preset",
    )
    health.add_argument(
        "--requests", type=int, default=8,
        help="measurement requests submitted under faults",
    )
    health.add_argument(
        "--parallel", type=int, default=2,
        help="scheduler execution lanes",
    )
    health.add_argument(
        "--deadline", type=float, default=None,
        help="per-request queue-wait deadline (virtual seconds)",
    )
    health.add_argument(
        "--retries", type=int, default=1,
        help="scheduler retry budget for unresponsive destinations",
    )
    health.add_argument(
        "--retry-budget", type=int, default=8,
        help="engine-level technique retries per measurement",
    )
    health.add_argument(
        "--quarantine", type=float, default=900.0,
        help="VP quarantine window (virtual seconds)",
    )
    health.add_argument(
        "--sample-interval", type=float, default=15.0,
        metavar="SIM_SECONDS",
        help="telemetry sampling interval on the virtual clock",
    )
    health.add_argument(
        "--window", type=float, default=None,
        metavar="SIM_SECONDS",
        help="override every detector's evaluation window "
        "(default: per-rule windows)",
    )
    health.add_argument("--source-index", type=int, default=0)
    health.add_argument("--json", action="store_true")
    health.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the metrics JSON snapshot to FILE",
    )
    health.add_argument(
        "--events-out", metavar="FILE",
        help="export the flight-recorder event log to FILE (JSONL)",
    )
    health.add_argument(
        "--timeseries-out", metavar="FILE",
        help="write the sampled telemetry time-series to FILE (JSON)",
    )
    _add_amortization_flags(health)
    health.set_defaults(func=_cmd_health)

    top = sub.add_parser(
        "top",
        help="live refreshing terminal dashboard over a running "
        "measurement workload",
    )
    top.add_argument(
        "--requests", type=int, default=30,
        help="measurements the background workload issues",
    )
    top.add_argument(
        "--count", type=int, default=10,
        help="distinct destinations cycled by the workload",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        metavar="SECONDS",
        help="wall-clock refresh interval between frames",
    )
    top.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="stop after N frames (default: until the workload "
        "finishes)",
    )
    top.add_argument(
        "--sample-interval", type=float, default=15.0,
        metavar="SIM_SECONDS",
        help="telemetry sampling interval on the virtual clock",
    )
    top.add_argument("--source-index", type=int, default=0)
    top.add_argument("--variant", default="revtr2.0")
    _add_amortization_flags(top)
    top.set_defaults(func=_cmd_top)

    benchdiff = sub.add_parser(
        "benchdiff",
        help="compare BENCH_*.json artifacts and flag regressions",
    )
    benchdiff.add_argument(
        "base", help="baseline benchmark JSON (e.g. the committed one)"
    )
    benchdiff.add_argument(
        "candidates", nargs="+",
        help="one or more candidate benchmark JSON files",
    )
    benchdiff.add_argument(
        "--threshold", type=float, default=20.0, metavar="PCT",
        help="gated regression threshold in percent (default: 20)",
    )
    benchdiff.add_argument(
        "--json", action="store_true",
        help="machine-readable diff report",
    )
    benchdiff.add_argument(
        "--verbose", action="store_true",
        help="also list ungated (wall-clock/informational) changes",
    )
    benchdiff.add_argument(
        "--report-out", metavar="FILE",
        help="also write the JSON diff report to FILE",
    )
    benchdiff.add_argument(
        "--report-only", action="store_true",
        help="always exit 0, even when gated regressions were found",
    )
    benchdiff.set_defaults(func=_cmd_benchdiff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piped into `head` etc.; suppress the noisy traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
