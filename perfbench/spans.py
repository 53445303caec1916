"""A span tracer that wraps the program's public methods from outside.

The traced run patches the public methods listed in :data:`TARGETS` on
their classes (and a few module-level functions in the namespaces that
call them) for the lifetime of one :func:`installed` block, then puts
the originals back.  Each call becomes a span: name, start, end, the
span that caused it, and the request the benchmark was issuing.  Self
time — a span's duration minus the time its child spans cover — is
accumulated per span name as calls return, so the hottest methods
(``RoutingPolicy.routes``, ``Internet.send_probe``) cost one stack push
and pop each.  Every span's timing enters the aggregates; only the
first :data:`KEEP_PER_NAME` spans of each name are kept as
records, and :meth:`SpanTracer.write` saves them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import time
from typing import Dict, List, Tuple

#: span records kept per span name (later spans only enter aggregates)
KEEP_PER_NAME = 1_000

#: (module, owner attribute or "" for module level, method, span name).
#: The span name's first dotted part is its layer.
TARGETS: List[Tuple[str, str, str, str]] = [
    # topology
    ("repro.experiments.common", "", "build_internet", "topology.build"),
    ("repro.topology.policy", "RoutingPolicy", "routes", "topology.policy"),
    # The one private method wrapped: its calls count route computations
    # (distinct announcement specs per routing generation).
    (
        "repro.topology.policy", "RoutingPolicy", "_compute",
        "topology.policy_compute",
    ),
    # sim
    ("repro.sim.network", "Internet", "send_probe", "sim.send_probe"),
    ("repro.sim.network", "Internet", "send_probe_batch", "sim.send_batch"),
    (
        "repro.sim.network", "Internet", "invalidate_routing",
        "sim.invalidate_routing",
    ),
    # probing
    ("repro.probing.prober", "Prober", "ping", "prober.ping"),
    ("repro.probing.prober", "Prober", "rr_ping", "prober.rr_ping"),
    ("repro.probing.prober", "Prober", "rr_ping_batch", "prober.rr_batch"),
    (
        "repro.probing.prober", "Prober", "spoofed_rr_batch",
        "prober.spoofed_rr_batch",
    ),
    ("repro.probing.prober", "Prober", "ts_ping", "prober.ts_ping"),
    ("repro.probing.prober", "Prober", "snmpv3_probe", "prober.snmpv3"),
    ("repro.core.atlas", "", "paris_traceroute", "prober.traceroute"),
    (
        "repro.core.atlas_pipeline", "", "paris_traceroute",
        "prober.traceroute",
    ),
    ("repro.core.symmetry", "", "paris_traceroute", "prober.traceroute"),
    (
        "repro.probing.traceroute", "", "paris_traceroute",
        "prober.traceroute",
    ),
    # core.ingress
    (
        "repro.core.ingress", "IngressDirectory", "survey_all",
        "ingress.survey_all",
    ),
    (
        "repro.core.ingress", "IngressDirectory", "survey_prefix",
        "ingress.survey_prefix",
    ),
    ("repro.core.ingress", "IngressSelector", "session", "ingress.select"),
    ("repro.core.ingress", "IngressSelector", "batches", "ingress.select"),
    (
        "repro.core.ingress", "IngressProbeSession", "next_batch",
        "ingress.select",
    ),
    (
        "repro.core.ingress", "IngressProbeSession", "observe",
        "ingress.select",
    ),
    # core.atlas, core.rr_atlas, core.atlas_pipeline
    ("repro.core.atlas", "TracerouteAtlas", "build", "atlas.build"),
    ("repro.core.atlas", "TracerouteAtlas", "refresh", "atlas.refresh"),
    ("repro.core.atlas", "TracerouteAtlas", "lookup", "atlas.lookup"),
    ("repro.core.rr_atlas", "RRAtlas", "build", "rr_atlas.build"),
    ("repro.core.rr_atlas", "RRAtlas", "lookup", "atlas.lookup"),
    (
        "repro.core.atlas_pipeline", "AtlasPipeline", "refresh",
        "atlas.pipeline_refresh",
    ),
    # core.revtr
    ("repro.core.revtr", "RevtrEngine", "measure", "revtr.measure"),
    ("repro.core.revtr", "RevtrEngine", "measure_many", "revtr.measure_many"),
    # core.cache, core.segcache
    ("repro.core.cache", "MeasurementCache", "get", "cache.get"),
    ("repro.core.cache", "MeasurementCache", "put", "cache.put"),
    ("repro.core.segcache", "ReverseSegmentCache", "lookup", "segcache.lookup"),
    ("repro.core.segcache", "ReverseSegmentCache", "chain", "segcache.chain"),
    ("repro.core.segcache", "ReverseSegmentCache", "store", "segcache.store"),
    (
        "repro.core.segcache", "ReverseSegmentCache", "store_negative",
        "segcache.store",
    ),
    # service
    ("repro.service.scheduler", "RequestScheduler", "step", "scheduler.step"),
    (
        "repro.service.scheduler", "RequestScheduler", "submit",
        "scheduler.submit",
    ),
    (
        "repro.service.sources", "SourceRegistry", "register",
        "service.bootstrap",
    ),
    # obs
    ("repro.obs.events", "EventLog", "emit", "obs.emit"),
    ("repro.obs.events", "EventLog", "emit_t", "obs.emit"),
    ("repro.obs.instrument", "Instrumentation", "inc", "obs.metric"),
    ("repro.obs.instrument", "Instrumentation", "observe", "obs.metric"),
    ("repro.obs.instrument", "Instrumentation", "set_gauge", "obs.metric"),
    ("repro.obs.tracing", "Tracer", "span", "obs.span"),
    ("repro.obs.tracing", "Span", "__exit__", "obs.span"),
]


class SpanTracer:
    """Stack-based span recorder with per-name self-time aggregates."""

    def __init__(self) -> None:
        #: request id stamped on spans opened while it is set
        self.request = None
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (id, name, start, end, parent id, request)
        self.records: List[tuple] = []
        self.dropped = 0
        self._kept: Dict[str, int] = {}
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()

    def wrap(self, fn, name: str):
        """*fn* wrapped so each call records one span called *name*."""
        enter = self._enter
        leave = self._leave
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, totals, frame)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (set-up phases, streams)."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        frame = self._enter()
        try:
            yield
        finally:
            self._leave(name, totals, frame)

    def _enter(self) -> list:
        stack = self._stack
        # [start, child seconds, span id, parent id]
        frame = [
            time.perf_counter(), 0.0, next(self._ids),
            stack[-1][2] if stack else 0,
        ]
        stack.append(frame)
        return frame

    def _leave(self, name: str, totals: list, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[1]
        kept = self._kept.get(name, 0)
        if kept >= KEEP_PER_NAME:
            self.dropped += 1
            return
        self._kept[name] = kept + 1
        self.records.append(
            (frame[2], name, frame[0] - self._t0, end - self._t0,
             frame[3], self.request)
        )

    def snapshot(self) -> Dict[str, Tuple[float, float, float]]:
        """Frozen copy of the aggregates, for phase deltas."""
        return {name: tuple(v) for name, v in self.totals.items()}

    def self_seconds(self, match, since=None) -> float:
        """Summed self time of the spans named in *match* (a tuple of
        names) or, for a string, of every span starting with it;
        optionally only what accrued after a :meth:`snapshot`."""
        total = 0.0
        for name, (_, _, own) in self.totals.items():
            if isinstance(match, str):
                if not name.startswith(match):
                    continue
            elif name not in match:
                continue
            if since is not None and name in since:
                own -= since[name][2]
            total += own
        return total

    def calls(self, name: str, since=None) -> int:
        count = self.totals.get(name, (0, 0.0, 0.0))[0]
        if since is not None and name in since:
            count -= since[name][0]
        return int(count)

    def write(self, path: str) -> None:
        """Save the kept span records as JSON lines."""
        with open(path, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "spans_kept": len(self.records),
                        "spans_dropped": self.dropped,
                        "keep_per_name": KEEP_PER_NAME,
                    }
                )
                + "\n"
            )
            for span_id, name, start, end, parent, request in self.records:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": round(start, 9),
                            "end": round(end, 9),
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def installed(tracer: SpanTracer):
    """Patch every :data:`TARGETS` entry for the duration of the block."""
    saved = []
    try:
        for module_name, owner_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            if not callable(original):
                raise TypeError(
                    f"{module_name}.{owner_name}.{attr} is not a function"
                )
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, span_name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
