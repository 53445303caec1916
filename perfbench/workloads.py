"""The three workloads: deployment set-up and the request streams.

Each workload builds its deployment through the program's public entry
points (``Scenario``, ``RevtrService``, ``AtlasPipeline``) and drives it
with inputs generated from the benchmark seed.  The topology of each
workload is fixed (large seed 11, small seed 7, small seed 5), and so
are the Zipf popularity order, the fault plan and the routing changes;
the benchmark seed draws the request stream.

A stream is a fixed amount of work: :attr:`Workload.requests` requests
drawn from the seed.  Repeating it on a fresh deployment repeats the
same inputs, so its results (and their digest, virtual-time latencies,
probe counts, completion and accuracy) repeat exactly, and two versions
of the program are timed on identical work.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.obs import Instrumentation, NullInstrumentation
from repro.service import RevtrService, SchedulerConfig, SourceRegistry
from repro.service.scheduler import JobState
from repro.sim.faults import preset_plan
from repro.topology import TopologyConfig

from calib import Meter
from checks import apply_flip, violation


def probe_kinds(scenario) -> Dict[str, int]:
    """Probes sent so far by every prober of *scenario*, by kind."""
    merged = scenario.online_counter.merged([scenario.background_counter])
    return {kind: n for kind, n in merged.snapshot().items() if n}


def probe_delta(before: Dict[str, int], after: Dict[str, int]):
    """Probes by kind sent between two :func:`probe_kinds` readings."""
    return {
        kind: n - before.get(kind, 0)
        for kind, n in after.items()
        if n - before.get(kind, 0)
    }


@dataclass
class Phase:
    name: str
    wall_s: float
    virtual_s: float
    probes: Dict[str, int]
    #: BGP route computation inside the phase (traced runs only)
    policy_s: float = 0.0


class Phases:
    """Wall, virtual and probe accounting of named set-up phases, with
    a tracer span around each one when a tracer is given."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.rows: List[Phase] = []
        self.scenario = None

    @contextlib.contextmanager
    def phase(self, name: str):
        tracer = self.tracer
        scenario = self.scenario
        snap = tracer.snapshot() if tracer is not None else None
        probes0 = probe_kinds(scenario) if scenario is not None else {}
        virtual0 = scenario.clock.now() if scenario is not None else 0.0
        span = (
            tracer.span(f"phase.{name}")
            if tracer is not None
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        with span:
            yield
        wall = time.perf_counter() - start
        scenario = self.scenario
        probes = {}
        virtual = 0.0
        if scenario is not None:
            probes = probe_delta(probes0, probe_kinds(scenario))
            virtual = scenario.clock.now() - virtual0
        policy = 0.0
        if tracer is not None:
            policy = tracer.self_seconds(POLICY_SPANS, since=snap)
        self.rows.append(Phase(name, wall, virtual, probes, policy))


POLICY_SPANS = ("topology.policy", "topology.policy_compute")


@dataclass
class Stream:
    """What one request stream did."""

    #: results, in request order
    results: List = field(default_factory=list)
    #: (src, dst) of every issued request, in order
    requests: List[Tuple[str, str]] = field(default_factory=list)
    #: duration of every blocking call (measure or step), in reference
    #: seconds (see :mod:`calib`)
    call_s: List[float] = field(default_factory=list)
    #: virtual seconds from submission to result, per result
    virtual_s: List[float] = field(default_factory=list)
    #: jobs finished by each scheduler step (service only)
    group_sizes: List[int] = field(default_factory=list)
    #: virtual queue wait of each finished job (service only)
    queue_wait_s: List[float] = field(default_factory=list)
    #: routing-change epoch of each result (churn only)
    epochs: List[int] = field(default_factory=list)
    flips: List[Tuple[int, int]] = field(default_factory=list)
    #: the stream's wall time, raw and in reference seconds
    wall_s: float = 0.0
    ref_s: float = 0.0
    virtual_total_s: float = 0.0
    attempted: int = 0
    errors: int = 0
    #: online probes the stream spent
    probes: int = 0
    faults_injected: int = 0
    #: rate-limit accounting windows in which a request drew a fault
    fault_windows: set = field(default_factory=set)
    #: requests the scheduler refused (service only)
    rejections: int = 0
    #: invariant violations found (at most five are kept)
    problems: List[str] = field(default_factory=list)

    def timed(self, meter: Meter) -> None:
        meter.end()
        self.wall_s = meter.wall_s
        self.ref_s = meter.ref_s
        self.call_s = meter.calls

    def finish(self, result, virtual_s: float, **extra) -> None:
        """Check and keep one result (plus per-result *extra* lists)."""
        problem = violation(result)
        if problem is not None and len(self.problems) < 5:
            self.problems.append(
                f"result {len(self.results)} ({result.dst}->{result.src}): "
                f"{problem}"
            )
        self.results.append(result)
        self.virtual_s.append(virtual_s)
        for name, value in extra.items():
            getattr(self, name).append(value)


class Workload:
    """Shared plumbing; subclasses set up a deployment and stream it."""

    name = ""
    #: requests per stream
    requests = 0

    def build(self, phases: Phases, null_obs: bool = False):
        raise NotImplementedError

    def stream(self, dep, seed: int, tracer=None) -> Stream:
        """Issue the seed's :attr:`requests` against *dep*, timed in
        reference seconds (:mod:`calib`)."""
        raise NotImplementedError

    def properties(self, dep, stream: Stream) -> Dict[str, float]:
        pairs = stream.requests
        seen = set()
        repeats = 0
        for pair in pairs:
            if pair in seen:
                repeats += 1
            seen.add(pair)
        return {
            "workload.requests": len(pairs),
            "workload.distinct_dsts": len({dst for _, dst in pairs}),
            "workload.repeat_share": repeats / len(pairs) if pairs else 0.0,
            "workload.flips": len(stream.flips),
            "workload.faults_injected": stream.faults_injected,
            "workload.fault_windows_hit": len(stream.fault_windows),
            "workload.prefixes_surveyed": len(
                dep.scenario.ingress_directory().surveys
            ),
        }


class _EngineDeployment:
    def __init__(self, scenario, sources, engines) -> None:
        self.scenario = scenario
        self.sources = sources
        self.engines = engines
        self.pipeline = None
        self.injector = None
        #: length of the fault plan's rate-limit windows (virtual s)
        self.fault_window = None
        self.obs = scenario.obs

    def rr_atlases(self) -> List:
        return [self.scenario.rr_atlas(src) for src in self.sources]


def _engine_stream(dep, pairs, meter, tracer, between=None) -> Stream:
    """Closed loop, one client: measure each (src, dst) in turn."""
    out = Stream()
    scenario = dep.scenario
    clock = scenario.clock
    counter = scenario.online_counter
    injector = dep.injector
    faults0 = injector.injections if injector is not None else 0
    probes0 = counter.total()
    virtual0 = clock.now()
    perf = time.perf_counter
    for index, (src, dst) in enumerate(pairs):
        meter.between()
        if between is not None:
            between(index, out)
        engine = dep.engines[src]
        if tracer is not None:
            tracer.request = index
        out.requests.append((src, dst))
        out.attempted += 1
        v0 = clock.now()
        faults = injector.injections if injector is not None else 0
        t0 = perf()
        try:
            result = engine.measure(dst)
        except Exception:  # counted as a failed operation
            out.errors += 1
            continue
        finally:
            meter.call(perf() - t0)
        if injector is not None and injector.injections > faults:
            out.fault_windows.add(int(v0 // dep.fault_window))
        out.finish(result, clock.now() - v0, epochs=len(out.flips))
    out.timed(meter)
    out.probes = counter.total() - probes0
    out.virtual_total_s = clock.now() - virtual0
    if tracer is not None:
        tracer.request = None
    if injector is not None:
        out.faults_injected = injector.injections - faults0
    return out


class ColdStart(Workload):
    """Large topology built cold; distinct (src, dst) pairs, one client."""

    name = "coldstart-large"

    def __init__(self, smoke: bool = False) -> None:
        self.config = (
            TopologyConfig.tiny(seed=11)
            if smoke
            else TopologyConfig.large(seed=11)
        )
        self.n_sources = 6
        self.requests = 100 if smoke else 4000

    def build(self, phases: Phases, null_obs: bool = False):
        with phases.phase("topology"):
            scenario = Scenario(
                config=self.config, seed=self.config.seed, atlas_size=40
            )
        phases.scenario = scenario
        sources = scenario.sources(self.n_sources)
        with phases.phase("ingress_survey"):
            scenario.ingress_directory()
        with phases.phase("traceroute_atlas"):
            for src in sources:
                scenario.bundle(src)
        with phases.phase("rr_atlas"):
            for src in sources:
                scenario.rr_atlas(src)
        engines = {src: scenario.engine(src, "revtr2.0") for src in sources}
        return _EngineDeployment(scenario, sources, engines)

    def stream(self, dep, seed, tracer=None):
        dsts = dep.scenario.responsive_destinations(options_only=True)
        pairs = [(src, dst) for src in dep.sources for dst in dsts]
        random.Random(seed).shuffle(pairs)
        return _engine_stream(
            dep, pairs[: self.requests], Meter(), tracer
        )


class ChurnRateLimit(Workload):
    """Rate-limit faults with a provider flip + atlas refresh every K."""

    name = "churn-ratelimit"
    flip_every = 200

    def __init__(self, smoke: bool = False) -> None:
        self.config = (
            TopologyConfig.tiny(seed=5)
            if smoke
            else TopologyConfig.small(seed=5)
        )
        self.requests = 200 if smoke else 6000
        if smoke:
            self.flip_every = 50

    def build(self, phases: Phases, null_obs: bool = False):
        with phases.phase("topology"):
            scenario = Scenario(
                config=self.config, seed=self.config.seed, atlas_size=20
            )
        phases.scenario = scenario
        sources = scenario.sources(2)
        with phases.phase("ingress_survey"):
            scenario.ingress_directory()
        with phases.phase("traceroute_atlas"):
            for src in sources:
                scenario.bundle(src)
        with phases.phase("rr_atlas"):
            for src in sources:
                scenario.rr_atlas(src)
        # The `repro chaos` engine configuration.
        config = EngineConfig(retry_budget=8, recheck_unresponsive=True)
        engines = {src: scenario.engine(src, config=config) for src in sources}
        dep = _EngineDeployment(scenario, sources, engines)
        dep.pipeline = scenario.atlas_pipeline()
        # Bootstrap runs fault-free; faults and VP health arm last.
        scenario.install_vp_health()
        plan = preset_plan(
            "rate-limit",
            seed=self.config.seed,
            vps=[vp for vp in scenario.spoofer_addrs if vp not in sources],
        )
        dep.fault_window = plan.by_kind("router-rate-limit")[0].window
        dep.injector = scenario.install_faults(plan)
        return dep

    def _flip(self, dep, rng: random.Random) -> Optional[Tuple[int, int]]:
        """A multihomed edge AS hosting atlas VPs flips its preferred
        provider (the churn model of the Fig. 9d staleness study)."""
        internet = dep.scenario.internet
        graph = internet.graph
        vp_asns = {internet.hosts[addr].asn for addr in internet.atlas_hosts}
        multihomed = [
            asn
            for asn, node in graph.nodes.items()
            if node.neighbor_pref and len(node.providers()) >= 2
        ]
        candidates = [asn for asn in multihomed if asn in vp_asns]
        candidates = sorted(candidates or multihomed)
        if not candidates:
            return None
        asn = rng.choice(candidates)
        node = graph.nodes[asn]
        current = max(node.neighbor_pref, key=lambda n: node.neighbor_pref[n])
        others = [p for p in sorted(node.providers()) if p != current]
        if not others:
            return None
        provider = rng.choice(others)
        apply_flip(internet, asn, provider)
        return asn, provider

    def stream(self, dep, seed, tracer=None):
        pool = dep.scenario.responsive_destinations(options_only=True)
        rng = random.Random(seed)
        # The churn schedule is part of the workload, like its fault
        # plan: fixed, so seeds differ only in the requests they draw.
        flip_rng = random.Random(self.config.seed ^ 0xF11F)
        refresh_rng = random.Random(self.config.seed ^ 0x5EED)
        scenario = dep.scenario

        # Every (src, dst) once per cycle, in a fresh seeded order.
        cycle = [(src, dst) for src in dep.sources for dst in pool]
        pairs = []
        while len(pairs) < self.requests:
            rng.shuffle(cycle)
            pairs.extend(cycle)
        del pairs[self.requests:]

        def between(index: int, out: Stream) -> None:
            if index == 0 or index % self.flip_every:
                return
            flip = self._flip(dep, flip_rng)
            if flip is None:
                return
            out.flips.append(flip)
            for src in dep.sources:
                dep.pipeline.refresh(
                    scenario.bundle(src).atlas, refresh_rng, incremental=True
                )

        return _engine_stream(
            dep, pairs, Meter(), tracer, between=between
        )


class _ServiceDeployment:
    def __init__(self, scenario, service, users, sources, config) -> None:
        self.scenario = scenario
        self.service = service
        self.users = users
        self.sources = sources
        #: scheduler configuration; each backlog is drained by a fresh
        #: scheduler, so no queue state carries from one to the next
        self.scheduler_config = config
        self.injector = None
        self.obs = service.obs

    @property
    def engines(self) -> Dict:
        return {src: self.service._engine_for(src) for src in self.sources}

    def rr_atlases(self) -> List:
        registered = self.service.registry.sources
        return [registered[src].rr_atlas for src in self.sources]


class ServiceZipf(Workload):
    """Service deployment draining Zipf(1) request backlogs.

    The service is assembled as ``repro serve`` assembles it (full
    ``Instrumentation``, ``SourceRegistry``, the revtr 2.0 selector,
    ``--segment-cache --coalesce``), but the traffic differs: serve
    registers one source, gives its users caps 1, 2, 4, 8 and has every
    user submit every destination to one scheduler.  Here equal users
    draw Zipf destinations from two sources in a closed loop of
    backlogs: each backlog puts every user exactly at its parallel
    cap, and the next is submitted once it has drained.
    """

    name = "service-zipf"
    users = 4
    #: scheduler lanes, and each user's ``max_parallel``
    lanes = 4
    #: requests submitted per backlog (then drained by ``step``)
    backlog = users * lanes

    def __init__(self, smoke: bool = False) -> None:
        self.config = (
            TopologyConfig.tiny(seed=7)
            if smoke
            else TopologyConfig.small(seed=7)
        )
        self.requests = 256 if smoke else 12288

    def build(self, phases: Phases, null_obs: bool = False):
        instr = NullInstrumentation() if null_obs else Instrumentation()
        with phases.phase("topology"):
            scenario = Scenario(
                config=self.config,
                seed=self.config.seed,
                atlas_size=20,
                instrumentation=instr,
            )
        phases.scenario = scenario
        registry = SourceRegistry(
            scenario.internet,
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.spoofer_addrs,
            atlas_size=20,
            seed=self.config.seed,
        )
        with phases.phase("ingress_survey"):
            selector = scenario.selector("revtr2.0")
        service = RevtrService(
            prober=scenario.online_prober,
            registry=registry,
            selector=selector,
            ip2as=scenario.ip2as,
            relationships=scenario.relationships,
            resolver=scenario.resolver,
            engine_config=EngineConfig(
                segment_cache=True, coalesce_batches=True
            ),
            instrumentation=instr,
        )
        users = [
            service.add_user(
                f"user{i}", max_parallel=self.lanes, max_per_day=10**9
            )
            for i in range(self.users)
        ]
        sources = scenario.sources(2)
        with phases.phase("bootstrap"):
            for src in sources:
                service.add_source(users[0].api_key, src)
        config = SchedulerConfig(
            parallelism=self.lanes, max_queue_per_user=10**6, coalesce=True
        )
        return _ServiceDeployment(scenario, service, users, sources, config)

    def stream(self, dep, seed, tracer=None):
        rng = random.Random(seed)
        # Popularity rank follows the deployment's (fixed) hitlist
        # order, so every seed draws from the same Zipf distribution.
        pool = dep.scenario.responsive_destinations(options_only=True)
        cumulative = []
        total = 0.0
        for rank in range(1, len(pool) + 1):
            total += 1.0 / rank
            cumulative.append(total)

        def draw():
            return pool[
                min(bisect.bisect(cumulative, rng.random() * total),
                    len(pool) - 1)
            ]

        out = Stream()
        scenario = dep.scenario
        counter = scenario.online_counter
        clock = scenario.clock
        probes0 = counter.total()
        virtual0 = clock.now()
        perf = time.perf_counter
        meter = Meter()
        steps = 0
        while len(out.requests) < self.requests:
            meter.between()
            scheduler = dep.service.scheduler(dep.scheduler_config)
            for _ in range(self.backlog):
                user = dep.users[len(out.requests) % self.users]
                src = dep.sources[rng.randrange(len(dep.sources))]
                dst = draw()
                out.requests.append((src, dst))
                scheduler.submit(user.api_key, dst, src)
            while True:
                if tracer is not None:
                    tracer.request = f"step-{steps}"
                done0 = scheduler.completed
                t0 = perf()
                job = scheduler.step()
                elapsed = perf() - t0
                steps += 1
                if job is None:
                    break
                meter.call(elapsed)
                out.group_sizes.append(scheduler.completed - done0)
            out.rejections += sum(scheduler.rejections.values())
            for job in scheduler.jobs:
                out.attempted += 1
                if (
                    job.state is not JobState.DONE
                    or job.result is None
                    or job.error is not None
                ):
                    out.errors += 1
                    continue
                out.finish(
                    job.result,
                    job.finished_at - job.submitted_at,
                    queue_wait_s=job.queue_wait,
                )
        out.timed(meter)
        out.probes = counter.total() - probes0
        out.virtual_total_s = clock.now() - virtual0
        if tracer is not None:
            tracer.request = None
        return out


WORKLOADS = {
    cls.name: cls for cls in (ColdStart, ServiceZipf, ChurnRateLimit)
}
