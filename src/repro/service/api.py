"""The measurement API facade (Appendix A).

`RevtrService` is the in-process equivalent of the paper's REST/gRPC
endpoints: authenticated users request reverse traceroutes from
destinations of their choice toward registered sources; requests are
charged against per-user quotas, executed by a per-source revtr 2.0
engine, and archived in the measurement store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.revtr import EngineConfig, RevtrEngine
from repro.core.result import ReverseTracerouteResult
from repro.core.segcache import ReverseSegmentCache
from repro.net.addr import Address
from repro.obs.runtime import get_default, introspect
from repro.probing.prober import Prober
from repro.service.sources import SourceRegistry
from repro.service.store import MeasurementStore
from repro.service.users import User, UserDatabase


@dataclass
class MeasurementRequest:
    """A user's reverse-traceroute request."""

    api_key: str
    dst: Address
    src: Address
    label: str = ""


class RevtrService:
    """Users, sources, quotas, engines, and the archive — wired up."""

    def __init__(
        self,
        prober: Prober,
        registry: SourceRegistry,
        selector,
        ip2as: IPToASMapper,
        relationships: ASRelationships,
        resolver=None,
        engine_config: Optional[EngineConfig] = None,
        instrumentation=None,
    ) -> None:
        self.prober = prober
        self.registry = registry
        self.selector = selector
        self.ip2as = ip2as
        self.relationships = relationships
        self.resolver = resolver
        self.engine_config = (
            engine_config if engine_config is not None else EngineConfig()
        )
        #: observability sink shared with every per-source engine
        self.obs = (
            instrumentation if instrumentation is not None else get_default()
        )
        self.users = UserDatabase(prober.clock)
        self.store = MeasurementStore()
        self._engines: Dict[Address, RevtrEngine] = {}
        #: per-source reverse-segment caches (only populated when the
        #: engine config enables ``segment_cache``).  Deliberately NOT
        #: dropped by :meth:`_invalidate_engine`: segments survive
        #: engine rebuilds because generation/TTL invalidation already
        #: governs their validity, so a re-registered source keeps the
        #: amortization it earned.
        self._segcaches: Dict[Address, ReverseSegmentCache] = {}
        # A re-registered source gets a rebuilt atlas/RR atlas; drop
        # any engine built against the old one so requests never keep
        # serving stale state.
        self.registry.subscribe(self._invalidate_engine)

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------

    def add_user(
        self,
        name: str,
        max_parallel: int = 10,
        max_per_day: int = 10_000,
    ) -> User:
        return self.users.add_user(
            name, max_parallel=max_parallel, max_per_day=max_per_day
        )

    def add_source(
        self,
        api_key: str,
        addr: Address,
        serves_as_vantage_point: bool = False,
        replace: bool = False,
    ):
        """Register a user-owned source (bootstraps it)."""
        user = self.users.authenticate(api_key)
        return self.registry.register(
            addr,
            owner=user.name,
            serves_as_vantage_point=serves_as_vantage_point,
            replace=replace,
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def _invalidate_engine(self, source: Address) -> None:
        self._engines.pop(source, None)

    def _engine_for(self, source: Address) -> RevtrEngine:
        engine = self._engines.get(source)
        if engine is not None:
            return engine
        registered = self.registry.sources.get(source)
        if registered is None:
            raise KeyError(f"source {source} not registered")
        segcache = None
        if self.engine_config.segment_cache:
            segcache = self._segcaches.get(source)
            if segcache is None:
                segcache = ReverseSegmentCache(
                    self.prober.clock, self.prober.internet
                )
                self._segcaches[source] = segcache
        engine = RevtrEngine(
            prober=self.prober,
            source=source,
            atlas=registered.atlas,
            selector=self.selector,
            ip2as=self.ip2as,
            relationships=self.relationships,
            config=self.engine_config,
            rr_atlas=registered.rr_atlas,
            resolver=self.resolver,
            spoofers=self.registry.spoofer_vps,
            instrumentation=self.obs,
            segcache=segcache,
        )
        self._engines[source] = engine
        return engine

    def _measure_one(
        self, engine: RevtrEngine, dst: Address, user_name: str, label: str
    ) -> ReverseTracerouteResult:
        """Run one measurement with service-level accounting."""
        with self.obs.span(
            "service.request",
            user=user_name,
            src=str(engine.source),
            dst=str(dst),
        ) as span:
            result = engine.measure(dst)
            span.annotate(status=result.status.value)
        self._account(engine, result, dst, user_name, label)
        return result

    def _measure_group(
        self,
        engine: RevtrEngine,
        items: Sequence[tuple],
    ) -> List[ReverseTracerouteResult]:
        """Run a coalesced group through :meth:`RevtrEngine.measure_many`.

        *items* is a sequence of ``(dst, user_name, label)`` triples;
        every result gets the same per-request accounting (ledger
        event, metrics, archive entry) as :meth:`_measure_one`, under
        one ``service.request_group`` span instead of per-request
        spans (the group executes as a unit, so per-request wall time
        is not individually attributable).
        """
        dsts = [dst for dst, _, _ in items]
        with self.obs.span(
            "service.request_group",
            src=str(engine.source),
            size=len(items),
        ) as span:
            results = engine.measure_many(dsts)
            span.annotate(
                statuses=[r.status.value for r in results]
            )
        for (dst, user_name, label), result in zip(items, results):
            self._account(engine, result, dst, user_name, label)
        return results

    def _account(
        self,
        engine: RevtrEngine,
        result: ReverseTracerouteResult,
        dst: Address,
        user_name: str,
        label: str,
    ) -> None:
        """Per-request ledger/metrics/archive bookkeeping."""
        if self.obs.enabled:
            # Service-level ledger entry, correlated to the engine's
            # measurement id so `repro explain` sees who asked.
            self.obs.emit(
                "service.request",
                _mid=result.measurement_id,
                user=user_name,
                src=str(engine.source),
                dst=str(dst),
                status=result.status.value,
            )
        self.obs.inc(
            "service_requests_total",
            user=user_name,
            status=result.status.value,
        )
        if result.is_partial:
            # Degraded-but-useful: the measurement stalled short of the
            # source yet still revealed reverse hops.  Surfaced as its
            # own series so operators can tell graceful degradation
            # from total failure.
            self.obs.inc(
                "service_partial_results_total",
                user=user_name,
                status=result.status.value,
            )
            if self.obs.enabled:
                self.obs.emit(
                    "degrade.partial",
                    _mid=result.measurement_id,
                    user=user_name,
                    dst=str(dst),
                    hops=len(result.hops),
                    status=result.status.value,
                )
        self.obs.observe(
            "service_request_duration_seconds", result.duration
        )
        self.store.append(
            result,
            user=user_name,
            requested_at=self.prober.clock.now(),
            label=label,
        )
        # Direct (non-scheduled) requests also heartbeat the telemetry
        # time-series; cheap clock-read guard when no sampler exists.
        sampler = self.obs.sampler
        if sampler is not None:
            sampler.maybe_sample()

    def request(
        self, request: MeasurementRequest
    ) -> ReverseTracerouteResult:
        """Execute one authenticated reverse-traceroute request."""
        user = self.users.authenticate(request.api_key)
        user.charge(self.prober.clock.now())
        engine = self._engine_for(request.src)
        return self._measure_one(
            engine, request.dst, user.name, request.label
        )

    def request_batch(
        self,
        api_key: str,
        dsts: Sequence[Address],
        src: Address,
        label: str = "",
    ) -> List[ReverseTracerouteResult]:
        """A batch of requests, charged and archived individually.

        Quota is charged per measurement, immediately before it runs:
        if the engine fails (or quota runs out) mid-batch, the user is
        never charged for measurements that were not attempted.

        With ``coalesce_batches`` on in the engine config, the whole
        batch is charged up front and executed as one coalesced
        :meth:`RevtrEngine.measure_many` group — duplicate spoofed
        batches and ping checks across the batch collapse.
        """
        user = self.users.authenticate(api_key)
        engine = self._engine_for(src)
        if self.engine_config.coalesce_batches:
            now = self.prober.clock.now()
            for _ in dsts:
                user.charge(now)
            return self._measure_group(
                engine, [(dst, user.name, label) for dst in dsts]
            )
        results: List[ReverseTracerouteResult] = []
        for dst in dsts:
            user.charge(self.prober.clock.now())
            results.append(
                self._measure_one(engine, dst, user.name, label)
            )
        return results

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def scheduler(self, config=None):
        """A :class:`~repro.service.scheduler.RequestScheduler` bound
        to this service (admission control, deadlines, retries)."""
        from repro.service.scheduler import RequestScheduler

        return RequestScheduler(self, config=config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics_snapshot(
        self,
        include_traces: bool = False,
        include_health: bool = False,
    ) -> Dict:
        """The operator view: metrics, probe counters, cache stats.

        JSON-serializable; non-empty (probe counters at minimum) even
        when the service runs on the null instrumentation.  With a
        time-series sampler installed the document also carries the
        sampler summary (via :func:`introspect`), and
        ``include_health=True`` adds the health engine's findings over
        the retained series.
        """
        caches = {
            f"engine[{source}]": engine.cache
            for source, engine in self._engines.items()
        }
        for source, segcache in self._segcaches.items():
            caches[f"segments[{source}]"] = segcache
        out = introspect(
            instrumentation=self.obs,
            probe_counters={"prober": self.prober.counter},
            caches=caches,
            forwarding=self.prober.internet.forwarding_cache_stats(),
            include_traces=include_traces,
        )
        sampler = getattr(self.obs, "sampler", None)
        if include_health and sampler is not None:
            from repro.obs.health import HealthEngine

            engine = HealthEngine()
            findings = engine.evaluate(
                sampler, getattr(self.obs, "events", None)
            )
            out["health"] = {
                "status": HealthEngine.status(findings),
                "findings": [f.to_dict() for f in findings],
            }
        return out
