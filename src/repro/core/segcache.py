"""Cross-measurement reverse-segment cache (§5 amortization).

Under destination-based routing, the reverse next hop a router R takes
toward a source S does not depend on which measurement discovered it:
once *any* reverse traceroute toward S has revealed that R forwards to
R', every later measurement that reaches R can reuse the edge while
routing is stable.  The traceroute and RR atlases exploit this for
*offline* measurements; :class:`ReverseSegmentCache` extends the same
amortization to the serving hot path, remembering every adopted hop of
every completed measurement as a ``router -> (next reverse hop,
technique)`` edge.

Validity is bounded two ways, mirroring the route-stability literature
(Leguay et al.) and the atlas's own staleness rules:

* **routing generation** — every entry is stamped with the simulator's
  ``routing_generation`` at store time; a generation bump (traffic
  engineering, topology change) invalidates it at the next lookup;
* **TTL** — entries older than ``ttl`` virtual seconds expire, exactly
  like :class:`~repro.core.cache.MeasurementCache` entries.

Negative entries remember routers that proved RR-unresponsive, so the
whole VP fleet is not re-pointed at a black hole once per measurement;
they carry their own (shorter) TTL.

Splicing a cached chain is *not* exempt from validity checking: the
engine consults this cache only after the atlas missed, and gates the
spliced hops behind the same Appendix E violation check as RR-revealed
hops (Viger et al.: spliced paths need the same artifact gating as any
inferred hop).

One cache serves one source and is shared by every engine measuring
toward that source — the whole point is that concurrent and successive
measurements amortize each other's probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.result import HopTechnique
from repro.net.addr import Address
from repro.obs.instrument import NULL

#: Default entry lifetime, matching the measurement cache (paper:
#: routes are stable enough to reuse for a day).
DEFAULT_SEGMENT_TTL = 86_400.0

#: Negative (unresponsive-router) entries default to a tighter bound:
#: a router that ignored RR may be load-shedding, not dead forever.
DEFAULT_NEGATIVE_TTL = 3_600.0


@dataclass(frozen=True)
class SegmentEntry:
    """One cached reverse edge: the next hop *from* the keyed router."""

    next_hop: Optional[Address]
    technique: Optional[HopTechnique]
    generation: int
    stored_at: float
    #: "intra"/"inter" for ASSUMED_SYMMETRY hops, so a splice
    #: reproduces the hop annotation byte-for-byte
    assumed_link: Optional[str] = None

    @property
    def negative(self) -> bool:
        """True for an unresponsive-router marker (no next hop)."""
        return self.next_hop is None


@dataclass
class SegmentCacheStats:
    """Accounting mirrored into ``revtr_segment_*`` metrics."""

    hits: int = 0
    misses: int = 0
    negative_hits: int = 0
    stores: int = 0
    negative_stores: int = 0
    #: chains spliced into results / total hops those chains carried
    splices: int = 0
    spliced_hops: int = 0
    invalidations_generation: int = 0
    invalidations_ttl: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.negative_hits

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.negative_hits) / total if total else 0.0

    @property
    def invalidations(self) -> int:
        return self.invalidations_generation + self.invalidations_ttl

    def as_dict(self) -> Dict[str, float]:
        """Uniform scrape format for the observability layer."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "negative_hits": self.negative_hits,
            "stores": self.stores,
            "negative_stores": self.negative_stores,
            "splices": self.splices,
            "spliced_hops": self.spliced_hops,
            "invalidations_generation": self.invalidations_generation,
            "invalidations_ttl": self.invalidations_ttl,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


class ReverseSegmentCache:
    """Per-source map: router address -> cached reverse edge."""

    def __init__(
        self,
        clock,
        internet,
        ttl: float = DEFAULT_SEGMENT_TTL,
        negative_ttl: float = DEFAULT_NEGATIVE_TTL,
    ) -> None:
        self.clock = clock
        self.internet = internet
        self.ttl = ttl
        self.negative_ttl = negative_ttl
        self.stats = SegmentCacheStats()
        #: instrumentation sink; rewired via the attach protocol
        self.obs = NULL
        self._entries: Dict[Address, SegmentEntry] = {}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _on_obs_attached(self, instrumentation) -> None:
        """Mirror stats into the ``revtr_segment_*`` families on pull."""
        if instrumentation.enabled:
            instrumentation.register_collect_source(self._obs_collect)

    def _obs_collect(self) -> Dict:
        stats = self.stats
        out: Dict = {}
        if stats.hits or stats.negative_hits:
            out[("revtr_segment_hits_total", (("kind", "chain"),))] = (
                float(stats.hits)
            )
            out[("revtr_segment_hits_total", (("kind", "negative"),))] = (
                float(stats.negative_hits)
            )
        if stats.misses:
            # Exported alongside hits so dashboards (and the SLO
            # rollup) can form a hit rate without scraping cache
            # internals.
            out[("revtr_segment_misses_total", ())] = float(
                stats.misses
            )
        if stats.splices:
            out[("revtr_segment_splices_total", ())] = float(
                stats.splices
            )
        if stats.invalidations_generation:
            out[
                (
                    "revtr_segment_invalidations_total",
                    (("reason", "generation"),),
                )
            ] = float(stats.invalidations_generation)
        if stats.invalidations_ttl:
            out[
                (
                    "revtr_segment_invalidations_total",
                    (("reason", "ttl"),),
                )
            ] = float(stats.invalidations_ttl)
        return out

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def store(
        self,
        addr: Address,
        next_hop: Address,
        technique: HopTechnique,
        assumed_link: Optional[str] = None,
    ) -> None:
        """Remember that *addr* forwards reverse traffic to *next_hop*."""
        self._entries[addr] = SegmentEntry(
            next_hop=next_hop,
            technique=technique,
            generation=self.internet.routing_generation,
            stored_at=self.clock.now(),
            assumed_link=assumed_link,
        )
        self.stats.stores += 1

    def store_negative(self, addr: Address) -> None:
        """Remember that *addr* revealed nothing to the RR arsenal."""
        self._entries[addr] = SegmentEntry(
            next_hop=None,
            technique=None,
            generation=self.internet.routing_generation,
            stored_at=self.clock.now(),
        )
        self.stats.negative_stores += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, addr: Address) -> Optional[SegmentEntry]:
        """The cached edge from *addr*, or None on miss/invalidation.

        Generation-stale and TTL-expired entries are dropped (and
        counted by reason) at lookup time, so one sweep of measurements
        after a routing change scrubs every touched entry.
        """
        entry = self._entries.get(addr)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.generation != self.internet.routing_generation:
            del self._entries[addr]
            self.stats.invalidations_generation += 1
            self.stats.misses += 1
            return None
        ttl = self.negative_ttl if entry.negative else self.ttl
        if self.clock.now() - entry.stored_at > ttl:
            del self._entries[addr]
            self.stats.invalidations_ttl += 1
            self.stats.misses += 1
            return None
        if entry.negative:
            self.stats.negative_hits += 1
        else:
            self.stats.hits += 1
        return entry

    def chain(
        self,
        addr: Address,
        limit: int,
        stop=None,
    ) -> Tuple[List[SegmentEntry], bool]:
        """Follow cached edges from *addr*, at most *limit* hops.

        Returns ``(chain, negative)`` where *chain* is the list of
        :class:`SegmentEntry` edges in reverse-path order (each entry's
        ``next_hop`` is the spliced hop) and *negative* is True when
        the *first* lookup hit a negative entry (the router is
        known-unresponsive; there is nothing to splice but the RR step
        can be skipped).  *stop* is an optional predicate; chain
        extension halts before any address for which it returns True
        (the engine passes its seen-set to keep splices loop-free).  A
        negative entry mid-chain simply ends the chain — the hops
        before it are still real.
        """
        chain: List[SegmentEntry] = []
        seen_here = {addr}
        current = addr
        # Read once for the whole walk: chains splice on the serving
        # hot path.
        generation = self.internet.routing_generation
        now = self.clock.now()
        stats = self.stats
        entries = self._entries
        while len(chain) < limit:
            entry = entries.get(current)
            if entry is None:
                stats.misses += 1
                break
            if entry.generation != generation:
                del entries[current]
                stats.invalidations_generation += 1
                stats.misses += 1
                break
            ttl = (
                self.negative_ttl if entry.negative else self.ttl
            )
            if now - entry.stored_at > ttl:
                del entries[current]
                stats.invalidations_ttl += 1
                stats.misses += 1
                break
            if entry.negative:
                stats.negative_hits += 1
                if not chain:
                    return [], True
                break
            stats.hits += 1
            nxt = entry.next_hop
            if nxt in seen_here or (
                stop is not None and stop(nxt)
            ):
                break
            chain.append(entry)
            seen_here.add(nxt)
            current = nxt
        return chain, False

    def note_splice(self, hops: int) -> None:
        """Tally one spliced chain of *hops* hops (engine-reported)."""
        self.stats.splices += 1
        self.stats.spliced_hops += hops

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def purge_expired(self) -> int:
        """Drop generation-stale and TTL-expired entries."""
        now = self.clock.now()
        generation = self.internet.routing_generation
        dead = []
        for addr, entry in self._entries.items():
            if entry.generation != generation:
                dead.append((addr, "generation"))
                continue
            ttl = self.negative_ttl if entry.negative else self.ttl
            if now - entry.stored_at > ttl:
                dead.append((addr, "ttl"))
        for addr, reason in dead:
            del self._entries[addr]
            if reason == "generation":
                self.stats.invalidations_generation += 1
            else:
                self.stats.invalidations_ttl += 1
        return len(dead)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: Address) -> bool:
        return addr in self._entries
