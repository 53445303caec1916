"""Measurement cache (Insight 1.4).

Paths are stable enough to reuse measurements for a day: revtr 2.0
caches record-route results and forward traceroutes keyed by
(measurement kind, parameters), with expiry read off the virtual clock.
The cache is a large share of the Table 4 probe savings because reverse
paths toward one source converge, so later reverse traceroutes re-hit
the same (hop, source) measurements.

The cache is bounded two ways: entries expire after ``ttl`` (and the
measurement path sweeps them out via :meth:`maybe_purge`), and an
optional ``max_entries`` cap evicts least-recently-used entries so a
long-running service cannot grow the cache without bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.obs.instrument import NULL
from repro.sim.clock import VirtualClock

#: Default entry lifetime: one day (paper: daily refresh).
DEFAULT_TTL = 86_400.0

#: Default spacing of opportunistic expired-entry sweeps (virtual
#: seconds); one sweep per simulated hour keeps the dict from
#: accumulating a day's worth of dead entries between measurements.
DEFAULT_PURGE_INTERVAL = 3_600.0


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        # Guarded: zero lookups must read as 0.0, not raise.
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Uniform scrape format for the observability layer."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


class MeasurementCache:
    """A TTL + optional-LRU cache driven by virtual time."""

    def __init__(
        self,
        clock: VirtualClock,
        ttl: float = DEFAULT_TTL,
        enabled: bool = True,
        max_entries: Optional[int] = None,
        purge_interval: float = DEFAULT_PURGE_INTERVAL,
        negative_ttl: Optional[float] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.clock = clock
        self.ttl = ttl
        #: Lifetime for entries stored with ``put(..., negative=True)``
        #: (empty / UNRESPONSIVE verdicts).  None keeps the historical
        #: behaviour — negative results linger as long as good ones.
        self.negative_ttl = negative_ttl
        self.enabled = enabled
        self.max_entries = max_entries
        self.purge_interval = purge_interval
        self.stats = CacheStats()
        #: instrumentation sink; rewired by the engine when enabled
        self.obs = NULL
        #: key -> (stored_at, value, effective ttl) — per-entry TTL so
        #: negative results can expire on their own (shorter) schedule.
        self._entries: Dict[Hashable, Tuple[float, Any, float]] = {}
        self._last_purge = clock.now()

    def _on_obs_attached(self, instrumentation) -> None:
        """Mirror :class:`CacheStats` into ``cache_lookups_total``.

        Pull-style: the stats object already tallies every lookup, so
        ``get`` pays nothing extra; an expired lookup counts as both a
        miss (in stats) and an ``expired`` metric outcome.  LRU
        evictions ride the same source as ``cache_evictions_total``.
        """
        if instrumentation.enabled:
            instrumentation.register_collect_source(self._obs_collect)

    def _obs_collect(self) -> Dict:
        stats = self.stats
        return {
            ("cache_lookups_total", (("outcome", "hit"),)): float(
                stats.hits
            ),
            ("cache_lookups_total", (("outcome", "miss"),)): float(
                stats.misses - stats.expirations
            ),
            ("cache_lookups_total", (("outcome", "expired"),)): float(
                stats.expirations
            ),
            ("cache_evictions_total", ()): float(stats.evictions),
        }

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value, or None on miss/expiry/disabled."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        outcome = "miss"
        value: Optional[Any] = None
        entry = self._entries.get(key)
        if entry is not None:
            stored_at, stored, ttl = entry
            if self.clock.now() - stored_at > ttl:
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                outcome = "expired"
            else:
                if self.max_entries is not None:
                    # LRU bookkeeping: re-insert so dict order
                    # tracks recency.  Only paid when a bound is
                    # configured — the unbounded cache keeps the
                    # plain-dict fast path.
                    del self._entries[key]
                    self._entries[key] = entry
                self.stats.hits += 1
                outcome = "hit"
                value = stored
        else:
            self.stats.misses += 1
        if outcome != "miss" and self.obs.enabled:
            # Flight-recorder entry.  Misses are the overwhelmingly
            # common case and carry no information the engine's own
            # step events don't — only hits and expiries (decisions that
            # changed the measurement's course) earn an event.  The kind
            # label is the first element of tuple keys ("rr-step",
            # "fwd-trace", ...).
            self.obs.emit_t(
                "cache.lookup",
                (
                    key[0] if isinstance(key, tuple) and key else "?",
                    outcome,
                ),
            )
        return value

    def put(
        self, key: Hashable, value: Any, negative: bool = False
    ) -> None:
        """Store *value*; ``negative=True`` marks an empty/unresponsive
        verdict that should expire after ``negative_ttl`` instead of the
        full ``ttl`` (no effect unless ``negative_ttl`` is set)."""
        if not self.enabled:
            return
        ttl = (
            self.negative_ttl
            if negative and self.negative_ttl is not None
            else self.ttl
        )
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = (self.clock.now(), value, ttl)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.stats.evictions += 1

    def contains_fresh(self, key: Hashable) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        return self.clock.now() - entry[0] <= entry[2]

    def age(self, key: Hashable) -> Optional[float]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        return self.clock.now() - entry[0]

    def purge_expired(self) -> int:
        """Drop expired entries; returns how many were removed."""
        now = self.clock.now()
        expired = [
            key
            for key, (stored_at, _, ttl) in self._entries.items()
            if now - stored_at > ttl
        ]
        for key in expired:
            del self._entries[key]
        return len(expired)

    def maybe_purge(self) -> int:
        """Sweep expired entries at most once per ``purge_interval``.

        Called from the measurement path (the engine, the scheduler)
        so long-running services shed dead entries without a dedicated
        maintenance thread; returns the number removed (0 when the
        sweep is skipped).
        """
        now = self.clock.now()
        if now - self._last_purge < self.purge_interval:
            return 0
        self._last_purge = now
        return self.purge_expired()

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
