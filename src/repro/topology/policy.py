"""Gao-Rexford BGP route computation over the AS graph.

For a given announcement (one or more origin ASes, optional poisoning,
prepending, and selective-export constraints) this module computes, for
every AS, the route it selects: learned class, full AS path, next-hop
AS, and — for anycast announcements — which origin its traffic lands at
(the *catchment*, the quantity the Section 6.1 traffic-engineering case
study manipulates).

The computation is the classic three-phase algorithm:

1. customer routes propagate "up" provider edges from the origins;
2. peer routes are learned in a single hop from ASes holding
   customer-class routes;
3. provider routes propagate "down" customer edges from every AS that
   selected a customer or peer route.

Selection order is customer > peer > provider, then shortest AS path,
then a deterministic per-(AS, neighbour) tie-break. Because the
tie-break is not symmetric in its arguments, forward and reverse
AS paths frequently differ — the asymmetry revtr exists to measure.
"""

from __future__ import annotations

import enum
import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.topology.asgraph import ASGraph, Relationship


class RouteClass(enum.IntEnum):
    """Learned class of a route; lower is preferred."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True)
class Origin:
    """One announcement point of a prefix.

    Attributes:
        asn: the announcing AS.
        prepend: extra copies of the origin ASN on the path.
        announce_to: neighbours the origin announces to; None = all.
        poisoned: ASNs included on *this origin's* path so those ASes
            reject routes to this origin but may still reach others —
            the per-site poisoning of the §6.1 case study (poisoning
            Cogent on the UFMG announcement only).
    """

    asn: int
    prepend: int = 0
    announce_to: Optional[FrozenSet[int]] = None
    poisoned: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class AnnouncementSpec:
    """A prefix announcement configuration (hashable cache key).

    Attributes:
        origins: announcement points; more than one models anycast.
        poisoned: ASNs placed on the announced path so that those ASes
            reject the route (BGP loop detection) — the §6.1 poisoning.
        no_export: (exporter, neighbour) pairs suppressed, modelling
            provider no-export BGP communities (§6.1).
    """

    origins: Tuple[Origin, ...]
    poisoned: FrozenSet[int] = frozenset()
    no_export: FrozenSet[Tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        # A spec keys the route cache, the FIB shards and the alternate
        # next-AS memo on every probe and FIB miss; hash its (nested,
        # immutable) fields once instead of on every lookup.
        object.__setattr__(
            self, "_hash", hash((self.origins, self.poisoned, self.no_export))
        )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def single(cls, asn: int) -> "AnnouncementSpec":
        """The default unicast announcement from one AS."""
        return cls(origins=(Origin(asn),))

    @classmethod
    def anycast(cls, asns: Iterable[int]) -> "AnnouncementSpec":
        return cls(origins=tuple(Origin(asn) for asn in sorted(asns)))


@dataclass(frozen=True)
class RouteChoice:
    """The route an AS selected for one announcement."""

    route_class: RouteClass
    path: Tuple[int, ...]  # from this AS to (and including) the origin
    next_as: Optional[int]  # None at an origin
    origin: int

    @property
    def length(self) -> int:
        return len(self.path)


#: one AS's neighbours split by class: (customers, providers, peers),
#: each a tuple of (neighbour, the neighbour's tie-break via this AS)
_ClassSplit = Tuple[
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
]
#: (leaf asn, its neighbour_pref, its (provider, pref) pairs)
_LeafPrefs = Tuple[int, Dict[int, int], Tuple[Tuple[int, int], ...]]


def _rejector(spec: AnnouncementSpec):
    """``rejects(asn, origin_asn)`` for a poisoned *spec*, else None.

    Poisoning places ASNs on the announced path, so a poisoned AS drops
    the route by loop detection; most specs poison nothing and skip the
    check entirely.
    """
    poisoned = spec.poisoned
    origin_poison = {origin.asn: origin.poisoned for origin in spec.origins}
    if not poisoned and not any(origin_poison.values()):
        return None

    def rejects(asn: int, origin_asn: int) -> bool:
        return asn in poisoned or asn in origin_poison.get(origin_asn, ())

    return rejects


def _tiebreak(asn: int, via: int, salt: int) -> int:
    """Deterministic, direction-asymmetric neighbour preference."""
    return zlib.crc32(f"{asn}|{via}|{salt}".encode())


def _tiebreak_symmetric(asn: int, via: int, salt: int) -> int:
    """Direction-neutral variant: keyed on the unordered AS pair, so
    the same link is preferred from both sides."""
    low, high = (asn, via) if asn < via else (via, asn)
    return zlib.crc32(f"{low}~{high}|{salt}".encode())


class RoutingPolicy:
    """Computes and caches per-announcement route selections.

    ``symmetric_tiebreak_fraction`` controls what share of ASes break
    equal-preference ties in a direction-neutral way (consistent MEDs,
    stable igp costs): those ASes pick the same inter-AS link in both
    directions, while the rest diverge — the knob that calibrates the
    AS-level path-symmetry rate to the Internet's measured 53% (§6.2).

    Everything that depends only on the topology is computed once and
    shared by every announcement: the tie-break of each (AS, neighbour)
    pair lives as long as the policy (it depends only on ``salt`` and
    ``symmetric_tiebreak_fraction``), while the class-split adjacency
    and the leaf-AS provider preferences live for one routing
    generation — :meth:`invalidate` drops them with the route cache,
    so relationship or local-preference edits take effect on the next
    computation.
    """

    def __init__(
        self,
        graph: ASGraph,
        salt: int = 0,
        symmetric_tiebreak_fraction: float = 0.0,
    ) -> None:
        self.graph = graph
        self.salt = salt
        self.symmetric_tiebreak_fraction = symmetric_tiebreak_fraction
        self._cache: Dict[AnnouncementSpec, Dict[int, RouteChoice]] = {}
        #: (asn, via) -> tie-break, for the policy's lifetime
        self._tiebreaks: Dict[Tuple[int, int], int] = {}
        #: asn -> (customers, providers, peers), each a tuple of
        #: (neighbour, the neighbour's tie-break for routes via asn);
        #: None until the first computation of a routing generation
        self._adjacency: Optional[Dict[int, _ClassSplit]] = None
        #: leaf ASes with provider local-preferences, in graph order
        self._leaves: Optional[List[_LeafPrefs]] = None
        self._hits = 0
        self._computes = 0

    def _tb(self, asn: int, via: int) -> int:
        key = (asn, via)
        tiebreak = self._tiebreaks.get(key)
        if tiebreak is None:
            tiebreak = _tiebreak(asn, via, self.salt)
            if self.symmetric_tiebreak_fraction > 0.0:
                roll = zlib.crc32(f"sym|{asn}|{self.salt}".encode())
                if (roll % 1000) < self.symmetric_tiebreak_fraction * 1000:
                    tiebreak = _tiebreak_symmetric(asn, via, self.salt)
            self._tiebreaks[key] = tiebreak
        return tiebreak

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def routes(self, spec: AnnouncementSpec) -> Dict[int, RouteChoice]:
        """Return the selected route of every AS that has one."""
        cached = self._cache.get(spec)
        if cached is None:
            cached = self._compute(spec)
            self._cache[spec] = cached
        else:
            self._hits += 1
        return cached

    def route_of(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[RouteChoice]:
        return self.routes(spec).get(asn)

    def next_hop_as(self, asn: int, spec: AnnouncementSpec) -> Optional[int]:
        """Next-hop AS of *asn* toward the announcement, if any."""
        route = self.routes(spec).get(asn)
        return route.next_as if route else None

    def as_path(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[Tuple[int, ...]]:
        route = self.routes(spec).get(asn)
        return route.path if route else None

    def catchment(self, asn: int, spec: AnnouncementSpec) -> Optional[int]:
        """Origin AS that traffic from *asn* reaches (anycast)."""
        route = self.routes(spec).get(asn)
        return route.origin if route else None

    def invalidate(self) -> None:
        """Start a new routing generation: drop every computed route
        and the per-generation adjacency and leaf preferences."""
        self._cache.clear()
        self._adjacency = None
        self._leaves = None

    def cache_stats(self) -> Dict[str, int]:
        """Route-cache accounting: cached lookups, computations, specs."""
        return {
            "hits": self._hits,
            "misses": self._computes,
            "entries": len(self._cache),
        }

    # ------------------------------------------------------------------
    # Per-generation topology state
    # ------------------------------------------------------------------

    def _topology_state(
        self,
    ) -> Tuple[Dict[int, _ClassSplit], List[_LeafPrefs]]:
        """The class-split adjacency and leaf preferences, built on the
        first computation of a routing generation."""
        if self._adjacency is None:
            tb = self._tb
            adjacency: Dict[int, _ClassSplit] = {}
            leaves: List[_LeafPrefs] = []
            for asn, node in self.graph.nodes.items():
                split: Dict[Relationship, List[Tuple[int, int]]] = {
                    rel: [] for rel in Relationship
                }
                for neighbor, rel in node.neighbors.items():
                    split[rel].append((neighbor, tb(neighbor, asn)))
                customers = tuple(split[Relationship.CUSTOMER])
                adjacency[asn] = (
                    customers,
                    tuple(split[Relationship.PROVIDER]),
                    tuple(split[Relationship.PEER]),
                )
                if node.neighbor_pref and not customers:
                    provider_prefs = tuple(
                        (neighbor, pref)
                        for neighbor, pref in node.neighbor_pref.items()
                        if node.neighbors.get(neighbor)
                        is Relationship.PROVIDER
                    )
                    leaves.append((asn, node.neighbor_pref, provider_prefs))
            self._adjacency = adjacency
            self._leaves = leaves
        return self._adjacency, self._leaves

    # ------------------------------------------------------------------
    # Route computation
    # ------------------------------------------------------------------

    def _compute(self, spec: AnnouncementSpec) -> Dict[int, RouteChoice]:
        self._computes += 1
        adjacency, leaves = self._topology_state()
        blocked = spec.no_export
        # Announcement points with a restricted export set; the first
        # Origin of an AS decides, as in a scan of spec.origins.
        first_origin: Dict[int, Origin] = {}
        for origin in spec.origins:
            first_origin.setdefault(origin.asn, origin)
        limits = {
            asn: origin.announce_to
            for asn, origin in first_origin.items()
            if origin.announce_to is not None
        }
        rejects = _rejector(spec)
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Phase 0/1: origin + customer routes, Dijkstra up provider edges.
        best: Dict[int, RouteChoice] = {}
        keys: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[int, int, int, Tuple[int, ...], Optional[int], int]] = []
        for origin in spec.origins:
            asn = origin.asn
            if asn not in self.graph or (
                rejects is not None and rejects(asn, asn)
            ):
                continue
            path = (asn,) * (1 + origin.prepend)
            key = (len(path), self._tb(asn, asn))
            incumbent_key = keys.get(asn)
            if incumbent_key is None or key < incumbent_key:
                keys[asn] = key
                best[asn] = RouteChoice(RouteClass.ORIGIN, path, None, asn)
                heappush(heap, (key[0], key[1], asn, path, None, asn))

        settled: set = set()
        while heap:
            asn = heappop(heap)[2]
            if asn in settled:
                continue
            settled.add(asn)
            exporting = best[asn]
            origin_asn = exporting.origin
            limit = limits.get(asn)
            for provider, tiebreak in adjacency[asn][1]:
                if provider in settled:
                    continue
                if rejects is not None and rejects(provider, origin_asn):
                    continue
                if blocked and (asn, provider) in blocked:
                    continue
                if limit is not None and provider not in limit:
                    continue
                new_path = (provider,) + exporting.path
                key = (len(new_path), tiebreak)
                incumbent_key = keys.get(provider)
                if incumbent_key is None or key < incumbent_key:
                    keys[provider] = key
                    best[provider] = RouteChoice(
                        RouteClass.CUSTOMER, new_path, asn, origin_asn
                    )
                    heappush(
                        heap,
                        (
                            key[0],
                            tiebreak,
                            provider,
                            new_path,
                            asn,
                            origin_asn,
                        ),
                    )

        # Phase 2: peer routes, one hop from customer-class holders.
        customer_holders = dict(best)
        for asn, route in customer_holders.items():
            origin_asn = route.origin
            limit = limits.get(asn)
            for peer, tiebreak in adjacency[asn][2]:
                if peer in customer_holders:
                    continue
                if rejects is not None and rejects(peer, origin_asn):
                    continue
                if blocked and (asn, peer) in blocked:
                    continue
                if limit is not None and peer not in limit:
                    continue
                new_path = (peer,) + route.path
                key = (len(new_path), tiebreak)
                # Any incumbent is a peer route from this phase; a
                # provider-class incumbent would always lose to a peer.
                incumbent_key = keys.get(peer)
                if incumbent_key is not None and not key < incumbent_key:
                    continue
                keys[peer] = key
                best[peer] = RouteChoice(
                    RouteClass.PEER, new_path, asn, origin_asn
                )

        # Phase 3: provider routes, Dijkstra down customer edges.
        heap = [
            (
                route.length,
                keys[asn][1],
                asn,
                route.path,
                route.next_as,
                route.origin,
            )
            for asn, route in best.items()
        ]
        heapq.heapify(heap)
        settled = set()
        while heap:
            asn = heappop(heap)[2]
            if asn in settled:
                continue
            settled.add(asn)
            exporting = best[asn]
            origin_asn = exporting.origin
            limit = limits.get(asn)
            for customer, tiebreak in adjacency[asn][0]:
                if customer in settled:
                    continue
                if rejects is not None and rejects(customer, origin_asn):
                    continue
                if blocked and (asn, customer) in blocked:
                    continue
                if limit is not None and customer not in limit:
                    continue
                incumbent = best.get(customer)
                if (
                    incumbent is not None
                    and incumbent.route_class < RouteClass.PROVIDER
                ):
                    continue
                new_path = (customer,) + exporting.path
                key = (len(new_path), tiebreak)
                if incumbent is not None and not key < keys[customer]:
                    continue
                keys[customer] = key
                best[customer] = RouteChoice(
                    RouteClass.PROVIDER, new_path, asn, origin_asn
                )
                heappush(
                    heap,
                    (key[0], tiebreak, customer, new_path, asn, origin_asn),
                )

        self._apply_leaf_preferences(best, leaves)
        return best

    @staticmethod
    def _apply_leaf_preferences(
        best: Dict[int, RouteChoice], leaves: List[_LeafPrefs]
    ) -> None:
        """Honour per-neighbour local preference for leaf ASes.

        A multihomed edge network routinely prefers one provider for
        all outbound traffic (local-pref) even when another provider
        offers a shorter path. Only leaf ASes (no customers) are
        re-selected: nobody routes *through* a leaf, so the change
        cannot violate the path-consistency (tree) property.
        """
        for asn, neighbor_pref, provider_prefs in leaves:
            current = best.get(asn)
            if current is None or current.route_class is not (
                RouteClass.PROVIDER
            ):
                # Never dislodge an origin, customer, or peer route: a
                # settlement-free peer beats any paid provider, so the
                # provider local-pref only orders provider routes.
                continue
            candidates = []
            for neighbor, pref in provider_prefs:
                route = best.get(neighbor)
                if route is None or asn in route.path:
                    continue
                candidates.append((pref, -len(route.path), neighbor))
            if not candidates:
                continue
            current_pref = neighbor_pref.get(current.next_as, 0)
            pref, _, neighbor = max(candidates)
            if pref <= current_pref:
                continue
            via = best[neighbor]
            best[asn] = RouteChoice(
                RouteClass.PROVIDER,
                (asn,) + via.path,
                neighbor,
                via.origin,
            )
