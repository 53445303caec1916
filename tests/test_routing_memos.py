"""Routing memos under churn: a warm Internet equals a cold replica.

The route cache, the per-generation class-split adjacency and leaf
preferences, the FIB and the egress-candidate memo are all warmed on a
live :class:`~repro.sim.network.Internet`, then several provider
preference flips (each ending in ``invalidate_routing()``) are applied.
Route tables, router paths and record-route slots must equal those of
a replica built cold from the same config with the same flips replayed.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.experiments.exp_staleness import _flip_preference
from repro.net.options import RecordRouteOption
from repro.net.packet import Probe, ProbeKind
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_internet
from repro.topology.policy import AnnouncementSpec

FLIPS = 4


def _probe_pairs(internet, count=12):
    """A fixed probe set: every VP toward a slice of RR-capable hosts."""
    vps = list(internet.mlab_hosts)
    dsts = sorted(
        host.addr
        for host in internet.hosts.values()
        if host.responds_to_options and not host.is_vantage_point
    )[:count]
    return [(src, dst) for src in vps for dst in dsts]


def _observe(internet, pairs):
    """Route tables plus the paths and RR slots of *pairs*."""
    tables = {
        asn: internet.policy.routes(AnnouncementSpec.single(asn))
        for asn in internet.graph.asns()
    }
    probes = []
    for src, dst in pairs:
        outcome = internet.send_probe(
            Probe(
                src=src,
                dst=dst,
                kind=ProbeKind.RECORD_ROUTE,
                record_route=RecordRouteOption(),
            )
        )
        slots = (
            tuple(outcome.echo.record_route.slots)
            if outcome.echo is not None
            else None
        )
        probes.append(
            (
                outcome.delivered,
                tuple(outcome.forward_router_path),
                tuple(outcome.reply_router_path),
                slots,
            )
        )
    return tables, probes


def _assert_churn_matches_cold_replica(config, flip_seed):
    live = build_internet(config)
    pairs = _probe_pairs(live)
    _observe(live, pairs)
    stats = live.forwarding_cache_stats()["caches"]
    assert stats["routes"]["entries"] > 0
    assert stats["fib"]["entries"] > 0
    assert stats["egress"]["entries"] > 0

    rng = random.Random(flip_seed)
    flips = 0
    for _ in range(FLIPS):
        generation = live.routing_generation
        if _flip_preference(SimpleNamespace(internet=live), rng):
            flips += 1
            assert live.routing_generation == generation + 1
            # Re-warm every memo under the new generation.
            _observe(live, pairs)
    warm = _observe(live, pairs)

    replica = build_internet(config)
    replay = random.Random(flip_seed)
    for _ in range(FLIPS):
        _flip_preference(SimpleNamespace(internet=replica), replay)
    assert replica.routing_generation == flips
    cold = _observe(replica, pairs)

    assert warm[0] == cold[0]
    assert warm[1] == cold[1]


class TestChurnInvalidation:
    def test_flips_match_cold_replica(self):
        _assert_churn_matches_cold_replica(TopologyConfig.small(seed=7), 3)

    def test_flip_changes_some_route(self):
        """Guard against a vacuous comparison: the flips do reroute."""
        internet = build_internet(TopologyConfig.small(seed=7))
        before = {
            asn: internet.policy.routes(AnnouncementSpec.single(asn))
            for asn in internet.graph.asns()
        }
        rng = random.Random(3)
        for _ in range(FLIPS):
            _flip_preference(SimpleNamespace(internet=internet), rng)
        after = {
            asn: internet.policy.routes(AnnouncementSpec.single(asn))
            for asn in internet.graph.asns()
        }
        assert before != after


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=400),
    flip_seed=st.integers(min_value=0, max_value=10_000),
)
def test_churn_matches_cold_replica_property(seed, flip_seed):
    _assert_churn_matches_cold_replica(
        TopologyConfig.tiny(seed=seed), flip_seed
    )
