"""Paris traceroute in one walk equals the per-TTL reference loop.

:func:`~repro.probing.traceroute.paris_traceroute` answers every TTL of
a flow from one forward walk (:class:`~repro.sim.network.TtlWalk`).
The reference below is the loop it replaced: one fresh
``Internet.send_probe`` walk per TTL.  Two identically built worlds run
the same traceroutes, one through each, and after every traceroute
they must agree on the hops, the virtual clock, the probe counter, the
fault injector's tallies and draw counter, the simulator's outcome /
hop / drop tallies and every IP-ID counter — under every fault preset,
with the forwarding fast path on and off.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.packet import Probe, ProbeKind, TracerouteResult
from repro.probing.prober import LOSS_TIMEOUT, Prober
from repro.probing.traceroute import (
    _PACING,
    MAX_TTL,
    paris_traceroute,
)
from repro.sim.faults import (
    PRESETS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    preset_plan,
)
from repro.topology import TopologyConfig
from repro.topology.generator import build_internet

CONFIGS = {
    "tiny-5": lambda: TopologyConfig.tiny(seed=5),
    "tiny-7": lambda: TopologyConfig.tiny(seed=7),
    "tiny-11": lambda: TopologyConfig.tiny(seed=11),
    "small-7": lambda: TopologyConfig.small(seed=7),
}


def reference_traceroute(
    prober, src, dst, max_ttl=MAX_TTL, flow_id=0
) -> TracerouteResult:
    """The per-TTL loop: one ``send_probe`` from the source per TTL."""
    internet = prober.internet
    result = TracerouteResult(
        src=src, dst=dst, flow_id=flow_id, timestamp=prober.clock.now()
    )
    consecutive_stars = 0
    for ttl in range(1, max_ttl + 1):
        prober.counter.record(ProbeKind.TRACEROUTE)
        prober._bucket(src).acquire(1)
        probe = Probe(src=src, dst=dst, ttl=ttl, flow_id=flow_id)
        outcome = internet.send_probe(probe)
        prober.clock.advance(_PACING)
        if outcome.te_reply is not None:
            reply = outcome.te_reply
            prober.clock.advance(reply.rtt)
            result.hops.append(reply.hop_addr)
            if reply.hop_addr is None:
                consecutive_stars += 1
            else:
                consecutive_stars = 0
            if reply.reached:
                result.reached = True
                break
            if consecutive_stars >= 4:
                break
            continue
        if outcome.delivered:
            rtt = outcome.echo.rtt if outcome.echo else 0.0
            prober.clock.advance(rtt)
            result.hops.append(dst)
            result.reached = True
            break
        prober.clock.advance(LOSS_TIMEOUT)
        result.hops.append(None)
        consecutive_stars += 1
        if consecutive_stars >= 4:
            break
    return result


def sources_of(internet, count=3):
    return sorted(internet.mlab_hosts)[:count]


def destinations_of(internet, rng, per_class=3):
    """Hosts (answering or not), router interfaces (answering or not,
    TTL-deaf routers, both ends of /30 links) and an unrouted address."""
    hosts = sorted(internet.hosts.values(), key=lambda h: h.addr)
    routers = [internet.routers[r] for r in sorted(internet.routers)]
    link_ends = sorted(
        iface.addr
        for router in routers
        for iface in router.interfaces.values()
        if iface.neighbor_router_id is not None
    )
    classes = [
        [h.addr for h in hosts if h.responds_to_ping],
        [h.addr for h in hosts if not h.responds_to_ping],
        [
            addr
            for r in routers
            if r.responds_to_ping
            for addr in sorted(r.interfaces)
        ],
        [
            addr
            for r in routers
            if not r.responds_to_ping or not r.responds_to_ttl
            for addr in sorted(r.interfaces)
        ],
        link_ends,
    ]
    dsts = []
    for members in classes:
        dsts.extend(rng.sample(members, min(per_class, len(members))))
    # Both ends of one /30: the far end is reached across the link.
    if link_ends:
        end = rng.choice(link_ends)
        owner = internet.routers[internet.iface_owner[end]]
        peer = internet.routers[owner.interfaces[end].neighbor_router_id]
        dsts.extend(
            [end]
            + [
                addr
                for addr, iface in sorted(peer.interfaces.items())
                if iface.neighbor_router_id == owner.router_id
            ][:1]
        )
    dsts.append("198.18.255.254")
    return dsts


class World:
    """One freshly built Internet with its prober and fault injector."""

    def __init__(self, config, preset, fastpath, plan=None):
        self.internet = build_internet(config)
        self.internet.enable_fastpath(fastpath)
        self.prober = Prober(self.internet)
        self.injector = None
        if plan is None and preset is not None:
            plan = preset_plan(
                preset, seed=3, vps=sources_of(self.internet)
            )
        if plan is not None:
            self.injector = FaultInjector(plan, self.prober.clock)
            self.internet.faults = self.injector

    def state(self):
        internet = self.internet
        injector = self.injector
        return {
            "clock": self.prober.clock.now(),
            "probes": self.prober.counter.snapshot(),
            "outcomes": internet.probe_outcome_counts,
            # sim_probes_total, sim_hops_traversed_total, sim_drops_total;
            # only the forwarding-cache lookup counters may differ.
            "metrics": {
                key: value
                for key, value in internet._obs_collect().items()
                if key[0] != "sim_fwd_cache_lookups_total"
            },
            "ipid": dict(internet._ipid_counters),
            "router_ipid": {
                rid: router._ipid
                for rid, router in internet.routers.items()
            },
            "faults": None
            if injector is None
            else (
                injector.snapshot(),
                injector._draws,
                dict(injector._granted),
            ),
        }


def assert_equivalent(make_world, flows, max_ttl=MAX_TTL):
    """Run *flows* through the walker and the reference in twin worlds."""
    walked, reference = make_world(), make_world()
    assert walked.state() == reference.state()
    for src, dst, flow_id in flows:
        got = paris_traceroute(
            walked.prober, src, dst, max_ttl=max_ttl, flow_id=flow_id
        )
        want = reference_traceroute(
            reference.prober, src, dst, max_ttl=max_ttl, flow_id=flow_id
        )
        assert got == want, (src, dst, flow_id)
        assert walked.state() == reference.state(), (src, dst, flow_id)
    return walked


def flows_of(internet, seed, flow_ids=(0, 1, 7)):
    rng = random.Random(seed)
    dsts = destinations_of(internet, rng)
    return [
        (src, dst, flow_id)
        for src in sources_of(internet)
        for dst in dsts
        for flow_id in flow_ids
    ]


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "slow"])
@pytest.mark.parametrize("preset", (None,) + PRESETS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_walk_equals_per_ttl_reference(name, preset, fastpath):
    config = CONFIGS[name]()
    flows = flows_of(build_internet(config), seed=config.seed)
    walked = assert_equivalent(
        lambda: World(config, preset, fastpath), flows
    )
    if preset in ("loss", "rate-limit", "mixed"):
        assert walked.injector.injections > 0


def test_outages_mid_traceroute():
    """VP outages that lift and start while a traceroute is running:
    early TTLs dropped at injection record the walk at the first
    admitted TTL, and later TTLs still go through the injection hook."""
    config = TopologyConfig.tiny(seed=7)
    internet = build_internet(config)
    src = sources_of(internet)[0]
    outages = [
        FaultSpec(
            kind="vp-outage", vps=(src,), start=2.0 * k + 0.7,
            end=2.0 * k + 1.3,
        )
        for k in range(60)
    ]
    plan = FaultPlan(
        [FaultSpec(kind="vp-outage", vps=(src,), end=0.4)]
        + outages
        + [FaultSpec(kind="link-loss", rate=0.2)],
        seed=9,
    )
    dsts = destinations_of(internet, random.Random(1))
    flows = [(src, dst, flow_id) for dst in dsts for flow_id in (0, 3)]
    walked = assert_equivalent(
        lambda: World(config, None, True, plan=plan), flows
    )
    assert walked.injector.counts["vp-outage"] >= 10


@pytest.mark.parametrize("max_ttl", [1, 2, 3, 5])
def test_short_horizons(max_ttl):
    config = TopologyConfig.tiny(seed=11)
    flows = flows_of(build_internet(config), seed=2, flow_ids=(0,))
    assert_equivalent(
        lambda: World(config, "mixed", True), flows, max_ttl=max_ttl
    )


def test_one_forward_walk_per_flow():
    """A fault-free traceroute to an answering host walks the path
    once, then once more (with the reply) for the TTL that delivers."""
    internet = build_internet(TopologyConfig.tiny(seed=5))
    prober = Prober(internet)
    calls = []
    walk = internet._walk

    def counting_walk(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    internet._walk = counting_walk
    src = sources_of(internet)[0]
    dst = next(
        h.addr
        for h in sorted(internet.hosts.values(), key=lambda h: h.addr)
        if h.responds_to_ping and not h.is_vantage_point
    )
    trace = paris_traceroute(prober, src, dst)
    assert trace.reached and len(trace.hops) > 3
    # recorded path, the delivering TTL's forward walk, its reply walk
    assert len(calls) == 3


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=200),
    preset=st.sampled_from((None,) + PRESETS),
    flow_id=st.integers(min_value=0, max_value=1 << 16),
    max_ttl=st.integers(min_value=1, max_value=MAX_TTL),
    fastpath=st.booleans(),
)
def test_walk_equals_reference_generated(
    seed, preset, flow_id, max_ttl, fastpath
):
    """Accelerator equals reference across generated topologies and
    fault plans."""
    config = TopologyConfig.tiny(seed=seed)
    internet = build_internet(config)
    rng = random.Random(seed)
    flows = [
        (src, dst, flow_id)
        for src in sources_of(internet, count=2)
        for dst in destinations_of(internet, rng, per_class=2)
    ]
    assert_equivalent(
        lambda: World(config, preset, fastpath), flows, max_ttl=max_ttl
    )
