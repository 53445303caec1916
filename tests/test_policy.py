"""Tests for Gao-Rexford route computation, poisoning, and anycast."""

import hashlib

import pytest

from repro.topology.asgraph import ASGraph, ASTier, Relationship
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_internet
from repro.topology.policy import (
    AnnouncementSpec,
    Origin,
    RouteClass,
    RoutingPolicy,
)


def diamond_graph():
    """1 and 2 are providers of 3 and 4; 1-2 peer; 3-4 peer.

        1 --peer-- 2
        |  \\      |
        3   \\---- 4      (3, 4 customers)
    """
    graph = ASGraph()
    for asn in (1, 2, 3, 4):
        graph.add_as(asn, ASTier.TRANSIT if asn <= 2 else ASTier.STUB)
    graph.add_edge(1, 2, Relationship.PEER)
    graph.add_edge(1, 3, Relationship.CUSTOMER)
    graph.add_edge(1, 4, Relationship.CUSTOMER)
    graph.add_edge(2, 4, Relationship.CUSTOMER)
    graph.add_edge(3, 4, Relationship.PEER)
    return graph


class TestBasicSelection:
    def test_customer_route_preferred_over_peer(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(4)
        # AS1 can reach 4 directly (customer) or via peer 2; customer wins.
        route = policy.route_of(1, spec)
        assert route.route_class is RouteClass.CUSTOMER
        assert route.path == (1, 4)

    def test_peer_route_of_stub(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(4)
        route = policy.route_of(3, spec)
        # 3 reaches 4 via the direct peering, not up through 1.
        assert route.route_class is RouteClass.PEER
        assert route.path == (3, 4)

    def test_provider_route(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(3)
        # 2 has no customer/peer path to 3; must go up?  2 is a provider
        # of 4 which peers with 3, but peer routes are not exported to
        # providers; 2 reaches 3 via its peer 1 (1 has customer route).
        route = policy.route_of(2, spec)
        assert route.route_class is RouteClass.PEER
        assert route.path == (2, 1, 3)

    def test_origin_route(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(4)
        route = policy.route_of(4, spec)
        assert route.route_class is RouteClass.ORIGIN
        assert route.next_as is None

    def test_valley_free_no_peer_to_peer_transit(self):
        # 5 peers with 4 and buys transit from 1. Peer routes must not
        # be re-exported: 3 must not hear 5 through its peer 4.
        graph = diamond_graph()
        graph.add_as(5, ASTier.STUB)
        graph.add_edge(4, 5, Relationship.PEER)
        graph.add_edge(1, 5, Relationship.CUSTOMER)
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(5)
        route3 = policy.route_of(3, spec)
        assert route3 is not None
        assert route3.path == (3, 1, 5)
        # 2, a provider of 4, must not hear 4's peer route either: it
        # reaches 5 through its peer 1 (customer route at 1).
        route2 = policy.route_of(2, spec)
        assert route2.path == (2, 1, 5)

    def test_path_consistency_is_a_tree(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.single(3)
        routes = policy.routes(spec)
        for asn, route in routes.items():
            if route.next_as is None:
                continue
            next_route = routes[route.next_as]
            assert route.path[1:] == next_route.path

    def test_unreachable_as_has_no_route(self):
        graph = diamond_graph()
        graph.add_as(99, ASTier.STUB)  # isolated
        policy = RoutingPolicy(graph)
        assert policy.route_of(99, AnnouncementSpec.single(4)) is None
        assert policy.route_of(1, AnnouncementSpec.single(99)) is None


class TestPoisoning:
    def test_poisoned_as_rejects_route(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec(
            origins=(Origin(4),), poisoned=frozenset({1})
        )
        assert policy.route_of(1, spec) is None
        # 3 now reaches 4 only via the direct peering.
        route3 = policy.route_of(3, spec)
        assert route3.path == (3, 4)

    def test_prepend_lengthens_path(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        plain = policy.route_of(1, AnnouncementSpec.single(4))
        prepended = policy.route_of(
            1, AnnouncementSpec(origins=(Origin(4, prepend=3),))
        )
        assert prepended.length == plain.length + 3


class TestNoExportAndSelectiveAnnounce:
    def test_no_export_blocks_edge(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec(
            origins=(Origin(4),),
            no_export=frozenset({(4, 1)}),
        )
        route1 = policy.route_of(1, spec)
        # 1 cannot hear 4 directly; it hears via peer 2.
        assert route1.path == (1, 2, 4)

    def test_selective_announce(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec(
            origins=(Origin(4, announce_to=frozenset({2})),)
        )
        route1 = policy.route_of(1, spec)
        assert route1.path == (1, 2, 4)


class TestAnycast:
    def test_catchment_partition(self):
        graph = diamond_graph()
        policy = RoutingPolicy(graph)
        spec = AnnouncementSpec.anycast([3, 4])
        # Each origin catches itself.
        assert policy.catchment(3, spec) == 3
        assert policy.catchment(4, spec) == 4
        # Providers pick their directly attached origin.
        assert policy.catchment(2, spec) == 4
        assert policy.catchment(1, spec) in (3, 4)
        assert policy.route_of(1, spec).length == 2


class TestDeterminism:
    def test_same_inputs_same_routes(self, small_internet):
        policy_a = RoutingPolicy(small_internet.graph, salt=3)
        policy_b = RoutingPolicy(small_internet.graph, salt=3)
        asns = small_internet.graph.asns()
        spec = AnnouncementSpec.single(asns[-1])
        assert policy_a.routes(spec) == policy_b.routes(spec)

    def test_all_ases_reach_all_origins(self, small_internet):
        policy = small_internet.policy
        asns = small_internet.graph.asns()
        for dst in asns[:10]:
            routes = policy.routes(AnnouncementSpec.single(dst))
            assert set(routes) == set(asns), f"unreachable ASes for {dst}"


# ----------------------------------------------------------------------
# Golden route tables
# ----------------------------------------------------------------------


def _route_table_digest(policy, specs):
    """sha256 over every AS's (class, path, next AS, origin) per spec."""
    digest = hashlib.sha256()
    for spec in specs:
        routes = policy.routes(spec)
        for asn in sorted(routes):
            route = routes[asn]
            digest.update(
                repr(
                    (
                        asn,
                        int(route.route_class),
                        route.path,
                        route.next_as,
                        route.origin,
                    )
                ).encode()
            )
        digest.update(b"/")
    return digest.hexdigest()


def _single_origin_specs(graph):
    return [AnnouncementSpec.single(asn) for asn in sorted(graph.asns())]


def _te_specs(graph):
    """A fixed traffic-engineering spec set drawn from the graph."""
    multihomed = sorted(
        asn
        for asn, node in graph.nodes.items()
        if not node.customers() and len(node.providers()) >= 2
    )
    stub, other = multihomed[0], multihomed[-1]
    providers = sorted(graph.nodes[stub].providers())
    other_provider = sorted(graph.nodes[other].providers())[0]
    asns = sorted(graph.asns())
    return [
        AnnouncementSpec.anycast([stub, other, asns[len(asns) // 2]]),
        AnnouncementSpec(origins=(Origin(stub, prepend=2), Origin(other))),
        AnnouncementSpec(
            origins=(Origin(stub),), poisoned=frozenset({providers[0]})
        ),
        AnnouncementSpec(
            origins=(
                Origin(stub, poisoned=frozenset({providers[0]})),
                Origin(other, poisoned=frozenset({other_provider})),
            )
        ),
        AnnouncementSpec(
            origins=(Origin(stub),),
            no_export=frozenset({(stub, providers[0])}),
        ),
        AnnouncementSpec(
            origins=(Origin(stub, announce_to=frozenset({providers[-1]})),)
        ),
        AnnouncementSpec(
            origins=(
                Origin(stub, prepend=1, announce_to=frozenset({providers[0]})),
                Origin(other),
            ),
            poisoned=frozenset({other_provider}),
            no_export=frozenset({(providers[0], asns[0])}),
        ),
    ]


#: digests pinned from the reference route computation; any change to
#: route selection, tie-breaking or leaf preferences shows up here
GOLDEN_SINGLE_ORIGIN = {
    ("tiny", 5): (
        "1934a79f6143fe9ec1eb0dd748a3f55d9e4b45c8fa2679380c76cf81314ce245"
    ),
    ("tiny", 7): (
        "9271c16382247d0105965b49680c62ff4f4e83c0ebdd8d827bf1ef0e5b90640f"
    ),
    ("tiny", 11): (
        "9da5095fd5a0019dc1fc9b772f6107c6e6d8d1062fddb887fa40a40b38c9990e"
    ),
    ("small", 7): (
        "ef3a790ab1871cedc8be154a0b554e73a3d029235cfe3cade00f3c3796e1ac1b"
    ),
}
GOLDEN_TE = {
    ("tiny", 11): (
        "64a43da3f1cb7af14ea01dc834bc50f9aa4e6d459839b22ef04e87069acbd3c6"
    ),
    ("small", 7): (
        "2628c31fe790d53c3e8c54f182519a0e3a1c978e009422a0bc20ebba530d4400"
    ),
}


def _golden_policy(scale, seed):
    return build_internet(getattr(TopologyConfig, scale)(seed=seed)).policy


class TestGoldenRouteTables:
    @pytest.mark.parametrize("key", sorted(GOLDEN_SINGLE_ORIGIN))
    def test_single_origin_tables(self, key):
        policy = _golden_policy(*key)
        specs = _single_origin_specs(policy.graph)
        assert _route_table_digest(policy, specs) == (
            GOLDEN_SINGLE_ORIGIN[key]
        )

    @pytest.mark.parametrize("key", sorted(GOLDEN_TE))
    def test_traffic_engineering_tables(self, key):
        policy = _golden_policy(*key)
        specs = _te_specs(policy.graph)
        assert _route_table_digest(policy, specs) == GOLDEN_TE[key]
