"""Paris traceroute over the simulator.

Keeps the flow identifier constant across TTLs so per-flow load
balancers see one consistent path (Augustin et al., used by the paper
to keep the traceroute atlas free of false links). The probe at each
TTL is charged to the traceroute budget and the walk advances the
virtual clock by the per-hop RTTs plus a small pacing overhead.
Because the flow is fixed, one forward walk answers every TTL
(:class:`~repro.sim.network.TtlWalk`).
"""

from __future__ import annotations

from typing import Optional

from repro.net.addr import Address
from repro.net.packet import ProbeKind, TracerouteResult
from repro.probing.prober import LOSS_TIMEOUT, Prober

#: Inter-probe pacing charged per TTL step.
_PACING = 0.05

#: Default TTL horizon.
MAX_TTL = 32


def paris_traceroute(
    prober: Prober,
    src: Address,
    dst: Address,
    max_ttl: int = MAX_TTL,
    flow_id: int = 0,
) -> TracerouteResult:
    """Run a Paris traceroute from *src* toward *dst*.

    Returns a :class:`TracerouteResult`; ``hops`` contains one entry
    per TTL (None for an unresponsive hop) and, when the destination
    answered, ends with the destination address itself.
    """
    walk = prober.internet.ttl_walk(src, dst, flow_id)
    result = TracerouteResult(
        src=src, dst=dst, flow_id=flow_id, timestamp=prober.clock.now()
    )
    consecutive_stars = 0
    for ttl in range(1, max_ttl + 1):
        prober.counter.record(ProbeKind.TRACEROUTE)
        prober._bucket(src).acquire(1)
        outcome = walk.send(ttl)
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
            # TTL outlived the path: the destination itself answered.
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
