"""Correctness checks on a run's results.

* :func:`digest` — sha256 over every result's ``to_dict()`` in order;
  equal digests across the untraced, traced and null-facade runs of one
  seed show that neither the wrappers nor the observability facade
  perturb the program.
* :func:`violation` — per-result invariants: a typed status, the
  destination first, and every COMPLETE result ending at the source.
* :func:`as_accuracy` — the share of COMPLETE results whose AS path is
  correct against the simulator's ground truth, computed on a *replica*
  Internet built from the same config (with the same routing changes
  replayed), so truth probes never touch the measured deployment.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.result import RevtrStatus
from repro.topology.generator import build_internet


def digest(results: Sequence) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(result.to_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def violation(result) -> Optional[str]:
    """The first invariant *result* breaks, or None."""
    if not isinstance(result.status, RevtrStatus):
        return f"untyped status {result.status!r}"
    if result.hops and result.hops[0].addr != result.dst:
        return "first hop is not the destination"
    if result.status is RevtrStatus.COMPLETE and (
        not result.hops or result.hops[-1].addr != result.src
    ):
        return "COMPLETE result does not end at the source"
    return None


def _is_subsequence(short: Sequence, long: Sequence) -> bool:
    iterator = iter(long)
    return all(item in iterator for item in short)


def _collapse(asns) -> List[int]:
    out: List[int] = []
    for asn in asns:
        if asn is not None and (not out or out[-1] != asn):
            out.append(asn)
    return out


def apply_flip(internet, asn: int, provider: int) -> None:
    """Make *provider* the sole preferred provider of *asn* and flush
    routing state (the churn workload's routing change)."""
    node = internet.graph.nodes[asn]
    node.neighbor_pref.clear()
    node.neighbor_pref[provider] = 100
    internet.invalidate_routing()


def as_accuracy(
    config,
    fingerprint: str,
    ip2as,
    results: Sequence,
    epochs: Optional[Sequence[int]] = None,
    flips: Sequence[Tuple[int, int]] = (),
) -> Tuple[float, int]:
    """Share of the COMPLETE results whose AS path is correct.

    A result scores 1 when its collapsed measured AS path equals the
    true reverse path (destination to source, collapsed) or is a
    subsequence of it, and 0 otherwise.  This is ``as_correct`` of
    ``repro.analysis.accuracy`` (the paper's 98.3 %) with the truth
    complete: ASes may be missing, but a wrong or extra AS is an
    error.  ``epochs[i]`` is how many of *flips* had been applied when
    result *i* was measured; results are scored against the replica
    with exactly those flips applied.  Returns ``(mean, scored)``.
    """
    replica = build_internet(config)
    if replica.topology_fingerprint() != fingerprint:
        raise RuntimeError("replica topology differs from the measured one")
    by_epoch: Dict[int, List] = {}
    for index, result in enumerate(results):
        if result.status is RevtrStatus.COMPLETE:
            epoch = epochs[index] if epochs else 0
            by_epoch.setdefault(epoch, []).append(result)
    total = 0.0
    scored = 0
    applied = 0
    for epoch in sorted(by_epoch):
        while applied < epoch:
            apply_flip(replica, *flips[applied])
            applied += 1
        for result in by_epoch[epoch]:
            routers = replica.ground_truth_router_path(result.dst, result.src)
            truth = _collapse(
                [replica.hosts[result.dst].asn]
                + [replica.routers[rid].asn for rid in routers]
                + [replica.hosts[result.src].asn]
            )
            measured = ip2as.collapsed_as_path(result.addresses())
            total += bool(measured) and _is_subsequence(measured, truth)
            scored += 1
    return (total / scored if scored else 0.0), scored
