"""The RR atlas's probing path under fault plans.

``Prober.rr_ping_batch`` is a loop over ``rr_ping``: every probe is
charged, walked and clock-advanced before the next one, so a
clock-windowed fault plan (ICMP rate limits, VP outages) sees the same
clock readings either way.  The golden digests pin the RR atlas built
through that path to the bytes the batch-walking prober produced
before it, on the fault plans whose outcome never depended on the
clock.
"""

import hashlib
import json

import pytest

from repro.experiments import Scenario
from repro.sim.faults import PRESETS, preset_plan
from repro.topology import TopologyConfig

ATLAS_SIZE = 20


def faulted_scenario(seed, preset):
    """A fresh small scenario whose source-0 traceroute atlas is built
    fault-free, with *preset* installed afterwards."""
    scenario = Scenario(
        config=TopologyConfig.small(seed=seed),
        seed=seed,
        atlas_size=ATLAS_SIZE,
    )
    source = scenario.sources()[0]
    scenario.bundle(source)
    injector = scenario.install_faults(
        preset_plan(preset, seed=seed, vps=scenario.spoofer_addrs)
    )
    return scenario, source, injector


def atlas_items(scenario, source):
    """Direct and spoofed RR pings toward every distinct atlas hop."""
    atlas = scenario.bundle(source).atlas
    hops = list(
        dict.fromkeys(
            hop
            for trace in atlas.traceroutes.values()
            for hop in trace.hops
            if hop is not None and hop != source
        )
    )
    spoofers = scenario.spoofer_addrs[:2]
    return [(source, hop, None) for hop in hops] + [
        (spoofers[i % 2], hop, source) for i, hop in enumerate(hops)
    ]


def observe(scenario, injector, results):
    return (
        [
            (r.dst, r.vp, r.spoofed_as, r.responded, tuple(r.slots), r.rtt)
            for r in results
        ],
        scenario.clock.now(),
        dict(scenario.background_prober.counter.counts),
        injector.snapshot(),
    )


@pytest.mark.parametrize("preset", PRESETS)
def test_rr_ping_batch_equals_rr_ping_loop(preset):
    scenario, source, injector = faulted_scenario(5, preset)
    items = atlas_items(scenario, source)
    batched = observe(
        scenario,
        injector,
        scenario.background_prober.rr_ping_batch(items),
    )
    scenario, source, injector = faulted_scenario(5, preset)
    prober = scenario.background_prober
    looped = observe(
        scenario, injector, [prober.rr_ping(*item) for item in items]
    )
    assert len(batched[0]) == len(items) > 100
    assert batched == looped


#: sha256 of the RR atlas built by ``Scenario.rr_atlas`` (small
#: topology, source 0, atlas size 20) under a fault preset: sorted
#: mapping, probes sent and deduped, per-unit costs and the clock.
GOLDEN = {
    (5, "none"): (
        "10f588df7eefa6dc36f1a89a7722ac98313a9e11e83aedc8828438ee5dd72af3"
    ),
    (5, "loss"): (
        "e77c7909cb9f96082a10cb689f892f3441200ec10f742b7ac133dd2f22613a48"
    ),
    (5, "blackhole"): (
        "c3d216c1e0c8b05dc280c4e314e0987cd549731ecd8597a43c78f77c9329f5fc"
    ),
    (7, "none"): (
        "a25940eac390c95f11e054e9e1bb971cff9f17573235e4d50a6565f68b0279a0"
    ),
    (7, "loss"): (
        "b287e3f9a5e62ee726950bc5851089ff2d6e0de2a376531598cad4897bdeb359"
    ),
    (7, "blackhole"): (
        "867cd65458716f47d164b4a9f3fccd7bc2fa10587aaf762c94c14ab2c7c45deb"
    ),
}


def rr_atlas_digest(seed, preset):
    scenario, source, _ = faulted_scenario(seed, preset)
    rr_atlas = scenario.rr_atlas(source)
    doc = [
        sorted(
            [addr, vp, index]
            for addr, (vp, index) in rr_atlas._mapping.items()
        ),
        rr_atlas.probes_sent,
        rr_atlas.probes_deduped,
        rr_atlas.last_build.unit_costs,
        scenario.clock.now(),
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("seed,preset", sorted(GOLDEN))
def test_rr_atlas_golden_digest(seed, preset):
    assert rr_atlas_digest(seed, preset) == GOLDEN[(seed, preset)]
