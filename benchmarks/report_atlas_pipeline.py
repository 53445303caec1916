"""Benchmark: the atlas pipeline vs. the lazy scenario build.

Builds the per-source traceroute atlas (Q1) and RR atlas (Q2) for one
M-Lab source three ways over identically seeded scenarios:

* **lazy** — the scenario's own on-demand build
  (``Scenario.bundle`` + ``Scenario.rr_atlas``), paying every probe on
  one virtual clock;
* **sharded** — the atlas pipeline: the same probes, with each unit's
  virtual cost re-scheduled on N shard lanes;
* **warm** — snapshot save/load instead of re-probing.

Both cold builds send the same probes in the same order, so all three
must produce byte-identical atlases *and* byte-identical downstream
reverse traceroutes; this script verifies both, then reports the
deterministic virtual-clock speedup of the sharded schedule and the
wall-clock speedup of the warm start.

Checks (exit 1 on failure):

* traceroute atlas and RR mapping identical across the lazy, sharded
  and snapshot-loaded builds;
* reverse traceroute results over a fixed measurement stream identical
  between the lazy-built, sharded-built and warm-started deployments;
* sharded virtual-clock speedup >= ``--min-speedup`` (default 3x);
* warm-start wall-clock speedup >= ``--min-warm-speedup`` (default
  10x) over the lazy cold build;
* per-build hop dedup saves probes (``probes_deduped > 0``).

All quantities written to ``benchmarks/reports/BENCH_atlas.json`` are
virtual-clock or probe-count readings and therefore byte-identical
across runs, except the ``wall_seconds`` subtree, which records this
machine's timings (the warm-start headline ratio is reproduced there).

Run directly (not collected by pytest)::

    PYTHONPATH=src python benchmarks/report_atlas_pipeline.py
    PYTHONPATH=src python benchmarks/report_atlas_pipeline.py \
        --scale small --measurements 6 --min-speedup 1.0 \
        --min-warm-speedup 5    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.core.atlas import TracerouteAtlas  # noqa: E402
from repro.core.atlas_pipeline import (  # noqa: E402
    load_snapshot,
    save_snapshot,
)
from repro.experiments import Scenario  # noqa: E402
from repro.topology import TopologyConfig  # noqa: E402

SEED = 7

SCALES = {
    "small": TopologyConfig.small,
    "large": TopologyConfig.large,
}


def fresh_scenario(scale: str, atlas_size: int) -> Scenario:
    return Scenario(
        config=SCALES[scale](seed=SEED), seed=SEED, atlas_size=atlas_size
    )


def atlas_key(atlas: TracerouteAtlas):
    """Full contents of the traceroute atlas, timestamps included."""
    return {
        vp: (tuple(trace.hops), trace.reached, trace.timestamp)
        for vp, trace in atlas.traceroutes.items()
    }


def measure_stream(scenario: Scenario, source, destinations):
    """Reverse traceroute the fixed *destinations*; hashable results."""
    engine = scenario.engine(source, "revtr2.0")
    stream = []
    for dst in destinations:
        result = engine.measure(dst)
        stream.append(
            (dst, result.status.value, tuple(result.addresses()))
        )
    return stream


def build_lazy(scale: str, atlas_size: int):
    """The scenario's on-demand build path on a fresh scenario."""
    scenario = fresh_scenario(scale, atlas_size)
    source = scenario.sources()[0]
    virtual_start = scenario.clock.now()
    wall_start = time.perf_counter()
    atlas = scenario.bundle(source).atlas
    rr_atlas = scenario.rr_atlas(source)
    wall = time.perf_counter() - wall_start
    virtual = scenario.clock.now() - virtual_start
    return scenario, source, atlas, rr_atlas, wall, virtual


def build_sharded(scale: str, atlas_size: int, shards: int):
    """The pipeline build path on a fresh scenario."""
    scenario = fresh_scenario(scale, atlas_size)
    source = scenario.sources()[0]
    pipeline = scenario.atlas_pipeline(shards=shards)
    virtual_start = scenario.clock.now()
    wall_start = time.perf_counter()
    atlas, rr_atlas = pipeline.bootstrap(
        source,
        scenario.bundle_rng(source),
        size=atlas_size,
        max_size=atlas_size,
    )
    wall = time.perf_counter() - wall_start
    virtual = scenario.clock.now() - virtual_start
    scenario.adopt_atlases(source, atlas, rr_atlas)
    return scenario, source, atlas, rr_atlas, pipeline, wall, virtual


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="large"
    )
    parser.add_argument("--atlas-size", type=int, default=60)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument(
        "--measurements",
        type=int,
        default=12,
        help="reverse traceroutes in the fixed identity stream",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required sharded virtual-clock speedup over one lane",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=10.0,
        help="required warm-start wall-clock speedup over a lazy "
        "cold build",
    )
    args = parser.parse_args(argv)
    failures = []

    print("atlas pipeline benchmark")
    print(
        f"  {args.scale} topology, atlas size {args.atlas_size}, "
        f"{args.shards} shards, seed {SEED}"
    )

    # -- cold builds ---------------------------------------------------
    lazy = build_lazy(args.scale, args.atlas_size)
    (sc_lazy, source, atlas_lazy, rr_lazy, wall_lazy, virtual_lazy) = lazy
    print(
        f"  lazy:    {len(atlas_lazy)} traceroutes, "
        f"{len(rr_lazy)} aliases, {rr_lazy.probes_sent} RR probes "
        f"(+{rr_lazy.probes_deduped} deduped), "
        f"{virtual_lazy:8.2f} vs, {wall_lazy:6.3f} s wall"
    )

    sharded = build_sharded(args.scale, args.atlas_size, args.shards)
    (sc_sharded, _, atlas_sharded, rr_sharded, pipeline,
     wall_sharded, virtual_sharded) = sharded
    stages = [report.as_dict() for report in pipeline.reports]
    serial_virtual_total = sum(
        s["serial_virtual_seconds"] for s in stages
    )
    makespan_total = sum(
        s["makespan_virtual_seconds"] for s in stages
    )
    virtual_speedup = (
        serial_virtual_total / makespan_total if makespan_total else 0.0
    )
    deduped = rr_sharded.probes_deduped
    print(
        f"  sharded: serial work {serial_virtual_total:8.2f} vs -> "
        f"makespan {makespan_total:8.2f} vs "
        f"({virtual_speedup:.2f}x on {args.shards} shards), "
        f"{rr_sharded.probes_sent} RR probes (+{deduped} deduped), "
        f"{wall_sharded:6.3f} s wall"
    )

    # -- byte-identity across build modes ------------------------------
    if atlas_key(atlas_sharded) != atlas_key(atlas_lazy):
        failures.append("sharded traceroute atlas differs from lazy build")
    if rr_sharded._mapping != rr_lazy._mapping:
        failures.append("sharded RR mapping differs from lazy build")
    if rr_sharded.probes_sent != rr_lazy.probes_sent:
        failures.append("sharded RR probe count differs from lazy build")
    if deduped <= 0:
        failures.append("dedup saved no probes")
    if virtual_speedup < args.min_speedup:
        failures.append(
            f"sharded virtual speedup {virtual_speedup:.2f}x < "
            f"required {args.min_speedup:.2f}x"
        )

    # -- downstream identity over a fixed measurement stream -----------
    destinations = sc_lazy.responsive_destinations(
        args.measurements, options_only=True
    )
    stream_lazy = measure_stream(sc_lazy, source, destinations)
    stream_sharded = measure_stream(sc_sharded, source, destinations)
    if stream_lazy != stream_sharded:
        failures.append(
            "reverse traceroutes diverge between lazy- and "
            "sharded-built deployments"
        )
    complete = sum(
        1 for _, status, _ in stream_lazy if status == "complete"
    )
    print(
        f"  identity stream: {len(stream_lazy)} revtrs, "
        f"{complete} complete, sharded == lazy: "
        f"{stream_lazy == stream_sharded}"
    )

    # -- warm start ----------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        snap_path = os.path.join(tmp, "atlas.snap")
        save_snapshot(
            snap_path, atlas_sharded, rr_sharded, sc_sharded.internet
        )
        snap_bytes = os.path.getsize(snap_path)
        sc_warm = fresh_scenario(args.scale, args.atlas_size)
        wall_start = time.perf_counter()
        atlas_warm, rr_warm = load_snapshot(
            snap_path, sc_warm.internet
        )
        wall_warm = time.perf_counter() - wall_start
    sc_warm.adopt_atlases(source, atlas_warm, rr_warm)
    warm_speedup = wall_lazy / wall_warm if wall_warm else 0.0
    print(
        f"  warm:    {snap_bytes} byte snapshot loaded in "
        f"{wall_warm:6.4f} s wall ({warm_speedup:.1f}x over cold "
        f"lazy build, 0 probes)"
    )
    if atlas_key(atlas_warm) != atlas_key(atlas_lazy):
        failures.append("warm-started traceroute atlas differs")
    if rr_warm is None or rr_warm._mapping != rr_lazy._mapping:
        failures.append("warm-started RR mapping differs")
    stream_warm = measure_stream(sc_warm, source, destinations)
    if stream_warm != stream_lazy:
        failures.append(
            "reverse traceroutes diverge on the warm-started deployment"
        )
    if warm_speedup < args.min_warm_speedup:
        failures.append(
            f"warm-start speedup {warm_speedup:.1f}x < required "
            f"{args.min_warm_speedup:.1f}x"
        )

    payload = {
        "benchmark": "atlas_pipeline",
        "scale": args.scale,
        "seed": SEED,
        "atlas_size": args.atlas_size,
        "shards": args.shards,
        "source": source,
        "lazy": {
            "traceroutes": len(atlas_lazy),
            "rr_aliases": len(rr_lazy),
            "rr_probes_sent": rr_lazy.probes_sent,
            "rr_probes_deduped": rr_lazy.probes_deduped,
            "virtual_seconds": round(virtual_lazy, 6),
        },
        "sharded": {
            "stages": stages,
            "rr_probes_sent": rr_sharded.probes_sent,
            "rr_probes_deduped": deduped,
            "serial_virtual_seconds": round(serial_virtual_total, 6),
            "makespan_virtual_seconds": round(makespan_total, 6),
            "virtual_speedup": round(virtual_speedup, 3),
        },
        "warm_start": {
            "snapshot_bytes": snap_bytes,
            "probes_sent": 0,
            "min_wall_speedup_required": args.min_warm_speedup,
        },
        "identity": {
            "atlas_identical": atlas_key(atlas_sharded)
            == atlas_key(atlas_lazy),
            "rr_mapping_identical": rr_sharded._mapping
            == rr_lazy._mapping,
            "warm_identical": atlas_key(atlas_warm)
            == atlas_key(atlas_lazy),
            "measurements": len(stream_lazy),
            "measurements_identical": stream_lazy == stream_sharded
            and stream_lazy == stream_warm,
        },
        "wall_seconds": {
            "_comment": "machine-dependent; everything above is "
            "deterministic",
            "lazy_cold_build": round(wall_lazy, 4),
            "sharded_cold_build": round(wall_sharded, 4),
            "warm_start_load": round(wall_warm, 4),
            "warm_start_speedup": round(warm_speedup, 1),
        },
    }
    report_dir = os.path.join(os.path.dirname(__file__), "reports")
    os.makedirs(report_dir, exist_ok=True)
    path = os.path.join(report_dir, "BENCH_atlas.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
