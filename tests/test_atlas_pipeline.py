"""Tests for the atlas pipeline (sharded build, dedup, refresh, snapshots).

The acceptance bar for the pipeline is byte-identity: every fast path
(batched probing, probe dedup, shard-lane accounting, snapshot
warm-start) must produce exactly the atlases — and exactly the
downstream reverse-traceroute results — that the plain serial build
produces.  Forwarding outcomes are pure functions of each probe, so
these tests can compare dictionaries directly instead of sampling.
"""

import gzip
import json

import pytest

from repro.core import (
    AtlasPipeline,
    LaneSchedule,
    SnapshotError,
    SnapshotMismatch,
    load_snapshot,
    save_snapshot,
)
from repro.core.atlas import TracerouteAtlas
from repro.core.atlas_pipeline import SNAPSHOT_VERSION
from repro.core.rr_atlas import RRAtlas
from repro.experiments import Scenario
from repro.net.packet import TracerouteResult
from repro.obs import Instrumentation
from repro.topology import TopologyConfig
from repro.topology.generator import build_internet

SEED = 5
ATLAS_SIZE = 20
N_MEASURE = 4


def fresh_scenario(instrumentation=None):
    return Scenario(
        config=TopologyConfig.small(seed=SEED),
        seed=SEED,
        atlas_size=ATLAS_SIZE,
        instrumentation=instrumentation,
    )


def atlas_key(atlas):
    """Byte-comparable atlas contents."""
    return {
        vp: (tuple(trace.hops), trace.reached, trace.flow_id,
             trace.timestamp)
        for vp, trace in atlas.traceroutes.items()
    }


def measure_stream(scenario, source, destinations):
    engine = scenario.engine(source)
    return [
        (dst, result.status.value, tuple(result.addresses()))
        for dst, result in (
            (dst, engine.measure(dst)) for dst in destinations
        )
    ]


@pytest.fixture(scope="module")
def serial_world():
    """Legacy path: serial traceroute build + serial non-dedup RR."""
    scenario = fresh_scenario()
    source = scenario.sources()[0]
    atlas = TracerouteAtlas(source, max_size=ATLAS_SIZE)
    atlas.build(
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.bundle_rng(source),
        size=ATLAS_SIZE,
    )
    rr_atlas = RRAtlas(atlas)
    rr_atlas.build(
        scenario.background_prober,
        scenario.spoofer_addrs,
        dedup=False,
        batched=False,
    )
    scenario.adopt_atlases(source, atlas, rr_atlas)
    return scenario, source, atlas, rr_atlas


@pytest.fixture(scope="module")
def sharded_world():
    """Pipeline path: sharded virtual-clock build, dedup + batch on."""
    scenario = fresh_scenario()
    source = scenario.sources()[0]
    pipeline = scenario.atlas_pipeline(shards=4)
    atlas, rr_atlas = pipeline.bootstrap(
        source,
        scenario.bundle_rng(source),
        size=ATLAS_SIZE,
        max_size=ATLAS_SIZE,
    )
    scenario.adopt_atlases(source, atlas, rr_atlas)
    return scenario, source, atlas, rr_atlas, pipeline


class TestLaneSchedule:
    def test_earliest_free_lane_with_low_index_ties(self):
        lanes = LaneSchedule(3)
        assert [lanes.assign(d) for d in (4.0, 1.0, 1.0, 1.0, 3.0)] == [
            0, 1, 2, 1, 2,
        ]
        assert lanes.lanes == [4.0, 2.0, 4.0]
        assert lanes.makespan == 4.0

    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError):
            LaneSchedule(0)


class TestShardedByteIdentity:
    """Acceptance criterion: sharded == serial, bytes and downstream."""

    def test_atlas_contents_identical(self, serial_world, sharded_world):
        _, _, serial_atlas, _ = serial_world
        _, _, sharded_atlas, _, _ = sharded_world
        assert atlas_key(sharded_atlas) == atlas_key(serial_atlas)

    def test_rr_mapping_identical_and_dedup_cheaper(
        self, serial_world, sharded_world
    ):
        _, _, _, serial_rr = serial_world
        _, _, _, sharded_rr, _ = sharded_world
        assert sharded_rr._mapping == serial_rr._mapping
        # Dedup removes probes without changing the mapping; together
        # sent + saved must account for every serial-mode probe.
        assert sharded_rr.probes_sent < serial_rr.probes_sent
        assert sharded_rr.probes_deduped > 0
        assert (
            sharded_rr.probes_sent + sharded_rr.probes_deduped
            == serial_rr.probes_sent
        )

    def test_downstream_revtr_results_identical(
        self, serial_world, sharded_world
    ):
        serial_sc, source, _, _ = serial_world
        sharded_sc, _, _, _, _ = sharded_world
        destinations = serial_sc.responsive_destinations(N_MEASURE)
        assert destinations == sharded_sc.responsive_destinations(
            N_MEASURE
        )
        assert measure_stream(
            serial_sc, source, destinations
        ) == measure_stream(sharded_sc, source, destinations)

    def test_stage_reports_account_every_virtual_second(
        self, sharded_world
    ):
        _, _, _, _, pipeline = sharded_world
        stages = {report.stage: report for report in pipeline.reports}
        assert set(stages) == {"traceroute", "rr"}
        for report in stages.values():
            assert report.mode == "virtual"
            assert report.shards == 4
            assert report.tasks > 0
            assert report.probes_sent > 0
            assert report.serial_seconds == pytest.approx(
                sum(report.lane_seconds)
            )
            assert report.makespan_seconds == max(report.lane_seconds)
            assert report.speedup > 1.0
        assert stages["rr"].probes_deduped > 0


class TestBatchedSerialEquivalence:
    """Satellite: batched RR build == serial loop, probe for probe."""

    def test_all_mode_combinations_share_one_mapping(self, serial_world):
        scenario, _, atlas, baseline = serial_world
        prober = scenario.background_prober
        spoofers = scenario.spoofer_addrs
        builds = {}
        for dedup in (False, True):
            for batched in (False, True):
                rr_atlas = RRAtlas(atlas)
                rr_atlas.build(
                    prober, spoofers, dedup=dedup, batched=batched
                )
                builds[(dedup, batched)] = rr_atlas
        for rr_atlas in builds.values():
            assert rr_atlas._mapping == baseline._mapping
        # Probe counts depend on dedup only, never on batching.
        for dedup in (False, True):
            assert (
                builds[(dedup, True)].probes_sent
                == builds[(dedup, False)].probes_sent
            )
            assert (
                builds[(dedup, True)].probes_deduped
                == builds[(dedup, False)].probes_deduped
            )
        assert builds[(False, True)].probes_sent == baseline.probes_sent
        assert builds[(False, True)].probes_deduped == 0

    def test_batched_clock_advance_matches_serial(self, serial_world):
        scenario, _, atlas, _ = serial_world
        prober = scenario.background_prober
        spoofers = scenario.spoofer_addrs
        costs = []
        for batched in (False, True):
            started = prober.clock.now()
            rr_atlas = RRAtlas(atlas)
            rr_atlas.build(
                prober, spoofers, dedup=True, batched=batched
            )
            costs.append(prober.clock.now() - started)
            assert rr_atlas.last_build.virtual_seconds == pytest.approx(
                costs[-1]
            )
        assert costs[0] == pytest.approx(costs[1])


class TestRRAtlasStaleLookup:
    """Satellite: a pruned-VP alias must not count as an obs hit."""

    def _tiny_rr(self):
        atlas = TracerouteAtlas("10.0.0.1", max_size=4)
        atlas.add(
            TracerouteResult(
                src="10.9.9.9",
                dst="10.0.0.1",
                hops=["10.1.1.1", "10.0.0.1"],
                reached=True,
                timestamp=5.0,
            )
        )
        rr_atlas = RRAtlas(atlas)
        rr_atlas._mapping["10.2.2.2"] = ("10.9.9.9", 0)
        return atlas, rr_atlas

    def test_live_alias_is_a_hit(self):
        _, rr_atlas = self._tiny_rr()
        hit = rr_atlas.lookup("10.2.2.2")
        assert hit is not None and hit.vp == "10.9.9.9"
        assert (rr_atlas._obs_hits, rr_atlas._obs_stale) == (1, 0)

    def test_pruned_vp_counts_stale_not_hit(self):
        atlas, rr_atlas = self._tiny_rr()
        atlas.remove("10.9.9.9")
        assert rr_atlas.lookup("10.2.2.2") is None
        assert rr_atlas._obs_hits == 0
        assert rr_atlas._obs_misses == 0
        assert rr_atlas._obs_stale == 1
        counts = rr_atlas._obs_collect()
        assert counts[
            ("atlas_lookups_total", (("atlas", "rr"), ("outcome", "stale")))
        ] == 1.0

    def test_unknown_alias_still_a_miss(self):
        _, rr_atlas = self._tiny_rr()
        assert rr_atlas.lookup("10.3.3.3") is None
        assert (rr_atlas._obs_misses, rr_atlas._obs_stale) == (1, 0)


class TestRefreshPrunesUnresponsive:
    """Satellite: an unresponsive keep-VP is removed, not kept stale."""

    def test_unresponsive_keep_removed_and_slot_topped_up(
        self, serial_world
    ):
        scenario, source, _, _ = serial_world
        prober = scenario.background_prober
        atlas = TracerouteAtlas(source, max_size=3)
        # A vantage point that does not exist in the simulation: its
        # re-measurement drops every probe, i.e. fully unresponsive.
        ghost = "203.0.113.77"
        atlas.add(
            TracerouteResult(
                src=ghost,
                dst=source,
                hops=["203.0.113.1", source],
                reached=True,
                timestamp=prober.clock.now(),
            )
        )
        atlas.mark_useful(ghost)
        rng = scenario.bundle_rng(source)
        atlas.refresh(prober, scenario.atlas_vp_addrs, rng)
        assert ghost not in atlas.traceroutes
        assert atlas.lookup("203.0.113.1") is None
        assert atlas.last_refresh["pruned_unresponsive"] == 1
        assert atlas.last_refresh["remeasured"] == 1
        # The freed slot counts toward the top-up target.
        assert len(atlas) == 3
        assert atlas.last_refresh["replaced"] == 3


class TestIncrementalRefresh:
    def _built_atlas(self, scenario, source, staleness=1e9):
        atlas = TracerouteAtlas(
            source, max_size=8, staleness=staleness
        )
        atlas.build(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            size=8,
        )
        return atlas

    def test_generation_fresh_keeps_are_skipped(self, serial_world):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        before = atlas_key(atlas)
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            incremental=True,
        )
        assert atlas.last_refresh["remeasured"] == 0
        assert atlas.last_refresh["skipped"] == len(before)
        assert atlas_key(atlas) == before

    def test_routing_generation_bump_forces_remeasure(
        self, serial_world
    ):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source)
        kept = len(atlas)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        scenario.internet.invalidate_routing()
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            incremental=True,
        )
        assert atlas.last_refresh["skipped"] == 0
        assert atlas.last_refresh["remeasured"] == kept

    def test_staleness_budget_forces_remeasure(self, serial_world):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source, staleness=10.0)
        kept = len(atlas)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        scenario.clock.advance(11.0)
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
            incremental=True,
        )
        assert atlas.last_refresh["skipped"] == 0
        assert atlas.last_refresh["remeasured"] == kept

    def test_default_refresh_still_remeasures(self, serial_world):
        scenario, source, _, _ = serial_world
        atlas = self._built_atlas(scenario, source)
        kept = len(atlas)
        for vp in list(atlas.traceroutes):
            atlas.mark_useful(vp)
        atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(source),
        )
        assert atlas.last_refresh["skipped"] == 0
        assert atlas.last_refresh["remeasured"] == kept


class TestSnapshotRoundTrip:
    """Satellite: save -> load must be observably identical."""

    def test_lookup_and_suffix_identical(self, sharded_world, tmp_path):
        scenario, _, atlas, rr_atlas, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        loaded_atlas, loaded_rr = load_snapshot(path, scenario.internet)
        assert atlas_key(loaded_atlas) == atlas_key(atlas)
        assert loaded_rr._mapping == rr_atlas._mapping
        for hop in atlas.all_hops():
            original = atlas.lookup(hop)
            copy = loaded_atlas.lookup(hop)
            assert copy == original
            assert loaded_atlas.suffix(copy) == atlas.suffix(original)
        for alias in rr_atlas.known_aliases():
            assert loaded_rr.lookup(alias) == rr_atlas.lookup(alias)

    def test_engine_output_identical_after_warm_start(
        self, sharded_world, tmp_path
    ):
        sharded_sc, source, _, _, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        sharded_sc.save_atlases(source, path)
        warm = fresh_scenario()
        warm.load_atlases(source, path)
        # One scenario's deterministic draw serves both deployments
        # (each scenario's rng advances per draw, so drawing twice from
        # one of them would yield a different list).
        destinations = warm.responsive_destinations(N_MEASURE)
        assert measure_stream(
            sharded_sc, source, destinations
        ) == measure_stream(warm, source, destinations)

    def test_snapshot_bytes_are_deterministic(
        self, sharded_world, tmp_path
    ):
        scenario, _, atlas, rr_atlas, _ = sharded_world
        first = str(tmp_path / "a.snap")
        second = str(tmp_path / "b.snap")
        save_snapshot(first, atlas, rr_atlas, scenario.internet)
        save_snapshot(second, atlas, rr_atlas, scenario.internet)
        with open(first, "rb") as fh_a, open(second, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()

    def test_wrong_source_rejected_by_scenario(
        self, sharded_world, tmp_path
    ):
        scenario, source, atlas, rr_atlas, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        other = next(
            addr for addr in scenario.sources() if addr != source
        )
        with pytest.raises(SnapshotMismatch):
            fresh_scenario().load_atlases(other, path)


class TestSnapshotRejection:
    def _saved(self, sharded_world, tmp_path):
        scenario, _, atlas, rr_atlas, _ = sharded_world
        path = str(tmp_path / "atlas.snap")
        save_snapshot(path, atlas, rr_atlas, scenario.internet)
        return scenario, path

    def _tamper(self, path, **overrides):
        with gzip.open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
        doc.update(overrides)
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(doc).encode())

    def test_version_mismatch_rejected(self, sharded_world, tmp_path):
        scenario, path = self._saved(sharded_world, tmp_path)
        self._tamper(path, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotMismatch):
            load_snapshot(path, scenario.internet)

    def test_foreign_format_rejected(self, sharded_world, tmp_path):
        scenario, path = self._saved(sharded_world, tmp_path)
        self._tamper(path, format="some-other-format")
        with pytest.raises(SnapshotError):
            load_snapshot(path, scenario.internet)

    def test_topology_mismatch_rejected(self, sharded_world, tmp_path):
        _, path = self._saved(sharded_world, tmp_path)
        other = build_internet(TopologyConfig.small(seed=SEED + 1))
        with pytest.raises(SnapshotMismatch):
            load_snapshot(path, other)

    def test_corrupt_file_rejected(self, sharded_world, tmp_path):
        scenario, _, _, _, _ = sharded_world
        path = str(tmp_path / "corrupt.snap")
        with open(path, "wb") as fh:
            fh.write(b"not a gzip snapshot")
        with pytest.raises(SnapshotError):
            load_snapshot(path, scenario.internet)


class TestLoadOrBuild:
    def test_cold_then_warm(self, tmp_path):
        path = str(tmp_path / "atlas.snap")
        cold_sc = fresh_scenario()
        source = cold_sc.sources()[0]
        pipeline = cold_sc.atlas_pipeline(shards=4)
        atlas, rr_atlas, warm = pipeline.load_or_build(
            path,
            source,
            cold_sc.bundle_rng(source),
            size=ATLAS_SIZE,
            max_size=ATLAS_SIZE,
        )
        assert not warm and len(atlas) > 0
        warm_sc = fresh_scenario()
        warm_pipeline = warm_sc.atlas_pipeline(shards=4)
        atlas2, rr_atlas2, warm2 = warm_pipeline.load_or_build(
            path,
            source,
            warm_sc.bundle_rng(source),
            size=ATLAS_SIZE,
            max_size=ATLAS_SIZE,
        )
        assert warm2
        assert atlas_key(atlas2) == atlas_key(atlas)
        assert rr_atlas2._mapping == rr_atlas._mapping
        # The warm start sent zero probes.
        assert sum(warm_sc.background_counter.counts.values()) == 0


class TestPipelineObservability:
    def test_metrics_flow_through_registry(self, tmp_path):
        instr = Instrumentation()
        scenario = fresh_scenario(instrumentation=instr)
        source = scenario.sources()[0]
        pipeline = scenario.atlas_pipeline(shards=4)
        atlas, rr_atlas = pipeline.bootstrap(
            source,
            scenario.bundle_rng(source),
            size=ATLAS_SIZE,
            max_size=ATLAS_SIZE,
        )
        path = str(tmp_path / "atlas.snap")
        scenario.adopt_atlases(source, atlas, rr_atlas)
        scenario.save_atlases(source, path)
        scenario.load_atlases(source, path)
        snapshot = instr.registry.snapshot()

        built = {
            series["labels"]["stage"]
            for series in snapshot["atlas_build_seconds"]["series"]
        }
        assert built == {"traceroute", "rr"}
        shards = snapshot["atlas_pipeline_shards"]["series"]
        assert shards[0]["value"] == 4.0
        lanes = snapshot["atlas_shard_virtual_seconds"]["series"]
        assert {s["labels"]["shard"] for s in lanes} == {
            "0", "1", "2", "3",
        }
        deduped = snapshot["atlas_probes_deduped_total"]["series"]
        assert sum(s["value"] for s in deduped) > 0
        snaps = {
            (s["labels"]["op"], s["labels"]["outcome"]): s["value"]
            for s in snapshot["atlas_snapshots_total"]["series"]
        }
        assert snaps[("save", "ok")] == 1.0
        assert snaps[("load", "ok")] == 1.0


class TestAtlasCLI:
    def test_build_save_load_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "atlas.snap")
        code = main(
            [
                "--scale", "small", "--seed", str(SEED),
                "--atlas-size", "12",
                "atlas", "save", "--out", path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traceroute" in out and "rr" in out
        code = main(
            [
                "--scale", "small", "--seed", str(SEED),
                "atlas", "load", "--path", path, "--measure", "1",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceroutes"] > 0 and doc["rr_aliases"] > 0
        assert len(doc["measurements"]) == 1

    def test_load_rejects_other_topology(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "atlas.snap")
        assert (
            main(
                [
                    "--scale", "small", "--seed", str(SEED),
                    "--atlas-size", "8",
                    "atlas", "save", "--out", path,
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "--scale", "small", "--seed", str(SEED + 1),
                "atlas", "load", "--path", path,
            ]
        )
        assert code == 2
        assert "snapshot" in capsys.readouterr().err
