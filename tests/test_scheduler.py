"""Tests for the request scheduler: admission control, determinism,
overload behavior, and multi-user, multi-source accounting."""

import pytest

from repro.core.result import RevtrStatus
from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.service import (
    JobState,
    RejectReason,
    RevtrService,
    SchedulerConfig,
    SourceRegistry,
)
from repro.topology import TopologyConfig


def build_service(scenario, instrumentation=None, atlas_size=15):
    registry = SourceRegistry(
        scenario.internet,
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.spoofer_addrs,
        atlas_size=atlas_size,
        seed=13,
    )
    return RevtrService(
        prober=scenario.online_prober,
        registry=registry,
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        resolver=scenario.resolver,
        instrumentation=instrumentation,
    )


@pytest.fixture(scope="module")
def sched_service(small_scenario):
    """A service with live metrics and one registered source."""
    instr = Instrumentation(clock=small_scenario.clock)
    service = build_service(small_scenario, instrumentation=instr)
    owner = service.add_user("owner", max_per_day=100_000)
    source = small_scenario.sources()[5]
    service.add_source(owner.api_key, source)
    return service, source, instr


def unresponsive_destination(scenario):
    hosts = sorted(
        host.addr
        for host in scenario.internet.hosts.values()
        if not host.responds_to_ping and not host.is_vantage_point
    )
    assert hosts, "scenario has no unresponsive host"
    return hosts[0]


class TestAdmissionControl:
    def test_max_parallel_enforced(self, sched_service, small_scenario):
        service, source, instr = sched_service
        user = service.add_user(
            "capped", max_parallel=2, max_per_day=1000
        )
        dsts = small_scenario.responsive_destinations(
            10, options_only=True
        )
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=8, max_queue_per_user=16)
        )
        for dst in dsts:
            scheduler.submit(user.api_key, dst, source)
        # Step the first two admissions: both start at t0, so the
        # in-flight gauge must read exactly the cap mid-run.
        scheduler.step()
        scheduler.step()
        gauge = (
            instr.registry.gauge("service_inflight")
            .labels(user="capped")
            .value
        )
        assert gauge == 2.0
        report = scheduler.run()
        assert report.completed == 10
        # Despite 8 lanes, the user's cap kept in-flight at 2.
        assert report.peak_inflight["capped"] == 2

    def test_queue_full_is_typed_not_raised(
        self, sched_service, small_scenario
    ):
        service, source, instr = sched_service
        user = service.add_user(
            "bursty", max_parallel=4, max_per_day=1000
        )
        dsts = small_scenario.responsive_destinations(
            8, options_only=True
        )
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=2, max_queue_per_user=3)
        )
        jobs = [
            scheduler.submit(user.api_key, dst, source) for dst in dsts
        ]
        rejected = [
            j for j in jobs if j.state is JobState.REJECTED
        ]
        assert len(rejected) == 5
        assert all(
            j.reject_reason is RejectReason.QUEUE_FULL
            for j in rejected
        )
        report = scheduler.run()
        assert report.completed == 3
        assert report.rejected["queue-full"] == 5
        counter = (
            instr.registry.counter("service_rejections_total")
            .labels(reason="queue-full")
            .value
        )
        assert counter >= 5

    def test_deadline_rejects_late_starters(
        self, sched_service, small_scenario
    ):
        service, source, _ = sched_service
        user = service.add_user(
            "hurried", max_parallel=1, max_per_day=1000
        )
        dsts = small_scenario.responsive_destinations(
            4, options_only=True
        )
        scheduler = service.scheduler(
            SchedulerConfig(
                parallelism=4, max_queue_per_user=16, deadline=0.01
            )
        )
        jobs = [
            scheduler.submit(user.api_key, dst, source) for dst in dsts
        ]
        report = scheduler.run()
        # max_parallel=1 serialises the user; only the first job can
        # start within the deadline, the rest waited too long.
        assert jobs[0].state is JobState.DONE
        assert all(
            j.state is JobState.REJECTED
            and j.reject_reason is RejectReason.DEADLINE
            for j in jobs[1:]
        )
        assert report.rejected["deadline"] == 3

    def test_quota_exhaustion_is_typed(
        self, sched_service, small_scenario
    ):
        service, source, _ = sched_service
        user = service.add_user(
            "frugal", max_parallel=4, max_per_day=2
        )
        dsts = small_scenario.responsive_destinations(
            5, options_only=True
        )
        scheduler = service.scheduler(SchedulerConfig(parallelism=2))
        jobs = [
            scheduler.submit(user.api_key, dst, source) for dst in dsts
        ]
        report = scheduler.run()
        assert report.completed == 2
        assert report.rejected["quota"] == 3
        assert [j.state for j in jobs].count(JobState.DONE) == 2

    def test_retry_with_backoff_for_unresponsive(
        self, sched_service, small_scenario
    ):
        service, source, _ = sched_service
        user = service.add_user(
            "patient", max_parallel=2, max_per_day=1000
        )
        dst = unresponsive_destination(small_scenario)
        scheduler = service.scheduler(
            SchedulerConfig(
                parallelism=2, max_retries=2, retry_backoff=30.0
            )
        )
        job = scheduler.submit(user.api_key, dst, source)
        report = scheduler.run()
        assert job.state is JobState.DONE
        assert job.result.status is RevtrStatus.UNRESPONSIVE
        assert job.attempts == 2
        assert report.retries == 2
        # The final attempt started no earlier than the exponential
        # backoff schedule allows (30 then 60 seconds).
        assert job.started_at >= job.submitted_at + 30.0 + 60.0


class TestDeterminism:
    def _build(self):
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )
        service = build_service(scenario, atlas_size=10)
        alpha = service.add_user(
            "alpha", max_parallel=2, max_per_day=1000
        )
        beta = service.add_user(
            "beta", max_parallel=3, max_per_day=1000
        )
        source = scenario.sources()[0]
        service.add_source(alpha.api_key, source)
        dsts = scenario.responsive_destinations(6, options_only=True)
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=4, max_queue_per_user=16)
        )
        for dst in dsts:
            scheduler.submit(alpha.api_key, dst, source)
            scheduler.submit(beta.api_key, dst, source)
        return scheduler

    def _run_once(self):
        scheduler = self._build()
        scheduler.run()
        return [
            (
                job.user,
                job.dst,
                job.state.value,
                round(job.started_at, 9),
                round(job.finished_at, 9)
                if job.finished_at is not None
                else None,
            )
            for job in scheduler.jobs
        ]

    def test_round_robin_schedule_is_reproducible(self):
        assert self._run_once() == self._run_once()

    def test_round_robin_alternates_users(self):
        scheduler = self._build()
        # Admission order (observed via step) alternates alpha/beta —
        # round-robin, not drain-one-user-first.
        admitted = [scheduler.step().user for _ in range(4)]
        assert admitted == ["alpha", "beta", "alpha", "beta"]
        scheduler.run()


class TestMultiSourceStress:
    def test_stress_no_lost_records_or_corrupt_counters(
        self, small_scenario
    ):
        service = build_service(small_scenario)
        owner = service.add_user("t-owner", max_per_day=100_000)
        sources = small_scenario.sources()[6:8]
        service.add_source(owner.api_key, sources[0])
        service.add_source(owner.api_key, sources[1])
        users = [
            service.add_user(
                f"t-user{i}", max_parallel=2, max_per_day=10_000
            )
            for i in range(4)
        ]
        dsts = small_scenario.responsive_destinations(
            8, options_only=True
        )
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=6, max_queue_per_user=64)
        )
        expected = 0
        for user in users:
            for index, dst in enumerate(dsts):
                scheduler.submit(
                    user.api_key, dst, sources[index % 2]
                )
                expected += 1
        report = scheduler.run()
        # Graceful across six interleaved lanes: every job reached a
        # terminal state, nothing raised, nothing was lost.
        assert report.completed == expected
        assert not report.rejected
        assert len(service.store) == expected
        now = service.prober.clock.now()
        for user in users:
            done = len(service.store.by_user(user.name))
            assert done == len(dsts)
            # Quota accounting matches executions exactly (no lost or
            # double charges across lanes and sources).
            assert (
                user.max_per_day - user.remaining_today(now) == done
            )
            assert report.peak_inflight[user.name] <= 2


class TestDoomedRetry:
    """A retry whose backoff alone overshoots the deadline is rejected
    at requeue time (typed DEADLINE), not parked in the queue to be
    rejected after the whole backoff has been waited out."""

    def _config(self):
        return SchedulerConfig(
            parallelism=2,
            max_retries=2,
            retry_backoff=1000.0,
            deadline=60.0,
        )

    def _check(self, report, doomed, healthy):
        assert doomed.state is JobState.REJECTED
        assert doomed.reject_reason is RejectReason.DEADLINE
        assert report.rejected["deadline"] == 1
        # The retry was never enqueued: no retry counted, no second
        # attempt executed, no wait to the backoff horizon.
        assert report.retries == 0
        assert doomed.attempts == 1
        assert (
            doomed.finished_at - doomed.submitted_at
            < self._config().retry_backoff
        )
        # The last attempt's result survives on the rejected job.
        assert doomed.result is not None
        assert doomed.result.status is RevtrStatus.UNRESPONSIVE
        # Unrelated work is untouched.
        assert healthy.state is JobState.DONE

    def test_virtual_mode(self, sched_service, small_scenario):
        service, source, _ = sched_service
        user = service.add_user(
            "doomed-v", max_parallel=2, max_per_day=1000
        )
        dead = unresponsive_destination(small_scenario)
        alive = small_scenario.responsive_destinations(
            1, options_only=True
        )[0]
        scheduler = service.scheduler(self._config())
        doomed = scheduler.submit(user.api_key, dead, source)
        healthy = scheduler.submit(user.api_key, alive, source)
        report = scheduler.run()
        self._check(report, doomed, healthy)
