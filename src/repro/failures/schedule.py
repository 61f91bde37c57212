"""Installing declarative fault schedules on a live cluster.

The bridge between :class:`repro.config.FaultScheduleConfig` (pure data on
the experiment spec) and the :class:`~repro.failures.injector.FailureInjector`
(imperative effects on a running cluster).  ``prepare_run`` calls
:func:`install_fault_schedule` right after the queue pumps start, before the
run, so every lane observes the same faults at the same simulated times
whichever order the kernel drains the lanes in.

Random schedules (:class:`repro.config.FaultProfile`) expand through
:func:`materialize` from the cluster's own RNG registry (named stream
``"faults.profile"``), so they are a deterministic function of the run seed
— two trials of one cell draw different schedules, the same trial always
draws the same one, and creating the stream perturbs no other draw.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import (
    CrashWindow,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
)
from repro.errors import FaultScheduleError
from repro.failures.injector import FailureInjector

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster import Cluster

#: RNG stream a :class:`~repro.config.FaultProfile` expands from.
PROFILE_STREAM = "faults.profile"


def materialize(
    schedule: FaultScheduleConfig, cluster: "Cluster",
) -> FaultScheduleConfig:
    """Expand the schedule's random profile into concrete windows.

    Returns a profile-free :class:`FaultScheduleConfig` whose fixed windows
    are the declared ones plus the profile's expansion: an alternating
    renewal process — exponential up-time with mean ``mttf_ms``, then a
    down-window exponential with mean ``mttr_ms`` — over ``[0,
    horizon_ms)``, one victim datacenter at a time (drawn uniformly,
    excluding the home datacenter when ``spare_home``).  A no-op for
    schedules without a profile.
    """
    profile = schedule.profile
    if profile is None:
        return schedule
    victims = list(cluster.topology.names)
    if profile.spare_home:
        victims = [dc for dc in victims if dc != cluster.home_dc]
    if not victims:
        raise FaultScheduleError(
            "fault profile has no eligible victim datacenters "
            "(spare_home=True on a single-datacenter deployment?)"
        )
    rng = cluster.env.rng.stream(PROFILE_STREAM)
    outages = list(schedule.outages)
    losses = list(schedule.loss_windows)
    crashes = list(schedule.crashes)
    now = rng.expovariate(1.0 / profile.mttf_ms)
    while now < profile.horizon_ms:
        duration = rng.expovariate(1.0 / profile.mttr_ms)
        duration = min(duration, profile.horizon_ms - now)
        victim = rng.choice(victims)
        if profile.kind == "outage":
            outages.append(OutageWindow(victim, now, duration))
        elif profile.kind == "crash":
            # A zero-length down window would make restart coincide with
            # the kill; the clamp keeps restart_after_ms strictly positive.
            crashes.append(CrashWindow(victim, now, max(duration, 1e-9)))
        else:
            losses.append(LossWindow(profile.loss_probability, now, duration))
        now += duration + rng.expovariate(1.0 / profile.mttf_ms)
    from dataclasses import replace

    return replace(
        schedule, outages=tuple(outages), loss_windows=tuple(losses),
        crashes=tuple(crashes), profile=None,
    )


def _validate(schedule: FaultScheduleConfig, cluster: "Cluster") -> None:
    """Typed errors for schedules this deployment cannot host."""
    datacenters = set(cluster.topology.names)
    for outage in schedule.outages:
        if outage.datacenter not in datacenters:
            raise FaultScheduleError(
                f"outage names unknown datacenter {outage.datacenter!r}; "
                f"this deployment has {sorted(datacenters)}"
            )
    for partition in schedule.partitions:
        for dc in (partition.datacenter_a, partition.datacenter_b):
            if dc not in datacenters:
                raise FaultScheduleError(
                    f"partition names unknown datacenter {dc!r}; this "
                    f"deployment has {sorted(datacenters)}"
                )
    for crash in schedule.crashes:
        if crash.datacenter not in datacenters:
            raise FaultScheduleError(
                f"crash names unknown datacenter {crash.datacenter!r}; "
                f"this deployment has {sorted(datacenters)}"
            )


def fault_span(schedule: FaultScheduleConfig) -> list[tuple[float, float]]:
    """The availability-relevant fault windows of a (materialized)
    schedule, as ``(start_ms, end_ms)`` pairs — what the availability
    report aligns its timeline against.  Crash windows count: a dead
    replica costs quorum latency and recovery time."""
    windows = [
        (w.start_ms, w.start_ms + w.duration_ms)
        for w in (*schedule.outages, *schedule.partitions, *schedule.loss_windows)
    ]
    windows.extend(
        (c.start_ms, c.start_ms + c.restart_after_ms)
        for c in schedule.crashes
    )
    return sorted(windows)


def install_fault_schedule(
    cluster: "Cluster", schedule: FaultScheduleConfig,
) -> list[str]:
    """Materialize and install *schedule*; returns a description log.

    Validates datacenter names against the live deployment (typed
    :class:`~repro.errors.FaultScheduleError`), schedules every window
    through a :class:`FailureInjector` (replicated per lane on a sharded
    deployment), and records the fault windows on ``cluster.fault_windows``
    so :func:`repro.harness.experiment.finish_run` can align the
    availability timeline with them.  A crash window takes down the
    datacenter's replicas with every live queue delivery pump homed there
    (:meth:`~repro.cluster.Cluster.crash_service`), so no pump needs a
    schedule entry of its own.
    """
    schedule = materialize(schedule, cluster)
    _validate(schedule, cluster)
    injector = FailureInjector(cluster)
    installed: list[str] = []
    for outage in schedule.outages:
        injector.outage(outage.datacenter, outage.start_ms, outage.duration_ms)
        installed.append(
            f"outage {outage.datacenter} "
            f"@{outage.start_ms:.0f}+{outage.duration_ms:.0f}"
        )
    for partition in schedule.partitions:
        injector.partition(
            partition.datacenter_a, partition.datacenter_b,
            partition.start_ms, partition.duration_ms,
        )
        installed.append(
            f"partition {partition.datacenter_a}|{partition.datacenter_b} "
            f"@{partition.start_ms:.0f}+{partition.duration_ms:.0f}"
        )
    for loss in schedule.loss_windows:
        injector.loss_episode(loss.probability, loss.start_ms, loss.duration_ms)
        installed.append(
            f"loss {loss.probability:.2f} "
            f"@{loss.start_ms:.0f}+{loss.duration_ms:.0f}"
        )
    for crash in schedule.crashes:
        injector.crash(crash.datacenter, crash.start_ms,
                       crash.restart_after_ms)
        installed.append(
            f"crash {crash.datacenter} "
            f"@{crash.start_ms:.0f}+{crash.restart_after_ms:.0f}"
        )
    cluster.fault_windows.extend(fault_span(schedule))
    cluster.fault_windows.sort()
    return installed
