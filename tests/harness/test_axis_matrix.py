"""Every axis combination either runs or is refused by the one table.

The product protocol × isolation × traffic mix × open/closed loop × shards
× faults on a 4-group deployment.  Each cell must do exactly one of two
things: raise :class:`~repro.errors.InvalidExperimentSpec` while the spec
is *built*, with the reason of a :data:`repro.config.COMBINATION_RULES`
row, or run through :func:`run_once` without an exception — invariants
checked whenever outcomes are retained.  A refusal from ``prepare_run`` or
a driver constructor, or any other exception, fails the cell.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import (
    COMBINATION_RULES,
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    OutageWindow,
    PlacementConfig,
    WorkloadConfig,
)
from repro.errors import InvalidExperimentSpec
from repro.harness.experiment import ExperimentSpec, run_once

N_GROUPS = 4
REASONS = {rule.reason for rule in COMBINATION_RULES}
MIXES = {
    "single-group": {},
    "2pc": {"cross_group_fraction": 0.3},
    "queue": {"queue_fraction": 0.3},
}
FAULTS = {
    "no-fault": FaultScheduleConfig(),
    "crash": FaultScheduleConfig(crashes=(CrashWindow("V3", 60.0, 150.0),)),
    "outage": FaultScheduleConfig(outages=(OutageWindow("V3", 60.0, 150.0),)),
}
CELLS = list(itertools.product(
    ("paxos", "paxos-cp", "leased-leader"),
    ("1sr", "si"),
    MIXES,
    ("closed", "open"),
    (1, 2),
    FAULTS,
))


def build_spec(protocol, isolation, mix, loop, shards, fault) -> ExperimentSpec:
    open_loop = loop == "open"
    workload = WorkloadConfig(
        n_transactions=16, ops_per_transaction=3, n_attributes=8,
        n_rows=N_GROUPS, n_threads=4, target_rate_per_thread=20.0,
        stagger_ms=5.0,
        open_loop=open_loop, n_users=1000, offered_load=40.0, pool_size=2,
        open_duration_ms=400.0,
        **MIXES[mix],
    )
    return ExperimentSpec(
        name=f"matrix/{protocol}/{isolation}/{mix}/{loop}/{shards}/{fault}",
        cluster=ClusterConfig(
            "VVV",
            placement=PlacementConfig.ranged(N_GROUPS),
            shards=shards,
            isolation=isolation,
            faults=FAULTS[fault],
        ),
        workload=workload,
        protocol=protocol,
        retain_outcomes=not open_loop,
        check_invariants=not open_loop,
    )


@pytest.mark.parametrize(
    "protocol,isolation,mix,loop,shards,fault", CELLS,
    ids=["-".join(map(str, cell)) for cell in CELLS],
)
def test_cell_runs_or_is_refused_by_the_table(
    protocol, isolation, mix, loop, shards, fault,
):
    try:
        spec = build_spec(protocol, isolation, mix, loop, shards, fault)
    except InvalidExperimentSpec as refusal:
        assert str(refusal) in REASONS
        return
    result = run_once(spec, seed=0)
    assert result.metrics.n_transactions > 0
