"""Command-line interface: ``python -m repro``.

Three subcommands:

``figure``
    Regenerate one of the paper's figures (or ``all``) and print the
    paper-vs-measured table.

``run``
    Run a single experiment cell — cluster code, protocol, and workload
    knobs — and print its metrics.  Handy for exploring parameters the
    paper did not sweep.

``check``
    Run a workload under the given conditions and report whether the §3
    invariants and the MVSG serializability oracle hold (exit status 1 if
    not) — a self-contained correctness torture, useful under fault
    injection flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import get_args

from repro.config import (
    ClusterConfig,
    CrashWindow,
    EngineName,
    FaultProfile,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
    PlacementConfig,
    ProtocolConfig,
    PumpCrash,
    PartitionWindow,
    StoreConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentSpec, run_cell
from repro.harness.figures import ALL_FIGURES
from repro.harness.report import format_cells, format_comparison, format_per_instance


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every subcommand: parallelism and profiling."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the trial/cell grid "
                             "(0 = one per CPU; default: $REPRO_JOBS or 1). "
                             "Results are bit-identical to a serial run")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the run in cProfile and print the top-20 "
                             "cumulative functions (this process only; use "
                             "with --jobs 1 for kernel numbers)")


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    _add_execution_arguments(parser)
    parser.add_argument("--cluster", default="VVV",
                        help="datacenter letters, e.g. VVV, COV, VVVOC (default VVV)")
    parser.add_argument("--protocol", default="paxos-cp",
                        choices=["paxos", "paxos-cp", "leased-leader"])
    parser.add_argument("--isolation", default="1sr",
                        choices=["1sr", "si"],
                        help="commit-time validation level: 1sr (full "
                             "serializability, the paper's default: "
                             "read-write conflicts instead of write-write, "
                             "the rule arXiv:2405.18393 shows serializable), "
                             "si (snapshot isolation: first-committer-wins on "
                             "write sets only — admits write skew, which the "
                             "checker classifies instead of failing)")
    parser.add_argument("--transactions", type=int, default=500)
    parser.add_argument("--attributes", type=int, default=100)
    parser.add_argument("--ops", type=int, default=10)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--rate", type=float, default=1.0,
                        help="target transactions/second per thread")
    parser.add_argument("--read-fraction", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="message loss probability")
    parser.add_argument("--duplicate", type=float, default=0.0,
                        help="message duplication probability")
    parser.add_argument("--per-dc", action="store_true",
                        help="one workload instance per datacenter (Figure 8 style)")
    parser.add_argument("--groups", type=int, default=1,
                        help="number of entity groups, each with its own "
                             "replicated log (default 1, the paper's setup)")
    parser.add_argument("--rows", type=int, default=None,
                        help="total rows across all groups (default: 1, or "
                             "one per group when --groups > 1)")
    parser.add_argument("--group-distribution", default="uniform",
                        choices=["uniform", "zipfian", "pinned"],
                        help="how multi-group transactions pick their group "
                             "(pinned: each client thread owns one group "
                             "round-robin — the shape --engine sharded "
                             "drains lane by lane)")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the deployment into N event-lane "
                             "shards (each owns a block of entity groups; "
                             "needs --groups >= N).  Default 1: the classic "
                             "unsharded deployment")
    parser.add_argument("--engine", default="global",
                        choices=get_args(EngineName),
                        help="how the shard lanes drain: global (one heap, "
                             "the reference) or sharded (one lane after "
                             "another whenever no traffic can cross lanes, "
                             "else the same heap).  Identical metrics at "
                             "the same --shards; parallelism is --jobs")
    parser.add_argument("--cross-group-fraction", type=float, default=0.0,
                        help="fraction of transactions spanning several "
                             "groups, committed via 2PC (needs --groups > 1)")
    parser.add_argument("--cross-group-span", type=int, default=2,
                        help="groups each cross-group transaction touches")
    parser.add_argument("--queue-fraction", type=float, default=0.0,
                        help="fraction of transactions whose remote-group "
                             "writes become asynchronous queue sends on the "
                             "single-group fast path (needs --groups > 1)")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="disable the per-position leader optimization")
    parser.add_argument("--max-promotions", type=int, default=None,
                        help="cap Paxos-CP promotions (default: unlimited)")
    parser.add_argument("--open-loop", action="store_true",
                        help="open-loop traffic: logical users arrive on "
                             "their own schedule over a bounded client pool "
                             "(replaces --transactions/--threads/--rate)")
    parser.add_argument("--users", type=int, default=1_000_000,
                        help="logical-user population (sampled, not "
                             "instantiated; default 1M)")
    parser.add_argument("--offered-load", type=float, default=64.0,
                        help="open-loop arrivals/second across the pool")
    parser.add_argument("--pool", type=int, default=16,
                        help="simulated client nodes serving the arrivals")
    parser.add_argument("--max-pending", type=int, default=4,
                        help="per-client admission bound; arrivals beyond "
                             "it are dropped (default 4)")
    parser.add_argument("--duration-ms", type=float, default=10_000.0,
                        help="open-loop admission horizon in sim ms")
    parser.add_argument("--retry-attempts", type=int, default=3,
                        help="client-side retries after a failed service "
                             "sweep (default 3)")
    parser.add_argument("--retry-backoff-cap-ms", type=float, default=40.0,
                        help="cap on the exponential retry backoff; the "
                             "default equals the base, i.e. the historic "
                             "flat 0-40 ms jitter")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-transaction deadline budget; retries stop "
                             "and the transaction aborts as TIMEOUT once "
                             "exceeded (default: no deadline)")
    parser.add_argument("--outage", action="append", default=[],
                        metavar="DC:START:DUR",
                        help="take a datacenter down for a window of "
                             "simulated ms (repeatable)")
    parser.add_argument("--partition", action="append", default=[],
                        metavar="DCA:DCB:START:DUR",
                        help="sever one inter-datacenter link for a window "
                             "(repeatable)")
    parser.add_argument("--loss-episode", action="append", default=[],
                        metavar="P:START:DUR",
                        help="raise the message-loss probability to P for a "
                             "window (repeatable)")
    parser.add_argument("--crash", action="append", default=[],
                        metavar="DC:START:DOWN",
                        help="crash a datacenter's service replicas at START "
                             "ms — in-flight work dies, volatile state is "
                             "erased — and restart them DOWN ms later to "
                             "recover from durable state (repeatable)")
    parser.add_argument("--pump-crash", action="append", default=[],
                        metavar="GROUP:KILL[:RESTART[:POLL]]",
                        help="kill a group's queue delivery pump at KILL ms, "
                             "optionally restarting it at RESTART ms with "
                             "poll interval POLL (repeatable; needs "
                             "--queue-fraction > 0)")
    parser.add_argument("--fault-profile", default=None,
                        metavar="MTTF:MTTR:HORIZON",
                        help="seed-derived random outage schedule: "
                             "exponential failures with mean MTTF ms, mean "
                             "repair MTTR ms, over HORIZON ms (spares the "
                             "home datacenter)")


def _parse_faults(args: argparse.Namespace) -> FaultScheduleConfig:
    """Build the declarative fault schedule from the repeatable flags.

    A malformed value is a usage error (SystemExit) here; an out-of-range
    one is the config dataclasses' ``ValueError``, which
    :func:`_spec_from_args` reports the same way.  *Semantic* errors
    (unknown datacenter) surface later as
    :class:`~repro.errors.FaultScheduleError` once the deployment exists.
    """
    def fields(flag: str, value: str, minimum: int, maximum: int) -> list[str]:
        parts = value.split(":")
        if not minimum <= len(parts) <= maximum:
            expected = (str(minimum) if minimum == maximum
                        else f"{minimum}-{maximum}")
            raise SystemExit(
                f"error: {flag} expects {expected} colon-separated fields, "
                f"got {value!r}"
            )
        return parts

    def number(flag: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise SystemExit(
                f"error: {flag}: {raw!r} is not a number"
            ) from None

    outages = tuple(
        OutageWindow(dc, number("--outage", start), number("--outage", dur))
        for dc, start, dur in (
            fields("--outage", value, 3, 3) for value in args.outage
        )
    )
    partitions = tuple(
        PartitionWindow(
            dc_a, dc_b,
            number("--partition", start), number("--partition", dur),
        )
        for dc_a, dc_b, start, dur in (
            fields("--partition", value, 4, 4) for value in args.partition
        )
    )
    losses = tuple(
        LossWindow(
            number("--loss-episode", p),
            number("--loss-episode", start),
            number("--loss-episode", dur),
        )
        for p, start, dur in (
            fields("--loss-episode", value, 3, 3)
            for value in args.loss_episode
        )
    )
    node_crashes = tuple(
        CrashWindow(
            dc, number("--crash", start), number("--crash", down),
        )
        for dc, start, down in (
            fields("--crash", value, 3, 3) for value in args.crash
        )
    )
    crashes = []
    for value in args.pump_crash:
        parts = fields("--pump-crash", value, 2, 4)
        crashes.append(PumpCrash(
            group=parts[0],
            kill_ms=number("--pump-crash", parts[1]),
            restart_ms=(number("--pump-crash", parts[2])
                        if len(parts) > 2 else None),
            restart_poll_ms=(number("--pump-crash", parts[3])
                             if len(parts) > 3 else None),
        ))
    profile = None
    if args.fault_profile is not None:
        mttf, mttr, horizon = fields(
            "--fault-profile", args.fault_profile, 3, 3
        )
        profile = FaultProfile(
            mttf_ms=number("--fault-profile", mttf),
            mttr_ms=number("--fault-profile", mttr),
            horizon_ms=number("--fault-profile", horizon),
        )
    return FaultScheduleConfig(
        outages=outages, partitions=partitions, loss_windows=losses,
        crashes=node_crashes, pump_crashes=tuple(crashes), profile=profile,
    )


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment spec the flags describe.

    Which flags may be combined is decided by the compatibility table
    (:data:`repro.config.COMBINATION_RULES`) when the spec is built, and
    value ranges by the config dataclasses; either refusal exits with its
    reason.
    """
    try:
        faults = _parse_faults(args)
        n_groups = args.groups
        n_rows = args.rows if args.rows is not None else max(1, n_groups)
        name = f"{args.cluster}/{args.protocol}"
        if args.isolation != "1sr":
            name += f"/{args.isolation}"
        if n_groups > 1:
            name += f"/{n_groups}g"
        if args.open_loop:
            name += "/open-poisson"
        name += faults.cell_suffix()
        return ExperimentSpec(
            name=name,
            cluster=ClusterConfig(
                cluster_code=args.cluster,
                loss_probability=args.loss,
                duplicate_probability=args.duplicate,
                store=StoreConfig(),
                protocol=ProtocolConfig(
                    leader_fastpath=not args.no_fastpath,
                    max_promotions=args.max_promotions,
                    retry_attempts=args.retry_attempts,
                    retry_backoff_cap_ms=args.retry_backoff_cap_ms,
                    deadline_ms=args.deadline_ms,
                ),
                # Range assignment over the numbered row space gives every
                # group at least one row (or refuses --rows < --groups).
                placement=PlacementConfig.ranged(n_groups, key_universe=n_rows),
                shards=args.shards,
                engine=args.engine,
                isolation=args.isolation,
                faults=faults,
            ),
            workload=WorkloadConfig(
                n_transactions=args.transactions,
                ops_per_transaction=args.ops,
                n_attributes=args.attributes,
                n_rows=n_rows,
                n_threads=args.threads,
                target_rate_per_thread=args.rate,
                read_fraction=args.read_fraction,
                group_distribution=args.group_distribution,
                cross_group_fraction=args.cross_group_fraction,
                cross_group_span=args.cross_group_span,
                queue_fraction=args.queue_fraction,
                open_loop=args.open_loop,
                n_users=args.users,
                offered_load=args.offered_load,
                pool_size=args.pool,
                max_pending=args.max_pending,
                open_duration_ms=args.duration_ms,
            ),
            protocol=args.protocol,
            per_datacenter_instances=args.per_dc,
        )
    except ValueError as error:  # InvalidExperimentSpec is one too
        raise SystemExit(f"error: {error}") from None


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness.parallel import run_cells

    names = list(ALL_FIGURES) if args.name == "all" else [args.name]
    for name in names:
        grid = ALL_FIGURES[name]().scaled(args.transactions)
        results = run_cells(grid.cells, trials=args.trials,
                            base_seed=args.seed, jobs=args.jobs)
        print(format_comparison(grid.paper_shape, results, grid.figure))
        print()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    result = run_cell(spec, trials=args.trials, base_seed=args.seed,
                      jobs=args.jobs)
    print(format_cells([result]))
    if result.metrics.open_loop is not None:
        from repro.harness.report import format_open_loop

        print()
        print(format_open_loop([result], title="open loop"))
    if result.metrics.availability is not None:
        from repro.harness.report import format_availability

        print()
        print(format_availability([result], title="availability"))
    if args.profile and result.lane_profile is not None:
        from repro.harness.profiling import format_lane_profile

        print()
        print(format_lane_profile(result.lane_profile))
    if len(result.per_instance) > 1:
        print()
        print(format_per_instance(result, title="per datacenter"))
    reasons = result.metrics.aborts_by_reason
    if reasons:
        print("\nabort reasons:", ", ".join(
            f"{reason}={count}" for reason, count in sorted(reasons.items())
        ))
    if result.metrics.anomalies:
        print("anomalies:", ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(result.metrics.anomalies.items())
        ))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.wal.invariants import InvariantViolation

    spec = _spec_from_args(args)
    try:
        result = run_cell(spec, trials=args.trials, base_seed=args.seed,
                          jobs=args.jobs)
    except InvariantViolation as violation:
        print("INVARIANT VIOLATION:")
        print(violation)
        return 1
    print(format_cells([result]))
    if spec.cluster.isolation == "si":
        counts = result.metrics.anomalies
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(counts.items())
        ) or "none"
        print("\ninvariants (R1), (L1)-(L2), snapshot reads, "
              "first-committer-wins: OK")
        print(f"classified anomalies (expected under si): {summary}")
    else:
        print("\ninvariants (R1), (L1)-(L3), read-only consistency, "
              "MVSG 1SR: OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Serializability, not Serial' (VLDB 2012)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure = subparsers.add_parser(
        "figure", help="regenerate a paper figure (paper-vs-measured table)"
    )
    figure.add_argument("name", choices=list(ALL_FIGURES) + ["all"])
    figure.add_argument("--transactions", type=int, default=120,
                        help="transactions per cell (paper scale: 500)")
    figure.add_argument("--trials", type=int, default=1)
    figure.add_argument("--seed", type=int, default=0)
    _add_execution_arguments(figure)
    figure.set_defaults(func=cmd_figure)

    run = subparsers.add_parser("run", help="run one experiment cell")
    _add_workload_arguments(run)
    run.set_defaults(func=cmd_run)

    check = subparsers.add_parser(
        "check", help="run a workload and verify serializability invariants"
    )
    _add_workload_arguments(check)
    check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.harness.parallel import default_jobs

    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) is None:
        args.jobs = default_jobs()
    if getattr(args, "profile", False):
        from repro.harness.profiling import run_profiled

        return run_profiled(lambda: args.func(args))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
