"""YCSB-style transactional workload (§6) and the open-loop traffic engine.

The paper evaluates with "an extended version of the [YCSB] framework that
supports transactions" [12]: transactions of N operations, 50% reads / 50%
writes, operating on attributes of a single-row entity group chosen
uniformly at random, driven by a fixed number of concurrent client threads
with staggered starts and a per-thread target rate.

* :mod:`repro.workload.ycsb` — operation/transaction generation with
  uniform and zipfian attribute distributions, unique write values (so the
  serializability checkers can attribute every observed read to its
  writer).
* :mod:`repro.workload.driver` — closed-loop rate-capped client threads,
  single- and per-datacenter instances, outcome collection.
* :mod:`repro.workload.openloop` — open-loop Poisson arrivals, a sampled
  logical-user population with a zipfian hot spot, and a pooled-client
  driver with admission control.
"""

from repro.workload.driver import InstanceResult, WorkloadDriver, execute_plan
from repro.workload.openloop import (
    ArrivalProcess,
    LogicalUserModel,
    OpenLoopDriver,
    PoissonArrivals,
)
from repro.workload.ycsb import Operation, YcsbWorkload, ZipfianGenerator

__all__ = [
    "ArrivalProcess",
    "InstanceResult",
    "LogicalUserModel",
    "OpenLoopDriver",
    "Operation",
    "PoissonArrivals",
    "WorkloadDriver",
    "YcsbWorkload",
    "ZipfianGenerator",
    "execute_plan",
]
