"""OmpSs-like task runtime (simulated).

This package reproduces the programming/execution model the paper relies on:

* kernels annotated with data accesses (:mod:`repro.runtime.kernels`),
* expansion of kernel invocations into *task instances* — the unit of
  scheduling (:mod:`repro.runtime.graph`),
* region-based dependence analysis building a task dependency graph
  (:mod:`repro.runtime.dependence`),
* a multi-memory-space coherence model that generates host<->device
  transfers and implements ``taskwait`` flush semantics
  (:mod:`repro.runtime.memory`),
* pluggable schedulers — breadth-first with dependence-chain affinity
  (DP-Dep) and performance-aware earliest-finish (DP-Perf)
  (:mod:`repro.runtime.schedulers`),
* the executor that replays everything on the discrete-event simulator
  (:mod:`repro.runtime.executor`),
* a functional executor that runs the NumPy kernel bodies chunk-by-chunk to
  verify that partitioned execution is numerically equivalent to sequential
  execution (:mod:`repro.runtime.functional`).
"""

from repro.runtime.regions import AccessMode, ArraySpec, IntervalSet, Region
from repro.runtime.kernels import AccessPattern, AccessSpec, Kernel, KernelCostModel
from repro.runtime.graph import (
    InstanceKind,
    KernelInvocation,
    Program,
    TaskGraph,
    TaskInstance,
)
from repro.runtime.dependence import build_dependences
from repro.runtime.memory import MemoryManager, TransferOp
from repro.runtime.executor import RuntimeConfig, RuntimeEngine

__all__ = [
    "AccessMode",
    "ArraySpec",
    "IntervalSet",
    "Region",
    "AccessPattern",
    "AccessSpec",
    "Kernel",
    "KernelCostModel",
    "InstanceKind",
    "KernelInvocation",
    "Program",
    "TaskGraph",
    "TaskInstance",
    "build_dependences",
    "MemoryManager",
    "TransferOp",
    "RuntimeConfig",
    "RuntimeEngine",
]
