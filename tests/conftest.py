"""Shared fixtures: platforms, small programs, and helper factories."""

from __future__ import annotations

import os

import pytest

from repro.platform import (
    Device,
    DeviceKind,
    DeviceSpec,
    Link,
    Platform,
    shen_icpp15_platform,
)
from repro.runtime.graph import KernelInvocation, Program
from repro.runtime.kernels import AccessPattern, AccessSpec, Kernel, KernelCostModel
from repro.runtime.regions import AccessMode, ArraySpec


def _repro_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


@pytest.fixture(autouse=True)
def repro_env_unchanged():
    """Fail any test that leaves a ``REPRO_*`` variable changed.

    CI runs the whole suite under ``REPRO_NO_FAST_ENGINE=1`` too; a test
    that drops or rewrites the toggle would silently move every later
    test onto the other engine.
    """
    before = _repro_env()
    yield
    after = _repro_env()
    if after != before:
        pytest.fail(
            f"test changed the REPRO_* environment: {before} -> {after}"
        )


@pytest.fixture
def paper_platform() -> Platform:
    """The Table III platform (Xeon E5-2620 + Tesla K20m)."""
    return shen_icpp15_platform()


@pytest.fixture
def tiny_platform() -> Platform:
    """A small platform with round numbers for hand-checkable math.

    CPU: 4 cores, 100 GFLOPS, 40 GB/s.  GPU: 1000 GFLOPS, 200 GB/s.
    Link: 10 GB/s, zero latency.  No launch overheads.
    """
    cpu = DeviceSpec(
        name="tiny-cpu", kind=DeviceKind.CPU, cores=4, frequency_ghz=2.0,
        peak_gflops_sp=100.0, peak_gflops_dp=50.0, mem_bandwidth_gbs=40.0,
        mem_capacity_gb=16.0, launch_overhead_s=0.0,
    )
    gpu = DeviceSpec(
        name="tiny-gpu", kind=DeviceKind.GPU, cores=256, frequency_ghz=1.0,
        peak_gflops_sp=1000.0, peak_gflops_dp=500.0, mem_bandwidth_gbs=200.0,
        mem_capacity_gb=4.0, launch_overhead_s=0.0,
    )
    return Platform(
        host=Device("cpu", cpu),
        accelerators=[Device("gpu0", gpu)],
        links={"gpu0": Link(name="tiny-link", bandwidth_gbs=10.0, latency_s=0.0)},
    )


def make_kernel(
    name: str = "k",
    *,
    arrays: dict[str, ArraySpec] | None = None,
    reads: tuple[str, ...] = ("x",),
    writes: tuple[str, ...] = ("y",),
    full_reads: tuple[str, ...] = (),
    n: int = 1024,
    flops: float = 2.0,
    mem_bytes: float = 8.0,
    elems_per_index: int = 1,
) -> tuple[Kernel, dict[str, ArraySpec]]:
    """Build a simple kernel plus its array specs (uniform efficiencies)."""
    specs = dict(arrays or {})
    for arr in (*reads, *writes, *full_reads):
        specs.setdefault(arr, ArraySpec(arr, n * elems_per_index, 4))
    accesses = []
    for arr in reads:
        accesses.append(
            AccessSpec(specs[arr], AccessMode.IN,
                       AccessPattern.PARTITIONED, elems_per_index)
        )
    for arr in full_reads:
        accesses.append(AccessSpec(specs[arr], AccessMode.IN, AccessPattern.FULL))
    for arr in writes:
        accesses.append(
            AccessSpec(specs[arr], AccessMode.OUT,
                       AccessPattern.PARTITIONED, elems_per_index)
        )
    cost = KernelCostModel(
        flops_per_elem=flops,
        mem_bytes_per_elem=mem_bytes,
        compute_eff={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
        mem_eff={DeviceKind.CPU: 1.0, DeviceKind.GPU: 1.0},
    )
    return Kernel(name, cost, tuple(accesses)), specs


def single_kernel_program(
    n: int = 1024,
    *,
    iterations: int = 1,
    sync: bool = False,
    **kwargs,
) -> Program:
    """A program with one kernel invoked ``iterations`` times."""
    kernel, specs = make_kernel(n=n, **kwargs)
    invocations = [
        KernelInvocation(
            invocation_id=i, kernel=kernel, n=n, iteration=i, sync_after=sync
        )
        for i in range(iterations)
    ]
    return Program(invocations=invocations, arrays=specs)


def chain_program(n_kernels: int = 3, n: int = 1024, *, sync: bool = False) -> Program:
    """k0: a->x1, k1: x1->x2, ... — a pure dependency chain."""
    specs = {f"x{i}": ArraySpec(f"x{i}", n, 4) for i in range(n_kernels + 1)}
    invocations = []
    for i in range(n_kernels):
        kernel, _ = make_kernel(
            f"k{i}", arrays=specs, reads=(f"x{i}",), writes=(f"x{i + 1}",), n=n
        )
        invocations.append(
            KernelInvocation(
                invocation_id=i, kernel=kernel, n=n, sync_after=sync
            )
        )
    return Program(invocations=invocations, arrays=specs)
