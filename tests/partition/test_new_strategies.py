"""DP-Aff and HYB-Static: plan structure, determinism, backend parity."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.errors import PartitioningError, StrategyInapplicableError
from repro.partition import DPAff, HYBStatic, PlanConfig, run_plan
from repro.partition.base import strategies_for_class
from repro.partition.hyb_static import split_static_tail
from repro.platform.presets import dual_gpu_platform
from repro.runtime.graph import InstanceKind

from tests.conftest import chain_program, single_kernel_program


def _computes(plan):
    return [i for i in plan.graph.instances if i.kind is InstanceKind.COMPUTE]


def _covers_exactly(instances, n):
    ranges = sorted((i.lo, i.hi) for i in instances)
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    for (_, b), (c, _) in zip(ranges, ranges[1:]):
        assert b == c, f"gap or overlap at {b} vs {c}"


class TestDPAff:
    def test_all_instances_unpinned(self, tiny_platform):
        program = single_kernel_program(n=10_000, flops=50.0, mem_bytes=8.0)
        plan = DPAff().plan(program, tiny_platform, PlanConfig(task_count=8))
        computes = _computes(plan)
        assert len(computes) == 8
        assert all(not i.pinned_device and not i.pinned_resource
                   for i in computes)
        assert plan.scheduler.name == "affinity"
        assert plan.scheduler.dynamic
        _covers_exactly(computes, 10_000)

    def test_runs_deterministically(self, tiny_platform):
        program = chain_program(n=4_096)
        first = run_plan(DPAff().plan(program, tiny_platform), tiny_platform)
        second = run_plan(DPAff().plan(program, tiny_platform), tiny_platform)
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_applies_to_every_class(self):
        for label in ("SK-One", "SK-Loop", "MK-Seq", "MK-Loop", "MK-DAG"):
            assert "DP-Aff" in strategies_for_class(label)


class TestHYBStatic:
    def test_mixes_pinned_body_with_unpinned_tail(self, tiny_platform):
        program = single_kernel_program(n=10_000, flops=50.0, mem_bytes=0.0)
        plan = HYBStatic(tail_fraction=0.2).plan(
            program, tiny_platform, PlanConfig(cpu_threads=4)
        )
        computes = _computes(plan)
        gpu_body = [i for i in computes if i.pinned_device]
        cpu_body = [i for i in computes if i.pinned_resource]
        tail = [i for i in computes
                if not i.pinned_device and not i.pinned_resource]
        assert len(gpu_body) <= 1  # one fused GPU task (none if ONLY_CPU)
        assert tail, "no dynamic tail emitted"
        assert plan.scheduler.name == "perf-aware"
        _covers_exactly(computes, 10_000)
        # the tail straddles the split point: between the static bodies
        if gpu_body:
            assert min(i.lo for i in tail) >= gpu_body[0].hi
        if cpu_body:
            assert max(i.hi for i in tail) <= min(i.lo for i in cpu_body)

    def test_tail_fraction_bounds_the_dynamic_share(self, tiny_platform):
        program = single_kernel_program(n=100_000, flops=50.0, mem_bytes=0.0)
        plan = HYBStatic(tail_fraction=0.2).plan(program, tiny_platform)
        computes = _computes(plan)
        tail = sum(i.hi - i.lo for i in computes
                   if not i.pinned_device and not i.pinned_resource)
        # ~20% held back, plus warp rounding moved from the GPU body
        assert 0.1 <= tail / 100_000 <= 0.35

    def test_invalid_tail_fraction_rejected(self):
        with pytest.raises(PartitioningError):
            HYBStatic(tail_fraction=0.0)
        with pytest.raises(PartitioningError):
            HYBStatic(tail_fraction=1.0)

    def test_not_registered_for_dag(self):
        assert "HYB-Static" not in strategies_for_class("MK-DAG")

    def test_multi_accelerator_inapplicable(self):
        program = single_kernel_program(n=4_096, flops=50.0, mem_bytes=8.0)
        with pytest.raises(StrategyInapplicableError):
            HYBStatic().plan(program, dual_gpu_platform())

    def test_runs_deterministically(self, tiny_platform):
        program = chain_program(n=4_096)
        first = run_plan(HYBStatic().plan(program, tiny_platform), tiny_platform)
        second = run_plan(HYBStatic().plan(program, tiny_platform), tiny_platform)
        assert pickle.dumps(first) == pickle.dumps(second)


class TestSplitStaticTail:
    def test_straddles_the_predicted_split(self):
        gpu_pin, cpu_lo = split_static_tail(
            1000, 600, tail_fraction=0.2, warp_size=32
        )
        assert 0 <= gpu_pin <= 600 <= cpu_lo <= 1000
        assert gpu_pin % 32 == 0

    def test_degenerate_shares(self):
        assert split_static_tail(1000, 0, tail_fraction=0.2, warp_size=32) == (
            0, 200,
        )
        gpu_pin, cpu_lo = split_static_tail(
            1000, 1000, tail_fraction=0.2, warp_size=32
        )
        assert cpu_lo == 1000 and gpu_pin < 1000

    def test_rejects_out_of_range(self):
        with pytest.raises(PartitioningError):
            split_static_tail(100, 200, tail_fraction=0.2, warp_size=32)
        with pytest.raises(PartitioningError):
            split_static_tail(100, 50, tail_fraction=1.5, warp_size=32)


#: cells exercised by the backend-parity matrix below
_PARITY_SCRIPT = r"""
import hashlib, pickle, sys
from repro.bench.harness import SweepCell, run_sweep
from repro.platform.presets import shen_icpp15_platform

plat = shen_icpp15_platform()
cells = [
    SweepCell(app="Nbody", strategy="DP-Aff", platform=plat, n=8192,
              iterations=3),
    SweepCell(app="STREAM-Seq", strategy="HYB-Static", platform=plat, n=65536),
]
mode = sys.argv[1]
proc = None
if mode == "workers":
    import os, subprocess, tempfile, time
    tmp = tempfile.mkdtemp()
    ready = os.path.join(tmp, "w.ready")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker",
         "--listen", "127.0.0.1:0", "--ready-file", ready],
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    endpoint = ""
    while time.monotonic() < deadline and not endpoint:
        if os.path.exists(ready):
            endpoint = open(ready).read().strip()
        time.sleep(0.05)
    assert endpoint, "worker never became ready"
    kwargs = {"workers": [endpoint]}
else:
    kwargs = {"jobs": 2} if mode == "jobs" else {}
try:
    for artifact in run_sweep(cells, **kwargs):
        print(hashlib.sha256(pickle.dumps(artifact)).hexdigest())
finally:
    if proc is not None:
        proc.terminate()
"""


def _parity_run(mode: str, extra_env: dict | None = None) -> str:
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PARITY_SCRIPT, mode],
        capture_output=True, text=True, env=env, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBackendParity:
    """New strategies must pickle byte-identically on every backend."""

    def test_serial_jobs_and_oracle_agree(self):
        serial = _parity_run("serial")
        assert serial.strip(), "no artifacts hashed"
        assert _parity_run("jobs") == serial
        assert _parity_run(
            "serial", {"REPRO_NO_FAST_ENGINE": "1"}
        ) == serial

    def test_socket_workers_agree(self):
        assert _parity_run("workers") == _parity_run("serial")
