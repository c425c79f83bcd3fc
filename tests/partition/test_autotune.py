"""Task-size auto-tuning (paper §V)."""

from dataclasses import replace

import pytest

from repro.errors import PartitioningError
from repro.partition import (
    DPGuided,
    DPPerf,
    PlanConfig,
    SPSingle,
    autotune_task_count,
)
from repro.partition.autotune import AutotuneResult

from tests.conftest import single_kernel_program


class TestAutotune:
    def test_sweeps_requested_multipliers(self, tiny_platform):
        program = single_kernel_program(n=100_000, flops=50.0, mem_bytes=0.0)
        result = autotune_task_count(
            DPPerf(), program, tiny_platform, multipliers=(1, 2, 4)
        )
        assert set(result.sweep) == {4, 8, 16}  # 4 threads x multipliers

    def test_best_is_minimum(self, tiny_platform):
        program = single_kernel_program(n=100_000, flops=50.0, mem_bytes=0.0)
        result = autotune_task_count(
            DPPerf(), program, tiny_platform, multipliers=(1, 2, 4, 8)
        )
        assert result.best_makespan_s == min(result.sweep.values())
        assert result.sweep[result.best_task_count] == result.best_makespan_s

    def test_speedup_over_worst(self, tiny_platform):
        program = single_kernel_program(n=100_000, flops=50.0, mem_bytes=0.0)
        result = autotune_task_count(
            DPPerf(), program, tiny_platform, multipliers=(1, 8)
        )
        assert result.speedup_over_worst >= 1.0

    def test_task_size_matters(self, tiny_platform):
        # with per-decision overhead, more chunks must cost more once the
        # workload is fully GPU-resident
        program = single_kernel_program(n=1_000_000, flops=500.0, mem_bytes=0.0)
        result = autotune_task_count(
            DPPerf(), program, tiny_platform, multipliers=(1, 16)
        )
        assert result.sweep[4] != result.sweep[64]

    def test_sweep_keeps_every_other_config_field(self, tiny_platform):
        seen = []

        class RecordingDPPerf(DPPerf):
            def run(self, program, platform, *, config=None, **kwargs):
                seen.append(config)
                return super().run(program, platform, config=config,
                                   **kwargs)

        program = single_kernel_program(n=100_000, flops=50.0, mem_bytes=0.0)
        base = PlanConfig(cpu_threads=4, warp_size=64, gpu_fraction=0.3,
                          gpu_only_threshold=0.9, cpu_only_threshold=0.1)
        autotune_task_count(RecordingDPPerf(), program, tiny_platform,
                            config=base, multipliers=(1, 2))
        assert seen == [replace(base, task_count=4),
                        replace(base, task_count=8)]

    def test_rejects_static_strategy(self, tiny_platform):
        program = single_kernel_program(n=1000)
        with pytest.raises(PartitioningError):
            autotune_task_count(SPSingle(), program, tiny_platform)

    def test_rejects_strategy_that_ignores_task_count(self, tiny_platform):
        # DP-Guided chunks by thread count: every sweep point would repeat
        # one plan
        program = single_kernel_program(n=100_000, flops=50.0, mem_bytes=0.0)
        with pytest.raises(PartitioningError, match="task count"):
            autotune_task_count(DPGuided(), program, tiny_platform)

    def test_rejects_empty_multipliers(self, tiny_platform):
        program = single_kernel_program(n=1000)
        with pytest.raises(PartitioningError):
            autotune_task_count(DPPerf(), program, tiny_platform,
                                multipliers=())

    def test_rejects_nonpositive_multiplier(self, tiny_platform):
        program = single_kernel_program(n=1000)
        with pytest.raises(PartitioningError):
            autotune_task_count(DPPerf(), program, tiny_platform,
                                multipliers=(0,))

    def test_result_type(self, tiny_platform):
        program = single_kernel_program(n=10_000)
        result = autotune_task_count(DPPerf(), program, tiny_platform,
                                     multipliers=(1,))
        assert isinstance(result, AutotuneResult)
