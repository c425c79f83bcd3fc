"""STREAM: the memory-bandwidth benchmark (MK-Seq / MK-Loop).

Four kernels over 1-D arrays ``a``, ``b``, ``c`` of 62,914,560 float32
elements (~0.7 GB total):

=========  ==================
``copy``   ``c = a``
``scale``  ``b = k * c``
``add``    ``c = a + b``
``triad``  ``a = b + k * c``
=========  ==================

**STREAM-Seq** executes the four kernels once (MK-Seq); **STREAM-Loop**
iterates them (MK-Loop, the original form).  Both are evaluated with and
without inter-kernel synchronization; synchronization "is originally not
needed, but we manually add it to mimic applications that need
synchronization" (paper §IV-B3) — pass ``sync=True`` for the ``-w``
variants.

The kernels perform no arithmetic to speak of; everything is bandwidth,
which is why on the paper's platform the PCIe link dominates the GPU side
("the data transfer takes around 88% of the overall execution time" for
Only-GPU) and the CPU receives the larger share of the unified split.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import Application
from repro.platform.device import DeviceKind
from repro.runtime.graph import Program
from repro.runtime.kernels import AccessSpec, Kernel, KernelCostModel
from repro.runtime.regions import AccessMode, ArraySpec
from repro.units import FLOAT32_BYTES

if TYPE_CHECKING:
    import numpy as np

#: the scalar of scale/triad
SCALAR = 3.0

CPU_MEM_EFF = 0.44  # OmpSs task-based STREAM, m threads, no NT stores
GPU_MEM_EFF = 0.70
CPU_COMPUTE_EFF = 0.10
GPU_COMPUTE_EFF = 0.10


def _copy_impl(arrays, lo, hi, n):
    arrays["c"][lo:hi] = arrays["a"][lo:hi]


def _scale_impl(arrays, lo, hi, n, *, scalar):
    arrays["b"][lo:hi] = scalar * arrays["c"][lo:hi]


def _add_impl(arrays, lo, hi, n):
    arrays["c"][lo:hi] = arrays["a"][lo:hi] + arrays["b"][lo:hi]


def _triad_impl(arrays, lo, hi, n, *, scalar):
    arrays["a"][lo:hi] = arrays["b"][lo:hi] + scalar * arrays["c"][lo:hi]


class _StreamBase(Application):
    """Shared machinery of STREAM-Seq and STREAM-Loop."""

    origin = "The STREAM benchmark"
    paper_n = 62_914_560
    needs_sync = False  # sync is optional, added to mimic syncing apps

    def _kernels(self, n: int) -> tuple[list[Kernel], dict[str, ArraySpec]]:
        specs = {
            name: ArraySpec(name, n, FLOAT32_BYTES) for name in ("a", "b", "c")
        }

        def cost(arrays_touched: int, flops: float) -> KernelCostModel:
            return KernelCostModel(
                flops_per_elem=flops,
                mem_bytes_per_elem=float(arrays_touched * FLOAT32_BYTES),
                compute_eff={
                    DeviceKind.CPU: CPU_COMPUTE_EFF,
                    DeviceKind.GPU: GPU_COMPUTE_EFF,
                },
                mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
            )

        kernels = [
            Kernel(
                "copy",
                cost(2, 0.0),
                (
                    AccessSpec(specs["a"], AccessMode.IN),
                    AccessSpec(specs["c"], AccessMode.OUT),
                ),
                impl=_copy_impl,
            ),
            Kernel(
                "scale",
                cost(2, 1.0),
                (
                    AccessSpec(specs["c"], AccessMode.IN),
                    AccessSpec(specs["b"], AccessMode.OUT),
                ),
                impl=_scale_impl,
                params={"scalar": SCALAR},
            ),
            Kernel(
                "add",
                cost(3, 1.0),
                (
                    AccessSpec(specs["a"], AccessMode.IN),
                    AccessSpec(specs["b"], AccessMode.IN),
                    AccessSpec(specs["c"], AccessMode.OUT),
                ),
                impl=_add_impl,
            ),
            Kernel(
                "triad",
                cost(3, 2.0),
                (
                    AccessSpec(specs["b"], AccessMode.IN),
                    AccessSpec(specs["c"], AccessMode.IN),
                    AccessSpec(specs["a"], AccessMode.OUT),
                ),
                impl=_triad_impl,
                params={"scalar": SCALAR},
            ),
        ]
        return kernels, specs

    def program(
        self,
        n: int | None = None,
        *,
        iterations: int | None = None,
        sync: bool | None = None,
    ) -> Program:
        n = self.default_n(n)
        iterations = self.default_iterations(iterations)
        sync = self.needs_sync if sync is None else sync
        kernels, arrays = self._kernels(n)
        return self._loop_program(
            lambda it: [(k, n) for k in kernels],
            arrays,
            iterations=iterations,
            sync=sync,
        )

    def arrays(self, n: int, *, seed: int = 0) -> dict[str, np.ndarray]:
        import numpy as np
        rng = np.random.default_rng(seed)
        return {
            "a": rng.standard_normal(n).astype(np.float32),
            "b": np.zeros(n, dtype=np.float32),
            "c": np.zeros(n, dtype=np.float32),
        }

    @staticmethod
    def reference_pass(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One sequential STREAM pass over copies of the inputs."""
        import numpy as np
        a = arrays["a"].copy()
        b = arrays["b"].copy()
        c = arrays["c"].copy()
        c = a.copy()
        b = (SCALAR * c).astype(np.float32)
        c = a + b
        a = (b + SCALAR * c).astype(np.float32)
        return {"a": a, "b": b, "c": c}


class StreamSeq(_StreamBase):
    """STREAM with a single pass over the four kernels (MK-Seq)."""

    name = "STREAM-Seq"
    paper_class = "MK-Seq"
    paper_iterations = 1


class StreamLoop(_StreamBase):
    """The original iterated STREAM (MK-Loop)."""

    name = "STREAM-Loop"
    paper_class = "MK-Loop"
    paper_iterations = 10
