"""MatrixMul: dense matrix-matrix multiplication (SK-One, Nvidia OpenCL SDK).

``C = A x B`` with square ``N x N`` single-precision matrices; the paper
evaluates ``N = 6144`` (the three matrices total ~0.4 GB).  Partitioning is
row-wise: "each task instance receives multiple consecutive rows of A and
the full B, and performs the computation for corresponding rows of C"
(paper §IV-B1) — so the kernel index space is the row index, A and C are
PARTITIONED accesses with ``N`` elements per index, and B is a FULL access.

Calibration: the paper's CPU task is the sequential triple loop (ICC -O3,
no blocking/SIMD — a few % of peak) and the GPU task is the SDK's naive
OpenCL kernel (~8% of K20 peak).  These efficiencies land Only-CPU ~20 s
and Only-GPU ~1.7 s at N = 6144 with a ~90/10 optimal split, matching
Figs. 5a/6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import Application
from repro.platform.device import DeviceKind
from repro.runtime.graph import Program
from repro.runtime.kernels import AccessPattern, AccessSpec, Kernel, KernelCostModel
from repro.runtime.regions import AccessMode, ArraySpec
from repro.units import FLOAT32_BYTES

if TYPE_CHECKING:
    import numpy as np

#: fraction of peak FLOPS the sequential CPU code sustains
CPU_COMPUTE_EFF = 0.060
#: fraction of peak FLOPS the naive OpenCL kernel sustains
GPU_COMPUTE_EFF = 0.080
CPU_MEM_EFF = 0.60
GPU_MEM_EFF = 0.60


def _matmul_impl(arrays: dict[str, np.ndarray], lo: int, hi: int, n: int, *, cols: int) -> None:
    """Compute rows ``[lo, hi)`` of ``C = A @ B`` (flattened row-major)."""
    a = arrays["A"].reshape(n, cols)
    b = arrays["B"].reshape(cols, cols)
    c = arrays["C"].reshape(n, cols)
    c[lo:hi, :] = a[lo:hi, :] @ b


class MatrixMul(Application):
    """Row-partitioned dense GEMM."""

    name = "MatrixMul"
    paper_class = "SK-One"
    needs_sync = False
    origin = "Nvidia OpenCL SDK"
    paper_n = 6144  # rows (matrices are paper_n x paper_n)
    paper_iterations = 1

    def _kernel(self, n: int) -> tuple[Kernel, dict[str, ArraySpec]]:
        elems = n * n
        a = ArraySpec("A", elems, FLOAT32_BYTES)
        b = ArraySpec("B", elems, FLOAT32_BYTES)
        c = ArraySpec("C", elems, FLOAT32_BYTES)
        cost = KernelCostModel(
            flops_per_elem=2.0 * n * n,  # 2N^2 FLOPs per row of C
            # per-row device-memory traffic: the A row, the C row, and B
            # streamed once per row block (cache reuse folded into eff)
            mem_bytes_per_elem=3.0 * n * FLOAT32_BYTES,
            compute_eff={
                DeviceKind.CPU: CPU_COMPUTE_EFF,
                DeviceKind.GPU: GPU_COMPUTE_EFF,
            },
            mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
        )
        kernel = Kernel(
            name="matrixMul",
            cost=cost,
            accesses=(
                AccessSpec(a, AccessMode.IN, AccessPattern.PARTITIONED, n),
                AccessSpec(b, AccessMode.IN, AccessPattern.FULL),
                AccessSpec(c, AccessMode.OUT, AccessPattern.PARTITIONED, n),
            ),
            impl=_matmul_impl,
            params={"cols": n},
        )
        return kernel, {"A": a, "B": b, "C": c}

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
        kernel, arrays = self._kernel(n)
        return self._loop_program(
            lambda it: [(kernel, n)], arrays, iterations=iterations, sync=sync
        )

    def arrays(self, n: int, *, seed: int = 0) -> dict[str, np.ndarray]:
        import numpy as np
        rng = np.random.default_rng(seed)
        return {
            "A": rng.standard_normal(n * n).astype(np.float32),
            "B": rng.standard_normal(n * n).astype(np.float32),
            "C": np.zeros(n * n, dtype=np.float32),
        }

    @staticmethod
    def reference(arrays: dict[str, np.ndarray], n: int) -> np.ndarray:
        """Sequential NumPy reference for the full product."""
        return (arrays["A"].reshape(n, n) @ arrays["B"].reshape(n, n)).ravel()
