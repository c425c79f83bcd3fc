"""HotSpot: thermal simulation on a 2-D grid (SK-Loop, Rodinia).

Each iteration updates every cell's temperature from its four neighbours,
the power dissipated in the cell, and the ambient coupling; the output grid
of one iteration is the input of the next, with a global synchronization in
between (paper §IV-B2).  The paper uses an 8192x8192 grid (~0.75 GB for the
two temperature buffers plus the power grid) partitioned row-wise.

The kernel is strongly memory-bound (a handful of flops per 16-24 bytes of
traffic), so on the paper's platform the *PCIe transfers* dominate the GPU
side and "HotSpot has better performance on the CPU" — the crossover this
application exists to exercise.
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

#: stencil flops per cell (4 neighbour diffs, power term, ambient term)
FLOPS_PER_CELL = 15.0
#: device-memory traffic per cell (src row + 2 halo rows amortized + dst + power)
BYTES_PER_CELL = 4 * FLOAT32_BYTES

#: physical update coefficients (Rodinia-flavoured, stability-safe)
COEFF_NEIGHBOUR = 0.1
COEFF_POWER = 0.05
COEFF_AMBIENT = 0.02
AMBIENT_TEMP = 80.0

CPU_COMPUTE_EFF = 0.20
GPU_COMPUTE_EFF = 0.30
CPU_MEM_EFF = 0.60
GPU_MEM_EFF = 0.60


def _hotspot_impl(
    arrays: dict[str, np.ndarray], lo: int, hi: int, n: int,
    *, cols: int, src: str, dst: str,
) -> None:
    """Stencil update of rows ``[lo, hi)`` (edge-clamped neighbours)."""
    import numpy as np
    t = arrays[src].reshape(n, cols).astype(np.float64)
    p = arrays["power"].reshape(n, cols).astype(np.float64)
    up = t[np.maximum(np.arange(lo, hi) - 1, 0), :]
    down = t[np.minimum(np.arange(lo, hi) + 1, n - 1), :]
    left = np.empty((hi - lo, cols)); left[:, 1:] = t[lo:hi, :-1]; left[:, 0] = t[lo:hi, 0]
    right = np.empty((hi - lo, cols)); right[:, :-1] = t[lo:hi, 1:]; right[:, -1] = t[lo:hi, -1]
    centre = t[lo:hi, :]
    new = (
        centre
        + COEFF_NEIGHBOUR * (up + down + left + right - 4.0 * centre)
        + COEFF_POWER * p[lo:hi, :]
        + COEFF_AMBIENT * (AMBIENT_TEMP - centre)
    )
    arrays[dst].reshape(n, cols)[lo:hi, :] = new.astype(np.float32)


class HotSpot(Application):
    """Row-partitioned iterative 5-point stencil with per-iteration sync."""

    name = "HotSpot"
    paper_class = "SK-Loop"
    needs_sync = True
    origin = "Rodinia benchmark suite"
    paper_n = 8192  # rows (grid is paper_n x paper_n)
    paper_iterations = 4

    def _kernels(self, n: int) -> tuple[dict[str, Kernel], dict[str, ArraySpec]]:
        elems = n * n
        specs = {
            "temp_a": ArraySpec("temp_a", elems, FLOAT32_BYTES),
            "temp_b": ArraySpec("temp_b", elems, FLOAT32_BYTES),
            "power": ArraySpec("power", elems, FLOAT32_BYTES),
        }
        cost = KernelCostModel(
            flops_per_elem=FLOPS_PER_CELL * n,  # per row
            mem_bytes_per_elem=float(BYTES_PER_CELL * n),
            compute_eff={
                DeviceKind.CPU: CPU_COMPUTE_EFF,
                DeviceKind.GPU: GPU_COMPUTE_EFF,
            },
            mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
        )

        def step(src: str, dst: str) -> Kernel:
            return Kernel(
                name="hotspotStep",
                cost=cost,
                accesses=(
                    AccessSpec(specs[src], AccessMode.IN,
                               AccessPattern.PARTITIONED, n),
                    AccessSpec(specs["power"], AccessMode.IN,
                               AccessPattern.PARTITIONED, n),
                    AccessSpec(specs[dst], AccessMode.OUT,
                               AccessPattern.PARTITIONED, n),
                ),
                impl=_hotspot_impl,
                params={"cols": n, "src": src, "dst": dst},
            )

        return {"even": step("temp_a", "temp_b"),
                "odd": step("temp_b", "temp_a")}, specs

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

        def per_iteration(it: int):
            return [(kernels["even" if it % 2 == 0 else "odd"], n)]

        return self._loop_program(
            per_iteration, arrays, iterations=iterations, sync=sync
        )

    def arrays(self, n: int, *, seed: int = 0) -> dict[str, np.ndarray]:
        import numpy as np
        rng = np.random.default_rng(seed)
        return {
            "temp_a": rng.uniform(70.0, 90.0, n * n).astype(np.float32),
            "temp_b": np.zeros(n * n, dtype=np.float32),
            "power": rng.uniform(0.0, 1.0, n * n).astype(np.float32),
        }
