"""FDTD: 1-D finite-difference time-domain electromagnetics (MK-Loop).

A second genuine MK-Loop workload (beyond STREAM-Loop): every time step
updates the electric field from the magnetic field's spatial derivative and
then the magnetic field from the updated electric field — two *different*
kernels alternating in a loop, chained by halo-read dependences rather than
host synchronization.  This is the structure the paper's Class IV targets
with SP-Unified: no taskwait is needed, data stays resident on each device,
and only the halo columns at the partition boundary cross the link each
step.

The Yee update (1-D, normalized units, Mur-style fixed boundaries):

    E[i] += c * (H[i] - H[i-1])
    H[i] += c * (E[i+1] - E[i])
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

#: Courant number of the normalized update
COURANT = 0.5

CPU_COMPUTE_EFF = 0.15
GPU_COMPUTE_EFF = 0.30
CPU_MEM_EFF = 0.60
GPU_MEM_EFF = 0.70


def _update_e_impl(arrays, lo, hi, n, *, c):
    e = arrays["ez"]
    h = arrays["hy"]
    lo_i = max(lo, 1)  # fixed left boundary
    e[lo_i:hi] = e[lo_i:hi] + c * (h[lo_i:hi] - h[lo_i - 1:hi - 1])


def _update_h_impl(arrays, lo, hi, n, *, c):
    e = arrays["ez"]
    h = arrays["hy"]
    hi_i = min(hi, n - 1)  # fixed right boundary
    h[lo:hi_i] = h[lo:hi_i] + c * (e[lo + 1:hi_i + 1] - e[lo:hi_i])


class FDTD(Application):
    """Alternating E/H field updates over a 1-D grid."""

    name = "FDTD"
    paper_class = "MK-Loop"
    needs_sync = False  # halo dependences order the kernels, not taskwaits
    origin = "extension (Yee scheme, cf. Parboil/SHOC stencils)"
    paper_n = 33_554_432  # grid points (~256 MB of field state)
    paper_iterations = 10

    def _kernels(self, n: int) -> tuple[list[Kernel], dict[str, ArraySpec]]:
        specs = {
            "ez": ArraySpec("ez", n, FLOAT32_BYTES),
            "hy": ArraySpec("hy", n, FLOAT32_BYTES),
        }
        cost = KernelCostModel(
            flops_per_elem=3.0,
            mem_bytes_per_elem=3.0 * FLOAT32_BYTES,
            compute_eff={
                DeviceKind.CPU: CPU_COMPUTE_EFF,
                DeviceKind.GPU: GPU_COMPUTE_EFF,
            },
            mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
        )
        update_e = Kernel(
            "updateE",
            cost,
            (
                AccessSpec(specs["hy"], AccessMode.IN, halo=1),
                AccessSpec(specs["ez"], AccessMode.INOUT),
            ),
            impl=_update_e_impl,
            params={"c": COURANT},
        )
        update_h = Kernel(
            "updateH",
            cost,
            (
                AccessSpec(specs["ez"], AccessMode.IN, halo=1),
                AccessSpec(specs["hy"], AccessMode.INOUT),
            ),
            impl=_update_h_impl,
            params={"c": COURANT},
        )
        return [update_e, update_h], specs

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
        """A Gaussian pulse in the middle of an otherwise quiet grid."""
        import numpy as np
        x = np.arange(n, dtype=np.float64)
        centre, width = n / 2.0, max(n / 50.0, 2.0)
        ez = np.exp(-(((x - centre) / width) ** 2)).astype(np.float32)
        return {"ez": ez, "hy": np.zeros(n, dtype=np.float32)}

    @staticmethod
    def field_energy(arrays: dict[str, np.ndarray]) -> float:
        """Total field energy ~ sum(E^2 + H^2) (bounded under the update)."""
        import numpy as np
        e = arrays["ez"].astype(np.float64)
        h = arrays["hy"].astype(np.float64)
        return float(np.sum(e * e) + np.sum(h * h))
