"""Nbody: particle simulation (SK-Loop, Mont-Blanc benchmark suite).

A single kernel advances the bodies one time step per loop iteration; "the
computation output of one iteration is the input of the next iteration",
with a global synchronization after each iteration combining the outputs at
the host (paper §IV-B2).  The paper simulates 1,048,576 bodies (~64 MB of
state: position+mass and velocity, double-buffered float4s).

Double buffering: even iterations read ``pos_a``/``vel_a`` and write
``pos_b``/``vel_b``, odd iterations the reverse.  Both directions use the
same kernel *name* so the application remains single-kernel (SK-Loop);
every chunk reads ALL positions (a FULL access) and writes its own bodies.

Cost-model note: a literal all-pairs O(n^2) step over 1 M bodies is orders
of magnitude beyond the paper's reported times on a K20, so — like the
Mont-Blanc implementation, which blocks the interaction loop — the model
charges a fixed interaction budget per body per iteration
(:data:`INTERACTIONS_PER_BODY`).  The NumPy body used for functional tests
is exact all-pairs (tests run at small ``n``).
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

#: interaction budget per body per iteration (blocked/cut-off loop)
INTERACTIONS_PER_BODY = 4096
#: flops per interaction (distances, rsqrt, accumulate)
FLOPS_PER_INTERACTION = 20.0
#: softening factor of the force computation
SOFTENING = 1e-3
#: integration time step
DT = 0.01

CPU_COMPUTE_EFF = 0.205  # sequential scalar inner loop with sqrt/div
GPU_COMPUTE_EFF = 0.55   # the classic GPU-friendly kernel
CPU_MEM_EFF = 0.60
GPU_MEM_EFF = 0.60


def _nbody_impl(
    arrays: dict[str, np.ndarray], lo: int, hi: int, n: int,
    *, src: str, dst: str, dt: float, softening: float,
) -> None:
    """All-pairs gravity step for bodies ``[lo, hi)`` (float64 internally)."""
    import numpy as np
    pos = arrays[f"pos_{src}"].reshape(n, 4).astype(np.float64)
    vel = arrays[f"vel_{src}"].reshape(n, 4).astype(np.float64)
    xyz = pos[:, :3]
    mass = pos[:, 3]
    chunk = xyz[lo:hi]
    # pairwise displacement: (hi-lo, n, 3)
    d = xyz[None, :, :] - chunk[:, None, :]
    dist2 = np.sum(d * d, axis=2) + softening
    inv_d3 = dist2 ** -1.5
    acc = np.einsum("ijk,ij,j->ik", d, inv_d3, mass)
    new_vel = vel[lo:hi].copy()
    new_vel[:, :3] += dt * acc
    new_pos = pos[lo:hi].copy()
    new_pos[:, :3] += dt * new_vel[:, :3]
    arrays[f"pos_{dst}"].reshape(n, 4)[lo:hi] = new_pos.astype(np.float32)
    arrays[f"vel_{dst}"].reshape(n, 4)[lo:hi] = new_vel.astype(np.float32)


class Nbody(Application):
    """Iterated particle simulation with per-iteration host sync."""

    name = "Nbody"
    paper_class = "SK-Loop"
    needs_sync = True  # per-iteration output combination at the host
    origin = "Mont-Blanc benchmark suite"
    paper_n = 1_048_576
    paper_iterations = 4

    def _kernels(self, n: int) -> tuple[dict[str, Kernel], dict[str, ArraySpec]]:
        specs = {
            name: ArraySpec(name, 4 * n, FLOAT32_BYTES)
            for name in ("pos_a", "vel_a", "pos_b", "vel_b")
        }
        cost = KernelCostModel(
            flops_per_elem=FLOPS_PER_INTERACTION * INTERACTIONS_PER_BODY,
            # per body: stream the interaction tiles + write own state
            mem_bytes_per_elem=float(INTERACTIONS_PER_BODY * FLOAT32_BYTES // 8
                                     + 8 * FLOAT32_BYTES),
            compute_eff={
                DeviceKind.CPU: CPU_COMPUTE_EFF,
                DeviceKind.GPU: GPU_COMPUTE_EFF,
            },
            mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
        )

        def step(src: str, dst: str) -> Kernel:
            return Kernel(
                name="nbodyStep",
                cost=cost,
                accesses=(
                    AccessSpec(specs[f"pos_{src}"], AccessMode.IN,
                               AccessPattern.FULL),
                    AccessSpec(specs[f"vel_{src}"], AccessMode.IN,
                               AccessPattern.PARTITIONED, 4),
                    AccessSpec(specs[f"pos_{dst}"], AccessMode.OUT,
                               AccessPattern.PARTITIONED, 4),
                    AccessSpec(specs[f"vel_{dst}"], AccessMode.OUT,
                               AccessPattern.PARTITIONED, 4),
                ),
                impl=_nbody_impl,
                params={"src": src, "dst": dst, "dt": DT, "softening": SOFTENING},
            )

        return {"even": step("a", "b"), "odd": step("b", "a")}, specs

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
        pos = rng.uniform(-1.0, 1.0, (n, 4)).astype(np.float32)
        pos[:, 3] = rng.uniform(0.5, 2.0, n).astype(np.float32)  # masses
        vel = np.zeros((n, 4), dtype=np.float32)
        return {
            "pos_a": pos.ravel().copy(),
            "vel_a": vel.ravel().copy(),
            "pos_b": np.zeros(4 * n, dtype=np.float32),
            "vel_b": np.zeros(4 * n, dtype=np.float32),
        }

    @staticmethod
    def momentum(arrays: dict[str, np.ndarray], n: int, buffer: str = "a") -> np.ndarray:
        """Total momentum vector (conserved by symmetric forces)."""
        import numpy as np
        pos = arrays[f"pos_{buffer}"].reshape(n, 4).astype(np.float64)
        vel = arrays[f"vel_{buffer}"].reshape(n, 4).astype(np.float64)
        return (pos[:, 3:4] * vel[:, :3]).sum(axis=0)
