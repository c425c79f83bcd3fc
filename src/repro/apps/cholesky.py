"""Blocked Cholesky factorization (MK-DAG extension).

The paper excludes MK-DAG applications from its static-vs-dynamic
comparison (static partitioning is not applicable to a dynamic DAG flow)
and refers to [20] for the DP-Dep vs DP-Perf comparison.  This application
supplies that missing workload: the right-looking blocked Cholesky
``A = L L^T`` over a ``T x T`` grid of ``b x b`` tiles, with the classic
four-kernel DAG:

* ``potrf(k)``  — factorize diagonal tile ``(k, k)``
* ``trsm(i, k)`` — triangular solve of tile ``(i, k)``, ``i > k``
* ``syrk(i, k)`` — symmetric update of diagonal tile ``(i, i)``
* ``gemm(i, j, k)`` — update of tile ``(i, j)``, ``i > j > k``

Each tile is its own array, each tile operation is one single-index kernel
invocation, and the task DAG emerges from the tile data dependences — so
the classifier sees incomparable invocations and labels the application
MK-DAG, and only the dynamic strategies apply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import Application
from repro.errors import ConfigurationError
from repro.platform.device import DeviceKind
from repro.runtime.graph import KernelInvocation, Program
from repro.runtime.kernels import AccessPattern, AccessSpec, Kernel, KernelCostModel
from repro.runtime.regions import AccessMode, ArraySpec
from repro.units import FLOAT32_BYTES

if TYPE_CHECKING:
    import numpy as np

CPU_COMPUTE_EFF = 0.10
GPU_COMPUTE_EFF = 0.15
CPU_MEM_EFF = 0.60
GPU_MEM_EFF = 0.60


def _tile(arrays: dict[str, np.ndarray], name: str, b: int) -> np.ndarray:
    return arrays[name].reshape(b, b)


def _potrf_impl(arrays, lo, hi, n, *, tile: str, b: int) -> None:
    import numpy as np
    a = _tile(arrays, tile, b).astype(np.float64)
    arrays[tile][:] = np.linalg.cholesky(a).astype(np.float32).ravel()


def _trsm_impl(arrays, lo, hi, n, *, diag: str, tile: str, b: int) -> None:
    import numpy as np
    l_kk = np.tril(_tile(arrays, diag, b).astype(np.float64))
    a_ik = _tile(arrays, tile, b).astype(np.float64)
    # A_ik <- A_ik * L_kk^{-T}
    arrays[tile][:] = np.linalg.solve(l_kk, a_ik.T).T.astype(np.float32).ravel()


def _syrk_impl(arrays, lo, hi, n, *, src: str, tile: str, b: int) -> None:
    import numpy as np
    l_ik = _tile(arrays, src, b).astype(np.float64)
    a_ii = _tile(arrays, tile, b).astype(np.float64)
    arrays[tile][:] = (a_ii - l_ik @ l_ik.T).astype(np.float32).ravel()


def _gemm_impl(arrays, lo, hi, n, *, src_i: str, src_j: str, tile: str, b: int) -> None:
    import numpy as np
    l_ik = _tile(arrays, src_i, b).astype(np.float64)
    l_jk = _tile(arrays, src_j, b).astype(np.float64)
    a_ij = _tile(arrays, tile, b).astype(np.float64)
    arrays[tile][:] = (a_ij - l_ik @ l_jk.T).astype(np.float32).ravel()


class Cholesky(Application):
    """Tiled Cholesky factorization; ``n`` is the number of tile rows."""

    name = "Cholesky"
    paper_class = "MK-DAG"
    needs_sync = False
    origin = "extension (cf. paper ref [20])"
    paper_n = 8       # tiles per dimension
    paper_iterations = 1

    def __init__(self, tile_size: int = 1024) -> None:
        """``tile_size`` is ``b``, the elements per tile edge."""
        if tile_size <= 0:
            raise ConfigurationError("tile_size must be positive")
        self.tile_size = tile_size

    def _specs(self, t: int, b: int) -> dict[str, ArraySpec]:
        return {
            f"tile_{i}_{j}": ArraySpec(f"tile_{i}_{j}", b * b, FLOAT32_BYTES)
            for i in range(t)
            for j in range(i + 1)
        }

    def _cost(self, flops: float, b: int) -> KernelCostModel:
        return KernelCostModel(
            flops_per_elem=flops,
            mem_bytes_per_elem=float(3 * b * b * FLOAT32_BYTES),
            compute_eff={
                DeviceKind.CPU: CPU_COMPUTE_EFF,
                DeviceKind.GPU: GPU_COMPUTE_EFF,
            },
            mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
        )

    def program(
        self,
        n: int | None = None,
        *,
        iterations: int | None = None,
        sync: bool | None = None,
    ) -> Program:
        t = self.default_n(n)
        if iterations not in (None, 1):
            raise ConfigurationError("Cholesky is a single factorization")
        b = self.tile_size
        specs = self._specs(t, b)
        invocations: list[KernelInvocation] = []
        next_id = 0

        def emit(kernel: Kernel) -> None:
            nonlocal next_id
            invocations.append(
                KernelInvocation(
                    invocation_id=next_id, kernel=kernel, n=1, sync_after=False
                )
            )
            next_id += 1

        def spec(i: int, j: int) -> ArraySpec:
            return specs[f"tile_{i}_{j}"]

        for k in range(t):
            emit(Kernel(
                "potrf",
                self._cost(b**3 / 3.0, b),
                (AccessSpec(spec(k, k), AccessMode.INOUT,
                            AccessPattern.PARTITIONED, b * b),),
                impl=_potrf_impl,
                params={"tile": f"tile_{k}_{k}", "b": b},
            ))
            for i in range(k + 1, t):
                emit(Kernel(
                    "trsm",
                    self._cost(float(b**3), b),
                    (
                        AccessSpec(spec(k, k), AccessMode.IN,
                                   AccessPattern.FULL),
                        AccessSpec(spec(i, k), AccessMode.INOUT,
                                   AccessPattern.PARTITIONED, b * b),
                    ),
                    impl=_trsm_impl,
                    params={"diag": f"tile_{k}_{k}", "tile": f"tile_{i}_{k}",
                            "b": b},
                ))
            for i in range(k + 1, t):
                emit(Kernel(
                    "syrk",
                    self._cost(float(b**3), b),
                    (
                        AccessSpec(spec(i, k), AccessMode.IN,
                                   AccessPattern.FULL),
                        AccessSpec(spec(i, i), AccessMode.INOUT,
                                   AccessPattern.PARTITIONED, b * b),
                    ),
                    impl=_syrk_impl,
                    params={"src": f"tile_{i}_{k}", "tile": f"tile_{i}_{i}",
                            "b": b},
                ))
                for j in range(k + 1, i):
                    emit(Kernel(
                        "gemm",
                        self._cost(2.0 * b**3, b),
                        (
                            AccessSpec(spec(i, k), AccessMode.IN,
                                       AccessPattern.FULL),
                            AccessSpec(spec(j, k), AccessMode.IN,
                                       AccessPattern.FULL),
                            AccessSpec(spec(i, j), AccessMode.INOUT,
                                       AccessPattern.PARTITIONED, b * b),
                        ),
                        impl=_gemm_impl,
                        params={"src_i": f"tile_{i}_{k}",
                                "src_j": f"tile_{j}_{k}",
                                "tile": f"tile_{i}_{j}", "b": b},
                    ))
        return Program(invocations=invocations, arrays=specs)

    def arrays(self, n: int, *, seed: int = 0) -> dict[str, np.ndarray]:
        """A random SPD matrix, stored tile by tile (lower triangle)."""
        import numpy as np
        t = n
        b = self.tile_size
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((t * b, t * b))
        spd = (m @ m.T + t * b * np.eye(t * b)).astype(np.float32)
        out: dict[str, np.ndarray] = {}
        for i in range(t):
            for j in range(i + 1):
                out[f"tile_{i}_{j}"] = np.ascontiguousarray(
                    spd[i * b:(i + 1) * b, j * b:(j + 1) * b]
                ).ravel()
        return out

    @staticmethod
    def assemble_lower(arrays: dict[str, np.ndarray], t: int, b: int) -> np.ndarray:
        """Reassemble the factor ``L`` from the tiles (upper zeroed)."""
        import numpy as np
        full = np.zeros((t * b, t * b), dtype=np.float64)
        for i in range(t):
            for j in range(i + 1):
                tile = arrays[f"tile_{i}_{j}"].reshape(b, b).astype(np.float64)
                if i == j:
                    tile = np.tril(tile)
                full[i * b:(i + 1) * b, j * b:(j + 1) * b] = tile
        return full
