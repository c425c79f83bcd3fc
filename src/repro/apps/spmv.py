"""SpMV: CSR sparse matrix-vector multiply (imbalanced SK-One extension).

The paper's Glinda lineage (ref [9], ICS'14) targets *imbalanced*
workloads, where per-index work varies with the data — there an acoustic
ray tracer; here the canonical imbalanced kernel, ``y = A x`` over a CSR
matrix whose row lengths follow a heavy-tailed distribution.  The kernel
carries a work-prefix (row-pointer) array, so:

* SP-Single switches to the boundary-search splitter
  (:mod:`repro.partition.imbalanced`) and divides the CPU share into
  equal-*work* thread ranges;
* the CSR value/column arrays are PREFIX accesses — a chunk's transfer
  volume is its nonzero count, not its row count.

Row lengths are generated deterministically from the problem size, so the
same ``n`` always yields the same matrix structure.
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

#: mean nonzeros per row of the generated matrices
MEAN_NNZ_PER_ROW = 16
#: Pareto tail exponent of the row-length distribution (heavy tail)
TAIL_ALPHA = 1.6

CPU_COMPUTE_EFF = 0.08   # scalar gather-heavy inner loop
GPU_COMPUTE_EFF = 0.12   # CSR-vector style kernel
CPU_MEM_EFF = 0.35       # irregular access pattern
GPU_MEM_EFF = 0.45


def row_lengths(n: int) -> np.ndarray:
    """Deterministic heavy-tailed row lengths for an ``n``-row matrix.

    Rows are ordered by decreasing degree — the layout degree-based
    reorderings produce — so the work is *spatially* skewed: the first
    rows are orders of magnitude heavier than the last.  This is the
    regime where index-balanced partitioning fails and ref [9]'s
    work-balanced partitioning matters.
    """
    import numpy as np
    rng = np.random.default_rng(0xC5A + n)
    raw = rng.pareto(TAIL_ALPHA, n) + 1.0
    lengths = np.minimum(
        np.round(raw * MEAN_NNZ_PER_ROW / np.mean(raw)).astype(np.int64),
        n,
    )
    return -np.sort(-np.maximum(lengths, 1))


class SpMV(Application):
    """Row-partitioned CSR sparse matrix-vector product."""

    name = "SpMV"
    paper_class = "SK-One"
    needs_sync = False
    origin = "extension (imbalanced workloads, cf. paper ref [9])"
    paper_n = 2_097_152  # rows (~33.6 M nonzeros)
    paper_iterations = 1

    def _structure(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
        lengths = row_lengths(n)
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_ptr[1:])
        return lengths, row_ptr

    def _kernel(self, n: int) -> tuple[Kernel, dict[str, ArraySpec]]:
        import numpy as np
        _, row_ptr = self._structure(n)
        nnz = int(row_ptr[-1])
        specs = {
            "vals": ArraySpec("vals", nnz, FLOAT32_BYTES),
            "cols": ArraySpec("cols", nnz, FLOAT32_BYTES),  # int32 indices
            "row_ptr": ArraySpec("row_ptr", n + 1, FLOAT32_BYTES),
            "x": ArraySpec("x", n, FLOAT32_BYTES),
            "y": ArraySpec("y", n, FLOAT32_BYTES),
        }
        cost = KernelCostModel(
            flops_per_elem=2.0,                     # per nonzero (work unit)
            mem_bytes_per_elem=3.0 * FLOAT32_BYTES,  # val + col + gathered x
            compute_eff={
                DeviceKind.CPU: CPU_COMPUTE_EFF,
                DeviceKind.GPU: GPU_COMPUTE_EFF,
            },
            mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
        )
        kernel = Kernel(
            name="spmv",
            cost=cost,
            accesses=(
                AccessSpec(specs["vals"], AccessMode.IN,
                           AccessPattern.PREFIX, prefix=row_ptr),
                AccessSpec(specs["cols"], AccessMode.IN,
                           AccessPattern.PREFIX, prefix=row_ptr),
                AccessSpec(specs["row_ptr"], AccessMode.IN),
                AccessSpec(specs["x"], AccessMode.IN, AccessPattern.FULL),
                AccessSpec(specs["y"], AccessMode.OUT),
            ),
            impl=_spmv_impl,
            params={"n_rows": n},
            work_prefix=row_ptr.astype(np.float64),
        )
        return kernel, specs

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
        _, row_ptr = self._structure(n)
        nnz = int(row_ptr[-1])
        rng = np.random.default_rng(seed)
        # column indices: valid, sorted within a row not required
        cols = rng.integers(0, n, nnz).astype(np.int32)
        return {
            "vals": rng.standard_normal(nnz).astype(np.float32),
            "cols": cols,
            "row_ptr": row_ptr.astype(np.int64),
            "x": rng.standard_normal(n).astype(np.float32),
            "y": np.zeros(n, dtype=np.float32),
        }

    @staticmethod
    def reference(arrays: dict[str, np.ndarray], n: int) -> np.ndarray:
        """Dense-reconstruction reference product (small ``n`` only)."""
        import numpy as np
        row_ptr = arrays["row_ptr"]
        y = np.zeros(n, dtype=np.float64)
        x = arrays["x"].astype(np.float64)
        vals = arrays["vals"].astype(np.float64)
        cols = arrays["cols"]
        for i in range(n):
            lo, hi = int(row_ptr[i]), int(row_ptr[i + 1])
            y[i] = np.dot(vals[lo:hi], x[cols[lo:hi]])
        return y.astype(np.float32)


def _spmv_impl(arrays: dict[str, np.ndarray], lo: int, hi: int, n: int,
               *, n_rows: int) -> None:
    import numpy as np
    row_ptr = arrays["row_ptr"]
    vals = arrays["vals"].astype(np.float64)
    cols = arrays["cols"]
    x = arrays["x"].astype(np.float64)
    start, end = int(row_ptr[lo]), int(row_ptr[hi])
    products = vals[start:end] * x[cols[start:end]]
    # segment-sum the products back to rows
    offsets = row_ptr[lo:hi].astype(np.int64) - start
    sums = np.add.reduceat(products, offsets) if len(products) else \
        np.zeros(hi - lo)
    # reduceat quirk: empty rows repeat the next segment; fix them up
    lengths = np.diff(row_ptr[lo:hi + 1].astype(np.int64))
    sums = np.where(lengths > 0, sums, 0.0)
    arrays["y"][lo:hi] = sums.astype(np.float32)
