"""Kernels: the unit of parallel work in a data-parallel application.

A :class:`Kernel` bundles three things:

* **data accesses** (:class:`AccessSpec`) — how a chunk ``[lo, hi)`` of the
  kernel's index space maps to regions of named arrays; this drives both
  dependence analysis and the coherence/transfer model;
* **a cost model** (:class:`KernelCostModel`) — per-element FLOPs and
  device-memory traffic plus per-device-kind efficiency factors, consumed by
  the platform's roofline model;
* **an optional NumPy body** — ``impl(arrays, lo, hi, n, **params)`` used by
  the functional executor to verify numerical equivalence of partitioned
  execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import ConfigurationError
from repro.platform.device import Device, DeviceKind
from repro.runtime.regions import AccessMode, ArraySpec, Region

if TYPE_CHECKING:
    import numpy as np

#: Signature of a functional kernel body: mutates ``arrays`` in place for the
#: index chunk ``[lo, hi)`` out of ``n`` total indices.
KernelImpl = Callable[..., None]


class AccessPattern(enum.Enum):
    """How a kernel chunk's index range maps onto an array region."""

    #: chunk ``[lo, hi)`` touches elements ``[lo*epi, hi*epi)``
    PARTITIONED = "partitioned"
    #: every chunk touches the whole array (e.g. matrix B in GEMM,
    #: all body positions in N-body)
    FULL = "full"
    #: chunk ``[lo, hi)`` touches ``[prefix[lo], prefix[hi])`` — variable
    #: extents (CSR values/columns in SpMV, ref-[9]-style workloads)
    PREFIX = "prefix"


@dataclass(frozen=True)
class AccessSpec:
    """One data access of a kernel.

    Parameters
    ----------
    array:
        The accessed array.
    mode:
        Read/write direction (drives RAW/WAR/WAW edges).
    pattern:
        :attr:`AccessPattern.PARTITIONED` accesses scale with the chunk;
        :attr:`AccessPattern.FULL` accesses touch the entire array from
        every chunk.
    elems_per_index:
        For partitioned accesses, array elements per kernel index (e.g. a
        row-partitioned ``N x N`` matrix has ``elems_per_index = N``).
    prefix:
        For PREFIX accesses, the element-offset prefix array (length
        ``n + 1``): chunk ``[lo, hi)`` touches ``[prefix[lo], prefix[hi])``.
    halo:
        For PARTITIONED *reads*, extend the region by ``halo`` indices on
        each side (clamped to the array) — stencil neighbour access.
        Halo reads create the cross-chunk dependences that make
        unsynchronized stencil loops execute correctly in any order.
    """

    array: ArraySpec
    mode: AccessMode
    pattern: AccessPattern = AccessPattern.PARTITIONED
    elems_per_index: int = 1
    prefix: "np.ndarray | None" = field(default=None, compare=False)
    halo: int = 0

    def __post_init__(self) -> None:
        if self.elems_per_index <= 0:
            raise ConfigurationError("elems_per_index must be positive")
        if self.halo < 0:
            raise ConfigurationError("halo must be >= 0")
        if self.halo and (
            self.pattern is not AccessPattern.PARTITIONED or self.mode.writes
        ):
            raise ConfigurationError(
                f"access to {self.array.name!r}: halo applies to "
                "PARTITIONED reads only"
            )
        if self.pattern is AccessPattern.FULL and self.mode.writes:
            raise ConfigurationError(
                f"access to {self.array.name!r}: FULL writes from every chunk "
                "would make all chunks conflict; model the kernel differently"
            )
        if (self.pattern is AccessPattern.PREFIX) != (self.prefix is not None):
            raise ConfigurationError(
                f"access to {self.array.name!r}: PREFIX pattern and a "
                "prefix array go together"
            )

    def region(self, lo: int, hi: int) -> Region:
        """The array region touched by chunk ``[lo, hi)``."""
        if self.pattern is AccessPattern.FULL:
            return self.array.full_region()
        if self.pattern is AccessPattern.PREFIX:
            return Region(
                self.array.name, int(self.prefix[lo]), int(self.prefix[hi])
            )
        start = max(0, (lo - self.halo)) * self.elems_per_index
        end = min((hi + self.halo) * self.elems_per_index, self.array.n_elems)
        return Region(self.array.name, start, end)


@dataclass(frozen=True)
class KernelCostModel:
    """Analytic per-element work description of a kernel.

    Per-element FLOPs may depend linearly on the total problem size ``n``
    (``flops = flops_per_elem + flops_per_elem_per_n * n``), which covers
    O(n^2) kernels such as all-pairs N-body.

    ``compute_eff`` / ``mem_eff`` map a :class:`DeviceKind` to the fraction
    of that device's peak rate this kernel sustains.  These are the only
    calibrated constants in the reproduction; everything downstream
    (splits, rankings, crossovers) is derived.
    """

    flops_per_elem: float = 0.0
    mem_bytes_per_elem: float = 0.0
    flops_per_elem_per_n: float = 0.0
    mem_bytes_per_elem_per_n: float = 0.0
    compute_eff: Mapping[DeviceKind, float] = field(
        default_factory=lambda: {DeviceKind.CPU: 0.5, DeviceKind.GPU: 0.5}
    )
    mem_eff: Mapping[DeviceKind, float] = field(
        default_factory=lambda: {DeviceKind.CPU: 0.6, DeviceKind.GPU: 0.6}
    )
    double_precision: bool = False

    def flops(self, chunk: int, n_total: int) -> float:
        """FLOPs performed by a chunk of ``chunk`` indices out of ``n_total``."""
        return chunk * (self.flops_per_elem + self.flops_per_elem_per_n * n_total)

    def mem_bytes(self, chunk: int, n_total: int) -> float:
        """Device-memory bytes touched by a chunk of ``chunk`` indices."""
        return chunk * (
            self.mem_bytes_per_elem + self.mem_bytes_per_elem_per_n * n_total
        )

    def effs(self, kind: DeviceKind) -> tuple[float, float]:
        """``(compute_eff, mem_eff)`` for a device kind (default 0.5/0.6)."""
        return (self.compute_eff.get(kind, 0.5), self.mem_eff.get(kind, 0.6))


@dataclass(frozen=True)
class Kernel:
    """A named data-parallel kernel.

    Parameters
    ----------
    name:
        Kernel name, unique within an application.
    cost:
        The analytic cost model.
    accesses:
        Data accesses (at least one; at least one write, otherwise the
        kernel is dead code).
    impl:
        Optional NumPy body for functional verification.
    params:
        Extra keyword arguments forwarded to ``impl``.
    work_prefix:
        Optional prefix-sum array of per-index work weights (length
        ``n + 1``, ``work_prefix[0] == 0``).  *Imbalanced* kernels — the
        Glinda lineage's ref [9] case, e.g. CSR SpMV where each row costs
        its nonzero count — carry data-dependent work; the cost model's
        per-element quantities are then interpreted per *work unit*.
        ``None`` means uniform work (one unit per index).
    """

    name: str
    cost: KernelCostModel
    accesses: tuple[AccessSpec, ...]
    impl: KernelImpl | None = None
    params: Mapping[str, object] = field(default_factory=dict)
    work_prefix: "np.ndarray | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.accesses:
            raise ConfigurationError(f"kernel {self.name!r} has no data accesses")
        if not any(a.mode.writes for a in self.accesses):
            raise ConfigurationError(f"kernel {self.name!r} writes nothing")
        if self.work_prefix is not None:
            import numpy as np
            wp = self.work_prefix
            if wp.ndim != 1 or len(wp) < 2 or wp[0] != 0:
                raise ConfigurationError(
                    f"kernel {self.name!r}: work_prefix must be a 1-D "
                    "prefix-sum array starting at 0"
                )
            if (np.diff(wp) < 0).any():
                raise ConfigurationError(
                    f"kernel {self.name!r}: work weights must be >= 0"
                )

    @property
    def imbalanced(self) -> bool:
        """Whether per-index work varies (ref [9] workloads)."""
        return self.work_prefix is not None

    def work_units(self, lo: int, hi: int) -> float:
        """Work in ``[lo, hi)``: weighted count, or the index count."""
        if self.work_prefix is None:
            return float(hi - lo)
        return float(self.work_prefix[hi] - self.work_prefix[lo])

    @property
    def total_work(self) -> float:
        """Total work units of the full index space."""
        if self.work_prefix is None:
            raise ConfigurationError(
                f"kernel {self.name!r} has uniform work; total_work is "
                "the problem size"
            )
        return float(self.work_prefix[-1])

    # -- timing helpers ---------------------------------------------------

    def chunk_time(
        self,
        device: Device,
        chunk: float,
        n_total: int,
        *,
        share: float = 1.0,
        include_launch: bool = True,
    ) -> float:
        """Execution time of a ``chunk``-unit task instance on ``device``.

        ``chunk`` counts *work units*: plain indices for uniform kernels,
        weighted work (:meth:`work_units`) for imbalanced ones.  ``share``
        scales the device's peak rates for partial resources (one CPU
        core out of ``m`` threads has ``share = 1/m``).
        """
        if chunk <= 0:
            return 0.0
        ce, me = self.cost.effs(device.kind)
        return device.kernel_time(
            flops=self.cost.flops(chunk, n_total),
            mem_bytes=self.cost.mem_bytes(chunk, n_total),
            compute_eff=ce * share,
            mem_eff=me * share,
            double_precision=self.cost.double_precision,
            include_launch=include_launch,
        )

    def device_throughput(self, device: Device, n_total: int) -> float:
        """Sustained kernel indices/second of the whole device.

        This is the quantity Glinda's profiling estimates (Θ in the
        partitioning model).
        """
        ce, me = self.cost.effs(device.kind)
        return device.throughput(
            flops_per_elem=self.cost.flops_per_elem
            + self.cost.flops_per_elem_per_n * n_total,
            bytes_per_elem=self.cost.mem_bytes_per_elem
            + self.cost.mem_bytes_per_elem_per_n * n_total,
            compute_eff=ce,
            mem_eff=me,
            double_precision=self.cost.double_precision,
        )

    # -- transfer accounting ------------------------------------------------

    def input_bytes(self, lo: int, hi: int) -> int:
        """Bytes of input data a chunk reads (for transfer estimation)."""
        total = 0
        for acc in self.accesses:
            if acc.mode.reads:
                region = acc.region(lo, hi)
                total += region.nbytes(acc.array.elem_bytes)
        return total

    def output_bytes(self, lo: int, hi: int) -> int:
        """Bytes of output data a chunk writes."""
        total = 0
        for acc in self.accesses:
            if acc.mode.writes:
                region = acc.region(lo, hi)
                total += region.nbytes(acc.array.elem_bytes)
        return total

    def run_impl(self, arrays: dict[str, np.ndarray], lo: int, hi: int, n: int) -> None:
        """Invoke the NumPy body on chunk ``[lo, hi)`` (functional executor)."""
        if self.impl is None:
            raise ConfigurationError(f"kernel {self.name!r} has no functional body")
        self.impl(arrays, lo, hi, n, **dict(self.params))
