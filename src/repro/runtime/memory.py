"""Multi-memory-space coherence model (the OmpSs memory directory).

Each accelerator has its own memory space; the host (CPU) memory is the home
of all data.  The directory tracks, per array, which element intervals are
*valid* in which space, and generates the minimal set of
:class:`TransferOp` needed before a task instance can run on a device:

* reading a region on a device requires every element of the region to be
  valid there; missing portions are fetched from the host (staging a flush
  from another device first when the host copy is stale — OmpSs-0.7-style
  host-centric coherence);
* writing a region on a device makes the device copy the only valid one
  (other spaces are invalidated);
* ``taskwait`` flushes every *dirty* interval (valid on a device but not on
  the host) back to the host; device copies remain valid.

This model is what makes the paper's strategy differences emerge: SP-Unified
pays one transfer in and one out, SP-Varied pays per-kernel flush traffic,
and dynamic strategies pay per-chunk transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryModelError
from repro.platform.topology import HOST_SPACE, Platform
from repro.runtime.regions import ArraySpec, IntervalSet, Region


@dataclass(frozen=True)
class TransferOp:
    """One host<->device data movement of a contiguous region."""

    array: str
    start: int
    end: int
    src_space: str
    dst_space: str
    nbytes: int

    @property
    def is_h2d(self) -> bool:
        return self.src_space == HOST_SPACE

    @property
    def is_d2h(self) -> bool:
        return self.dst_space == HOST_SPACE

    @property
    def device_space(self) -> str:
        """The non-host endpoint of the transfer."""
        return self.dst_space if self.is_h2d else self.src_space


class MemoryManager:
    """Validity directory over ``(array, memory space)`` pairs."""

    def __init__(self, platform: Platform, arrays: dict[str, ArraySpec]) -> None:
        self.platform = platform
        self.arrays = dict(arrays)
        self._spaces = platform.memory_spaces()
        # valid[array][space] -> IntervalSet of valid elements
        self._valid: dict[str, dict[str, IntervalSet]] = {}
        for name, spec in self.arrays.items():
            per_space = {space: IntervalSet() for space in self._spaces}
            # all data starts resident (and only valid) on the host
            per_space[HOST_SPACE].add(0, spec.n_elems)
            self._valid[name] = per_space

    # -- introspection -----------------------------------------------------

    def valid_intervals(self, array: str, space: str) -> IntervalSet:
        """Copy of the valid interval set of ``array`` in ``space``."""
        return self._entry(array, space).copy()

    def is_valid(self, array: str, space: str, start: int, end: int) -> bool:
        """Whether ``[start, end)`` of ``array`` is entirely valid in ``space``."""
        return self._entry(array, space).contains(start, end)

    def dirty_bytes(self) -> int:
        """Total bytes valid on some device but stale on the host."""
        total = 0
        for name, spec in self.arrays.items():
            host = self._valid[name][HOST_SPACE]
            stale = IntervalSet()
            for space in self._spaces:
                if space == HOST_SPACE:
                    continue
                for lo, hi in self._valid[name][space]:
                    for mlo, mhi in host.missing(lo, hi):
                        stale.add(mlo, mhi)
            total += stale.total * spec.elem_bytes
        return total

    def _entry(self, array: str, space: str) -> IntervalSet:
        try:
            return self._valid[array][space]
        except KeyError:
            raise MemoryModelError(
                f"unknown array {array!r} or space {space!r}"
            ) from None

    # -- coherence actions ---------------------------------------------------

    def ensure(self, region: Region, space: str) -> list[TransferOp]:
        """Make ``region`` valid in ``space``; returns the needed transfers.

        The returned ops are already applied to the directory (optimistic
        marking): callers time them on the simulated link, but a second
        reader of the same data will not schedule a duplicate transfer.
        """
        entry = self._entry(region.array, space)
        if entry.contains(region.start, region.end):
            return []  # the common case: already valid, nothing to build
        spec = self.arrays[region.array]
        missing = entry.missing(region.start, region.end)
        ops: list[TransferOp] = []
        host = self._valid[region.array][HOST_SPACE]
        for lo, hi in missing:
            # stage through the host: flush any portion whose only valid
            # copy lives on another device
            for stale_lo, stale_hi in host.missing(lo, hi):
                for owner, plo, phi in self._owners(
                    region.array, stale_lo, stale_hi, exclude=space
                ):
                    ops.append(
                        TransferOp(
                            array=region.array,
                            start=plo,
                            end=phi,
                            src_space=owner,
                            dst_space=HOST_SPACE,
                            nbytes=(phi - plo) * spec.elem_bytes,
                        )
                    )
                    host.add(plo, phi)
            if space != HOST_SPACE:
                ops.append(
                    TransferOp(
                        array=region.array,
                        start=lo,
                        end=hi,
                        src_space=HOST_SPACE,
                        dst_space=space,
                        nbytes=(hi - lo) * spec.elem_bytes,
                    )
                )
            entry.add(lo, hi)
        return ops

    def _owners(
        self, array: str, lo: int, hi: int, *, exclude: str
    ) -> list[tuple[str, int, int]]:
        """``(device, lo, hi)`` pieces that together hold ``[lo, hi)``.

        One device holding the whole range is preferred.  Otherwise each
        piece comes from the first device, in space order, that holds
        it — after a dynamic split over several devices, a stale range
        can span their copies.
        """
        devices = [sp for sp in self._spaces if sp not in (HOST_SPACE, exclude)]
        for space in devices:
            if self._valid[array][space].contains(lo, hi):
                return [(space, lo, hi)]
        unowned = IntervalSet([(lo, hi)])
        pieces = []
        for space in devices:
            for plo, phi in self._valid[array][space].intersect(lo, hi):
                for ulo, uhi in unowned.intersect(plo, phi):
                    pieces.append((space, ulo, uhi))
                    unowned.remove(ulo, uhi)
        if unowned:
            ulo, uhi = unowned.intervals[0]
            raise MemoryModelError(
                f"no valid copy of {array}[{ulo}:{uhi}) anywhere — "
                "directory corrupted"
            )
        return pieces

    def write(self, region: Region, space: str) -> None:
        """Record that ``region`` was (re)written in ``space``.

        The writing space becomes the sole valid holder of the region.
        """
        per_space = self._valid[region.array]
        for other in self._spaces:
            entry = per_space[other]
            if other == space:
                entry.add(region.start, region.end)
            elif entry._ivals:  # an emptied device set needs no call
                entry.remove(region.start, region.end)

    def writeback(self, region: Region, space: str) -> list[TransferOp]:
        """Eagerly copy ``region`` from ``space`` back to the host.

        Returns the D2H ops for the portions valid in ``space`` but stale
        on the host; the host is marked valid immediately (optimistic
        marking, like :meth:`ensure`).  Used for instances of invocations
        followed by a ``taskwait``: the producer starts its copy-back as
        soon as it finishes, overlapping the flush with the other
        processor's remaining compute — which is how the paper's static
        per-iteration splits beat single-device execution despite the
        synchronization.
        """
        if space == HOST_SPACE:
            return []
        spec = self.arrays[region.array]
        host = self._valid[region.array][HOST_SPACE]
        valid = self._valid[region.array][space].intersect(region.start, region.end)
        ops: list[TransferOp] = []
        for lo, hi in valid:
            for mlo, mhi in host.missing(lo, hi):
                ops.append(
                    TransferOp(
                        array=region.array,
                        start=mlo,
                        end=mhi,
                        src_space=space,
                        dst_space=HOST_SPACE,
                        nbytes=(mhi - mlo) * spec.elem_bytes,
                    )
                )
                host.add(mlo, mhi)
        return ops

    def flush_to_host(self, *, invalidate: bool = False) -> list[TransferOp]:
        """``taskwait`` semantics: copy all dirty data back to the host.

        With ``invalidate=False`` device copies stay valid (write-back
        only).  With ``invalidate=True`` — the OmpSs-0.7 behaviour the
        paper's runtime implements, where the taskwait "flushes data in
        different memories to the host" — the device caches are emptied
        after the write-back, so every kernel after a synchronization
        point re-fetches its device inputs.  This is the cost that makes
        SP-Varied expensive when the application did not need
        synchronization.  Returns the transfer ops, already applied.
        """
        ops: list[TransferOp] = []
        for name, spec in self.arrays.items():
            host = self._valid[name][HOST_SPACE]
            for space in self._spaces:
                if space == HOST_SPACE:
                    continue
                for lo, hi in self._valid[name][space].intervals:
                    for mlo, mhi in host.missing(lo, hi):
                        ops.append(
                            TransferOp(
                                array=name,
                                start=mlo,
                                end=mhi,
                                src_space=space,
                                dst_space=HOST_SPACE,
                                nbytes=(mhi - mlo) * spec.elem_bytes,
                            )
                        )
                        host.add(mlo, mhi)
        if invalidate:
            self.invalidate_device_copies()
        return ops

    def invalidate_device_copies(self) -> None:
        """Drop all device-resident copies (host must already be coherent).

        Used to model runtime shutdown/startup between independent runs.
        """
        for name, spec in self.arrays.items():
            if not self._valid[name][HOST_SPACE].contains(0, spec.n_elems):
                raise MemoryModelError(
                    f"cannot invalidate devices: host copy of {name!r} is stale"
                )
            for space in self._spaces:
                if space != HOST_SPACE:
                    self._valid[name][space].clear()
