"""Application base class.

An :class:`Application` bundles everything the analyzer and the experiment
harness need about one workload:

* a :class:`~repro.runtime.graph.Program` factory (``program(...)``) with
  the paper's problem size and iteration count as defaults,
* NumPy input arrays for functional verification (``arrays(...)``),
* metadata: the class the paper assigns it (Table II) and whether it
  requires inter-kernel synchronization.

Calibration note (see DESIGN.md §5): the per-kernel/per-device efficiency
constants in the concrete applications are the only tuned numbers in the
reproduction.  CPU efficiencies are low throughout because the paper's CPU
task implementations are the *sequential* (unvectorized) kernels run on
``m`` threads, not hand-tuned SIMD code.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.runtime.graph import KernelInvocation, Program
from repro.runtime.kernels import Kernel

if TYPE_CHECKING:
    import numpy as np


class Application(abc.ABC):
    """One benchmark application."""

    #: canonical name ("MatrixMul", "STREAM-Seq", ...)
    name: str = "?"
    #: the paper's class label ("SK-One" ... "MK-DAG"), cf. Table II
    paper_class: str = "?"
    #: whether the application requires/uses inter-kernel synchronization
    needs_sync: bool = False
    #: origin of the benchmark, as listed in Table II
    origin: str = "?"
    #: the paper's problem size (kernel indices)
    paper_n: int = 0
    #: the paper's iteration count (1 = single pass)
    paper_iterations: int = 1

    @abc.abstractmethod
    def program(
        self,
        n: int | None = None,
        *,
        iterations: int | None = None,
        sync: bool | None = None,
    ) -> Program:
        """Build the application's program.

        ``n`` defaults to the paper's problem size, ``iterations`` to the
        paper's iteration count, ``sync`` to the application's natural
        synchronization behaviour.
        """

    @abc.abstractmethod
    def arrays(self, n: int, *, seed: int = 0) -> dict[str, np.ndarray]:
        """NumPy input arrays for a problem of size ``n`` (flattened 1-D)."""

    # -- shared helpers ------------------------------------------------------

    def default_n(self, n: int | None) -> int:
        value = self.paper_n if n is None else n
        if value <= 0:
            raise ConfigurationError(f"{self.name}: problem size must be positive")
        return value

    def default_iterations(self, iterations: int | None) -> int:
        value = self.paper_iterations if iterations is None else iterations
        if value <= 0:
            raise ConfigurationError(f"{self.name}: iterations must be positive")
        return value

    @staticmethod
    def _loop_program(
        kernels_per_iteration,
        arrays,
        *,
        iterations: int,
        sync: bool,
    ) -> Program:
        """Unroll ``iterations`` passes of per-iteration kernel lists.

        ``kernels_per_iteration(it)`` returns the ordered ``(kernel, n)``
        pairs of iteration ``it``.  With ``sync`` every invocation is
        followed by a ``taskwait``; otherwise only program order and data
        dependences constrain execution.
        """
        invocations: list[KernelInvocation] = []
        next_id = 0
        for it in range(iterations):
            pairs: list[tuple[Kernel, int]] = list(kernels_per_iteration(it))
            for kernel, n in pairs:
                invocations.append(
                    KernelInvocation(
                        invocation_id=next_id,
                        kernel=kernel,
                        n=n,
                        iteration=it,
                        sync_after=sync,
                    )
                )
                next_id += 1
        return Program(invocations=invocations, arrays=arrays)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Application {self.name} ({self.paper_class})>"
