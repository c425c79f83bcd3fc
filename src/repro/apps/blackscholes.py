"""BlackScholes: European option pricing (SK-One, Nvidia OpenCL SDK).

A single embarrassingly parallel kernel evaluates the Black-Scholes
closed-form price of a call and a put per option.  The paper prices
80,530,632 options (five float arrays — spot, strike, expiry, call, put —
totalling ~1.5 GB) and observes that the workload is *transfer-bound* on
the GPU: "the data transfer takes 37.5x more time than the kernel
computation on the GPU", driving Glinda to a 41%/59% CPU/GPU split.

Calibration: the GPU runs the arithmetic-heavy kernel near its
special-function throughput (memory-bound at ~20 B/option); the CPU runs
the sequential scalar code with ``expf``/``logf`` calls, two orders of
magnitude slower per option.
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

#: riskless rate and volatility, as in the SDK sample
RISKFREE = 0.02
VOLATILITY = 0.30

#: flops per option (exp/log/sqrt/div expanded to flop-equivalents)
FLOPS_PER_OPTION = 60.0
#: bytes per option in device memory (3 reads + 2 writes, float32)
BYTES_PER_OPTION = 5 * FLOAT32_BYTES

CPU_COMPUTE_EFF = 0.032  # sequential scalar transcendentals
GPU_COMPUTE_EFF = 0.200  # SFU-assisted
CPU_MEM_EFF = 0.60
GPU_MEM_EFF = 1.00


def _cnd(d: np.ndarray) -> np.ndarray:
    """Cumulative normal distribution (Abramowitz & Stegun 26.2.17)."""
    import numpy as np
    a1, a2, a3, a4, a5 = (
        0.31938153, -0.356563782, 1.781477937, -1.821255978, 1.330274429,
    )
    k = 1.0 / (1.0 + 0.2316419 * np.abs(d))
    poly = k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))))
    w = 1.0 - 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * d * d) * poly
    return np.where(d < 0, 1.0 - w, w)


def _blackscholes_impl(
    arrays: dict[str, np.ndarray], lo: int, hi: int, n: int,
    *, riskfree: float, volatility: float,
) -> None:
    import numpy as np
    s = arrays["S"][lo:hi].astype(np.float64)
    k = arrays["K"][lo:hi].astype(np.float64)
    t = arrays["T"][lo:hi].astype(np.float64)
    sqrt_t = np.sqrt(t)
    d1 = (np.log(s / k) + (riskfree + 0.5 * volatility**2) * t) / (
        volatility * sqrt_t
    )
    d2 = d1 - volatility * sqrt_t
    cnd_d1 = _cnd(d1)
    cnd_d2 = _cnd(d2)
    discount = k * np.exp(-riskfree * t)
    arrays["call"][lo:hi] = (s * cnd_d1 - discount * cnd_d2).astype(np.float32)
    arrays["put"][lo:hi] = (
        discount * (1.0 - cnd_d2) - s * (1.0 - cnd_d1)
    ).astype(np.float32)


class BlackScholes(Application):
    """Option-pricing kernel over a 1-D array of options."""

    name = "BlackScholes"
    paper_class = "SK-One"
    needs_sync = False
    origin = "Nvidia OpenCL SDK"
    paper_n = 80_530_632
    paper_iterations = 1

    def _kernel(self, n: int) -> tuple[Kernel, dict[str, ArraySpec]]:
        specs = {
            name: ArraySpec(name, n, FLOAT32_BYTES)
            for name in ("S", "K", "T", "call", "put")
        }
        cost = KernelCostModel(
            flops_per_elem=FLOPS_PER_OPTION,
            mem_bytes_per_elem=float(BYTES_PER_OPTION),
            compute_eff={
                DeviceKind.CPU: CPU_COMPUTE_EFF,
                DeviceKind.GPU: GPU_COMPUTE_EFF,
            },
            mem_eff={DeviceKind.CPU: CPU_MEM_EFF, DeviceKind.GPU: GPU_MEM_EFF},
        )
        kernel = Kernel(
            name="blackScholes",
            cost=cost,
            accesses=(
                AccessSpec(specs["S"], AccessMode.IN),
                AccessSpec(specs["K"], AccessMode.IN),
                AccessSpec(specs["T"], AccessMode.IN),
                AccessSpec(specs["call"], AccessMode.OUT),
                AccessSpec(specs["put"], AccessMode.OUT),
            ),
            impl=_blackscholes_impl,
            params={"riskfree": RISKFREE, "volatility": VOLATILITY},
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
        rng = np.random.default_rng(seed)
        return {
            "S": rng.uniform(5.0, 30.0, n).astype(np.float32),
            "K": rng.uniform(1.0, 100.0, n).astype(np.float32),
            "T": rng.uniform(0.25, 10.0, n).astype(np.float32),
            "call": np.zeros(n, dtype=np.float32),
            "put": np.zeros(n, dtype=np.float32),
        }

    @staticmethod
    def put_call_parity_gap(arrays: dict[str, np.ndarray]) -> np.ndarray:
        """``call - put - (S - K e^{-rT})``; ~0 for correct prices."""
        import numpy as np
        s = arrays["S"].astype(np.float64)
        k = arrays["K"].astype(np.float64)
        t = arrays["T"].astype(np.float64)
        return (
            arrays["call"].astype(np.float64)
            - arrays["put"].astype(np.float64)
            - (s - k * np.exp(-RISKFREE * t))
        )
