"""Time one benchmark set-up in this fresh interpreter.

``python3 perfbench/setup_probe.py <workload> <seed>`` imports ``repro``,
builds the platform and draws the workload's inputs, then prints the
seconds that took.  ``run.py`` starts several of these per run and
reports their median as ``setup_s``.
"""

import sys
from time import perf_counter

import workloads


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.use_checkout_src()
    t0 = perf_counter()
    workloads.prepare(name, seed)
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()
