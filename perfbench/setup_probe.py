"""Time one cold set-up of a workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is the import of promptlab, ``EncoderState.create``,
``generate_dataset``, the prototype bank and ``sample_k_shot``. Prints the
seconds it took.
"""

import time

started = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter() - started)
