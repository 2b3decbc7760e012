"""Self-test of the benchmark harness, at the shortest run length.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with ``--seconds 1`` and
checks that:

1. ``BENCHMARK.json`` is what ``spec.py`` generates, and every declared
   metric is emitted with its unit (end-to-end values finite and above 0,
   per-layer values finite) by a run that passes its output checks;
2. a deliberately wrong expected digest fails every operation, so the
   error rate is 1;
3. span self times are non-negative and sum to no more than their parents'
   durations.

Exits 0 when all hold; takes about a minute.
"""

import bootstrap

bootstrap.prepare()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def _metric_problems(name, trace, result):
    line = json.loads(run.result_line(result))
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    where = f"{name} trace={int(trace)}"
    found = []
    if not line["correct"]:
        found.append(f"{where}: output checks failed: {result['problems']}")
    got = {n: entry["unit"] for n, entry in line["metrics"].items()}
    want = {entry[0]: entry[1] for entry in declared}
    if got != want:
        differ = sorted(set(got.items()) ^ set(want.items()))
        found.append(f"{where}: metrics or units differ from spec.py: {differ}")
    for metric, entry in line["metrics"].items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{where}: {metric} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            found.append(f"{where}: {metric} = {value!r} is not above 0")
    return found


def main():
    failures = []
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        if json.load(fh) != spec.benchmark_json():
            failures.append("BENCHMARK.json differs from spec.py; run python3 perfbench/spec.py")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, 0, 1, trace)
            failures += _metric_problems(name, trace, result)
            if trace:
                tracer = result["tracer"]
                failures += [f"{name}: {p}" for p in tracer.self_check(0, len(tracer.starts))]
            print(f"checked {name} trace={int(trace)}", flush=True)

    wrong = run.run_workload("fewshot_late", 0, 1, False, expected="0" * 64)
    error_rate = wrong["reported"]["error_rate"]["value"]
    if error_rate != 1 or wrong["failed"] != wrong["attempted"]:
        failures.append(f"a wrong expected digest gave error_rate {error_rate}, not 1")
    print("checked a wrong expected digest", flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
