"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (it writes them to
``.perfbench_results/``). For every workload and end-to-end metric the
untraced runs of both sides share, it prints both medians, the change as a
share of the base median, the metric's bound and a verdict:

``ok``          no worse than the bound allows
``regression``  worse than the base median by more than the bound
``unresolved``  the base runs' own quartile spread exceeds the bound, and not
                every new run reads better than every base run

Per-layer medians of traced runs are listed beside each other, without a
verdict. Exits 2, comparing nothing, when the two sides were measured in
different environments (anything recorded but the git sha); exits 1 when
any metric regressed.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

import spec

IGNORED_ENVIRONMENT = ("git_sha",)


def load(directory):
    """{(workload, trace): [result, ...]} plus the set of environments seen."""
    runs = defaultdict(list)
    environments = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="ascii") as fh:
            result = json.load(fh)
        runs[(result["workload"], result["trace"])].append(result)
        env = {k: v for k, v in result["environment"].items() if k not in IGNORED_ENVIRONMENT}
        environments.add(json.dumps(env, sort_keys=True))
    return runs, environments


def _values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def verdict(base, new, better, bound):
    """(relative worsening, verdict) for two lists of run values."""
    b, n = statistics.median(base), statistics.median(new)
    worse = (n - b) / b if better == "lower" else (b - n) / b
    if len(base) >= 2:
        q1, _, q3 = statistics.quantiles(base, n=4)
        if (q3 - q1) / b > bound:
            beats = max(new) < min(base) if better == "lower" else min(new) > max(base)
            return worse, "ok" if beats else "unresolved"
    return worse, "regression" if worse > bound else "ok"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    (base, base_env), (new, new_env) = load(argv[0]), load(argv[1])
    if base_env != new_env or len(base_env) > 1:
        print("refusing to compare: the environments differ", file=sys.stderr)
        for env in sorted(base_env | new_env):
            print(f"  {env}", file=sys.stderr)
        return 2
    regressions = 0
    print(f"{'workload':<13} {'metric':<18} {'base':>12} {'new':>12} {'worse':>8} {'bound':>6}  verdict")
    for name, _ in spec.WORKLOADS:
        for metric, unit, better, bound in spec.END_TO_END:
            b, n = _values(base[(name, 0)], metric), _values(new[(name, 0)], metric)
            if not b or not n:
                continue
            worse, outcome = verdict(b, n, better, bound)
            regressions += outcome == "regression"
            print(f"{name:<13} {metric:<18} {statistics.median(b):>12.5g} "
                  f"{statistics.median(n):>12.5g} {worse:>+8.1%} {bound:>6.0%}  {outcome}")
    for name, _ in spec.WORKLOADS:
        if not base[(name, 1)] or not new[(name, 1)]:
            continue
        print(f"\nper-layer medians, {name}")
        for metric, unit, _ in spec.PER_LAYER:
            b, n = _values(base[(name, 1)], metric), _values(new[(name, 1)], metric)
            if b and n:
                print(f"  {metric:<40} {statistics.median(b):>14.6g} {statistics.median(n):>14.6g} {unit}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
