#!/usr/bin/env python3
"""Gates perfbench's host-independent work counters against a committed baseline.

usage: check_counters.py <baseline.json> <workload>=<perfbench log> ...

Each log holds the output of
`perfbench --workload <workload> --seed 1 --seconds 1 --trace 1`, whose last
line is the JSON report.  Every counter the baseline commits for the workload
must be in the report and may exceed its committed value by at most
MAX_GROWTH (1%); each violation is printed with the workload, the counter,
the committed value and the measured value, and the check exits 1.  A
counter that fell passes (rewrite the baseline to keep the gain).
"""

import json
import sys

# The growth a counter may show before the gate fails: the counters are
# deterministic, so any growth is real work added, and 1% leaves room only
# for changes too small to matter.
MAX_GROWTH = 0.01


def main(argv):
    if len(argv) < 3 or not all("=" in arg for arg in argv[2:]):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    failures = []
    for arg in argv[2:]:
        workload, _, path = arg.partition("=")
        committed = baseline["counters"].get(workload)
        if committed is None:
            failures.append(f"{workload}: no committed counters in {argv[1]}")
            continue
        with open(path) as f:
            report = json.loads(f.read().strip().splitlines()[-1])
        for name, value in committed.items():
            measured = report["metrics"].get(name, {}).get("value")
            if measured is None:
                failures.append(f"{workload} {name}: committed {value}, missing from the run")
                continue
            print(f"{workload:<13} {name:<24} committed {value:>10} measured {measured:>10}")
            if measured > value * (1 + MAX_GROWTH):
                failures.append(
                    f"{workload} {name}: committed {value}, measured {measured} "
                    f"(more than {MAX_GROWTH:.0%} growth)"
                )
    for failure in failures:
        print(f"counter gate: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
