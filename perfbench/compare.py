#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records, one per line, as `run.py --out FILE` appends
them (run the same workloads and seeds for both sides).  Per workload and
end-to-end metric this prints each side's median and quartile spread and the
change, and flags a change worse than the metric's bound in BENCHMARK.json.

Results are compared only when their env matches: same nproc, CPU model,
compiler, build type, threads, run length and smoke flag.  A mismatch is
refused (exit 2): numbers from another host or build measure the machine,
not the code.  Exit 1 when a metric got worse beyond its bound, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "threads", "seconds", "smoke")


def load(path):
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    if not records:
        sys.exit(f"compare: {path} holds no records")
    return records


def env_key(record):
    return tuple(record["env"].get(k) for k in ENV_KEYS)


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[1]), load(argv[2])

    by_workload = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            if r["env"].get("trace"):
                continue
            by_workload.setdefault(r["env"]["workload"], {"base": [], "new": []})[side].append(r)

    for workload, sides in sorted(by_workload.items()):
        keys = {env_key(r) for r in sides["base"] + sides["new"]}
        if len(keys) > 1:
            print(f"compare: refusing {workload}: results come from different envs:")
            for k in sorted(keys, key=str):
                print("  " + ", ".join(f"{n}={v}" for n, v in zip(ENV_KEYS, k)))
            return 2

    worse = 0
    print(f"{'workload':9} {'metric':14} {'base median':>12} {'spread':>7} "
          f"{'new median':>12} {'spread':>7} {'change':>8} {'bound':>6}  verdict")
    for workload, sides in sorted(by_workload.items()):
        if not sides["base"] or not sides["new"]:
            print(f"{workload:9} (only one side has results)")
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in sides["base"]]
            n = [r["metrics"][m["name"]]["value"] for r in sides["new"]]
            mb, mn = statistics.median(b), statistics.median(n)
            change = mn / mb - 1 if mb else 0.0
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            noisy = max(spread(b), spread(n)) > m["bound"]
            verdict = "WORSE" if bad else ("unresolved" if noisy else "ok")
            worse += bad
            print(f"{workload:9} {m['name']:14} {mb:12.6g} {spread(b):7.3f} {mn:12.6g} "
                  f"{spread(n):7.3f} {change:+8.3f} {m['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
