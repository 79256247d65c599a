#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload in its smoke configuration (small instances, short
phases), untraced and traced, and asserts that:

  * each run exits 0 and its last line has exactly the keys correct,
    attempted, failed, metrics, with every metric of BENCHMARK.json for the
    mode, each with its declared unit;
  * each workload measures (rather than zero-fills) the per-layer metrics the
    layer table of README.md assigns to it;
  * the checker counts an injected improper coloring (every workload) and an
    injected rejected op (service) as failures, and the command then exits
    non-zero;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics each workload must measure itself (README.md, layer table).
MEASURED = {
    "table1": [r"graph\.", r"coloring\.(gps|kw|ag|exact|fyz|luby)(_s|\.)",
               r"coloring\.changed_frac\.\w+\.", r"runtime\.", r"trace\."],
    "scale": [r"graph\.", r"scale\.", r"exec\.speedup", r"coloring\.ag(_s|\.)",
              r"coloring\.changed_frac\.(linial|ag|reduce)$", r"runtime\.", r"trace\."],
    "service": [r"graph\.build_s", r"svc\.", r"runtime\.(messages|total_bits)", r"trace\."],
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT, out=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    if out:
        cmd += ["--out", str(out)]
    env = dict(os.environ)
    if cwd != ROOT:
        env.pop("CARGO_TARGET_DIR", None)  # build inside `cwd`, not in our tree
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return done.returncode, result


def main():
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        for workload in ("table1", "scale", "service"):
            for trace in (0, 1):
                records = tmp / f"{workload}-{trace}.jsonl"
                code, result = run(workload, trace, out=records)
                tag = f"{workload} trace={trace}"
                check(code == 0 and result is not None and result["correct"]
                      and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{tag}: exits 0 with a correct result line")
                if result is None:
                    continue
                wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
                got = result["metrics"]
                check(set(got) == {m["name"] for m in wanted}
                      and all(got[m["name"]]["unit"] == m["unit"] for m in wanted),
                      f"{tag}: prints every named metric with its unit")
                if trace:
                    measured = json.loads(records.read_text().splitlines()[-1])["metrics"]
                    missing = [m["name"] for m in wanted if m["name"] not in measured
                               and any(re.match(p, m["name"]) for p in MEASURED[workload])]
                    check(not missing, f"{tag}: measures its own layers {missing or ''}")

            code, result = run(workload, 0, "--inject", "improper")
            check(code != 0 and result is not None and result["failed"] >= 1
                  and not result["correct"],
                  f"{workload}: an injected improper coloring counts as a failure")

        code, result = run("service", 0, "--inject", "reject")
        check(code != 0 and result is not None and result["failed"] >= 1
              and not result["correct"],
              "service: an injected rejected op counts as a failure")

        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run("table1", 0, cwd=bare)
        check(code != 0 and result is None,
              "without the library sources the command fails without a result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
