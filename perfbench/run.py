#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload table1|scale|service --seed N \
        --seconds S --trace 0|1 [--smoke] [--inject improper|reject] [--out FILE]

Builds perfbench/ (a CMake package that compiles the library sources of this
checkout) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
runs the harness binary, and prints:

  * the harness's progress lines (and, traced, its "where the time goes" table);
  * an env header line: {"env": {...}} with git sha, source digest, nproc,
    CPU model, compiler, build type, threads and seed;
  * as the last line, {"correct", "attempted", "failed", "metrics"} with every
    end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer metric
    (--trace 1).  A per-layer metric of a layer the workload never calls is 0.

Exit status: 0 when every output check held, 1 when a check failed, 2 when the
benchmark could not build or run (no result line is printed then), 3 when the
harness's output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out_dir):
    """Configure once, then let CMake bring the binary up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            log(f"perfbench: cannot run {cmd[0]}: {err}")
            return None
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    binary = out_dir / "agc_perfbench"
    return binary if binary.exists() else None


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def select_metrics(record, spec, trace):
    """The metrics BENCHMARK.json names for this mode, with their units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record.get("metrics", {})
    out = {}
    unexercised = []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} was not measured")
            unexercised.append(m["name"])
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            raise ValueError(f"metric {m['name']}: got {got}, want unit {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if unexercised:
        log(f"perfbench: {len(unexercised)} per-layer metrics are 0: "
            f"{record['env']['workload']} never calls their layer")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["table1", "scale", "service"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long instances (the self-test's configuration)")
    ap.add_argument("--inject", choices=["improper", "reject"],
                    help="inject a wrong output the checks must count (self-test)")
    ap.add_argument("--out", help="append the full result record to this JSON-lines file")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(stdout)
        log(f"perfbench: harness exited with {proc.returncode}")
        return 2
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    try:
        metrics = select_metrics(record, spec, args.trace)
    except ValueError as err:
        log(f"perfbench: {err}")
        return 3
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"env": record["env"]}, sort_keys=True))
    result = {"correct": bool(record["correct"]) and proc.returncode == 0,
              "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
