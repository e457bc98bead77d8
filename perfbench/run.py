#!/usr/bin/env python3
"""Builds and runs the FDMAX service benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <service_chaos|overload_frontend|sweep_large>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package next to this script. It is built in
release mode against the repository's crates (into $CARGO_TARGET_DIR, or
perfbench/target), then run once in its own process, so the peak
resident set reported as `peak_rss_mib` is that workload's own. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is non-zero when the
build fails, the run fails, or the correctness gate fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("service_chaos", "overload_frontend", "sweep_large")
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False)
    exe = None
    for line in proc.stdout.decode(errors="replace").splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            exe = msg["executable"]
    if proc.returncode != 0 or exe is None:
        sys.exit("perfbench: build failed")
    return exe


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    # Span files and the fallback scratch directory live next to the
    # build output, inside the checkout.
    out_dir = os.path.join(os.path.dirname(exe), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", out_dir,
    ]
    if args.trace:
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans-out", spans]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)

    lines = out.splitlines()
    if not lines:
        sys.exit(f"perfbench: run produced no output (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is the child's peak resident set in KiB on Linux.
        result["metrics"]["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    print(json.dumps(result))
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
