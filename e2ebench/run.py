#!/usr/bin/env python3
"""Builds and runs the EasyHPS end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --smoke

A normal run configures and builds e2ebench/ (the easyhps library from src/
plus the benchmark binary) under $CARGO_TARGET_DIR (default .bench_build),
runs one workload, records the run stamp and prints the result object as the
last line of stdout.  Traced runs also write the span timeline as Chrome
trace-event JSON next to the build.

--smoke runs every workload at a tiny size, untraced and traced, with the
reference check on, and fails if any metric named in BENCHMARK.json is
missing.  Smoke numbers are never printed as a result and never stamped.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["lcs-fine", "nussinov-coarse", "serve-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        log("src/CMakeLists.txt not found: run from the repository root")
        sys.exit(2)
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(root / "e2ebench"), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "e2e_bench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out, out / "e2e_bench"


def run_binary(binary, args):
    """Runs one benchmark process; returns (stamp dict, result dict)."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    stamps = [l for l in lines if l.startswith("STAMP ")]
    if not lines or not stamps:
        log("benchmark printed no result")
        sys.exit(1)
    return json.loads(stamps[-1][len("STAMP "):]), json.loads(lines[-1])


def check_siblings(out, stamp):
    """Appends the stamp to the run log and flags tile picks that differ
    from earlier runs of the same workload in this checkout."""
    path = out / "stamps.jsonl"
    siblings = []
    if path.is_file():
        for line in path.read_text().splitlines():
            prior = json.loads(line)
            if prior.get("workload") == stamp["workload"]:
                siblings.append(prior.get("kernel_tiles"))
    stamp["tiles_differ_from_siblings"] = any(
        t != stamp["kernel_tiles"] for t in siblings)
    if stamp["tiles_differ_from_siblings"] or not stamp["tiles_stable"]:
        log(f"FLAG: autotuner tile picks vary ({stamp['kernel_tiles']!r} vs "
            f"earlier {sorted(set(siblings))!r}, stable in run: "
            f"{stamp['tiles_stable']})")
    with path.open("a") as f:
        f.write(json.dumps(stamp) + "\n")


def smoke(root, binary):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {"0": [m["name"] for m in spec["end_to_end"]],
              "1": [m["name"] for m in spec["per_layer"]]}
    bad = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            _, result = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--size", "tiny"])
            missing = [m for m in wanted[trace] if m not in result["metrics"]]
            ok = result["correct"] and result["failed"] == 0 and not missing
            log(f"smoke {workload} trace={trace}: "
                f"{'ok' if ok else 'FAIL'} missing={missing} "
                f"correct={result['correct']} failed={result['failed']}")
            if not ok:
                bad.append(f"{workload}/trace={trace}")
    if bad:
        log(f"smoke FAILED: {', '.join(bad)}")
        sys.exit(1)
    print("smoke OK (not a result)")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")

    root = Path.cwd()
    try:
        out, binary = build(root)
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        sys.exit(2)
    if a.smoke:
        smoke(root, binary)
        return

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        args += ["--spans", str(out / f"spans-{a.workload}-{a.seed}.json")]
    stamp, result = run_binary(binary, args)
    check_siblings(out, stamp)
    print("STAMP " + json.dumps(stamp))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
