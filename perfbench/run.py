#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (release,
offline) against the repository's crates, runs one workload, passes its
output through and exits with its exit code. The last stdout line is the
JSON result `{correct, attempted, failed, metrics}`. A results file with the
host block, checks, end-to-end, detail and per-layer metrics is written to
`.bench_results/<workload>-seed<n>-trace<t>.json` (traced runs also dump
their spans next to it as TSV); `$PERFBENCH_RESULTS` names another
directory. `perfbench/compare.py` compares two such directories.

The build goes to `$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet_tpcc", "prod_safetune", "gateway_mix")
RUN_TIMEOUT_S = 170


def fail(msg: str, code: int = 2) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative whole number")
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be between 1 and 600")

    manifest = ROOT / "perfbench" / "Cargo.toml"
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no repository sources to build the benchmark against")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("building the benchmark failed", 1)

    results = Path(os.environ.get("PERFBENCH_RESULTS", ".bench_results"))
    if not results.is_absolute():
        results = ROOT / results
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
