#!/usr/bin/env python3
"""simbench: builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 simbench/run.py --workload replay_mixed --seed 1 --seconds 20 --trace 0

--trace 0 prints every end-to-end metric, --trace 1 every per-layer metric
(and writes the span ledger).  The last line of stdout is the result:

    {"attempted": N, "correct": true, "failed": 0, "metrics": {...}}

The benchmark builds into $CARGO_TARGET_DIR/simbench (default
.bench_build/simbench) and keeps its scratch files there.  --tiny runs a
smoke-sized workload (the benchmark's own tests use it).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay_mixed", "campaign_paper", "cluster_zipf")


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "simbench"


def jobs() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"simbench: {what} failed (exit {proc.returncode})\n")
        sys.exit(1)


def build(bdir: pathlib.Path) -> pathlib.Path:
    if not (ROOT / "src").is_dir():
        sys.stderr.write(f"simbench: no library sources at {ROOT / 'src'}\n")
        sys.exit(1)
    if not (bdir / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quiet(["cmake", "--build", str(bdir), "-j", str(jobs())], "build")
    return bdir / "simbench"


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest() -> str:
    """sha256 over the library sources: identifies the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    work = bdir / "work"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work), "--commit", commit_id(),
           "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
