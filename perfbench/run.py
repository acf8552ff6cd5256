#!/usr/bin/env python3
"""Product benchmark entry point.

Builds the shipped `eco_patch` and `eco_patchd` binaries and the
benchmark's own `perfbench` tool from source, then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`). The last stdout line is the result object;
the line before it records the host and build the result belongs to.
See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench")


def source_digest():
    """SHA-256 over the source files the benchmark builds from."""
    h = hashlib.sha256()
    paths = []
    for top in SOURCES:
        if os.path.isfile(top):
            paths.append(top)
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            paths.extend(os.path.join(root, f) for f in files)
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "eco_patch", "--bin", "eco_patchd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: {' '.join(cmd)} failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli_minimize", "cli_prune", "daemon_revisions"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    for needed in ("Cargo.toml", "src/bin/eco_patch.rs", "src/bin/eco_patchd.rs", "crates"):
        if not os.path.exists(needed):
            sys.exit(f"run.py: {needed} not found; run from the repository root")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target_dir)
    bin_dir = os.path.join(target_dir, "release")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "profile": "release",
        "commit": commit(),
        "source_digest": source_digest(),
    }
    done = subprocess.run([
        os.path.join(bin_dir, "perfbench"), bin_dir,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ], stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(done.returncode)
    print(json.dumps({"context": context}))
    print(done.stdout, end="", flush=True)


if __name__ == "__main__":
    main()
