#!/usr/bin/env python3
"""Build the release binaries and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

It builds `sops-serve` from the root workspace and the benchmark package
(`perfbench/Cargo.toml`, its own workspace) with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
the benchmark binary, whose last stdout line is the JSON result. Build
output goes to stderr. Work files (the cache fixture, its per-run
copies, spill files, span dumps) live under `.bench_work/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "-p", "sops-serve", "--bin", "sops-serve")
    build(os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "sops-perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "sops-serve"),
           "--work", os.path.join(ROOT, ".bench_work")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
