#!/usr/bin/env python3
"""Builds the benchmark and the raa-serve binary from source, then runs
one workload and passes its result line through.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Artifacts land in
$CARGO_TARGET_DIR (default: .bench_build at the repository root).
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE.parent / ".bench_build")
    target = target.resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(HERE / "Cargo.toml"),
            "-p", "perfbench", "-p", "raa-serve", "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = target / "release"
    # Its own process group, so the served child goes down with it even
    # when this script is interrupted or terminated.
    bench = subprocess.Popen(
        [str(release / "perfbench"), *sys.argv[1:], "--serve-bin", str(release / "raa-serve")],
        env=env,
        start_new_session=True,
    )
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return bench.wait()
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except OSError:
            pass
        bench.wait()


if __name__ == "__main__":
    sys.exit(main())
