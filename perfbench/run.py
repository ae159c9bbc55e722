#!/usr/bin/env python3
"""Builds the medsplit benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fig4_vgg_c100, hier_widecut_int8. The last line of
standard output is the result object; see perfbench/METRICS.md.

The benchmark package builds into $CARGO_TARGET_DIR (default
`.bench_build` under the repository root) with `cargo build --release
--offline`. Without the repository's crates next to it the build cannot
succeed, and the script exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "medsplit-perfbench"
# One run measures for --seconds and then runs its output checks; a run
# that has not ended by then is stopped.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Runs cmd from the repository root, stopping it at the timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s", 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    # A terminated run still stops its build or benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in ("crates/core/Cargo.toml", "perfbench/Cargo.toml"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a full source checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env_target = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    proc = subprocess.Popen(build, cwd=ROOT, env=env_target, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=BUILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        fail("the benchmark build did not finish", 3)
    if code != 0:
        fail(f"the benchmark build failed with exit code {code}", code or 1)
    code = run([str(target / "release" / BINARY), *sys.argv[1:]], RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
