#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 8 --trace 0

The build (Release, CMake) lives in $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. Build output goes to stderr;
the benchmark's last stdout line is the result JSON. Extra flags
(--quick, --flip-byte) pass through unchanged.
"""

import os
import signal
import subprocess
import sys


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "gopim_serve"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    if not os.path.isfile("perfbench/CMakeLists.txt"):
        sys.exit("perfbench: run from the repository root")
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    build(build_dir)
    port_dir = os.path.join(build_dir, "ports")
    os.makedirs(port_dir, exist_ok=True)

    args = sys.argv[1:]
    extra = ["--serve-bin", os.path.join(build_dir, "gopim_serve"),
             "--port-dir", port_dir]
    if "--workload" in args and args.count("--trace") and \
            args[args.index("--trace") + 1] == "1":
        workload = args[args.index("--workload") + 1]
        extra += ["--trace-out",
                  os.path.join(build_dir, "trace-" + workload + ".json")]
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    # A child, not an exec: an exec'd process would inherit the build's
    # reaped children, whose peak RSS (the compiler's) would then count
    # in router-zipf's peak_rss_mb. A signal to this script is passed on.
    child = subprocess.Popen([binary] + args + extra)
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, _: child.send_signal(signum))
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
