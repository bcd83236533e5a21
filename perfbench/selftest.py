#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It runs a short (--quick) mode of every workload, untraced and traced,
and checks that:
  - every run is correct and prints exactly the metric names and units
    BENCHMARK.json declares for its mode;
  - the latency limit and arrival rate printed by each run are the ones
    the workload's "why" in BENCHMARK.json states;
  - flipping one byte of a response makes the output check fail;
  - span coverage is computed, and within 5% of the traced wall time;
  - the exact work counters repeat bit for bit at a fixed seed;
  - a second workload seed runs end to end.
Exit status 0 means every check passed.
"""

import json
import re
import subprocess
import sys

EXACT = ["gcn.profile_vertices", "sim.events", "isa.commands", "isa.bytes",
         "cluster.shard_imbalance", "serve.evictions", "serve.hit_ratio"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--quick", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        check(False, "%s exits 0" % " ".join(cmd[1:]))
        return None, ""
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def main():
    bench = json.load(open("BENCHMARK.json"))
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in bench["workloads"]:
        name, why = workload["name"], workload["why"]
        for trace in (0, 1):
            result, out = run(name, 7, trace)
            if result is None:
                continue
            tag = "%s --trace %d" % (name, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, tag + ": correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace], tag + ": metric names and units")
            if trace == 0:
                limit = re.search(r"limit (\d+) ms", why).group(1)
                check("latency limit %s ms" % limit in out,
                      tag + ": latency limit matches BENCHMARK.json")
                rate = re.search(r"(\d+) req/s", why)
                if rate:
                    check("open loop at %s req/s" % rate.group(1) in out,
                          tag + ": arrival rate matches BENCHMARK.json")
            else:
                coverage = result["metrics"]["bench.span_coverage"]["value"]
                check(0.95 <= coverage <= 1.0,
                      tag + ": span coverage %.4f" % coverage)
                again, _ = run(name, 7, 1)
                if again:
                    same = all(result["metrics"][k]["value"] ==
                               again["metrics"][k]["value"] for k in EXACT)
                    check(same, tag + ": exact counters repeat")
        second, _ = run(name, 8, 0)
        check(second is not None and second["correct"],
              name + ": second seed runs end to end")

    for name in ("serve-miss", "serve-zipf", "router-zipf"):
        flipped, _ = run(name, 7, 0, "--flip-byte")
        check(flipped is not None and not flipped["correct"]
              and flipped["failed"] >= 1,
              name + ": a flipped response byte fails the output check")

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
