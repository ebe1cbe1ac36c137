#!/usr/bin/env python3
"""Self-test of the benchmark, at a smoke budget.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that:
  * the benchmark's own unit tests pass (fidelity reads exactly 0 when
    the serial engine is compared with itself, among others);
  * every workload in BENCHMARK.json emits every declared end-to-end
    metric (--trace 0) and every declared per-layer metric (--trace 1),
    each with its declared unit, and passes its output checks;
  * the command exits non-zero, reporting "correct": false, when a check
    fails (--inject-fault corrupts one run's metrics);
  * the simulated-metrics digest of each serial workload matches a plain
    cluster-sim run with the same seed and budget.
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ["--manifest-path", "perfbench/Cargo.toml"]
SEED = "3"


def run(cmd):
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


def bench(workload, trace, *extra):
    p = run(
        ["cargo", "run", "--release", "--offline", "--quiet", *MANIFEST, "--"]
        + ["--workload", workload, "--seed", SEED, "--seconds", "0.4"]
        + ["--trace", str(trace), "--smoke", *extra]
    )
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload}: no output\n{p.stderr}")
    return p.returncode, p.stdout, json.loads(lines[-1])


def fnv1a(text):
    h = 0xCBF29CE484222325
    for b in text.encode():
        h = ((h ^ b) * 0x100000001B3) % (1 << 64)
    return h


def cluster_sim_digest(scenario, requests):
    p = run(
        ["cargo", "run", "--release", "--offline", "--quiet", "-p", "bnb-experiments"]
        + ["--bin", "cluster-sim", "--", "--scenario", scenario, "--seed", SEED]
        + ["--requests", str(requests)]
    )
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("== ")) + 1
    end = next(i for i, l in enumerate(lines) if l.startswith("   ["))
    return fnv1a("\n".join(lines[start:end]).rstrip())


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    p = run(["cargo", "test", "--release", "--offline", "--quiet", *MANIFEST])
    expect(p.returncode == 0, "unit tests pass")

    for w in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, out, result = bench(w, trace)
            expect(rc == 0, f"{w} --trace {trace}: exit code 0")
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{w} --trace {trace}: result keys",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{w} --trace {trace}: output checks pass",
            )
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{w} --trace {trace}: every declared metric, with its unit")
            if trace == 0 and "serial engine" in out:
                requests = int(re.search(r", (\d+) requests,", out).group(1))
                digest = int(re.search(r"digest ([0-9a-f]{16})", out).group(1), 16)
                scenario = re.search(r"\(scenario ([\w-]+),", out).group(1)
                expect(
                    digest == cluster_sim_digest(scenario, requests),
                    f"{w}: digest matches cluster-sim at {requests} requests",
                )

    w = spec["workloads"][0]["name"]
    rc, _, result = bench(w, 0, "--inject-fault")
    expect(rc != 0 and not result["correct"] and result["failed"] >= 1,
           f"{w} --inject-fault: failed check fails the command")

    if failures:
        sys.exit(f"{len(failures)} self-test check(s) failed")
    print("self-test passed")


if __name__ == "__main__":
    main()
