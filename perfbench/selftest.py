#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, runs the C++ unit checks, runs
the cheapest workload end to end and traced (printed metric names and units
must match BENCHMARK.json; per-layer metrics must be present and
non-negative, except obs.planes_ms, a signed difference of two pass times;
the trace report must carry the unattributed residual and the tracing
overhead), checks that the digest check rejects a perturbed input (another
seed's digest) and an unrecorded variant, that every variant has a recorded
digest, that each binary runs only its own --trace mode, and that the
benchmark refuses to run from a
directory holding only BENCHMARK.json and perfbench/. Takes about a minute
after the build.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import run

WORKLOAD = "studio_churn"  # The cheapest workload to set up and run.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_benchmark_json(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the six top-level keys")
    check(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(bench["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(bench["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    check(isinstance(bench["run_seconds"], int)
          and 1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(all(NAME_RE.match(n) for n in names) and
          len(names) == len(set(names)), "names valid and unique")
    check(all(UNIT_RE.match(m["unit"])
              for m in bench["end_to_end"] + bench["per_layer"]),
          "units valid")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"] for w in bench["workloads"]),
          "workloads have a one-line why")
    check(all(set(m) == {"name", "unit", "better", "bound"}
              and m["better"] in ("lower", "higher")
              and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "end-to-end metrics carry a bound <= 0.25")
    check(all(set(m) == {"name", "unit", "better"}
              and m["better"] in ("lower", "higher")
              for m in bench["per_layer"]), "per-layer metrics well formed")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"]
                                       for m in bench["end_to_end"]),
          "setup_s present, in s, lower is better, with the largest bound")


def run_bench(seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         WORKLOAD, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def digest_only(seed):
    out = subprocess.run(
        [run.BINARY, "--workload", WORKLOAD, "--seed", str(seed),
         "--digest-only"], stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip()


def main():
    bench = bench_json()
    check_benchmark_json(bench)

    run.build(("espk_perfbench", "espk_perfbench_traced",
               "espk_perfbench_selftest"))
    unit = subprocess.run([os.path.join(run.BUILD, "espk_perfbench_selftest")])
    check(unit.returncode == 0, "C++ unit checks")

    usage = subprocess.run([run.BINARY], stderr=subprocess.PIPE, text=True)
    listed = usage.stderr.split("workloads:")[-1].split()
    check(sorted(listed) == sorted(w["name"] for w in bench["workloads"]),
          "binary's workloads are BENCHMARK.json's workloads")

    for binary, other in ((run.BINARY, 1), (run.TRACED_BINARY, 0)):
        refused = subprocess.run(
            [binary, "--workload", WORKLOAD, "--seed", "1", "--seconds", "1",
             "--trace", str(other)], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        check(refused.returncode != 0 and not refused.stdout,
              f"{os.path.basename(binary)} refuses --trace {other}")

    code, lines, result = run_bench(seed=1, trace=0)
    check(code == 0 and result["correct"], "end-to-end run is correct")
    windows = re.search(r" windows=(\d+) ", "\n".join(lines))
    check(windows is not None and int(windows.group(1)) >= 100,
          "end-to-end run pools at least 100 windows")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result line has exactly correct/attempted/failed/metrics")
    check({n: m["unit"] for n, m in result["metrics"].items()} ==
          {m["name"]: m["unit"] for m in bench["end_to_end"]},
          "end-to-end metric names and units match BENCHMARK.json")
    check(all(m["value"] > 0 for m in result["metrics"].values()),
          "end-to-end metrics are positive")

    code, lines, result = run_bench(seed=1, trace=1)
    check(code == 0 and result["correct"], "traced run is correct")
    metrics = result["metrics"]
    check({n: m["unit"] for n, m in metrics.items()} ==
          {m["name"]: m["unit"] for m in bench["per_layer"]},
          "per-layer metric names and units match BENCHMARK.json")
    check(all(isinstance(m["value"], (int, float))
              and math.isfinite(m["value"]) for m in metrics.values()),
          "per-layer metrics present and finite")
    check(all(m["value"] >= 0 for n, m in metrics.items()
              if n != "obs.planes_ms"),
          "per-layer metrics other than obs.planes_ms are non-negative")
    report = "\n".join(lines)
    check("unattributed" in report and "tracing overhead" in report,
          "trace report prints the unattributed residual and the overhead")
    trace_file = os.path.join(run.BUILD, f"trace_{WORKLOAD}.json")
    with open(trace_file) as f:
        spans = json.load(f)["spans"]
    check(any(s["name"] == "window" and s["parent"] == -1 for s in spans)
          and all(s["end_ns"] >= s["start_ns"] for s in spans),
          "trace file holds window root spans")

    # The digest check must reject a perturbed input: seed 2's fleet
    # checked against what was recorded for seed 1.
    d1, d2 = digest_only(1), digest_only(2)
    check(d1 != d2, "different seeds give different digests")
    check(d1 == digest_only(1), "a seed gives the same digest twice")
    check(run.digest_failure(WORKLOAD, 1, d2, {WORKLOAD: {"1": d1}})
          is not None, "digest check fails on another seed's digest")
    check(run.digest_failure(WORKLOAD, 1, d1, {WORKLOAD: {"1": d1}}) is None,
          "digest check passes on the recorded digest")
    check(run.digest_failure(WORKLOAD, 1, d1, {}) is not None,
          "digest check fails on a variant with no recorded digest")
    recorded = run.load_digests()
    variants = {str(v) for v in range(run.SEED_VARIANTS)}
    check(all(variants <= set(recorded.get(w["name"], {}))
              for w in bench["workloads"]),
          "every variant of every workload has a recorded digest")
    check(recorded.get(WORKLOAD, {}).get("1") == d1,
          "seed 1 digest equals the recorded one")

    # From a directory holding only BENCHMARK.json and perfbench/, the
    # benchmark must fail without printing a result.
    stripped = os.path.join(run.BUILD, "selftest_stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), stripped)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=stripped, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "refuses to run without the system's sources")
    shutil.rmtree(stripped, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
