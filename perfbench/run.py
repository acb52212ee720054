#!/usr/bin/env python3
"""Repository benchmark: host cost per delivered packet on fleet workloads.

Builds perfbench/ (which compiles the system from ../src) into .bench_build/
at the repository root, runs one workload through the espk_perfbench
binary (espk_perfbench_traced for --trace 1), checks the fleet's observable
digest against perfbench/digests.json and prints one JSON result line as
the last line of standard output:

    python3 perfbench/run.py --workload fleet_raw_10k --seed 1 \
        --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
run, which prints the per-layer metrics and a trace report, and writes its
spans to .bench_build/trace_<workload>.json.

Each workload has 64 input variants (SEED_VARIANTS), all with recorded
digests: --seed n runs variant n mod 64, so every seed is checked against
a recorded digest.

    python3 perfbench/run.py --record-digests 0-63 [--workload <name>]

records the digests of the given variants into perfbench/digests.json.
See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "espk_perfbench")
TRACED_BINARY = os.path.join(BUILD, "espk_perfbench_traced")
DIGESTS = os.path.join(HERE, "digests.json")
SEED_VARIANTS = 64  # Variants 0-63 are recorded in digests.json.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets=("espk_perfbench", "espk_perfbench_traced")):
    """Configures (once) and builds `targets`; build output goes to
    stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", *targets, "-j", "4"],
        check=True, stdout=sys.stderr)


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def digest_failure(workload, variant, digest, recorded):
    """None if `digest` is what was recorded for (workload, variant); else
    the failure message."""
    expected = recorded.get(workload, {}).get(str(variant))
    if expected is None:
        return (f"no digest recorded for {workload} variant {variant}; run "
                f"--record-digests {variant}-{variant}")
    if expected == digest:
        return None
    return (f"digest {digest} for {workload} variant {variant} does not "
            f"match the recorded {expected}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run_workload(workload, seed, seconds, trace):
    cmd = [TRACED_BINARY if trace else BINARY, "--workload", workload,
           "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace_{workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"espk_perfbench printed nothing (exit {proc.returncode})")
        return None
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"espk_perfbench ended without a result line (exit "
            f"{proc.returncode}): {lines[-1]}")
        return None
    result["exit_code"] = proc.returncode
    return result


def record_digests(spec, workloads):
    lo, _, hi = spec.partition("-")
    variants = range(int(lo), int(hi or lo) + 1)
    if not set(variants) <= set(range(SEED_VARIANTS)):
        raise ValueError(f"variants are 0-{SEED_VARIANTS - 1}")
    recorded = load_digests()
    for workload in workloads:
        for variant in variants:
            out = subprocess.run(
                [BINARY, "--workload", workload, "--seed", str(variant),
                 "--digest-only"],
                stdout=subprocess.PIPE, text=True, check=True,
                timeout=RUN_TIMEOUT_S)
            digest = out.stdout.strip()
            recorded.setdefault(workload, {})[str(variant)] = digest
            log(f"{workload} variant {variant}: {digest}")
    with open(DIGESTS, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="LO-HI")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.record_digests:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        record_digests(args.record_digests,
                       [args.workload] if args.workload else names)
        return 0
    if not args.workload:
        parser.error("--workload is required")

    variant = args.seed % SEED_VARIANTS
    result = run_workload(args.workload, variant, args.seconds, args.trace)
    if result is None:
        return 1
    failures = list(result["failures"])
    if result["exit_code"] != 0 and not failures:
        failures.append(f"espk_perfbench exited {result['exit_code']}")
    failure = digest_failure(args.workload, variant, result["digest"],
                             load_digests())
    if failure:
        failures.append(failure)
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        failures.append(f"metrics {sorted(got.items())} do not match "
                        f"BENCHMARK.json {sorted(want.items())}")
    for f in failures:
        log(f"FAIL: {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
