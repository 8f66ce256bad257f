#!/usr/bin/env python3
"""Repository benchmark: builds lyrabench from source and runs one workload.

    python3 lyrabench/run.py --workload sim_lyra --seed 1 --seconds 20 --trace 0
    python3 lyrabench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
engine libraries and the lyrabench binary under .bench_build/ (Release);
later calls only re-check the build. The binary's own lines (machine and build, per-run
details, the workload-specific metrics, the traced ledger) are passed
through, and the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics (a layer a workload does not exercise reads 0).

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lyrabench")
BINARY = os.path.join(BUILD_DIR, "lyrabench")
PINS = os.path.join(HERE, "pinned_outcomes.txt")
RUN_TIMEOUT_S = 170


def fail(message):
    print("lyrabench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to lyrabench/; run from a checkout")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    steps = ["cmake", "--build", BUILD_DIR, "--target", "lyrabench", "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def source_identity():
    """The commit when run from a git work tree, and always a digest of the
    sources the binary was built from (checkouts need not be git trees)."""
    commit = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "lyrabench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; returns its result object (never prints it)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--pins", PINS]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail("%s exited with status %d" % (workload, proc.returncode))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail("%s: %s measured in %s, BENCHMARK.json says %s"
                     % (workload, name, measured[name]["unit"], unit))
            metrics[name] = measured[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            fail("%s did not report end-to-end metric %s" % (workload, name))
    extra = sorted(set(measured) - set(metrics))
    if extra:
        fail("%s reported metrics missing from BENCHMARK.json: %s"
             % (workload, ", ".join(extra)))
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    # "all" runs the workloads of BENCHMARK.json. Any other name goes to the
    # binary, which also runs sim_afs and svc_ingest (see README.md) and
    # rejects unknown names.
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]

    build()
    commit, digest = source_identity()
    print("source: " + json.dumps({"commit": commit, "source_digest": digest,
                                   "seed": args.seed}))
    sys.stdout.flush()

    results = {w: run_workload(spec, w, args.seed, args.seconds, args.trace)
               for w in workloads}
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
