#!/usr/bin/env python3
"""Checks the committed perf trajectory, BENCH_trajectory.json.

    python3 tools/bench_trajectory.py BENCH_trajectory.json

The file is a list of records, one per measured change, only ever appended.
Each record holds the commit, where its numbers come from, and the machine
line it was measured on. Per workload it holds the seeds, the number of
alternating parent/change pairs (0 for runs of one tree), and per
end-to-end metric of BENCHMARK.json the median and interquartile range of
the change's runs, the parent's median and range, and the pairs the change
won (null when there were no pairs).

The script checks the shape of every record. It then flags each metric
that leaves its BENCHMARK.json bound in the worse direction, against the
previous record taken on the same machine line (nproc, compiler, build
type, CPU model; host.probe_ms is informational), and against the record's
own parent medians. Exits 1 on a shape error or a flag, 0 otherwise.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEY = ("nproc", "compiler", "build_type", "cpu")


def load_gates():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    return workloads, metrics


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_range(errors, where, value):
    if value is None:
        return
    if (not isinstance(value, list) or len(value) != 2 or not all(map(is_number, value))
            or value[0] > value[1]):
        errors.append(f"{where}: a range is [low, high] or null")


def check_record(errors, index, record, workloads, metrics):
    where = f"record {index}"
    if not isinstance(record, dict):
        errors.append(f"{where}: not an object")
        return
    for key in ("commit", "source"):
        if not isinstance(record.get(key), str) or not record[key]:
            errors.append(f"{where}: '{key}' must be a non-empty string")
    machine = record.get("machine")
    if not isinstance(machine, dict):
        errors.append(f"{where}: 'machine' must be an object")
    else:
        if not isinstance(machine.get("nproc"), int) or machine["nproc"] < 1:
            errors.append(f"{where}: machine.nproc must be a positive integer")
        for key in ("compiler", "build_type"):
            if not isinstance(machine.get(key), str):
                errors.append(f"{where}: machine.{key} must be a string")
        if machine.get("cpu") is not None and not isinstance(machine["cpu"], str):
            errors.append(f"{where}: machine.cpu must be a string or null")
        probe = machine.get("host_probe_ms")
        if probe is not None and not is_number(probe):
            errors.append(f"{where}: machine.host_probe_ms must be a number or null")
    results = record.get("workloads")
    if not isinstance(results, dict) or not results:
        errors.append(f"{where}: 'workloads' must be a non-empty object")
        return
    for workload, result in results.items():
        if workload not in workloads:
            errors.append(f"{where}: unknown workload '{workload}'")
            continue
        if not isinstance(result, dict):
            errors.append(f"{where}: {workload} must be an object")
            continue
        seeds = result.get("seeds")
        if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
            errors.append(f"{where}: {workload}.seeds must be a non-empty list of integers")
        pairs = result.get("pairs")
        if not isinstance(pairs, int) or pairs < 0:
            errors.append(f"{where}: {workload}.pairs must be a non-negative integer")
            pairs = 0
        entries = result.get("metrics")
        if not isinstance(entries, dict) or not entries:
            errors.append(f"{where}: {workload}.metrics must map metrics to entries")
            continue
        for metric, entry in entries.items():
            at = f"{where}: {workload}.{metric}"
            if metric not in metrics:
                errors.append(f"{at}: not an end_to_end metric of BENCHMARK.json")
                continue
            if not isinstance(entry, dict):
                errors.append(f"{at}: not an object")
                continue
            if not is_number(entry.get("median")) or entry["median"] < 0:
                errors.append(f"{at}: 'median' must be a non-negative number")
            check_range(errors, at + ".iqr", entry.get("iqr"))
            parent = entry.get("parent_median")
            if parent is not None and not is_number(parent):
                errors.append(f"{at}: 'parent_median' must be a number or null")
            check_range(errors, at + ".parent_iqr", entry.get("parent_iqr"))
            wins = entry.get("wins")
            if wins is not None and (not isinstance(wins, int) or not 0 <= wins <= pairs):
                errors.append(f"{at}: 'wins' must be null or an integer in [0, pairs]")


def worse_beyond_bound(metric, old, new):
    """True when `new` is worse than `old` by more than the metric's bound."""
    if old is None or new is None or old <= 0:
        return False
    if metric["better"] == "higher":
        return new < old * (1.0 - metric["bound"])
    return new > old * (1.0 + metric["bound"])


def machine_line(record):
    machine = record["machine"]
    return tuple(machine.get(key) for key in MACHINE_KEY)


def main(argv):
    if len(argv) != 2:
        print("usage: bench_trajectory.py BENCH_trajectory.json", file=sys.stderr)
        return 2
    workloads, metrics = load_gates()
    with open(argv[1]) as f:
        trajectory = json.load(f)
    errors = []
    records = trajectory.get("records") if isinstance(trajectory, dict) else None
    if not isinstance(records, list) or not records:
        errors.append("top level: 'records' must be a non-empty list")
        records = []
    for index, record in enumerate(records):
        check_record(errors, index, record, workloads, metrics)
    for error in errors:
        print("shape: " + error)
    if errors:
        return 1

    flags = []
    for index, record in enumerate(records):
        label = f"record {index} ({record['commit']})"
        previous = next((records[j] for j in range(index - 1, -1, -1)
                         if machine_line(records[j]) == machine_line(record)), None)
        for workload, result in record["workloads"].items():
            for name, entry in result["metrics"].items():
                metric = metrics[name]
                if worse_beyond_bound(metric, entry.get("parent_median"), entry["median"]):
                    flags.append(f"{label}: {workload}.{name} {entry['median']:.6g} against "
                                 f"its parent's {entry['parent_median']:.6g}")
                if previous is None:
                    continue
                before = previous["workloads"].get(workload, {}).get("metrics", {}).get(name)
                if before is not None and worse_beyond_bound(metric, before["median"],
                                                             entry["median"]):
                    flags.append(f"{label}: {workload}.{name} {entry['median']:.6g} against "
                                 f"{before['median']:.6g} in record {previous['commit']}")
        if previous is None:
            print(f"{label}: no earlier record on machine line {machine_line(record)}")
    for flag in flags:
        print("flag: " + flag + " (outside the BENCHMARK.json bound)")
    print(f"{len(records)} records, {len(flags)} flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
