#!/usr/bin/env python3
"""Validate the repo's BENCH_*.json artifacts.

Every bench binary appends a machine-readable section to one of the
BENCH_*.json files via bench::update_bench_json. This checker is the
tier-1 guard that those artifacts stay well-formed: for each known
(file, section) pair it verifies that

  - every required key is present and has the expected JSON type,
  - every timed reading matches the section's "measured" flag: a
    positive number when true, null when false (a smoke run skips the
    timed legs, and a 0 there would read as a measurement), and
  - every gate key is true.

Files that do not exist are skipped (only the benches that have run
emit them), but a file that exists must contain at least one known
section and every known section it does contain must validate. Unknown
extra keys are allowed — benches grow keys over time and old artifacts
should not break the build — but a *missing* known key fails, which is
what catches a bench silently dropping telemetry.

Usage: check_bench.py [dir ...]
  Scans each directory (default: the current directory) for
  BENCH_*.json; ctest passes <build>/bench, where the bench smoke tests
  write. Exits non-zero on any validation failure or if no BENCH file is
  found anywhere.
"""

import json
import os
import sys

BOOL, NUM, STR, LIST, OBJECT = "bool", "num", "str", "list", "object"
# A timed reading: a positive number when the section's "measured" is
# true, null when it is false.
READING = "reading"

# Every gate key must hold true.
SCHEMAS = {
    ("BENCH_alloc.json", "steady_state"): {
        "keys": {
            "bench": STR,
            "smoke": BOOL,
            "measured": BOOL,
            "train_steps_per_s_pooled": READING,
            "train_steps_per_s_unpooled": READING,
            "train_speedup": READING,
            "search_steps_per_s_pooled": READING,
            "search_steps_per_s_unpooled": READING,
            "search_speedup": READING,
            "pool_hit_rate": READING,
            "steady_buffer_misses": NUM,
            "search_pool_free_bytes": NUM,
            "peak_rss_bytes": NUM,
        },
        "gates": {
            "throughput_pass": True,
            "train_zero_miss": True,
            "search_zero_miss": True,
            "bit_identical": True,
        },
    },
    ("BENCH_micro.json", "roofline"): {
        "keys": {
            "bench": STR,
            "smoke": BOOL,
            "avx2_compiled": BOOL,
            "avx2_available": BOOL,
            "fma_available": BOOL,
            "default_isa": STR,
            "peak_gflops": NUM,
            "bandwidth_gbs": NUM,
            "kernels": OBJECT,  # keyed by kernel name
            "matmul_speedup": NUM,
        },
        "gates": {
            "speedup_pass": True,
            "identity_pass": True,
            "trajectory_identical": True,
        },
    },
    ("BENCH_serve.json", "throughput"): {
        "keys": {
            "fast_mode": BOOL,
            "requests": NUM,
            "pool_size": NUM,
            "baseline_qps": NUM,
            "best_qps": NUM,
            "best_speedup": NUM,
            "speedup_floor": NUM,
        },
        "gates": {"pass": True},
    },
    ("BENCH_serve.json", "resilience"): {
        "keys": {
            "smoke": BOOL,
            "plain_qps": NUM,
            "storm_resolved_ratio": NUM,
            "storm_qps": NUM,
            "breaker_opens": NUM,
            "deadline_hit_ratio": NUM,
        },
        "gates": {"recovered": True, "all_gates_pass": True},
    },
    ("BENCH_campaign.json", "pareto"): {
        "keys": {
            "bench": STR,
            "smoke": BOOL,
            "k": NUM,
            "within_tolerance": NUM,
            "campaign_updates": NUM,
            "k_single_search_updates": NUM,
            "cost_ratio": NUM,
            "front_size": NUM,
            "front": LIST,
        },
        "gates": {
            "all_within_tolerance": True,
            "resume_bit_identical": True,
            "front_consistent": True,
        },
    },
    ("BENCH_fault.json", "fault_tolerance"): {
        "keys": {
            "fast_mode": BOOL,
            "samples": NUM,
            "clean_rmse_ms": NUM,
            "robust_rmse_ms": NUM,
            "rmse_ratio": NUM,
            "rmse_ratio_budget": NUM,
            "clean_kendall": NUM,
            "robust_kendall": NUM,
        },
        "gates": {"pass": True},
    },
}


def type_ok(value, tag, measured):
    if tag == BOOL:
        return isinstance(value, bool)
    if tag == NUM:
        # bool is an int subclass in Python; a bench emitting true where
        # a number belongs is a schema violation, not a number.
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tag == READING:
        if measured is False:
            return value is None
        return type_ok(value, NUM, measured) and value > 0
    if tag == STR:
        return isinstance(value, str)
    if tag == LIST:
        return isinstance(value, list)
    if tag == OBJECT:
        return isinstance(value, dict)
    raise AssertionError(f"unknown type tag {tag}")


def check_section(filename, section_name, section, schema, errors):
    where = f"{filename}[{section_name}]"
    if not isinstance(section, dict):
        errors.append(f"{where}: section is not a JSON object")
        return
    measured = section.get("measured")
    for key, tag in schema["keys"].items():
        if key not in section:
            errors.append(f"{where}: missing key '{key}'")
        elif not type_ok(section[key], tag, measured):
            if tag == READING:
                tag = "null" if measured is False else "a positive number"
            errors.append(
                f"{where}: key '{key}' should be {tag}, "
                f"got {json.dumps(section[key])[:60]}"
            )
    for key in schema["gates"]:
        if key not in section:
            errors.append(f"{where}: missing gate key '{key}'")
        elif section[key] is not True:
            errors.append(
                f"{where}: gate '{key}' is {json.dumps(section[key])}, "
                "expected true"
            )


def check_file(path, errors):
    filename = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            root = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{filename}: unreadable ({exc})")
        return 0
    if not isinstance(root, dict):
        errors.append(f"{filename}: top level is not a JSON object")
        return 0
    known = 0
    for (schema_file, section_name), schema in SCHEMAS.items():
        if schema_file != filename:
            continue
        if section_name in root:
            known += 1
            check_section(filename, section_name, root[section_name], schema,
                          errors)
    if known == 0:
        errors.append(
            f"{filename}: no known section found "
            f"(top-level keys: {sorted(root.keys())})"
        )
    return known


def main(argv):
    dirs = argv[1:] or [os.getcwd()]
    seen = set()
    errors = []
    checked_files = 0
    checked_sections = 0
    for directory in dirs:
        if not os.path.isdir(directory):
            errors.append(f"{directory}: not a directory")
            continue
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("BENCH_") and name.endswith(".json")):
                continue
            path = os.path.realpath(os.path.join(directory, name))
            if path in seen:
                continue
            seen.add(path)
            checked_files += 1
            checked_sections += check_file(path, errors)
            print(f"checked {path}")
    if checked_files == 0:
        errors.append(
            "no BENCH_*.json found in: " + ", ".join(dirs)
            + " (run the benches first)"
        )
    if errors:
        print(f"\nFAIL: {len(errors)} problem(s)")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(
        f"\nOK: {checked_sections} section(s) across "
        f"{checked_files} file(s) validate"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
