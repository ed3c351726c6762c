#!/usr/bin/env python3
"""Validate the repo's BENCH_*.json artifacts.

Every bench binary appends a machine-readable section to one of the
BENCH_*.json files via bench::update_bench_json. This checker is the
tier-1 guard that those artifacts stay well-formed: for each known
(file, section) pair it verifies that

  - every required key is present and has the expected JSON type, and
  - every gate key holds a passing value (booleans must be true; the
    train-throughput speedup gate must be "pass" or an explicit
    skipped_* verdict, never "fail").

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

# Gate values: True means "boolean key that must be true".
# A set of strings means "string key whose value must be in the set".
SCHEMAS = {
    ("BENCH_plan.json", "plan_compile"): {
        "keys": {
            "bench": STR,
            "smoke": BOOL,
            "steps_per_s_dynamic": NUM,
            "steps_per_s_planned": NUM,
            "speedup": NUM,
            "exec_heap_allocs": NUM,
            "exec_pool_ops": NUM,
            "steady_heap_allocs": NUM,
            "steady_pool_misses": NUM,
            "steady_pool_hits": NUM,
            "steady_plan_hits": NUM,
            "roundtrip_specs": NUM,
            "plan_hits": NUM,
            "plan_misses": NUM,
            "plan_compiles": NUM,
            "plan_fused_ops": NUM,
            "plan_arena_bytes": NUM,
        },
        "gates": {
            "throughput_pass": True,
            "zero_overhead": True,
            "search_bit_identical": True,
            "roundtrip_bit_identical": True,
            "roundtrip_cold_hits": True,
            "predictor_bit_identical": True,
        },
    },
    ("BENCH_train.json", "throughput"): {
        "keys": {
            "bench": STR,
            "smoke": BOOL,
            "steps_per_s_serial": NUM,
            "speedup_at_4_threads": NUM,
            "hw_threads": NUM,
            "search_s_serial": NUM,
            "search_s_4_threads": NUM,
            "search_s_planned": NUM,
            "plan_hits": NUM,
            "plan_misses": NUM,
            "plan_compiles": NUM,
            "plan_fused_ops": NUM,
            "plan_arena_bytes": NUM,
            "pool_hit_rate": NUM,
            "pool_misses": NUM,
            "pool_steady_misses": NUM,
            "pool_steady_hit_rate": NUM,
            "peak_rss_bytes": NUM,
        },
        "gates": {
            "bit_identical": True,
            "pool_steady_zero_miss": True,
            "speedup_gate": {"pass", "skipped_smoke", "skipped_low_core"},
        },
    },
    ("BENCH_alloc.json", "steady_state"): {
        "keys": {
            "bench": STR,
            "smoke": BOOL,
            "train_steps_per_s_pooled": NUM,
            "train_steps_per_s_unpooled": NUM,
            "train_speedup": NUM,
            "search_steps_per_s_pooled": NUM,
            "search_steps_per_s_unpooled": NUM,
            "search_speedup": NUM,
            "pool_hit_rate": NUM,
            "steady_buffer_misses": NUM,
            "steady_node_misses": NUM,
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


def type_ok(value, tag):
    if tag == BOOL:
        return isinstance(value, bool)
    if tag == NUM:
        # bool is an int subclass in Python; a bench emitting true where
        # a number belongs is a schema violation, not a number.
        return isinstance(value, (int, float)) and not isinstance(value, bool)
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
    for key, tag in schema["keys"].items():
        if key not in section:
            errors.append(f"{where}: missing key '{key}'")
        elif not type_ok(section[key], tag):
            errors.append(
                f"{where}: key '{key}' should be {tag}, "
                f"got {json.dumps(section[key])[:60]}"
            )
    for key, expect in schema["gates"].items():
        if key not in section:
            errors.append(f"{where}: missing gate key '{key}'")
            continue
        value = section[key]
        if expect is True:
            if value is not True:
                errors.append(
                    f"{where}: gate '{key}' is {json.dumps(value)}, "
                    "expected true"
                )
        else:  # set of allowed strings
            if value not in expect:
                allowed = "|".join(sorted(expect))
                errors.append(
                    f"{where}: gate '{key}' is {json.dumps(value)}, "
                    f"expected one of {allowed}"
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
