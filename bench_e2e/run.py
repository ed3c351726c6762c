#!/usr/bin/env python3
"""Build and run the search_e2e benchmark from the root of a source tree.

    python3 bench_e2e/run.py --workload search_paper --seed 1 --seconds 15 --trace 0

Configures and builds bench_e2e/ (the LightNAS libraries plus the
search_e2e binary) into $CARGO_TARGET_DIR or .bench_build/, then runs one
workload. The report goes to <build>/e2e_<workload>_<seed>.json and, with
--trace 1, the span trace to <build>/trace_<workload>.json. Build output
goes to stderr. The last line of stdout is one JSON object with the
BENCHMARK.json metrics, read from the report: the end-to-end ones
untraced, the per-layer ones traced.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import e2e_compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    if subprocess.call(["cmake", "--build", build_dir, "--target",
                        "search_e2e", "-j", jobs], stdout=sys.stderr,
                       env=env) != 0:
        return None
    return os.path.join(build_dir, "search_e2e")


def result(report, traced):
    """The report's BENCHMARK.json metrics, by name. A report that breaks
    the catalogue's schema is not correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if traced else "end_to_end"]
    problems = e2e_compare.validate(report, "report",
                                    e2e_compare.load_catalogue())
    for p in problems:
        print("run.py: " + p, file=sys.stderr)
    values = report["layers" if traced else "metrics"]
    metrics = {m["name"]: {"value": values.get(m["name"], {}).get("value"),
                           "unit": m["unit"]} for m in spec}
    return {"correct": report["correct"] and not problems,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "search_e2e")
    binary = build(build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    out = os.path.join(build_dir,
                       "e2e_%s_%d.json" % (args.workload, args.seed))
    if os.path.exists(out):
        os.remove(out)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", out, "--scratch", os.path.join(build_dir, "scratch")]
    baseline = os.path.join(HERE, "baseline", "e2e.json")
    if os.path.exists(baseline):
        command += ["--baseline", baseline]
    if args.trace == "1":
        command += ["--trace",
                    os.path.join(build_dir, "trace_%s.json" % args.workload)]
    sys.stdout.flush()
    status = subprocess.call(command, cwd=ROOT)
    if not os.path.exists(out):
        print("run.py: search_e2e wrote no report", file=sys.stderr)
        return status or 1
    with open(out) as f:
        line = result(json.load(f), args.trace == "1")
    print(json.dumps(line))
    return status or (0 if line["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
