#!/usr/bin/env python3
"""Compare two sets of search_e2e runs; validate reports; write a baseline.

    python3 bench_e2e/e2e_compare.py PARENT CHANGE
    python3 bench_e2e/e2e_compare.py --validate REPORT.json ...
    python3 bench_e2e/e2e_compare.py --write-baseline OUT DIR_A DIR_B SMOKE.json

PARENT and CHANGE are each a directory of reports written by
`search_e2e --out`, a single report (one workload or `--workload all`), or
a baseline file (bench_e2e/baseline/e2e.json; pick its set with
--parent-set / --change-set). Runs are paired by (workload, seed).

Metric names, units, directions and bounds come from metrics.json, the
catalogue next to this file. For every (workload, metric) the tool
prints each side's median and quartiles and a verdict, following the
repository's rule for claims:
  identical    every pair reads the same;
  regression   the change's median is worse than the parent's by more
               than the metric's bound;
  unresolved   the parent's own spread (IQR) is wider than the bound, and
               not every change run beats every parent run;
  gain         at least 9 of every 10 pairs favour the change (ties count
               for neither) and the medians differ by more than the
               parent's IQR;
  same         none of the above.
Paired metrics (fixed by the seed: lat_gap_pct, valid_acc, error_rate)
are judged by the median pair difference instead of the spread across
seeds. A comparison needs at least 10 pairs, run alternately (parent
first in one pair, change first in the next). Exit status 1 on a
regression, a failed correctness check, or an invalid report.

--validate checks reports against the catalogue, and BENCHMARK.json
(next to this directory) against the catalogue.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOGUE = os.path.join(HERE, "metrics.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10


def load_catalogue(path=CATALOGUE):
    with open(path) as f:
        return json.load(f)


def validate(doc, where, catalogue):
    """Schema rules of a search_e2e report: every catalogue name present;
    a metric the workload does not measure is null; under
    "measured": true every timing the workload measures is a non-zero
    number (end-to-end) and an idle layer reads 0 (traced); under
    "measured": false every timing is null."""
    problems = []
    workload = doc.get("workload")
    measured = doc.get("measured")
    timing = set(catalogue["timing_units"])
    sections = [("metrics", catalogue["end_to_end"])]
    if doc.get("traced"):
        sections.append(("layers", catalogue["per_layer"]))
    for section, entries in sections:
        values = doc.get(section, {})
        for m in entries:
            name = m["name"]
            if name not in values:
                problems.append("%s: missing %s" % (where, name))
                continue
            value = values[name].get("value")
            on = workload in m["on"]
            idle = workload in m.get("idle", [])
            if not on and not idle and value is not None:
                problems.append("%s: %s is not measured by %s but reads %r"
                                % (where, name, workload, value))
            if idle and value != 0:
                problems.append("%s: %s of an idle layer reads %r"
                                % (where, name, value))
            if m["unit"] not in timing:
                continue
            if not measured and value is not None:
                problems.append("%s: %s is not null in an unmeasured run"
                                % (where, name))
            if (measured and on and section == "metrics"
                    and (value == 0 or (value is None
                                        and not m.get("nullable")))):
                problems.append("%s: %s has no measured value"
                                % (where, name))
    return problems


def check_benchmark_json(catalogue, path=BENCHMARK):
    """BENCHMARK.json gates a subset of the catalogue. Each gated
    end-to-end metric must be measured by every workload, with the
    catalogue's unit, direction and relative bound; each per-layer metric
    must read a number on every workload (measured there, or idle)."""
    if not os.path.exists(path):
        return []
    with open(path) as f:
        bench = json.load(f)
    problems = []
    workloads = set(catalogue["workloads"])
    if {w["name"] for w in bench["workloads"]} != workloads:
        problems.append("BENCHMARK.json: workloads differ from the catalogue")
    for section in ("end_to_end", "per_layer"):
        known = {m["name"]: m for m in catalogue[section]}
        for gated in bench[section]:
            m = known.get(gated["name"])
            if m is None:
                problems.append("BENCHMARK.json: %s is not in the catalogue"
                                % gated["name"])
                continue
            if (gated["unit"], gated["better"]) != (m["unit"], m["better"]):
                problems.append("BENCHMARK.json: %s unit or direction "
                                "differs from the catalogue" % m["name"])
            if section == "end_to_end" and (
                    m["kind"] != "rel" or gated["bound"] != m["bound"]
                    or set(m["on"]) != workloads):
                problems.append("BENCHMARK.json: %s bound differs from the "
                                "catalogue, or not every workload measures "
                                "it" % m["name"])
            if (section == "per_layer"
                    and set(m["on"]) | set(m["idle"]) != workloads):
                problems.append("BENCHMARK.json: %s has no reading on some "
                                "workload" % m["name"])
    return problems


def reports_in(path):
    """Every single-workload report in a file or directory (an `all`
    report contributes one per workload)."""
    names = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    out = []
    for name in names:
        with open(name) as f:
            doc = json.load(f)
        subs = doc["workloads"].values() if "workloads" in doc else [doc]
        out += [(name, sub) for sub in subs]
    return out


def run_of(doc):
    """The part of a report a comparison needs (a baseline keeps these)."""
    return {"workload": doc.get("workload"), "seed": doc.get("seed"),
            "started_at": doc.get("env", {}).get("started_at"),
            "measured": doc.get("measured"), "correct": doc.get("correct"),
            "metrics": {k: v.get("value")
                        for k, v in doc.get("metrics", {}).items()}}


def load_side(path, set_name, catalogue):
    """Runs from reports (validated first) or from a baseline's set."""
    if not os.path.isdir(path):
        with open(path) as f:
            doc = json.load(f)
        if "sets" in doc:
            sets = {s["name"]: s["runs"] for s in doc["sets"]}
            chosen = set_name or doc["sets"][0]["name"]
            if chosen not in sets:
                sys.exit("%s has no set %r (sets: %s)"
                         % (path, chosen, ", ".join(sorted(sets))))
            return sets[chosen]
    reports = reports_in(path)
    problems = [p for name, doc in reports
                for p in validate(doc, name, catalogue)]
    if problems:
        sys.exit("invalid report(s):\n  " + "\n  ".join(problems))
    return [run_of(doc) for _, doc in reports]


def write_baseline(out, paths, catalogue):
    """Baseline = the stamp of the host and build, every fingerprint seen,
    and one set of runs per directory (named A, B, ...). Files add
    fingerprints only (e.g. a smoke report)."""
    stamp, prints, sets = None, {}, []
    for path in paths:
        reports = reports_in(path)
        for name, doc in reports:
            for problem in validate(doc, name, catalogue):
                sys.exit("invalid report: " + problem)
            env = doc.get("env", {})
            this = {k: env.get(k) for k in
                    ("nproc", "isa", "compiler", "build_type", "git_rev")}
            if doc.get("measured"):
                if stamp is None:
                    stamp = this
                elif this != stamp:
                    sys.exit("%s was measured on another host or build: %s"
                             % (name, this))
            for key, value in doc.get("fingerprints", {}).items():
                if prints.setdefault(key, value) != value:
                    sys.exit("fingerprint %s differs between runs" % key)
        if os.path.isdir(path):
            sets.append({"name": chr(ord("A") + len(sets)),
                         "runs": [run_of(doc) for _, doc in reports]})
    with open(out, "w") as f:
        json.dump({"schema": "search_e2e/baseline/1", "stamp": stamp,
                   "fingerprints": dict(sorted(prints.items())),
                   "sets": sets}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s: %d set(s), %d fingerprint(s)"
          % (out, len(sets), len(prints)))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(parent, change, catalogue):
    """Yields one row per (workload, metric)."""
    key = lambda r: (r["workload"], r["seed"])
    p_by = {key(r): r for r in parent}
    c_by = {key(r): r for r in change}
    for workload in catalogue["workloads"]:
        keys = sorted(k for k in p_by if k[0] == workload and k in c_by)
        pairs = [(p_by[k], c_by[k]) for k in keys]
        if not pairs:
            continue
        # Which side ran first in each pair; it should alternate.
        order = [(p.get("started_at") or 0) < (c.get("started_at") or 0)
                 for p, c in pairs]
        alternating = all(a != b for a, b in zip(order, order[1:]))
        for m in catalogue["end_to_end"]:
            name, bound, kind = m["name"], m["bound"], m["kind"]
            paired = m.get("paired", False)
            if workload not in m["on"]:
                continue
            both = [(p["metrics"].get(name), c["metrics"].get(name))
                    for p, c in pairs]
            both = [(a, b) for a, b in both if a is not None and b is not None]
            if not both:
                continue
            pv = [a for a, _ in both]
            cv = [b for _, b in both]
            p_q1, p_med, p_q3 = quartiles(pv)
            c_q1, c_med, c_q3 = quartiles(cv)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (c_med - p_med)  # > 0: the change is worse
            if paired:
                # Worse by the median pair difference; no noise to resolve.
                worse = statistics.median(sign * (b - a) for a, b in both)
            scale = abs(p_med) if kind == "rel" else 1.0
            worse_share = worse / scale if scale else 0.0
            iqr_share = (p_q3 - p_q1) / scale if scale else 0.0
            wins = sum(1 for a, b in both if sign * (b - a) < 0)
            all_better = all(sign * (b - a) < 0 for a in pv for b in cv)
            if all(a == b for a, b in both):
                verdict = "identical"
            elif len(both) < MIN_PAIRS:
                verdict = "too few pairs"
            elif not paired and iqr_share > bound and not all_better:
                verdict = "unresolved"
            elif worse_share > bound:
                verdict = "REGRESSION"
            elif wins >= 0.9 * len(both) and (
                    paired or -worse > (p_q3 - p_q1)):
                verdict = "gain"
            else:
                verdict = "same"
            yield {"workload": workload, "metric": name, "unit": m["unit"],
                   "pairs": len(both), "alternating": alternating,
                   "parent": (p_med, p_q1, p_q3),
                   "change": (c_med, c_q1, c_q3),
                   "worse": worse_share, "bound": bound, "kind": kind,
                   "wins": wins, "verdict": verdict}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--validate", action="store_true",
                        help="check report schemas instead of comparing")
    parser.add_argument("--write-baseline", metavar="OUT",
                        help="write a baseline from report directories "
                             "(one set each) and files (fingerprints only)")
    parser.add_argument("--parent-set", help="set to use from a baseline")
    parser.add_argument("--change-set", help="set to use from a baseline")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    catalogue = load_catalogue()

    if args.validate:
        problems = check_benchmark_json(catalogue)
        reports = [r for path in args.paths for r in reports_in(path)]
        for name, doc in reports:
            problems += validate(doc, name, catalogue)
        for p in problems:
            print(p)
        print("%d report(s), %d problem(s)" % (len(reports), len(problems)))
        return 1 if problems else 0

    if args.write_baseline:
        write_baseline(args.write_baseline, args.paths, catalogue)
        return 0

    if len(args.paths) != 2:
        parser.error("compare needs exactly PARENT and CHANGE")
    parent = load_side(args.paths[0], args.parent_set, catalogue)
    change = load_side(args.paths[1], args.change_set, catalogue)
    bad = [r for r in parent + change if r.get("measured") is False]
    if bad:
        print("refusing to compare %d unmeasured (smoke or flagged) run(s)"
              % len(bad))
        return 1
    failed = [r for r in change if r.get("correct") is False]

    status = 1 if failed else 0
    current = None
    for row in compare(parent, change, catalogue):
        if row["workload"] != current:
            current = row["workload"]
            print("\n%s  (%d pairs%s)" % (
                current, row["pairs"],
                "" if row["alternating"] else ", NOT alternating"))
            print("  %-14s %-31s %-31s %8s %8s %5s  %s" % (
                "metric", "parent median [q1, q3]", "change median [q1, q3]",
                "worse", "bound", "wins", "verdict"))
        fmt = lambda t: "%.5g [%.5g, %.5g]" % t
        pct = lambda x: ("%+.1f%%" % (100 * x)) if row["kind"] == "rel" \
            else "%+.3g" % x
        print("  %-14s %-31s %-31s %8s %8s %5s  %s" % (
            row["metric"], fmt(row["parent"]), fmt(row["change"]),
            pct(row["worse"]), pct(row["bound"]),
            "%d/%d" % (row["wins"], row["pairs"]), row["verdict"]))
        if row["verdict"] == "REGRESSION":
            status = 1
    if failed:
        print("\n%d change run(s) failed a correctness check" % len(failed))
    return status


if __name__ == "__main__":
    sys.exit(main())
