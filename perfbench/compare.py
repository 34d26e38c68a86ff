#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric (stdlib only).

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds one file per run: the standard output of
`python3 perfbench/run.py --workload W ...`, saved as a .out file whose name
starts with the workload's name (for example range_miss_wire-seed3.out).
The last line of each file is the run's result JSON; other files are
ignored.

For untraced runs it prints, per workload and end-to-end metric, each side's
median and quartiles, the change of the median, and a verdict against the
metric's bound in BENCHMARK.json:
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, and not every head run beats every base run
  worse       the head median is worse than the base median by more than
              the bound
  better      the head median is better by more than the bound
  ok          within the bound
For traced runs it prints the per-layer medians of both sides and their
change. Failed or incorrect runs are reported and left out.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path=os.path.join(os.path.dirname(HERE), "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def parse_result(text):
    """The result JSON on the last non-empty line of a run's output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty run output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("not a result line: %r" % lines[-1][:80])
    return result


def workload_of(filename, workloads):
    """The longest workload name the file name starts with, or None."""
    matches = [w for w in workloads if filename.startswith(w)]
    return max(matches, key=len) if matches else None


def group_runs(named_texts, spec):
    """{(workload, traced): [metrics dict, ...]} plus a list of problems."""
    workloads = [w["name"] for w in spec["workloads"]]
    layer_names = {m["name"] for m in spec["per_layer"]}
    groups = {}
    problems = []
    for name, text in sorted(named_texts):
        workload = workload_of(name, workloads)
        if workload is None:
            continue
        try:
            result = parse_result(text)
        except ValueError as error:
            problems.append("%s: %s" % (name, error))
            continue
        if not result["correct"] or result["failed"]:
            problems.append("%s: correct=%s failed=%s of %s" % (
                name, result["correct"], result["failed"],
                result["attempted"]))
            continue
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        traced = bool(metrics) and set(metrics) <= layer_names
        groups.setdefault((workload, traced), []).append(metrics)
    return groups, problems


def read_dir(path):
    named = []
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if name.endswith(".out") and os.path.isfile(full):
            with open(full) as f:
                named.append((name, f.read()))
    return named


def summarize(values):
    """(median, q1, q3, spread) as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict(base, head, bound, better):
    """Verdict of one end-to-end metric; see the module docstring."""
    b_med, _, _, b_spread = summarize(base)
    h_med, _, _, h_spread = summarize(head)
    sign = 1.0 if better == "lower" else -1.0
    change = (h_med - b_med) / abs(b_med) if b_med else float("inf")
    if max(b_spread, h_spread) > bound:
        if all(sign * h < sign * b for h in head for b in base):
            return "better", change
        return "unresolved", change
    if sign * change > bound:
        return "worse", change
    if sign * change < -bound:
        return "better", change
    return "ok", change


def fmt(value):
    return "%.4g" % value


def compare(base_groups, head_groups, spec, out=sys.stdout):
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base = base_groups.get((workload, False), [])
        head = head_groups.get((workload, False), [])
        if base and head:
            print("%s  (runs: base %d, head %d)" % (workload, len(base),
                                                    len(head)), file=out)
            print("  %-14s %-30s %-30s %8s %13s %6s  %s" % (
                "metric", "base median [q1, q3]", "head median [q1, q3]",
                "change", "spread b/h", "bound", "verdict"), file=out)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                b_vals = [m[name] for m in base if name in m]
                h_vals = [m[name] for m in head if name in m]
                if not b_vals or not h_vals:
                    print("  %-14s missing" % name, file=out)
                    continue
                b_med, b_q1, b_q3, b_sp = summarize(b_vals)
                h_med, h_q1, h_q3, h_sp = summarize(h_vals)
                word, change = verdict(b_vals, h_vals, metric["bound"],
                                       metric["better"])
                print("  %-14s %-30s %-30s %+7.1f%% %6.1f/%5.1f%% %5.0f%%  %s"
                      % (name,
                         "%s [%s, %s]" % (fmt(b_med), fmt(b_q1), fmt(b_q3)),
                         "%s [%s, %s]" % (fmt(h_med), fmt(h_q1), fmt(h_q3)),
                         100 * change, 100 * b_sp, 100 * h_sp,
                         100 * metric["bound"], word), file=out)
        base = base_groups.get((workload, True), [])
        head = head_groups.get((workload, True), [])
        if base and head:
            print("%s traced  (runs: base %d, head %d)" % (
                workload, len(base), len(head)), file=out)
            for metric in spec["per_layer"]:
                name = metric["name"]
                b_vals = [m[name] for m in base if name in m]
                h_vals = [m[name] for m in head if name in m]
                if not b_vals or not h_vals:
                    continue
                b_med = statistics.median(b_vals)
                h_med = statistics.median(h_vals)
                change = ("%+.1f%%" % (100 * (h_med - b_med) / abs(b_med))
                          if b_med else "")
                print("  %-24s %12s -> %-12s %8s %s" % (
                    name, fmt(b_med), fmt(h_med), change, metric["unit"]),
                    file=out)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base_groups, base_problems = group_runs(read_dir(argv[1]), spec)
    head_groups, head_problems = group_runs(read_dir(argv[2]), spec)
    for side, problems in (("base", base_problems), ("head", head_problems)):
        for problem in problems:
            print("%s run left out: %s" % (side, problem))
    compare(base_groups, head_groups, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
