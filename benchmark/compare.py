#!/usr/bin/env python3
"""Compares two sets of tracer_bench results, metric by metric.

    compare.py BASE_DIR NEW_DIR   verdict per end-to-end metric and workload
    compare.py --validate DIR     check result files against BENCHMARK.json
    compare.py --self-test        run the verdict rules on planted numbers

BASE_DIR and NEW_DIR hold result files as tracer_bench --out writes them
(<workload>-seed<N>-trace<T>.json); runs of the same seed on both sides form
a pair. For each end-to-end metric of BENCHMARK.json and each workload the
tool prints both sides' median and quartiles, the share of pairs the new side
wins (ties count for neither), and a verdict:

  improved    the new side wins at least 9 of 10 pairs and the medians differ
              by more than the base side's quartile distance
  regressed   the new median is worse than the base median by more than the
              metric's bound
  unresolved  a side's quartile distance exceeds the bound, and the runs do
              not separate completely (every new run better, or every new run
              worse, than every base run)
  unchanged   otherwise

Per-layer metrics (from --trace 1 results) are listed with their medians, as
they have no bound. The exit status is 1 when any metric regressed. Only the
Python standard library is used.
"""

import json
import math
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")
FINGERPRINT_KEYS = ("cpu_model", "nproc", "compiler", "cxx_flags",
                    "tracer_native", "max_threads")


def load_spec(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def load_results(directory):
    """All result files of a directory, as parsed dicts."""
    results = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json") and "-seed" in name:
            with open(os.path.join(directory, name)) as f:
                results.append(json.load(f))
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """Verdict of one metric from paired runs.

    `base` and `new` map seed -> value; `better` is "higher" or "lower";
    `bound` is the share of the base median by which the metric may worsen.
    Returns a dict with the statistics and the verdict.
    """
    a = [base[s] for s in sorted(base)]
    b = [new[s] for s in sorted(new)]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    scale = abs(a_med) if a_med != 0 else 1.0
    change = sign * (b_med - a_med) / scale  # > 0 means the new side is better
    pairs = sorted(set(base) & set(new))
    wins = sum(1 for s in pairs if sign * (new[s] - base[s]) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    a_spread = (a_q3 - a_q1) / scale
    b_spread = (b_q3 - b_q1) / (abs(b_med) if b_med != 0 else 1.0)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) < 0 for x in a for y in b)
    separated = abs(b_med - a_med) > (a_q3 - a_q1)
    if all_better:
        result = "improved" if separated else "unchanged"
    elif max(a_spread, b_spread) > bound:
        result = "regressed" if all_worse and change < -bound else "unresolved"
    elif change < -bound:
        result = "regressed"
    elif change > 0 and win_share >= 0.9 and separated:
        result = "improved"
    else:
        result = "unchanged"
    return {
        "base": (a_q1, a_med, a_q3),
        "new": (b_q1, b_med, b_q3),
        "change": change,
        "win_share": win_share,
        "pairs": len(pairs),
        "verdict": result,
    }


def by_workload(results, trace):
    """{workload: {metric: {seed: value}}} of the runs of one mode."""
    out = {}
    for r in results:
        if bool(r["trace"]) != trace:
            continue
        metrics = out.setdefault(r["workload"], {})
        for name, metric in r["metrics"].items():
            metrics.setdefault(name, {})[r["seed"]] = metric["value"]
    return out


def fingerprints(results):
    return {tuple((k, r["host"].get(k)) for k in FINGERPRINT_KEYS)
            for r in results}


def fmt(value):
    return "%.6g" % value


def compare(base_dir, new_dir, spec):
    base = load_results(base_dir)
    new = load_results(new_dir)
    if fingerprints(base) != fingerprints(new) or len(fingerprints(base)) > 1:
        print("warning: the runs come from different hosts or builds; "
              "compare only runs with one fingerprint")
    regressed = False
    base_e2e, new_e2e = by_workload(base, False), by_workload(new, False)
    header = ("workload", "metric", "base median [q1, q3]",
              "new median [q1, q3]", "change", "wins", "verdict")
    rows = [header]
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = base_e2e.get(workload, {}).get(metric["name"])
            b = new_e2e.get(workload, {}).get(metric["name"])
            if not a or not b:
                continue
            v = verdict(a, b, metric["better"], metric["bound"])
            regressed = regressed or v["verdict"] == "regressed"
            rows.append((
                workload, metric["name"],
                "%s [%s, %s]" % (fmt(v["base"][1]), fmt(v["base"][0]),
                                 fmt(v["base"][2])),
                "%s [%s, %s]" % (fmt(v["new"][1]), fmt(v["new"][0]),
                                 fmt(v["new"][2])),
                "%+.1f%%" % (100 * v["change"]),
                "%d/%d" % (round(v["win_share"] * v["pairs"]), v["pairs"]),
                v["verdict"]))
    print_table(rows)
    base_layer, new_layer = by_workload(base, True), by_workload(new, True)
    layer_rows = [("workload", "per-layer metric", "base median",
                   "new median")]
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["per_layer"]:
            a = base_layer.get(workload, {}).get(metric["name"])
            b = new_layer.get(workload, {}).get(metric["name"])
            if a and b:
                layer_rows.append((workload, metric["name"],
                                   fmt(statistics.median(a.values())),
                                   fmt(statistics.median(b.values()))))
    if len(layer_rows) > 1:
        print()
        print_table(layer_rows)
    return 1 if regressed else 0


def print_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def validate_result(result, spec):
    """Problems with one result against BENCHMARK.json (empty when valid)."""
    problems = []
    expected = spec["per_layer"] if result.get("trace") else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if result.get("workload") not in [w["name"] for w in spec["workloads"]]:
        problems.append("unknown workload %r" % result.get("workload"))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    if result.get("failed") != 0:
        problems.append("failed is %r" % result.get("failed"))
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append("metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append("%s: unit %r, expected %r"
                            % (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a number" % (m["name"], value))
        elif not result.get("trace") and value == 0:
            problems.append("%s: end-to-end value is 0" % m["name"])
    return problems


def validate(directory, spec):
    results = load_results(directory)
    failures = 0
    for r in results:
        for problem in validate_result(r, spec):
            failures += 1
            print("%s seed %s trace %s: %s" % (r.get("workload"), r.get("seed"),
                                                r.get("trace"), problem))
    missing = ({w["name"] for w in spec["workloads"]}
               - {r.get("workload") for r in results})
    for workload in sorted(missing):
        failures += 1
        print("no result for workload %s" % workload)
    print("%d result files, %d problems" % (len(results), failures))
    return 1 if failures else 0


def self_test():
    """Replays the verdict and validation rules on planted numbers."""
    seeds = range(1, 11)
    jitter = [0.99, 1.01, 1.0, 0.995, 1.005, 0.998, 1.002, 0.997, 1.003, 1.0]
    base = {s: 100.0 * j for s, j in zip(seeds, jitter)}
    noisy = {s: 100.0 * (1 + 0.4 * ((s % 3) - 1)) for s in seeds}
    cases = [
        ("same numbers", base, base, "higher", 0.05, "unchanged"),
        ("5% faster on a higher-is-better metric", base,
         {s: v * 1.05 for s, v in base.items()}, "higher", 0.05, "improved"),
        ("5% lower on a lower-is-better metric", base,
         {s: v * 0.95 for s, v in base.items()}, "lower", 0.05, "improved"),
        ("20% worse, bound 10%", base,
         {s: v * 0.8 for s, v in base.items()}, "higher", 0.1, "regressed"),
        ("8% worse, bound 10%", base,
         {s: v * 1.08 for s, v in base.items()}, "lower", 0.1, "unchanged"),
        ("spread wider than the bound", noisy,
         {s: v * 0.97 for s, v in noisy.items()}, "higher", 0.1, "unresolved"),
        ("noisy but every new run better", noisy,
         {s: 200.0 + s for s in seeds}, "higher", 0.1, "improved"),
        ("one winning pair in ten", base,
         {s: (v * 1.2 if s == 1 else v * 0.999) for s, v in base.items()},
         "higher", 0.05, "unchanged"),
    ]
    failed = 0
    for name, a, b, better, bound, expected in cases:
        got = verdict(a, b, better, bound)["verdict"]
        if got != expected:
            failed += 1
            print("FAIL %s: got %s, expected %s" % (name, got, expected))
    spec = {"workloads": [{"name": "w", "why": "-"}],
            "end_to_end": [{"name": "x", "unit": "s", "better": "lower",
                            "bound": 0.1}],
            "per_layer": [{"name": "y", "unit": "us", "better": "lower"}]}
    good = {"workload": "w", "trace": False, "correct": True, "attempted": 3,
            "failed": 0, "metrics": {"x": {"value": 1.5, "unit": "s"}}}
    bad = dict(good, failed=1,
               metrics={"x": {"value": 0, "unit": "ms"}, "z": {"value": 1}})
    if validate_result(good, spec):
        failed += 1
        print("FAIL a valid result was rejected")
    if len(validate_result(bad, spec)) != 4:
        failed += 1
        print("FAIL an invalid result was not rejected on all four counts: %s"
              % validate_result(bad, spec))
    total = len(cases) + 2
    print("self-test: %d of %d cases passed" % (total - failed, total))
    return 1 if failed else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) == 3 and argv[1] == "--validate":
        return validate(argv[2], load_spec())
    if len(argv) == 3 and not argv[1].startswith("-"):
        return compare(argv[1], argv[2], load_spec())
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
