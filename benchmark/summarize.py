#!/usr/bin/env python3
"""Summarizes repeated clicbench runs.

Reads tab-separated lines `workload side seed json` on stdin (written by
benchmark/run.sh --repeat / --pair) and the metric table from the
BENCHMARK.json named on the command line. For every workload, side and
metric it prints the median, the quartiles and the spread (interquartile
range over median), flagging a spread wider than the metric's bound. With
two sides (A = parent, B = change) it also counts the pairs B won and gives
a verdict by the rule the benchmark's README states.
"""
import json
import statistics
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def main():
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    table = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {}  # workload -> side -> seed -> metrics
    for line in sys.stdin:
        workload, side, seed, result = line.rstrip("\n").split("\t", 3)
        metrics = json.loads(result)["metrics"]
        runs.setdefault(workload, {}).setdefault(side, {})[seed] = metrics

    for workload, sides in runs.items():
        print(f"== {workload}")
        first = next(iter(sides.values()))
        names = list(next(iter(first.values())).keys())
        for name in names:
            info = table.get(name, {})
            bound = info.get("bound")
            unit = next(iter(first.values()))[name]["unit"]
            for side, by_seed in sorted(sides.items()):
                values = [m[name]["value"] for m in by_seed.values()]
                q1, q2, q3 = quartiles(values)
                flag = ""
                if bound is not None and spread(values) > bound:
                    flag = "  [spread > bound]"
                print(f"  {name:28s} {side} median {q2:.6g} {unit}"
                      f"  q1 {q1:.6g}  q3 {q3:.6g}"
                      f"  spread {spread(values):.2%}{flag}")
            if set(sides) == {"A", "B"}:
                print("  " + verdict(sides, name, info))
    return 0


def verdict(sides, name, info):
    lower = info.get("better", "lower") == "lower"
    bound = info.get("bound")
    seeds = sorted(set(sides["A"]) & set(sides["B"]))
    a = [sides["A"][s][name]["value"] for s in seeds]
    b = [sides["B"][s][name]["value"] for s in seeds]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    q1_a, _, q3_a = quartiles(a)
    worse = (med_b - med_a) if lower else (med_a - med_b)
    rel = worse / abs(med_a) if med_a else 0.0
    if wins >= 0.9 * len(seeds) and -worse > q3_a - q1_a:
        result = "B better"
    elif bound is None:
        result = "no bound"
    elif rel > bound:
        result = "B worse beyond bound"
    elif spread(a) > bound and not all(
            (y < x) if lower else (y > x) for x, y in zip(a, b)):
        result = "unresolved (spread wider than bound)"
    else:
        result = "within bound"
    return (f"{'':28s} B won {wins}/{len(seeds)} pairs,"
            f" B vs A {-rel:+.2%} better: {result}")


if __name__ == "__main__":
    sys.exit(main())
