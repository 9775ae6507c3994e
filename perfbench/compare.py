#!/usr/bin/env python3
"""Summarize or compare benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of runs of perfbench/run.py,
one file per run (any file names). With one directory, prints each
workload x metric median and its spread (quartile distance over the
median) next to the metric's bound. With two, prints the ratio of the
new median to the base median and a verdict: `worse` when the new
median is worse than the base by more than the bound, `better` when it
is better by more than the bound, `within` otherwise. Per-layer metrics
have no bound and get the ratio alone, except the exact counts in EXACT:
the paper's interaction count may not rise at all, so any increase of
its median is `worse`.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# per-layer counts held exactly: no performance change may raise them
EXACT = {"questions_per_session"}


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, layer=False)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, layer=True)
    return metrics


def load_runs(directory):
    """{(workload, trace): {metric: [values]}}, plus the host blocks seen."""
    runs, hosts = {}, []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            lines = [l for l in fh.read().splitlines() if l.startswith("{")]
        if len(lines) < 2:
            continue
        try:
            detail = json.loads(lines[-2])["perfbench"]
            result = json.loads(lines[-1])
        except (ValueError, KeyError):
            continue
        if detail["host"] not in hosts:
            hosts.append(detail["host"])
        key = (detail["workload"], int(detail["trace"]))
        into = runs.setdefault(key, {})
        for metric, v in result["metrics"].items():
            into.setdefault(metric, []).append(v["value"])
        into.setdefault("_correct", []).append(1.0 if result["correct"] else 0.0)
    return runs, hosts


def spread(values):
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if len(values) < 4:
        q1, q3 = min(values), max(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def verdict(m, base, new):
    if m["name"] in EXACT:
        return "worse" if new > base else "better" if new < base else "same"
    if m["layer"] or base == 0:
        return ""
    worse = new > base * (1 + m["bound"]) if m["better"] == "lower" else new < base * (1 - m["bound"])
    better = new < base * (1 - m["bound"]) if m["better"] == "lower" else new > base * (1 + m["bound"])
    return "worse" if worse else "better" if better else "within"


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    spec = load_spec()
    sets = [load_runs(d) for d in argv[1:]]
    for i, (_, hosts) in enumerate(sets):
        for h in hosts:
            print(f"host[{argv[1 + i]}]: " + ", ".join(f"{k}={v}" for k, v in h.items()))
    base = sets[0][0]
    keys = sorted(set(base) | (set(sets[1][0]) if len(sets) == 2 else set()))
    for key in keys:
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'end-to-end'})")
        b = base.get(key, {})
        correct = b.get("_correct", [])
        print(f"  runs {len(correct)}, all correct: {all(correct)}")
        if len(sets) == 1:
            print(f"  {'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
            for name, m in spec.items():
                if name in b:
                    bound = "" if m["layer"] else f"{m['bound']:.2f}"
                    print(f"  {name:28s} {statistics.median(b[name]):14.4f} {spread(b[name]):8.3f} {bound:>6s}")
        else:
            n = sets[1][0].get(key, {})
            print(f"  {'metric':28s} {'base':>14s} {'new':>14s} {'ratio':>8s}  verdict")
            for name, m in spec.items():
                if name in b and name in n:
                    mb, mn = statistics.median(b[name]), statistics.median(n[name])
                    ratio = mn / mb if mb else float("nan")
                    print(f"  {name:28s} {mb:14.4f} {mn:14.4f} {ratio:8.3f}  {verdict(m, mb, mn)}")


if __name__ == "__main__":
    main(sys.argv)
