#!/usr/bin/env python3
"""Compare benchmark results, or report the spread of one set of runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR   # verdict per metric and workload
    python3 perfbench/compare.py --spread DIR       # run-to-run spread vs. bounds

A results directory holds the files `run.py` writes
(`<workload>-seed<n>-trace<t>.json`; set PERFBENCH_RESULTS to keep sets
apart). Untraced runs feed the end-to-end and detail metrics, traced runs
the per-layer ones. Bounds come from BENCHMARK.json; the workload-specific
detail figures take the bound of the end-to-end metric they stand for
(metrics.json `aliases`) or their own.

Verdicts, per metric and workload, on medians over the runs of each side:
  worse       the new median is worse than the base by more than the bound
  better      the new median is better than the base by more than the bound
  same        within the bound
  unresolved  a side's own spread (quartile distance / median) exceeds the
              bound and the two sides' runs overlap
  changed     a deterministic figure differs at all (meaningful when both
              sides ran the same seeds)
For each worse end-to-end metric the per-layer metric that moved most is
named, preferring those metrics.json lists as moving it on that workload.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_runs(directory):
    """{(workload, traced): [results]} for every results file in a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if data.get("schema") != "autodbaas-perfbench-v1":
            continue
        runs.setdefault((data["workload"], bool(data["trace"])), []).append(data)
    return runs


def values(runs, section, name):
    return [r[section][name]["value"] for r in runs if name in r.get(section, {})]


def spread(vals):
    """Quartile distance as a share of the median (0 with fewer than 2 runs)."""
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """(verdict, relative change toward worse) for two lists of values."""
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        return ("same" if mn == 0 else "unresolved"), 0.0
    worse_by = (mn - mb) / abs(mb) if better == "lower" else (mb - mn) / abs(mb)
    separated = max(new) < min(base) or min(new) > max(base)
    if max(spread(base), spread(new)) > bound and not separated:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def attribute(catalog, base_traced, new_traced, workload, metric):
    """The per-layer metric whose median moved most between the sides."""
    if not base_traced or not new_traced:
        return "no traced runs on both sides to attribute it"
    aliases = catalog["aliases"].get(workload, {})
    targeted = {
        layer
        for layer, targets in catalog["per_layer_targets"].items()
        for t in targets
        if t["workload"] == workload and aliases.get(t["metric"], t["metric"]) == metric
    }
    names = sorted(base_traced[0]["per_layer"])
    best = None
    for pool in (targeted, set(names)):
        for name in sorted(pool):
            b = values(base_traced, "per_layer", name)
            n = values(new_traced, "per_layer", name)
            if not b or not n or statistics.median(b) == 0:
                continue
            move = (statistics.median(n) - statistics.median(b)) / abs(statistics.median(b))
            if best is None or abs(move) > abs(best[1]):
                best = (name, move)
        if best:
            break
    if best is None:
        return "no per-layer metric moved"
    return f"moved most: {best[0]} {best[1]:+.1%}"


def compare(base_dir, new_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "metrics.json").read_text())
    base, new = load_runs(base_dir), load_runs(new_dir)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0
    for w in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((w, False), []), new.get((w, False), [])
        if not b_runs or not n_runs:
            print(f"{w}: missing untraced runs on one side")
            continue
        print(f"{w}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for name, m in gated.items():
            b, n = values(b_runs, "end_to_end", name), values(n_runs, "end_to_end", name)
            v, rel = verdict(b, n, m["better"], m["bound"])
            line = (
                f"  {name:<30} {statistics.median(b):>14.6g} -> {statistics.median(n):<14.6g}"
                f" {m['unit']:<6} {v:<10} worse by {rel:+.1%} (bound {m['bound']:.0%})"
            )
            if v == "worse":
                worst = 1
                line += "; " + attribute(
                    catalog, base.get((w, True)), new.get((w, True)), w, name
                )
            print(line)
        aliases = catalog["aliases"].get(w, {})
        for name, d in catalog["detail"].items():
            if w not in d["workloads"]:
                continue
            b, n = values(b_runs, "detail", name), values(n_runs, "detail", name)
            if not b or not n:
                continue
            if d.get("deterministic"):
                v, rel = ("same" if b == n else "changed"), 0.0
            else:
                bound = gated[aliases[name]]["bound"] if name in aliases else d["bound"]
                v, rel = verdict(b, n, d["better"], bound)
            print(
                f"  {name:<30} {statistics.median(b):>14.6g} -> {statistics.median(n):<14.6g}"
                f" {d['unit']:<6} {v:<10} (detail)"
            )
    return worst


def report_spread(directory):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load_runs(directory)
    for w in [w["name"] for w in spec["workloads"]]:
        rs = runs.get((w, False), [])
        if not rs:
            continue
        print(f"{w}: {len(rs)} runs")
        for m in spec["end_to_end"]:
            vals = values(rs, "end_to_end", m["name"])
            if len(vals) < 2:
                continue
            s = spread(vals)
            flag = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            print(
                f"  {m['name']:<14} median {statistics.median(vals):<14.6g} spread {s:6.2%}"
                f" bound {m['bound']:.0%}  {flag}"
            )


def main(argv):
    if len(argv) == 2 and argv[0] == "--spread":
        report_spread(argv[1])
        return 0
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
