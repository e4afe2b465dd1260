#!/usr/bin/env python3
"""Spread of one set of e2ebench results, or comparison of two sets.

    python3 e2ebench/compare.py RUNS.jsonl
    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

Inputs are the result records e2ebench/run.py appends to
<build root>/results/<workload>.jsonl (several files may be joined with
commas). Untraced records only. For each workload and end-to-end metric:

  one set   median, quartiles (statistics.quantiles, n=4) and their
            distance as a share of the median, against the metric's bound;
  two sets  both medians and the change in the metric's worse direction,
            flagged when it exceeds the bound in BENCHMARK.json; the
            change with the sets swapped is printed beside it, since two
            sets of the same commit must agree in both orders.

Refuses (exit 2) when the records come from more than one host stamp: a
comparison across hosts is not a measurement. Exits 1 when a spread
exceeds its bound, a metric regresses past it, the failed shares differ,
or a run reported incorrect outputs.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(arg):
    records = []
    for path in arg.split(","):
        for line in pathlib.Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                if record.get("trace") == 0:
                    records.append(record)
    return records


def host_key(record):
    return json.dumps(record.get("host"), sort_keys=True)


def by_workload(records):
    groups = {}
    for r in records:
        groups.setdefault(r["workload"], []).append(r["result"])
    return groups


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(1, attempted)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = [load(a) for a in argv[1:]]
    hosts = {host_key(r) for s in sets for r in s}
    if len(hosts) != 1:
        print("refused: the results carry different host stamps:",
              file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        return 2
    print("host", hosts.pop())
    bad = False
    groups = [by_workload(s) for s in sets]
    for workload in sorted(set().union(*groups)):
        runs = [g.get(workload, []) for g in groups]
        if any(not r for r in runs):
            print(f"{workload}: missing from one set")
            bad = True
            continue
        incorrect = sum(not r["correct"] for rs in runs for r in rs)
        shares = [failed_share(rs) for rs in runs]
        print(f"{workload}: runs {[len(r) for r in runs]}, failed share "
              f"{shares}, incorrect runs {incorrect}")
        bad |= incorrect > 0 or len(set(shares)) > 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            medians = [statistics.median(v) for v in values]
            if len(runs) == 1:
                v = values[0]
                q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                             else (v[0], v[0], v[0]))
                spread = (q3 - q1) / medians[0] if medians[0] else 0.0
                over = spread > bound
                bad |= over
                print(f"  {name:16s} median {medians[0]:14.6g}  q1 {q1:12.6g}"
                      f"  q3 {q3:12.6g}  spread {spread:7.2%}  bound "
                      f"{bound:.0%}  {'OVER BOUND' if over else ''}")
            else:
                base, new = medians
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (new - base) / base if base else 0.0
                swapped = sign * (base - new) / new if new else 0.0
                regress = worse > bound
                bad |= regress
                print(f"  {name:16s} base {base:14.6g}  new {new:14.6g}  "
                      f"worse by {worse:+7.2%} (swapped {swapped:+7.2%})  "
                      f"bound {bound:.0%}  {'REGRESSION' if regress else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
