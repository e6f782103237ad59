"""Merge saved run records into one trajectory point.

    python3 rdbench/summarize.py rdbench/results/BENCH_<label>.json RECORD.json...

Each RECORD.json is what ``run.py --save`` wrote.  Records are grouped by
workload and by traced or not; for every metric the output gives the
per-seed values, the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, i.e. the quartile distance as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {"machine": records[0]["machine"], "workloads": {}}
    for (workload, trace), recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name] for r in recs]
            med = statistics.median(values)
            entry = {"values": values, "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            metrics[name] = entry
        out["workloads"].setdefault(workload, {})["traced" if trace else "untraced"] = {
            "seeds": [r["seed"] for r in recs],
            "repetitions": [r["repetitions"] for r in recs],
            "attempted": sum(r["result"]["attempted"] for r in recs),
            "failed": sum(r["result"]["failed"] for r in recs),
            "correct": all(r["result"]["correct"] for r in recs),
            "metrics": metrics,
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text()) for p in argv[1:]]
    Path(argv[0]).write_text(json.dumps(summarize(records), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
