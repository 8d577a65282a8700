"""Compare benchmark records of two commits.

    python3 bench/compare.py --old parent/*.json --new change/*.json

Each file is a record written by ``run.py --out``.  For every workload and
metric, prints the median of each side, the quartile spread of the old side
as a share of its median, and the new median over the old one.  For every
(workload, seed, trace) run on both sides, says whether the report digest
changed.  A changed digest is reported, never treated as a failure: the
program promises identical report bytes for a fixed (file, seed), and a
change that alters residuals in the last digits changes the digest too.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict


def _load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def _spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--old", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    old, new = _load(args.old), _load(args.new)

    values = defaultdict(lambda: ([], []))
    units = {}
    for side, records in enumerate((old, new)):
        for rec in records:
            for name, m in rec["metrics"].items():
                values[rec["workload"], name][side].append(m["value"])
                units[name] = m["unit"]
    print(f"{'workload':<18} {'metric':<42} {'old':>12} {'new':>12} {'new/old':>8} "
          f"{'old IQR':>8}  unit")
    for (workload, name), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        print(f"{workload:<18} {name:<42} {ma:>12.5g} {mb:>12.5g} {ratio:>8.3f} "
              f"{_spread(a):>8.3f}  {units[name]}  (n={len(a)}/{len(b)})")

    old_digest = {(r["workload"], r["seed"], r["trace"]): r["digest"] for r in old}
    for rec in new:
        key = (rec["workload"], rec["seed"], rec["trace"])
        if key in old_digest:
            state = "unchanged" if old_digest[key] == rec["digest"] else "changed"
            print(f"digest {key[0]} seed {key[1]}: {state}")
    failed = sum(r["failed"] for r in new) - sum(r["failed"] for r in old)
    print(f"failed ops: old {sum(r['failed'] for r in old)}, new {sum(r['failed'] for r in new)}"
          + (" (more failures on the new side)" if failed > 0 else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
