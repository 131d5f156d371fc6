#!/usr/bin/env python3
"""Diff two BENCH_throughput.json files and flag regressions.

Usage:
    scripts/bench_compare.py baseline.json candidate.json [--threshold 5]

Compares host throughput (Maccess_per_s) and per-workload wall time
(wall_seconds) per workload and prints the deltas. A workload whose
throughput drops — or whose wall time grows — by more than the
threshold (default 5%) is a regression; any change in simulated_ticks
is a determinism break (the optimizations this harness guards must not
move the timing model by a single tick). Exits non-zero on either.

Entries whose name starts with "_" (the "_run" run-level record) are
not workloads and are skipped.

Workload sets may differ between the two files: a workload present in
only one side is reported as "missing in baseline" / "missing in
candidate" and fails the comparison, rather than raising.

--normalize divides every per-workload ratio by the geometric-mean
ratio across the workloads common to both files before applying the
threshold. Absolute Maccess_per_s depends on the host (a CI runner is
not the machine that produced the committed baseline), but the *shape*
of the profile does not: one workload slowing down relative to the
others survives normalization, a uniformly slower machine does not.
Use it to gate CI runs against a committed reference.
"""

import argparse
import json
import math
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=5.0,
                    help="regression threshold in percent (default 5)")
    ap.add_argument("--normalize", action="store_true",
                    help="divide each ratio by the geomean ratio over "
                         "common workloads (cross-host comparisons)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)

    # Cross-host comparison check: the "_run" record carries host/build
    # metadata (CPU, cores, compiler, flags, build type). Absolute
    # throughput is not comparable across different hosts or builds, so
    # warn unless --normalize is already compensating.
    base_host = base["_run"]["host"]
    cand_host = cand["_run"]["host"]
    if base_host != cand_host and not args.normalize:
        diff_keys = sorted(k for k in set(base_host) | set(cand_host)
                           if base_host.get(k) != cand_host.get(k))
        print(f"warning: host/build metadata differs "
              f"({', '.join(diff_keys)}); absolute throughput is not "
              f"comparable across hosts -- consider --normalize",
              file=sys.stderr)

    # Run-level entries are not workloads.
    base = {n: v for n, v in base.items() if not n.startswith("_")}
    cand = {n: v for n, v in cand.items() if not n.startswith("_")}

    def geomean(ratios):
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    norm = 1.0
    wall_norm = 1.0
    if args.normalize:
        common = [n for n in base if n in cand]
        if common:
            norm = geomean([cand[n]["Maccess_per_s"] /
                            base[n]["Maccess_per_s"] for n in common])
            wall_norm = geomean([cand[n]["wall_seconds"] /
                                 base[n]["wall_seconds"] for n in common])
            print(f"normalizing by geomean ratio {norm:.3f} "
                  f"({len(common)} workloads)")

    failed = False
    print(f"{'workload':<16}{'base MA/s':>12}{'cand MA/s':>12}"
          f"{'delta':>9}{'wall delta':>11}  notes")
    # Stable iteration over the union: baseline order first, then any
    # candidate-only workloads in their own order.
    names = list(base) + [n for n in cand if n not in base]
    for name in names:
        if name not in cand:
            print(f"{name:<16}{'':>12}{'':>12}{'':>9}{'':>11}  "
                  f"missing in candidate")
            failed = True
            continue
        if name not in base:
            cm = cand[name]["Maccess_per_s"]
            print(f"{name:<16}{'':>12}{cm:>12.3f}{'':>9}{'':>11}  "
                  f"missing in baseline (new workload)")
            failed = True
            continue
        b, c = base[name], cand[name]
        bm, cm = b["Maccess_per_s"], c["Maccess_per_s"]
        notes = []
        delta = (cm / norm - bm) / bm * 100.0
        if delta < -args.threshold:
            notes.append(f"REGRESSION (> {args.threshold:g}% slower)")
            failed = True
        # Per-workload wall time: slower is positive delta, and beyond
        # the threshold it is a regression too.
        bw, cw = b["wall_seconds"], c["wall_seconds"]
        wall_delta = (cw / wall_norm - bw) / bw * 100.0
        if wall_delta > args.threshold:
            notes.append(f"WALL REGRESSION (> {args.threshold:g}% slower)")
            failed = True
        if (b["accesses"] == c["accesses"]
                and b["simulated_ticks"] != c["simulated_ticks"]):
            notes.append("DETERMINISM BREAK (simulated_ticks moved)")
            failed = True
        print(f"{name:<16}{bm:>12.3f}{cm:>12.3f}{delta:>+8.1f}%"
              f"{wall_delta:>+10.1f}%  {'; '.join(notes)}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
