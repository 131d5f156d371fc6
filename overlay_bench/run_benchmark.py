#!/usr/bin/env python3
"""Runner of the repository benchmark (see BENCHMARK.md beside this file).

Builds the overlay_bench harness from source as part of the repository's
own CMake build (Release; -DOVL_PROFILE=ON for traced runs) under
.bench_build/ at the repository root, runs one harness process per run,
checks its outputs against the pinned seed-1 fingerprints and its own
invariants, and turns its raw records into the metrics named in
BENCHMARK.json.

  One run (the benchmark command; the last stdout line is the result):
    run_benchmark.py --workload W --seed N --seconds S --trace 0|1
  One set (every workload --runs times, round-robin, plus a traced run):
    run_benchmark.py --set OUT.json [--seed N] [--seconds S] [--runs 3]
  Compare two sets against the bounds in BENCHMARK.json:
    run_benchmark.py --compare A.json B.json
  Smoke check of a built harness (8 units per workload vs the reference):
    run_benchmark.py --smoke HARNESS
  Regenerate the seed-1 fingerprint reference:
    run_benchmark.py --make-ref
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
REF = BENCH_DIR / "overlay_bench_ref_seed1.json"

WORKLOADS = ["random_rw", "stream_rw", "fork_oow", "fork_sweep"]
# Workloads whose units are plain System accesses: the System's access
# counter must equal the accesses the harness issued.
ACCESS_WORKLOADS = {"random_rw", "stream_rw", "fork_oow"}
# unit_ms_tail's percentile: the steadiest tail on the reference host
# (BENCHMARK.md) with at least ten units beyond it in a run (fork_sweep
# runs three or four passes of 120 rows).
TAIL_PERCENTILE = {"random_rw": 95, "stream_rw": 95, "fork_oow": 95,
                   "fork_sweep": 97}
# Printed and stored in sets, but not bounded: their ten-seed spread on
# the reference host exceeds any allowed bound (BENCHMARK.md).
INFORMATIONAL = {"sim_Mops_per_s": "Mops/s", "unit_ms_p50": "ms"}
# Every reference unit below this index is pinned, then every 64th.
REF_DENSE_UNITS = 256
REF_STRIDE = 64
REF_UNITS = {"random_rw": 32768, "stream_rw": 32768, "fork_oow": 32766,
             "fork_sweep": 120}
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


# ----- build and run the harness ----------------------------------------

def build(profile):
    """Configure (once) and build one harness variant; return its path."""
    bdir = BUILD / ("profile" if profile else "plain")
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DOVL_PROFILE=" + ("ON" if profile else "OFF"),
                      "-DCMAKE_PROJECT_INCLUDE="
                      + str(BENCH_DIR / "overlay_bench.cmake")])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "overlay_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail("build failed: " + " ".join(cmd))
    return bdir / "bench" / "overlay_bench"


def harness(binary, workload, seed, seconds=None, units=None, trace=False,
            timeout=RUN_TIMEOUT_S):
    """Run one harness process; return its JSON document."""
    out_dir = BUILD / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{workload}-seed{seed}-{os.getpid()}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--out", str(out)]
    cmd += ["--units", str(units)] if units else ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {timeout} s: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0:
        fail(f"harness exited with {code}: {' '.join(cmd)}")
    with open(out) as f:
        doc = json.load(f)
    out.unlink()
    return doc


# ----- correctness ------------------------------------------------------

def load_ref():
    with open(REF) as f:
        return json.load(f)


def fingerprint_failures(run, ref):
    """Indexes of units whose fingerprint differs from @p ref's."""
    bad = set()
    if run["workload"] == "fork_sweep":
        rows = ref["fork_sweep"]["rows"]
        for i, row in enumerate(run["rows"]):
            if row != rows[i]:
                bad.add(i)
        # Later passes repeat the first one, which the harness compares.
        return bad
    ticks = run["end_ticks"]
    for unit, tick in ref[run["workload"]]["end_ticks"]:
        if unit < len(ticks) and ticks[unit] != tick:
            bad.add(unit)
    return bad


def check(run, seed, ref):
    """(failed unit count, problems) of one run record."""
    problems = list(run["errors"])
    failed = {i for i, u in enumerate(run["units"]) if u[3]}
    if seed == 1:
        mismatched = fingerprint_failures(run, ref)
        if mismatched:
            problems.append(f"{run['workload']}: {len(mismatched)} units "
                            "differ from the seed-1 reference, first "
                            f"{min(mismatched)}")
        failed |= mismatched
    if run["workload"] in ACCESS_WORKLOADS:
        issued = sum(u[2] for u in run["units"])
        counted = run["stats"].get("accesses", 0)
        if counted != issued:
            problems.append(f"{run['workload']}: System counted {counted} "
                            f"accesses, the harness issued {issued}")
    return len(failed), problems


# ----- metrics ----------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]) of @p values."""
    v = sorted(values)
    k = (len(v) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def sim_mops(run):
    """
    Simulated ops per host second: accesses over the units' host time, or
    for fork_sweep instructions over the wall time of its whole passes.
    """
    if run["passes"]:
        return (sum(ops for ops, _ in run["passes"])
                / sum(ns for _, ns in run["passes"]) * 1e3)
    return (sum(u[2] for u in run["units"])
            / sum(u[1] - u[0] for u in run["units"]) * 1e3)


def end_to_end(run):
    """The declared end-to-end metrics and the informational ones."""
    unit_ms = [(u[1] - u[0]) / 1e6 for u in run["units"]]
    return {
        "sim_Mops_per_s": sim_mops(run),
        "unit_ms_p50": percentile(unit_ms, 50),
        "unit_ms_tail": percentile(unit_ms,
                                   TAIL_PERCENTILE[run["workload"]]),
        "peak_rss_MiB": run["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(run["setup_s"]),
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(run):
    """
    Per-layer metrics of a traced run from its spans, zones and counters.
    Counts and self times are per unit, so runs of different lengths
    compare.
    """
    spans = [dict(zip(("name", "unit", "parent", "begin", "end", "ops"), s))
             for s in run["spans"]]
    zones = run["zones"]
    st = run["stats"]
    per_unit = 1.0 / len(run["units"])

    def stat(key):
        return st.get(key, 0.0)

    def count(key):
        return stat(key) * per_unit

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def span_ns(*names):
        return sum(s["end"] - s["begin"] for s in named(*names))

    def span_ops(*names):
        return sum(s["ops"] for s in named(*names))

    def zone_self(zone):
        return sum(z["self_s"] for z in zones if z["zone"] == zone) * per_unit

    def top_zone(zone):
        rows = [z for z in zones if z["path"] == zone]
        return (sum(z["total_s"] for z in rows), sum(z["count"] for z in rows))

    unit_ns = span_ns("unit")
    calls = [s for s in spans if s["parent"] >= 0]
    call_ns = sum(s["end"] - s["begin"] for s in calls)
    top_zone_s = sum(z["total_s"] for z in zones if z["depth"] == 1)
    sweep = run["workload"] == "fork_sweep"
    passes = len(run["passes"])
    pass_ns = sum(ns for _, ns in run["passes"])
    prepare = named("prepareForkBenchWarmState")

    access_calls = ("accessBatch", "access", "write")
    if sweep:
        access_s, access_n = top_zone("access")
        access_ns = ratio(access_s * 1e9, access_n)
        fork_s, fork_n = top_zone("fork")
        fork_ms = ratio(fork_s * 1e3, fork_n)
    else:
        access_ns = ratio(span_ns(*access_calls), span_ops(*access_calls))
        fork_ms = ratio(span_ns("fork") / 1e6, len(named("fork")))

    tlb_l1 = stat("tlb0.l1.hits") + stat("tlb0.l1.misses")
    dram_rows = (stat("dramCtrl.dram.rowHits") + stat("dramCtrl.dram.rowClosed")
                 + stat("dramCtrl.dram.rowConflicts"))
    omt_cache = stat("overlay.omtCache.hits") + stat("overlay.omtCache.misses")
    prefetch_fills = sum(stat(f"caches.{c}.prefetchFills")
                         for c in ("l1", "l2", "l3"))
    prefetch_hits = sum(stat(f"caches.{c}.prefetchHits")
                        for c in ("l1", "l2", "l3"))
    jobs = run["jobs"]
    return {
        "system.access_ns": access_ns,
        "system.fork_ms": fork_ms,
        "system.destroy_ms": ratio(span_ns("destroyProcess") / 1e6,
                                   len(named("destroyProcess"))),
        "system.tlb_walks": count("tlbWalks"),
        "system.overlaying_writes": count("overlayingWrites"),
        "system.overlay_line_reads": count("overlayLineReads"),
        "system.cow_faults": count("cowFaults"),
        "tlb.walk_self_s": zone_self("tlb_walk"),
        "tlb.maint_self_s": zone_self("tlb_maint"),
        "tlb.l1_miss_ratio": ratio(stat("tlb0.l1.misses"), tlb_l1),
        "tlb.l2_misses": count("tlb0.l2.misses"),
        "cache.lookup_self_s": zone_self("cache_lookup"),
        "cache.miss_cascade_self_s": zone_self("miss_cascade"),
        "cache.l1_misses": count("caches.l1.misses"),
        "cache.l2_misses": count("caches.l2.misses"),
        "cache.l3_misses": count("caches.l3.misses"),
        "cache.prefetch_useful_ratio": ratio(prefetch_hits, prefetch_fills),
        "dram.self_s": zone_self("dram"),
        "dram.reads": count("dramCtrl.readRequests"),
        "dram.writes": count("dramCtrl.writeRequests"),
        "dram.row_hit_ratio": ratio(stat("dramCtrl.dram.rowHits"), dram_rows),
        "dram.row_conflicts": count("dramCtrl.dram.rowConflicts"),
        "dram.drains": count("dramCtrl.drains"),
        "dram.read_drain_stall_cycles": count("dramCtrl.readDrainStallCycles"),
        "sim.event_queue.self_s": zone_self("event_queue"),
        "overlay.omt_cache_hit_ratio": ratio(stat("overlay.omtCache.hits"),
                                             omt_cache),
        "overlay.omt_walks": count("overlay.omtWalks"),
        "overlay.oms_allocations": count("overlay.oms.allocations"),
        "overlay.migrations": count("overlay.migrations"),
        "overlay.ore_messages": count("overlay.oreMessages"),
        "overlay.oms_list_touches": count("overlay.oms.listTouches"),
        "overlay.omt_walk_self_s": zone_self("omt_walk"),
        "overlay.oms_alloc_self_s": zone_self("oms_alloc"),
        "overlay.ore_broadcast_self_s": zone_self("ore_broadcast"),
        "overlay.overlaying_write_self_s": zone_self("overlaying_write"),
        "vm.fork_self_s": zone_self("fork"),
        "vm.teardown_self_s": zone_self("teardown"),
        "vm.cow_fault_self_s": zone_self("cow_fault"),
        "vm.frames_allocated": count("physMem.framesAllocated"),
        "vm.cow_copies": count("vmm.cowCopies"),
        "cpu.instructions": count("core.instructions"),
        "cpu.window_stall_cycles": count("core.windowStallCycles"),
        "cpu.self_s": max(0.0, call_ns / 1e9 - top_zone_s) * per_unit
        if sweep else 0.0,
        "sim.snapshot.warm_prepare_s":
            (max(s["end"] for s in prepare) - min(s["begin"] for s in prepare))
            / 1e9 if prepare else 0.0,
        "sim.snapshot.self_s": zone_self("snapshot_io"),
        "sim.parallel.busy_s": ratio(unit_ns / 1e9, passes * jobs),
        "sim.parallel.idle_frac": 1.0 - ratio(unit_ns, pass_ns * jobs)
        if sweep else 0.0,
        "bench.gen_s": run["gen_s"] * per_unit,
        "trace.sim_Mops_per_s": sim_mops(run),
        "trace.span_coverage": ratio(call_ns, unit_ns),
        "trace.zone_coverage": ratio(top_zone_s * 1e9, call_ns),
    }


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def result_line(values, declared):
    """{name: {value, unit}} for every declared metric, in spec order."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("metrics without a definition: " + ", ".join(missing))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


# ----- modes ------------------------------------------------------------

def fingerprints(run):
    return {"end_ticks": run["end_ticks"], "rows": run["rows"]}


def prefix_equal(a, b):
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def same_fingerprints(a, b):
    """True if two runs of one seed agree on every unit both ran."""
    return (prefix_equal(a["end_ticks"], b["end_ticks"])
            and prefix_equal(a["rows"], b["rows"]))


def measure(binary, workload, seed, seconds, trace, ref):
    """One run of the benchmark: one harness process, checked."""
    doc = harness(binary, workload, seed, seconds=seconds, trace=trace)
    run = doc["runs"][0]
    failed, problems = check(run, seed, ref)
    return {
        "metrics": per_layer(run) if trace else end_to_end(run),
        "units": len(run["units"]),
        "failed": failed,
        "problems": problems,
        "fingerprints": fingerprints(run),
        "host": doc["host"],
    }


def one_run(args):
    spec = load_spec()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    traced = args.trace == 1
    m = measure(build(profile=traced), args.workload, args.seed,
                args.seconds, traced, load_ref())
    for p in m["problems"]:
        print("check:", p, file=sys.stderr)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = result_line(m["metrics"], declared)
    print(f"{args.workload}: {m['units']} units")
    for name, value in m["metrics"].items():
        unit = (metrics[name]["unit"] if name in metrics
                else INFORMATIONAL.get(name, "") + " (informational)")
        print(f"  {name:<32} {value:.6g} {unit}")
    print(json.dumps({"correct": not m["problems"] and m["failed"] == 0,
                      "attempted": m["units"], "failed": m["failed"],
                      "metrics": metrics}))


def one_set(args):
    plain = build(profile=False)
    profiled = build(profile=True)
    ref = load_ref()
    spec = load_spec()
    out = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs,
           "workloads": {w: {"runs": [], "attempted": 0, "failed": 0,
                             "problems": []} for w in WORKLOADS}}
    for r in range(args.runs):
        for w in WORKLOADS:
            m = measure(plain, w, args.seed, args.seconds, False, ref)
            entry = out["workloads"][w]
            fp = entry.get("fingerprints")
            if fp and not same_fingerprints(m["fingerprints"], fp):
                m["problems"].append(f"{w}: fingerprints differ between runs")
            if not fp or len(m["fingerprints"]["end_ticks"]) > len(
                    fp["end_ticks"]):
                entry["fingerprints"] = m["fingerprints"]
            entry["runs"].append(m["metrics"])
            entry["attempted"] += m["units"]
            entry["failed"] += m["failed"]
            entry["problems"] += m["problems"]
            out["host"] = m["host"]
            for p in m["problems"]:
                print("check:", p, file=sys.stderr)
            print(f"[set] run {r + 1}/{args.runs} {w} done", file=sys.stderr)
    for w in WORKLOADS:
        entry = out["workloads"][w]
        m = measure(profiled, w, args.seed, args.seconds, True, ref)
        if not same_fingerprints(m["fingerprints"], entry["fingerprints"]):
            m["problems"].append(f"{w}: traced fingerprints differ")
        for p in m["problems"]:
            print("check:", p, file=sys.stderr)
        entry["problems"] += m["problems"]
        entry["per_layer"] = m["metrics"]
        entry["median"] = {k: statistics.median(r[k] for r in entry["runs"])
                           for k in entry["runs"][0]}
        entry["failed_frac"] = ratio(entry["failed"], entry["attempted"])
        untraced = entry["median"]["sim_Mops_per_s"]
        entry["trace_overhead_pct"] = 100.0 * (
            1.0 - m["metrics"]["trace.sim_Mops_per_s"] / untraced)
    with open(args.set, "w") as f:
        json.dump(out, f, indent=1)
    print_set(out, spec)


def print_set(out, spec):
    print(f"seed {out['seed']}, {out['runs']} runs of {out['seconds']} s "
          "per workload; value = median of runs, * = informational")
    for w, entry in out["workloads"].items():
        print(f"\n{w}  (attempted {entry['attempted']}, failed_frac "
              f"{entry['failed_frac']:.3g}, trace overhead "
              f"{entry['trace_overhead_pct']:.1f}%)")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update({k: u + "*" for k, u in INFORMATIONAL.items()})
        for name, unit in units.items():
            values = [r[name] for r in entry["runs"]]
            print(f"  {name:<16} {entry['median'][name]:>12.6g} {unit:<7} "
                  "runs " + " ".join(f"{v:.4g}" for v in values))
        for name, value in entry["per_layer"].items():
            print(f"  {name:<32} {value:.6g}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    spec = load_spec()
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    broken = False
    if a["seed"] != b["seed"]:
        fail(f"sets use different seeds ({a['seed']} vs {b['seed']})")
    print(f"{'workload':<11} {'metric':<16} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30}  verdict (B vs A, + is worse)")
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        ea, eb = a["workloads"][w], b["workloads"][w]
        if not same_fingerprints(ea["fingerprints"], eb["fingerprints"]):
            print(f"{w}: FINGERPRINT MISMATCH")
            broken = True
        if ea["failed"] or eb["failed"] or ea["problems"] or eb["problems"]:
            print(f"{w}: failed units A={ea['failed']} B={eb['failed']}, "
                  f"problems A={len(ea['problems'])} B={len(eb['problems'])}")
            broken = True
        for m in spec["end_to_end"]:
            va = [r[m["name"]] for r in ea["runs"]]
            vb = [r[m["name"]] for r in eb["runs"]]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            b_always_better = (max(vb) < min(va) if sign > 0
                               else min(vb) > max(va))
            if change > m["bound"]:
                verdict = "worse"
                broken = True
            elif spread > m["bound"] and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            print(f"{w:<11} {m['name']:<16} "
                  f"{qa[1]:>12.5g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"{qb[1]:>12.5g} [{qb[0]:.4g}, {qb[2]:.4g}]  {verdict}"
                  f" ({100 * change:+.1f}%, bound {100 * m['bound']:.0f}%)")
    sys.exit(1 if broken else 0)


def smoke(args):
    doc = harness(Path(args.smoke).resolve(), "all", 1, units=8)
    ref = load_ref()
    bad = False
    for run in doc["runs"]:
        failed, problems = check(run, 1, ref)
        status = "ok" if not failed and not problems else "FAILED"
        print(f"{run['workload']:<11} units {len(run['units'])} "
              f"failed {failed} {status}")
        for p in problems:
            print("  " + p)
        bad = bad or status != "ok" or len(run["units"]) != 8
    sys.exit(1 if bad else 0)


def make_ref(args):
    plain = build(profile=False)
    ref = {"seed": 1}
    for w in WORKLOADS:
        run = harness(plain, w, 1, units=REF_UNITS[w],
                      timeout=None)["runs"][0]
        if run["errors"]:
            fail(f"{w}: " + "; ".join(run["errors"]))
        if w == "fork_sweep":
            ref[w] = {"rows": run["rows"]}
        else:
            ref[w] = {"end_ticks": [
                [u, t] for u, t in enumerate(run["end_ticks"])
                if u < REF_DENSE_UNITS or u % REF_STRIDE == 0]}
        print(f"[ref] {w}: {len(run['units'])} units", file=sys.stderr)
    with open(REF, "w") as f:
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                   for k, v in ref.items()) + "\n}\n")


def main():
    # Exit through the finally block that stops the harness process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=float(load_spec()["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--set", metavar="OUT")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", metavar="HARNESS")
    p.add_argument("--make-ref", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.runs < 1:
        fail("--seed must be >= 0, --seconds > 0, --runs >= 1")
    if args.compare:
        compare(args)
    elif args.smoke:
        smoke(args)
    elif args.make_ref:
        make_ref(args)
    elif args.set:
        one_set(args)
    elif args.workload:
        one_run(args)
    else:
        p.error("give --workload, --set, --compare, --smoke or --make-ref")


if __name__ == "__main__":
    main()
