#!/usr/bin/env python3
"""Host-cost benchmark of the CoRD simulator.

Builds the simulator and the benchmark driver from source (perfbench/ and
../src), runs one named workload in a single process, checks every point's
simulated output against perfbench/expected.json, and prints every metric by
name with its unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced run); with
--trace 1 they are the per-layer ones (the untraced run's counters plus a
separate traced run of every point). Names and units are listed in
BENCHMARK.json; perfbench/layers.json says which end-to-end metric and
workload each per-layer metric should move.

    python3 perfbench/run.py --workload npb_cg --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload perftest_bw --size smoke
    python3 perfbench/run.py --write-expected   # after a deliberate model change

Build outputs go to $CARGO_TARGET_DIR (default .bench_build); host-time spans
of each run are written to <build dir>/spans/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("npb_cg", "npb_is", "perftest_bw")
MODES = ("bypass", "cord", "ipoib")
BW_POINTS = ("send64_bypass", "send64_cord", "send64_cord_b16",
             "write64k_bypass", "write64k_cord", "read1m_bypass", "read1m_cord")
STAGES = ("user_post", "kernel", "nic_sched", "dma_fetch", "wire", "deliver",
          "remote_cqe", "ack")

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configure and build the driver; returns its path or exits nonzero."""
    out = build_dir() / "cmake"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return out / "perfbench"


def run_driver(binary, args):
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        sys.exit(3)
    points, run = [], None
    for line in proc.stdout.splitlines():
        kind, _, body = line.partition(" ")
        if kind == "POINT":
            points.append(json.loads(body))
        elif kind == "RUN":
            run = json.loads(body)
    if run is None:
        log("perfbench: driver printed no RUN line")
        sys.exit(3)
    return points, run


# --- expected simulated outputs -------------------------------------------


def simulated_outputs(points):
    """The simulated product of one pass: per point, plus NPB ratios."""
    out = {}
    for p in points:
        o = {"elapsed_ps": p["elapsed_ps"]}
        if "gbps" in p:
            o["gbps"] = p["gbps"]
            o["mmsg_s"] = p["mmsg_s"]
        else:
            o["sim_ms"] = p["elapsed_ps"] / 1e9
        out[p["point"]] = o
    if "bypass" in out and "sim_ms" in out["bypass"]:
        base = out["bypass"]["sim_ms"]
        for mode in ("cord", "ipoib"):
            if mode in out:
                out[mode][f"{mode}_over_bypass"] = out[mode]["sim_ms"] / base
    return out


def write_expected(binary):
    expected = {}
    for size in ("full", "smoke"):
        for w in WORKLOADS:
            log(f"perfbench: reference outputs for {w} ({size})")
            points, _ = run_driver(binary, ["--workload", w, "--size", size,
                                            "--reference"])
            expected.setdefault(size, {})[w] = simulated_outputs(points)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    log(f"perfbench: wrote {EXPECTED}")


def check_points(points, expected, workload):
    """Mark each untraced point run ok or failed (output mismatch, clamp,
    or a count that differs between passes of the same point)."""
    by_pass = {}
    for p in points:
        by_pass.setdefault(p["pass"], []).append(p)
    first_events = {}
    for pass_points in by_pass.values():
        got = simulated_outputs(pass_points)
        for p in pass_points:
            want = expected.get(p["point"])
            reasons = []
            if want is None:
                reasons.append("no expected output stored")
            elif got[p["point"]] != want:
                reasons.append(f"simulated output {got[p['point']]} != expected {want}")
            if p["counters"]["clamped_events"]:
                reasons.append(f"{p['counters']['clamped_events']} clamped events")
            events = first_events.setdefault(p["point"], p["counters"]["events"])
            if p["counters"]["events"] != events:
                reasons.append(f"events {p['counters']['events']} != {events} "
                               "in an earlier pass")
            p["ok"] = not reasons
            for r in reasons:
                log(f"perfbench: FAIL {workload}/{p['point']} pass {p['pass']}: {r}")


# --- metrics ----------------------------------------------------------------


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def share(part, whole):
    return part / whole if whole else 0.0


def end_to_end(per_point, setups, run):
    events = sum(runs[0]["counters"]["events"] for runs in per_point.values())
    messages = sum(runs[0]["messages"] for runs in per_point.values())
    return {
        "wall_s": sum(median_of(r, "wall_s") for r in per_point.values()),
        "setup_s": sum(median_of(r, "setup_s") for r in setups.values()),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "events": events,
        "events_per_msg": share(events, messages),
    }


def merged_percentile(buckets, max_ps, p):
    """sim::LogHistogram::percentile over bucket counts summed across points."""
    count = sum(buckets)
    if count == 0:
        return 0.0
    rank = p / 100.0 * (count - 1)
    seen = 0.0
    for i, n in enumerate(buckets):
        if n == 0:
            continue
        if seen + n > rank:
            lo = 0.0 if i == 0 else float(1 << (i - 1))
            hi = 1.0 if i == 0 else lo * 2.0
            return min(lo + (hi - lo) * (rank - seen) / n, float(max_ps))
        seen += n
    return float(max_ps)


def per_layer(workload, per_point, setups, traced):
    first = {pid: runs[0] for pid, runs in per_point.items()}
    c = {k: sum(p["counters"][k] for p in first.values())
         for k in next(iter(first.values()))["counters"]}
    wall = {pid: median_of(runs, "wall_s") for pid, runs in per_point.items()}
    core_ps = c["core_compute_ps"] + c["core_spin_ps"] + c["core_kernel_ps"]
    npb = not workload.startswith("perftest")
    m = {
        "sim.events": c["events"],
        "sim.queue_peak_depth": max(p["counters"]["queue_peak_depth"]
                                    for p in first.values()),
        "sim.clamped_events": c["clamped_events"],
        "sim.ns_per_event": share(sum(wall.values()), c["events"]) * 1e9,
        "core.system_build_s": sum(median_of(r, "system_build_s")
                                   for r in setups.values()),
        "mpi.world_build_s": sum(median_of(r, "world_build_s")
                                 for r in setups.values()),
    }
    for mode in MODES:
        m[f"host.wall_s.{mode}"] = sum(w for pid, w in wall.items()
                                       if first[pid]["mode"] == mode)
    m.update({
        "mpi.msgs": sum(p["messages"] for p in first.values()) if npb else 0,
        "mpi.bytes": sum(p["bytes"] for p in first.values()) if npb else 0,
        "mpi.spin_share": share(c["core_spin_ps"], core_ps),
        "mpi.compute_share": share(c["core_compute_ps"], core_ps),
        "os.crossings": c["os_crossings"],
        "os.ops_serviced": c["os_ops_serviced"],
        "os.ops_per_crossing": share(c["os_ops_serviced"], c["os_crossings"]),
        "os.interrupts": c["os_interrupts"],
        "os.verdict_hit_frac": share(c["os_verdict_hits"],
                                     c["os_verdict_hits"] + c["os_verdict_misses"]),
        "os.kernel_share": share(c["core_kernel_ps"], core_ps),
        "nic.tx_msgs": c["nic_tx_msgs"],
        "nic.doorbells": c["nic_doorbells"],
        "nic.doorbells_coalesced": c["nic_doorbells_coalesced"],
        "nic.wrs_per_burst": share(c["nic_sq_burst_wrs"], c["nic_sq_bursts"]),
        # Fused drain events per WR drained: 1 means no amortization, 0 means
        # the per-WQE drain ran (a tracer was attached).
        "nic.fused_frac": share(c["nic_sq_fused_batches"], c["nic_sq_burst_wrs"]),
        "nic.chunks_per_msg": share(c["nic_seg_chunks"], c["nic_seg_msgs"]),
        "nic.cqe_flushed": c["nic_cqe_flushed"],
        "sock.msgs": first["ipoib"]["messages"] if "ipoib" in first else 0,
        "sock.bytes": first["ipoib"]["bytes"] if "ipoib" in first else 0,
    })
    sim_ms = {mode: first[mode]["elapsed_ps"] / 1e9 if npb and mode in first else 0.0
              for mode in MODES}
    for mode in MODES:
        m[f"npb.sim_ms.{mode}"] = sim_ms[mode]
    m["npb.cord_over_bypass"] = share(sim_ms["cord"], sim_ms["bypass"])
    m["npb.ipoib_over_bypass"] = share(sim_ms["ipoib"], sim_ms["bypass"])
    for pid in BW_POINTS:
        m[f"perftest.gbps.{pid}"] = first[pid]["gbps"] if pid in first else 0.0
        m[f"perftest.mmsg_s.{pid}"] = first[pid]["mmsg_s"] if pid in first else 0.0

    t = {p["point"]: p for p in traced}
    tr = [p["trace"] for p in traced]
    untraced_elapsed = sum(first[pid]["elapsed_ps"] for pid in t)
    m.update({
        "trace.records": sum(x["records"] for x in tr),
        "trace.dropped": sum(x["dropped"] for x in tr),
        "trace.overhead": share(sum(p["wall_s"] for p in traced),
                                sum(wall[pid] for pid in t)),
        "trace.sim_drift": share(sum(abs(p["elapsed_ps"] - first[pid]["elapsed_ps"])
                                     for pid, p in t.items()), untraced_elapsed),
        "trace.event_drift": share(
            sum(abs(p["counters"]["events"] - first[pid]["counters"]["events"])
                for pid, p in t.items()), c["events"]),
        "trace.analyze_s": sum(p["analyze_s"] for p in traced),
        "causal.spans": sum(x["spans"] for x in tr),
        "causal.evicted": sum(x["evicted"] for x in tr),
    })
    total = sum(x["total_e2e_ps"] for x in tr)
    for i, stage in enumerate(STAGES):
        span = sum(x["stage_span_ps"][i] for x in tr)
        queue = sum(x["stage_queue_ps"][i] for x in tr)
        m[f"causal.{stage}.share"] = share(span, total)
        m[f"causal.{stage}.queue_share"] = share(queue, span)
    buckets = [sum(col) for col in zip(*(x["e2e_buckets"] for x in tr))]
    max_ps = max(x["e2e_max_ps"] for x in tr)
    m["causal.e2e_p50_us"] = merged_percentile(buckets, max_ps, 50.0) / 1e6
    m["causal.e2e_p99_us"] = merged_percentile(buckets, max_ps, 99.0) / 1e6
    return m


def check_traced(traced, workload):
    """A traced point fails when its trace is incomplete: ring drops, pending
    chains evicted before they finalized, or clamped events."""
    for p in traced:
        x = p["trace"]
        reasons = [f"{x[k]} {k}" for k in ("dropped", "evicted") if x[k]]
        if p["counters"]["clamped_events"]:
            reasons.append(f"{p['counters']['clamped_events']} clamped events")
        p["ok"] = not reasons
        for r in reasons:
            log(f"perfbench: FAIL {workload}/{p['point']} traced: {r}")


def load_spec(trace):
    """Units of the metrics this run must print: the end-to-end list, or the
    per-layer list with --trace 1."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate expected.json from the library entry points")
    args = ap.parse_args()
    if not args.write_expected and args.workload is None:
        ap.error("--workload is required")

    units = load_spec(args.trace)
    binary = build()
    if args.write_expected:
        write_expected(binary)
        return

    spans_dir = build_dir() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    points, run = run_driver(binary, [
        "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(spans)])
    expected = json.loads(EXPECTED.read_text())[args.size][args.workload]

    measured = [p for p in points if not p["setup_only"] and not p["traced"]]
    traced = [p for p in points if p["traced"]]
    per_point, setups = {}, {}
    for p in points:
        if not p["traced"]:
            setups.setdefault(p["point"], []).append(p)
    for p in measured:
        per_point.setdefault(p["point"], []).append(p)

    check_points(measured, expected, args.workload)
    checked = measured
    if args.trace:
        check_traced(traced, args.workload)
        checked = measured + traced
    failed = sum(not p["ok"] for p in checked)

    if args.trace:
        metrics = per_layer(args.workload, per_point, setups, traced)
        metrics["fail_frac"] = failed / len(checked)
    else:
        metrics = end_to_end(per_point, setups, run)
    if set(metrics) != set(units):
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
        sys.exit(4)

    print(f"# {args.workload} ({args.size}), seed {args.seed}, {run['passes']} passes, "
          f"spans in {spans}")
    for pid, runs in per_point.items():
        p = runs[0]
        out = (f"{p['gbps']:.6f} Gb/s" if "gbps" in p
               else f"{p['elapsed_ps'] / 1e9:.6f} sim ms")
        print(f"# point {pid:16s} wall {median_of(runs, 'wall_s'):9.4f} s  "
              f"events {p['counters']['events']:>10d}  messages {p['messages']:>8d}  {out}")
    for p in traced:
        print(f"# traced {p['point']:15s} wall {p['wall_s']:9.4f} s  "
              f"events {p['counters']['events']:>10d}  records {p['trace']['records']:>8d}  "
              f"{p['elapsed_ps'] / 1e9:.6f} sim ms")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>20.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
