#!/usr/bin/env python3
"""End-to-end benchmark of the Chameleon tracer, with a per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lu_online --seed 1 --seconds 25 --trace 0

The script builds perfbench_driver (perfbench/CMakeLists.txt, Release, into
.bench_build/), then starts one driver process per run until --seconds have
passed, checks every run's outputs and prints a table followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1
alternates untraced and traced runs (the tool wrapped in the driver's
TimedTool) and reports the per-layer metrics of the traced ones, plus the
traced/untraced wall ratio. perfbench/README.md describes every workload
and metric.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")

# Runs whose seed is recorded in expected.json must reproduce its digests.
DEFAULT_SEED = 1
# Every invocation ends within this many seconds of the build finishing.
HARD_BUDGET_S = 165.0

# lu does not read the seed, so its rank-level MPI call count (MPI_Init and
# MPI_Finalize excluded) is one number. lu_online counts it on every run and
# checks it; lu_bare installs no tool, so nothing counts its calls and its
# events_per_s takes this count.
LU_CALLS = 1167360

WORKLOADS = {
    # APP bar: the bare simulator (fibers, matching, collectives), no tool.
    "lu_bare": dict(app="lu", procs=4096, steps=16, tool="none",
                    calls=LU_CALLS),
    # CH bar on a stencil: the tracer's per-event path carries the cost.
    "lu_online": dict(app="lu", procs=4096, steps=16,
                      tool="chameleon", k=9, freq=5, calls=LU_CALLS),
    # CH bar on a task farm: wildcard receives do not fold, so the trace
    # grows by append through 180 marker rounds and large lead merges.
    "emf_farm": dict(app="emf", procs=251, steps=720,
                     tool="chameleon", k=2, freq=4),
    # ST bar: P-participant radix merge with the LCS/deep-compare path.
    "pop_finalize": dict(app="pop", procs=64, steps=480,
                         tool="scalatrace"),
}

# Table I cluster count the Chameleon workload must reproduce.
TABLE1_K = {"lu": 9, "emf": 2}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("rss_per_rank_kb", "KiB"),
    ("ok_share", "share"),
]

PER_LAYER = [
    ("sim.setup_s", "s"), ("sim.run_s", "s"), ("sim.self_s", "s"),
    ("sim.ns_per_call", "ns"), ("sim.messages", "count"),
    ("sim.bytes", "B"), ("sim.collectives", "count"),
    ("trace.event.calls", "count"), ("trace.event.s", "s"),
    ("trace.event.ns_p50", "ns"), ("trace.event.ns_p99", "ns"),
    ("trace.events_recorded", "count"), ("trace.fold.windows", "count"),
    ("trace.fold.hash_rejects", "count"), ("trace.fold.folds", "count"),
    ("trace.fold.fold_ratio", "share"),
    ("trace.intern.entries", "count"), ("trace.intern.singleton_hits", "count"),
    ("trace.intern.union_memo_hits", "count"), ("trace.intern.arena_kb", "KiB"),
    ("trace.merge.ops", "count"), ("trace.merge.bytes", "B"),
    ("trace.merge.prechecks", "count"), ("trace.merge.hash_rejects", "count"),
    ("trace.merge.deep_compares", "count"), ("trace.merge.memo_hits", "count"),
    ("trace.merge.zip_hits", "count"), ("trace.merge.cpu_s", "s"),
    ("trace.merge.finalize_s", "s"),
    ("core.markers", "count"), ("core.state.at", "count"),
    ("core.state.c", "count"), ("core.state.l", "count"),
    ("core.marker_round_s", "s"), ("core.marker_round_ms_p50", "ms"),
    ("core.clustering_cpu_s", "s"),
    ("cluster.k", "count"), ("cluster.callpaths", "count"),
    ("cluster.encode_s", "s"),
    ("trace.serialize.encode_s", "s"), ("trace.serialize.bytes_encoded", "B"),
    ("trace.serialize.bytes_decoded", "B"),
    ("trace_bytes", "B"),
    ("run.unattributed_s", "s"), ("traced.wall_s", "s"),
    ("traced.overhead_ratio", "ratio"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; False if either step fails."""
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            log(f"perfbench: {needed} not found; run from the root of a "
                "checkout that holds the library sources")
            return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(DRIVER)


def driver_args(spec, seed, traced):
    args = [DRIVER, "--app", spec["app"], "--procs", str(spec["procs"]),
            "--steps", str(spec["steps"]), "--tool", spec["tool"],
            "--seed", str(seed), "--traced", "1" if traced else "0"]
    if spec["tool"] == "chameleon":
        args += ["--k", str(spec["k"]), "--freq", str(spec["freq"])]
    return args


def run_child(spec, seed, traced, timeout):
    """One driver process. Returns (record or None, list of failures)."""
    try:
        proc = subprocess.run(driver_args(spec, seed, traced),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"run exceeded {timeout:.0f} s (deadlock or stall)"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, [f"driver exited {proc.returncode}: {tail[0]}"]
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), []
    except (ValueError, IndexError):
        return None, ["driver printed no JSON record"]


def check(spec, seed, rec, expected):
    """Output checks of one run; returns the list of failures."""
    errs = []
    if not rec["roundtrip_ok"]:
        errs.append("decode(encode(output)) does not round-trip")
    if spec["tool"] == "chameleon":
        want_k = TABLE1_K[spec["app"]]
        if rec["cluster.k"] != want_k:
            errs.append(f"cluster.k = {rec['cluster.k']}, Table I says {want_k}")
        if rec["core.state.c"] != 1:
            errs.append(f"core.state.c = {rec['core.state.c']}, a steady run "
                        "clusters once")
    if spec["tool"] != "none" and "calls" in spec and rec["calls"] != spec["calls"]:
        errs.append(f"calls = {rec['calls']}, the workload makes {spec['calls']}")
    if spec["tool"] == "none":
        busy = [k for k, v in rec.items()
                if k.startswith(("trace.", "core.", "cluster."))
                and not isinstance(v, str) and v != 0]
        if busy or rec["trace_bytes"] != 0:
            errs.append("bare run shows tool work: " + ", ".join(busy or ["trace_bytes"]))
    for key, want in expected.get(str(seed), {}).items():
        if rec.get(key) != want:
            errs.append(f"{key} = {rec.get(key)}, recorded {want}")
    return errs


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def calls(spec, rec):
    """MPI calls of the run: counted by the tool, or fixed when there is none."""
    return spec["calls"] if spec["tool"] == "none" else rec["calls"]


def end_to_end(spec, rec):
    return {
        "setup_s": rec["setup_s"],
        "wall_s": rec["wall_s"],
        "events_per_s": calls(spec, rec) / rec["run_s"],
        "rss_per_rank_kb": rec["maxrss_kb"] / spec["procs"],
    }


def per_layer(spec, rec):
    out = {name: rec[name] for name, _ in PER_LAYER if name in rec}
    out["sim.ns_per_call"] = rec["sim.self_s"] * 1e9 / calls(spec, rec)
    windows = rec["trace.fold.windows"]
    out["trace.fold.fold_ratio"] = rec["trace.fold.folds"] / windows if windows else 0.0
    out["traced.wall_s"] = rec["wall_s"]
    return out


def git_revision():
    """HEAD of a git checkout in the working directory, read from .git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()[:12]
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec = WORKLOADS[args.workload]
    with open(EXPECTED) as f:
        expected = json.load(f).get(args.workload, {})
    if not build():
        return 2

    start = time.monotonic()
    hard_deadline = start + HARD_BUDGET_S
    plain, traced, failures = [], [], []
    attempted = 0
    first = None
    while True:
        now = time.monotonic()
        runs_left = (args.trace == 1 and not (plain and traced)) or attempted == 0
        if (now - start >= args.seconds and not runs_left) or now >= hard_deadline:
            break
        # --trace 1 alternates untraced and traced runs, untraced first.
        want_traced = args.trace == 1 and attempted % 2 == 1
        attempted += 1
        rec, errs = run_child(spec, args.seed, want_traced, hard_deadline - now)
        if rec is not None:
            first = first or rec
            errs += check(spec, args.seed, rec, expected)
        if errs:
            failures.append(errs)
            for e in errs:
                log(f"perfbench: run {attempted} failed: {e}")
            continue
        (traced if want_traced else plain).append(rec)

    failed = len(failures)
    if args.trace == 0:
        rows = [end_to_end(spec, r) for r in plain]
        metrics = {name: (unit, [row[name] for row in rows])
                   for name, unit in END_TO_END if name != "ok_share"}
    else:
        rows = [per_layer(spec, r) for r in traced]
        metrics = {name: (unit, [row[name] for row in rows])
                   for name, unit in PER_LAYER if name != "traced.overhead_ratio"}
        plain_wall = median([r["wall_s"] for r in plain])
        ratios = [r["wall_s"] / plain_wall for r in traced] if plain_wall else []
        metrics["traced.overhead_ratio"] = ("ratio", ratios)
    correct = failed == 0 and all(values for _, values in metrics.values())

    host = first or {}
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} runs={attempted} (untraced {len(plain)}, "
          f"traced {len(traced)}, failed {failed})")
    print(f"# host: nproc={len(os.sched_getaffinity(0))} cpu=\"{cpu_model()}\" "
          f"compiler=\"{host.get('compiler', '?')}\" "
          f"build={host.get('build_type', '?')} rev={git_revision()}")
    print(f"# config: {json.dumps(spec, sort_keys=True)} class=C")
    if first:
        print(f"# digests: structure={first['structure_digest']} "
              f"cluster={first['cluster_digest']} bare={first['bare_digest']} "
              f"calls={calls(spec, first)}")
    result = {}
    for name, (unit, values) in metrics.items():
        value = median(values)
        q1, q3 = quartiles(values)
        print(f"{name:32s} {value:16.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
        result[name] = {"value": value, "unit": unit}
    if args.trace == 0:
        result["ok_share"] = {"value": (attempted - failed) / attempted,
                              "unit": "share"}
    print(f"{'failed_share':32s} {failed / attempted:16.6g} share")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
