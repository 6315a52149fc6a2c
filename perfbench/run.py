#!/usr/bin/env python3
"""The repository benchmark: node-round throughput and window latency of
the simulator on four workloads, plus a traced per-layer ledger.

Run one workload:
    python3 perfbench/run.py --workload rrf-dense --seed 1 --seconds 10 --trace 0
Run every workload, each in its own process:
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
Compare two sets of reports (files or directories of them):
    python3 perfbench/run.py --compare BASE NEW [--across-commits]
Other modes:
    --self-test               the output checks catch one perturbed window
    --write-benchmark-json    regenerate BENCHMARK.json from the tables below
    --record-digests          re-pin the default-seed snapshot digests

The first use builds the library and the benchmark binary from source into
.bench_build/ (perfbench/CMakeLists.txt).  Each run prints every metric by
name with its unit, writes its full report under .bench_build/reports/,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics.  perfbench/README.md explains the workloads
and the metrics.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "rrf_perfbench"
DIGESTS = HERE / "digests.json"

RUN_SECONDS = 30
# The run may take this long; a run that needs longer is killed and fails.
RUN_TIMEOUT_S = 170

# name, default seed, why (one line each)
WORKLOADS = [
    ("rrf-dense", 1,
     "RRF on 32 nodes x 100 VMs x 32 tenants, serial: IRT, IWA and the "
     "surplus pass dominate, so kernel and heap work shows"),
    ("baselines-wide", 1,
     "tshirt, WMMF and DRF on 256 nodes x 8 single-VM tenants: IRT/IWA "
     "never run, the engine shell does most of the work"),
    ("rrf-scale-sharded", 1,
     "RRF on 102,400 VMs over nproc shards: the only parallel workload, "
     "far past the caches, bounded by the serial merge"),
    ("paper-ops", 1,
     "the paper's four traces on 8 hosts with actuators and every sink, "
     "then loaded back and replayed: sinks and set-up dominate"),
]
# Workloads BENCHMARK.json gates.  The other two run (--workload, --all)
# but are not gated: over ten seeds on the shared host their spread
# exceeded the largest allowed bound, 0.25.
# - paper-ops: 0.31 in throughput and 0.41 in median latency.
# - rrf-scale-sharded: 0.25 in median latency and 0.26 in set-up, when the
#   cores the host granted it changed in the middle of a set.
# The traced runs of the gated workloads still measure every layer those
# two exercise, except real shard imbalance, which needs the sharded one.
GATED = ["rrf-dense", "baselines-wide"]

# Metrics BENCHMARK.json gates on every workload.
END_TO_END = [
    {"name": "node_rounds_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "window_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "window_tail_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
# End-to-end metrics of one workload only (paper-ops), and the share of
# failed windows.  They are printed and compared by --compare, but kept out
# of BENCHMARK.json, whose metrics must exist on every workload and
# never read 0.
EXTRA_END_TO_END = [
    {"name": "replay_rounds_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "sink_bytes_per_round", "unit": "bytes", "better": "lower",
     "bound": 0.05},
    {"name": "failed_ratio", "unit": "ratio", "better": "lower",
     "bound": 0.0},
]

# Per-layer metrics of the traced run (--trace 1); no bounds.
PER_LAYER = [(f"alloc.{k}.{m}", unit, better)
             for k in ("rrf", "irt", "iwa", "surplus", "drf", "wmmf")
             for m, unit, better in (("us_per_call", "us", "lower"),
                                     ("heap_allocs_per_call", "count",
                                      "lower"))]
PER_LAYER += [
    ("alloc.irt.reorder_ratio", "ratio", "lower"),
    ("sim.engine.self_us_per_node_round", "us", "lower"),
    ("sim.engine.heap_allocs_per_node_round", "count", "lower"),
    ("sim.engine.heap_bytes_per_node_round", "bytes", "lower"),
    ("sim.predictor.ns_per_vm", "ns", "lower"),
    ("sim.phase.predict_us_per_node_round", "us", "lower"),
    ("sim.phase.allocate_us_per_node_round", "us", "lower"),
    ("sim.phase.actuate_us_per_node_round", "us", "lower"),
    ("sim.phase.settle_us_per_node_round", "us", "lower"),
    ("sim.phase.coverage", "ratio", "higher"),
    ("sim.shard.busy_imbalance", "ratio", "lower"),
    ("sim.shard.serial_ms_per_window", "ms", "lower"),
    ("sim.shard.parallel_efficiency", "ratio", "higher"),
    ("sim.scenario_build_s", "s", "lower"),
    ("sim.first_window_s", "s", "lower"),
    ("workload.demand_ns_per_vm", "ns", "lower"),
    ("workload.demand_heap_allocs_per_window", "count", "lower"),
    ("hypervisor.actuate_us_per_node_round", "us", "lower"),
    ("hypervisor.heap_allocs_per_node_round", "count", "lower"),
    ("obs.flightrec.us_per_round", "us", "lower"),
    ("obs.journal.us_per_round", "us", "lower"),
    ("obs.ops_hub.us_per_round", "us", "lower"),
    ("obs.incidents.us_per_round", "us", "lower"),
    ("obs.audit.us_per_round", "us", "lower"),
    ("obs.flightrec.record_us_per_round", "us", "lower"),
    ("obs.flightrec.bytes_per_round", "bytes", "lower"),
    ("obs.journal.bytes_per_round", "bytes", "lower"),
    ("obs.flightrec.load_mb_per_s", "MB/s", "higher"),
    ("obs.journal.load_mb_per_s", "MB/s", "higher"),
    ("obs.flightrec.diff_us_per_round", "us", "lower"),
    ("sim.replay.us_per_round", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Environment fields two reports must share to be compared.
ENV_KEYS = ["build_type", "cxx_flags", "profiler_on", "nproc", "compiler"]
# Effective parallelism is itself measured; reports whose readings differ
# by more than this share ran on machines too differently loaded.
PARALLELISM_TOLERANCE = 0.25


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures and builds the benchmark binary (once per checkout;
    afterwards an up-to-date check).  A lock keeps concurrent runs from
    building over each other."""
    if not (ROOT / "src" / "sim" / "engine.hpp").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake is not installed")
    BUILD.mkdir(exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(BUILD / "build.log", "w") as out:
            steps = []
            if not (BUILD / "CMakeCache.txt").is_file():
                steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", str(BUILD), "--target",
                          "rrf_perfbench", "-j", jobs])
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT, env=env).returncode != 0:
                    out.flush()
                    tail = (BUILD / "build.log").read_text()[-3000:]
                    raise BenchError(f"build failed: {' '.join(step)}\n"
                                     f"{tail}")


# ----------------------------------------------------------------- runs

def load_digests():
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def default_seed(workload):
    return dict((name, seed) for name, seed, _ in WORKLOADS)[workload]


def run_binary(workload, seed, seconds, trace, expect_digest=True):
    """Runs one workload in its own process; returns its report."""
    reports = BUILD / "reports" / workload
    reports.mkdir(parents=True, exist_ok=True)
    report_path = reports / f"seed{seed}-trace{trace}.json"
    report_path.unlink(missing_ok=True)
    work = BUILD / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--report", str(report_path), "--work-dir", str(work)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans", str(traces / f"{workload}-seed{seed}.jsonl")]
    pinned = load_digests().get(workload)
    if expect_digest and pinned and pinned["seed"] == seed:
        cmd += ["--expect-digest", pinned["digest"]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not report_path.is_file():
        raise BenchError(f"{workload}: benchmark binary failed "
                         f"(exit {proc.returncode})\n{proc.stderr[-3000:]}")
    report = json.loads(report_path.read_text())
    report["report_path"] = str(report_path.relative_to(ROOT))
    return report


def result_metrics(report, trace):
    """The metrics of the result line: every end-to-end metric of
    BENCHMARK.json (trace 0) or every per-layer metric (trace 1)."""
    names = ([(n, u) for n, u, _ in PER_LAYER] if trace
             else [(m["name"], m["unit"]) for m in END_TO_END])
    metrics = {}
    for name, unit in names:
        entry = report["metrics"].get(name)
        if entry is None or not math.isfinite(entry["value"]):
            raise BenchError(f"{report['workload']}: metric {name} missing "
                             "or not finite")
        if entry["unit"] != unit:
            raise BenchError(f"{name}: unit {entry['unit']} != {unit}")
        metrics[name] = {"value": entry["value"], "unit": unit}
    return metrics


def fmt(value):
    return f"{value:.6g}"


def print_report(report):
    env = report["environment"]
    trace = report["trace"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={fmt(report['seconds'])} trace={int(trace)} "
          f"({fmt(report['elapsed_s'])} s)")
    print("environment: " + " ".join(
        f"{k}={json.dumps(env[k]) if isinstance(env[k], str) else env[k]}"
        for k in ("build_type", "cxx_flags", "profiler_on", "nproc",
                  "effective_parallelism", "git", "compiler")))
    details = report["details"]
    for name, entry in report["metrics"].items():
        line = f"  {name} = {fmt(entry['value'])} {entry['unit']}"
        if name == "window_tail_ms":
            tail = details["window_tail"]
            line += (f"  (p{fmt(tail['percentile'])} of {tail['samples']} "
                     "windows)")
        print(line)
    attempted, failed = report["attempted"], report["failed"]
    print(f"  failed_ratio = {fmt(failed / attempted if attempted else 1)} "
          f"ratio  ({failed} of {attempted} windows failed a check)")
    if trace:
        fidelity = details["fidelity"]
        print(f"  kernel-input fidelity: {fidelity['slots']} slot "
              f"entitlements over {fidelity['windows']} recorded windows, "
              f"{fidelity['mismatches']} differ")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in
                           details["layer_share_of_window"].items())
        print(f"  share of an engine window: {shares}")
    else:
        print(f"  digest {details['digest']}, worst conservation error "
              f"{details['worst_conservation_error']:.2g}")
    print(f"  report: {report['report_path']}")


def run_one(workload, seed, seconds, trace):
    report = run_binary(workload, seed, seconds, trace)
    print_report(report)
    result = {
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": result_metrics(report, trace),
    }
    return result


# -------------------------------------------------------------- compare

def load_reports(path):
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    reports = [json.loads(f.read_text()) for f in files]
    return [r for r in reports if r.get("schema") == "rrf-perfbench"]


def comparable(base, new, across_commits):
    """Reasons two reports may not be compared (empty when they may)."""
    reasons = []
    keys = ENV_KEYS + ([] if across_commits else ["git"])
    for key in keys:
        if base["environment"][key] != new["environment"][key]:
            reasons.append(f"{key}: {base['environment'][key]!r} vs "
                           f"{new['environment'][key]!r}")
    a = base["environment"]["effective_parallelism"]
    b = new["environment"]["effective_parallelism"]
    if abs(a - b) > PARALLELISM_TOLERANCE * max(a, b):
        reasons.append(f"effective_parallelism: {a:.2f} vs {b:.2f}")
    if base["trace"] != new["trace"]:
        reasons.append("traced vs untraced run")
    return reasons


def metric_values(reports, name):
    values = []
    for r in reports:
        if name == "failed_ratio":
            values.append(r["failed"] / r["attempted"])
        elif name in r["metrics"]:
            values.append(r["metrics"][name]["value"])
    return values


def compare(base_path, new_path, across_commits):
    base, new = load_reports(base_path), load_reports(new_path)
    if not base or not new:
        raise BenchError("no rrf-perfbench reports to compare")
    refusals = [f"{b['workload']}: {reason}" for b in base for n in new
                for reason in comparable(b, n, across_commits)]
    if refusals:
        print("refusing to compare reports from different environments:")
        for line in sorted(set(refusals)):
            print(f"  {line}")
        return 2
    regressions = 0
    workloads = [w for w, _, _ in WORKLOADS]
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            continue
        print(f"{workload}: {len(b)} base vs {len(n)} new report(s)")
        table = (END_TO_END + EXTRA_END_TO_END if not b[0]["trace"] else
                 [{"name": m, "unit": u, "better": bt, "bound": None}
                  for m, u, bt in PER_LAYER])
        for metric in table:
            bv = metric_values(b, metric["name"])
            nv = metric_values(n, metric["name"])
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse = (nm - bm if metric["better"] == "lower" else bm - nm)
            share = worse / abs(bm) if bm else (math.inf if worse > 0 else 0)
            bound = metric["bound"]
            verdict = ""
            if bound is not None and share > bound:
                verdict = f"  WORSE by {share:.1%} (bound {bound:.0%})"
                regressions += 1
            print(f"  {metric['name']}: {fmt(bm)} -> {fmt(nm)} "
                  f"{metric['unit']}{verdict}")
    return 1 if regressions else 0


# ------------------------------------------------------------ utilities

def write_benchmark_json():
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, _, why in WORKLOADS
                      if n in GATED],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")


def record_digests():
    digests = {}
    for workload, seed, _ in WORKLOADS:
        report = run_binary(workload, seed, 1, 0, expect_digest=False)
        if not report["correct"]:
            raise BenchError(f"{workload}: checks failed; not pinning")
        digests[workload] = {"seed": seed,
                             "digest": report["details"]["digest"]}
        print(f"{workload}: seed {seed} digest "
              f"{digests[workload]['digest']}")
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[w for w, _, _ in WORKLOADS])
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--write-benchmark-json", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--across-commits", action="store_true",
                        help="--compare: allow the git stamps to differ")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.write_benchmark_json:
            write_benchmark_json()
            return 0
        if args.compare:
            return compare(*args.compare, args.across_commits)
        build()
        if args.self_test:
            return subprocess.run([str(BINARY), "--self-test"],
                                  cwd=ROOT).returncode
        if args.record_digests:
            record_digests()
            return 0
        if args.all:
            ok = True
            for workload, seed, _ in WORKLOADS:
                seed = args.seed if args.seed is not None else seed
                result = run_one(workload, seed, args.seconds, args.trace)
                ok = ok and result["correct"]
                print()
            return 0 if ok else 1
        seed = (args.seed if args.seed is not None
                else default_seed(args.workload))
        result = run_one(args.workload, seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    except BenchError as error:
        log(f"perfbench: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
