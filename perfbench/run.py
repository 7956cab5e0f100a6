#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (the g10core library plus the g10perf program) into
$CARGO_TARGET_DIR, or .bench_build when unset, on first use. Writes the
seeded inputs there, computes a sequential reference digest per input
stream, then splits --seconds across several measuring processes, one
per stream, and pools their per-op samples. The last stdout line is
the JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42
HELD_OUT_SEED = 7919
CHILD_TIMEOUT_S = 120
# Stands in for the reference of a stream whose reference run failed.
UNAVAILABLE = "unavailable"

# Threads each op keeps busy, the calling thread included (knee_search
# runs ExperimentEngine(3), fleet_trace ExperimentEngine(1)).
THREADS = {"paper_zoo": 1, "ssd_gc": 1, "knee_search": 4, "fleet_trace": 2}

# Measuring processes per run, one after another, each with its own
# input stream: process i of a run with seed s gets stream seed
# s * PROCESSES + i. Op times shift from process to process (address-
# space layout), and the knee_search and fleet_trace work depends on
# the stream (another arrival pattern, another search and queueing), so
# a run pools several of each rather than resting on one.
PROCESSES = 10

# Per-layer metric names and units, in report order.
LAYER_METRICS = [(m["name"], m["unit"]) for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build g10perf; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no g10 sources at {ROOT}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "g10perf"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (full log in {log})")
    return out / "g10perf"


def write_inputs(workload, seed):
    """The seeded spec files: the only inputs g10perf receives."""
    d = build_dir() / "inputs"
    d.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed)]
    for name, flag in (("elastic", "--serve-spec"), ("fleet", "--fleet-spec")):
        text = (HERE / "inputs" / f"{name}.serve.in").read_text()
        p = d / f"{name}_s{seed}.serve"
        p.write_text(text.replace("@SEED@", str(seed)))
        args += [flag, str(p)]
    return args


def start(binary, args):
    return subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE)


def finish(p):
    """Wait for one g10perf process; its last stdout line as JSON, or None."""
    try:
        out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        print("perfbench: g10perf timed out", file=sys.stderr)
        return None
    lines = out.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        print(f"perfbench: g10perf exited with {p.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_metrics(procs):
    """Per-layer medians over every traced op, plus the host metrics."""
    ops = [o for p in procs for o in p["ops"]]
    traced = [t for p in procs for t in p["traced"]]
    wall = quantile([o[0] for o in ops], 0.5)
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "engine.cpu_over_wall":
            v = quantile([o[1] / o[0] for o in ops], 0.5)
        elif name == "host.minflt_per_op":
            v = quantile([o[3] for o in ops], 0.5)
        elif name == "host.sys_share":
            v = quantile([o[2] / o[1] for o in ops if o[1] > 0], 0.5)
        elif name == "host.tracing_overhead":
            v = quantile([t["net_s"] for t in traced], 0.5) / wall if wall else 0.0
        else:
            v = quantile([t["layers"].get(name, 0.0) for t in traced], 0.5)
        out[name] = (v, unit)
    return out


def bench(workload, seed, seconds, trace, goldens):
    """One benchmark run; returns (info, result) dicts."""
    nproc = len(os.sched_getaffinity(0))
    if THREADS[workload] > nproc:
        fail(f"{workload} keeps {THREADS[workload]} threads busy but only "
             f"{nproc} CPUs are available; refusing to oversubscribe", 3)
    binary = build()
    streams = [write_inputs(workload, seed * PROCESSES + i) for i in range(PROCESSES)]

    # The references are not timed, so they run side by side, nproc at a time.
    refs = []
    for i in range(0, PROCESSES, nproc):
        batch = [start(binary, a + ["--reference"]) for a in streams[i:i + nproc]]
        refs += [finish(p) for p in batch]
    computed = [r["reference"] if r else None for r in refs]
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = json.loads(Path(goldens).read_text()).get(workload)
    golden = "absent"
    if pinned:
        golden = "mismatch" if any(c is not None and c != g
                                   for c, g in zip(computed, pinned)) else "match"
        if golden == "mismatch":
            print(f"perfbench: references {computed} != pinned goldens "
                  f"{pinned}", file=sys.stderr)
    # A failed reference run counts as one failed op. Its stream is then
    # checked against the pinned golden where there is one; elsewhere
    # against a digest no op can produce, so all of its ops fail.
    ref_failures = computed.count(None)
    reference = [c if c is not None else pinned[i] if pinned else UNAVAILABLE
                 for i, c in enumerate(computed)]

    procs, attempted, failed = [], ref_failures, ref_failures
    spans = build_dir() / "spans"
    spans.mkdir(exist_ok=True)
    for i, base in enumerate(streams):
        args = base + ["--expect", reference[i], "--trace", str(trace),
                       "--seconds", f"{seconds / PROCESSES:.3f}"]
        if trace:
            args += ["--spans", str(spans / f"{workload}_s{seed}_p{i}.json")]
        p = finish(start(binary, args))
        if p is None:  # a crashed process counts as one failed op
            attempted, failed = attempted + 1, failed + 1
            continue
        procs.append(p)
        attempted += p["attempted"]
        failed += p["failed"]
    if golden == "mismatch":  # every op matched a wrong reference
        failed = attempted
    if not procs:
        fail("every measuring process failed", 1)

    ops = [o for p in procs for o in p["ops"]]
    if trace:
        metrics = layer_metrics(procs)
    else:
        wall = [o[0] for o in ops]
        metrics = {
            "op_s.p50": (quantile(wall, 0.5), "s"),
            "op_s.p90": (quantile(wall, 0.9), "s"),
            "op_cpu_s.p50": (quantile([o[1] for o in ops], 0.5), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in procs), "MB"),
            "setup_s": (statistics.median(p["setup_s"] for p in procs), "s"),
        }
    self_s = {}
    for p in procs:
        for layer, s in p["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + s
    info = {"workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
            "nproc": nproc, "threads": THREADS[workload], "processes": PROCESSES,
            "timed_ops": len(ops),
            "traced_ops": sum(len(p["traced"]) for p in procs),
            "reference": reference, "golden": golden, "self_s": self_s}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return info, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    info, result = bench(a.workload, a.seed, a.seconds, a.trace,
                         HERE / "goldens.json")
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
