#!/usr/bin/env python3
"""Paired perfbench A/B: this checkout against BASE_REV, timed on one host.

Usage, from anywhere inside a checkout:

    python3 bench/perf_ab.py BASE_REV [WORKLOAD...]    # default: paper_zoo

Extracts BASE_REV with `git archive` into a temporary directory, then
runs each tree's own `perfbench/run.py --workload W --seconds 4` for 10
pairs per workload, alternating which side runs first. Each tree builds
its own g10perf. Prints each side's op_s.p50 median and quartiles, the
pairs the change won and the median paired change/base ratio, and each
side's median of the other end-to-end metrics BENCHMARK.json declares
(op_s.p90, op_cpu_s.p50, peak_rss_mb, setup_s).

Exits 1 as soon as a run of either side fails, reports a failed op or
a golden other than "match". Otherwise exits 1 if, on any workload, the
median paired op_s.p50 ratio exceeds 1.10, or the change's median of
another end-to-end metric exceeds the base's median by more than that
metric's `bound` in BENCHMARK.json (change/base > 1 + bound).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 4
BUDGET = 1.10
METRIC = "op_s.p50"
# The other end-to-end metrics: name -> (bound, lower is better). Each
# side's median is gated at worse/better <= 1 + bound.
BOUNDS = {m["name"]: (m["bound"], m["better"] == "lower") for m in
          json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
          if m["name"] != METRIC}
OTHERS = tuple(BOUNDS)


def fail(msg):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(1)


def extract(rev, dest):
    """Write the tree of @p rev into @p dest; no worktree state is kept."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode:
        fail(f"git archive {rev} failed")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)
    if not (dest / "perfbench" / "run.py").is_file():
        fail(f"{rev} has no perfbench/run.py")


def run(side, tree, workload):
    """One perfbench run of @p tree; its METRIC and OTHERS values, or
    exit on bad results."""
    # Each tree builds into its own directory, whatever the caller set.
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seconds", str(SECONDS)],
                       cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or len(lines) < 2:
        fail(f"{side}: perfbench/run.py --workload {workload} exited "
             f"with {p.returncode}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if info["golden"] != "match" or result["failed"]:
        fail(f"{side}: {workload} golden {info['golden']!r}, "
             f"{result['failed']}/{result['attempted']} ops failed")
    return {m: result["metrics"][m]["value"] for m in (METRIC,) + OTHERS}


def compare(workload, trees):
    """PAIRS interleaved pairs; returns the gate failures, one string
    each."""
    runs = {"base": [], "change": []}
    for i in range(PAIRS):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run(side, trees[side], workload))
        print(f"  pair {i + 1:2d}: base {runs['base'][-1][METRIC]:.4f} s  "
              f"change {runs['change'][-1][METRIC]:.4f} s", flush=True)

    over = []
    for m in OTHERS:
        b, c = (statistics.median(r[m] for r in runs[side])
                for side in ("base", "change"))
        bound, lower = BOUNDS[m]
        worse = c / b if lower else b / c
        print(f"{workload} {m}: median base {b:.4f}  change {c:.4f} "
              f"(ratio {worse:.3f}, budget {1 + bound:.2f})")
        if worse > 1 + bound:
            over.append(f"{workload} {m} ratio {worse:.3f} > "
                        f"{1 + bound:.2f}")
    times = {side: [r[METRIC] for r in runs[side]] for side in runs}

    pairs = list(zip(times["base"], times["change"]))
    ratio = statistics.median(c / b for b, c in pairs)
    won = sum(c < b for b, c in pairs)
    for side in ("change", "base"):  # base last: its quartiles stay below
        q1, q2, q3 = statistics.quantiles(times[side], n=4,
                                          method="inclusive")
        print(f"{workload} {METRIC} {side:>6}: median {q2:.4f} s "
              f"(quartiles {q1:.4f}..{q3:.4f})")
    print(f"{workload}: change won {won}/{PAIRS} pairs, median paired "
          f"change/base {ratio:.3f} (budget {BUDGET:.2f}), base "
          f"IQR/median {(q3 - q1) / q2:.3f}", flush=True)
    if ratio > BUDGET:
        over.append(f"{workload} {METRIC} paired ratio {ratio:.3f} > "
                    f"{BUDGET:.2f}")
    return over


def main():
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    base_rev, workloads = sys.argv[1], sys.argv[2:] or ["paper_zoo"]
    with tempfile.TemporaryDirectory(prefix="g10_perf_ab_") as tmp:
        base = Path(tmp)
        extract(base_rev, base)
        trees = {"base": base, "change": ROOT}
        over = [o for w in workloads for o in compare(w, trees)]
    if over:
        fail("over budget: " + "; ".join(over))
    print("perf_ab: within budget")


if __name__ == "__main__":
    main()
