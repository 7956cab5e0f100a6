#!/usr/bin/env python3
"""Run the traced pass and print every per-layer metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/layers.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload (all four by default) this runs the benchmark with
--trace 1 and prints one row per per-layer metric, then the self time
of each layer summed over the traced ops, and host.tracing_overhead:
the traced op time (net of verification-only work) over the untraced
op time. Span files land in <build dir>/spans/.
"""

import argparse
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.THREADS))
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    a = ap.parse_args()
    ok = True
    for w in a.workload or list(run.THREADS):
        info, result = run.bench(w, a.seed, a.seconds, 1, run.HERE / "goldens.json")
        ok = ok and result["correct"]
        print(f"== {w} (seed {a.seed}, {info['traced_ops']} traced ops, "
              f"correct={result['correct']}, failed {result['failed']}/"
              f"{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
        print("  self time by layer (s, all traced ops):")
        for layer, s in sorted(info["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<26} {s:>16.6g}")
        overhead = result["metrics"]["host.tracing_overhead"]["value"]
        print(f"  host.tracing_overhead = {overhead:.4f} (traced / untraced op)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
